"""scripts/output_hashes.py at a smoke size: two runs print the same hashes."""
import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "output_hashes.py"


def test_output_hashes_repeat(tmp_path):
    # the two runs go side by side, to stay within a few seconds
    runs = [
        subprocess.Popen(
            [sys.executable, str(SCRIPT), str(tmp_path / f"run{i}"), "--seeds", "1", "--turns", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for i in range(2)
    ]
    outs = [run.communicate() for run in runs]
    for run, (_, err) in zip(runs, outs):
        assert run.returncode == 0, err
    first, second = (out for out, _ in outs)
    assert first == second
    lines = first.splitlines()
    names = {pathlib.PurePath(line.split("  ")[1]).name for line in lines}
    assert {"bound.csv", "chain_0.csv", "compare.csv", "verify_report.txt"} <= names
    assert any(line.endswith("bound-pipeline/seed1/turn0/00-bound.indicator") for line in lines)
    failed = [line for line in lines if line.startswith("exit ") and not line.startswith("exit 0 ")]
    assert failed == ["exit 2  cases/bound.nig-exact"]
