"""scripts/reproduce.py at smoke size: every file its rows write, and the
same bytes as the rows run through the CLI directly."""
import ast
import json
import os
import pathlib
import subprocess
import sys
import types

from wpgibbs import cli
from wpgibbs.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "reproduce.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"

FILES = {"verify_report.txt", "compare.csv", "compare_meta.json", "chain_0.csv",
         "run_meta.json", "bound.csv", "bound_meta.json", "ou.json", "bayes.json"}


def _reproduce():
    """scripts/reproduce.py as a module, executed from its text so that
    nothing is written next to it."""
    mod = types.ModuleType("reproduce")
    mod.__file__ = str(SCRIPT)
    exec(compile(SCRIPT.read_text(), str(SCRIPT), "exec"), mod.__dict__)
    return mod


def _ou_script_config():
    """perfbench/workloads.py's OU_SCRIPT_CONFIG, read from its text."""
    for node in ast.parse(WORKLOADS.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["OU_SCRIPT_CONFIG"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/workloads.py defines no OU_SCRIPT_CONFIG")


def _written(top):
    return {
        os.path.relpath(os.path.join(d, f), top): pathlib.Path(d, f).read_bytes()
        for d, _, names in os.walk(top) for f in names
    }


def test_smoke_run_writes_what_its_rows_write(tmp_path):
    out, direct = tmp_path / "out", tmp_path / "direct"
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    run = subprocess.run([sys.executable, str(SCRIPT), str(out), "--smoke"],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    written = _written(out)
    assert {pathlib.PurePath(p).name for p in written} == FILES
    assert {"nig_fixed_bound/bound.csv", "bayes_bound/bound.csv"} <= set(written)

    # each row's argv, run through the CLI in this process, writes the same bytes
    for where, argv in _reproduce().rows(str(out), smoke=True):
        assert main(argv + ["--out", str(direct / os.path.relpath(where, out))]) == 0
    configs = {"ou.json", "bayes.json"}
    assert _written(direct) == {p: b for p, b in written.items() if p not in configs}

    # the OU config is the one the benchmark's OU op runs
    assert json.loads(written["ou.json"]) == _ou_script_config()


def test_smoke_metadata_is_json_dumps_byte_for_byte(tmp_path, monkeypatch):
    """Every metadata payload of a smoke run, numpy scalars and all, is
    written as the text json.dumps(indent=2, sort_keys=True, default=str)
    gives for it."""
    payloads = []
    write = cli.write_metadata

    def recorded(path, payload):
        payloads.append((path, payload))
        write(path, payload)

    monkeypatch.setattr(cli, "write_metadata", recorded)
    assert _reproduce().run([str(tmp_path), "--smoke"]) == 0
    names = sorted(pathlib.PurePath(path).name for path, _ in payloads)
    assert names == ["bound_meta.json"] * 3 + ["compare_meta.json", "run_meta.json"]
    for path, payload in payloads:
        text = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
        assert pathlib.Path(path).read_text() == text, path
