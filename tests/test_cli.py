import json
import math

import pytest

from wpgibbs.cli import main


def test_bound_indicator_curve(tmp_path):
    out = tmp_path / "run"
    rc = main(
        [
            "bound",
            "--beta",
            "indicator:0.2",
            "--out",
            str(out),
            "--n-max",
            "10",
        ]
    )
    assert rc == 0
    rows = (out / "bound.csv").read_text().strip().splitlines()
    assert rows[0] == "n,bound"
    first = rows[1].split(",")
    assert int(first[0]) == 0 and float(first[1]) == 0.25
    last = rows[-1].split(",")
    assert float(last[1]) == pytest.approx(0.25 * math.exp(-0.2 * 10), rel=1e-9)
    meta = json.loads((out / "bound_meta.json").read_text())
    assert meta["kstar"]["kind"] == "linear"


def test_bound_nig_scaled_metadata(tmp_path):
    out = tmp_path / "run"
    rc = main(["bound", "--case", "nig", "--mode", "scaled", "--out", str(out)])
    assert rc == 0
    meta = json.loads((out / "bound_meta.json").read_text())
    consts = meta["constants"]
    assert consts["gamma_xi"] == 5.217880169569244e-06
    assert consts["gamma_tau"] == 3.6272912899504215e-05
    assert consts["gamma_xi_expr"] == "27/256 * pi^-2 * 2^-11"
    assert consts["gamma_tau_expr"] == "1.972e-4 / (2e)"


def test_invalid_inputs_exit_2(tmp_path):
    assert main(["bound", "--beta", "nosuchfamily:1"]) == 2
    assert main(["bound", "--case", "nig", "--mode", "sideways"]) == 2
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text('{"case": "unknown"}')
    assert main(["bound", "--config", str(bad_cfg)]) == 2


def test_verify_smoke_exit_0(tmp_path):
    out = tmp_path / "run"
    rc = main(
        ["verify", "--models", "3", "--trials", "4", "--out", str(out), "--n-max", "30"]
    )
    assert rc == 0
    report = (out / "verify_report.txt").read_text()
    assert "OVERALL" in report and "FAIL" not in report


def test_bound_reproducibility_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg = tmp_path / "ou.json"
    cfg.write_text(
        json.dumps(
            {
                "case": "ou",
                "mu0": 0.5,
                "tau0": 1.0,
                "times": [0.0, 0.5, 1.0],
                "obs": [0.2, 0.1, 0.3],
                "M": 8,
            }
        )
    )
    args = ["bound", "--case", "ou", "--config", str(cfg), "--seed", "3", "--n-max", "40"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "bound.csv").read_bytes() == (out2 / "bound.csv").read_bytes()


def test_compare_finite_negative_control(tmp_path):
    out = tmp_path / "run"
    rc = main(
        [
            "compare",
            "--case",
            "finite",
            "--starts",
            "5000",
            "--n-grid",
            "1,2,5,10",
            "--out",
            str(out),
            "--seed",
            "1",
        ]
    )
    assert rc == 0
    meta = json.loads((out / "compare_meta.json").read_text())
    assert meta["domination_fraction"] == 1.0
    rows = (out / "compare.csv").read_text().strip().splitlines()
    assert rows[0] == "n,bound,empirical_mean,ci_low,ci_high"
    assert len(rows) == 5
    for row in rows[1:]:
        for cell in row.split(","):
            float(cell)  # plain numbers, not numpy scalar reprs
