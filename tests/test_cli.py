import contextlib
import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wpgibbs
from wpgibbs import cli, samplers
from wpgibbs.cases import CASES
from wpgibbs.cli import main
from wpgibbs.config import case_params_from_dict, to_dict
from test_samplers import _bayes_step_reference


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
    assert meta["case"] == "custom"
    assert meta["beta"] == {"family": "indicator", "gamma": 0.2}


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
    args = ["bound", "--case", "ou", "--config", str(cfg), "--n-max", "40"]
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


@pytest.mark.parametrize("case", ["finite", "nig"])
def test_compare_csv_gives_the_bytes_of_csv_writer(tmp_path, case):
    """compare.csv at smoke size holds the bytes csv.writer gives for its own
    cells, each re-rendered from its value: the header as it is, n by
    str(int(cell)) and every other cell by repr(float(cell))."""
    out = tmp_path / "run"
    assert main(["compare", "--case", case, "--starts", "200", "--n-max", "20",
                 "--out", str(out)]) == 0
    data = (out / "compare.csv").read_bytes()
    header, *rows = list(csv.reader(io.StringIO(data.decode(), newline="")))
    assert header == ["n", "bound", "empirical_mean", "ci_low", "ci_high"]
    assert [int(row[0]) for row in rows] == list(range(1, 21))
    ref = io.StringIO(newline="")
    w = csv.writer(ref)
    w.writerow(header)
    w.writerows([str(int(row[0]))] + [repr(float(cell)) for cell in row[1:]] for row in rows)
    assert data == ref.getvalue().encode()


CASE_CONFIGS = {
    "nig": {"case": "nig", "beta_hyper": 1.5},
    "bayes": {"case": "bayes", "a": 3, "b": 1, "X": [[1, 0], [0, 1], [1, 1], [2, 1]],
              "Y": [1, 0, 2, 1], "sigma0": 0.2},
    "ou": {"case": "ou", "mu0": 0.5, "tau0": 1.0, "times": [0.0, 0.5, 1.0, 1.5],
           "obs": [0.2, 0.1, 0.3, -0.1], "M": 8},
}
TRACE_HEADERS = {
    "nig": "step,tau,xi",
    "bayes": "step,lambda,beta0,beta1",
    "ou": "step,theta",
}


def _case_argv(tmp_path, name, mode):
    """The case's default mode is left to the CLI to resolve."""
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(CASE_CONFIGS[name]))
    argv = ["--case", name, "--config", str(cfg)]
    if mode != CASES[name].modes[0]:
        argv += ["--mode", mode]
    return argv + (["--sigma0", "0.7"] if mode == "fixed" else [])


def _assert_params_round_trip(meta):
    back = case_params_from_dict(meta["params"])
    assert json.loads(json.dumps(to_dict(back))) == meta["params"]


@pytest.mark.parametrize(
    "name,mode", [(name, mode) for name, case in CASES.items() for mode in case.modes]
)
def test_sample_every_case_and_mode(tmp_path, name, mode):
    out = tmp_path / "run"
    argv = ["sample", *_case_argv(tmp_path, name, mode), "--chains", "2", "--steps", "7"]
    assert main(argv + ["--out", str(out)]) == 0
    for chain in range(2):
        rows = (out / f"chain_{chain}.csv").read_text().splitlines()
        assert rows[0] == TRACE_HEADERS[name]
        assert [int(r.split(",")[0]) for r in rows[1:]] == list(range(8))
    meta = json.loads((out / "run_meta.json").read_text())
    assert "burn_in" not in meta
    assert meta["mode"] == mode
    assert ("discretization" in meta) == (name == "ou")
    _assert_params_round_trip(meta)
    acc = meta.get("acceptance_rate_per_segment")
    if name == "ou":
        assert len(acc) == len(CASE_CONFIGS["ou"]["times"]) - 1
        assert all(0.0 <= a <= 1.0 for a in acc)
    else:
        assert acc is None


def _one_chain_rows(name, p, mode, rng, steps, acc):
    """One chain's rows from its own stream, the chain run alone."""
    if name == "nig":
        tau, xi = samplers.nig_stationary_start(p, rng, 1)
        for step in range(steps + 1):
            yield step, repr(float(tau[0])), repr(float(xi[0]))
            tau, xi = samplers.nig_step(tau, xi, p, mode, [rng])
    elif name == "bayes":
        lam = float(rng.gamma(p.a, 1.0 / p.b))
        bvec = np.zeros(p.p)
        for step in range(steps + 1):
            yield [step, repr(lam)] + [repr(float(v)) for v in bvec]
            lam, bvec = _bayes_step_reference(lam, bvec, p, rng)
    else:
        accepted = np.zeros(len(p.times) - 1)
        acc.append(accepted)
        theta, paths = samplers.ou_initial_state(p, rng)
        for step in range(steps + 1):
            yield step, repr(theta)
            theta, paths, ok = samplers.ou_da_step(theta, paths, p, rng)
            accepted += ok


def _sample_reference(out, name, mode, seed, chains, steps):
    """``sample`` with its chains run one after another, each chain's file
    written whole before the next chain starts."""
    case = CASES[name]
    p = case_params_from_dict({**CASE_CONFIGS[name], **({"sigma0": 0.7} if mode == "fixed" else {})})
    out.mkdir()
    acc = []
    for chain in range(chains):
        with open(out / f"chain_{chain}.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(case.columns(p))
            w.writerows(_one_chain_rows(name, p, mode, samplers.chain_rng(seed, chain), steps, acc))
    meta = {"command": "sample", "case": name, "seed": seed, "chains": chains, "steps": steps,
            "mode": mode, **case.sample_meta, "params": to_dict(p)}
    if acc:
        meta["acceptance_rate_per_segment"] = (sum(acc) / (chains * (steps + 1))).tolist()
    (out / "run_meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True, default=str) + "\n")


@pytest.mark.parametrize("block_rows", [5, cli._BLOCK_ROWS])
@pytest.mark.parametrize("steps", [0, 1, 40])
@pytest.mark.parametrize("chains", [1, 3, 4])
@pytest.mark.parametrize(
    "name,mode", [(name, mode) for name, case in CASES.items() for mode in case.modes]
)
def test_sample_lockstep_matches_chains_run_alone(tmp_path, monkeypatch, name, mode, chains,
                                                  steps, block_rows):
    """The chains of one run, advanced side by side and written in blocks of
    scans, give the bytes of the chains run one at a time."""
    monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    out, ref = tmp_path / "run", tmp_path / "ref"
    argv = ["sample", *_case_argv(tmp_path, name, mode), "--seed", "9",
            "--chains", str(chains), "--steps", str(steps), "--out", str(out)]
    assert main(argv) == 0
    _sample_reference(ref, name, mode, 9, chains, steps)
    files = sorted(f.name for f in ref.iterdir())
    assert files == sorted(f.name for f in out.iterdir())
    assert len(files) == chains + 1
    for f in files:
        assert (out / f).read_bytes() == (ref / f).read_bytes(), f


def test_sample_rows_cross_a_block_boundary(tmp_path):
    """401 scans of 3 chains are 1,203 rows, past the _BLOCK_ROWS = 1,024 at
    which ``sample`` writes out a block: each file is written as 342 rows
    under the header and then appended by 59, and holds the bytes of
    csv.writer with its chain run alone."""
    assert cli._BLOCK_ROWS == 1024
    out, ref = tmp_path / "run", tmp_path / "ref"
    argv = ["sample", *_case_argv(tmp_path, "nig", "scaled"), "--seed", "9",
            "--chains", "3", "--steps", "400", "--out", str(out)]
    assert main(argv) == 0
    _sample_reference(ref, "nig", "scaled", 9, 3, 400)
    for f in sorted(p.name for p in ref.iterdir()):
        assert (out / f).read_bytes() == (ref / f).read_bytes(), f


# bound has no recipe for the exact nig chain (see INVALID)
BOUND_MODES = [
    (name, mode) for name, case in CASES.items() for mode in case.modes
    if (name, mode) != ("nig", "exact")
]


@pytest.mark.parametrize("name,mode", BOUND_MODES)
def test_bound_every_case_params_round_trip(tmp_path, name, mode):
    out = tmp_path / "run"
    argv = ["bound", *_case_argv(tmp_path, name, mode), "--n-max", "5"]
    assert main(argv + ["--out", str(out)]) == 0
    meta = json.loads((out / "bound_meta.json").read_text())
    _assert_params_round_trip(meta)
    assert meta["params"]["case"] == name
    assert len((out / "bound.csv").read_text().splitlines()) == 7


def test_nig_fixed_steps_from_config(tmp_path):
    cfg = tmp_path / "nig.json"
    cfg.write_text('{"case": "nig", "beta_hyper": 1.5, "sigma0": 0.8}')
    out = tmp_path / "run"
    argv = ["bound", "--case", "nig", "--mode", "fixed", "--config", str(cfg), "--n-max", "5"]
    assert main(argv + ["--out", str(out)]) == 0
    params = json.loads((out / "bound_meta.json").read_text())["params"]
    assert params["sigma0"] == 0.8


def test_beta_hyper_from_flag_or_default(tmp_path):
    for extra, expect in (([], 1.0), (["--beta-hyper", "2.5"], 2.5)):
        out = tmp_path / f"run{expect}"
        assert main(["bound", "--case", "nig", "--n-max", "3", "--out", str(out), *extra]) == 0
        params = json.loads((out / "bound_meta.json").read_text())["params"]
        assert params["beta_hyper"] == expect


def test_ou_delta_from_flag_or_default(tmp_path):
    """There is no --delta flag: the OU bound states the recipe's delta, 1.5,
    on which its K* does not depend."""
    cfg = tmp_path / "ou.json"
    cfg.write_text(json.dumps(CASE_CONFIGS["ou"]))
    out = tmp_path / "run"
    argv = ["bound", "--case", "ou", "--config", str(cfg), "--n-max", "3", "--out", str(out)]
    assert main(argv) == 0
    constants = json.loads((out / "bound_meta.json").read_text())["constants"]
    assert constants["delta"] == 1.5
    assert main(argv + ["--delta", "2.5"]) == 2


INVALID = {
    "nig-fixed-no-step": ["bound", "--case", "nig", "--mode", "fixed"],
    "nig-fixed-no-step-sample": ["sample", "--case", "nig", "--mode", "fixed"],
    "nig-scaled-with-sigma0": ["bound", "--case", "nig", "--mode", "scaled", "--sigma0", "0.5"],
    "nig-scaled-with-sigma0-sample": ["sample", "--case", "nig", "--mode", "scaled",
                                      "--sigma0", "0.5"],
    "nig-exact-with-sigma0": ["sample", "--case", "nig", "--mode", "exact", "--sigma0", "0.5"],
    "nig-scaled-numeric-config": ["bound", "--case", "nig", "--config", "{nig_fixed}"],
    "nig-exact-bound": ["bound", "--case", "nig", "--mode", "exact"],
    "unknown-mode": ["bound", "--case", "nig", "--mode", "sideways"],
    "bayes-unknown-mode": ["sample", "--case", "bayes", "--mode", "fixed"],
    "compare-nig-fixed": ["compare", "--case", "nig", "--mode", "fixed", "--sigma0", "1"],
    "config-case-mismatch": ["bound", "--case", "ou", "--config", "{nig_fixed}"],
    "missing-params": ["sample", "--case", "bayes"],
    "non-numeric-param": ["bound", "--case", "nig", "--config", "{nig_null}"],
    "config-not-object": ["bound", "--case", "nig", "--config", "{not_object}"],
    "negative-n-max": ["bound", "--beta", "indicator:0.2", "--n-max", "-3"],
    "negative-n-in-grid": ["bound", "--beta", "indicator:0.2", "--n-grid", "5,-1"],
    "negative-n-compare": ["compare", "--case", "finite", "--n-grid=-2,3"],
    "repeated-n-in-grid": ["bound", "--beta", "indicator:0.2", "--n-grid", "5,5,2"],
    "repeated-n-compare": ["compare", "--case", "finite", "--n-grid", "1,1,1,50"],
    "empty-n-grid": ["bound", "--beta", "indicator:0.2", "--n-grid", ""],
    "empty-n-grid-compare": ["compare", "--case", "finite", "--n-grid="],
    "empty-n-in-grid": ["bound", "--beta", "indicator:0.2", "--n-grid", "1,,2"],
    "fractional-n-in-grid": ["compare", "--case", "finite", "--n-grid", "1,2.5"],
    # a flag and the config give the same field
    "beta-hyper-and-config": ["bound", "--case", "nig", "--config", "{nig_scaled}",
                              "--beta-hyper", "5"],
    "gamma-and-config": ["bound", "--case", "bayes", "--config", "{bayes_gamma}",
                         "--gamma", "0.5"],
    "sigma0-and-config": ["bound", "--case", "nig", "--mode", "fixed", "--config", "{nig_fixed}",
                          "--sigma0", "0.5"],
    # non-finite and fractional numbers
    "nig-gamma-inf": ["bound", "--case", "nig", "--gamma", "inf"],
    # gamma_dg is a spectral gap of a positive semidefinite kernel: at most 1
    "nig-gamma-above-one": ["bound", "--case", "nig", "--gamma", "4"],
    "bayes-gamma-above-one": ["bound", "--case", "bayes", "--config", "{bayes_gamma_big}"],
    "nig-sigma0-nan": ["sample", "--case", "nig", "--mode", "fixed", "--sigma0", "nan"],
    "shorthand-inf": ["bound", "--beta", "indicator:inf"],
    "shorthand-not-a-number": ["bound", "--beta", "indicator:abc"],
    # numbers that overflow or underflow where they are formed
    "powerlaw-exponent-overflows": ["bound", "--beta", "powerlaw:1,1e-3"],
    "powerlaw-coefficient-overflows": ["bound", "--beta", "powerlaw:1e-300,0.5"],
    "explogsquare-a-squared-underflows": ["bound", "--beta", "explogsquare:0.25,1e-300"],
    # a config number is a JSON number: never a boolean or a numeric string
    "config-bool-number": ["bound", "--case", "nig", "--config", "{nig_bool}"],
    "config-string-number": ["bound", "--case", "nig", "--config", "{nig_string}"],
    "bayes-a-inf": ["sample", "--case", "bayes", "--config", "{bayes_a_inf}"],
    "bayes-y-nan": ["bound", "--case", "bayes", "--config", "{bayes_y_nan}"],
    "ou-mu0-inf": ["sample", "--case", "ou", "--config", "{ou_mu0_inf}"],
    "ou-fractional-M": ["sample", "--case", "ou", "--config", "{ou_fractional_M}"],
    "ou-M-beyond-float": ["sample", "--case", "ou", "--config", "{ou_huge_M}"],
    "ou-times-inf": ["sample", "--case", "ou", "--config", "{ou_times_inf}"],
    # every entry of a list field is a JSON number too
    "ou-times-bool": ["sample", "--case", "ou", "--config", "{ou_times_bool}"],
    "ou-obs-string": ["bound", "--case", "ou", "--config", "{ou_obs_string}"],
    "bayes-x-mixed": ["sample", "--case", "bayes", "--config", "{bayes_x_mixed}"],
    "bayes-y-string": ["bound", "--case", "bayes", "--config", "{bayes_y_string}"],
    "beta-hyper-bayes": ["bound", "--case", "bayes", "--config", "{bayes}",
                         "--beta-hyper", "2"],
    "sigma0-bayes": ["sample", "--case", "bayes", "--config", "{bayes}", "--sigma0", "0.5"],
    "beta-hyper-ou": ["sample", "--case", "ou", "--config", "{ou}", "--beta-hyper", "2"],
    "sigma0-ou": ["bound", "--case", "ou", "--config", "{ou}", "--sigma0", "0.5"],
    "beta-with-case": ["bound", "--beta", "indicator:0.2", "--case", "nig"],
    "beta-with-config": ["bound", "--beta", "indicator:0.2", "--config", "{nig_scaled}"],
    "beta-with-gamma": ["bound", "--beta", "indicator:0.2", "--gamma", "0.1"],
    "beta-with-sigma0": ["bound", "--beta", "indicator:0.2", "--sigma0", "3"],
    "beta-with-beta-hyper": ["bound", "--beta", "indicator:0.2", "--beta-hyper", "2"],
    "beta-with-mode": ["bound", "--beta", "indicator:0.2", "--mode", "fixed"],
    "compare-finite-gamma": ["compare", "--case", "finite", "--gamma", "0.1"],
    "compare-finite-sigma0": ["compare", "--case", "finite", "--sigma0", "2"],
    "compare-finite-beta-hyper": ["compare", "--case", "finite", "--beta-hyper", "4"],
    "compare-finite-config": ["compare", "--case", "finite", "--config", "{nig_scaled}"],
    "compare-finite-mode": ["compare", "--case", "finite", "--mode", "full"],
    # --delta is not an option: each of these is an unknown argument
    "delta-nig": ["bound", "--case", "nig", "--delta", "2"],
    "delta-bayes": ["bound", "--case", "bayes", "--config", "{bayes}", "--delta", "2"],
    "delta-with-beta": ["bound", "--beta", "indicator:0.2", "--delta", "2"],
    "delta-ou-one": ["bound", "--case", "ou", "--config", "{ou}", "--delta", "1"],
    "delta-ou-below-one": ["bound", "--case", "ou", "--config", "{ou}", "--delta", "0.5"],
    "delta-ou-nan": ["bound", "--case", "ou", "--config", "{ou}", "--delta", "nan"],
    "shorthand-extra-value": ["bound", "--beta", "indicator:0.2,9"],
    "shorthand-missing-value": ["bound", "--beta", "powerlaw:1.0"],
    "shorthand-table": ["bound", "--beta", "table:1"],
    "config-unknown-key": ["bound", "--case", "nig", "--config", "{nig_misnamed_step}"],
    "sample-gamma": ["sample", "--case", "nig", "--gamma", "0.3"],
    "compare-zero-starts": ["compare", "--case", "finite", "--starts", "0"],
    "sample-zero-chains": ["sample", "--case", "nig", "--chains", "0"],
    "sample-negative-steps": ["sample", "--case", "nig", "--steps", "-3"],
    "sample-ou-negative-steps": ["sample", "--case", "ou", "--config", "{ou}", "--steps", "-1"],
    "verify-zero-models": ["verify", "--models", "0"],
    "verify-negative-n-max": ["verify", "--n-max", "-1"],
    # --n-step is not an option: --n-grid gives any grid it could
    "n-step-zero": ["bound", "--beta", "indicator:0.2", "--n-step", "0"],
    "n-step-negative": ["compare", "--case", "finite", "--n-step", "-2"],
    "n-step": ["bound", "--case", "nig", "--n-step", "2"],
    "compare-grid-without-positive-n": ["compare", "--case", "finite", "--n-grid", "0"],
    "verify-states-zero": ["verify", "--states", "0x3"],
    "verify-states-one": ["verify", "--states", "1x3"],
    "verify-states-malformed": ["verify", "--states", "3by3"],
    "verify-states-one-size": ["verify", "--states", "3x"],
    "compare-one-start": ["compare", "--case", "nig", "--starts", "1", "--n-grid", "1,2"],
    "bayes-1d-design": ["sample", "--case", "bayes", "--config", "{bayes_1d_x}"],
    "n-max-not-int": ["bound", "--n-max", "x"],
    # beta / sigma0^2 overflows, so the profile's gamma arguments are inf
    "nig-fixed-scale-overflows": ["bound", "--case", "nig", "--mode", "fixed",
                                  "--beta-hyper", "1e308", "--sigma0", "1e-5"],
    # a finite beta / sigma0^2 whose product with W_{-1} overflows
    "nig-fixed-scaled-w-overflows": ["bound", "--case", "nig", "--mode", "fixed",
                                     "--beta-hyper", "1e306", "--sigma0", "0.1"],
    "unknown-flag": ["bound", "--nosuch", "1"],
    # bound draws no random numbers, so it takes no --seed
    "bound-seed": ["bound", "--beta", "indicator:0.2", "--seed", "3"],
    "no-command": [],
    # no --case (and for bound no --beta): the error names the missing flag
    "bound-without-case": ["bound"],
    "sample-without-case": ["sample"],
    "compare-without-case": ["compare"],
}


# a warning would print to stderr beside the error line outside pytest
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", INVALID.values(), ids=INVALID.keys())
def test_invalid_input_exits_2_with_one_line(tmp_path, capsys, argv):
    files = {
        "nig_fixed": '{"case": "nig", "beta_hyper": 1.0, "sigma0": 0.8}',
        "nig_null": '{"case": "nig", "beta_hyper": null}',
        "nig_bool": '{"case": "nig", "beta_hyper": true}',
        "nig_string": '{"case": "nig", "beta_hyper": "2.0"}',
        "nig_misnamed_step": '{"case": "nig", "beta_hyper": 1, "sigma_xi": 0.5}',
        "not_object": "[1, 2]",
        "nig_scaled": '{"case": "nig", "beta_hyper": 2.0}',
        "bayes": json.dumps(CASE_CONFIGS["bayes"]),
        "ou": json.dumps(CASE_CONFIGS["ou"]),
        "bayes_1d_x": json.dumps({**CASE_CONFIGS["bayes"], "X": [1, 2, 3], "Y": [1, 0, 2]}),
        "bayes_gamma": json.dumps({**CASE_CONFIGS["bayes"], "gamma_dg": 0.5}),
        "bayes_gamma_big": json.dumps({**CASE_CONFIGS["bayes"], "gamma_dg": 1.5}),
        "bayes_a_inf": json.dumps({**CASE_CONFIGS["bayes"], "a": math.inf}),
        "bayes_y_nan": json.dumps({**CASE_CONFIGS["bayes"], "Y": [1, 0, math.nan, 1]}),
        "ou_mu0_inf": json.dumps({**CASE_CONFIGS["ou"], "mu0": math.inf}),
        "ou_fractional_M": json.dumps({**CASE_CONFIGS["ou"], "M": 8.7}),
        "ou_huge_M": json.dumps({**CASE_CONFIGS["ou"], "M": 10 ** 400}),
        "ou_times_inf": json.dumps({**CASE_CONFIGS["ou"], "times": [0.0, 0.5, 1.0, math.inf]}),
        "ou_times_bool": json.dumps({**CASE_CONFIGS["ou"], "times": [0.0, True, 2.0, 3.0]}),
        "ou_obs_string": json.dumps({**CASE_CONFIGS["ou"], "obs": ["0.5", 0.1, 0.3, -0.1]}),
        "bayes_x_mixed": json.dumps({**CASE_CONFIGS["bayes"],
                                     "X": [["1", 0], [True, 1], [1, 1], [2, 1]]}),
        "bayes_y_string": json.dumps({**CASE_CONFIGS["bayes"], "Y": [1, "0", 2, 1]}),
    }
    paths = {}
    for key, text in files.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(text)
    out = tmp_path / "run"
    argv = [a.format(**paths) for a in argv] + ["--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command,flags", [
    ("bound", "--beta or --case"), ("sample", "--case"), ("compare", "--case")])
def test_missing_case_names_the_flag(tmp_path, capsys, command, flags):
    assert main([command, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: {command} needs {flags}\n"


@pytest.mark.parametrize("key", ["nig-fixed-scale-overflows", "nig-fixed-scaled-w-overflows"])
def test_nig_scale_overflow_names_its_inputs(tmp_path, capsys, key):
    assert main(INVALID[key] + ["--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "beta_hyper" in err and "sigma0" in err and "gammainc" not in err


def test_ou_envelope_beyond_the_grid_names_its_inputs(tmp_path, capsys):
    # m = -422.4 and eta = 1459.7: the envelope's mode exp(-b/a) underflows,
    # so the profile is 0 at every u-grid point
    cfg = tmp_path / "ou.json"
    cfg.write_text(json.dumps({"case": "ou", "mu0": -427, "tau0": 2.15, "times": [0, 0.5, 1, 2],
                               "obs": [-38.2, 0.07, 10.9, -21.9]}))
    out = tmp_path / "run"
    assert main(["bound", "--case", "ou", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "mu0" in err and "tau0" in err and not out.exists()


def test_repeated_n_is_named(tmp_path, capsys):
    argv = ["compare", "--case", "finite", "--n-grid", "1,50,1", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --n-grid gives n = 1 more than once\n"


@pytest.mark.parametrize("grid", ["", "1,,2", "1,2.5", "x"])
def test_malformed_n_grid_is_named(tmp_path, capsys, grid):
    """An empty --n-grid once fell back to the --n-max grid and exited 0,
    and an empty entry exited 2 with int()'s message."""
    argv = ["bound", "--beta", "indicator:0.2", "--n-grid", grid, "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: --n-grid must be comma-separated whole numbers, got {grid!r}\n")


def _run_pair(tmp_path, capsys, fresh: bool):
    """An exit-2 command (a parse error and a rejected value) and then a
    valid one, each on the reused parser or on one built for it alone."""
    outputs = []
    for i, argv in enumerate((["bound", "--n-max", "ten"], ["verify", "--models", "0"],
                              ["verify", "--models", "2", "--trials", "3", "--n-max", "20",
                               "--verbose", "--seed", "4"])):
        if fresh:
            cli._parser.cache_clear()
        out = tmp_path / f"{'fresh' if fresh else 'reused'}{i}"
        rc = main(argv + ["--out", str(out)])
        report = out / "verify_report.txt"
        outputs.append((rc, capsys.readouterr(), report.read_text() if report.exists() else None))
    return outputs


def test_parser_is_built_once_and_reused(tmp_path, capsys, monkeypatch):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    reused = _run_pair(tmp_path, capsys, fresh=False)
    assert len(builds) == 1
    fresh = _run_pair(tmp_path, capsys, fresh=True)
    assert [rc for rc, _, _ in reused] == [2, 2, 0]
    assert [(rc, (io.out + io.err).replace("fresh", "reused"), text) for rc, io, text in fresh] == [
        (rc, io.out + io.err, text) for rc, io, text in reused]
    assert reused[0][1].err.startswith("error: argument --n-max: invalid int value")


def test_help_exits_0():
    for argv in (["-h"], ["bound", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0


NO_SCIPY = """
import sys
sys.modules["scipy"] = None
from wpgibbs.cli import main
out, bayes, ou = sys.argv[1:]
runs = [
    ["bound", "--beta", "explogsquare:0.25,1.0", "--n-max", "50"],
    ["bound", "--case", "bayes", "--config", bayes, "--n-max", "5"],
    ["verify", "--models", "1", "--trials", "2", "--n-max", "10"],
    ["sample", "--case", "ou", "--config", ou, "--chains", "1", "--steps", "5"],
    ["compare", "--case", "finite", "--starts", "200", "--n-grid", "1,2"],
]
for i, argv in enumerate(runs):
    rc = main(argv + ["--out", f"{out}/{i}"])
    if rc != 0:
        sys.exit(f"{argv} exited {rc}")
"""


def test_commands_run_without_scipy(tmp_path):
    """scipy is a test dependency only: no command may import it."""
    paths = []
    for name in ("bayes", "ou"):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(CASE_CONFIGS[name]))
    src = str(pathlib.Path(wpgibbs.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY, str(tmp_path / "out"), *map(str, paths)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# one error line or a sound curve, for every input
# ---------------------------------------------------------------------------


def _assert_sound_bound(out):
    """``out`` holds a finite, nonincreasing curve in [0, 1/4] and a
    ``bound_meta.json`` of plain JSON; returns the metadata."""
    with open(os.path.join(out, "bound.csv"), newline="") as fh:
        curve = np.array([float(row["bound"]) for row in csv.DictReader(fh)])
    assert curve.size > 0 and np.isfinite(curve).all()
    assert np.all((curve >= 0.0) & (curve <= 0.25)) and np.all(np.diff(curve) <= 0.0)
    with open(os.path.join(out, "bound_meta.json")) as fh:
        return json.load(fh, parse_constant=lambda c: pytest.fail(f"bound_meta.json holds {c}"))


def _bayes_design(N, p, scales, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(N, p)) * scales
    return X, X @ rng.normal(size=p) + rng.normal(size=N)


# exit-0 inputs once found by the fuzz below; a warning fails them
EXIT_0 = {
    # the profile's mode exp(-b/a) overflows; beta is c at every s
    "explogsquare-mode-overflows": ["--beta", "explogsquare:3.16,0.0034,-14.7"],
    # the OU envelope's mode passes the largest double (tau0 = 13.3, m = 552)
    "ou-envelope-mode-overflows": ["--case", "ou", "--config", "{ou_far_mode}"],
    # a' = a + (N - p)/2 passes 171.6, where Gamma(a') overflows
    "bayes-400": ["--case", "bayes", "--config", "{bayes_400}"],
    "bayes-5000": ["--case", "bayes", "--config", "{bayes_5000}"],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", EXIT_0.values(), ids=EXIT_0.keys())
def test_named_inputs_exit_0_with_a_sound_curve(tmp_path, argv):
    files = {"ou_far_mode": {"case": "ou", "mu0": 419.3325, "tau0": 13.3,
                             "times": [0.0, 0.5, 1.0, 1.5], "obs": [3.0, 0.0, 0.3, -0.1], "M": 8}}
    for N in (400, 5000):
        X, Y = _bayes_design(N, 2, [1.0, 1.0], N)
        files[f"bayes_{N}"] = {"case": "bayes", "a": 2.5, "b": 1.0, "sigma0": 0.3,
                               "X": X.tolist(), "Y": Y.tolist()}
    paths = {}
    for key, cfg in files.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["bound", *(a.format(**paths) for a in argv), "--out", str(out)]) == 0
    meta = _assert_sound_bound(out)
    key = argv[-1].strip("{}")
    if key.startswith("bayes_"):
        N = len(files[key]["X"])
        assert meta["constants"]["a_prime"] == 2.5 + (N - 2) / 2


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@st.composite
def _fuzz_argv(draw, kind):
    """A ``bound`` argv of one kind, and the config file it reads, if any."""
    if kind == "nig":
        edge = st.sampled_from([1e-6, 1e6])
        beta, sigma0 = (draw(_log_uniform(1e-6, 1e6) | edge) for _ in range(2))
        return ["--case", "nig", "--mode", "fixed", "--beta-hyper", repr(beta),
                "--sigma0", repr(sigma0)], None
    if kind == "bayes":
        N, p = draw(st.integers(2, 2000)), draw(st.integers(1, 4))
        scales = [draw(_log_uniform(1e-2, 1e2)) for _ in range(p)]
        X, Y = _bayes_design(N, p, scales, draw(st.integers(0, 2 ** 31)))
        cfg = {"case": "bayes", "a": draw(st.just(1.0) | _log_uniform(1e-6, 1e6).map(lambda v: 1.0 + v)),
               "b": draw(_log_uniform(1e-6, 1e6)), "sigma0": draw(_log_uniform(1e-6, 1e6)),
               "X": X.tolist(), "Y": Y.tolist()}
        return ["--case", "bayes"], cfg
    if kind == "ou":
        gaps = draw(st.lists(_log_uniform(1e-3, 25.0), min_size=1, max_size=40))
        times = np.concatenate([[0.0], np.cumsum(gaps)])
        times = times[times <= 50.0]
        obs = draw(st.lists(st.floats(-50.0, 50.0), min_size=times.size, max_size=times.size))
        cfg = {"case": "ou", "mu0": draw(st.floats(-1e3, 1e3)), "tau0": draw(_log_uniform(1e-3, 1e3)),
               "times": times.tolist(), "obs": obs, "M": draw(st.integers(2, 256))}
        return ["--case", "ou"], cfg
    family = draw(st.sampled_from(["indicator", "powerlaw", "explogsquare"]))
    if family == "indicator":
        values = [draw(_log_uniform(1e-6, 1e6))]
    elif family == "powerlaw":
        values = [draw(_log_uniform(1e-6, 1e6)), draw(_log_uniform(1e-3, 1e3))]
    else:
        values = [draw(_log_uniform(1e-6, 1e2)), draw(_log_uniform(1e-4, 1e2)),
                  draw(st.floats(-100.0, 100.0))]
    return ["--beta", f"{family}:{','.join(map(repr, values))}"], None


@pytest.mark.parametrize("kind", ["nig", "bayes", "ou", "beta"])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_bound_fuzz_exits_2_with_one_line_or_writes_a_sound_curve(kind, data):
    argv, cfg = data.draw(_fuzz_argv(kind))
    with tempfile.TemporaryDirectory() as tmp:
        if cfg is not None:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            argv = argv + ["--config", path]
        out = os.path.join(tmp, "run")
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            rc = main(["bound", *argv, "--n-max", "50", "--out", out])
        assert not caught, [str(w.message) for w in caught]
        if rc == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert not os.path.exists(out)
            return
        assert rc == 0 and err.getvalue() == ""
        _assert_sound_bound(out)
