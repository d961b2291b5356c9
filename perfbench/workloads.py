"""Workload generators: one fixed cycle of ops per workload.

Every op gets freshly drawn parameters from the workload's random stream,
so no two ops share work.  Each op carries what the checker needs to
verify its output: the requested grid, closed-form parameters, expected
metadata constants and, for bound curves, the recipe of the soundness
reference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

# paper constants, recomputed from their stated expressions
C_RWM = 1.972e-4
C_XI = math.pi ** -2 * 2.0 ** -11
GAMMA_XI_SCALED = 27.0 / 256.0 * C_XI
GAMMA_TAU_SCALED = C_RWM / (2.0 * math.e)
MODES = ("full", "strong", "joint_2mg", "marginal_2mg")
# the CLI's default --delta, which the OU bound reports
OU_DELTA = 1.5
# default n-max of the CLI's bound, verify and compare commands, and the
# default trials of verify
CLI_N_MAX = 200
CLI_TRIALS = 20

# the config of scripts/run_ou_traces.py, whose n = 200 bound is a known
# under-report of the numeric rate path; it is the OU op of the warm-up cycle
OU_SCRIPT_CONFIG = {
    "case": "ou", "mu0": 0.5, "tau0": 1.0,
    "times": [0.0, 0.5, 1.0, 1.5, 2.0], "obs": [0.2, 0.1, 0.3, -0.1, 0.2], "M": 32,
}


@dataclass
class Op:
    """One operation.  ``argv`` is a CLI command (``{dir}`` is replaced by
    the op's directory); ``lib`` is a library recipe run through
    conjugate -> compose_mwg -> RateBound instead."""

    slot: str
    kind: str  # bound | verify | sample | compare
    argv: Optional[List[str]] = None
    lib: Optional[dict] = None
    files: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)
    rerun: bool = False


def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


# Parameters whose value sets an op's cost are spread evenly over their range
# across the cycles of a run instead of drawn independently: cycle ``turn``
# takes the point turn * STRIDES[k] (mod 1) of the R2 low-discrepancy
# sequence, moved by a fresh draw of up to JITTER.  So every run holds the
# same spread of costly and cheap ops, and the seed still sets every value.
STRIDES = (0.7548776662466927, 0.5698402909980532)
JITTER = 0.125


def _spread(rng, turn: int, k: int, lo: float, hi: float) -> float:
    q = (turn * STRIDES[k] + rng.uniform(0.0, JITTER)) % 1.0
    return lo + (hi - lo) * float(q)


def _short_grid(rng) -> List[int]:
    top = 10.0 ** _u(rng, 3.0, 5.0)
    return [0] + sorted({int(round(v)) for v in np.geomspace(1.0, top, 16)})


def _grid_args(grid: List[int]) -> List[str]:
    return ["--n-grid", ",".join(str(n) for n in grid)]


def _long_grid(n_max: int) -> List[int]:
    return list(range(n_max + 1))


# ---------------------------------------------------------------------------
# case parameters and the constants the CLI must report for them
# ---------------------------------------------------------------------------


def bayes_config(rng) -> dict:
    N = int(rng.integers(6, 13))
    p = int(rng.integers(1, 4))
    return {
        "case": "bayes", "a": _u(rng, 1.5, 4.0), "b": _u(rng, 0.5, 2.0),
        "X": rng.normal(size=(N, p)).tolist(), "Y": rng.normal(size=N).tolist(),
        "sigma0": _u(rng, 0.05, 0.3),
    }


def bayes_constants(cfg: dict) -> dict:
    X = np.asarray(cfg["X"], dtype=float)
    Y = np.asarray(cfg["Y"], dtype=float)
    N, p = X.shape
    gram = X.T @ X
    u = np.linalg.solve(gram, X.T @ Y)
    resid = float(Y @ Y - u @ gram @ u)
    eig = np.linalg.eigvalsh(gram)
    a_prime = cfg["a"] + N / 2.0 - p / 2.0
    b_prime = cfg["b"] + max(resid, 0.0) / 2.0
    C1 = 1.0 / (C_RWM * eig[0] * cfg["sigma0"] ** 2)
    C2 = 2.0 * eig[-1] * p * cfg["sigma0"] ** 2
    return {"a_prime": a_prime, "b_prime": b_prime, "C1": C1, "C2": C2,
            "rate_exponent": min(a_prime, b_prime / C2), "B_upper_tail": 2.0}


def ou_config(rng) -> dict:
    k = 5
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 0.7, size=k - 1))])
    while True:
        obs = rng.uniform(-0.3, 0.3, size=k)
        if ou_eta(times, obs) > 0.0:
            break
    return {"case": "ou", "mu0": _u(rng, -0.5, 1.0), "tau0": _u(rng, 0.5, 1.5),
            "times": times.tolist(), "obs": obs.tolist(), "M": 32}


def ou_eta(times, obs) -> float:
    t, y = np.asarray(times), np.asarray(obs)
    return float(np.max(np.diff(t) - y[1:] ** 2 + y[:-1] ** 2))


def ou_constants(cfg: dict) -> dict:
    eta = ou_eta(cfg["times"], cfg["obs"])
    tau0 = cfg["tau0"]
    m = cfg["mu0"] + tau0 ** 2 * (cfg["times"][-1] - cfg["times"][0]) / 2.0
    return {"a": 2.0 / (eta ** 2 * tau0 ** 2), "eta": eta, "m": m, "delta": OU_DELTA,
            "envelope_K": cfg.get("envelope_K", 1.0)}


def ou_envelope(cfg: dict) -> dict:
    """The squared-log envelope the OU bound conjugates, from its formula."""
    c = ou_constants(cfg)
    tau0 = cfg["tau0"]
    return {"family": "explogsquare", "c": max(0.25, c["envelope_K"] / 2.0),
            "a": math.sqrt(2.0) / (c["eta"] * tau0), "b": -c["m"] / (math.sqrt(2.0) * tau0)}


def nig_fixed_constants(beta: float, sigma0: float) -> dict:
    high = beta / sigma0 > 1.0
    return {
        "rate_exponent": 1.0 / 14.0 if high else beta / (4.0 * beta + 10.0 * sigma0),
        "regime": "beta/sigma0 > 1" if high else "beta/sigma0 <= 1",
        "envelope_exponents": [0.25, min(0.5, beta / (2.0 * sigma0 * sigma0))],
    }


# ---------------------------------------------------------------------------
# bound-pipeline
# ---------------------------------------------------------------------------


def _bound_op(slot, argv, grid, offset=0, closed=None, recipe=None, meta=None,
              files=None) -> Op:
    return Op(slot=slot, kind="bound", argv=["bound"] + argv + _grid_args(grid),
              files=files or {},
              expect={"grid": grid, "offset": offset, "closed": closed,
                      "recipe": recipe, "meta": meta or {}})


def op_nig_fixed(rng, turn: int) -> Op:
    # beta / sigma0 sets the cost of the conjugations
    beta, sigma0 = _spread(rng, turn, 0, 0.5, 3.0), _spread(rng, turn, 1, 0.5, 2.0)
    gamma = _u(rng, 0.5, 1.0)
    grid = _long_grid(CLI_N_MAX)
    recipe = {"mode": "strong", "gamma0": gamma,
              "k1": {"family": "nig1", "beta_hyper": beta, "sigma0": sigma0},
              "k2": {"family": "nig2", "beta_hyper": beta, "sigma0": sigma0}}
    return _bound_op("bound.nig-fixed",
                     ["--case", "nig", "--mode", "fixed", "--beta-hyper", repr(beta),
                      "--sigma0", repr(sigma0), "--gamma", repr(gamma)],
                     grid, recipe=recipe, meta=nig_fixed_constants(beta, sigma0))


def op_bayes(rng) -> Op:
    cfg = bayes_config(rng)
    gamma = _u(rng, 0.5, 1.0)
    consts = bayes_constants(cfg)
    recipe = {"mode": "marginal_2mg", "gamma0": gamma, "k1": None,
              "k2": {"family": "bayes2", **{k: consts[k] for k in ("a_prime", "b_prime", "C1", "C2")}}}
    return _bound_op("bound.bayes",
                     ["--case", "bayes", "--config", "{dir}/case.json", "--gamma", repr(gamma)],
                     _long_grid(CLI_N_MAX), offset=1, recipe=recipe, meta=consts,
                     files={"case.json": cfg})


def op_ou(rng, cfg=None, grid=None, gamma=None) -> Op:
    cfg = cfg or ou_config(rng)
    gamma = gamma if gamma is not None else _u(rng, 0.5, 1.0)
    recipe = {"mode": "marginal_2mg", "gamma0": gamma, "k1": None, "k2": ou_envelope(cfg)}
    return _bound_op("bound.ou",
                     ["--case", "ou", "--config", "{dir}/case.json", "--gamma", repr(gamma)],
                     grid or _long_grid(CLI_N_MAX), offset=1, recipe=recipe,
                     meta=ou_constants(cfg), files={"case.json": cfg})


def op_ou_script(rng) -> Op:
    return op_ou(rng, cfg=dict(OU_SCRIPT_CONFIG), grid=_long_grid(CLI_N_MAX), gamma=1.0)


def op_explogsquare(rng, turn: int) -> Op:
    # a sets the length of the curve's bisections
    a, b = _spread(rng, turn, 0, 0.5, 2.0), _u(rng, -0.5, 0.5)
    desc = {"family": "explogsquare", "c": 0.25, "a": a, "b": b}
    return _bound_op("bound.explogsquare", ["--beta", f"explogsquare:0.25,{a!r},{b!r}"],
                     _long_grid(1000), recipe={"mode": None, "k2": desc})


# curve lengths of the closed-form ops: the CLI default, a 16-point log grid
# and n-max 2000
CLOSED_LENGTHS = ("default", "short", "long")


def _closed_grid(rng, length: str) -> List[int]:
    if length == "short":
        return _short_grid(rng)
    return _long_grid(2000 if length == "long" else CLI_N_MAX)


def op_indicator(rng, length="default") -> Op:
    grid = _closed_grid(rng, length)
    # keep gamma * n well inside double range: exp(-gamma n) must not underflow
    gamma = _u(rng, 5.0, 600.0) / grid[-1]
    return _bound_op("bound.indicator", ["--beta", f"indicator:{gamma!r}"], grid,
                     closed=("linear", gamma),
                     recipe={"mode": None, "k2": {"family": "indicator", "gamma": gamma}})


def op_powerlaw(rng, length="default") -> Op:
    c, alpha = _u(rng, 0.1, 2.0), _u(rng, 0.3, 2.0)
    grid = _closed_grid(rng, length)
    coef = (alpha / (1.0 + alpha)) * (c * (1.0 + alpha)) ** (-1.0 / alpha)
    desc = {"family": "powerlaw", "coefficient": c, "exponent": alpha}
    return _bound_op("bound.powerlaw", ["--beta", f"powerlaw:{c!r},{alpha!r}"], grid,
                     closed=("power", coef, 1.0 + 1.0 / alpha),
                     recipe={"mode": None, "k2": desc})


def op_nig_scaled(rng, length="default") -> Op:
    beta, gamma = _u(rng, 0.5, 3.0), _u(rng, 0.3, 1.0)
    grid = _closed_grid(rng, length)
    slope = GAMMA_TAU_SCALED * GAMMA_XI_SCALED * gamma
    meta = {"gamma_xi": GAMMA_XI_SCALED, "gamma_tau": GAMMA_TAU_SCALED, "slope": slope}
    return _bound_op("bound.nig-scaled",
                     ["--case", "nig", "--mode", "scaled", "--beta-hyper", repr(beta),
                      "--gamma", repr(gamma)],
                     grid, closed=("linear", slope), meta=meta)


def _powerlaw_desc(rng) -> dict:
    return {"family": "powerlaw", "coefficient": _u(rng, 0.2, 1.5), "exponent": _u(rng, 0.3, 1.5)}


def _table_desc(rng) -> dict:
    s, v = _u(rng, 0.5, 2.0), 0.25
    knots = [[s, v]]
    for _ in range(4):
        s *= _u(rng, 3.0, 30.0)
        v *= _u(rng, 0.05, 0.7)
        knots.append([s, v])
    return {"family": "table", "knots": knots}


def _lib_op(slot, rng, desc, grid, mode) -> Op:
    recipe = {"mode": mode, "gamma0": _u(rng, 0.3, 1.0),
              "k1": {"linear": _u(rng, 0.3, 1.0)} if mode in ("full", "strong") else None,
              "k2": desc}
    return Op(slot=slot, kind="bound", lib={**recipe, "grid": grid},
              expect={"grid": grid, "offset": 1 if mode == "marginal_2mg" else 0,
                      "closed": None, "recipe": recipe, "meta": None})


# The library ops take the cycle's turn: their compose mode, and the shape
# of their profile where it sets the op's cost, rotate with it instead of
# being drawn, as _spread does for numbers.  The three ops of one cycle use
# three different modes.


def op_table(rng, turn: int) -> Op:
    return _lib_op("lib.table", rng, _table_desc(rng), _long_grid(CLI_N_MAX),
                   MODES[turn % len(MODES)])


def op_sum(rng, turn: int) -> Op:
    children = [_powerlaw_desc(rng) for _ in range(2 + turn % 2)]
    return _lib_op("lib.sum", rng, {"family": "sum", "children": children}, _short_grid(rng),
                   MODES[(turn + 1) % len(MODES)])


def op_adjoint_shift(rng, turn: int) -> Op:
    child = _powerlaw_desc(rng) if turn % 2 == 0 else _table_desc(rng)
    return _lib_op("lib.adjoint-shift", rng, {"family": "adjoint_shift", "child": child},
                   _long_grid(CLI_N_MAX), MODES[(turn + 2) % len(MODES)])


TURNED = (op_nig_fixed, op_explogsquare, op_table, op_sum, op_adjoint_shift)


def _closed(make, length):
    return lambda rng: make(rng, length)


# Each `bound` command of ROADMAP's Baseline once, at the curve length it was
# measured with (the CLI default, and n-max 1000 for explogsquare's
# 1001-point curve); the OU op is also the bound of scripts/run_ou_traces.py.
# The closed forms run at every length of CLOSED_LENGTHS, so that curves
# reach into the thousands, and the library profiles of ROADMAP item 1 run
# once each.  Nothing can be scaled down, as the numeric ops' cost is their
# conjugation; at about 0.3 s an op a run needs ~30 s for its MIN_OPS ops.
BOUND_CYCLE = (
    tuple(_closed(make, length) for length in CLOSED_LENGTHS
          for make in (op_indicator, op_powerlaw, op_nig_scaled))
    + (op_explogsquare, op_nig_fixed, op_bayes, op_ou, op_table, op_sum, op_adjoint_shift)
)


# ---------------------------------------------------------------------------
# finite-oracle
# ---------------------------------------------------------------------------


def _verify_op(states: str, models: int) -> Callable:
    """A source `verify` command, at the CLI's default trials, with its work
    divided by FINITE_SCALE: fewer models, and fewer trials where not even
    one model is left."""
    share = models / FINITE_SCALE
    if share < 0.5:
        models, trials = 1, max(1, round(CLI_TRIALS * share))
    else:
        models, trials = round(share), CLI_TRIALS

    def make(rng) -> Op:
        seed = int(rng.integers(0, 2 ** 31))
        argv = ["verify", "--models", str(models), "--trials", str(trials),
                "--states", states, "--n-max", str(CLI_N_MAX), "--seed", str(seed)]
        return Op(slot=f"verify.{states}", kind="verify", argv=argv,
                  expect={"models": models, "trials": trials, "states": states})
    return make


# The `verify` commands of ROADMAP's Baseline (50 models of 3x3, 10 of 8x8,
# CLI default trials and n-max) and of scripts/run_finite_verify.py (50
# models of 4x4), plus one model of 16x16, the largest state space this
# workload covers.  Their work is divided by FINITE_SCALE, the smallest
# whole factor that brings the cycle under 0.2 s an op, so that a 20 s run
# holds 100 ops.
FINITE_SCALE = 10
FINITE_CYCLE = (
    _verify_op("3x3", 50), _verify_op("4x4", 50), _verify_op("8x8", 10), _verify_op("16x16", 1),
)


# ---------------------------------------------------------------------------
# sampler-scan
# ---------------------------------------------------------------------------


# The sampler commands of ROADMAP's Baseline and scripts/: `sample` with 4
# chains of 2000 steps for OU (also scripts/run_ou_traces.py), NIG in each
# of its three modes, and Bayes; `compare --case finite` with 20k starts;
# and scripts/run_nig_compare.py, `compare --case nig` with 50k starts.
# Steps and starts are divided by SAMPLER_SCALE, the smallest whole factor
# that brings the cycle to about 0.2 s an op, so that a 20 s run holds 100
# ops.
SAMPLER_SCALE = 6
TRACE_CHAINS = 4
TRACE_STEPS = 2000 // SAMPLER_SCALE
FINITE_STARTS = 20_000 // SAMPLER_SCALE
NIG_STARTS = 50_000 // SAMPLER_SCALE
NIG_COMPARE_GRID = [1, 2, 5, 10, 20, 50, 100, 200]


def _sample_op(slot, argv, case, columns, files=None, exact=False) -> Op:
    return Op(slot=slot, kind="sample",
              argv=["sample"] + argv + ["--chains", str(TRACE_CHAINS), "--steps", str(TRACE_STEPS)],
              files=files or {},
              expect={"chains": TRACE_CHAINS, "steps": TRACE_STEPS, "case": case,
                      "columns": columns, "exact": exact})


def op_sample_ou(rng) -> Op:
    seed = int(rng.integers(0, 2 ** 31))
    return _sample_op("sample.ou", ["--case", "ou", "--config", "{dir}/case.json",
                                    "--seed", str(seed)],
                      "ou", ["step", "theta"], files={"case.json": ou_config(rng)})


def _op_sample_nig(mode):
    def make(rng) -> Op:
        seed = int(rng.integers(0, 2 ** 31))
        argv = ["--case", "nig", "--mode", mode, "--beta-hyper", repr(_u(rng, 0.5, 3.0)),
                "--seed", str(seed)]
        if mode == "fixed":
            argv += ["--sigma0", repr(_u(rng, 0.5, 2.0))]
        return _sample_op(f"sample.nig-{mode}", argv, "nig", ["step", "tau", "xi"],
                          exact=mode == "exact")
    return make


def op_sample_bayes(rng) -> Op:
    cfg = bayes_config(rng)
    p = len(cfg["X"][0])
    seed = int(rng.integers(0, 2 ** 31))
    return _sample_op("sample.bayes", ["--case", "bayes", "--config", "{dir}/case.json",
                                       "--seed", str(seed)],
                      "bayes", ["step", "lambda"] + [f"beta{j}" for j in range(p)],
                      files={"case.json": cfg})


def op_compare_nig(rng) -> Op:
    beta, gamma = _u(rng, 0.5, 3.0), _u(rng, 0.3, 1.0)
    seed = int(rng.integers(0, 2 ** 31))
    argv = ["compare", "--case", "nig", "--mode", "scaled", "--beta-hyper", repr(beta),
            "--gamma", repr(gamma), "--starts", str(NIG_STARTS),
            "--seed", str(seed)] + _grid_args(NIG_COMPARE_GRID)
    return Op(slot="compare.nig", kind="compare", argv=argv,
              expect={"case": "nig", "grid": NIG_COMPARE_GRID, "starts": NIG_STARTS, "seed": seed,
                      "slope": GAMMA_TAU_SCALED * GAMMA_XI_SCALED * gamma})


def op_compare_finite(rng) -> Op:
    seed = int(rng.integers(0, 2 ** 30))
    grid = _long_grid(CLI_N_MAX)
    argv = ["compare", "--case", "finite", "--starts", str(FINITE_STARTS),
            "--n-max", str(CLI_N_MAX), "--seed", str(seed)]
    return Op(slot="compare.finite", kind="compare", argv=argv,
              expect={"case": "finite", "grid": grid, "starts": FINITE_STARTS, "seed": seed})


SAMPLER_CYCLE = (
    op_sample_ou, _op_sample_nig("scaled"), _op_sample_nig("fixed"), _op_sample_nig("exact"),
    op_sample_bayes, op_compare_finite, op_compare_nig,
)


WORKLOADS = {
    "bound-pipeline": BOUND_CYCLE,
    "finite-oracle": FINITE_CYCLE,
    "sampler-scan": SAMPLER_CYCLE,
}
# the warm-up cycle's OU op uses the script config instead of fresh draws
WARMUP_OVERRIDES = {"bound-pipeline": {op_ou: op_ou_script}}
RERUN_SHARE = 0.05


def cycle(workload: str, rng, turn: int) -> List[Op]:
    """Cycle number ``turn`` of freshly drawn ops, turn 0 being the warm-up
    cycle; about one op in twenty is marked for a byte-identical rerun."""
    overrides = WARMUP_OVERRIDES.get(workload, {}) if turn == 0 else {}
    ops = []
    for make in WORKLOADS[workload]:
        make = overrides.get(make, make)
        op = make(rng, turn) if make in TURNED else make(rng)
        op.rerun = bool(rng.uniform() < RERUN_SHARE)
        ops.append(op)
    return ops
