"""Output checks for one op.  Each check returns a list of failure messages;
an empty list means the output is correct.  Expected values come from the
op's own parameters and formulas; the one call into the package builds the
dense model whose exact decay calibrates the paired-chain estimator."""
from __future__ import annotations

import csv
import json
import math
import os
import re

import numpy as np

V_TOP = 0.25
X_MIN = 1e-12
REL_TOL = 1e-12
META_TOL = 1e-9
# per-point failure probability of the estimator calibration check
CALIBRATION_DELTA = 1e-9


# numpy >= 2 spells a scalar's repr np.float64(x); compare.csv writes its
# estimator columns that way.  Such cells are read, and counted.
_NP_REPR = re.compile(r"np\.float64\((.*)\)")


def parse_number(cell: str):
    """(value, spelled as a numpy repr)."""
    m = _NP_REPR.fullmatch(cell)
    return (float(m.group(1)), True) if m else (float(cell), False)


def read_csv(path: str):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b)) or a == b


def closed_form_value(closed, m: int) -> float:
    """Reported bound m scans past the offset for a closed-form K*."""
    if m <= 0:
        return V_TOP
    if closed[0] == "linear":
        return V_TOP * math.exp(-closed[1] * m)
    c, p = closed[1], closed[2]
    x = (c * (p - 1.0) * m + V_TOP ** (1.0 - p)) ** (-1.0 / (p - 1.0))
    return min(max(x, X_MIN), V_TOP)


def check_curve(rows, grid, offset, closed):
    """(failures, points) for a bound.csv: header, grid, range, monotonicity,
    the 1/4 plateau up to the offset, and closed forms recomputed."""
    if not rows or rows[0] != ["n", "bound"]:
        return ["bound.csv header is not n,bound"], []
    try:
        ns = [int(r[0]) for r in rows[1:]]
        vals = [float(r[1]) for r in rows[1:]]
    except (ValueError, IndexError):
        return ["bound.csv has a malformed row"], []
    fails = []
    if ns != list(grid):
        fails.append("n column differs from the requested grid")
    if not all(0.0 < v <= V_TOP for v in vals):
        fails.append("bound outside (0, 1/4]")
    if any(b > a for a, b in zip(vals, vals[1:])):
        fails.append("bound is not nonincreasing in n")
    if any(v != V_TOP for n, v in zip(ns, vals) if n <= offset):
        fails.append("bound is not 1/4 up to the composed offset")
    if closed is not None:
        bad = [n for n, v in zip(ns, vals)
               if not _close(v, closed_form_value(closed, n - offset), REL_TOL)]
        if bad:
            fails.append(f"closed form differs at n={bad[0]}")
    return fails, list(zip(ns, vals))


def check_meta(meta: dict, grid, expected: dict):
    fails = []
    if meta.get("n_grid") != list(grid):
        fails.append("metadata n_grid differs from the requested grid")
    consts = meta.get("constants", {})
    for key, want in expected.items():
        got = consts.get(key)
        if isinstance(want, str):
            ok = got == want
        elif isinstance(want, list):
            ok = isinstance(got, list) and len(got) == len(want) and all(
                _close(g, w, META_TOL) for g, w in zip(got, want))
        else:
            ok = isinstance(got, (int, float)) and _close(got, want, META_TOL)
        if not ok:
            fails.append(f"metadata constant {key} is {got!r}, expected {want!r}")
    return fails


def check_bound(out: str, expect: dict, cli: bool):
    rows = read_csv(os.path.join(out, "bound.csv"))
    fails, points = check_curve(rows, expect["grid"], expect["offset"], expect["closed"])
    if cli:
        fails += check_meta(read_json(os.path.join(out, "bound_meta.json")),
                            expect["grid"], expect["meta"])
    return fails, points


def check_verify(out: str, expect: dict):
    with open(os.path.join(out, "verify_report.txt")) as fh:
        lines = fh.read().splitlines()
    fails = []
    if any(line.startswith("FAIL") for line in lines):
        fails.append("verify report has a FAIL line")
    if not lines or lines[-1] != "OVERALL PASS":
        fails.append("verify report does not end with OVERALL PASS")
    want = (f"models={expect['models']} trials={expect['trials']} "
            f"states={expect['states']} ")
    if len(lines) < 2 or not lines[-2].startswith(want):
        fails.append("verify report does not state the requested models, trials and states")
    return fails


def check_sample(out: str, expect: dict):
    """(failures, moved, steps): traces are steps+1 rows per chain; moved
    counts steps where the Metropolised coordinate changed."""
    chains, steps = expect["chains"], expect["steps"]
    names = sorted(f for f in os.listdir(out) if f.endswith(".csv"))
    want = sorted(f"chain_{i}.csv" for i in range(chains))
    if names != want:
        return [f"trace files {names} differ from {want}"], 0, 0
    fails, moved, tried = [], 0, 0
    for name in want:
        rows = read_csv(os.path.join(out, name))
        if rows[0] != expect["columns"]:
            fails.append(f"{name} header {rows[0]}")
            continue
        if len(rows) != steps + 2:
            fails.append(f"{name} has {len(rows) - 1} rows, expected {steps + 1}")
            continue
        try:
            data = np.array([[float(x) for x in r] for r in rows[1:]])
        except ValueError:
            fails.append(f"{name} has a malformed value")
            continue
        if data.shape[1] != len(expect["columns"]) or not np.all(np.isfinite(data)):
            fails.append(f"{name} has a malformed or non-finite row")
            continue
        if not np.array_equal(data[:, 0], np.arange(steps + 1)):
            fails.append(f"{name} step column is not 0..{steps}")
        if expect["case"] in ("nig", "bayes") and not np.all(data[:, 1] > 0.0):
            fails.append(f"{name} has a nonpositive precision")
        metropolised = {"nig": 2, "bayes": 2}.get(expect["case"])
        if metropolised is not None and not expect.get("exact"):
            col = data[:, metropolised]
            moved += int(np.count_nonzero(col[1:] != col[:-1]))
            tried += steps
    meta = read_json(os.path.join(out, "run_meta.json"))
    if meta.get("chains") != chains or meta.get("steps") != steps:
        fails.append("run_meta.json does not state the requested chains and steps")
    return fails, moved, tried


def exact_finite_decay(seed: int, grid):
    """Exact ||P12^n f||^2 / osc^2 for the compare --case finite model."""
    from wpgibbs import finite

    m = finite.random_joint_model(seed, 4, 4)
    f = finite.random_centered_functions(m.mu, 1, seed + 1)[0]
    f = f - float(m.mu @ f)
    osc_sq = float((f.max() - f.min()) ** 2)
    P = m.P12
    out, g, now = {}, f.copy(), 0
    for n in sorted(grid):
        while now < n:
            g = P @ g
            now += 1
        out[n] = float(m.mu @ g ** 2) / osc_sq
    prods = np.outer(f, f) / osc_sq
    return out, float(prods.max() - prods.min())


def check_compare(out: str, expect: dict):
    """(failures, numpy-repr cells) for a compare run."""
    rows = read_csv(os.path.join(out, "compare.csv"))
    if not rows or rows[0] != ["n", "bound", "empirical_mean", "ci_low", "ci_high"]:
        return ["compare.csv header"], 0
    try:
        data = [[int(r[0]), float(r[1])] + [parse_number(x)[0] for x in r[2:5]] for r in rows[1:]]
        np_cells = sum(parse_number(x)[1] for r in rows[1:] for x in r[2:5])
    except (ValueError, IndexError):
        return ["compare.csv has a malformed row"], 0
    meta = read_json(os.path.join(out, "compare_meta.json"))
    fails = []
    grid = [n for n in expect["grid"] if n >= 1]
    if [r[0] for r in data] != grid:
        fails.append("compare n column differs from the requested grid")
    if expect["case"] == "finite":
        g0, g1, g2 = meta["gaps"]
        slope = g0 * g1 * g2 / 4.0
    else:
        slope = expect["slope"]
    bad = [r[0] for r in data if not _close(r[1], closed_form_value(("linear", slope), r[0]), REL_TOL)]
    if bad:
        fails.append(f"compare bound differs from the closed form at n={bad[0]}")
    dominated = sum(r[4] <= r[1] for r in data) / max(len(data), 1)
    if meta.get("domination_fraction") != dominated:
        fails.append("domination_fraction differs from the CSV")
    if expect["case"] == "finite":
        exact, spread = exact_finite_decay(expect["seed"], grid)
        # Hoeffding: each start contributes one bounded product
        tol = spread * math.sqrt(math.log(2.0 / CALIBRATION_DELTA) / (2.0 * expect["starts"]))
        off = [r[0] for r in data if abs(r[2] - exact[r[0]]) > tol]
        if off:
            fails.append(f"estimator mean is off the exact decay at n={off[0]}")
    return fails, np_cells


def same_bytes(dir_a: str, dir_b: str):
    names_a, names_b = sorted(os.listdir(dir_a)), sorted(os.listdir(dir_b))
    if names_a != names_b:
        return [f"rerun wrote {names_b}, first run {names_a}"]
    for name in names_a:
        with open(os.path.join(dir_a, name), "rb") as fa, open(os.path.join(dir_b, name), "rb") as fb:
            if fa.read() != fb.read():
                return [f"rerun changed the bytes of {name}"]
    return []


def bytes_written(out: str, inputs) -> int:
    return sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out) if f not in inputs)
