#!/usr/bin/env python3
"""Self-tests of the benchmark's checker and tracer.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Every check must fire on a
corrupted copy of a real output; the reference must flag the known OU
under-report and lowered bounds, and reject curves looser than certified;
the tracer's self times must add up to each op's root span, and
uninstalling the tracer must restore every original function.  Exits 1 if
any expectation fails.
"""
import json
import os
import shutil
import sys

import run  # sets the BLAS thread variables before numpy is imported

sys.path.insert(0, run.SRC)

import checks  # noqa: E402
import numpy as np  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

WORK = os.path.join(run.OUT, "selftest")
problems = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        problems.append(what)


def produce(op, name: str) -> str:
    out = os.path.join(WORK, name)
    _, _, rc, log = run.execute(op, out)
    if rc != 0:
        raise RuntimeError(f"{op.slot} exited {rc}: {log}")
    return out


def rewrite(path: str, edit) -> None:
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(edit(lines)) + "\n")


def copy(out: str, name: str) -> str:
    dst = os.path.join(WORK, name)
    shutil.copytree(out, dst)
    return dst


def bound_fails(out, op):
    return checks.check_bound(out, op.expect, cli=True)[0]


def test_bound_checks(rng):
    op = workloads.op_indicator(rng)
    out = produce(op, "indicator")
    expect(bound_fails(out, op) == [], "indicator curve passes as produced")

    def lower(lines):
        n, b = lines[5].split(",")
        lines[5] = f"{n},{float(b) * 0.999!r}"
        return lines

    bad = copy(out, "lowered")
    rewrite(os.path.join(bad, "bound.csv"), lower)
    expect(bound_fails(bad, op) != [], "a lowered bound value fails the closed-form check")

    def swap(lines):
        lines[5], lines[6] = lines[5].split(",")[0] + "," + lines[6].split(",")[1], \
            lines[6].split(",")[0] + "," + lines[5].split(",")[1]
        return lines

    bad = copy(out, "nonmonotone")
    rewrite(os.path.join(bad, "bound.csv"), swap)
    expect(any("nonincreasing" in f for f in bound_fails(bad, op)),
           "a non-monotone curve fails the monotonicity check")

    bad = copy(out, "missing")
    rewrite(os.path.join(bad, "bound.csv"), lambda lines: lines[:4] + lines[5:])
    expect(any("grid" in f for f in bound_fails(bad, op)), "a missing row fails the grid check")

    def raise_first(lines):
        lines[1] = "0,0.2"
        return lines

    bad = copy(out, "plateau")
    rewrite(os.path.join(bad, "bound.csv"), raise_first)
    expect(any("1/4" in f for f in bound_fails(bad, op)), "n=0 below 1/4 fails the plateau check")

    bad = copy(out, "meta")
    meta = checks.read_json(os.path.join(bad, "bound_meta.json"))
    meta["n_grid"] = meta["n_grid"][:-1]
    with open(os.path.join(bad, "bound_meta.json"), "w") as fh:
        json.dump(meta, fh)
    expect(bound_fails(bad, op) != [], "a wrong metadata grid fails the metadata check")

    again = produce(op, "indicator-rerun")
    expect(checks.same_bytes(out, again) == [], "a rerun of the same op is byte-identical")
    rewrite(os.path.join(again, "bound.csv"), lambda lines: lines[:-1] + [lines[-1] + "0"])
    expect(checks.same_bytes(out, again) != [], "a changed byte on rerun fails the rerun check")


def test_reference(rng):
    op = workloads.op_ou_script(rng)
    out = produce(op, "ou-script")
    fails, points = checks.check_bound(out, op.expect, cli=True)
    expect(fails == [], "the OU script curve passes the per-op checks")
    at = dict(points)
    upper, lower = reference.curve_bounds(op.expect["recipe"], points)
    flagged = reference.under_reports(upper, [(200, at[200]), (50, at[50])], 1)
    expect([n for n, _, _ in flagged] == [200], "the reference flags OU n=200 and not n=50")
    flagged = reference.under_reports(upper, [(50, at[50] * 0.9)], 1)
    expect(len(flagged) == 1, "the reference flags a lowered OU bound at n=50")
    sampled = run._sample_points(points[2:])
    expect(reference.too_loose(lower, sampled, 1) == [], "the OU script curve is not too loose")
    # the bound certified for half the steps, reported at every n
    halved = [(n, at[(n + 1) // 2]) for n, _ in sampled]
    expect(reference.too_loose(lower, halved, 1) != [], "a curve with half the steps is too loose")

    ind = workloads.op_indicator(rng)
    gamma = ind.expect["closed"][1]
    exact = [(n, 0.25 * np.exp(-gamma * n)) for n in (1, 10, 100)]
    upper, lower = reference.curve_bounds(ind.expect["recipe"], exact)
    expect(reference.under_reports(upper, exact, 0) == [],
           "the reference does not flag exact closed-form points")
    lowered = [(n, b * 0.99) for n, b in exact]
    expect(len(reference.under_reports(upper, lowered, 0)) == 3,
           "the reference flags lowered closed-form points")
    expect(reference.too_loose(lower, exact, 0) == [], "exact closed-form points are not too loose")

    table = workloads.op_table(rng, turn=1)
    offset = table.expect["offset"]
    flat = [(n, 0.25) for n in (offset + 10 ** 3, offset + 10 ** 5)]
    lower = reference.curve_bounds(table.expect["recipe"], flat)[1]
    expect(reference.too_loose(lower, flat, offset) != [], "a table curve stuck at 1/4 is too loose")
    floor = [(10 ** 6, reference.X_FLOOR)]
    lower = reference.curve_bounds(table.expect["recipe"], floor)[1]
    expect(reference.too_loose(lower, floor, offset) == [], "a point at the floor is exempt")


def test_verify_check(rng):
    op = workloads.FINITE_CYCLE[0](rng)
    out = produce(op, "verify")
    report = os.path.join(out, "verify_report.txt")
    expect(checks.check_verify(out, op.expect) == [], "verify report passes as produced")
    rewrite(report, lambda lines: ["FAIL  decomposition  worst_residual=1e-3  tol=1e-10"] + lines)
    expect(checks.check_verify(out, op.expect) != [], "a FAIL line fails the verify check")
    rewrite(report, lambda lines: lines[1:-1] + ["OVERALL FAIL"])
    expect(checks.check_verify(out, op.expect) != [], "OVERALL FAIL fails the verify check")


def test_sample_and_compare(rng):
    op = workloads.op_sample_bayes(rng)
    out = produce(op, "sample")
    fails, moved, tried = checks.check_sample(out, op.expect)
    expect(fails == [] and 0 < moved <= tried, "bayes traces pass and report moves")
    rewrite(os.path.join(out, "chain_1.csv"), lambda lines: lines[:-1])
    expect(checks.check_sample(out, op.expect)[0] != [], "a missing trace row fails the shape check")

    op = workloads.op_compare_finite(rng)
    out = produce(op, "compare")
    expect(checks.check_compare(out, op.expect)[0] == [], "finite compare passes as produced")
    bad = copy(out, "compare-dom")
    meta = checks.read_json(os.path.join(bad, "compare_meta.json"))
    meta["domination_fraction"] = 0.5
    with open(os.path.join(bad, "compare_meta.json"), "w") as fh:
        json.dump(meta, fh)
    expect(checks.check_compare(bad, op.expect)[0] != [], "a wrong domination_fraction fails")

    def shift_mean(lines):
        cells = lines[1].split(",")
        cells[2] = repr(checks.parse_number(cells[2])[0] + 0.2)
        lines[1] = ",".join(cells)
        return lines

    rewrite(os.path.join(out, "compare.csv"), shift_mean)
    expect(any("exact decay" in f for f in checks.check_compare(out, op.expect)[0]),
           "an estimator mean off the exact decay fails the calibration check")


def snapshot():
    import importlib
    import inspect

    objs = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"wpgibbs.{layer}")
        for attr, obj in vars(mod).items():
            objs[(mod.__name__, attr)] = obj
            if inspect.isclass(obj):
                for mname, meth in vars(obj).items():
                    objs[(mod.__name__, attr, mname)] = meth
    return objs


def test_tracer(rng):
    before = snapshot()
    tracer = Tracer()
    tracer.install()
    import wpgibbs.kstar as kstar
    import wpgibbs.cases as cases

    expect(kstar.conjugate is not before[("wpgibbs.kstar", "conjugate")], "install wraps kstar.conjugate")
    expect(cases.lambert_w is not before[("wpgibbs.cases", "lambert_w")],
           "install rebinds names imported from another module")
    ops = [workloads.op_nig_scaled(rng), workloads.op_sample_ou(rng)]
    for i, op in enumerate(ops):
        run.execute(op, os.path.join(WORK, f"traced{i}"), tracer, i)
    st = tracer.self_times()
    for i in range(len(ops)):
        mask = st["op"] == i
        root = float(st["dur"][mask & st["root"]].sum())
        total = float(st["self"][mask].sum())
        expect(abs(total - root) <= 1e-9 * max(root, 1.0), f"op {i}: self times add up to the root span")
    expect(tracer.counters.get("samplers.chain_steps", 0) == run.chain_steps(ops[1]),
           "the tracer counts every chain step of a sample op")
    tracer.uninstall()
    after = snapshot()
    changed = [k for k, v in before.items() if after.get(k) is not v]
    expect(changed == [], f"uninstall restores every original ({len(before)} objects)")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    rng = np.random.default_rng(2024)
    for test in (test_bound_checks, test_reference, test_verify_check,
                 test_sample_and_compare, test_tracer):
        test(rng)
    shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
