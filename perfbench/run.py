#!/usr/bin/env python3
"""Closed-loop benchmark of the wpgibbs CLI and library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client issues one op at a time
in this process, with BLAS pinned to one thread.  After a warm-up cycle,
whole cycles of freshly drawn ops run until their summed op time reaches
``--seconds`` and at least MIN_OPS ops are timed.  Every op's output is
checked outside the timed region.  Bound curves also go through the
two-sided reference after the peak memory is read, so that scipy stays out
of it: a curve provably looser than certified fails its op, and the
under-reported points of the warm-up cycle and of the first cycles that
MIN_OPS guarantees give bound_under_report_frac.  ``--trace 1`` alternates
traced and untraced cycles and reports per-layer numbers from the traced
ones.

Op time is the process's CPU time over the op (all threads, user and
system), scaled by a probe of the host's speed timed next to it (see
PROBE_REF_S): it reads as the op's time on a host of fixed speed.  The op is
CPU-bound and runs alone on one thread, so CPU time differs from wall time
only by the time the process waited for a CPU, which on a shared virtual
machine is mostly other tenants' load.  Unscaled CPU and wall-clock figures
are kept in the full record.

The last stdout line is one JSON object: correct, attempted, failed and the
metrics.  A fuller record, with the environment, goes to
.bench_out/results/.
"""
import os

# BLAS threads must be pinned before numpy is first imported
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import zlib  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
MIN_OPS = 100
# set-up is timed this many times, spread evenly over the timed region, so
# that its median does not hang on one moment's machine speed
SETUP_REPEATS = 15
# points of each bound curve, spread geometrically over n, that the
# two-sided reference checks
REFERENCE_POINTS = 8
# timed in CPU time, as the ops are (see execute)
SETUP_CODE = (
    "import time; t = time.process_time(); import wpgibbs.cli as c; c.build_parser(); "
    "print(repr(time.process_time() - t))"
)


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def measure_setup() -> float:
    """CPU seconds to import wpgibbs.cli and build its parser in a fresh
    interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    res = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    if res.returncode != 0:
        fail(f"set-up interpreter failed: {res.stderr.strip()}")
    return float(res.stdout.strip())


# The host's speed drifts by tens of percent over seconds to minutes, as
# other tenants load the machine's shared cores and caches.  A probe, a
# fixed piece of work in the benchmark's own code, is timed after every op,
# and each op's CPU time is scaled to a host on which the probe takes
# PROBE_REF_S: op time = CPU time * PROBE_REF_S / the mean of the probe
# times just before and just after the op.  The probe does scalar Python
# arithmetic and numpy array work, as the program does, and never calls
# into it, so a change to the program cannot move it.
PROBE_REF_S = 0.010
_PROBE_M = np.random.default_rng(0).standard_normal((128, 128))
_PROBE_V = np.random.default_rng(1).standard_normal(100_000)
# the probe's array work writes into these, so that it allocates no memory
_PROBE_OUT = (np.empty_like(_PROBE_M), np.empty_like(_PROBE_V))


def probe() -> float:
    """CPU seconds of the probe's fixed work."""
    c0 = time.process_time()
    acc = 0.0
    for i in range(1, 15_000):
        acc += math.log(i) * math.exp(-1e-4 * i) / (1.0 + i)
    m, v = _PROBE_OUT
    m[:] = _PROBE_M
    for _ in range(12):
        np.matmul(m, _PROBE_M, out=m)
        np.tanh(m * 0.01, out=m)
    np.exp(_PROBE_V, out=v)
    v.sort()
    return time.process_time() - c0


def scaled(seconds: float, before: float, after: float) -> float:
    """CPU ``seconds`` scaled by the probe times just before and just after
    them; the host's speed changes within seconds, so the nearest probes
    track it best."""
    return seconds * PROBE_REF_S / (0.5 * (before + after))


def timed_setup(before: float):
    """(scaled, unscaled) set-up seconds; ``before`` is the probe time just
    before the set-up."""
    seconds = measure_setup()
    return scaled(seconds, before, probe()), seconds


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def git_sha() -> str:
    head = _read(os.path.join(ROOT, ".git", "HEAD")).strip()
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(os.path.join(ROOT, ".git", ref)).strip()
        if not sha:
            for line in _read(os.path.join(ROOT, ".git", "packed-refs")).splitlines():
                if line.endswith(" " + ref):
                    sha = line.split()[0]
        return sha or None
    return head or None


def source_hash() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "wpgibbs")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        d = os.path.join(base, index)
        if os.path.isfile(os.path.join(d, "size")):
            key = "L" + _read(os.path.join(d, "level")).strip() + _read(os.path.join(d, "type")).strip()[:1].lower()
            caches[key] = _read(os.path.join(d, "size")).strip()
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_sha": git_sha(),
        "source_sha256": source_hash(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def run_lib(recipe: dict, out: str) -> int:
    """conjugate -> compose_mwg -> RateBound -> bound.csv through the library."""
    from wpgibbs import config, kstar, rates

    k2 = kstar.conjugate(config.beta_from_dict(recipe["k2"]))
    k1 = kstar.Linear(recipe["k1"]["linear"]) if recipe["k1"] else None
    k = kstar.compose_mwg(kstar.Linear(recipe["gamma0"]), k1, k2, mode=recipe["mode"])
    rates.RateBound(k).write_csv(os.path.join(out, "bound.csv"), recipe["grid"])
    return 0


def execute(op, out: str, tracer=None, op_id: int = -1):
    """Run one op into ``out``; returns (CPU seconds, wall seconds, exit code
    or None, log)."""
    from wpgibbs import cli

    if os.path.isdir(out):
        shutil.rmtree(out)
    os.makedirs(out)
    for name, payload in op.files.items():
        with open(os.path.join(out, name), "w") as fh:
            json.dump(payload, fh)
    sink = io.StringIO()
    if tracer is not None:
        tracer.begin_op(op_id)
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if op.argv is not None:
                rc = cli.main([a.replace("{dir}", out) for a in op.argv] + ["--out", out])
            else:
                rc = run_lib(op.lib, out)
    except Exception:  # an op that raises is a failed op, not a failed run
        rc = None
        sink.write(traceback.format_exc())
    finally:
        c1, t1 = time.process_time(), time.perf_counter()
        if tracer is not None:
            tracer.end_op()
    return c1 - c0, t1 - t0, rc, sink.getvalue()


def chain_steps(op) -> int:
    e = op.expect
    if op.kind == "sample":
        return e["chains"] * (e["steps"] + 1)
    if op.kind == "compare":
        return 2 * e["starts"] * max(e["grid"])
    return 0


def _sample_points(points):
    if len(points) <= REFERENCE_POINTS:
        return points
    idx = np.unique(np.round(np.geomspace(1, len(points), REFERENCE_POINTS)).astype(int) - 1)
    return [points[i] for i in idx]


class Run:
    """State of one benchmark run: op results, checks and soundness."""

    def __init__(self, work: str):
        self.work = work
        self.attempted = 0
        self.failures = []
        self.curves = []
        self.sound = True
        self.flagged = []
        self.points_checked = 0
        self.moved = 0
        self.tried = 0
        self.bytes = 0
        self.np_repr_cells = 0

    def do(self, op, tracer=None, op_id=-1):
        """Execute and check one op; returns its CPU and wall seconds."""
        self.attempted += 1
        out = os.path.join(self.work, f"op{self.attempted}")
        cpu, wall, rc, log = execute(op, out, tracer, op_id)
        fails = [] if rc == 0 else [f"exit code {rc}: {log.strip()[-400:]}"]
        if not fails:
            try:
                fails = self.check(op, out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                fails = [f"output unreadable: {exc!r}"]
        if not fails and op.rerun:
            again = out + "-rerun"
            rc2 = execute(op, again)[2]
            fails = checks.same_bytes(out, again) if rc2 == 0 else [f"rerun exit code {rc2}"]
            shutil.rmtree(again)
        if fails:
            self.fail(self.attempted, op, fails)
        shutil.rmtree(out)
        return cpu, wall

    def fail(self, index: int, op, fails) -> None:
        self.failures.append({"op": index, "slot": op.slot, "argv": op.argv,
                              "lib": op.lib, "failures": fails})

    def check(self, op, out):
        e = op.expect
        if op.kind == "bound":
            fails, points = checks.check_bound(out, e, cli=op.argv is not None)
            if not fails and e["recipe"] is not None:
                past = [(n, b) for n, b in points if n > e["offset"]]
                if past:
                    self.curves.append((self.attempted, op, _sample_points(past), self.sound))
        elif op.kind == "verify":
            fails = checks.check_verify(out, e)
        elif op.kind == "sample":
            fails, moved, tried = checks.check_sample(out, e)
            self.moved += moved
            self.tried += tried
        else:
            fails, np_cells = checks.check_compare(out, e)
            self.np_repr_cells += np_cells
        self.bytes += checks.bytes_written(out, op.files)
        return fails


    def check_curves(self) -> None:
        """Two-sided reference on the stored bound curves: a curve provably
        looser than certified fails its op; under-reported points of the
        soundness set are counted, never failed."""
        import reference

        failed = {f["op"] for f in self.failures}
        for index, op, points, sound in self.curves:
            e = op.expect
            upper, lower = reference.curve_bounds(e["recipe"], points)
            loose = reference.too_loose(lower, points, e["offset"])
            if loose and index not in failed:
                n, b, F = loose[0]
                self.fail(index, op, [f"bound {b!r} at n={n} is looser than certified "
                                      f"(F_hi {F:.6g})"])
            if sound:
                self.points_checked += len(points)
                self.flagged += [{"slot": op.slot, "n": n, "bound": b, "F_ref": F,
                                  "offset": e["offset"], "argv": op.argv, "lib": op.lib}
                                 for n, b, F in reference.under_reports(upper, points, e["offset"])]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def timing_metrics(durations) -> dict:
    ms = sorted(d * 1000.0 for d in durations)
    deciles = statistics.quantiles(ms, n=10)
    return {
        "ops_per_s": (len(ms) / (sum(ms) / 1000.0), "1/s"),
        "op_p50_ms": (deciles[4], "ms"),
        "op_p90_ms": (deciles[8], "ms"),
    }


def layer_metrics(tracer, traced_ops, run: "Run", extra: dict) -> dict:
    """Per-layer numbers from the traced ops."""
    st = tracer.self_times()
    self_t, ops, name_id = st["self"], st["op"], st["name_id"]
    c = tracer.counters

    def self_of(layer=None, bucket=None, kinds=None):
        mask = np.ones(len(self_t), dtype=bool)
        if layer is not None:
            if layer not in st["layers"]:
                return 0.0
            mask &= st["layer"] == st["layers"].index(layer)
        if bucket is not None:
            mask &= st["bucket"] == st["buckets"].index(bucket)
        if kinds is not None:
            mask &= np.isin(ops, [i for i, op in traced_ops.items() if op.kind in kinds])
        return float(self_t[mask].sum())

    def calls(*span_names):
        ids = [i for i, nm in enumerate(tracer.names) if nm in span_names]
        return int(np.isin(name_id, ids).sum())

    def ratio(a, b):
        return float(a) / b if b else 0.0

    beta_calls = calls("beta.BetaSpec.__call__", "beta.MonteCarloMixture.__call__")
    conj_calls = calls("kstar.conjugate")
    rb_built = calls("rates.RateBound.__init__")
    steps = {k: 0 for k in ("sample", "compare")}
    for op in traced_ops.values():
        if op.kind in steps:
            steps[op.kind] += chain_steps(op)
    m = {
        "beta.calls": (beta_calls, "count"),
        "beta.points": (c.get("beta.points", 0), "count"),
        "beta.points_per_call": (ratio(c.get("beta.points", 0), beta_calls), "count"),
        "beta.self_s": (self_of("beta"), "s"),
        "cases.profile_calls": (calls("cases.nig_fixed_betas", "cases.bayes_beta2", "cases.ou_beta2"), "count"),
        "cases.self_s": (self_of("cases"), "s"),
        "special.calls": (calls(*[nm for nm in tracer.names if nm.startswith("special.")]), "count"),
        "special.self_s": (self_of("special"), "s"),
        "kstar.conjugate_calls": (conj_calls, "count"),
        "kstar.conjugate_numeric_frac": (ratio(c.get("kstar.conjugate_numeric", 0), conj_calls), "frac"),
        "kstar.conjugate_self_s": (self_of("kstar", "kstar.conjugate"), "s"),
        "kstar.eval_points": (c.get("kstar.eval_points", 0), "count"),
        "kstar.compose_self_s": (self_of("kstar", "kstar.compose"), "s"),
        "kstar.guards_inserted": (c.get("kstar.guards_inserted", 0), "count"),
        "kstar.self_s": (self_of("kstar"), "s"),
        "rates.build_self_s": (self_of("rates", "rates.build"), "s"),
        "rates.curve_self_s": (self_of("rates", "rates.curve"), "s"),
        "rates.points": (calls("rates.RateBound.rate_bound"), "count"),
        "rates.numeric_frac": (ratio(c.get("rates.numeric", 0), rb_built), "frac"),
        "rates.F_calls": (calls("rates.RateBound.F"), "count"),
        "rates.saturated_frac": (ratio(c.get("rates.saturated", 0), rb_built), "frac"),
        "rates.self_s": (self_of("rates"), "s"),
        "finite.model_self_s": (self_of("finite", "finite.model"), "s"),
        "finite.identities_self_s": (self_of("finite", "finite.identities"), "s"),
        "finite.gaps_self_s": (self_of("finite", "finite.gaps"), "s"),
        "finite.domination_self_s": (self_of("finite", "finite.domination"), "s"),
        "finite.joint_states": (c.get("finite.joint_states", 0), "count"),
        "finite.dirichlet_form_calls": (calls("finite.dirichlet_form"), "count"),
        "finite.checks": (calls("finite.Report.add"), "count"),
        "finite.self_s": (self_of("finite"), "s"),
        "samplers.chain_steps": (c.get("samplers.chain_steps", 0), "count"),
        "samplers.step_self_s": (self_of("samplers", "samplers.step"), "s"),
        "samplers.estimate_self_s": (self_of("samplers", "samplers.estimate"), "s"),
        "samplers.trace_steps_per_s": (ratio(steps["sample"], self_of("samplers", kinds=("sample",))), "1/s"),
        "samplers.estimator_steps_per_s": (ratio(steps["compare"], self_of("samplers", kinds=("compare",))), "1/s"),
        "samplers.accept_frac": (ratio(run.moved, run.tried), "frac"),
        "samplers.self_s": (self_of("samplers"), "s"),
        "config.self_s": (self_of("config"), "s"),
        "cli.self_s": (self_of("cli"), "s"),
        "cli.bytes_written": (run.bytes, "B"),
        "cli.np_repr_cells": (run.np_repr_cells, "count"),
        "harness.self_s": (self_of("harness"), "s"),
        "trace.op_s": (float(st["dur"][st["root"]].sum()), "s"),
        "trace.ops": (len(traced_ops), "count"),
        "trace.spans": (len(self_t), "count"),
    }
    m.update(extra)
    return m


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "wpgibbs", "cli.py")):
        fail("run from the root of a wpgibbs checkout (src/wpgibbs not found)")
    sys.path.insert(0, SRC)
    import wpgibbs.cli

    if not os.path.abspath(wpgibbs.cli.__file__).startswith(SRC + os.sep):
        fail(f"imported wpgibbs from {wpgibbs.cli.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    measure_setup()  # warms the bytecode cache
    setup = [timed_setup(probe())]
    work = os.path.join(OUT, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    rng = np.random.default_rng([args.seed, zlib.crc32(args.workload.encode())])
    run = Run(work)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    for op in workloads.cycle(args.workload, rng, turn=0):
        run.do(op)

    # per timed op: op time, CPU seconds, wall seconds, slot; probes[i] is
    # taken just before op i and probes[i + 1] just after it
    durations, cpu, walls, slots, probes = [], [], [], [], [probe()]
    cycle_ops, traced_ops, stepped = [], {}, []
    # every run holds this many cycles, so the soundness set is the same
    # for a seed whatever the host's speed
    sound_cycles = math.ceil(MIN_OPS / len(workloads.WORKLOADS[args.workload]))
    t_run = time.perf_counter()
    while sum(durations) < args.seconds or len(durations) < MIN_OPS:
        traced = tracer is not None and len(cycle_ops) % 2 == 0
        run.sound = len(cycle_ops) < sound_cycles
        first = len(durations)
        for op in workloads.cycle(args.workload, rng, turn=len(cycle_ops) + 1):
            op_id = len(durations)
            seconds, elapsed = run.do(op, tracer if traced else None, op_id)
            probes.append(probe())
            durations.append(scaled(seconds, probes[-2], probes[-1]))
            cpu.append(seconds)
            walls.append(elapsed)
            slots.append(op.slot)
            if traced:
                traced_ops[op_id] = op
            elif chain_steps(op):
                stepped.append((op_id, chain_steps(op)))
        cycle_ops.append((traced, range(first, len(durations))))
        while len(setup) < SETUP_REPEATS * min(1.0, sum(durations) / args.seconds):
            setup.append(timed_setup(probes[-1]))
    while len(setup) < SETUP_REPEATS:
        setup.append(timed_setup(probes[-1]))
    wall = time.perf_counter() - t_run
    setup_s = statistics.median(t for t, _ in setup)
    by_slot = {}
    for slot, seconds in zip(slots, durations):
        by_slot.setdefault(slot, []).append(seconds)
    steps_time = sum(durations[i] for i, _ in stepped)

    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t_ref = time.perf_counter()
    run.check_curves()
    reference_s = time.perf_counter() - t_ref
    under_frac = len(run.flagged) / run.points_checked if run.points_checked else 0.0
    failed = len(run.failures)

    e2e = timing_metrics(durations)
    e2e["setup_s"] = (setup_s, "s")
    e2e["peak_rss_mb"] = (peak_rss_mb, "MB")
    extra = {
        "chain_steps_per_s": (sum(n for _, n in stepped) / steps_time if steps_time else 0.0, "1/s"),
        "bound_under_report_frac": (under_frac, "frac"),
        "bound.points_checked": (run.points_checked, "count"),
        "bound.points_flagged": (len(run.flagged), "count"),
        "ops_failed_frac": (failed / run.attempted, "frac"),
    }
    if tracer is not None:
        on = [sum(durations[i] for i in ops) for t, ops in cycle_ops if t]
        off = [sum(durations[i] for i in ops) for t, ops in cycle_ops if not t]
        over = statistics.mean(on) - statistics.mean(off) if on and off else 0.0
        extra["trace.overhead_s"] = (over, "s")
        extra["trace.overhead_frac"] = (over / statistics.mean(off) if off else 0.0, "frac")
        chosen = layer_metrics(tracer, traced_ops, run, extra)
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        tracer.write(os.path.join(OUT, "spans", f"{args.workload}.npz"))
    else:
        chosen = e2e

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "attempted": run.attempted,
        "failed": failed,
        "timed_ops": len(durations),
        "wall_s": wall,
        "reference_s": reference_s,
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "unscaled": {"cpu": {k: v for k, (v, _) in timing_metrics(cpu).items()},
                     "wall": {k: v for k, (v, _) in timing_metrics(walls).items()},
                     "setup_s": statistics.median(t for _, t in setup),
                     "probe_s": statistics.median(probes)},
        "per_layer": {k: v for k, (v, _) in chosen.items()} if tracer is not None else None,
        "extra": {k: v for k, (v, _) in extra.items()},
        "slots": {k: {"ops": len(v), "median_ms": 1000.0 * statistics.median(v)}
                  for k, v in sorted(by_slot.items())},
        "flagged": run.flagged,
        "failures": run.failures,
        "ops": {"slot": slots, "cpu_s": cpu, "wall_s": walls, "probe_s": probes},
        "setup_s": setup,
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, "results", name), "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    shutil.rmtree(work, ignore_errors=True)

    for f in run.flagged:
        print(f"under-report: {f['slot']} n={f['n']} bound={f['bound']!r} F_ref={f['F_ref']:.6g}")
    for f in run.failures:
        print(f"failed op: {f['slot']}: {f['failures']}")
    print(f"points checked {run.points_checked}, flagged {len(run.flagged)}; "
          f"ops attempted {run.attempted}, failed {failed}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
