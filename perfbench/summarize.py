#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/summarize.py --seeds 1-10 [--workloads a,b] [--traced]
        [--out FILE]

Run from the root of a source checkout.  For every workload and seed it
runs perfbench/run.py with the run length from BENCHMARK.json, then
prints, per end-to-end metric, the median, the quartiles and their
distance as a share of the median (the spread), and keeps each run's
unscaled CPU and wall-clock figures.  ``--traced`` adds one
traced run per workload, on the first seed, for the per-layer table and the
under-reported bound points.  ``--out`` writes all of it as JSON, with the
per-seed values of the metrics that are not end-to-end.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        return json.load(fh)


def seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if res.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {res.returncode}: {res.stderr[-2000:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def record(workload: str, seed: int, trace: int) -> dict:
    """The full record that run.py wrote for one run."""
    path = os.path.join(".bench_out", "results", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        return json.load(fh)


def summary(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    spec = load_spec()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result = {"run_seconds": spec["run_seconds"], "seeds": seeds(args.seeds), "workloads": {}}
    for workload in names:
        runs = [run_once(workload, s, spec["run_seconds"], 0) for s in seeds(args.seeds)]
        records = [record(workload, s, 0) for s in seeds(args.seeds)]
        entry = {"correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "end_to_end": {},
                 "extra": {k: [r["extra"][k] for r in records] for k in records[0]["extra"]},
                 "unscaled": [r["unscaled"] for r in records]}
        print(f"{workload}: correct={entry['correct']} failed={entry['failed']}")
        for metric in bounds:
            s = summary([r["metrics"][metric]["value"] for r in runs])
            entry["end_to_end"][metric] = s
            print(f"  {metric:14s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  "
                  f"q3 {s['q3']:12.6g}  spread {s['spread']:.4f}  (bound {bounds[metric]})")
        if args.traced:
            traced = run_once(workload, seeds(args.seeds)[0], spec["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["flagged"] = record(workload, seeds(args.seeds)[0], 1)["flagged"]
            for k, v in entry["per_layer"].items():
                print(f"    {k:34s} {v:.6g}")
        result["workloads"][workload] = entry
        result.setdefault("environment", records[0]["environment"])
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
