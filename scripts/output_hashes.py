#!/usr/bin/env python3
"""Hash every file a fixed matrix of seeded commands writes.

Runs the ops of the bound-pipeline, finite-oracle and sampler-scan benchmark
cycles (each seed's cycles 0 .. TURNS-1, drawn as ``perfbench/run.py`` draws
them) through its ``execute``, then ``sample`` and ``bound`` for every case
and mode, both ``compare`` cases and two ``verify`` runs, 3x3 and 3x5.  Each
command writes into its own directory under OUT_DIR.  Prints one
``sha256  relative/path`` line per file written and one ``exit CODE  command``
line per command, so the output of two checkouts can be compared with
``diff``.

Usage:
    python3 scripts/output_hashes.py OUT_DIR [--seeds 1,2] [--turns 4]
"""
import argparse
import hashlib
import os
import sys
import zlib

# importing perfbench must leave no __pycache__ in it
sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import run as bench  # noqa: E402  (perfbench/run.py)
import workloads  # noqa: E402
from wpgibbs.cases import CASES  # noqa: E402

CYCLED = ("bound-pipeline", "finite-oracle", "sampler-scan")
GRID = ["--n-grid", "0,1,2,5,10,50,200"]
# a config file per case beside the flags; nig runs from flags alone
CONFIGS = {
    "bayes": {"case": "bayes", "a": 2.5, "b": 1.0, "sigma0": 0.3,
              "X": [[1.0, 0.2], [1.0, -0.4], [1.0, 0.9], [1.0, 0.1], [1.0, -1.2]],
              "Y": [0.3, -0.1, 0.8, 0.2, -0.9]},
    "ou": workloads.OU_SCRIPT_CONFIG,
}
MODE_FLAGS = {"fixed": ["--sigma0", "0.8"]}


def case_commands():
    """(name, argv, files) of every case x mode, both compare cases, a square
    verify and a non-square one, where a swap of the two blocks would show."""
    for case, entry in CASES.items():
        files = {"case.json": CONFIGS[case]} if case in CONFIGS else {}
        flags = ["--case", case] + (["--config", "{dir}/case.json"] if files else [])
        for mode in entry.modes:
            given = flags + ["--mode", mode] + MODE_FLAGS.get(mode, [])
            yield (f"sample.{case}-{mode}",
                   ["sample", *given, "--seed", "7", "--chains", "2", "--steps", "50"], files)
            yield f"bound.{case}-{mode}", ["bound", *given, *GRID], files
    yield "compare.nig", ["compare", "--case", "nig", "--starts", "400", "--seed", "7", *GRID], {}
    yield "compare.finite", ["compare", "--case", "finite", "--starts", "400", "--seed", "7", *GRID], {}
    yield "verify", ["verify", "--models", "3", "--trials", "4", "--n-max", "20", "--seed", "7"], {}
    yield "verify-3x5", ["verify", "--models", "3", "--trials", "4", "--n-max", "20",
                         "--states", "3x5", "--verbose", "--seed", "7"], {}


def commands(seeds, turns):
    for workload in CYCLED:
        for seed in seeds:
            rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
            for turn in range(turns):
                for i, op in enumerate(workloads.cycle(workload, rng, turn)):
                    yield f"{workload}/seed{seed}/turn{turn}/{i:02d}-{op.slot}", op
    for name, argv, files in case_commands():
        yield f"cases/{name}", workloads.Op(slot=name, kind=argv[0], argv=argv, files=files)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out")
    ap.add_argument("--seeds", default="1,2", help="comma-separated benchmark seeds")
    ap.add_argument("--turns", type=int, default=4, help="cycles per seed and workload")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s]
    out = os.path.abspath(args.out)
    for name, op in commands(seeds, args.turns):
        where = os.path.join(out, name)
        rc = bench.execute(op, where)[2]
        for dirpath, dirnames, filenames in os.walk(where):
            dirnames.sort()
            for fname in sorted(filenames):
                path = os.path.join(dirpath, fname)
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                print(f"{digest}  {os.path.relpath(path, out)}")
        print(f"exit {rc}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
