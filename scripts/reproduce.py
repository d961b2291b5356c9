#!/usr/bin/env python3
"""Reproduce the paper's three experiments with one command.

The experiments are the finite-state oracle, the scaled NIG sampler
against its certified bound, and the OU diffusion sampler with its bound;
the certified bounds of fixed-step NIG and of the Bayesian regression ride
along.  Runs each row of ROWS through the CLI, in order, into
OUT/<subdirectory>, and stops at the first nonzero exit code, which it
returns.  Each config of CONFIGS is written to OUT/<name>.json and kept
there.  --smoke runs every row at the small sizes of SMOKE.  Any other size
is a plain ``wpgibbs`` command.

Usage:
    python3 scripts/reproduce.py OUT [--smoke]
"""
import argparse
import json
import os
import sys

from wpgibbs.cli import main

CONFIGS = {
    "ou": {
        "case": "ou",
        "mu0": 0.5,
        "tau0": 1.0,
        "times": [0.0, 0.5, 1.0, 1.5, 2.0],
        "obs": [0.2, 0.1, 0.3, -0.1, 0.2],
        "M": 32,
    },
    "bayes": {
        "case": "bayes",
        "a": 2.5,
        "b": 1.0,
        "sigma0": 0.3,
        "X": [[1.0, 0.2], [1.0, -0.4], [1.0, 0.9], [1.0, 0.1], [1.0, -1.2]],
        "Y": [0.3, -0.1, 0.8, 0.2, -0.9],
    },
}

# (output subdirectory, CLI argv); "{ou}" is OUT/ou.json, "{bayes}" OUT/bayes.json
ROWS = [
    ("finite_verify", ["verify", "--models", "50", "--trials", "20", "--states", "4x4",
                       "--n-max", "200", "--verbose", "--seed", "0"]),
    ("nig_compare", ["compare", "--case", "nig", "--mode", "scaled", "--beta-hyper", "2.0",
                     "--starts", "50000", "--n-grid", "1,2,5,10,20,50,100,200",
                     "--seed", "0"]),
    ("ou_traces", ["sample", "--case", "ou", "--config", "{ou}", "--chains", "4",
                   "--steps", "2000", "--seed", "0"]),
    ("ou_traces/bound", ["bound", "--case", "ou", "--config", "{ou}", "--n-max", "200"]),
    ("nig_fixed_bound", ["bound", "--case", "nig", "--mode", "fixed", "--beta-hyper", "1.0",
                         "--sigma0", "0.5", "--n-max", "200"]),
    ("bayes_bound", ["bound", "--case", "bayes", "--config", "{bayes}", "--n-max", "200"]),
]

# the value each flag takes under --smoke
SMOKE = {"--models": "2", "--trials": "3", "--starts": "500", "--n-grid": "1,2,5",
         "--chains": "1", "--steps": "20"}


def rows(out: str, smoke: bool):
    """(output directory, argv) of every row, writing under ``out``."""
    configs = {name: os.path.join(out, f"{name}.json") for name in CONFIGS}
    for sub, argv in ROWS:
        if smoke:
            argv = [SMOKE.get(flag, value) for flag, value in zip([None] + argv, argv)]
        yield os.path.join(out, sub), [a.format(**configs) for a in argv]


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out")
    ap.add_argument("--smoke", action="store_true", help="run every row at CI size")
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    for name, config in CONFIGS.items():
        with open(os.path.join(args.out, f"{name}.json"), "w") as fh:
            json.dump(config, fh)
    for where, row in rows(args.out, args.smoke):
        rc = main(row + ["--out", where])
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(run())
