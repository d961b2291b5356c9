#!/usr/bin/env python3
"""Time the ``wpgibbs bound`` commands whose per-command times ROADMAP's
Baseline lists.

Runs each command of COMMANDS 7 times in this process through
``wpgibbs.cli.main``, each run into a fresh directory under one temporary
directory, with the command's own output silenced, and prints one
``median_ms  name`` line per command: the median wall time of its runs.  The
bayes and ou commands read ``scripts/reproduce.py``'s configs.  A run that
exits nonzero stops the script with that exit code.

Usage:
    python3 scripts/time_commands.py
"""
import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from reproduce import CONFIGS  # noqa: E402  (scripts/reproduce.py)
from wpgibbs.cli import main  # noqa: E402

RUNS = 7
# (name, bound argv); "{ou}" and "{bayes}" are reproduce.py's configs
COMMANDS = [
    ("nig-fixed", ["--case", "nig", "--mode", "fixed", "--sigma0", "0.8"]),
    ("bayes", ["--case", "bayes", "--config", "{bayes}"]),
    ("ou", ["--case", "ou", "--config", "{ou}"]),
    ("explogsquare-numeric", ["--beta", "explogsquare:0.5,1.0,0.2"]),
    ("explogsquare-closed", ["--beta", "explogsquare:0.25,1.0,0.2"]),
    ("nig-scaled", ["--case", "nig", "--mode", "scaled"]),
]


def run() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        configs = {}
        for name, config in CONFIGS.items():
            configs[name] = os.path.join(tmp, f"{name}.json")
            with open(configs[name], "w") as fh:
                json.dump(config, fh)
        for name, argv in COMMANDS:
            times = []
            for i in range(RUNS):
                out = os.path.join(tmp, f"{name}-{i}")
                full = ["bound", *(a.format(**configs) for a in argv), "--out", out]
                with contextlib.redirect_stdout(io.StringIO()):
                    start = time.perf_counter()
                    code = main(full)
                    times.append(time.perf_counter() - start)
                if code:
                    print(f"exit {code}  wpgibbs {' '.join(full)}", file=sys.stderr)
                    return code
            print(f"{1e3 * statistics.median(times):9.2f}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(run())
