"""Command-line driver: compose bounds, verify, sample, and compare.

Exit codes: 0 success, 1 verification failure, 2 invalid input.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

import numpy as np

from . import cases, config, finite, kstar, rates, samplers
from .errors import WpgibbsError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INVALID = 2

# the case flags that set a params field, by the field they set
_FIELD_FLAGS = {"--gamma": "gamma_dg", "--sigma0": "sigma0", "--beta-hyper": "beta_hyper"}
# the flags that set a case's params or mode
_CASE_FLAGS = ("--config", *_FIELD_FLAGS, "--mode")
# trace rows that `sample` holds before it writes them out
_BLOCK_ROWS = 2 ** 10


def _at_least(args, lowest: int, *names) -> None:
    """Exit 2 unless each named count flag is at least ``lowest``."""
    for name in names:
        value = getattr(args, name)
        if value < lowest:
            flag = "--" + name.replace("_", "-")
            raise WpgibbsError(f"{flag} must be at least {lowest}, got {value}")


def _n_grid(args) -> list:
    if args.n_grid is not None:
        try:
            ns = sorted(int(n) for n in args.n_grid.split(","))
        except ValueError:
            raise WpgibbsError(
                f"--n-grid must be comma-separated whole numbers, got {args.n_grid!r}") from None
        repeated = [a for a, b in zip(ns, ns[1:]) if a == b]
        if repeated:
            raise WpgibbsError(f"--n-grid gives n = {repeated[0]} more than once")
    else:
        ns = list(range(args.n_max + 1))
    if not ns or ns[0] < 0:
        raise WpgibbsError(f"the n grid must be nonempty with every n >= 0, got {ns}")
    return ns


def _reject(args, where: str, flags=_CASE_FLAGS) -> None:
    """Exit 2 if one of ``flags`` is given where nothing reads it."""
    given = [f for f in flags if getattr(args, f[2:].replace("-", "_")) is not None]
    if given:
        raise WpgibbsError(f"{', '.join(given)} cannot be used {where}")


def _load_case(args, needs: str = "--case"):
    """(case, params, mode) from --case, --config and the parameter flags;
    without --case, exit 2 naming the flags ``needs`` that would give one."""
    if args.case is None:
        raise WpgibbsError(f"{args.command} needs {needs}")
    case = cases.CASES.get(args.case)
    if case is None:
        raise WpgibbsError(
            f"unknown case {args.case!r}; choose one of {', '.join(cases.CASES)}"
        )
    mode = args.mode or case.modes[0]
    if mode not in case.modes:
        raise WpgibbsError(
            f"case {args.case} has no mode {mode!r}; choose one of {', '.join(case.modes)}"
        )
    d = config.load_config(args.config) if args.config else {}
    d.setdefault("case", args.case)
    if d["case"] != args.case:
        raise WpgibbsError(f"--case {args.case} does not match the config's case {d['case']!r}")
    for flag, name in _FIELD_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None:
            continue
        if name not in case.fields:
            raise WpgibbsError(f"{flag} cannot be used with --case {args.case}")
        if name in d:
            raise WpgibbsError(f"give {name} once: by {flag} or in the config")
        d[name] = value
    p = config.case_params_from_dict(d)
    case.check(p, mode)
    return case, p, mode


def _json(obj, pad: str = "") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True, default=str)`` for ``obj``
    at the indent ``pad``, byte for byte.

    json runs its pure-Python encoder whenever ``indent`` is set, one
    generator step per value.  Here the layout is written by this function
    and json's C encoder writes every key and every scalar: a list or dict
    that holds no list or dict goes to it whole, in one ``json.dumps`` call
    whose item separator ``",\n" + indent`` puts each item on a line of its
    own.  json's C encoder sorts a dict's items as ``sorted`` does.
    """
    if isinstance(obj, (list, tuple)):
        items, brackets = obj, "[]"
    elif isinstance(obj, dict):
        items, brackets = obj.values(), "{}"
    else:
        return json.dumps(obj, default=str)
    if not obj:
        return brackets
    inner = pad + "  "
    sep = ",\n" + inner
    if not any(issubclass(t, (list, tuple, dict)) for t in set(map(type, items))):
        body = json.dumps(obj, sort_keys=True, separators=(sep, ": "), default=str)[1:-1]
    elif brackets == "[]":
        body = sep.join(_json(x, inner) for x in obj)
    else:
        body = sep.join(f"{_json_key(k)}: {_json(v, inner)}" for k, v in sorted(obj.items()))
    return f"{brackets[0]}\n{inner}{body}\n{pad}{brackets[1]}"


def _json_key(key) -> str:
    """A dict key as json writes it: a string as itself, a number, bool or
    None as the quoted text of its value; any other key is a TypeError."""
    if isinstance(key, str):
        return json.dumps(key)
    if key is None or isinstance(key, (int, float)):
        return f'"{json.dumps(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def write_metadata(path: str, payload: dict) -> None:
    """Write ``payload`` to ``path`` as indented JSON with sorted keys, in one
    write: the text of ``json.dumps(payload, indent=2, sort_keys=True,
    default=str)``, rendered by ``_json``."""
    text = _json(payload)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def cmd_bound(args) -> int:
    ns = _n_grid(args)
    meta = {"command": "bound", "case": args.case or "custom"}
    if args.beta:
        _reject(args, "with --beta", ("--case", *_CASE_FLAGS))
        spec = config.parse_beta(args.beta)
        k = kstar.conjugate(spec)
        meta["beta"] = config.to_dict(spec)
    else:
        case, p, mode = _load_case(args, "--beta or --case")
        k, meta["constants"], meta["rate_shape"] = case.bound(p, mode)
        meta["params"] = config.to_dict(p)

    rb = rates.RateBound(k)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "bound.csv")
    rb.write_csv(csv_path, ns)
    meta["kstar"] = config.to_dict(k)
    meta["n_grid"] = ns
    write_metadata(os.path.join(args.out, "bound_meta.json"), meta)
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    _at_least(args, 1, "models", "trials")
    _at_least(args, 0, "n_max", "seed")
    sizes = re.fullmatch(r"([0-9]+)x([0-9]+)", args.states)
    nx, ny = map(int, sizes.groups()) if sizes else (0, 0)
    if min(nx, ny) < 2:
        raise WpgibbsError(f"--states must read NXxNY with both sizes >= 2, got {args.states!r}")
    rng = np.random.default_rng(args.seed)
    seeds = [int(rng.integers(0, 2 ** 31)) for _ in range(args.models)]
    # the models are checked in stacks of at most STACK_ENTRIES operator entries
    stack = max(1, finite.STACK_ENTRIES // (nx * ny) ** 2)
    all_pass = True
    worst = 0.0
    lines = []
    for start in range(0, args.models, stack):
        chunk = seeds[start:start + stack]
        m = finite.random_joint_model(chunk, nx, ny)
        reps = finite.verify_identities(m, trials=args.trials, seed=chunk)
        fs = [finite.random_centered_functions(mu, args.trials, seed + 1)
              for mu, seed in zip(m.mu, chunk)]
        reps2 = finite.verify_bound_domination(m, fs, n_max=args.n_max)
        for i, (seed, rep, rep2) in enumerate(zip(chunk, reps, reps2), start):
            for r in (rep, rep2):
                all_pass &= r.passed
                worst = max(worst, r.worst_residual)
                if not r.passed or args.verbose:
                    lines.append(f"model {i} (seed {seed}):\n{r.to_text()}")
    os.makedirs(args.out, exist_ok=True)
    report_path = os.path.join(args.out, "verify_report.txt")
    with open(report_path, "w") as fh:
        fh.write("\n".join(lines) if lines else "")
        fh.write(
            f"\nmodels={args.models} trials={args.trials} states={args.states}"
            f" worst_residual={worst:.3e}\n"
        )
        fh.write("OVERALL " + ("PASS" if all_pass else "FAIL") + "\n")
    print(f"verify: {'PASS' if all_pass else 'FAIL'} "
          f"(worst residual {worst:.3e}); report at {report_path}")
    return EXIT_OK if all_pass else EXIT_VERIFY_FAIL


def cmd_sample(args) -> int:
    _reject(args, "with sample: no sampler reads it", ("--gamma",))
    _at_least(args, 1, "chains")
    _at_least(args, 0, "steps", "seed")
    case, p, mode = _load_case(args)
    os.makedirs(args.out, exist_ok=True)
    meta = {
        "command": "sample",
        "case": args.case,
        "seed": args.seed,
        "chains": args.chains,
        "steps": args.steps,
        "mode": mode,
        **case.sample_meta,
        "params": config.to_dict(p),
    }
    rngs = [samplers.chain_rng(args.seed, chain) for chain in range(args.chains)]
    paths = [os.path.join(args.out, f"chain_{chain}.csv") for chain in range(args.chains)]
    header = case.columns(p)

    def write(block, how):
        """Append a block of scans to every chain's file, one file at a time."""
        for chain, path in enumerate(paths):
            cols = zip(*[scan[chain] for scan in block], strict=True)
            with open(path, how, newline="") as fh:
                rates._write_rows(fh, header if how == "w" else (), cols)

    # the chains run side by side; their rows go out in blocks of scans that
    # hold about _BLOCK_ROWS rows, so memory does not grow with --steps
    acc = []
    block, how = [], "w"
    for scan in case.trace(p, mode, rngs, args.steps, acc):
        block.append(scan)
        if len(block) * args.chains >= _BLOCK_ROWS:
            write(block, how)
            block, how = [], "a"
    if block:
        write(block, how)
    if acc:
        meta["acceptance_rate_per_segment"] = (
            sum(acc) / (args.chains * (args.steps + 1))
        ).tolist()
    write_metadata(os.path.join(args.out, "run_meta.json"), meta)
    print(f"wrote {args.chains} trace(s) to {args.out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    _at_least(args, 2, "starts")
    _at_least(args, 0, "seed")
    ns = [n for n in _n_grid(args) if n >= 1]
    if not ns:
        raise WpgibbsError("compare needs an n >= 1 in its grid")
    meta = {"command": "compare", "case": args.case, "seed": args.seed}
    if args.case == "finite":
        _reject(args, "with --case finite")
        m = finite.random_joint_model(args.seed, 4, 4)
        g0, g1, g2 = m.component_gaps()
        k = kstar.compose_mwg(
            kstar.Linear(g0), kstar.Linear(g1), kstar.Linear(g2), mode="full"
        )
        rb = rates.RateBound(k)
        kern = m.kernel("P12")
        f = finite.random_centered_functions(m.mu, 1, args.seed + 1)[0]
        est = samplers.finite_decay_estimate(
            kern, f, ns, starts=args.starts, master_seed=args.seed,
        )
        meta["gaps"] = [g0, g1, g2]
    elif args.case is None:
        raise WpgibbsError("compare needs --case")
    elif getattr(cases.CASES.get(args.case), "decay", None) is not None:
        case, p, mode = _load_case(args)
        est = case.decay(p, mode, ns, args.starts, args.seed)
        rb = rates.RateBound(case.bound(p, mode)[0])
        meta["params"] = config.to_dict(p)
    else:
        raise WpgibbsError(f"compare has no decay estimate for case {args.case!r}")

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "compare.csv")
    bounds, ci_high = rb.curve(est.n_grid).tolist(), est.ci_high.tolist()
    cols = [map(int, est.n_grid), bounds, est.mean.tolist(), est.ci_low.tolist(), ci_high]
    with open(path, "w", newline="") as fh:
        rates._write_rows(fh, ("n", "bound", "empirical_mean", "ci_low", "ci_high"), cols)
    meta["domination_fraction"] = sum(h <= b for b, h in zip(bounds, ci_high)) / len(bounds)
    write_metadata(os.path.join(args.out, "compare_meta.json"), meta)
    print(f"wrote {path}; domination fraction {meta['domination_fraction']:.3f}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises a parse error as invalid input, which ``main`` reports on one line."""

    def error(self, message):
        raise WpgibbsError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="wpgibbs",
        description="Convergence-bound calculus and samplers for two-block "
        "Metropolis-within-Gibbs chains",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def output(sp, seeded=True):
        """--out, and --seed for a command that draws random numbers."""
        sp.add_argument("--out", default=".")
        if seeded:
            sp.add_argument("--seed", type=int, default=0)

    def case_options(sp):
        sp.add_argument("--case", default=None)
        sp.add_argument("--config", help="JSON parameter file")
        sp.add_argument("--gamma", type=float, default=None,
                        help="exact-scan SPI constant (user input)")
        sp.add_argument("--sigma0", type=float, default=None,
                        help="common nig step of --mode fixed")
        sp.add_argument("--beta-hyper", type=float, default=None,
                        help="nig prior rate beta (default 1.0)")
        sp.add_argument("--mode", default=None,
                        help="nig: scaled (default), fixed or exact")

    def grid_options(sp):
        sp.add_argument("--n-max", type=int, default=200)
        sp.add_argument("--n-grid", default=None,
                        help="comma-separated n values (overrides --n-max)")

    sp = sub.add_parser("bound", help="write a rate-bound curve")
    output(sp, seeded=False)
    case_options(sp)
    grid_options(sp)
    sp.add_argument("--beta", default=None,
                    help="profile shorthand, e.g. indicator:0.2, or a JSON profile "
                    "object; takes no case flag")

    sp = sub.add_parser("verify", help="run the finite-state oracle")
    output(sp)
    sp.add_argument("--n-max", type=int, default=200)
    sp.add_argument("--models", type=int, default=50)
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--states", default="3x3")
    sp.add_argument("--verbose", action="store_true")

    sp = sub.add_parser("sample", help="run chains and write traces")
    output(sp)
    case_options(sp)
    sp.add_argument("--chains", type=int, default=4)
    sp.add_argument("--steps", type=int, default=1000)

    sp = sub.add_parser("compare", help="bound vs empirical decay")
    output(sp)
    case_options(sp)
    grid_options(sp)
    sp.add_argument("--starts", type=int, default=20000)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by every later one."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        # the command function is looked up by name at each call, so the
        # reused parser holds no reference to it
        return globals()[f"cmd_{args.command}"](args)
    except (WpgibbsError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
