"""Command-line driver: compose bounds, verify, sample, and compare.

Exit codes: 0 success, 1 verification failure, 2 invalid input.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import cases, config, finite, kstar, rates, samplers
from .errors import WpgibbsError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INVALID = 2

DEFAULT_OUT = os.environ.get("WPGIBBS_OUT", ".")


def _n_grid(args) -> list:
    if args.n_grid:
        return sorted(int(v) for v in args.n_grid.split(","))
    return list(range(0, args.n_max + 1, max(1, args.n_step)))


def _write_bound_csv(path, ns, rb: rates.RateBound):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "bound"])
        for n in ns:
            w.writerow([int(n), repr(rb.rate_bound(int(n)))])


def _load_case(args):
    if args.config:
        d = config.load_config(args.config)
        d.setdefault("case", args.case)
    else:
        d = {"case": args.case}
    if args.case == "nig":
        d.setdefault("beta_hyper", args.beta_hyper)
        if args.mode == "fixed" or args.sigma0:
            d["sigma_xi"] = d["sigma_tau"] = args.sigma0
        d.setdefault("sigma_xi", "scaled")
        d.setdefault("sigma_tau", "scaled")
    if args.gamma is not None:
        d["gamma_dg"] = args.gamma
    if args.case == "bayes" and "X" not in d:
        raise WpgibbsError("bayes case needs a config file with X and Y")
    if args.case == "ou" and "times" not in d:
        raise WpgibbsError("ou case needs a config file with times and obs")
    return config.case_params_from_dict(d)


def cmd_bound(args) -> int:
    ns = _n_grid(args)
    meta = {"command": "bound", "seed": args.seed, "case": args.case}

    if args.beta:
        spec = config.parse_beta_shorthand(args.beta)
        k = kstar.conjugate(spec)
        meta["beta"] = config.beta_to_dict(spec)
    elif args.case == "nig" and args.mode in (None, "scaled"):
        p = _load_case(args)
        k = cases.nig_scaled_kstar(p)
        meta["params"] = config.case_params_to_dict(p)
        meta["constants"] = {
            "gamma_xi": cases.GAMMA_XI_SCALED,
            "gamma_xi_expr": "27/256 * pi^-2 * 2^-11",
            "gamma_tau": cases.GAMMA_TAU_SCALED,
            "gamma_tau_expr": "1.972e-4 / (2e)",
            "slope": k.slope,
        }
        meta["rate_shape"] = "0.25*exp(-gamma_tau*gamma_xi*gamma*n)"
    elif args.case == "nig":
        p = _load_case(args)
        meta["params"] = config.case_params_to_dict(p)
        exponent = cases.nig_rate_exponent(p)
        sigma0 = float(p.sigma_xi)
        regime = "beta/sigma0 > 1" if p.beta_hyper / sigma0 > 1.0 else "beta/sigma0 <= 1"
        meta["constants"] = {
            "rate_exponent": exponent,
            "rate_exponent_expr": (
                "1/14" if p.beta_hyper / sigma0 > 1.0 else "beta/(4*beta+10*sigma0)"
            ),
            "regime": regime,
            "envelope_exponents": list(cases.nig_envelope_exponents(p)),
        }
        meta["rate_shape"] = "C*n^(-rate_exponent)"
        k1 = kstar.conjugate(cases.NIGBeta1(p))
        k2 = kstar.conjugate(cases.NIGBeta2(p))
        k = kstar.compose_mwg(kstar.Linear(p.gamma_dg), k1, k2, mode="strong")
    elif args.case == "bayes":
        p = _load_case(args)
        meta["params"] = config.case_params_to_dict(p)
        meta["constants"] = {
            "a_prime": p.a_prime,
            "b_prime": p.b_prime,
            "C1": p.C1,
            "C2": p.C2,
            "rate_exponent": cases.bayes_rate_exponent(p),
            "rate_exponent_expr": "min{a', b'/C2}",
            "B_upper_tail": cases.B_UPPER_TAIL,
        }
        meta["rate_shape"] = "C*(n-1)^(-min{a',b'/C2})"
        k2 = kstar.conjugate(cases.BayesBeta2(p))
        k = kstar.compose_mwg(
            kstar.Linear(p.gamma_dg), None, k2, mode="marginal_2mg"
        )
    elif args.case == "ou":
        p = _load_case(args)
        meta["params"] = config.case_params_to_dict(p)
        a = cases.ou_rate_coefficient(p)
        meta["constants"] = {
            "a": a,
            "a_expr": "2/(eta^2*tau0^2)",
            "eta": p.eta,
            "m": p.m,
            "delta": args.delta,
            "envelope_K": p.envelope_K,
        }
        meta["rate_shape"] = "exp(-(a/delta)*log^2((n-1)/(gamma/2)))"
        env = cases.ou_exp_log_square_envelope(p)
        k2 = kstar.conjugate(env)
        k = kstar.compose_mwg(
            kstar.Linear(p.gamma_dg), None, k2, mode="marginal_2mg"
        )
    else:
        raise WpgibbsError("bound needs --beta or a known --case")

    rb = rates.RateBound(k)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "bound.csv")
    _write_bound_csv(csv_path, ns, rb)
    meta["kstar"] = config.kstar_to_dict(k)
    meta["n_grid"] = ns
    samplers.write_metadata(os.path.join(args.out, "bound_meta.json"), meta)
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    nx, ny = (int(v) for v in args.states.split("x"))
    all_pass = True
    worst = 0.0
    lines = []
    for i in range(args.models):
        seed = int(rng.integers(0, 2 ** 31))
        m = finite.random_joint_model(seed, nx, ny)
        rep = finite.verify_identities(m, trials=args.trials, seed=seed)
        fs = finite.random_centered_functions(m.mu, args.trials, seed + 1)
        rep2 = finite.verify_bound_domination(m, fs, n_max=args.n_max)
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
    os.makedirs(args.out, exist_ok=True)
    meta = {
        "command": "sample",
        "case": args.case,
        "seed": args.seed,
        "chains": args.chains,
        "steps": args.steps,
        "mode": args.mode,
        "discretization": {"ito": "left-point", "time_integral": "trapezoid"},
    }
    if args.case == "nig":
        p = _load_case(args)
        meta["params"] = config.case_params_to_dict(p)
        mode = {"scaled": "mwg_scaled", "fixed": "mwg_fixed", "exact": "exact_gibbs"}[
            args.mode or "scaled"
        ]
        for chain in range(args.chains):
            rng = samplers.chain_rng(args.seed, chain)
            tau, xi = samplers.nig_stationary_start(p, rng, 1)
            path = os.path.join(args.out, f"chain_{chain}.csv")
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["step", "tau", "xi"])
                for step in range(args.steps + 1):
                    w.writerow([step, repr(float(tau[0])), repr(float(xi[0]))])
                    tau, xi = samplers.nig_step(tau, xi, p, mode, rng, args.sigma0)
    elif args.case == "bayes":
        p = _load_case(args)
        meta["params"] = config.case_params_to_dict(p)
        for chain in range(args.chains):
            rng = samplers.chain_rng(args.seed, chain)
            lam = float(rng.gamma(p.a, 1.0 / p.b))
            bvec = np.zeros(p.p)
            path = os.path.join(args.out, f"chain_{chain}.csv")
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["step", "lambda"] + [f"beta{j}" for j in range(p.p)])
                for step in range(args.steps + 1):
                    w.writerow([step, repr(lam)] + [repr(float(v)) for v in bvec])
                    lam, bvec = samplers.bayes_step(lam, bvec, p, rng)
        meta["burn_in"] = args.burn_in
    elif args.case == "ou":
        p = _load_case(args)
        meta["params"] = config.case_params_to_dict(p)
        n_seg = len(p.times) - 1
        acc_total = np.zeros(n_seg)
        for chain in range(args.chains):
            rng = samplers.chain_rng(args.seed, chain)
            st = samplers.ou_initial_state(p, rng)
            path = os.path.join(args.out, f"chain_{chain}.csv")
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["step", "theta"])
                for step in range(args.steps + 1):
                    w.writerow([step, repr(st.theta)])
                    st, acc = samplers.ou_da_step(st, p, rng)
                    acc_total += acc
        meta["acceptance_rate_per_segment"] = (
            acc_total / (args.chains * (args.steps + 1))
        ).tolist()
        meta["burn_in"] = args.burn_in
    else:
        raise WpgibbsError(f"unknown sampling case {args.case!r}")
    samplers.write_metadata(os.path.join(args.out, "run_meta.json"), meta)
    print(f"wrote {args.chains} trace(s) to {args.out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    ns = _n_grid(args)
    meta = {"command": "compare", "case": args.case, "seed": args.seed}
    if args.case == "finite":
        m = finite.random_joint_model(args.seed, 4, 4)
        g0, g1, g2 = m.component_gaps()
        k = kstar.compose_mwg(
            kstar.Linear(g0), kstar.Linear(g1), kstar.Linear(g2), mode="full"
        )
        rb = rates.RateBound(k)
        kern = m.kernel("P12")
        f = finite.random_centered_functions(m.mu, 1, args.seed + 1)[0]
        est = samplers.finite_decay_estimate(
            kern, f, [n for n in ns if n >= 1], starts=args.starts,
            master_seed=args.seed,
        )
        meta["gaps"] = [g0, g1, g2]
    elif args.case == "nig":
        p = _load_case(args)
        rb = rates.RateBound(cases.nig_scaled_kstar(p))
        est = samplers.nig_decay_estimate(
            p, "mwg_scaled", [n for n in ns if n >= 1], starts=args.starts,
            master_seed=args.seed,
        )
        meta["params"] = config.case_params_to_dict(p)
    else:
        raise WpgibbsError(f"compare supports cases finite and nig, not {args.case!r}")

    path = os.path.join(args.out, "compare.csv")
    dominated = 0
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "bound", "empirical_mean", "ci_low", "ci_high"])
        for i, n in enumerate(est.n_grid):
            bound = rb.rate_bound(int(n))
            dominated += est.ci_high[i] <= bound
            w.writerow(
                [int(n), repr(bound), repr(float(est.mean[i])),
                 repr(float(est.ci_low[i])), repr(float(est.ci_high[i]))]
            )
    meta["domination_fraction"] = dominated / len(est.n_grid)
    samplers.write_metadata(os.path.join(args.out, "compare_meta.json"), meta)
    print(f"wrote {path}; domination fraction {meta['domination_fraction']:.3f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wpgibbs",
        description="Convergence-bound calculus and samplers for two-block "
        "Metropolis-within-Gibbs chains",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--case", default="custom")
        sp.add_argument("--config", help="JSON parameter file")
        sp.add_argument("--out", default=DEFAULT_OUT)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--gamma", type=float, default=None,
                        help="exact-scan SPI constant (user input)")
        sp.add_argument("--sigma0", type=float, default=None)
        sp.add_argument("--beta-hyper", type=float, default=1.0)
        sp.add_argument("--mode", default=None)
        sp.add_argument("--n-max", type=int, default=200)
        sp.add_argument("--n-step", type=int, default=1)
        sp.add_argument("--n-grid", default=None,
                        help="comma-separated n values (overrides --n-max)")

    sp = sub.add_parser("bound", help="write a rate-bound curve")
    common(sp)
    sp.add_argument("--beta", default=None,
                    help="profile shorthand, e.g. indicator:0.2")
    sp.add_argument("--delta", type=float, default=1.5)
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("verify", help="run the finite-state oracle")
    common(sp)
    sp.add_argument("--models", type=int, default=50)
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--states", default="3x3")
    sp.add_argument("--verbose", action="store_true")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sample", help="run chains and write traces")
    common(sp)
    sp.add_argument("--chains", type=int, default=4)
    sp.add_argument("--steps", type=int, default=1000)
    sp.add_argument("--burn-in", type=int, default=10000)
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("compare", help="bound vs empirical decay")
    common(sp)
    sp.add_argument("--starts", type=int, default=20000)
    sp.set_defaults(func=cmd_compare)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except WpgibbsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
