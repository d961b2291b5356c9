"""Runnable samplers for the three case studies and an L2-decay estimator.

All samplers use deterministic-scan updates.  Randomness is drawn from
``numpy.random.default_rng([master_seed, chain_index])`` streams so chains
are reproducible and embarrassingly parallel; vectorized drivers carry one
stream per chain block with the block index in the key.

The decay estimator uses paired chains: for a stationary start Z ~ Pi,
two conditionally independent chains Z^1, Z^2 are run from the same start,
and E[f(Z^1_n) f(Z^2_n)] = ||P^n f||^2 for centered f.  Bootstrap over
starts gives confidence bands.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import DomainError, InvalidModeError
from .finite import FiniteKernel

if TYPE_CHECKING:
    from .cases import BayesParams, NIGParams, OUParams


# bootstrap resamples behind each confidence band
BOOTSTRAP = 200


def chain_rng(master_seed: int, chain_index: int) -> np.random.Generator:
    return np.random.default_rng([master_seed, chain_index])


# ---------------------------------------------------------------------------
# normal/exponential scale model
# ---------------------------------------------------------------------------

#: the nig chain's modes, which are also the ``--mode`` values of its case
NIG_MODES = ("scaled", "fixed", "exact")


def nig_stationary_start(p: NIGParams, rng: np.random.Generator, size: int):
    """Exact stationary draw: tau ~ Gamma(1/2, rate beta), xi | tau ~ N(0, 1/tau)."""
    tau = rng.gamma(0.5, 1.0 / p.beta_hyper, size=size)
    xi = rng.normal(0.0, 1.0 / np.sqrt(tau), size=size)
    return tau, xi


def nig_step(tau: np.ndarray, xi: np.ndarray, p: NIGParams, mode: str, rng: np.random.Generator):
    """One deterministic scan (tau-update then xi-update), vectorized.

    ``exact`` draws both conditionals exactly; ``scaled`` and ``fixed`` use
    random-walk Metropolis, with the conditioning-dependent steps or with the
    fixed steps ``p.sigma_xi`` (tau-update) and ``p.sigma_tau`` (xi-update).
    """
    if mode not in NIG_MODES:
        raise InvalidModeError(f"unknown mode {mode!r}; choose one of {', '.join(NIG_MODES)}")
    if mode == "fixed" and "scaled" in (p.sigma_xi, p.sigma_tau):
        raise InvalidModeError("mode fixed needs numeric steps sigma_xi and sigma_tau")
    tau = np.atleast_1d(np.asarray(tau, dtype=float)).copy()
    xi = np.atleast_1d(np.asarray(xi, dtype=float)).copy()
    beta_xi = p.beta_hyper + 0.5 * xi ** 2

    if mode == "exact":
        tau = rng.exponential(1.0 / beta_xi)
    else:
        step = np.sqrt(3.0) / beta_xi if mode == "scaled" else p.sigma_xi
        prop = tau + step * rng.normal(size=tau.shape)
        log_alpha = np.where(prop > 0.0, -beta_xi * (prop - tau), -np.inf)
        accept = np.log(rng.uniform(size=tau.shape)) < log_alpha
        tau = np.where(accept, prop, tau)

    if mode == "exact":
        xi = rng.normal(0.0, 1.0 / np.sqrt(tau))
    else:
        step = 1.0 / np.sqrt(2.0 * tau) if mode == "scaled" else p.sigma_tau
        prop = xi + step * rng.normal(size=xi.shape)
        log_alpha = -0.5 * tau * (prop ** 2 - xi ** 2)
        accept = np.log(rng.uniform(size=xi.shape)) < log_alpha
        xi = np.where(accept, prop, xi)

    return tau, xi


def nig_decay_estimate(
    p: NIGParams, mode: str, n_grid: Sequence[int], starts: int, master_seed: int
) -> "DecayEstimate":
    """Paired-chain estimate of ||P^n f||^2 / ||f||^2_osc for the scan chain.

    f = tanh(xi)/2, centered exactly by the xi -> -xi symmetry of the target
    and with oscillation 1.
    """
    start = nig_stationary_start(p, chain_rng(master_seed, 0), starts)
    return _paired_decay(
        start, lambda z, rng: nig_step(*z, p, mode, rng), lambda z: 0.5 * np.tanh(z[1]),
        1.0, n_grid, master_seed,
    )


# ---------------------------------------------------------------------------
# Bayesian linear regression
# ---------------------------------------------------------------------------


def bayes_step(
    lam: float,
    beta_vec: np.ndarray,
    p: BayesParams,
    rng: np.random.Generator,
    exact_beta: bool = False,
):
    """One scan: exact Gamma draw for the precision, then one RWM move of
    the coefficient vector (or the exact Gaussian draw with exact_beta)."""
    if not lam > 0.0:
        raise DomainError("precision must stay positive")
    beta_vec = np.asarray(beta_vec, dtype=float)
    resid = p.Y - p.X @ beta_vec
    rss = float(resid @ resid)
    lam = rng.gamma(p.a + p.N / 2.0, 1.0 / (p.b + 0.5 * rss))

    if exact_beta:
        gram = p.gram
        mean = np.linalg.solve(gram, p.X.T @ p.Y)
        cov = np.linalg.inv(gram) / lam
        beta_vec = rng.multivariate_normal(mean, cov)
        return lam, beta_vec

    prop = beta_vec + p.sigma0 * rng.normal(size=beta_vec.shape)
    r_new = p.Y - p.X @ prop
    log_alpha = -0.5 * lam * (float(r_new @ r_new) - rss)
    if math.log(rng.uniform()) < log_alpha:
        beta_vec = prop
    return lam, beta_vec


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck data augmentation
# ---------------------------------------------------------------------------


@dataclass
class OUState:
    """Drift parameter and per-segment imputed paths on M+1-point grids,
    pinned to the observations at both endpoints."""

    theta: float
    paths: list  # list of arrays, segment i has length M+1

    def validate(self, p: OUParams):
        for i, seg in enumerate(self.paths):
            if len(seg) != p.M + 1:
                raise DomainError("segment grid length mismatch")
            if abs(seg[0] - p.obs[i]) > 1e-12 or abs(seg[-1] - p.obs[i + 1]) > 1e-12:
                raise DomainError("segment endpoints must equal the observations")


def ou_initial_state(p: OUParams, rng: np.random.Generator) -> OUState:
    theta = rng.normal(p.mu0, p.tau0)
    paths = [
        brownian_bridge(p.obs[i], p.obs[i + 1], p.times[i + 1] - p.times[i], p.M, rng)
        for i in range(len(p.times) - 1)
    ]
    return OUState(theta=float(theta), paths=paths)


def brownian_bridge(a: float, b: float, dt: float, M: int, rng) -> np.ndarray:
    """Brownian bridge from a to b over duration dt on an M+1-point grid."""
    h = dt / M
    w = np.concatenate([[0.0], np.cumsum(rng.normal(0.0, math.sqrt(h), size=M))])
    frac = np.linspace(0.0, 1.0, M + 1)
    return a + w - frac * (w[-1] - (b - a))


def _trapezoid_sq(seg: np.ndarray, h: float) -> float:
    return float(np.trapezoid(seg ** 2, dx=h))


def _ito_x_dx(seg: np.ndarray) -> float:
    return float(np.sum(seg[:-1] * np.diff(seg)))


def girsanov_log_g(seg: np.ndarray, theta: float, h: float) -> float:
    """log G for one segment in the unsimplified endpoint form:
    A(end) - A(start) - 1/2 int (b^2 + b') dt with A(u) = -theta u^2 / 2
    and b^2 + b' = theta^2 x^2 - theta, integrals by trapezoid."""
    A = lambda u: -theta * u * u / 2.0
    dt = h * (len(seg) - 1)
    integral = theta ** 2 * _trapezoid_sq(seg, h) - theta * dt
    return A(seg[-1]) - A(seg[0]) - 0.5 * integral


def ou_segment_log_alpha(old: np.ndarray, new: np.ndarray, theta: float, h: float) -> float:
    """Simplified acceptance log-ratio: -(theta^2/2) int (X'^2 - X^2) dt."""
    return -(theta ** 2 / 2.0) * (_trapezoid_sq(new, h) - _trapezoid_sq(old, h))


def ou_da_step(state: OUState, p: OUParams, rng: np.random.Generator):
    """One data-augmentation scan: exact Gaussian theta-update, then an
    independence-Metropolis Brownian-bridge refresh of every segment.

    Returns (new_state, acceptance_flags).
    """
    state.validate(p)
    dts = np.diff(np.asarray(p.times))
    hs = dts / p.M

    # theta | paths: N(mean, var) with var = 1/(int X^2 dt + tau0^-2)
    int_x2 = sum(_trapezoid_sq(seg, h) for seg, h in zip(state.paths, hs))
    int_xdx = sum(_ito_x_dx(seg) for seg in state.paths)
    var = 1.0 / (int_x2 + p.tau0 ** -2)
    mean = var * (-int_xdx + p.mu0 * p.tau0 ** -2)
    theta = float(rng.normal(mean, math.sqrt(var)))

    new_paths = []
    accepted = []
    for i, (seg, h, dt) in enumerate(zip(state.paths, hs, dts)):
        prop = brownian_bridge(p.obs[i], p.obs[i + 1], dt, p.M, rng)
        log_alpha = ou_segment_log_alpha(seg, prop, theta, h)
        ok = math.log(rng.uniform()) < min(0.0, log_alpha)
        new_paths.append(prop if ok else seg.copy())
        accepted.append(ok)
    return OUState(theta=theta, paths=new_paths), np.array(accepted)


# ---------------------------------------------------------------------------
# finite-model chains (shared estimator code path)
# ---------------------------------------------------------------------------


def finite_simulate(
    k: FiniteKernel, start: np.ndarray, steps: int, rng: np.random.Generator
) -> np.ndarray:
    """Advance many chains of a finite kernel at once (categorical sampling)."""
    cdf = np.cumsum(k.matrix, axis=1)
    cdf[:, -1] = 1.0
    state = np.asarray(start, dtype=np.int64).copy()
    for _ in range(steps):
        u = rng.uniform(size=state.shape)
        state = (u[:, None] > cdf[state]).sum(axis=1).astype(np.int64)
    return state


def finite_decay_estimate(
    k: FiniteKernel,
    f: np.ndarray,
    n_grid: Sequence[int],
    starts: int,
    master_seed: int,
) -> "DecayEstimate":
    """Paired-chain estimator on a finite kernel (for calibration tests)."""
    f = np.asarray(f, dtype=float)
    f = f - float(k.mu @ f)
    start = chain_rng(master_seed, 0).choice(k.n, size=starts, p=k.mu)
    return _paired_decay(
        start, lambda s, rng: finite_simulate(k, s, 1, rng), lambda s: f[s],
        float((f.max() - f.min()) ** 2), n_grid, master_seed,
    )


# ---------------------------------------------------------------------------
# decay estimates
# ---------------------------------------------------------------------------


@dataclass
class DecayEstimate:
    """Estimated normalized decay curve with bootstrap confidence bands."""

    n_grid: np.ndarray
    mean: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    se: np.ndarray


def _paired_decay(start, step, f, osc_sq: float, n_grid, master_seed: int) -> DecayEstimate:
    """Estimate ||P^n f||^2 / osc_sq at each n of ``n_grid``.

    Two chains leave the shared stationary ``start`` (a batch of starts), each
    advanced one scan at a time by ``step(z, rng)`` on its own stream;
    f(Z^1_n) f(Z^2_n) is averaged over the starts and bootstrapped over them.
    """
    rng1, rng2 = chain_rng(master_seed, 1), chain_rng(master_seed, 2)
    z1 = z2 = start
    n_grid = sorted(int(n) for n in n_grid)
    xs = []
    now = 0
    for n in n_grid:
        for _ in range(n - now):
            z1, z2 = step(z1, rng1), step(z2, rng2)
        now = n
        xs.append(f(z1) * f(z2) / osc_sq)
    starts = len(xs[0])
    idx = chain_rng(master_seed, 3).integers(0, starts, size=(BOOTSTRAP, starts))
    boots = [x[idx].mean(axis=1) for x in xs]
    return DecayEstimate(
        n_grid=np.asarray(n_grid),
        mean=np.array([x.mean() for x in xs]),
        ci_low=np.array([np.quantile(b, 0.025) for b in boots]),
        ci_high=np.array([np.quantile(b, 0.975) for b in boots]),
        se=np.array([b.std(ddof=1) for b in boots]),
    )


def mann_kendall_z(x: Sequence[float]) -> float:
    """Normalized Mann-Kendall trend statistic (positive = upward trend)."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    s = 0
    for i in range(n - 1):
        s += int(np.sum(np.sign(x[i + 1 :] - x[i])))
    var = n * (n - 1) * (2 * n + 5) / 18.0
    if s > 0:
        return (s - 1) / math.sqrt(var)
    if s < 0:
        return (s + 1) / math.sqrt(var)
    return 0.0


def write_metadata(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
