"""Runnable samplers for the three case studies and an L2-decay estimator.

All samplers use deterministic-scan updates.  Randomness is drawn from
``numpy.random.default_rng([master_seed, key])`` streams so chains are
reproducible and embarrassingly parallel.  The decay estimator keys 0 for
the starts, 1 and 2 for the two chains and 3 for the bootstrap resamples.

The decay estimator uses paired chains: for a stationary start Z ~ Pi,
two conditionally independent chains Z^1, Z^2 are run from the same start,
and E[f(Z^1_n) f(Z^2_n)] = ||P^n f||^2 for centered f.  Bootstrap over
starts gives confidence bands.
"""
from __future__ import annotations

import functools
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
# starts per block of the bootstrap product, which OpenBLAS sums alike on any thread count
_BLOCK = 128


def chain_rng(master_seed: int, chain_index: int) -> np.random.Generator:
    return np.random.default_rng([master_seed, chain_index])


# ---------------------------------------------------------------------------
# normal/exponential scale model
# ---------------------------------------------------------------------------

#: the nig chain's modes, which are also the ``--mode`` values of its case
NIG_MODES = ("scaled", "fixed", "exact")
_SQRT3 = math.sqrt(3.0)


def nig_stationary_start(p: NIGParams, rng: np.random.Generator, size: int):
    """Exact stationary draw: tau ~ Gamma(1/2, rate beta), xi | tau ~ N(0, 1/tau)."""
    tau = rng.gamma(0.5, 1.0 / p.beta_hyper, size=size)
    xi = rng.normal(0.0, 1.0 / np.sqrt(tau), size=size)
    return tau, xi


def nig_step(tau: np.ndarray, xi: np.ndarray, p: NIGParams, mode: str, rng: np.random.Generator):
    """One deterministic scan (tau-update then xi-update), vectorized.

    ``exact`` draws both conditionals exactly; ``scaled`` and ``fixed`` use
    random-walk Metropolis, with the conditioning-dependent steps or with the
    common fixed step ``p.sigma0`` of both updates.
    """
    if mode not in NIG_MODES:
        raise InvalidModeError(f"unknown mode {mode!r}; choose one of {', '.join(NIG_MODES)}")
    if mode == "fixed" and p.sigma0 is None:
        raise InvalidModeError("mode fixed needs a numeric step sigma0")
    # numpy draws normal, uniform and exponential variates as loc + scale *
    # (standard draw); with loc 0 the standard draws below give the same
    # values bit for bit ("0.0 +" also keeps the sign of an exact zero)
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    xi_sq = xi ** 2
    beta_xi = p.beta_hyper + 0.5 * xi_sq

    if mode == "exact":
        tau = (1.0 / beta_xi) * rng.standard_exponential(beta_xi.shape)
        return tau, 0.0 + (1.0 / np.sqrt(tau)) * rng.standard_normal(tau.shape)

    step = _SQRT3 / beta_xi if mode == "scaled" else p.sigma0
    prop = tau + step * rng.standard_normal(tau.shape)
    log_alpha = np.where(prop > 0.0, beta_xi * (tau - prop), -np.inf)
    tau = np.where(np.log(rng.random(tau.shape)) < log_alpha, prop, tau)

    step = 1.0 / np.sqrt(2.0 * tau) if mode == "scaled" else p.sigma0
    prop = xi + step * rng.standard_normal(xi.shape)
    log_alpha = -0.5 * tau * (prop ** 2 - xi_sq)
    xi = np.where(np.log(rng.random(xi.shape)) < log_alpha, prop, xi)
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


def ou_initial_state(p: OUParams, rng: np.random.Generator):
    """The state (theta, paths): a prior drift draw and a (segments x (M+1))
    array of Brownian bridges pinned to the observations."""
    theta = rng.normal(p.mu0, p.tau0)
    steps = np.array([rng.normal(0.0, math.sqrt(dt / p.M), size=p.M) for dt in p.dts])
    return float(theta), _bridges(p.y[:-1], p.y[1:], steps)


@functools.lru_cache(maxsize=16)
def _unit_grid(M: int) -> np.ndarray:
    """linspace(0, 1, M + 1), built once per M and read-only."""
    grid = np.linspace(0.0, 1.0, M + 1)
    grid.flags.writeable = False
    return grid


def _bridges(a, b, steps: np.ndarray) -> np.ndarray:
    """Brownian bridges from a to b on an M+1-point grid, built from the
    random walk's M increments along the last axis of ``steps`` (one bridge
    per row, with a and b one value per row)."""
    M = steps.shape[-1]
    w = np.zeros(steps.shape[:-1] + (M + 1,))
    np.cumsum(steps, axis=-1, out=w[..., 1:])
    a, b = np.asarray(a)[..., None], np.asarray(b)[..., None]
    return a + w - _unit_grid(M) * (w[..., -1:] - (b - a))


def brownian_bridge(a: float, b: float, dt: float, M: int, rng) -> np.ndarray:
    """Brownian bridge from a to b over duration dt on an M+1-point grid."""
    return _bridges(a, b, rng.normal(0.0, math.sqrt(dt / M), size=M))


def _trapezoid_sq(x: np.ndarray, h):
    """Trapezoid integral of x^2 along the last axis, grid step h (one per
    row): the arithmetic of np.trapezoid, without its Python wrapper."""
    y = x ** 2
    return (h * (y[..., 1:] + y[..., :-1]) / 2.0).sum(-1)


def ou_segment_log_alpha(old_x2, new_x2, theta: float):
    """Acceptance log-ratios -(theta^2/2) int (X'^2 - X^2) dt from the old and
    the proposed segments' integrals (numbers or arrays of them)."""
    return -(theta ** 2 / 2.0) * (new_x2 - old_x2)


def ou_da_step(theta: float, paths: np.ndarray, p: OUParams, rng: np.random.Generator):
    """One data-augmentation scan of the state (theta, paths): exact Gaussian
    theta-update (so the old theta is not read), then an independence-
    Metropolis Brownian-bridge refresh of every segment (row of ``paths``).

    Returns (theta, paths, acceptance_flags).
    """
    paths = np.asarray(paths, dtype=float)
    if paths.shape != (len(p.dts), p.M + 1):
        raise DomainError(f"paths must have shape {(len(p.dts), p.M + 1)}, got {paths.shape}")
    if not np.all(np.abs(paths[:, ::p.M] - p.ends) <= 1e-12):  # columns 0 and M
        raise DomainError("segment endpoints must equal the observations")
    hs = p.dts / p.M

    # theta | paths: N(mean, var) with var = 1/(int X^2 dt + tau0^-2), the
    # segments' integrals (reused in the accept ratios) summed in order
    old_x2 = _trapezoid_sq(paths, hs[:, None])
    int_xdx = sum(np.sum(paths[:, :-1] * np.diff(paths, axis=1), axis=1).tolist())
    var = 1.0 / (sum(old_x2.tolist()) + p.tau0 ** -2)
    mean = var * (-int_xdx + p.mu0 * p.tau0 ** -2)
    theta = float(rng.normal(mean, math.sqrt(var)))

    # Every segment's draws in stream order (its bridge's standard normals,
    # then its accept uniform; no draw depends on an accept), then one pass
    # over all segments.  0.0 + scale * z is numpy's normal(0.0, scale).
    z = np.empty((len(paths), p.M))
    log_u = np.empty(len(paths))
    for i in range(len(paths)):
        rng.standard_normal(out=z[i])
        log_u[i] = math.log(rng.random())
    props = _bridges(p.y[:-1], p.y[1:], 0.0 + np.sqrt(hs)[:, None] * z)
    log_alpha = ou_segment_log_alpha(old_x2, _trapezoid_sq(props, hs[:, None]), theta)
    accepted = log_u < np.minimum(0.0, log_alpha)
    return theta, np.where(accepted[:, None], props, paths), accepted


# ---------------------------------------------------------------------------
# finite-model chains (shared estimator code path)
# ---------------------------------------------------------------------------


def finite_simulate(
    k: FiniteKernel, start: np.ndarray, steps: int, rng: np.random.Generator
) -> np.ndarray:
    """Advance many chains of a finite kernel at once (categorical sampling).

    The next state is the number of cdf values of the current row below a
    uniform u, counted one cdf column at a time; the last column is left out,
    as u < 1 never passes it.
    """
    cols = np.cumsum(k.matrix, axis=1).T[:-1].copy()
    state = np.asarray(start, dtype=np.int64).copy()
    for _ in range(steps):
        u = rng.random(state.shape)
        nxt = np.zeros_like(state)
        for col in cols:
            nxt += col[state] < u
        state = nxt
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
    f(Z^1_n) f(Z^2_n) is averaged over the starts and bootstrapped over them,
    each resample a row of counts per start: one product, summed over blocks
    of starts in order, gives every resample's mean at every n.  The counts
    are kept as int32 and made float one block at a time, just before its
    product.
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
    x = np.array(xs)  # (grid, starts)
    starts = x.shape[1]
    rng = chain_rng(master_seed, 3)
    counts = np.empty((BOOTSTRAP, starts), dtype=np.int32)
    for row in counts:
        row[:] = np.bincount(rng.integers(0, starts, size=starts), minlength=starts)
    boots = sum(counts[:, i:i + _BLOCK].astype(float) @ x[:, i:i + _BLOCK].T
                for i in range(0, starts, _BLOCK)) / starts
    ci_low, ci_high = np.quantile(boots, [0.025, 0.975], axis=0)
    return DecayEstimate(np.asarray(n_grid), x.mean(axis=1), ci_low, ci_high,
                         boots.std(axis=0, ddof=1))


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
