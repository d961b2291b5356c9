"""Runnable samplers for the three case studies and an L2-decay estimator.

All samplers use deterministic-scan updates.  Randomness is drawn from
``numpy.random.default_rng([master_seed, key])`` streams, so chains are
reproducible.  A chain with a stream of its own gets the same values
whichever chains run beside it: ``nig_step``, ``bayes_step`` and
``finite_simulate`` advance a batch of such chains in one call, given one
stream per equal share of the batch.  The decay estimator keys 0 for the
starts and 3 for the bootstrap resamples.  Keys 1 and 2 are the streams of
the first and the second chain of every start: the estimator stacks the two
chains into one batch of two shares, the first on stream 1, and advances it
by one call per scan, so each chain draws what it would draw alone.

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
from .finite import _TABLE_ENTRIES, FiniteKernel

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


def _share(rngs: Sequence[np.random.Generator], n: int) -> int:
    """The size of each of ``len(rngs)`` equal contiguous shares of n chains.

    ``rngs`` must be a list or tuple of Generators, one per share."""
    if not isinstance(rngs, (list, tuple)):
        raise DomainError(f"the streams must be a sequence of Generators, got {type(rngs).__name__}")
    if not rngs:
        raise DomainError("the streams must hold at least one Generator, got none")
    share, rest = divmod(n, len(rngs))
    if rest:
        raise DomainError(f"{n} chains do not split into {len(rngs)} equal shares")
    return share


def _draw(rngs: Sequence[np.random.Generator], method: str, shape) -> np.ndarray:
    """Standard variates of ``shape`` by the Generator method ``method``.

    ``rngs`` is a list or tuple of Generators that split the flattened array
    into equal contiguous shares, each stream filling its own share; a scan
    that draws its variates kind after kind then draws each stream's in the
    order that a scan over its share alone would.
    """
    out = np.empty(shape)
    share = _share(rngs, out.size)
    for r, part in zip(rngs, out.reshape(len(rngs), share)):
        getattr(r, method)(out=part)
    return out


def _select(accept: np.ndarray, new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """``np.where(accept, new, old)`` bit for bit (NaN payloads, signed zeros,
    infinities), written into ``new``, a float64 temporary the caller owns;
    ``old`` is only read.  It takes old ^ ((new ^ old) * accept) on the
    int64 views, which has no branch per element: np.where's masked copy
    mispredicts on a mask that is neither mostly true nor mostly false."""
    bits = new.view(np.int64)
    old = old.view(np.int64)
    bits ^= old
    bits *= accept  # (new ^ old) where accepted, else zero
    bits ^= old
    return new


def nig_step(
    tau: np.ndarray,
    xi: np.ndarray,
    p: NIGParams,
    mode: str,
    rngs: Sequence[np.random.Generator],
):
    """One deterministic scan (tau-update then xi-update), vectorized.

    ``exact`` draws both conditionals exactly; ``scaled`` and ``fixed`` use
    random-walk Metropolis, with the conditioning-dependent steps or with the
    common fixed step ``p.sigma0`` of both updates.  ``rngs`` holds k
    Generators for k equal contiguous shares of the batch (k chains in
    lockstep, say; ``[rng]`` for one stream): each share then gets the
    states that a call on it alone, with its own stream, would give.
    """
    if mode not in NIG_MODES:
        raise InvalidModeError(f"unknown mode {mode!r}; choose one of {', '.join(NIG_MODES)}")
    if mode == "fixed" and p.sigma0 is None:
        raise InvalidModeError("mode fixed needs a numeric step sigma0")
    # numpy draws normal, uniform and exponential variates as loc + scale *
    # (standard draw); with loc 0 the standard draws below give the same
    # values bit for bit ("+= 0.0" also keeps the sign of an exact zero).
    # Each pass writes into a temporary of this call, in the order that the
    # comments' expressions evaluate.
    tau = np.array(tau, dtype=float, copy=None, ndmin=1)
    xi = np.array(xi, dtype=float, copy=None, ndmin=1)
    shape = tau.shape
    xi_sq = np.square(xi)
    beta_xi = 0.5 * xi_sq
    beta_xi += p.beta_hyper  # beta + xi^2 / 2

    if mode == "exact":
        # tau' = (1 / beta_xi) * e, then xi' = 0.0 + (1 / sqrt(tau')) * z
        new_tau = _draw(rngs, "standard_exponential", shape)
        new_tau *= np.divide(1.0, beta_xi, out=beta_xi)
        scale = np.sqrt(new_tau)
        new_xi = _draw(rngs, "standard_normal", shape)
        new_xi *= np.divide(1.0, scale, out=scale)
        new_xi += 0.0
        return new_tau, new_xi

    # prop = tau + step * z, taken if log u < beta_xi * (tau - prop) and prop > 0
    prop = _draw(rngs, "standard_normal", shape)
    prop *= np.divide(_SQRT3, beta_xi) if mode == "scaled" else p.sigma0
    prop += tau
    log_u = _draw(rngs, "random", shape)
    np.log(log_u, out=log_u)
    log_alpha = np.subtract(tau, prop)
    log_alpha *= beta_xi
    accept = log_u < log_alpha
    accept &= prop > 0.0
    tau = _select(accept, prop, tau)

    # prop = xi + step * z, taken if log u < -0.5 * tau * (prop^2 - xi^2)
    if mode == "scaled":
        step = np.multiply(2.0, tau)
        np.sqrt(step, out=step)
        np.divide(1.0, step, out=step)  # 1 / sqrt(2 tau)
    else:
        step = p.sigma0
    prop = _draw(rngs, "standard_normal", shape)
    prop *= step
    prop += xi
    np.log(_draw(rngs, "random", shape), out=log_u)
    np.multiply(-0.5, tau, out=log_alpha)
    sq = np.square(prop, out=beta_xi)
    sq -= xi_sq
    log_alpha *= sq
    return tau, _select(log_u < log_alpha, prop, xi)


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


def _rss(p: BayesParams, b: np.ndarray) -> np.ndarray:
    """|Y - X b|^2 for each row b of ``b``: one gemv and one dot per row,
    which round as ``X @ b`` and ``r @ r`` do on one row; a gemm over the
    rows (``B @ X.T``) sums in another order."""
    r = np.matmul(p.X, b[:, :, None])
    np.subtract(p.Y[:, None], r, out=r)
    return np.matmul(r.transpose(0, 2, 1), r)[:, 0, 0]


def bayes_step(
    lam: np.ndarray,
    beta: np.ndarray,
    p: BayesParams,
    rngs: Sequence[np.random.Generator],
    exact_beta: bool = False,
):
    """One scan of k chains in lockstep: an exact Gamma draw for each
    precision in ``lam`` (shape (k,)), then one RWM move of each coefficient
    row of ``beta`` (shape (k, p)), or the exact Gaussian draw with
    ``exact_beta``.  ``rngs`` holds Generators for equal contiguous shares
    of the chains, as in ``nig_step``: each share gets the states that a
    call on it alone, with its own stream, would give.
    """
    lam = np.asarray(lam, dtype=float)
    if not all(v > 0.0 for v in lam.tolist()):
        raise DomainError("precision must stay positive")
    beta = np.asarray(beta, dtype=float)
    k = len(lam)
    # numpy's gamma(shape, scale) is scale * standard_gamma(shape), its
    # normal 0.0 + 1.0 * standard_normal and its uniform 0.0 + 1.0 * random.
    # The precision's scale 1 / (b + rss/2) and the accept ratio are taken
    # per chain on Python floats, which round as numpy does and cost less
    # than a numpy call on a few chains.
    shape = p.a + p.N / 2.0
    share = _share(rngs, k)
    if exact_beta:
        gamma = np.concatenate([r.standard_gamma(shape, share) for r in rngs]).tolist()
        lam = [(1.0 / (p.b + 0.5 * r)) * g for r, g in zip(_rss(p, beta).tolist(), gamma)]
        return np.array(lam), np.array([
            rngs[i // share].multivariate_normal(p.posterior_mean, p.gram_inv / v)
            for i, v in enumerate(lam)
        ])

    # Each stream draws its share's Gamma variates, then its proposal
    # normals, then its uniforms; no draw depends on a value drawn before it.
    # Rows 0..k-1 of ``states`` hold beta and rows k..2k-1 the proposals
    # beta + sigma0 * z, so that one stack of products gives every residual.
    gamma, u = np.empty(k), np.empty(k)
    states = np.empty((2 * k, p.p))
    n = len(rngs)
    for r, g_r, z_r, u_r in zip(rngs, gamma.reshape(n, share),
                                states[k:].reshape(n, share * p.p), u.reshape(n, share)):
        r.standard_gamma(shape, out=g_r)
        r.standard_normal(out=z_r)
        r.random(out=u_r)
    states[:k] = beta
    prop = states[k:]
    prop += 0.0
    prop *= p.sigma0
    prop += beta
    rss = _rss(p, states).tolist()
    lam = [(1.0 / (p.b + 0.5 * r)) * g for r, g in zip(rss, gamma.tolist())]
    accept = [math.log(x) < -0.5 * v * (new - old)  # libm's log, as each chain took it alone
              for x, v, old, new in zip(u.tolist(), lam, rss, rss[k:])]
    return np.array(lam), _select(np.array(accept)[:, None], prop, beta)


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck data augmentation
# ---------------------------------------------------------------------------


def ou_initial_state(p: OUParams, rng: np.random.Generator):
    """The state (theta, paths): a prior drift draw and a (segments x (M+1))
    array of Brownian bridges pinned to the observations."""
    theta = rng.normal(p.mu0, p.tau0)
    steps = np.array([rng.normal(0.0, math.sqrt(dt / p.M), size=p.M) for dt in p.dts])
    return float(theta), _bridges(p.bridge_starts, p.bridge_gaps, steps)


@functools.lru_cache(maxsize=16)
def _unit_grid(M: int) -> np.ndarray:
    """linspace(0, 1, M + 1), built once per M and read-only."""
    grid = np.linspace(0.0, 1.0, M + 1)
    grid.flags.writeable = False
    return grid


def _bridges(a, gap, steps: np.ndarray) -> np.ndarray:
    """Brownian bridges from a to a + gap (b - a, taken by the caller) on an
    M+1-point grid, built from the random walk's M increments along the last
    axis of ``steps``: a + w - t (w_M - gap) for the walk w on the grid t.
    One bridge per row; a and gap are numbers or columns of one per row."""
    M = steps.shape[-1]
    w = np.zeros(steps.shape[:-1] + (M + 1,))
    steps.cumsum(axis=-1, out=w[..., 1:])
    return a + w - _unit_grid(M) * (w[..., -1:] - gap)


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
    if not (np.abs(paths[:, ::p.M] - p.ends) <= 1e-12).all():  # columns 0 and M
        raise DomainError("segment endpoints must equal the observations")

    # theta | paths: N(mean, var) with var = 1/(int X^2 dt + tau0^-2), the
    # segments' integrals (reused in the accept ratios) summed in order
    old_x2 = _trapezoid_sq(paths, p.hs)
    head = paths[:, :-1]
    int_xdx = sum((head * (paths[:, 1:] - head)).sum(axis=1).tolist())
    var = 1.0 / (sum(old_x2.tolist()) + p.prior_precision)
    mean = var * (-int_xdx + p.mu0 * p.prior_precision)
    theta = float(rng.normal(mean, math.sqrt(var)))

    # Every segment's draws in stream order (its bridge's standard normals,
    # then its accept uniform; no draw depends on an accept), then one pass
    # over all segments.  0.0 + scale * z is numpy's normal(0.0, scale).
    z = np.empty((len(paths), p.M))
    log_u = np.empty(len(paths))
    for i in range(len(paths)):
        rng.standard_normal(out=z[i])
        log_u[i] = math.log(rng.random())
    props = _bridges(p.bridge_starts, p.bridge_gaps, 0.0 + p.sqrt_hs * z)
    log_alpha = ou_segment_log_alpha(old_x2, _trapezoid_sq(props, p.hs), theta)
    accepted = log_u < np.minimum(0.0, log_alpha)
    return theta, np.where(accepted[:, None], props, paths), accepted


# ---------------------------------------------------------------------------
# finite-model chains (shared estimator code path)
# ---------------------------------------------------------------------------


def finite_simulate(
    k: FiniteKernel,
    start: np.ndarray,
    steps: int,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """Advance many chains of a finite kernel at once (categorical sampling).

    The next state is the number of cdf values of the current row below a
    uniform u.  The kernel's ``sampling_table`` gives it by one lookup in
    u's bucket wherever the bucket holds no cdf value of the row; the
    chains it leaves open compare u with all cdf values of their row at
    once, each row's prefix sums taken from the kernel's row, in chunks of
    at most ``_TABLE_ENTRIES`` cdf values.
    ``rngs`` holds k Generators for k equal contiguous shares of the
    chains, as in ``nig_step``.
    """
    buckets, table = k.sampling_table
    chunk = _TABLE_ENTRIES // max(1, k.n - 1)
    state = np.asarray(start, dtype=np.int64).copy()
    for _ in range(steps):
        u = _draw(rngs, "random", state.shape)
        # u * buckets is exact (a power of two), so its floor is u's bucket
        nxt = table[state * buckets + (u * buckets).astype(np.int64)]
        pending = np.flatnonzero(nxt < 0)
        for i in range(0, len(pending), chunk):
            p = pending[i:i + chunk]
            cdf = k.matrix.take(state[p], axis=0)[:, :-1].cumsum(axis=1)
            nxt[p] = (cdf < u[p][:, None]).sum(axis=1)
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

    Two chains leave the shared stationary ``start`` (a batch of starts along
    its last axis) on streams 1 and 2.  They run as one stacked batch, chain 1
    in the first half, that ``step(z, rngs)`` advances one scan at a time with
    one stream per half.  f(Z^1_n) f(Z^2_n), from the halves of f(z), is
    averaged over the starts and bootstrapped over them, each resample a row
    of counts per start: one product, summed over blocks of starts in order,
    gives every resample's mean at every n.  The counts are kept as int32
    and made float one block at a time, just before its product.
    """
    n_grid = sorted(int(n) for n in n_grid)
    if not n_grid or n_grid[0] < 0:
        raise DomainError(f"the decay grid must be nonempty with every n >= 0, got {n_grid}")
    starts = np.shape(start)[-1]
    if starts < 2:  # the bootstrap needs two starts to vary at all
        raise DomainError(f"the decay estimate needs at least 2 starts, got {starts}")
    rngs = (chain_rng(master_seed, 1), chain_rng(master_seed, 2))
    z = np.concatenate([start, start], axis=-1)  # chain 1's share, then chain 2's
    x = np.empty((len(n_grid), starts))
    now = 0
    for i, n in enumerate(n_grid):
        for _ in range(n - now):
            z = step(z, rngs)
        now = n
        fz = f(z)
        np.multiply(fz[:starts], fz[starts:], out=x[i])
        x[i] /= osc_sq  # f(Z^1_n) * f(Z^2_n) / osc_sq
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
