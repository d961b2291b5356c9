import dataclasses
import functools
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import wpgibbs
from wpgibbs import samplers
from wpgibbs.cases import BayesParams, NIGParams, OUParams
from wpgibbs.errors import DomainError, InvalidModeError
from wpgibbs.finite import FiniteKernel, random_centered_functions, random_joint_model
from wpgibbs.samplers import (
    BOOTSTRAP,
    NIG_MODES,
    DecayEstimate,
    _bridges,
    bayes_step,
    chain_rng,
    finite_decay_estimate,
    finite_simulate,
    nig_decay_estimate,
    nig_stationary_start,
    nig_step,
    ou_da_step,
    ou_initial_state,
    ou_segment_log_alpha,
)


def test_chain_rng_streams_are_reproducible_and_distinct():
    a = chain_rng(42, 1).normal(size=5)
    b = chain_rng(42, 1).normal(size=5)
    c = chain_rng(42, 2).normal(size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_nig_step_validation():
    p = NIGParams(beta_hyper=2.0)
    rng = chain_rng(0, 0)
    for mode in ("nosuch", "mwg_fixed"):
        with pytest.raises(InvalidModeError, match="unknown mode"):
            nig_step(np.ones(2), np.zeros(2), p, mode, [rng])
    # the fixed step lives in the params
    with pytest.raises(InvalidModeError, match="numeric step sigma0"):
        nig_step(np.ones(2), np.zeros(2), p, "fixed", [rng])
    with pytest.raises(DomainError, match="3 chains do not split into 2 equal shares"):
        nig_step(np.ones(3), np.zeros(3), p, "scaled", [rng, chain_rng(0, 1)])


def test_nig_exact_gibbs_preserves_stationarity():
    p = NIGParams(beta_hyper=2.0)
    rng = chain_rng(7, 0)
    tau, xi = nig_stationary_start(p, rng, 100_000)
    for _ in range(3):
        tau, xi = nig_step(tau, xi, p, "exact", [rng])
    # tau marginal stays Gamma(1/2, rate beta)
    ks_tau = stats.kstest(tau, stats.gamma(a=0.5, scale=1.0 / p.beta_hyper).cdf)
    assert ks_tau.statistic < 0.0073  # 1% critical value at n = 1e5
    # xi / (1/sqrt(tau)) is standard normal
    ks_xi = stats.kstest(xi * np.sqrt(tau), stats.norm.cdf)
    assert ks_xi.statistic < 0.0073


def test_nig_mwg_preserves_stationarity():
    p = NIGParams(beta_hyper=2.0)
    rng = chain_rng(11, 0)
    tau, xi = nig_stationary_start(p, rng, 100_000)
    for _ in range(3):
        tau, xi = nig_step(tau, xi, p, "scaled", [rng])
    ks_tau = stats.kstest(tau, stats.gamma(a=0.5, scale=1.0 / p.beta_hyper).cdf)
    assert ks_tau.statistic < 0.0073


def test_nig_tiny_step_freezes_the_chain():
    p = NIGParams(beta_hyper=2.0, sigma0=1e-12)
    rng = chain_rng(3, 0)
    tau, xi = nig_stationary_start(p, rng, 100)
    t2, x2 = nig_step(tau, xi, p, "fixed", [rng])
    assert np.max(np.abs(t2 - tau)) < 1e-10
    assert np.max(np.abs(x2 - xi)) < 1e-10


def _nig_step_reference(tau, xi, p, mode, rng):
    """The scan drawn through numpy's normal, uniform and exponential, on
    copies of its inputs, as it was first written."""
    tau = np.atleast_1d(np.asarray(tau, dtype=float)).copy()
    xi = np.atleast_1d(np.asarray(xi, dtype=float)).copy()
    beta_xi = p.beta_hyper + 0.5 * xi ** 2
    if mode == "exact":
        tau = rng.exponential(1.0 / beta_xi)
    else:
        step = np.sqrt(3.0) / beta_xi if mode == "scaled" else p.sigma0
        prop = tau + step * rng.normal(size=tau.shape)
        log_alpha = np.where(prop > 0.0, -beta_xi * (prop - tau), -np.inf)
        accept = np.log(rng.uniform(size=tau.shape)) < log_alpha
        tau = np.where(accept, prop, tau)
    if mode == "exact":
        xi = rng.normal(0.0, 1.0 / np.sqrt(tau))
    else:
        step = 1.0 / np.sqrt(2.0 * tau) if mode == "scaled" else p.sigma0
        prop = xi + step * rng.normal(size=xi.shape)
        log_alpha = -0.5 * tau * (prop ** 2 - xi ** 2)
        accept = np.log(rng.uniform(size=xi.shape)) < log_alpha
        xi = np.where(accept, prop, xi)
    return tau, xi


@pytest.mark.parametrize("size", [1, 8333])
@pytest.mark.parametrize("mode", NIG_MODES)
def test_nig_step_matches_reference_bit_for_bit(mode, size):
    """nig_step gives the reference's states byte for byte over 100 scans
    from one seed, and writes neither of its inputs.  With a list of k
    streams over k shares of ``size`` chains it gives, byte for byte, the
    states of k calls, one per share with its stream."""
    p = NIGParams(beta_hyper=1.5, sigma0=0.8)
    tau, xi = nig_stationary_start(p, chain_rng(31, 0), size)
    ref = (tau, xi)
    rng, ref_rng = chain_rng(31, 1), chain_rng(31, 1)
    for _ in range(100):
        given = (tau.copy(), xi.copy())
        new = nig_step(tau, xi, p, mode, [rng])
        assert tau.tobytes() == given[0].tobytes() and xi.tobytes() == given[1].tobytes()
        ref = _nig_step_reference(*ref, p, mode, ref_rng)
        assert [a.tobytes() for a in new] == [a.tobytes() for a in ref]
        tau, xi = new

    k = 3
    shares = [nig_stationary_start(p, chain_rng(32, i), size) for i in range(k)]
    tau, xi = (np.concatenate(z) for z in zip(*shares))
    rngs = [chain_rng(33, i) for i in range(k)]
    alone_rngs = [chain_rng(33, i) for i in range(k)]
    for _ in range(100):
        tau, xi = nig_step(tau, xi, p, mode, rngs)
        shares = [nig_step(*z, p, mode, [r]) for z, r in zip(shares, alone_rngs)]
        assert tau.tobytes() == np.concatenate([t for t, _ in shares]).tobytes()
        assert xi.tobytes() == np.concatenate([x for _, x in shares]).tobytes()


def _special_floats(rng, n):
    """n float64 values in random order, drawn from equal numbers of quiet
    NaNs of random sign and payload, +-0.0 and +-inf, +-subnormals and
    standard normals."""
    nans = np.uint64(0x7FF8000000000000) | rng.integers(0, 2 ** 51, size=n, dtype=np.uint64)
    nans |= rng.integers(0, 2, size=n, dtype=np.uint64) << np.uint64(63)
    subnormals = rng.integers(1, 2 ** 52, size=n, dtype=np.uint64).view(np.float64)
    signed = np.repeat([0.0, -0.0, np.inf, -np.inf], n // 4 + 1)
    pool = np.concatenate([nans.view(np.float64), signed, subnormals * rng.choice([-1.0, 1.0], n),
                           rng.standard_normal(n)])
    return rng.permutation(pool)[:n]


@pytest.mark.parametrize("size", [1, 16_666])
@pytest.mark.parametrize("mask", ["false", "true", "random"])
def test_select_matches_np_where_byte_for_byte(mask, size):
    """The accept select gives np.where's bits on every kind of float, with
    a contiguous or a strided ``old``; it writes into ``new`` and leaves
    ``old`` and the mask as they were."""
    rng = chain_rng(51, size)
    accept = {"false": np.zeros(size, bool), "true": np.ones(size, bool),
              "random": rng.random(size) < 0.37}[mask]
    base = _special_floats(rng, 3 * size)
    for old in (base[:size], base[::3]):
        new = _special_floats(rng, size)
        given = (accept.copy(), new.copy(), old.copy())
        want = np.where(accept, new, old)
        got = samplers._select(accept, new, old)
        assert got is new and got.tobytes() == want.tobytes()
        assert accept.tobytes() == given[0].tobytes() and old.tobytes() == given[2].tobytes()


def test_nig_decay_estimate_shrinks_and_is_reproducible():
    p = NIGParams(beta_hyper=2.0)
    est1 = nig_decay_estimate(p, "exact", n_grid=[1, 3], starts=20_000, master_seed=5)
    est2 = nig_decay_estimate(p, "exact", n_grid=[1, 3], starts=20_000, master_seed=5)
    assert np.array_equal(est1.mean, est2.mean)
    assert np.array_equal(est1.ci_low, est2.ci_low)
    assert est1.mean[1] <= est1.mean[0] + 3 * (est1.se[0] + est1.se[1])
    assert np.all(est1.ci_low <= est1.mean) and np.all(est1.mean <= est1.ci_high)


def _bayes_params():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(10, 2))
    Y = rng.normal(size=10)
    return BayesParams(a=2.0, b=1.0, X=X, Y=Y, sigma0=0.3)


def _bayes_step_reference(lam, beta_vec, p, rng, exact_beta=False):
    """One chain's scan as the sampler first made it: an exact Gamma draw
    for the precision, then one RWM move of the coefficient vector (or the
    exact Gaussian draw with exact_beta)."""
    if not lam > 0.0:
        raise DomainError("precision must stay positive")
    beta_vec = np.asarray(beta_vec, dtype=float)
    resid = p.Y - p.X @ beta_vec
    rss = float(resid @ resid)
    lam = rng.gamma(p.a + p.N / 2.0, 1.0 / (p.b + 0.5 * rss))

    if exact_beta:
        gram = p.X.T @ p.X
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


def _bayes_design(n, p, seed):
    """A seeded design with an intercept column, as CI's 400-row config."""
    r = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), r.normal(size=(n, p - 1))])
    Y = X @ np.linspace(0.5, -0.3, p) + r.normal(size=n)
    return BayesParams(a=2.5, b=1.0, X=X, Y=Y, sigma0=0.3)


def _ci_bayes400():
    """CI's seeded 400-row design (the "Installed console script" step)."""
    r = np.random.default_rng(400)
    X = np.column_stack([np.ones(400), r.normal(size=400)])
    return BayesParams(a=2.5, b=1.0, X=X, Y=X @ [0.5, -0.3] + r.normal(size=400), sigma0=0.3)


_BAYES_DESIGNS = pytest.mark.parametrize("design", [
    lambda: _bayes_design(8, 1, 11), lambda: _bayes_design(12, 2, 12),
    lambda: _bayes_design(9, 3, 13), _ci_bayes400,
], ids=["p1", "p2", "p3", "ci400"])


@_BAYES_DESIGNS
@pytest.mark.parametrize("k", [1, 2, 4, 5])
def test_bayes_step_matches_reference_bit_for_bit(design, k):
    """With a stream per chain, one call on k chains gives each chain the
    precision, coefficients and accept decision of the scalar reference on
    its stream, byte for byte, over 200 seeds.  The inputs are not written."""
    p = design()
    decisions = set()
    for seed in range(200):
        start = np.random.default_rng([seed, 99])
        lam = start.gamma(2.0, 1.0, size=k)
        beta = p.posterior_mean + 0.3 * start.normal(size=(k, p.p))
        given = lam.tobytes(), beta.tobytes()
        got = bayes_step(lam, beta, p, [chain_rng(seed, i) for i in range(k)])
        assert (lam.tobytes(), beta.tobytes()) == given
        rows = list(beta)  # the reference hands back its own row on a reject
        ref = [_bayes_step_reference(v, b, p, chain_rng(seed, i))
               for i, (v, b) in enumerate(zip(lam.tolist(), rows))]
        assert got[0].tobytes() == np.array([v for v, _ in ref]).tobytes()
        assert got[1].tobytes() == np.array([b for _, b in ref]).tobytes()
        accepted = [b is not row for (_, b), row in zip(ref, rows)]
        assert (got[1] != beta).any(axis=1).tolist() == accepted
        decisions.update(accepted)
    assert decisions == {True, False}


@pytest.mark.parametrize("spread", [False, True])
@pytest.mark.parametrize("streams,per_stream", [(1, 3), (2, 2), (3, 2)])
def test_bayes_step_with_a_stream_per_share(spread, streams, per_stream):
    """A list of streams over equal shares of several chains each gives, byte
    for byte, the states of one call per share with its stream, over 50
    scans of CI's 400-row design: from coefficients all at 0, and from
    coefficients spread apart, a row per chain."""
    p = _ci_bayes400()
    k = streams * per_stream
    lam = chain_rng(36, 0).gamma(2.0, 1.0, size=k)
    beta = chain_rng(36, 1).normal(size=(k, p.p)) if spread else np.zeros((k, p.p))
    shares = [(lam[i:i + per_stream], beta[i:i + per_stream]) for i in range(0, k, per_stream)]
    rngs = [chain_rng(37, i) for i in range(streams)]
    alone_rngs = [chain_rng(37, i) for i in range(streams)]
    for _ in range(50):
        lam, beta = bayes_step(lam, beta, p, rngs)
        shares = [bayes_step(*z, p, [r]) for z, r in zip(shares, alone_rngs)]
        assert lam.tobytes() == np.concatenate([v for v, _ in shares]).tobytes()
        assert beta.tobytes() == np.concatenate([b for _, b in shares]).tobytes()


def test_bayes_step_validation():
    """Every chain's precision must be positive, and the streams split the
    chains into equal shares."""
    p = _bayes_params()
    rngs = [chain_rng(0, 0), chain_rng(0, 1)]
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(DomainError, match="precision must stay positive"):
            bayes_step(np.array([1.0, bad]), np.zeros((2, p.p)), p, rngs)
    with pytest.raises(DomainError, match="3 chains do not split into 2 equal shares"):
        bayes_step(np.ones(3), np.zeros((3, p.p)), p, rngs)


def test_bayes_step_accepts_by_density_ratio():
    """bayes_step's accept decision follows the ratio of the coefficient
    conditional's densities, computed here on the very draws it makes: a
    twin generator on the same seed replays its Gamma draw, its proposal
    normals and its one uniform."""
    p = _bayes_params()
    decisions = set()
    for seed in range(200):
        state = chain_rng(seed, 1)
        lam0, b_old = float(state.gamma(2.0, 1.0)), state.normal(size=p.p)
        lam, b_next = bayes_step([lam0], [b_old], p, [chain_rng(seed, 0)])

        twin = chain_rng(seed, 0)
        r_old = p.Y - p.X @ b_old
        lam_twin = twin.gamma(p.a + p.N / 2.0, 1.0 / (p.b + 0.5 * float(r_old @ r_old)))
        prop = b_old + p.sigma0 * twin.normal(size=p.p)
        u = twin.uniform()

        def log_density(bv):
            r = p.Y - p.X @ bv
            return -0.5 * lam_twin * float(r @ r)

        accept = math.log(u) < log_density(prop) - log_density(b_old)
        assert lam.tolist() == [lam_twin]
        assert np.array_equal(b_next[0], prop if accept else b_old)
        decisions.add(accept)
    assert decisions == {True, False}


def test_bayes_exact_gibbs_matches_conjugate_posterior():
    """The exact two-block Gibbs chain, run by the scalar reference, has the
    precision marginal Gamma(a', b') of ``BayesParams``."""
    p = _bayes_params()
    rng = chain_rng(9, 0)
    lam, bv = 1.0, np.zeros(p.p)
    lams = []
    for i in range(6000):
        lam, bv = _bayes_step_reference(lam, bv, p, rng, exact_beta=True)
        if i >= 500:
            lams.append(lam)
    lams = np.asarray(lams)
    # precision marginal is Gamma(a', b')
    expect = p.a_prime / p.b_prime
    assert lams.mean() == pytest.approx(expect, rel=0.1)


def _ou_params():
    return OUParams(
        mu0=0.5, tau0=1.0, times=(0.0, 0.5, 1.0), obs=(0.2, 0.1, 0.3), M=16
    )


def test_brownian_bridge_hits_endpoints():
    rng = chain_rng(0, 0)
    seg = _bridges(0.2, -0.4 - 0.2, rng.normal(0.0, math.sqrt(0.5 / 16), size=16))
    assert len(seg) == 17
    assert seg[0] == pytest.approx(0.2, abs=1e-12)
    assert seg[-1] == pytest.approx(-0.4, abs=1e-12)


def test_bridges_match_one_segment_formula():
    """_bridges and ou_initial_state build each segment as the walk
    pinned by a + w - t (w_M - (b - a)), bit for bit."""
    p = OUParams(mu0=0.5, tau0=1.0, times=(0.0, 0.3, 1.0, 1.6), obs=(0.2, -0.4, 0.3, 0.1), M=16)

    def bridge(a, b, dt, M, rng):
        w = np.zeros(M + 1)
        w[1:] = np.cumsum(rng.normal(0.0, math.sqrt(dt / M), size=M))
        return a + w - np.linspace(0.0, 1.0, M + 1) * (w[-1] - (b - a))

    rng, ref_rng = chain_rng(5, 0), chain_rng(5, 0)
    steps = rng.normal(0.0, math.sqrt(0.7 / 16), size=16)
    want = bridge(0.2, -0.4, 0.7, 16, ref_rng)
    assert _bridges(0.2, -0.4 - 0.2, steps).tobytes() == want.tobytes()
    theta, paths = ou_initial_state(p, rng)
    assert theta == float(ref_rng.normal(p.mu0, p.tau0))
    ref = [bridge(p.obs[i], p.obs[i + 1], p.times[i + 1] - p.times[i], p.M, ref_rng)
           for i in range(len(p.times) - 1)]
    assert paths.tobytes() == np.array(ref).tobytes()


def girsanov_log_g(seg, theta, h):
    """log G for one segment in the unsimplified endpoint form:
    A(end) - A(start) - 1/2 int (b^2 + b') dt with A(u) = -theta u^2 / 2
    and b^2 + b' = theta^2 x^2 - theta, integrals by np.trapezoid."""
    A = lambda u: -theta * u * u / 2.0
    dt = h * (len(seg) - 1)
    integral = theta ** 2 * np.trapezoid(seg ** 2, dx=h) - theta * dt
    return A(seg[-1]) - A(seg[0]) - 0.5 * integral


def test_girsanov_ratio_matches_simplified_form():
    p = _ou_params()
    rng = chain_rng(4, 0)
    h = 0.5 / p.M
    worst = 0.0
    for _ in range(50):
        theta = rng.normal(0.0, 1.5)
        old = _bridges(0.2, 0.1 - 0.2, rng.normal(0.0, math.sqrt(0.5 / p.M), size=p.M))
        new = _bridges(0.2, 0.1 - 0.2, rng.normal(0.0, math.sqrt(0.5 / p.M), size=p.M))
        full = girsanov_log_g(new, theta, h) - girsanov_log_g(old, theta, h)
        simple = ou_segment_log_alpha(np.trapezoid(old ** 2, dx=h),
                                      np.trapezoid(new ** 2, dx=h), theta)
        worst = max(worst, abs(full - simple))
    assert worst <= 1e-10


def _assert_pinned(paths, p):
    obs = np.asarray(p.obs)
    assert paths.shape == (len(obs) - 1, p.M + 1)
    assert np.all(paths[:, 0] == obs[:-1])
    assert np.max(np.abs(paths[:, -1] - obs[1:])) <= 1e-12


def test_ou_da_step_acceptance_and_pinning():
    p = _ou_params()
    rng = chain_rng(6, 0)
    theta, paths = ou_initial_state(p, rng)
    _assert_pinned(paths, p)
    rates = []
    for _ in range(50):
        theta, paths, accepted = ou_da_step(theta, paths, p, rng)
        _assert_pinned(paths, p)
        rates.append(accepted.mean())
    avg = float(np.mean(rates))
    assert 0.0 <= avg <= 1.0
    assert avg > 0.2  # bridge proposals should be accepted often here


def _ou_da_step_reference(theta, paths, p, rng):
    """The scan on a list of per-segment arrays, one segment at a time, as
    the chain state was kept before it became one array."""
    dts = np.diff(np.asarray(p.times))
    hs = dts / p.M
    trap = lambda seg, h: float(np.trapezoid(seg ** 2, dx=h))
    int_x2 = sum(trap(seg, h) for seg, h in zip(paths, hs))
    int_xdx = sum(float(np.sum(seg[:-1] * np.diff(seg))) for seg in paths)
    var = 1.0 / (int_x2 + p.tau0 ** -2)
    mean = var * (-int_xdx + p.mu0 * p.tau0 ** -2)
    theta = float(rng.normal(mean, math.sqrt(var)))
    new_paths, accepted = [], []
    for i, (seg, h, dt) in enumerate(zip(paths, hs, dts)):
        steps = rng.normal(0.0, math.sqrt(dt / p.M), size=p.M)
        prop = _bridges(p.obs[i], p.obs[i + 1] - p.obs[i], steps)
        log_alpha = -(theta ** 2 / 2.0) * (trap(prop, h) - trap(seg, h))
        ok = math.log(rng.uniform()) < min(0.0, log_alpha)
        new_paths.append(prop if ok else seg.copy())
        accepted.append(ok)
    return theta, new_paths, np.array(accepted)


_OU_FOUR_SEGMENTS = ((0.0, 0.3, 1.0, 1.6, 2.0), (0.2, -0.4, 0.3, 0.1, -0.2))
_OU_ONE_SEGMENT = ((0.0, 0.7), (0.2, -0.1))


@pytest.mark.parametrize(
    "times, obs, M",
    [pytest.param(*_OU_FOUR_SEGMENTS, M, id=str(M)) for M in (2, 8, 32)]
    + [pytest.param(*_OU_ONE_SEGMENT, M, id=f"one-segment-{M}") for M in (2, 32)])
def test_ou_da_step_matches_segment_reference(times, obs, M):
    """The array scan is bit-identical to the per-segment one: same theta,
    same paths and same flags over 50 scans from one seed."""
    p = OUParams(mu0=0.5, tau0=1.0, times=times, obs=obs, M=M)
    theta, paths = ou_initial_state(p, chain_rng(21, 0))
    ref_theta, ref_paths = theta, list(paths.copy())
    rng, ref_rng = chain_rng(21, 1), chain_rng(21, 1)
    flags = set()
    for _ in range(50):
        given = paths.copy()
        theta, new, accepted = ou_da_step(theta, paths, p, rng)
        assert np.array_equal(paths, given)  # the step does not write to its input
        paths = new
        ref_theta, ref_paths, ref_accepted = _ou_da_step_reference(
            ref_theta, ref_paths, p, ref_rng)
        assert theta.hex() == ref_theta.hex()
        assert paths.tobytes() == np.array(ref_paths).tobytes()
        assert accepted.dtype == ref_accepted.dtype == bool
        assert accepted.tobytes() == ref_accepted.tobytes()
        flags.update(accepted.tolist())
    assert flags == {True, False}


def test_ou_params_sampler_constants_are_read_only():
    """The per-segment constants ou_da_step reads are cached once per params
    object, hold their formulas' values and cannot be written."""
    p = OUParams(mu0=0.5, tau0=0.8, times=(0.0, 0.3, 1.0), obs=(0.2, -0.4, 0.3), M=16)
    dts = np.diff(np.asarray(p.times))
    y = np.asarray(p.obs)
    want = {"hs": (dts / 16)[:, None], "sqrt_hs": np.sqrt(dts / 16)[:, None],
            "bridge_starts": y[:-1, None], "bridge_gaps": (y[1:] - y[:-1])[:, None]}
    for name, value in want.items():
        got = getattr(p, name)
        assert got is getattr(p, name) and got.tobytes() == value.tobytes(), name
        assert not got.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            got[0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, value)
    assert p.prior_precision == 0.8 ** -2
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.prior_precision = 1.0


def test_ou_da_step_rejects_unpinned_or_misshapen_paths():
    p = _ou_params()
    theta, paths = ou_initial_state(p, chain_rng(8, 0))
    moved = paths.copy()
    moved[1, -1] += 1e-9
    started = paths.copy()
    started[0, 0] -= 1e-9
    for bad in (moved, started):
        with pytest.raises(DomainError, match="endpoints"):
            ou_da_step(theta, bad, p, chain_rng(8, 1))
    for bad in (paths[:, :-1], paths[:-1], paths[0], np.vstack([paths, paths[:1]])):
        with pytest.raises(DomainError, match="shape"):
            ou_da_step(theta, bad, p, chain_rng(8, 1))


def test_finite_simulate_reaches_stationarity():
    pi = np.array([0.2, 0.5, 0.3])
    M = np.tile(pi, (3, 1))  # one step lands exactly in pi
    k = FiniteKernel(matrix=M, mu=pi)
    rng = chain_rng(2, 0)
    end = finite_simulate(k, np.zeros(200_000, dtype=np.int64), 1, [rng])
    freq = np.bincount(end, minlength=3) / len(end)
    assert np.max(np.abs(freq - pi)) < 0.005


def _finite_simulate_reference(k, start, steps, rng):
    """Categorical steps through the full starts x n comparison matrix."""
    cdf = np.cumsum(k.matrix, axis=1)
    cdf[:, -1] = 1.0
    state = np.asarray(start, dtype=np.int64).copy()
    for _ in range(steps):
        u = rng.uniform(size=state.shape)
        state = (u[:, None] > cdf[state]).sum(axis=1).astype(np.int64)
    return state


# doubly stochastic up to 1e-13, so mu is uniform: zero entries tie cdf
# values (row 1: 0, .5, .5, 1), and row 0's cumsum ends 1e-13 below 1
_TIED = FiniteKernel(
    matrix=[[0.7, 0.2, 0.1 - 1e-13, 0.0], [0.0, 0.5, 0.0, 0.5],
            [0.3, 0.0, 0.4, 0.3], [0.0, 0.3, 0.5, 0.2]],
    mu=np.full(4, 0.25),
)


class _FixedUniforms:
    """A generator stand-in whose uniforms are a given array."""

    def __init__(self, u):
        self.u = u

    def random(self, out):
        assert out.shape == self.u.shape
        out[...] = self.u

    def uniform(self, size):
        assert size == self.u.shape
        return self.u.copy()


# P12 of an 8x8 model: 64 states and 256 buckets, so many buckets hold
# several distinct cdf values of their row
_KERNELS = pytest.mark.parametrize(
    "k", [_TIED, random_joint_model(3, 4, 4).kernel("P12"), random_joint_model(3, 8, 8).kernel("P12")],
    ids=["tied", "4x4-P12", "8x8-P12"])


@_KERNELS
def test_finite_simulate_matches_matrix_rule(k):
    """The bucketed step lands where the comparison-matrix rule does, on a
    seeded stream and on uniforms equal to the cdf values themselves."""
    assert np.cumsum(_TIED.matrix[0])[-1] < np.nextafter(1.0, 0.0)
    start = chain_rng(4, 0).choice(k.n, size=5000, p=k.mu)
    rng, ref_rng = chain_rng(4, 1), chain_rng(4, 1)
    state, ref = start, start
    for steps in [1] * 30 + [20]:
        state = finite_simulate(k, state, steps, [rng])
        ref = _finite_simulate_reference(k, ref, steps, ref_rng)
        assert state.dtype == ref.dtype == np.int64
        assert np.array_equal(state, ref)
    cdf = np.cumsum(k.matrix, axis=1)
    u = np.concatenate([cdf.ravel(), np.nextafter(cdf.ravel(), 0.0), [0.0, np.nextafter(1.0, 0.0)]])
    u = u[u < 1.0]
    start = np.repeat(np.arange(k.n), len(u))
    fixed = _FixedUniforms(np.tile(u, k.n))
    assert np.array_equal(finite_simulate(k, start, 1, [fixed]),
                          _finite_simulate_reference(k, start, 1, fixed))


@_KERNELS
def test_finite_simulate_at_every_bucket_edge(k):
    """From every state, uniforms at each bucket edge b/B and at both of its
    neighbours land where the comparison-matrix rule does."""
    buckets, table = k.sampling_table
    assert table.dtype == np.int64 and table.size == k.n * buckets <= 2 ** 14
    edges = np.arange(buckets + 1) / buckets
    u = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0)])
    u = u[u < 1.0]
    fixed = _FixedUniforms(u)
    for s in range(k.n):
        start = np.full(len(u), s)
        state = finite_simulate(k, start, 1, [fixed])
        assert state.dtype == np.int64
        assert np.array_equal(state, _finite_simulate_reference(k, start, 1, fixed))


@_KERNELS
def test_finite_simulate_with_a_stream_per_share(k):
    """A list of k streams over k equal shares of the chains gives, byte for
    byte, the states of k calls, one per share with its stream; chains that
    do not split into equal shares are refused."""
    shares = [chain_rng(34, i).choice(k.n, size=1000, p=k.mu) for i in range(3)]
    state = np.concatenate(shares)
    rngs = [chain_rng(35, i) for i in range(3)]
    alone_rngs = [chain_rng(35, i) for i in range(3)]
    for steps in [1] * 30 + [20]:
        state = finite_simulate(k, state, steps, rngs)
        shares = [finite_simulate(k, s, steps, [r]) for s, r in zip(shares, alone_rngs)]
        assert state.tobytes() == np.concatenate(shares).tobytes()
    with pytest.raises(DomainError, match="1000 chains do not split into 3 equal shares"):
        finite_simulate(k, state[:1000], 1, rngs)


def test_a_bare_generator_is_refused():
    """The streams are a sequence, one Generator per equal share of the
    chains; a bare Generator is refused as such, not by a TypeError, and an
    empty sequence as such, not by a ZeroDivisionError."""
    p = NIGParams(beta_hyper=2.0, sigma0=0.5)
    bayes = _bayes_params()
    for rngs, match in ((chain_rng(0, 0), "sequence of Generators, got Generator"),
                        ([], "at least one Generator, got none"),
                        ((), "at least one Generator, got none")):
        for mode in NIG_MODES:
            with pytest.raises(DomainError, match=match):
                nig_step(np.ones(2), np.zeros(2), p, mode, rngs)
        with pytest.raises(DomainError, match=match):
            finite_simulate(_TIED, np.zeros(4, dtype=np.int64), 1, rngs)
        with pytest.raises(DomainError, match=match):
            bayes_step(np.ones(2), np.zeros((2, bayes.p)), bayes, rngs)


def _finite_simulate_column_loop(k, start, steps, rng):
    """The table step with its pending chains settled one cdf column at a
    time, as the sampler first did it."""
    buckets, table = k.sampling_table
    cols = np.cumsum(k.matrix, axis=1).T[:-1]
    state = np.asarray(start, dtype=np.int64).copy()
    for _ in range(steps):
        u = rng.random(state.shape)
        nxt = table[state * buckets + (u * buckets).astype(np.int64)]
        pending = nxt < 0
        if pending.any():
            s, v = state[pending], u[pending]
            count = np.zeros_like(s)
            for col in cols:
                count += col[s] < v
            nxt[pending] = count
        state = nxt
    return state


def test_finite_simulate_settles_pending_chains_in_bounded_chunks(monkeypatch):
    """On a 4,096-state kernel, four buckets a row, most chains are pending;
    settled in chunks of 4 (at most ``_TABLE_ENTRIES`` cdf values compared
    at once), of 1 or of all of them, they land where the column loop puts
    them, byte for byte."""
    n = 4096
    w = chain_rng(41, 0).dirichlet(np.ones(7))  # a circulant band, so mu is uniform
    M = np.zeros((n, n))
    rows = np.arange(n)
    for shift, weight in zip(range(-3, 4), w):
        M[rows, (rows + shift) % n] = weight
    k = FiniteKernel(M, np.full(n, 1.0 / n))
    buckets, table = k.sampling_table
    assert buckets == 4 and samplers._TABLE_ENTRIES // (n - 1) == 4
    assert np.mean(table < 0) > 0.7
    start = chain_rng(41, 1).integers(0, n, size=600)
    ref = _finite_simulate_column_loop(k, start, 3, chain_rng(41, 2))
    assert len(np.unique(ref)) > 300
    for cap in (samplers._TABLE_ENTRIES, n - 1, 600 * (n - 1)):
        monkeypatch.setattr(samplers, "_TABLE_ENTRIES", cap)
        state = finite_simulate(k, start, 3, [chain_rng(41, 2)])
        assert state.dtype == np.int64 and state.tobytes() == ref.tobytes(), cap


def test_finite_sampling_table_and_step_allocate_a_fraction_of_the_kernel():
    """The table of a 4,096-state kernel and one step of 600 chains, most of
    them pending, allocate under a tenth of the kernel's 128 MB: the cdf is
    taken row by row, never as a second kernel-sized array."""
    n = 4096
    M = np.zeros((n, n))
    rows = np.arange(n)
    for shift, weight in zip(range(-3, 4), chain_rng(42, 0).dirichlet(np.ones(7))):
        M[rows, (rows + shift) % n] = weight
    k = FiniteKernel(M, np.full(n, 1.0 / n))
    start = chain_rng(42, 1).integers(0, n, size=600)
    tracemalloc.start()
    try:
        buckets, table = k.sampling_table
        finite_simulate(k, start, 1, [chain_rng(42, 2)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.mean(table < 0) > 0.7
    assert peak < 0.1 * k.matrix.nbytes, peak


def test_finite_sampling_table_built_once_per_kernel(monkeypatch):
    built = []
    build = FiniteKernel.sampling_table.func

    def counted(k):
        built.append(k)
        return build(k)

    table = functools.cached_property(counted)
    table.__set_name__(FiniteKernel, "sampling_table")
    monkeypatch.setattr(FiniteKernel, "sampling_table", table)
    m = random_joint_model(3, 4, 4)
    k = m.kernel("P12")
    f = random_centered_functions(m.mu, 1, 4)[0]
    finite_decay_estimate(k, f, n_grid=[200], starts=50, master_seed=1)
    assert len(built) == 1 and built[0] is k


def test_finite_decay_estimate_calibrated_on_two_state():
    p_, q_ = 0.3, 0.2
    M = np.array([[1.0 - p_, p_], [q_, 1.0 - q_]])
    mu = np.array([q_, p_]) / (p_ + q_)
    k = FiniteKernel(matrix=M, mu=mu)
    f = np.array([1.0, 0.0]) - mu[0]
    est = finite_decay_estimate(k, f, n_grid=[1, 3], starts=100_000, master_seed=42)
    norm_sq = float(mu @ f ** 2)
    for i, n in enumerate(est.n_grid):
        exact = (1.0 - p_ - q_) ** (2 * n) * norm_sq  # osc = 1
        assert abs(est.mean[i] - exact) <= 3.0 * est.se[i]


def _paired_values(start, step, f, osc_sq, n_grid, master_seed):
    """The sorted grid and f(Z^1_n) f(Z^2_n) / osc_sq at each n of it."""
    rng1, rng2 = chain_rng(master_seed, 1), chain_rng(master_seed, 2)
    z1 = z2 = start
    n_grid = sorted(int(n) for n in n_grid)
    xs = []
    now = 0
    for n in n_grid:
        for _ in range(n - now):
            z1, z2 = step(z1, [rng1]), step(z2, [rng2])
        now = n
        xs.append(f(z1) * f(z2) / osc_sq)
    return n_grid, xs


def _paired_decay_reference(start, step, f, osc_sq, n_grid, master_seed):
    """The estimator with the bootstrap as a gather: one (BOOTSTRAP, starts)
    index draw, and every resample's mean taken per n from x[idx]."""
    n_grid, xs = _paired_values(start, step, f, osc_sq, n_grid, master_seed)
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


def _finite_estimate(n_grid, starts, seed):
    m = random_joint_model(seed, 4, 4)
    f = random_centered_functions(m.mu, 1, seed + 1)[0]
    return finite_decay_estimate(m.kernel("P12"), f, n_grid, starts=starts, master_seed=seed)


def _nig_estimate(n_grid, starts, seed):
    return nig_decay_estimate(NIGParams(beta_hyper=1.5), "scaled", n_grid, starts, seed)


@pytest.mark.parametrize("estimate", [_finite_estimate, _nig_estimate])
@pytest.mark.parametrize("n_grid", [list(range(1, 201)), [1, 2, 5, 10, 20, 50, 100, 200]])
def test_bootstrap_by_counts_matches_gather_reference(monkeypatch, estimate, n_grid):
    """The resample-count bootstrap gives the gather bootstrap's means
    exactly and its bands and standard errors to rounding."""
    est = estimate(n_grid, 3333, 17)
    with monkeypatch.context() as m:
        m.setattr(samplers, "_paired_decay", _paired_decay_reference)
        ref = estimate(n_grid, 3333, 17)
    assert np.array_equal(est.n_grid, ref.n_grid)
    assert np.array_equal(est.mean, ref.mean)
    for name in ("ci_low", "ci_high", "se"):
        np.testing.assert_allclose(getattr(est, name), getattr(ref, name), rtol=1e-12, atol=0)


def _paired_decay_float_counts(start, step, f, osc_sq, n_grid, master_seed):
    """The estimator with its resample counts kept as one float64 matrix."""
    n_grid, xs = _paired_values(start, step, f, osc_sq, n_grid, master_seed)
    x = np.array(xs)
    starts = x.shape[1]
    rng = chain_rng(master_seed, 3)
    counts = np.empty((BOOTSTRAP, starts))
    for row in counts:
        row[:] = np.bincount(rng.integers(0, starts, size=starts), minlength=starts)
    boots = sum(counts[:, i:i + 128] @ x[:, i:i + 128].T
                for i in range(0, starts, 128)) / starts
    ci_low, ci_high = np.quantile(boots, [0.025, 0.975], axis=0)
    return DecayEstimate(np.asarray(n_grid), x.mean(axis=1), ci_low, ci_high,
                         boots.std(axis=0, ddof=1))


@pytest.mark.parametrize("estimate", [_finite_estimate, _nig_estimate])
def test_int32_counts_match_float_counts_bit_for_bit(monkeypatch, estimate):
    """int32 resample counts, made float one block at a time, give the
    float64-count estimator's every number byte for byte."""
    n_grid = [1, 2, 5, 10, 20, 50]
    est = estimate(n_grid, 8333, 23)
    with monkeypatch.context() as m:
        m.setattr(samplers, "_paired_decay", _paired_decay_float_counts)
        ref = estimate(n_grid, 8333, 23)
    for name in ("n_grid", "mean", "ci_low", "ci_high", "se"):
        assert getattr(est, name).tobytes() == getattr(ref, name).tobytes(), name


@pytest.mark.parametrize("starts", [2, 3, 3333])
@pytest.mark.parametrize("n_grid", [[0, 1, 2, 5, 10, 20, 50, 100, 200], [7, 3, 3, 1]])
@pytest.mark.parametrize("estimate", [_finite_estimate, _nig_estimate])
def test_stacked_pair_matches_per_chain_stepping(monkeypatch, estimate, n_grid, starts):
    """Both chains of every start advanced in one call per scan, on a stream
    per half of the stacked batch, give every number of the estimator that
    steps Z^1 and Z^2 in calls of their own, byte for byte."""
    est = estimate(n_grid, starts, 29)
    with monkeypatch.context() as m:
        m.setattr(samplers, "_paired_decay", _paired_decay_float_counts)
        ref = estimate(n_grid, starts, 29)
    for name in ("n_grid", "mean", "ci_low", "ci_high", "se"):
        assert getattr(est, name).tobytes() == getattr(ref, name).tobytes(), name


@pytest.mark.parametrize("estimate, step, chains", [
    (_finite_estimate, "finite_simulate", lambda a: np.size(a[1]) * int(a[2])),
    (_nig_estimate, "nig_step", lambda a: np.size(a[0])),
])
def test_paired_decay_steps_both_chains_in_one_call_per_scan(monkeypatch, estimate, step, chains):
    """One step call per scan, each carrying the 2 * starts chains of the
    stacked pair, so the chain steps add up to 2 * starts * max(grid)."""
    calls = []
    wrapped = getattr(samplers, step)

    def counted(*args):
        calls.append(chains(args))
        return wrapped(*args)

    monkeypatch.setattr(samplers, step, counted)
    estimate([1, 2, 5, 20], 150, 3)
    assert calls == [2 * 150] * 20
    assert sum(calls) == 2 * 150 * 20


@pytest.mark.parametrize("estimate", [_finite_estimate, _nig_estimate])
def test_decay_estimate_refuses_an_empty_grid(estimate):
    with pytest.raises(DomainError, match="nonempty"):
        estimate([], 50, 1)


@pytest.mark.parametrize("estimate", [_finite_estimate, _nig_estimate])
def test_decay_estimate_refuses_a_negative_n(estimate):
    with pytest.raises(DomainError, match="n >= 0, got \\[-3, 2\\]"):
        estimate([-3, 2], 50, 1)


@pytest.mark.parametrize("starts", [0, 1])
@pytest.mark.parametrize("estimate", [_finite_estimate, _nig_estimate])
def test_decay_estimate_needs_two_starts(estimate, starts):
    """No start leaves nothing to average, one no spread to bootstrap."""
    with pytest.raises(DomainError, match=f"at least 2 starts, got {starts}"):
        estimate([1, 2], starts, 1)


@pytest.mark.parametrize("starts", [2, 3333, 8333])
def test_integers_rows_equal_one_matrix_draw(starts):
    """The estimator draws its resamples one row at a time; numpy must give
    the rows of the single (BOOTSTRAP, starts) draw, or every band moves."""
    whole = chain_rng(9, 3).integers(0, starts, size=(BOOTSTRAP, starts))
    rng = chain_rng(9, 3)
    rows = [rng.integers(0, starts, size=starts) for _ in range(BOOTSTRAP)]
    assert np.array_equal(whole, np.array(rows))


@pytest.mark.parametrize("case", ["finite", "nig"])
def test_compare_csv_independent_of_blas_threads(tmp_path, case):
    """The bands come from a BLAS product; one and two BLAS threads must
    write the same compare.csv."""
    src = str(pathlib.Path(wpgibbs.__file__).resolve().parents[1])
    texts = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        argv = ["compare", "--case", case, "--starts", "3333", "--n-max", "200", "--seed", "5",
                "--out", str(out)]
        proc = subprocess.run([sys.executable, "-m", "wpgibbs.cli", *argv],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        texts.append((out / "compare.csv").read_bytes())
    assert texts[0] == texts[1]


def mann_kendall_z(x) -> float:
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


def test_mann_kendall_signs():
    up = mann_kendall_z(np.linspace(0.0, 1.0, 30))
    down = mann_kendall_z(np.linspace(1.0, 0.0, 30))
    flat = mann_kendall_z(np.zeros(30))
    assert up > 1.645
    assert down < -1.645
    assert flat == 0.0
