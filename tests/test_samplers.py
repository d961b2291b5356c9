import math

import numpy as np
import pytest
from scipy import stats

from wpgibbs.cases import BayesParams, NIGParams, OUParams
from wpgibbs.errors import InvalidModeError
from wpgibbs.finite import FiniteKernel
from wpgibbs.samplers import (
    bayes_step,
    brownian_bridge,
    chain_rng,
    finite_decay_estimate,
    finite_simulate,
    girsanov_log_g,
    mann_kendall_z,
    nig_decay_estimate,
    nig_stationary_start,
    nig_step,
    ou_da_step,
    ou_initial_state,
    ou_segment_log_alpha,
    write_metadata,
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
            nig_step(np.ones(2), np.zeros(2), p, mode, rng)
    # fixed steps live in the params; "scaled" ones are not numbers
    for steps in ({}, {"sigma_xi": 0.5}, {"sigma_tau": 0.5}):
        half = NIGParams(beta_hyper=2.0, **steps)
        with pytest.raises(InvalidModeError, match="numeric steps"):
            nig_step(np.ones(2), np.zeros(2), half, "fixed", rng)


def test_nig_exact_gibbs_preserves_stationarity():
    p = NIGParams(beta_hyper=2.0)
    rng = chain_rng(7, 0)
    tau, xi = nig_stationary_start(p, rng, 100_000)
    for _ in range(3):
        tau, xi = nig_step(tau, xi, p, "exact", rng)
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
        tau, xi = nig_step(tau, xi, p, "scaled", rng)
    ks_tau = stats.kstest(tau, stats.gamma(a=0.5, scale=1.0 / p.beta_hyper).cdf)
    assert ks_tau.statistic < 0.0073


def test_nig_tiny_step_freezes_the_chain():
    p = NIGParams(beta_hyper=2.0, sigma_xi=1e-12, sigma_tau=1e-12)
    rng = chain_rng(3, 0)
    tau, xi = nig_stationary_start(p, rng, 100)
    t2, x2 = nig_step(tau, xi, p, "fixed", rng)
    assert np.max(np.abs(t2 - tau)) < 1e-10
    assert np.max(np.abs(x2 - xi)) < 1e-10
    # sigma_xi steps the tau-update, sigma_tau the xi-update
    only_xi = NIGParams(beta_hyper=2.0, sigma_xi=1e-12, sigma_tau=1.0)
    t3, x3 = nig_step(tau, xi, only_xi, "fixed", rng)
    assert np.max(np.abs(t3 - tau)) < 1e-10
    assert np.max(np.abs(x3 - xi)) > 0.1
    only_tau = NIGParams(beta_hyper=2.0, sigma_xi=1.0, sigma_tau=1e-12)
    t4, x4 = nig_step(tau, xi, only_tau, "fixed", rng)
    assert np.max(np.abs(t4 - tau)) > 0.1
    assert np.max(np.abs(x4 - xi)) < 1e-10


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
        lam, b_next = bayes_step(lam0, b_old, p, chain_rng(seed, 0))

        twin = chain_rng(seed, 0)
        r_old = p.Y - p.X @ b_old
        lam_twin = twin.gamma(p.a + p.N / 2.0, 1.0 / (p.b + 0.5 * float(r_old @ r_old)))
        prop = b_old + p.sigma0 * twin.normal(size=p.p)
        u = twin.uniform()

        def log_density(bv):
            r = p.Y - p.X @ bv
            return -0.5 * lam_twin * float(r @ r)

        accept = math.log(u) < log_density(prop) - log_density(b_old)
        assert lam == lam_twin
        assert np.array_equal(b_next, prop if accept else b_old)
        decisions.add(accept)
    assert decisions == {True, False}


def test_bayes_exact_gibbs_matches_conjugate_posterior():
    p = _bayes_params()
    rng = chain_rng(9, 0)
    lam, bv = 1.0, np.zeros(p.p)
    lams = []
    for i in range(6000):
        lam, bv = bayes_step(lam, bv, p, rng, exact_beta=True)
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
    seg = brownian_bridge(0.2, -0.4, 0.5, 16, rng)
    assert len(seg) == 17
    assert seg[0] == pytest.approx(0.2, abs=1e-12)
    assert seg[-1] == pytest.approx(-0.4, abs=1e-12)


def test_girsanov_ratio_matches_simplified_form():
    p = _ou_params()
    rng = chain_rng(4, 0)
    h = 0.5 / p.M
    worst = 0.0
    for _ in range(50):
        theta = rng.normal(0.0, 1.5)
        old = brownian_bridge(0.2, 0.1, 0.5, p.M, rng)
        new = brownian_bridge(0.2, 0.1, 0.5, p.M, rng)
        full = girsanov_log_g(new, theta, h) - girsanov_log_g(old, theta, h)
        simple = ou_segment_log_alpha(old, new, theta, h)
        worst = max(worst, abs(full - simple))
    assert worst <= 1e-10


def test_ou_da_step_acceptance_and_pinning():
    p = _ou_params()
    rng = chain_rng(6, 0)
    state = ou_initial_state(p, rng)
    rates = []
    for _ in range(50):
        state, accepted = ou_da_step(state, p, rng)
        state.validate(p)
        rates.append(accepted.mean())
    avg = float(np.mean(rates))
    assert 0.0 <= avg <= 1.0
    assert avg > 0.2  # bridge proposals should be accepted often here


def test_finite_simulate_reaches_stationarity():
    pi = np.array([0.2, 0.5, 0.3])
    M = np.tile(pi, (3, 1))  # one step lands exactly in pi
    k = FiniteKernel(matrix=M, mu=pi)
    rng = chain_rng(2, 0)
    end = finite_simulate(k, np.zeros(200_000, dtype=np.int64), 1, rng)
    freq = np.bincount(end, minlength=3) / len(end)
    assert np.max(np.abs(freq - pi)) < 0.005


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


def test_mann_kendall_signs():
    up = mann_kendall_z(np.linspace(0.0, 1.0, 30))
    down = mann_kendall_z(np.linspace(1.0, 0.0, 30))
    flat = mann_kendall_z(np.zeros(30))
    assert up > 1.645
    assert down < -1.645
    assert flat == 0.0


def test_write_metadata(tmp_path):
    meta_path = tmp_path / "meta.json"
    write_metadata(meta_path, {"seed": 42, "case": "finite"})
    import json

    assert json.loads(meta_path.read_text()) == {"seed": 42, "case": "finite"}
