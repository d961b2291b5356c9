"""End-to-end acceptance suite.

Each test states its tolerance and (where applicable) its runtime budget;
together they pin down the library's headline guarantees: operator
identities, conjugation oracles, certified bound domination, tensorization,
exact constants in CLI metadata, closed-form and squared-log rates,
estimator calibration, empirical sampler regimes, diffusion unit checks,
and the special-function backends.
"""
import json
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.special as sps

from wpgibbs import (
    Composite,
    ExpLogSquare,
    Indicator,
    Linear,
    Power,
    RateBound,
    Sum,
    conjugate,
)
from wpgibbs.beta import BetaSpec
from wpgibbs.cases import NIGParams, OUParams
from wpgibbs.cli import main
from wpgibbs.finite import (
    FiniteKernel,
    lazy_rwm_kernel,
    l2_decay_exact,
    random_centered_functions,
    random_joint_model,
    spectral_gap,
    verify_bound_domination,
    verify_identities,
)
from wpgibbs.kstar import _guard
from wpgibbs.samplers import (
    _bridges,
    chain_rng,
    finite_decay_estimate,
    mann_kendall_z,
    nig_decay_estimate,
    ou_da_step,
    ou_initial_state,
    ou_segment_log_alpha,
)
from wpgibbs.special import gammainc_tails, lambert_w


# ---------------------------------------------------------------------------
# 1. operator identity suite
# ---------------------------------------------------------------------------


def test_identity_suite_50_models():
    """50 random joint models (block sizes 2-6), 20 random centered functions
    each; every operator identity holds with worst residual <= 1e-9 in <= 10 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(50):
        nx, ny = rng.integers(2, 7, size=2)
        m = random_joint_model(seed=1000 + i, nx=int(nx), ny=int(ny))
        report = verify_identities(m, trials=20, tol=1e-9, seed=i)
        assert report.passed, report.to_text()
        worst = max(worst, report.worst_residual)
    elapsed = time.monotonic() - t0
    assert worst <= 1e-9
    assert elapsed <= 10.0, f"identity suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. conjugation oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _RawIndicator(BetaSpec):
    gamma: float

    def _eval(self, s):
        return np.where(s <= 1.0 / self.gamma, 1.0, 0.0)


@dataclass(frozen=True)
class _RawPower(BetaSpec):
    def _eval(self, s):
        return 1.0 / s


@dataclass(frozen=True)
class _ChainedBeta(BetaSpec):
    """inf over s1 of {s1 * beta2(s/s1) + beta1(s1)} for beta1 = beta2 = 1/s."""

    def _eval(self, s):
        out = np.empty_like(s)
        for i, si in enumerate(s):
            s1 = np.geomspace(1e-6, si, 4096)
            out[i] = np.min(s1 * (s1 / si) + 1.0 / s1)
        return out


def test_numeric_conjugation_matches_closed_forms():
    """Max abs error <= 1e-6 against the Linear and Power closed forms at
    the numeric conjugate's v-knots over [1e-4, 0.25]."""
    k_ind = conjugate(_RawIndicator(gamma=0.37))
    vg = np.array(k_ind.v_knots)
    vg = vg[vg >= 1e-4]
    assert np.max(np.abs(np.asarray(k_ind(vg)) - 0.37 * vg)) <= 1e-6
    k_pow = conjugate(_RawPower())
    assert np.max(np.abs(np.asarray(k_pow(vg)) - vg ** 2 / 4.0)) <= 1e-6


def test_chaining_inf_formula_agreement():
    """The chained profile's numeric conjugate equals the functional
    composition of the two conjugates (exactly v^4/64 here) to 1e-3 rel."""
    numeric = conjugate(_ChainedBeta())
    vg = np.array(numeric.v_knots)
    vg = vg[vg >= 1e-2]
    exact = vg ** 4 / 64.0
    composed = Composite(outer=Power(0.25, 2.0), inner=Power(0.25, 2.0))
    assert np.allclose(np.asarray(composed(vg)), exact, rtol=1e-12)
    rel = np.abs(np.asarray(numeric(vg)) - exact) / exact
    assert np.max(rel) <= 1e-3


# ---------------------------------------------------------------------------
# 3. bound domination at desk scale
# ---------------------------------------------------------------------------


def test_bound_domination_100_functions():
    """Exact ||P12^n f||^2/osc^2 <= F^{-1}(n) for all n <= 200 on models with
    lazy random-walk Metropolis slices, 100 functions total, zero violations,
    <= 60 s."""
    t0 = time.monotonic()
    for i in range(10):
        m = random_joint_model(seed=500 + i, nx=3 + i % 3, ny=3 + (i // 3) % 3)
        fs = random_centered_functions(m.mu, count=10, seed=i)
        report = verify_bound_domination(m, fs, n_max=200, slack=1e-12)
        assert report.passed, report.to_text()
    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0, f"domination suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 4. tensorization
# ---------------------------------------------------------------------------


def _tensor_product(k1: FiniteKernel, k2: FiniteKernel) -> FiniteKernel:
    """Simultaneous independent product chain H1 (x) H2."""
    return FiniteKernel(np.kron(k1.matrix, k2.matrix), np.kron(k1.mu, k2.mu))


def test_tensor_gap_50_pairs():
    """gap(H1 (x) H2) >= min(gamma1, gamma2) - 1e-10 on 50 random pairs."""
    rng = np.random.default_rng(77)
    for _ in range(50):
        na, nb = rng.integers(2, 7, size=2)
        pa = np.maximum(rng.dirichlet(np.ones(na)), 1e-4)
        pb = np.maximum(rng.dirichlet(np.ones(nb)), 1e-4)
        pa, pb = pa / pa.sum(), pb / pb.sum()
        a = FiniteKernel(matrix=lazy_rwm_kernel(pa), mu=pa)
        b = FiniteKernel(matrix=lazy_rwm_kernel(pb), mu=pb)
        prod = _tensor_product(a, b)
        assert spectral_gap(prod) >= min(spectral_gap(a), spectral_gap(b)) - 1e-10


def test_tensor_beta_sum_dominates_exact_decay():
    """The summed two-component profile (each an indicator at half its
    component gap, covering the doubling of the product form) yields a rate
    bound that dominates the exact matrix-power decay of H1 (x) H2."""
    rng = np.random.default_rng(5)
    worst = -np.inf
    for _ in range(5):
        pa = np.maximum(rng.dirichlet(np.ones(4)), 1e-4)
        pb = np.maximum(rng.dirichlet(np.ones(5)), 1e-4)
        pa, pb = pa / pa.sum(), pb / pb.sum()
        a = FiniteKernel(matrix=lazy_rwm_kernel(pa), mu=pa)
        b = FiniteKernel(matrix=lazy_rwm_kernel(pb), mu=pb)
        ga, gb = spectral_gap(a), spectral_gap(b)
        prod = _tensor_product(a, b)
        beta_sum = Sum(children=(Indicator(gamma=ga / 2.0), Indicator(gamma=gb / 2.0)))
        rb = RateBound(_guard(conjugate(beta_sum)))
        bounds = np.array([rb.rate_bound(n) for n in range(101)])
        for _ in range(5):
            f = rng.normal(size=prod.n)
            f -= float(prod.mu @ f)
            osc_sq = (f.max() - f.min()) ** 2
            decay = l2_decay_exact(prod, f[:, None], 100)[:, 0] / osc_sq
            worst = max(worst, float(np.max(decay - bounds)))
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# 5. explicit constants in CLI metadata
# ---------------------------------------------------------------------------


def _meta(tmp_path, *args):
    out = tmp_path / "run"
    assert main(list(args) + ["--out", str(out)]) == 0
    return json.loads((out / "bound_meta.json").read_text())


def test_cli_constants_nig_scaled(tmp_path):
    meta = _meta(tmp_path, "bound", "--case", "nig", "--mode", "scaled")
    c = meta["constants"]
    assert c["gamma_xi"] == (27.0 / 256.0) * math.pi ** -2 * 2 ** -11
    assert c["gamma_tau"] == 1.972e-4 / (2.0 * math.e)
    assert c["gamma_xi_expr"] == "27/256 * pi^-2 * 2^-11"
    assert c["gamma_tau_expr"] == "1.972e-4 / (2e)"


def test_cli_constants_nig_fixed_regimes(tmp_path):
    fast = _meta(
        tmp_path, "bound", "--case", "nig", "--mode", "fixed",
        "--beta-hyper", "2.0", "--sigma0", "1.0", "--n-max", "20",
    )
    assert fast["constants"]["rate_exponent_expr"] == "1/14"
    assert fast["constants"]["rate_exponent"] == 1.0 / 14.0
    slow = _meta(
        tmp_path, "bound", "--case", "nig", "--mode", "fixed",
        "--beta-hyper", "0.5", "--sigma0", "1.0", "--n-max", "20",
    )
    assert slow["constants"]["rate_exponent_expr"] == "beta/(4*beta+10*sigma0)"
    assert slow["constants"]["rate_exponent"] == 0.5 / (4.0 * 0.5 + 10.0 * 1.0)


def test_cli_constants_bayes(tmp_path):
    cfg = tmp_path / "bayes.json"
    rng = np.random.default_rng(3)
    X = rng.normal(size=(8, 2))
    cfg.write_text(
        json.dumps(
            {
                "case": "bayes",
                "a": 2.0,
                "b": 1.0,
                "X": X.tolist(),
                "Y": rng.normal(size=8).tolist(),
                "sigma0": 0.1,
            }
        )
    )
    meta = _meta(tmp_path, "bound", "--case", "bayes", "--config", str(cfg), "--n-max", "20")
    c = meta["constants"]
    assert c["rate_exponent_expr"] == "min{a', b'/C2}"
    assert c["rate_exponent"] == min(c["a_prime"], c["b_prime"] / c["C2"])


def test_cli_constants_ou(tmp_path):
    cfg = tmp_path / "ou.json"
    cfg.write_text(
        json.dumps(
            {
                "case": "ou",
                "mu0": 0.5,
                "tau0": 1.0,
                "times": [0.0, 0.5, 1.0],
                "obs": [0.2, 0.1, 0.3],
                "M": 8,
            }
        )
    )
    meta = _meta(tmp_path, "bound", "--case", "ou", "--config", str(cfg), "--n-max", "20")
    c = meta["constants"]
    p = OUParams(mu0=0.5, tau0=1.0, times=(0.0, 0.5, 1.0), obs=(0.2, 0.1, 0.3), M=8)
    assert c["a"] == 2.0 / (p.eta ** 2 * p.tau0 ** 2)
    assert c["a_expr"] == "2/(eta^2*tau0^2)"
    assert "exp(-(a/delta)*log^2((n-1)/(gamma/2)))" in meta["rate_shape"]


# ---------------------------------------------------------------------------
# 6. rate closed forms
# ---------------------------------------------------------------------------


def test_linear_rate_closed_form_1e9():
    rb = RateBound(Linear(0.3))
    for n in range(0, 201):
        assert abs(rb.rate_bound(n) - 0.25 * math.exp(-0.3 * n)) <= 1e-9


def test_explogsquare_rate_envelope():
    """Squared-log profile (c=1/4, a=1, b=0): the certified curve is
    dominated over n in [10, 1e4] by the explicit Lambert-form envelope
    exp(-W0(3n/8)^2/delta) with delta=1.5, and hence by
    C~ exp(-(a^2/delta) log^2 n) for a concrete C~."""
    delta = 1.5
    k = conjugate(ExpLogSquare(c=0.25, a=1.0, b=0.0))
    rb = RateBound(_guard(k), x_min=1e-30)
    ns = np.unique(np.geomspace(10, 10_000, 120).astype(int))
    bounds = np.array([rb.rate_bound(int(n)) for n in ns])
    assert not rb.saturated
    lamb = sps.lambertw(3.0 * ns / 8.0, 0).real
    envelope = np.exp(-lamb ** 2 / delta)
    assert np.all(bounds <= envelope)
    # the loose constant-prefactor form: C~ covers the log-vs-LambertW gap
    c_tilde = float(np.exp(np.max(np.log(ns.astype(float)) ** 2 - lamb ** 2) / delta))
    assert np.all(bounds <= c_tilde * np.exp(-np.log(ns.astype(float)) ** 2 / delta))


# ---------------------------------------------------------------------------
# 7. estimator calibration
# ---------------------------------------------------------------------------


def test_estimator_calibration_within_3_se():
    """Paired-chain estimate on a finite model matches exact matrix-power
    decay within 3 bootstrap SEs at n in {1, 2, 5, 10}, 1e5 starts, <= 120 s."""
    t0 = time.monotonic()
    m = random_joint_model(seed=8, nx=3, ny=3)
    kern = m.kernel("P12")
    rng = np.random.default_rng(0)
    f = rng.normal(size=kern.n)
    f -= float(kern.mu @ f)
    osc_sq = (f.max() - f.min()) ** 2
    n_grid = [1, 2, 5, 10]
    est = finite_decay_estimate(kern, f, n_grid=n_grid, starts=100_000, master_seed=42)
    exact = l2_decay_exact(kern, f[:, None], 10)[:, 0] / osc_sq
    for i, n in enumerate(n_grid):
        z = abs(est.mean[i] - exact[n]) / est.se[i]
        assert z <= 3.0, f"n={n}: z={z:.2f}"
    elapsed = time.monotonic() - t0
    assert elapsed <= 120.0, f"calibration took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 8. NIG sampler empirical regimes
# ---------------------------------------------------------------------------


def test_nig_scaled_log_decay_is_linear():
    """Scaled steps: fitted log-decay of the default observable is linear
    (R^2 >= 0.95) over the CI-resolved points with n <= 200."""
    p = NIGParams(beta_hyper=2.0)
    est = nig_decay_estimate(
        p, "scaled", n_grid=[1, 2, 3, 4, 5, 6, 8, 10], starts=100_000,
        master_seed=314,
    )
    ok = est.mean > 2.0 * est.se
    assert ok.sum() >= 5
    x = est.n_grid[ok].astype(float)
    y = np.log(est.mean[ok])
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    r2 = 1.0 - res[0] / np.sum((y - y.mean()) ** 2)
    assert coef[0] < 0.0
    assert r2 >= 0.95


def test_nig_fixed_no_upward_trend_vs_envelope():
    """Fixed steps with beta/sigma0 > 1: the empirical curve times n^{1/14}
    shows no upward Mann-Kendall trend at the 5% level."""
    p = NIGParams(beta_hyper=2.0, sigma0=1.0)
    assert p.beta_hyper / 1.0 > 1.0
    grid = [1, 2, 5, 10, 20, 40, 80, 120, 160, 200]
    est = nig_decay_estimate(p, "fixed", n_grid=grid, starts=50_000, master_seed=7)
    scaled = est.mean * np.asarray(grid, dtype=float) ** (1.0 / 14.0)
    assert mann_kendall_z(scaled) < 1.645


# ---------------------------------------------------------------------------
# 9. diffusion unit checks
# ---------------------------------------------------------------------------


def _ou_params():
    return OUParams(
        mu0=0.5, tau0=1.0, times=(0.0, 0.5, 1.0), obs=(0.2, 0.1, 0.3), M=16
    )


def girsanov_log_g(seg, theta, h):
    """log G for one segment in the unsimplified endpoint form:
    A(end) - A(start) - 1/2 int (b^2 + b') dt with A(u) = -theta u^2 / 2
    and b^2 + b' = theta^2 x^2 - theta, integrals by np.trapezoid."""
    A = lambda u: -theta * u * u / 2.0
    dt = h * (len(seg) - 1)
    integral = theta ** 2 * np.trapezoid(seg ** 2, dx=h) - theta * dt
    return A(seg[-1]) - A(seg[0]) - 0.5 * integral


def test_ou_girsanov_equals_simplified_1e10():
    p = _ou_params()
    rng = chain_rng(13, 0)
    h = 0.5 / p.M
    for _ in range(50):
        theta = rng.normal(0.0, 1.5)
        old = _bridges(0.2, 0.1 - 0.2, rng.normal(0.0, math.sqrt(0.5 / p.M), size=p.M))
        new = _bridges(0.2, 0.1 - 0.2, rng.normal(0.0, math.sqrt(0.5 / p.M), size=p.M))
        full = girsanov_log_g(new, theta, h) - girsanov_log_g(old, theta, h)
        simple = ou_segment_log_alpha(np.trapezoid(old ** 2, dx=h),
                                      np.trapezoid(new ** 2, dx=h), theta)
        assert abs(full - simple) <= 1e-10


def test_ou_acceptance_always_in_unit_interval():
    p = _ou_params()
    rng = chain_rng(14, 0)
    theta, paths = ou_initial_state(p, rng)
    for _ in range(100):
        theta, paths, accepted = ou_da_step(theta, paths, p, rng)
        assert accepted.dtype == bool and accepted.shape == (len(p.obs) - 1,)
        assert 0.0 <= accepted.mean() <= 1.0


def test_ou_indicator_threshold_machine_precision():
    p = _ou_params()
    theta = 1.3
    # the bridge refresh's threshold from the potential A(u) = -theta u^2 / 2
    # and the drift bound M(theta) = -theta of b(x) = -theta x
    A = -theta * p.y * p.y / 2.0
    spec = Indicator(gamma=1.0 / float(np.max(np.exp(A[1:] - A[:-1] + 0.5 * theta * p.dts))))
    obs = np.asarray(p.obs)
    dts = np.diff(np.asarray(p.times))
    g_tilde = np.exp(0.5 * theta * (dts - obs[1:] ** 2 + obs[:-1] ** 2))
    assert spec.gamma == pytest.approx(1.0 / np.max(g_tilde), rel=1e-15)


# ---------------------------------------------------------------------------
# 10. special functions
# ---------------------------------------------------------------------------


def test_lambert_identity_both_branches_1e12():
    xs = -np.geomspace(1e-8, 1.0 / math.e - 1e-12, 100)
    for x, w0, wm1 in zip(xs, *lambert_w(xs)):
        for w in (w0, wm1):
            assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))


def test_incomplete_gamma_partition_1e10():
    xs = np.linspace(0.0, 50.0, 101)
    for s in (0.5, 1.0, 2.5):
        for total in gammainc_tails(s, xs, xs):
            assert abs(total - math.gamma(s)) <= 1e-10
