import math

import numpy as np
import pytest
import scipy.special as sps

from wpgibbs.cases import (
    B_UPPER_TAIL,
    C_RWM,
    C_XI,
    CASES,
    GAMMA_TAU_SCALED,
    GAMMA_XI_SCALED,
    BayesBeta2,
    BayesParams,
    NIGBeta1,
    NIGBeta2,
    NIGParams,
    OUBeta2,
    OUParams,
    bayes_rate_exponent,
    nig_envelope_exponents,
    nig_rate_exponent,
    nig_scaled_kstar,
    ou_exp_log_square_envelope,
    ou_rate_coefficient,
)
from wpgibbs.beta import DEFAULT_CAP, Indicator
from wpgibbs.errors import DomainError, InvalidSpecError
from wpgibbs.rates import RateBound
from test_special import _gammainc_scalar, _lambert_w_scalar


def test_global_constants():
    assert C_RWM == 1.972e-4
    assert C_XI == math.pi ** -2 * 2 ** -11
    assert GAMMA_XI_SCALED == (27.0 / 256.0) * C_XI
    assert GAMMA_TAU_SCALED == C_RWM / (2.0 * math.e)
    assert B_UPPER_TAIL == 2.0


def test_scaled_worst_case_gaps_are_the_advertised_minima():
    # xi-refresh: c u^3/(u+1)^4 with u = beta_xi^2 sigma^2 maximised at u=3
    assert GAMMA_XI_SCALED == pytest.approx(C_XI * 3.0 ** 3 / 4.0 ** 4)
    # tau-refresh: c0 u exp(-2u) maximised at u = sigma^2 tau = 1/2 gives c0/(2e)
    assert GAMMA_TAU_SCALED == pytest.approx(C_RWM * 0.5 * math.exp(-1.0))


def test_scaled_kstar_slope():
    p = NIGParams(beta_hyper=2.0, gamma_dg=0.8)
    k = nig_scaled_kstar(p)
    assert k.slope == pytest.approx(GAMMA_TAU_SCALED * GAMMA_XI_SCALED * 0.8, rel=1e-14)
    assert k.slope == pytest.approx(5.217880169569244e-06 * 3.6272912899504215e-05 * 0.8)


def test_fixed_betas_shape():
    p = NIGParams(beta_hyper=2.0, sigma0=0.5)
    s_grid = np.geomspace(1.0, 1e9, 200)
    b1, b2 = NIGBeta1(p)(s_grid), NIGBeta2(p)(s_grid)
    for b in (b1, b2):
        assert np.all(b >= 0.0)
        assert np.all(b <= 0.25 + 1e-15)
        assert np.all(np.diff(b) <= 1e-12)
    # both tails actually decay
    assert b1[-1] < b1[0] or b1[0] == 0.25
    assert b2[-1] < 0.25


def test_fixed_beta1_below_validity_is_capped():
    p = NIGParams(beta_hyper=2.0, sigma0=0.5)
    assert NIGBeta1(p)(1e-6) == 0.25
    assert NIGBeta2(p)(1e-6) == 0.25


def test_fixed_betas_need_a_step():
    p = NIGParams(beta_hyper=2.0)
    for profile in (NIGBeta1(p), NIGBeta2(p)):
        with pytest.raises(InvalidSpecError, match="sigma0"):
            profile(10.0)


@pytest.mark.parametrize("value", [True, "2.0", None])
def test_params_take_numbers_not_bools_or_strings(value):
    with pytest.raises(InvalidSpecError, match="beta_hyper must be a number"):
        NIGParams(beta_hyper=value)
    assert NIGParams(beta_hyper=np.float32(2.0), gamma_dg=1).gamma_dg == 1.0


def test_list_fields_take_numbers_entry_by_entry():
    ou = dict(mu0=0.5, tau0=1.0, times=[0.0, 0.5, 1.0], obs=[0.2, 0.1, 0.3], M=8)
    X, Y = [[1, 0], [0, 1], [1, 1], [2, 1]], [1, 0, 2, 1]
    # np.asarray reads each of these entries as a float
    for field, bad in (("times", [0.0, True, 2.0]), ("obs", ["0.5", 0.1, 0.3]),
                       ("obs", [0.2, None, 0.3]), ("times", np.array([0, 1, 2], dtype=bool))):
        with pytest.raises(InvalidSpecError, match=f"{field} entry must be a number"):
            OUParams(**{**ou, field: bad})
    for field, bad in (("X", [["1", 0.2]] + X[1:]), ("X", [[True, 0]] + X[1:]),
                       ("X", [[1, 0], [0]] + X[2:]), ("Y", [1, 0, "2", 1])):
        with pytest.raises(InvalidSpecError, match=f"{field} entry must be a number"):
            BayesParams(a=2.0, b=1.0, sigma0=0.1, **{"X": X, "Y": Y, field: bad})
    for bad in (0.5, [[0.0, 1.0], [2.0, 3.0]]):
        with pytest.raises(InvalidSpecError, match="times must be a list of numbers"):
            OUParams(**{**ou, "times": bad})
    p = OUParams(**{**ou, "times": np.array([0, 1, 2]), "obs": (np.float32(0.5), 1, 2.0)})
    assert p.times == (0.0, 1.0, 2.0) and all(type(t) is float for t in p.times + p.obs)
    b = BayesParams(a=2.0, b=1.0, sigma0=0.1, X=np.array(X), Y=Y)
    assert b.X.dtype == float and np.array_equal(b.X, np.array(X, dtype=float))


def test_nig_rate_exponent_regimes():
    fast = NIGParams(beta_hyper=2.0, sigma0=1.0)
    assert nig_rate_exponent(fast) == pytest.approx(1.0 / 14.0)
    slow = NIGParams(beta_hyper=0.5, sigma0=1.0)
    assert nig_rate_exponent(slow) == pytest.approx(0.5 / (4.0 * 0.5 + 10.0 * 1.0))


def test_nig_envelope_exponents():
    p = NIGParams(beta_hyper=2.0, sigma0=0.5)
    e1, e2 = nig_envelope_exponents(p)
    assert e1 == pytest.approx(0.25)
    assert e2 == pytest.approx(min(0.5, 2.0 / (2.0 * 0.25)))
    wide = NIGParams(beta_hyper=0.1, sigma0=2.0)
    assert nig_envelope_exponents(wide)[1] == pytest.approx(0.1 / 8.0)


def test_case_profiles_at_one_point():
    """A scalar s gives the float the array path gives at that point, and
    s <= 0 is outside every profile's domain."""
    nig = NIGParams(beta_hyper=2.0, sigma0=0.5)
    profiles = (NIGBeta1(nig), NIGBeta2(nig), BayesBeta2(_bayes_params()), OUBeta2(_ou_params()))
    s = np.array([0.5, 10.0, 1e3, 1e6, 1e9, 1e12])
    for profile in profiles:
        values = profile(s)
        for si, v in zip(s, values):
            one = profile(float(si))
            assert type(one) is float and one == v
        for bad in (0.0, -1.0):
            with pytest.raises(DomainError):
                profile(bad)


def _bayes_params(sigma0=0.1):
    rng = np.random.default_rng(7)
    X = rng.normal(size=(8, 2))
    Y = rng.normal(size=8)
    return BayesParams(a=2.0, b=1.0, X=X, Y=Y, sigma0=sigma0)


def test_bayes_posterior_quantities():
    p = _bayes_params()
    assert p.a_prime == pytest.approx(p.a + p.N / 2.0 - p.p / 2.0)
    gram = p.X.T @ p.X
    u = np.linalg.solve(gram, p.X.T @ p.Y)
    assert p.b_prime == pytest.approx(p.b + (p.Y @ p.Y - u @ gram @ u) / 2.0)
    assert p.b_prime >= p.b  # residual sum of squares is nonnegative
    w = np.linalg.eigvalsh(gram)
    assert p.eig_min == pytest.approx(w[0])
    assert p.eig_max == pytest.approx(w[-1])
    assert p.C1 == pytest.approx(1.0 / (C_RWM * p.eig_min * p.sigma0 ** 2))
    assert p.C2 == pytest.approx(2.0 * p.eig_max * p.p * p.sigma0 ** 2)


def test_bayes_beta2_shape_and_cap():
    p = _bayes_params()
    thresh = math.e * p.C1 * p.C2
    assert BayesBeta2(p)(0.5 * thresh) == 0.25
    s_grid = np.geomspace(thresh, 1e4 * thresh, 100)
    vals = BayesBeta2(p)(s_grid)
    assert np.all(vals <= 0.25 + 1e-15)
    assert np.all(np.diff(vals) <= 1e-12)
    assert vals[-1] < vals[0]


def test_bayes_beta2_tail_envelope():
    # the decay should eventually beat any power below the advertised exponent
    p = _bayes_params()
    rho = bayes_rate_exponent(p)
    s_lo, s_hi = 1e3 * math.e * p.C1 * p.C2, 1e6 * math.e * p.C1 * p.C2
    ratio = BayesBeta2(p)(s_hi) / BayesBeta2(p)(s_lo)
    assert ratio <= (s_hi / s_lo) ** (-0.9 * rho)


def bayes_crossover_sigma0_sq(p: BayesParams) -> float:
    """Step-size-squared threshold below which the a' exponent dominates."""
    return p.b_prime / (2.0 * p.a_prime * p.eig_max * p.p)


def test_bayes_rate_exponent_and_crossover():
    p = _bayes_params(sigma0=0.05)
    assert bayes_rate_exponent(p) == pytest.approx(min(p.a_prime, p.b_prime / p.C2))
    cross = bayes_crossover_sigma0_sq(p)
    assert cross == pytest.approx(p.b_prime / (2.0 * p.a_prime * p.eig_max * p.p))
    small = _bayes_params(sigma0=math.sqrt(0.5 * cross))
    big = _bayes_params(sigma0=math.sqrt(2.0 * cross))
    assert bayes_rate_exponent(small) == pytest.approx(small.a_prime)
    assert bayes_rate_exponent(big) == pytest.approx(big.b_prime / big.C2)


def _ou_params(**kw):
    defaults = dict(
        mu0=0.5,
        tau0=1.0,
        times=(0.0, 0.5, 1.0),
        obs=(0.2, 0.1, 0.3),
        M=8,
    )
    defaults.update(kw)
    return OUParams(**defaults)


def test_ou_derived_quantities():
    p = _ou_params()
    assert p.T == pytest.approx(1.0)
    assert p.m == pytest.approx(p.mu0 + p.tau0 ** 2 * p.T / 2.0)
    obs = np.array(p.obs)
    dts = np.diff(np.array(p.times))
    eta = np.max(dts - obs[1:] ** 2 + obs[:-1] ** 2)
    assert p.eta == pytest.approx(eta)


def test_ou_beta2_shape():
    p = _ou_params()
    assert OUBeta2(p)(0.5) == 0.25
    vals = OUBeta2(p)(np.geomspace(1.0, 1e8, 100))
    assert np.all(np.diff(vals) <= 1e-12)
    assert vals[-1] < 1e-4
    # the formula exactly as it reads, one point at a time
    for s in (1.0, 3.7, 1e5):
        z = (2.0 * math.log(s) / p.eta - p.m) / p.tau0
        assert OUBeta2(p)(s) == min(p.envelope_K * (0.5 * math.erfc(z / math.sqrt(2.0))), 0.25)


def test_ou_envelope_dominates_exact_curve():
    p = _ou_params(envelope_K=1.0)
    env = ou_exp_log_square_envelope(p)
    s_grid = np.geomspace(1.0, 1e8, 400)
    exact = OUBeta2(p)(s_grid)
    upper = np.array([env(s) for s in s_grid])
    assert np.all(upper + 1e-15 >= exact)
    # squared-log coefficient matches the advertised rate constant
    assert env.a ** 2 == pytest.approx(ou_rate_coefficient(p))
    assert ou_rate_coefficient(p) == pytest.approx(2.0 / (p.eta ** 2 * p.tau0 ** 2))


def diffusion_beta2_indicator(theta: float, p: OUParams) -> Indicator:
    """Indicator profile of the bridge refresh at a fixed drift parameter.

    Each segment's independence-Metropolis kernel has slice profile
    1{s <= Gtilde_i} with Gtilde_i = exp{A(Y_i) - A(Y_{i-1}) - M(theta) dt_i / 2};
    the product over segments keeps the worst one.  For the mean-reverting
    drift b(x) = -theta x, A(u) = -theta u^2/2 and the lower bound
    M(theta) = -theta give Gtilde_i = exp{theta (dt_i - Y_i^2 + Y_{i-1}^2) / 2}.
    """
    A = -theta * p.y * p.y / 2.0
    g = np.exp(A[1:] - A[:-1] + 0.5 * theta * p.dts)
    return Indicator(gamma=1.0 / float(np.max(g)))


def test_diffusion_indicator_threshold():
    p = _ou_params()
    # theta = 0 gives unit potential increments, hence gamma exactly 1
    spec0 = diffusion_beta2_indicator(0.0, p)
    assert spec0.gamma == pytest.approx(1.0)
    theta = 0.8
    spec = diffusion_beta2_indicator(theta, p)
    obs = np.array(p.obs)
    dts = np.diff(np.array(p.times))
    g = np.exp(0.5 * theta * (dts - obs[1:] ** 2 + obs[:-1] ** 2))
    assert spec.gamma == pytest.approx(1.0 / np.max(g), rel=1e-14)


def test_ou_bound_curve_nonincreasing_below_a_quarter():
    p = _ou_params()
    k = CASES["ou"].bound(p, "mwg")[0]
    vals = RateBound(k).curve([2, 10, 100, 1000])
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[0] <= 0.25
    assert vals[-1] < vals[0]


def test_param_validation():
    with pytest.raises(DomainError):
        NIGParams(beta_hyper=-1.0)
    with pytest.raises(DomainError):
        BayesParams(a=0.5, b=1.0, X=np.eye(3)[:, :2], Y=np.zeros(3), sigma0=0.1)
    with pytest.raises(DomainError):
        OUParams(mu0=0.0, tau0=1.0, times=(0.0, 1.0), obs=(0.1,), M=8)


# ---------------------------------------------------------------------------
# the array profiles against the scalar formulas they replace, and scipy
# ---------------------------------------------------------------------------


def _nig_betas_scalar(s, p):
    """(beta1(s), beta2(s)) one point at a time, as the formulas read."""
    sigma0 = p.sigma0
    beta = p.beta_hyper
    s0sq = sigma0 * sigma0
    cprime = C_XI * (beta * beta * s0sq / (beta * beta * s0sq + 1.0)) ** 4
    root = math.sqrt(cprime * s / s0sq)
    b1 = DEFAULT_CAP
    if root > beta:
        b1 = (2.0 * math.sqrt(2.0 * beta) / math.pi) * (
            math.pi / 2.0 - math.atan(math.sqrt((root - beta) / beta))
        )
        b1 = min(b1, DEFAULT_CAP)
    b2 = DEFAULT_CAP
    if s >= 2.0 * math.e / C_RWM:
        arg = -2.0 / (C_RWM * s)
        scale_w = -beta / (2.0 * s0sq)
        x_lo = scale_w * _lambert_w_scalar(arg, 0)
        x_hi = scale_w * _lambert_w_scalar(arg, 1)
        b2 = _gammainc_scalar(0.5, x_lo, False) + _gammainc_scalar(0.5, x_hi, True)
        b2 = min(b2, DEFAULT_CAP)
    return b1, b2


def _bayes_beta2_scalar(s, p):
    c1c2 = p.C1 * p.C2
    if s < math.e * c1c2:
        return DEFAULT_CAP
    arg = -c1c2 / s
    scale_w = -p.b_prime / p.C2
    x_lo = scale_w * _lambert_w_scalar(arg, 0)
    x_hi = scale_w * _lambert_w_scalar(arg, 1)
    ap = p.a_prime
    val = _gammainc_scalar(ap, x_lo, False) + _gammainc_scalar(ap, x_hi, True)
    return min(val, DEFAULT_CAP)


def _around(*edges):
    """A log grid from 1e-3 to 1e12 plus points just either side of each edge."""
    near = [e * f for e in edges for f in (1 - 1e-12, 1.0, 1 + 1e-12, 1.5, 10.0)]
    return np.sort(np.concatenate([np.geomspace(1e-3, 1e12, 300), near]))


def _scipy_lambertw(arg, k):
    """scipy's real W; at the validity edge the argument rounds onto or just
    past -1/e, where scipy gives nan and both branches meet at -1."""
    with np.errstate(invalid="ignore"):
        w = sps.lambertw(arg, k).real
    return np.where(arg <= -1.0 / math.e, -1.0, w)


NIG_STEPS = [(2.0, 0.5), (0.5, 1.5), (1.0, 1.0), (3.0, 2.0)]


@pytest.mark.parametrize("beta,sigma0", NIG_STEPS)
def test_nig_array_profiles_match_scalar_formulas(beta, sigma0):
    p = NIGParams(beta_hyper=beta, sigma0=sigma0)
    s0sq = sigma0 ** 2
    cprime = C_XI * (beta * beta * s0sq / (beta * beta * s0sq + 1.0)) ** 4
    s = _around(beta * beta * s0sq / cprime, 2.0 * math.e / C_RWM)
    ref = np.array([_nig_betas_scalar(float(si), p) for si in s])
    b1, b2 = NIGBeta1(params=p)(s), NIGBeta2(params=p)(s)
    assert np.allclose(b1, ref[:, 0], rtol=1e-13, atol=0.0)
    assert np.allclose(b2, ref[:, 1], rtol=1e-13, atol=0.0)
    assert np.any(b1 < DEFAULT_CAP) and np.any(b1 == DEFAULT_CAP)
    assert np.any(b2 < DEFAULT_CAP) and np.any(b2 == DEFAULT_CAP)
    # a scalar call is the array profile at one point
    for i in range(0, len(s), 37):
        assert (NIGBeta1(p)(float(s[i])), NIGBeta2(p)(float(s[i]))) == (b1[i], b2[i])


@pytest.mark.parametrize("beta,sigma0", NIG_STEPS)
def test_nig_beta2_matches_scipy(beta, sigma0):
    p = NIGParams(beta_hyper=beta, sigma0=sigma0)
    s = _around(2.0 * math.e / C_RWM)
    valid = s >= 2.0 * math.e / C_RWM
    arg = -2.0 / (C_RWM * s[valid])
    scale_w = -beta / (2.0 * sigma0 ** 2)
    x_lo = scale_w * _scipy_lambertw(arg, 0)
    x_hi = scale_w * _scipy_lambertw(arg, -1)
    expect = np.full_like(s, DEFAULT_CAP)
    expect[valid] = np.minimum(sps.gammainc(0.5, x_lo) + sps.gammaincc(0.5, x_hi), DEFAULT_CAP)
    assert np.allclose(NIGBeta2(params=p)(s), expect, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("sigma0", [0.02, 0.1, 0.3])
def test_bayes_array_profile_matches_scalar_formula_and_scipy(sigma0):
    p = _bayes_params(sigma0)
    c1c2 = p.C1 * p.C2
    s = _around(math.e, 1e3) * c1c2
    got = BayesBeta2(params=p)(s)
    ref = np.array([_bayes_beta2_scalar(float(si), p) for si in s])
    assert np.allclose(got, ref, rtol=1e-13, atol=0.0)
    assert np.any(got < DEFAULT_CAP) and np.any(got == DEFAULT_CAP)
    for i in range(0, len(s), 41):
        assert BayesBeta2(params=p)(float(s[i])) == got[i]
    valid = s >= math.e * c1c2
    arg = -c1c2 / s[valid]
    scale_w = -p.b_prime / p.C2
    x_lo = scale_w * _scipy_lambertw(arg, 0)
    x_hi = scale_w * _scipy_lambertw(arg, -1)
    expect = np.full_like(s, DEFAULT_CAP)
    expect[valid] = np.minimum(
        sps.gammainc(p.a_prime, x_lo) + sps.gammaincc(p.a_prime, x_hi), DEFAULT_CAP
    )
    assert np.allclose(got, expect, rtol=1e-9, atol=0.0)


def test_bayes_params_hold_read_only_copies():
    rng = np.random.default_rng(7)
    X, Y = rng.normal(size=(8, 2)), rng.normal(size=8)
    p = BayesParams(a=2.0, b=1.0, X=X, Y=Y, sigma0=0.1)
    assert p.X is not X and p.Y is not Y
    c1, b_prime = p.C1, p.b_prime
    for arr in (p.X, p.Y, p.gram, p.posterior_mean):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    X[0, 0] += 5.0  # the caller's arrays stay writeable and are not aliased
    Y[0] = 9.0
    assert (p.C1, p.b_prime) == (c1, b_prime)
    assert BayesParams(a=2.0, b=1.0, X=X, Y=Y, sigma0=0.1).b_prime != b_prime


def test_bayes_params_need_a_2d_design_matrix():
    for X in ([1.0, 2.0, 3.0], [[[1.0, 2.0]], [[3.0, 4.0]], [[5.0, 6.0]]]):
        with pytest.raises(DomainError, match=r"X must be a 2-D design matrix, got shape \("):
            BayesParams(a=2.0, b=1.0, X=X, Y=[1.0, 0.0, 2.0], sigma0=0.1)
