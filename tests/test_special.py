import math

import numpy as np
import pytest
import scipy.special as sps

from wpgibbs.errors import DomainError
from wpgibbs.special import gammainc_tails, lambert_w

E_INV = 1.0 / math.e
# the branch point, an x that rounds past it (clamped onto it), both sides of
# the -0.1 switch between W_{-1}'s seeds, and x -> 0-
W_POINTS = np.array([-E_INV, -E_INV - 1e-16, -E_INV + 1e-9, -0.3, -0.1, np.nextafter(-0.1, 0.0),
                     -0.0999, -1e-5, -1e-300, -5e-324])
# W is ill-conditioned at the branch point, so the scipy grid stops 1e-6 short;
# W0 near 0 has a test of its own
SCIPY_GRID = -np.geomspace(1e-12, E_INV - 1e-6, 80)
# an argument whose upper piece underflows to 0 for every s <= 1e4 here
FAR = 1e6


def _lower(s, x):
    return gammainc_tails(s, x, np.full_like(x, FAR))


def _upper(s, x):
    return gammainc_tails(s, np.zeros_like(x), x)


def test_lambert_principal_identity():
    xs = np.concatenate([[-E_INV + 1e-9], -np.geomspace(1e-8, E_INV - 1e-12, 60)])
    w = lambert_w(xs)[0]
    assert np.all(np.abs(w * np.exp(w) - xs) <= 1e-12 * np.maximum(1.0, np.abs(xs)))
    assert np.all(w >= -1.0)


def test_lambert_minus_one_identity():
    xs = -np.geomspace(1e-8, E_INV - 1e-12, 60)
    w = lambert_w(xs)[1]
    assert np.all(np.abs(w * np.exp(w) - xs) <= 1e-12 * np.maximum(1.0, np.abs(xs)))
    assert np.all(w <= -1.0)


def test_lambert_matches_scipy():
    xs = -np.geomspace(1e-6, 0.3, 40)
    w = lambert_w(xs)
    for x, w0, wm1 in zip(xs, w[0], w[1]):
        assert w0 == pytest.approx(float(sps.lambertw(x, 0).real), rel=1e-12)
        assert wm1 == pytest.approx(float(sps.lambertw(x, -1).real), rel=1e-10)


def test_lambert_w0_near_zero_matches_scipy():
    """W0 keeps its relative accuracy down to x = -1e-300, on both sides of
    the switch to its Maclaurin series at |x| = 1e-8."""
    xs = np.concatenate([-np.geomspace(1e-300, 1e-3, 301),
                         [-1e-8, np.nextafter(-1e-8, 0.0), np.nextafter(-1e-8, -1.0)]])
    w0 = lambert_w(xs)[0]
    ref = sps.lambertw(xs, 0).real
    assert np.all(np.abs(w0 - ref) <= 1e-15 * np.abs(ref))
    assert np.all(w0 < 0.0)


def test_lambert_domain_errors():
    for x in (-1.0, -0.5, -E_INV - 1e-14, 0.0, -0.0, 0.1, 5.0):
        with pytest.raises(DomainError):
            lambert_w(x)


def test_gamma_pieces_sum_to_one():
    xs = np.linspace(0.0, 50.0, 26)
    for s in (0.5, 1.0, 2.5):
        assert np.allclose(gammainc_tails(s, xs, xs), 1.0, rtol=0.0, atol=1e-10)


def test_gamma_pieces_match_scipy():
    xs = np.array([0.01, 0.5, 2.0, 10.0, 40.0])
    for s in (0.5, 1.3, 2.5, 4.0):
        for x, lower, upper in zip(xs, _lower(s, xs), _upper(s, xs)):
            assert lower == pytest.approx(sps.gammainc(s, x), rel=1e-10)
            assert upper == pytest.approx(sps.gammaincc(s, x), rel=1e-10, abs=1e-300)


def test_gamma_regularised_matches_scipy_up_to_s_1e4():
    """P and Q keep 1e-10 relative accuracy past s = 171.6, where Gamma(s)
    overflows, on both sides of x = s, across the series / continued-fraction
    switch at s + 1."""
    t = np.linspace(-6.0, 6.0, 49)
    for s in np.geomspace(0.5, 1e4, 25):
        s = float(s)
        xs = s + t * math.sqrt(s)
        xs = np.concatenate([xs[xs > 0.0], [s, s + 1.0, np.nextafter(s + 1.0, 0.0)]])
        assert np.allclose(_lower(s, xs), sps.gammainc(s, xs), rtol=1e-10, atol=0.0)
        assert np.allclose(_upper(s, xs), sps.gammaincc(s, xs), rtol=1e-10, atol=0.0)


def test_gamma_edge_cases():
    # at x = 0 the lower piece is 0 and the upper one 1, exactly
    assert gammainc_tails(1.5, [0.0], [FAR]).tolist() == [0.0]
    assert gammainc_tails(1.5, [0.0], [0.0]).tolist() == [1.0]
    for s, lo, hi in ((-1.0, 1.0, 1.0), (0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, -1.0)):
        with pytest.raises(DomainError):
            gammainc_tails(s, [lo], [hi])


def test_lambert_array_equals_scalar_calls():
    w = lambert_w(W_POINTS)
    assert isinstance(w, np.ndarray) and w.shape == (2,) + W_POINTS.shape
    # every point of an array pass is its own one-point call
    assert np.array_equal(w, np.array([lambert_w(float(x)) for x in W_POINTS]).T)
    assert lambert_w(-0.2).shape == (2,)
    assert lambert_w(-E_INV).tolist() == [-1.0, -1.0]
    assert lambert_w(-E_INV - 1e-16).tolist() == [-1.0, -1.0]
    grid = W_POINTS.reshape(2, 5)
    assert np.array_equal(lambert_w(grid), w.reshape(2, 2, 5))
    assert lambert_w(np.array([])).shape == (2, 0)


def test_non_finite_inputs_raise():
    for x in (math.inf, -math.inf, math.nan, np.array([-0.2, math.inf]), np.array([-0.2, -math.inf])):
        with pytest.raises(DomainError):
            lambert_w(x)
    for s, x in ((0.5, math.inf), (math.inf, 1.0), (math.nan, 1.0), (0.5, math.nan)):
        with pytest.raises(DomainError):
            gammainc_tails(s, [x, 1.0], [1.0, 1.0])
        with pytest.raises(DomainError):
            gammainc_tails(s, [1.0, 1.0], [1.0, x])


def test_lambert_array_matches_scipy_across_seed_regions():
    # W0's seed is the branch-point series everywhere on [-1/e, 0); W_{-1}'s
    # is the series up to -0.1 and the asymptotic logs above it
    xs = np.concatenate([SCIPY_GRID, W_POINTS[4:8]])
    w = lambert_w(xs)
    assert np.allclose(w[0], sps.lambertw(xs, 0).real, rtol=1e-12, atol=0.0)
    assert np.allclose(w[1], sps.lambertw(xs, -1).real, rtol=1e-10, atol=0.0)


def test_lambert_one_bad_element_raises():
    for xs in ([-0.2, -1.0, -0.3], [-0.2, np.nan], [-0.2, 0.0], [-0.2, 0.5]):
        with pytest.raises(DomainError):
            lambert_w(np.array(xs))


def test_gamma_array_equals_scalar_calls():
    # x = 0, the series below s + 1, the continued fraction from s + 1 on,
    # and lo and hi in different regions at one point
    for s in (0.5, 2.5, 30.0):
        xs = np.array([0.0, 1e-12, 0.3 * (s + 1.0), s + 1.0 - 1e-9, s + 1.0, 2.0 * s + 5.0, 700.0])
        lo, hi = (a.ravel() for a in np.meshgrid(xs, xs))
        vals = gammainc_tails(s, lo, hi)
        assert isinstance(vals, np.ndarray) and vals.shape == lo.shape
        assert np.array_equal(vals, [gammainc_tails(s, float(a), float(b)) for a, b in zip(lo, hi)])
        assert np.array_equal(gammainc_tails(s, lo.reshape(7, 7), hi.reshape(7, 7)), vals.reshape(7, 7))
        assert gammainc_tails(s, np.array([]), np.array([])).shape == (0,)


def test_gamma_array_matches_scipy():
    xs = np.concatenate([[0.0], np.geomspace(1e-6, 80.0, 120)])
    for s in (0.5, 1.3, 7.0):
        assert np.allclose(_lower(s, xs), sps.gammainc(s, xs), rtol=1e-10, atol=0.0)
        assert np.allclose(_upper(s, xs), sps.gammaincc(s, xs), rtol=1e-10, atol=1e-300)
        assert np.allclose(gammainc_tails(s, xs, xs[::-1]),
                           sps.gammainc(s, xs) + sps.gammaincc(s, xs[::-1]), rtol=1e-10, atol=0.0)


def test_gamma_one_bad_element_raises():
    for lo, hi in (([1.0, -1e-3], [1.0, 1.0]), ([1.0, 1.0], [-1e-3, 1.0]), ([1.0, np.nan], [1.0, 1.0])):
        with pytest.raises(DomainError):
            gammainc_tails(0.5, np.array(lo), np.array(hi))
    # lo and hi of different shapes, broadcastable or not
    for lo, hi in ((np.ones(3), np.ones(2)), (np.ones(3), 1.0), (np.ones((2, 3)), np.ones(6))):
        with pytest.raises(DomainError, match="one shape"):
            gammainc_tails(0.5, lo, hi)


# The scalar iterations, one point at a time in math-module arithmetic, as
# the reference for the lockstep array code: same seeds, same updates, same
# stopping rules, so they differ only by np.exp/np.log against math.exp/log.


def _lambert_w_scalar(x, row):
    """W0 (row 0) or W_{-1} (row 1) at one x in [-1/e, 0)."""
    x = max(x, -1.0 / math.e)
    if abs(x + math.exp(-1.0)) < 1e-300:
        return -1.0
    if row == 0 and x > -1e-8:
        return x * (1.0 - x * (1.0 - x * (1.5 - x * (8.0 / 3.0))))
    if row == 1 and x > -0.1:
        w = math.log(-x) - math.log(-math.log(-x))
    else:
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + (p if row == 0 else -p) - p * p / 3.0
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - x
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * (w + 1.0))
        if denom == 0.0:
            break
        dw = f / denom
        w -= dw
        if abs(dw) <= 1e-14 * (1.0 + abs(w)):
            break
    return w


def _gammainc_scalar(s, x, upper):
    """Q(s, x) if ``upper`` else P(s, x)."""
    if x == 0.0:
        return 1.0 if upper else 0.0
    if x < s + 1.0:
        term = total = 1.0 / s
        k = 0
        while abs(term) > 1e-15 * abs(total) and k < 10_000:
            k += 1
            term *= x / (s + k)
            total += term
        lower = total * math.exp(s * math.log(x) - x - math.lgamma(s))
        return 1.0 - lower if upper else lower
    tiny = 1e-300
    b = x + 1.0 - s
    c, d = 1.0 / tiny, 1.0 / (b if b != 0.0 else tiny)
    h = d
    for i in range(1, 10_000):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if d != 0.0 else tiny)
        c = b + an / c
        c = c if c != 0.0 else tiny
        h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    up = h * math.exp(s * math.log(x) - x - math.lgamma(s))
    return up if upper else 1.0 - up


def test_lambert_array_matches_scalar_iteration():
    xs = np.concatenate([W_POINTS, -np.geomspace(1e-12, E_INV, 60)])
    w = lambert_w(xs)
    for row in (0, 1):
        ref = np.array([_lambert_w_scalar(float(x), row) for x in xs])
        assert np.allclose(w[row], ref, rtol=4e-15, atol=0.0)


def test_gamma_array_matches_scalar_iteration():
    for s in (0.5, 1.0, 3.7, 40.0):
        # both sides of the series / continued-fraction switch at s + 1
        edge = [np.nextafter(s + 1.0, 0.0), s + 1.0, np.nextafter(s + 1.0, math.inf)]
        xs = np.concatenate([[0.0], edge, np.geomspace(1e-8, 300.0, 150)])
        lower = np.array([_gammainc_scalar(s, float(x), False) for x in xs])
        upper = np.array([_gammainc_scalar(s, float(x), True) for x in xs])
        assert np.allclose(_lower(s, xs), lower, rtol=4e-15, atol=0.0)
        assert np.allclose(_upper(s, xs), upper, rtol=4e-15, atol=0.0)
        assert np.allclose(gammainc_tails(s, xs, xs[::-1]), lower + upper[::-1], rtol=4e-15, atol=0.0)
