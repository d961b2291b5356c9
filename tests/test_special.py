import math

import numpy as np
import pytest
import scipy.special as sps

from wpgibbs.errors import DomainError
from wpgibbs.special import gammainc_lower, gammainc_tails, gammainc_upper, lambert_w


def test_lambert_principal_identity():
    for x in np.concatenate([np.geomspace(1e-6, 1e6, 60), [-1.0 / math.e + 1e-9, 0.0]]):
        w = lambert_w(x, branch="principal")
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))


def test_lambert_minus_one_identity():
    for x in -np.geomspace(1e-8, 1.0 / math.e - 1e-12, 60):
        w = lambert_w(x, branch="minus_one")
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))
        assert w <= -1.0


def test_lambert_matches_scipy():
    xs = np.geomspace(1e-4, 1e4, 40)
    for x in xs:
        assert lambert_w(x) == pytest.approx(float(sps.lambertw(x).real), rel=1e-12)
    for x in -np.geomspace(1e-6, 0.3, 40):
        assert lambert_w(x, branch="minus_one") == pytest.approx(
            float(sps.lambertw(x, -1).real), rel=1e-10
        )


def test_lambert_domain_errors():
    with pytest.raises(DomainError):
        lambert_w(-1.0)
    with pytest.raises(DomainError):
        lambert_w(-0.5, branch="minus_one")
    with pytest.raises(DomainError):
        lambert_w(0.1, branch="minus_one")


def test_gamma_pieces_sum_to_gamma():
    for s in (0.5, 1.0, 2.5):
        for x in np.linspace(0.0, 50.0, 26):
            total = gammainc_lower(s, x) + gammainc_upper(s, x)
            assert total == pytest.approx(math.gamma(s), abs=1e-10)


def test_gamma_pieces_match_scipy():
    for s in (0.5, 1.3, 2.5, 4.0):
        g = math.gamma(s)
        for x in (0.01, 0.5, 2.0, 10.0, 40.0):
            assert gammainc_lower(s, x) == pytest.approx(g * sps.gammainc(s, x), rel=1e-10)
            assert gammainc_upper(s, x) == pytest.approx(
                g * sps.gammaincc(s, x), rel=1e-10, abs=1e-300
            )


def test_gamma_edge_cases():
    assert gammainc_lower(1.5, 0.0) == 0.0
    assert gammainc_upper(1.5, 0.0) == pytest.approx(math.gamma(1.5))
    with pytest.raises(DomainError):
        gammainc_lower(-1.0, 1.0)
    with pytest.raises(DomainError):
        gammainc_upper(1.0, -1.0)


# W0 seeds: log asymptotics above e, x/(1+x) on (0, e], the branch-point
# series below 0; W_{-1} seeds: log asymptotics above -0.1, the series below
W0_POINTS = np.array([0.0, -1.0 / math.e, -0.3, -1e-9, 1e-300, 0.5, math.e, 3.0, 1e6, 1e300])
WM1_POINTS = np.array([-1.0 / math.e, -0.3, -0.1, -0.0999, -1e-5, -1e-300])


def test_lambert_array_equals_scalar_calls():
    for branch, xs in (("principal", W0_POINTS), ("minus_one", WM1_POINTS)):
        w = lambert_w(xs, branch)
        assert isinstance(w, np.ndarray) and w.shape == xs.shape
        assert np.array_equal(w, [lambert_w(float(x), branch) for x in xs])
        assert isinstance(lambert_w(float(xs[1]), branch), float)
    assert lambert_w(0.0) == 0.0
    assert lambert_w(-1.0 / math.e) == -1.0
    assert lambert_w(-1.0 / math.e, branch="minus_one") == -1.0
    grid = W0_POINTS.reshape(2, 5)
    assert np.array_equal(lambert_w(grid), lambert_w(W0_POINTS).reshape(2, 5))
    for branch in ("principal", "minus_one"):
        empty = lambert_w(np.array([]), branch)
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)


def test_lambert_branches_in_one_loop_equal_per_branch_calls():
    # x = -1/e (both branches meet at -1), just past it (clamped onto it),
    # every seed region of both branches and a grid over [-1/e, 0)
    xs = np.concatenate([WM1_POINTS, [-1.0 / math.e - 1e-16],
                         -np.geomspace(1e-300, 1.0 / math.e, 200)])
    both = lambert_w(xs, ("principal", "minus_one"))
    assert both.shape == (2,) + xs.shape
    assert np.array_equal(both[0], lambert_w(xs, "principal"))
    assert np.array_equal(both[1], lambert_w(xs, "minus_one"))
    grid = xs[:6].reshape(2, 3)
    assert np.array_equal(lambert_w(grid, ("minus_one", "principal")),
                          [lambert_w(grid, "minus_one"), lambert_w(grid, "principal")])
    # x = 0 and x > 0 only on the principal branch
    assert np.array_equal(lambert_w(W0_POINTS, ("principal",)), [lambert_w(W0_POINTS)])
    assert np.array_equal(lambert_w(-0.2, ("principal", "minus_one")),
                          [lambert_w(-0.2), lambert_w(-0.2, "minus_one")])
    assert lambert_w(np.array([]), ("principal", "minus_one")).shape == (2, 0)
    with pytest.raises(DomainError):
        lambert_w(np.array([-0.2, 0.0]), ("principal", "minus_one"))
    with pytest.raises(DomainError):
        lambert_w(0.5, ("principal", "minus_two"))


def test_gamma_tails_equal_the_two_piece_calls():
    # x = 0, the series below s + 1, x = s + 1 exactly, the continued
    # fraction above it, and lo and hi in different regions at one point
    rng = np.random.default_rng(3)
    for s in (0.5, 1.0, 2.5, 40.0):
        pts = np.array([0.0, 1e-300, 1e-12, 0.3 * (s + 1.0), s + 1.0 - 1e-9, s + 1.0,
                        2.0 * s + 5.0, 700.0])
        lo, hi = np.meshgrid(pts, pts)
        lo = np.concatenate([lo.ravel(), rng.uniform(0.0, 3.0 * s + 5.0, 200)])
        hi = np.concatenate([hi.ravel(), rng.uniform(0.0, 3.0 * s + 5.0, 200)])
        got = gammainc_tails(s, lo, hi)
        assert np.array_equal(got, gammainc_lower(s, lo) + gammainc_upper(s, hi))
        for i in range(0, lo.size, 13):  # a scalar call is the array pass at one point
            assert gammainc_tails(s, float(lo[i]), float(hi[i])) == got[i]
        assert isinstance(gammainc_tails(s, 1.0, 2.0), float)
        assert gammainc_tails(s, np.array([]), np.array([])).shape == (0,)
    ss = np.array([0.5, 1.0, 2.5, 4.0])
    xs = np.array([0.0, 0.7, 3.5, 9.0])
    assert np.array_equal(gammainc_tails(ss, xs, xs[::-1]),
                          gammainc_lower(ss, xs) + gammainc_upper(ss, xs[::-1]))
    assert np.array_equal(gammainc_tails(ss[:, None], xs, 2.0),
                          gammainc_lower(ss[:, None], xs) + gammainc_upper(ss[:, None], 2.0))


def test_non_finite_inputs_raise():
    for x in (math.inf, -math.inf, np.array([0.5, math.inf]), np.array([-0.2, -math.inf])):
        for branch in ("principal", "minus_one", ("principal", "minus_one")):
            with pytest.raises(DomainError):
                lambert_w(x, branch)
    for s, x in ((0.5, math.inf), (math.inf, 1.0), (0.5, np.array([1.0, math.inf])),
                 (np.array([0.5, math.inf]), 1.0)):
        for fn in (gammainc_lower, gammainc_upper):
            with pytest.raises(DomainError):
                fn(s, x)
        with pytest.raises(DomainError):
            gammainc_tails(s, x, 1.0)
        with pytest.raises(DomainError):
            gammainc_tails(s, 1.0, x)


def test_lambert_array_matches_scipy_across_seed_regions():
    # W is ill-conditioned at the branch point, so the grids stop 1e-6 short
    w0 = np.concatenate([-np.geomspace(1e-12, 1.0 / math.e - 1e-6, 50), np.geomspace(1e-8, 1e8, 80)])
    assert np.allclose(lambert_w(w0), sps.lambertw(w0).real, rtol=1e-12, atol=0.0)
    wm1 = -np.geomspace(1e-12, 1.0 / math.e - 1e-6, 80)
    assert np.allclose(lambert_w(wm1, "minus_one"), sps.lambertw(wm1, -1).real,
                       rtol=1e-10, atol=0.0)


def test_lambert_one_bad_element_raises():
    with pytest.raises(DomainError):
        lambert_w(np.array([0.5, -1.0, 2.0]))
    with pytest.raises(DomainError):
        lambert_w(np.array([0.5, np.nan]))
    with pytest.raises(DomainError):
        lambert_w(np.array([-0.2, 0.0]), branch="minus_one")


def test_gamma_array_equals_scalar_calls():
    # x = 0, the series below s + 1, the continued fraction from s + 1 on
    for s in (0.5, 2.5, 30.0):
        xs = np.array([0.0, 1e-12, 0.3 * (s + 1.0), s + 1.0 - 1e-9, s + 1.0, 2.0 * s + 5.0, 700.0])
        for fn in (gammainc_lower, gammainc_upper):
            vals = fn(s, xs)
            assert isinstance(vals, np.ndarray) and vals.shape == xs.shape
            assert np.array_equal(vals, [fn(s, float(x)) for x in xs])
            assert isinstance(fn(s, float(xs[2])), float)
            assert fn(s, np.array([])).shape == (0,)
    ss = np.array([0.5, 1.0, 2.5, 4.0])
    xs = np.array([0.0, 0.7, 3.0, 9.0])
    for fn in (gammainc_lower, gammainc_upper):
        assert np.array_equal(fn(ss, xs), [fn(float(s), float(x)) for s, x in zip(ss, xs)])
        assert np.array_equal(fn(ss[:, None], xs[None, :]),
                              [[fn(float(s), float(x)) for x in xs] for s in ss])


def test_gamma_array_matches_scipy():
    xs = np.concatenate([[0.0], np.geomspace(1e-6, 80.0, 120)])
    for s in (0.5, 1.3, 7.0):
        g = math.gamma(s)
        assert np.allclose(gammainc_lower(s, xs), g * sps.gammainc(s, xs), rtol=1e-10, atol=0.0)
        assert np.allclose(gammainc_upper(s, xs), g * sps.gammaincc(s, xs),
                           rtol=1e-10, atol=1e-300)


def test_gamma_one_bad_element_raises():
    with pytest.raises(DomainError):
        gammainc_lower(0.5, np.array([1.0, -1e-3]))
    with pytest.raises(DomainError):
        gammainc_upper(np.array([0.5, 0.0]), 1.0)
    with pytest.raises(DomainError):
        gammainc_upper(0.5, np.array([1.0, np.nan]))


# The scalar iterations, one point at a time in math-module arithmetic, as
# the reference for the lockstep array code: same seeds, same updates, same
# stopping rules, so they differ only by np.exp/np.log against math.exp/log.


def _lambert_w_scalar(x, branch):
    x = max(x, -1.0 / math.e)
    if x == 0.0:
        return 0.0
    if abs(x + math.exp(-1.0)) < 1e-300:
        return -1.0
    if branch == "principal" and x > math.e:
        w = math.log(x) - math.log(math.log(x))
    elif branch == "principal" and x > 0.0:
        w = x / (1.0 + x)
    elif branch == "minus_one" and x > -0.1:
        w = math.log(-x) - math.log(-math.log(-x))
    else:
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + (p if branch == "principal" else -p) - p * p / 3.0
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
    if x == 0.0:
        return math.gamma(s) if upper else 0.0
    if x < s + 1.0:
        term = total = 1.0 / s
        k = 0
        while abs(term) > 1e-15 * abs(total) and k < 10_000:
            k += 1
            term *= x / (s + k)
            total += term
        lower = total * math.exp(s * math.log(x) - x)
        return math.gamma(s) - lower if upper else lower
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
    up = h * math.exp(s * math.log(x) - x)
    return up if upper else math.gamma(s) - up


def test_lambert_array_matches_scalar_iteration():
    xs = np.concatenate([W0_POINTS, -np.geomspace(1e-12, 1.0 / math.e, 60), np.geomspace(1e-9, 1e9, 60)])
    ref = np.array([_lambert_w_scalar(float(x), "principal") for x in xs])
    assert np.allclose(lambert_w(xs), ref, rtol=4e-15, atol=0.0)
    xm = np.concatenate([WM1_POINTS, -np.geomspace(1e-12, 1.0 / math.e, 60)])
    ref = np.array([_lambert_w_scalar(float(x), "minus_one") for x in xm])
    assert np.allclose(lambert_w(xm, "minus_one"), ref, rtol=4e-15, atol=0.0)


def test_gamma_array_matches_scalar_iteration():
    xs = np.concatenate([[0.0], np.geomspace(1e-8, 300.0, 150)])
    for s in (0.5, 1.0, 3.7, 40.0):
        for fn, upper in ((gammainc_lower, False), (gammainc_upper, True)):
            ref = np.array([_gammainc_scalar(s, float(x), upper) for x in xs])
            assert np.allclose(fn(s, xs), ref, rtol=4e-15, atol=0.0)
