import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from wpgibbs import (
    AdjointShift,
    Clamped,
    Composite,
    ExpLogSquareConjugate,
    GridKStar,
    Indicator,
    InvalidModeError,
    Linear,
    Power,
    PowerLaw,
    Sum,
    Table,
    UnboundedConjugateError,
    compose_mwg,
    conjugate,
    scale,
)
from wpgibbs import kstar
from wpgibbs.beta import BetaSpec, ExpLogSquare
from dataclasses import dataclass


@dataclass(frozen=True)
class _RawPower(BetaSpec):
    """Uncapped power law, forcing the numeric conjugation path."""

    coefficient: float
    exponent: float

    def _eval(self, s):
        return self.coefficient * s ** (-self.exponent)


@dataclass(frozen=True)
class _RawIndicator(BetaSpec):
    gamma: float

    def _eval(self, s):
        return np.where(s <= 1.0 / self.gamma, 1.0, 0.0)


def test_indicator_conjugate_is_linear():
    k = conjugate(Indicator(gamma=0.3))
    assert isinstance(k, Linear)
    assert k.slope == 0.3


def test_powerlaw_conjugate_closed_form():
    k = conjugate(PowerLaw(coefficient=1.0, exponent=1.0))
    assert isinstance(k, Power)
    # alpha=1, C=1: K*(v) = v^2/4
    assert k(0.2) == pytest.approx(0.01)
    assert k.exponent == 2.0
    assert k.coefficient == pytest.approx(0.25)


def _knots_from(k, v_lo):
    """The v-knots of a numeric conjugate from ``v_lo`` on."""
    vg = np.array(k.v_knots)
    return vg[vg >= v_lo]


def test_numeric_conjugate_matches_linear():
    k = conjugate(_RawIndicator(gamma=0.3))
    assert isinstance(k, GridKStar)
    vg = _knots_from(k, 1e-4)
    err = np.max(np.abs(np.asarray(k(vg)) - 0.3 * vg))
    assert err <= 1e-6


def test_numeric_conjugate_matches_power():
    k = conjugate(_RawPower(1.0, 1.0))
    vg = _knots_from(k, 1e-2)
    exact = vg ** 2 / 4.0
    assert np.max(np.abs(np.asarray(k(vg)) - exact)) <= 1e-6


def test_unbounded_conjugate_raises():
    # beta hitting exactly zero at finite s makes u*(v - 0) unbounded
    dead = Table(knots=((1.0, 0.0),))
    with pytest.raises(UnboundedConjugateError):
        conjugate(dead)


def _golden_max_reference(g, lo, hi, iters=80):
    """Scalar golden-section maximization, one bracket and one g call at a time."""
    a, b = lo, hi
    c = b - kstar._GOLDEN * (b - a)
    d = a + kstar._GOLDEN * (b - a)
    gc, gd = g(c), g(d)
    for _ in range(iters):
        if gc >= gd:
            b, d, gd = d, c, gc
            c = b - kstar._GOLDEN * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + kstar._GOLDEN * (b - a)
            gd = g(d)
    return max(gc, gd, g(0.5 * (a + b)))


def _conjugate_reference(spec, v_grid):
    """Per-v numeric conjugation: grid argmax, then scalar refinement."""
    u = np.geomspace(kstar._U_LO, kstar._U_HI, kstar._U_POINTS)
    beta_at = np.asarray(spec(1.0 / u))
    vals = np.empty_like(v_grid)
    for j, v in enumerate(v_grid):
        obj = u * (v - beta_at)
        i = int(np.argmax(obj))
        if i == len(u) - 1 and obj[-1] > obj[-2]:
            raise UnboundedConjugateError("diverges")
        g = lambda uu: uu * (v - float(spec(1.0 / uu)))
        lo, hi = u[max(i - 1, 0)], u[min(i + 1, len(u) - 1)]
        vals[j] = max(0.0, _golden_max_reference(g, lo, hi), float(obj[i]))
    return kstar._convexify(v_grid, vals)


def _explogsquare_sup_reference(v, c, a, b):
    """K*(v) of c * exp(-(a log s + b)^2) by scipy's bounded scalar
    minimizer.  With u = exp(b/a - w) the objective u * (v - beta(1/u)) is
    exp(b/a - w) * (v - c exp(-a^2 w^2)), positive only past
    w0 = sqrt(log(c/v)) / a; its logarithm is maximized on a bracket far
    wider than the maximizer's distance from w0, so the search never underflows."""
    L = math.log(c / v)
    w0 = math.sqrt(max(L, 0.0)) / a

    def neg_log(w):
        x = L - a * a * w * w
        return w - math.log1p(-math.exp(x)) if x < 0.0 else math.inf

    res = minimize_scalar(neg_log, bounds=(w0, w0 + 40.0 / a + 40.0), method="bounded",
                          options={"xatol": 1e-12})
    return math.exp(b / a + math.log(v) - res.fun)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("b", [-0.5, 0.0, 0.5])
def test_explogsquare_conjugate_matches_an_independent_supremum(a, b):
    """The closed path's per-point search agrees with scipy's maximizer
    within 1e-10 relative, for v from 1e-300 up to the height c.  Below the
    smallest normal double a result keeps fewer than 52 bits, so there the
    1e-10 is taken relative to that smallest normal double."""
    tiny = np.finfo(float).tiny
    for c in (0.25, 0.05):
        v = np.geomspace(1e-300, c, 150)
        got = ExpLogSquareConjugate(c, a, b)(v)
        ref = np.array([_explogsquare_sup_reference(x, c, a, b) for x in v])
        assert np.all(np.abs(got - ref) <= 1e-10 * np.maximum(ref, tiny)), (c, a, b)


_TABLE = Table(knots=((1.0, 0.25), (10.0, 0.1), (100.0, 0.01), (1e4, 1e-4)))


@pytest.mark.parametrize("spec", [
    _TABLE,
    Sum((PowerLaw(0.5, 0.7), PowerLaw(1.2, 0.4), PowerLaw(0.3, 1.3))),
    AdjointShift(PowerLaw(0.8, 0.6)),
    AdjointShift(_TABLE),
    ExpLogSquare(c=0.6, a=1.2, b=0.1),  # c above the cap: numeric path
], ids=["table", "sum", "adjoint-powerlaw", "adjoint-table", "explogsquare-capped"])
def test_conjugate_equals_per_v_reference(spec):
    v_grid = np.geomspace(1e-6, 0.25, 200)
    k = conjugate(spec)
    assert isinstance(k, GridKStar)
    assert np.array_equal(np.array(k.values), _conjugate_reference(spec, v_grid))


def test_chain_linear_product():
    # chaining two indicator profiles composes their linear conjugates
    k1, k2 = conjugate(Indicator(0.5)), conjugate(Indicator(0.4))
    assert isinstance(k1, Linear) and isinstance(k2, Linear)
    v = np.geomspace(1e-6, 0.25, 7)
    assert np.allclose(Composite(outer=k2, inner=k1)(v), 0.2 * v, rtol=1e-12, atol=0.0)


def test_scale_rules():
    assert scale(Linear(0.4), 3.0, 2.0).slope == pytest.approx(0.8)
    p = scale(Power(0.25, 2.0), 2.0, 3.0)
    # c1^(1-e) * c2 * coef = 2^-1 * 3 * 0.25
    assert p.coefficient == pytest.approx(0.375)
    assert p.exponent == 2.0
    # generic wrapper: K~(v) = c1 c2 K(v/c1)
    g = GridKStar(v_knots=(0.1, 0.2), values=(0.01, 0.04))
    s = scale(g, 2.0, 5.0)
    assert s(0.2) == pytest.approx(2.0 * 5.0 * g(0.1))


def test_adjoint_transform_half_argument():
    # the adjoint transform is the scaling by c1 = 2, c2 = 1/2
    k = scale(Linear(0.4), 2.0, 0.5)
    assert k(1.0) == pytest.approx(0.2)
    kp = scale(Power(1.0, 2.0), 2.0, 0.5)
    # K~(v) = K(v/2)
    assert kp(0.2) == pytest.approx((0.1) ** 2)


def test_compose_mwg_full_all_linear():
    k = compose_mwg(Linear(0.5), Linear(0.5), Linear(0.5), mode="full")
    assert isinstance(k, Linear)
    assert k(0.25) == pytest.approx(0.25 / 32.0)
    assert k.slope == pytest.approx(0.5 ** 3 / 4.0)


def test_compose_mwg_order_symmetric_when_linear():
    a = compose_mwg(Linear(0.3), Linear(0.5), Linear(0.7), mode="full")
    b = compose_mwg(Linear(0.3), Linear(0.7), Linear(0.5), mode="full")
    assert a.slope == pytest.approx(b.slope)


def test_compose_mwg_strong():
    k = compose_mwg(Linear(0.8), Linear(0.5), Linear(0.5), mode="strong")
    # 2 * s1 * s2 * gamma/4
    assert k.slope == pytest.approx(2.0 * 0.5 * 0.5 * 0.8 / 4.0)
    with pytest.raises(InvalidModeError):
        compose_mwg(Power(0.25, 2.0), Linear(0.5), Linear(0.5), mode="strong")


def test_compose_mwg_joint_and_marginal():
    kj = compose_mwg(Linear(0.8), None, Linear(0.5), mode="joint_2mg")
    assert kj.slope == pytest.approx(0.8 * 0.5 / 4.0)
    assert kj.n_offset == 0
    km = compose_mwg(Linear(0.8), None, Linear(0.5), mode="marginal_2mg")
    assert km.n_offset == 1
    assert km(1.0) == pytest.approx(0.5 * 0.5 * 0.8)


def test_compose_mwg_bad_mode_and_missing_args():
    with pytest.raises(InvalidModeError):
        compose_mwg(Linear(1.0), Linear(1.0), Linear(1.0), mode="sideways")
    with pytest.raises(InvalidModeError):
        compose_mwg(Linear(1.0), None, Linear(1.0), mode="full")
    with pytest.raises(InvalidModeError):
        compose_mwg(None, Linear(1.0), Linear(1.0), mode="full")


def test_compose_mwg_clamps_oversized_component():
    big = Linear(3.0)  # K*(v) > v: not subunit-verified
    k = compose_mwg(Linear(0.5), Linear(0.5), big, mode="full")
    # clamped component behaves as min(3v, v) = v
    manual = compose_mwg(Linear(0.5), Linear(0.5), Linear(1.0), mode="full")
    assert k(0.2) == pytest.approx(manual(0.2))


def test_subunit_flag():
    assert kstar.check_subunit(Linear(0.9))
    assert not kstar.check_subunit(Linear(1.5))
    assert kstar.check_subunit(Clamped(Linear(1.5)))


def _subunit_scan(k) -> bool:
    """The reference check: K*(v) <= v at 128 points of (0, 1/4]."""
    vv = np.linspace(0.0, 0.25, 129)[1:]
    return bool(np.all(np.asarray(k(vv)) <= vv * (1.0 + 1e-9)))


SUBUNIT_PROFILES = (
    Indicator(gamma=0.3),
    PowerLaw(coefficient=2.0, exponent=0.5),
    PowerLaw(coefficient=0.01, exponent=1.0),  # K*(v) = 25 v^2 passes v at 1/25
    ExpLogSquare(c=0.25, a=1.0, b=0.5),
    Table(knots=((1.0, 0.25), (10.0, 0.05), (1e3, 1e-3))),
    Sum(children=(Indicator(gamma=0.3), PowerLaw(coefficient=1.0, exponent=1.0))),
    AdjointShift(child=PowerLaw(coefficient=1.0, exponent=1.0)),
    _RawPower(1.0, 0.5),
)


@pytest.mark.parametrize("mode", ["full", "strong", "joint_2mg", "marginal_2mg"])
def test_one_point_subunit_check_agrees_with_the_scan(mode):
    """K*(v)/v is nondecreasing, so K*(1/4) <= 1/4 decides K* <= v on
    (0, 1/4] for every family, its scalings and its compositions."""
    guarded = 0
    for spec in SUBUNIT_PROFILES:
        k = conjugate(spec)
        guarded += not kstar.check_subunit(k)
        for fn in (k, scale(k, 4.0, 0.5), Clamped(k), compose_mwg(Linear(0.8), k, k, mode=mode)):
            assert kstar.check_subunit(fn) == _subunit_scan(fn), (spec, fn)
    assert guarded == 1


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=1e-4, max_value=0.25),
    st.floats(min_value=1.01, max_value=3.0),
)
def test_kstar_structure_properties(v, factor):
    """K*(0)=0, nondecreasing, and K*(v)/v nondecreasing for each variant."""
    for k in (
        Linear(0.4),
        Power(0.25, 2.0),
        conjugate(PowerLaw(2.0, 0.5)),
        Composite(outer=Linear(0.5), inner=Power(1.0, 1.5), post_scale=2.0),
    ):
        assert k(0.0) == 0.0
        a, b = k(v), k(min(v * factor, 0.25))
        assert b >= a - 1e-12
        if a > 0:
            assert b / min(v * factor, 0.25) >= a / v - 1e-9


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.05, max_value=1.0), st.floats(min_value=1e-3, max_value=0.25))
def test_conjugate_duality_inequality(gamma, v):
    """Fenchel-Young: u*v <= K(u) + K*(v) for the indicator pair."""
    k = conjugate(Indicator(gamma=gamma))
    for u in np.geomspace(1e-3, 1e3, 25):
        K_u = u * Indicator(gamma=gamma)(1.0 / u)
        assert u * v <= K_u + k(v) + 1e-9
