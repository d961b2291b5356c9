import math
import sys

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
from wpgibbs import RateBound, kstar
from wpgibbs.beta import BetaSpec, ExpLogSquare
from wpgibbs.cases import (BayesBeta2, BayesParams, NIGBeta1, NIGBeta2, NIGParams, OUParams,
                           ou_exp_log_square_envelope)
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


def _on_the_u_grid(table):
    """A Sum of ``table`` and a PowerLaw child too small to move any of its
    values on the u-grid: the profile's values are the Table's, bit for
    bit, but a Sum with a PowerLaw child takes the u-grid path, which the
    Table family itself no longer does."""
    spec = Sum((table, PowerLaw(1e-30, 1.0)))
    s = 1.0 / np.geomspace(kstar._U_LO, kstar._U_HI, kstar._U_POINTS)
    assert np.array_equal(spec(s), table(s))
    return spec


def test_conjugate_raises_when_only_the_last_partial_block_diverges():
    # beta = 0.2 at every s, so u * (v - 0.2) grows to the last u only for
    # v > 0.2: rows 196-199 of the v-grid, all in its last partial block of
    # the 16-row argmax blocks
    flat = _on_the_u_grid(Table(knots=((1e9, 0.2),)))
    assert list(np.nonzero(kstar._V_GRID > 0.2)[0]) == [196, 197, 198, 199]
    assert len(kstar._V_GRID) % 16 == 8
    with pytest.raises(UnboundedConjugateError):
        conjugate(flat)


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
    within 1e-10 relative, for v from 1e-300 up to the height c, wherever
    the reference and the maximum of the objective without its exp(b/a)
    factor are normal doubles.  Below that the package gives 0, so at no v
    does it exceed the reference by more than the 1e-10.  (a, b) = (0.5, 0.5)
    runs on 2,000 v, where the subnormal search erred up to 14% upward."""
    tiny = np.finfo(float).tiny
    for c in (0.25, 0.05):
        v = np.geomspace(1e-300, c, 2000 if (a, b) == (0.5, 0.5) else 150)
        got = ExpLogSquareConjugate(c, a, b)(v)
        ref = np.array([_explogsquare_sup_reference(x, c, a, b) for x in v])
        assert np.all(got <= ref * (1.0 + 1e-10)), (c, a, b)
        normal = ref * min(1.0, math.exp(-b / a)) >= tiny
        assert np.all(np.abs(got - ref)[normal] <= 1e-10 * ref[normal]), (c, a, b)


_TABLE = Table(knots=((1.0, 0.25), (10.0, 0.1), (100.0, 0.01), (1e4, 1e-4)))
_G = float(kstar._V_GRID[120])
_NIG = NIGParams(beta_hyper=1.0, sigma0=0.5)
# an ill-conditioned design: C1 C2 = 1.7e8 holds the profile at its cap 1/4
# over the whole u-grid
_BAYES_CAPPED = BayesParams(a=2.5, b=1.0, sigma0=0.3, Y=[0.3, -0.1, 0.8, 0.2, -0.9],
                            X=[[1.0, 0.0], [1.0, 0.01], [1.0, 0.02], [1.0, -0.01], [1.0, 0.015]])


@pytest.mark.parametrize("spec,live", [
    (_on_the_u_grid(_TABLE), 126),
    (Sum((PowerLaw(0.5, 0.7), PowerLaw(1.2, 0.4), PowerLaw(0.3, 1.3))), 93),
    (AdjointShift(PowerLaw(0.8, 0.6)), 159),
    (AdjointShift(_on_the_u_grid(_TABLE)), 126),
    (ExpLogSquare(c=0.6, a=1.2, b=0.1), 200),  # c above the cap: numeric path
    (NIGBeta1(_NIG), 0),
    (BayesBeta2(_BAYES_CAPPED), 0),
    (NIGBeta2(_NIG), 44),
    # values that rise by 1e-15, as Table's validator allows, on both sides
    # of the grid v _G, which the profile reaches at s = 100 and keeps to 1e8
    (_on_the_u_grid(Table(knots=((1.0, 0.25), (10.0, _G + 1e-15), (100.0, _G),
                                 (200.0, _G + 1e-15)))), 79),
], ids=["table", "sum", "adjoint-powerlaw", "adjoint-table", "explogsquare-capped",
        "nig1", "bayes-capped", "nig2", "table-rising"])
def test_conjugate_equals_per_v_reference(monkeypatch, spec, live):
    """The knots are those of the per-v reference, which refines every row,
    while only the ``live`` rows, those with v > beta(1/lo), reach the
    golden-section search.  With no live row the profile is evaluated once,
    on the u-grid."""
    refined, evaluated = [], []
    golden, evaluate = kstar._golden_max, type(spec)._eval

    def counted_golden(g, lo, hi):
        refined.append(len(lo))
        return golden(g, lo, hi)

    def counted_eval(self, s):
        evaluated.append(len(s))
        return evaluate(self, s)

    monkeypatch.setattr(kstar, "_golden_max", counted_golden)
    monkeypatch.setattr(type(spec), "_eval", counted_eval)
    k = conjugate(spec)
    assert isinstance(k, GridKStar)
    assert refined == ([live] if live else [])
    if not live:
        assert evaluated == [kstar._U_POINTS]
    monkeypatch.undo()
    assert np.array_equal(np.array(k.values), _conjugate_reference(spec, kstar._V_GRID))


def _golden_max_80(g, lo, hi):
    """``_golden_max`` without its stop: the vectorised body, all 80 steps."""
    a, b = lo, hi
    c = b - kstar._GOLDEN * (b - a)
    d = a + kstar._GOLDEN * (b - a)
    gc, gd = g(c), g(d)
    for _ in range(80):
        left = gc >= gd
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        new = np.where(left, b - kstar._GOLDEN * (b - a), a + kstar._GOLDEN * (b - a))
        g_new = g(new)
        c, d = np.where(left, new, d), np.where(left, c, new)
        gc, gd = np.where(left, g_new, gd), np.where(left, gc, g_new)
    return np.maximum(np.maximum(gc, gd), g(0.5 * (a + b)))


def _searches(monkeypatch, run):
    """The (g, lo, hi) of every golden-section search that ``run()`` makes."""
    seen, golden = [], kstar._golden_max

    def record(g, lo, hi):
        seen.append((g, lo, hi))
        return golden(g, lo, hi)

    with monkeypatch.context() as m:
        m.setattr(kstar, "_golden_max", record)
        run()
    return seen


def _same_as_80_steps(g, lo, hi) -> int:
    """Asserts that ``_golden_max`` gives the bytes of all 80 steps and
    returns its count of g calls."""
    calls = []

    def counted(x):
        calls.append(len(x))
        return g(x)

    got = kstar._golden_max(counted, lo, hi)
    assert got.tobytes() == _golden_max_80(g, lo, hi).tobytes()
    return len(calls)


_OU = OUParams(mu0=0.5, tau0=1.0, times=(0.0, 0.5, 1.0, 1.5), obs=(0.2, 0.1, 0.3, -0.1), M=16)
_BAYES = BayesParams(a=2.5, b=1.0, sigma0=0.3, Y=[0.3, -0.1, 0.8, 0.2, -0.9],
                     X=[[1.0, 0.2], [1.0, -0.4], [1.0, 0.9], [1.0, 0.1], [1.0, -1.2]])


@pytest.mark.parametrize("spec", [
    BayesBeta2(_BAYES),
    NIGBeta2(_NIG),
    ou_exp_log_square_envelope(_OU),
    Sum((PowerLaw(0.5, 0.7), PowerLaw(1.2, 0.4), PowerLaw(0.3, 1.3))),
    AdjointShift(PowerLaw(0.8, 0.6)),
], ids=["bayes", "nig2", "ou-envelope", "sum", "adjoint-powerlaw"])
def test_the_u_grid_search_stops_at_its_cycle_bit_for_bit(monkeypatch, spec):
    """Each u-grid bracket spans two grid steps, so every row's search
    reaches its period-2 cycle well before step 80: at most 75 profile
    calls, not 83, with the bytes of all 80 steps."""
    (search,) = _searches(monkeypatch, lambda: conjugate(spec))
    assert len(search[1]) > 0
    assert _same_as_80_steps(*search) <= 75


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (1.0, 0.2), (2.0, -0.5)])
def test_wide_brackets_keep_all_80_steps(monkeypatch, a, b):
    """ExpLogSquareConjugate's brackets span 10 + 5 / a^2 and never cycle
    within 80 steps: all 83 calls."""
    k = ExpLogSquareConjugate(0.25, a, b)
    (search,) = _searches(monkeypatch, lambda: k(np.geomspace(1e-300, 0.25, 150)))
    assert _same_as_80_steps(*search) == 83


def _objective(v, c, alpha):
    """u (v - c u^alpha): a power law's objective on u."""
    return lambda u: u * (v - c * u ** alpha)


def test_non_finite_values_and_degenerate_brackets_match_80_steps():
    """g NaN on some rows and +-inf on others, rows with lo == hi, a single
    row, and rows that reach their cycles far apart: the same bytes as all
    80 steps."""
    rows = 8
    lo = np.geomspace(1e-3, 1e3, rows)
    hi = lo * 1.018
    nan, pinf, ninf = (np.arange(rows) % 4 == k for k in (1, 2, 3))
    finite = _objective(0.05, 0.4, 0.7)

    def g(u):
        return np.where(nan, np.nan, np.where(pinf, np.inf, np.where(ninf, -np.inf, finite(u))))

    _same_as_80_steps(g, lo, hi)
    hi[::2] = lo[::2]
    _same_as_80_steps(finite, lo, hi)
    assert _same_as_80_steps(finite, lo, lo.copy()) == 5
    # the single row brackets the objective's maximizer by two u-grid steps
    top = (0.05 / (1.7 * 0.4)) ** (1.0 / 0.7)
    assert _same_as_80_steps(finite, np.array([top / 1.009]), np.array([top * 1.009])) <= 75
    # row 0 cycles within a few steps while row 1, where the objective
    # falls, keeps its a and shrinks its b: the stop waits for row 1
    lo, hi = np.array([top / 1.02, 10.0 * top]), np.array([top / 1.02 * (1.0 + 1e-14), 100.0 * top])
    _same_as_80_steps(finite, lo, hi)


def test_a_table_dip_between_u_points_reads_zero_below_the_reference():
    """The live rule rests on beta being nonincreasing.  Table admits values
    that rise by up to 1e-15, so a profile may dip below a grid v strictly
    between the first two u-grid points and nowhere on the grid.  That row
    is dead by the rule and its knot is 0, where refinement finds an
    objective of about 4e-24: the conjugate is lower there and equal
    elsewhere, which only loosens the bound."""
    u = np.geomspace(kstar._U_LO, kstar._U_HI, kstar._U_POINTS)
    s0, s1 = 1.0 / u[1], 1.0 / u[0]
    spec = _on_the_u_grid(Table(knots=((1.0, 0.25), (s0 * (1.0 + 1e-7), _G + 5e-16),
                                       ((s0 + s1) / 2.0, _G - 4e-16),
                                       (s1 * (1.0 - 1e-7), _G + 5e-16))))
    got = np.array(conjugate(spec).values)
    ref = _conjugate_reference(spec, kstar._V_GRID)
    assert np.all(got <= ref)
    assert np.flatnonzero(got != ref).tolist() == [120]
    assert got[120] == 0.0 < ref[120] < 1e-23


# Table-family profiles, whose K* is exact: knots that rise by 1e-15, a
# segment across the cap 1/4, an AdjointShift with its jump at s = 1, a Sum
# of Tables with interleaved knots, and a Table whose last value is 0
_EXACT = {
    "rising": Table(knots=((1.0, 0.25), (10.0, _G + 1e-15), (100.0, _G), (200.0, _G + 1e-15))),
    "cap": Table(knots=((0.5, 0.4), (2.0, 0.1), (30.0, 0.02), (400.0, 1e-3))),
    "shift": AdjointShift(Table(knots=((0.8, 0.25), (12.0, 0.08), (150.0, 0.01), (2e3, 1e-3),
                                       (3e4, 2e-5)))),
    "sum": Sum((Table(knots=((1.0, 0.2), (7.0, 0.05), (90.0, 0.004))),
                Table(knots=((0.5, 0.25), (3.0, 0.1), (40.0, 0.01), (500.0, 5e-4))))),
    "zero": Table(knots=((1.0, 0.25), (10.0, 0.05), (100.0, 0.0))),
}


def _knot_s(spec):
    """Every s where a profile of _EXACT bends or jumps, but the cap's
    crossings: its Table knots, moved by 1 under an AdjointShift, and s = 1
    there."""
    if isinstance(spec, Table):
        return [s for s, _ in spec.knots]
    if isinstance(spec, AdjointShift):
        return [1.0] + [s + 1.0 for s in _knot_s(spec.child)]
    return [s for child in spec.children for s in _knot_s(child)]


@pytest.mark.parametrize("name", sorted(_EXACT))
def test_table_family_conjugate_is_the_brute_supremum(name):
    """K*(v) = sup_u u (v - beta(1/u)) against its maximum over a dense
    grid of s = 1/u that holds every knot s_i and the double just above it,
    where an AdjointShift takes its right limit at s = 1.  One ulp of the
    objective (v - beta(s)) / s is spacing(v) / s.  At K*'s knots the grid's
    maximum never exceeds K* by more than one ulp; between them, where K*
    is interpolated, by more than two.  Nor is K* above the grid's maximum
    by more than four, the limit at the jump included: the formula's
    supremum sits at the knots.  Where a segment crosses the cap, the
    break's line (v - 1/4) / s is not positive for v <= 1/4, so the grid
    needs no point there."""
    spec = _EXACT[name]
    k = conjugate(spec)
    assert isinstance(k, kstar.PiecewiseLinear)
    knots = np.array(_knot_s(spec))
    s = np.unique(np.concatenate([np.geomspace(1e-3, 1e7, 4001), knots,
                                  np.nextafter(knots, np.inf)]))
    b = spec(s)
    at_knots = np.array([v for v in k.v_knots if v <= 0.25])
    assert at_knots[-1] == 0.25
    between = np.geomspace(1e-9, 0.25, 300)
    for v, ulps in ((at_knots, 1.0), (between, 2.0)):
        got = k(v)
        obj = (v[:, None] - b) / s
        ulp = np.spacing(v)[:, None] / s
        assert np.all(obj <= got[:, None] + ulps * ulp), name
        best = obj.argmax(axis=1)
        top = np.maximum(obj[np.arange(len(v)), best], 0.0)
        assert np.all(got <= top + 4.0 * ulp[np.arange(len(v)), best]), name
    # the formula is 0 from the smallest value down, and nowhere else
    assert k(np.nextafter(k.v_knots[0], 0.0)) == 0.0 < k(k.v_knots[0] + 1e-12)


def test_table_curve_with_a_last_value_of_zero_stays_positive():
    """A Table that ends at 0 has K*(v) = v / s_last near 0: the curve falls
    geometrically with no floor, and stays in (0, 1/4] past underflow."""
    rb = RateBound(conjugate(_EXACT["zero"]))
    ns = [0, 1, 10, 100, 1000, 10 ** 4, 10 ** 5, 10 ** 6, 10 ** 9]
    got = rb.curve(ns)
    assert np.all((got > 0.0) & (got <= 0.25)) and np.all(np.diff(got) <= 0.0)
    assert got[-1] == sys.float_info.min and not rb.saturated


def test_a_table_outside_the_cap_is_unbounded():
    """beta(0+) below 1/4 leaves K* infinite on part of (0, 1/4]: a Table
    whose first value is 0.2, a Sum of two such Tables at 0.1 each."""
    for spec in (Table(knots=((1.0, 0.2), (10.0, 0.01))),
                 Sum((Table(knots=((1.0, 0.1),)), Table(knots=((2.0, 0.1), (9.0, 0.0)))))):
        with pytest.raises(UnboundedConjugateError):
            conjugate(spec)


@pytest.mark.parametrize("steep", [False, True], ids=["shift", "steep"])
@pytest.mark.parametrize("mode", ["full", "strong", "joint_2mg", "marginal_2mg"])
def test_compose_keeps_a_table_conjugate_piecewise_linear(mode, steep):
    """With linear K0 and K1, compose_mwg scales K2's knots: the result is
    piecewise linear, equal to the Composite tree of the same parts, and
    offset as the mode says.  The steep Table's K* passes v below 1/4, so
    its guard min(K*(v), v) ends in a knot on v = K*(v) and one at 1/4."""
    spec = Table(knots=((0.2, 0.25), (0.5, 0.05), (20.0, 1e-3))) if steep else _EXACT["shift"]
    k2 = conjugate(spec)
    assert kstar.check_subunit(k2) != steep
    k0, k1 = Linear(0.7), (Linear(0.6) if mode in ("full", "strong") else None)
    k = compose_mwg(k0, k1, k2, mode=mode)
    pl = k.outer if mode == "marginal_2mg" else k
    assert isinstance(pl, kstar.PiecewiseLinear) and k.n_offset == (mode == "marginal_2mg")
    assert RateBound(k)._cf[0] == "pl"
    pre, post, wraps, outer, _ = kstar._MODES[mode]
    k2g = Clamped(k2) if steep else k2
    node = Composite(outer=k0, pre_scale=pre, post_scale=post)
    tree = (Composite(outer=k1, inner=Composite(outer=k2g, inner=node), post_scale=outer)
            if wraps else Composite(outer=k2g, inner=node, post_scale=outer))
    v = np.concatenate([np.geomspace(1e-9, 1.0, 500), pl.v_knots])
    assert np.allclose(k(v), tree(v), rtol=1e-13, atol=1e-300)
    guarded = k2.clamped() if steep else k2
    cross = [x for x, y in zip(guarded.v_knots, guarded.values) if x == y]
    assert len(cross) == 2 * steep and (not steep or cross[-1] == 0.25)


@pytest.mark.parametrize("v_knots,values,crossing", [
    ((0.05, 0.1, 0.3), (0.0, 0.09, 0.45), 0.1125),  # on the segment to the knot over v
    ((0.05, 0.1), (0.0, 0.09), 0.1125),  # on the continuation past the last knot
])
def test_clamped_piecewise_linear_ends_on_v_from_its_crossing(v_knots, values, crossing):
    """min(K*(v), v) as knots: K* = 1.8 (v - 0.05) passes v at 0.1125, and
    from there the result is v, through a knot at 1/4."""
    k = kstar.PiecewiseLinear(v_knots, values)
    c = k.clamped()
    assert c.v_knots == pytest.approx((0.05, 0.1, crossing, 0.25), rel=1e-15)
    assert c.values[2:] == c.v_knots[2:]
    v = np.linspace(0.0, 1.0, 401)
    assert np.allclose(c(v), np.minimum(k(v), v), rtol=1e-14, atol=1e-17)


def test_grid_and_piecewise_linear_through_the_same_knots_agree_bit_for_bit():
    """A GridKStar is the PiecewiseLinear through (0, 0) and its knots: one
    interpolation reads both, at the knots, between them and past the last."""
    x = np.geomspace(1e-4, 0.2, 9)
    y = 0.3 * x ** 1.5
    grid = GridKStar(tuple(x.tolist()), tuple(y.tolist()))
    pl = kstar.PiecewiseLinear((0.0, *x.tolist()), (0.0, *y.tolist()))
    v = np.concatenate([[0.0, 5e-5], x, 0.5 * (x[1:] + x[:-1]), [0.21, 0.25, 1.0, 3.0]])
    assert grid(v).tobytes() == pl(v).tobytes()
    assert [grid(t) for t in v.tolist()] == [pl(t) for t in v.tolist()]


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
