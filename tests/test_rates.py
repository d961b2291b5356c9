import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpgibbs import (
    AdjointShift,
    Clamped,
    ExpLogSquareConjugate,
    GridKStar,
    Linear,
    Power,
    PowerLaw,
    RateBound,
    Sum,
    Table,
    compose_mwg,
    conjugate,
)
from wpgibbs.kstar import Composite
from wpgibbs.rates import _GRID_POINTS, _REL_TOL, X_MAX


def test_linear_closed_form():
    rb = RateBound(Linear(0.3))
    for n in (0, 1, 5, 50):
        assert rb.rate_bound(n) == pytest.approx(0.25 * math.exp(-0.3 * n), abs=1e-15)


def test_linear_closed_form_never_underflows_to_zero():
    # 1/4 exp(-slope * m) is below the smallest normal double here; the
    # bound must stay positive and no smaller than that true value
    cases = ((Linear(1.0), 1.0, 800), (Composite(Linear(2.0), offset=1), 2.0, 600))
    for k, slope, n in cases:
        rb = RateBound(k)
        b = rb.rate_bound(n)
        assert b == sys.float_info.min
        assert math.log(b) >= math.log(X_MAX) - slope * (n - k.n_offset)
        assert 0.0 < rb.rate_bound(n + 1000) <= b


def test_power_closed_form():
    # K*(v) = v^2/4: F_inv(n) = (n/4 + 4)^-1
    rb = RateBound(Power(0.25, 2.0))
    assert rb.rate_bound(16) == pytest.approx(0.125)
    assert rb.rate_bound(0) == 0.25


def test_power_closed_form_F_is_inf_past_the_largest_double():
    rb = RateBound(Power(1.0, 300.0))
    assert rb.F(1e-3) == math.inf  # 1e-3 ** -299 overflows a double
    x = 0.2  # 0.2 ** -299 is about 1e209
    assert rb.F(x) == (x ** -299.0 - X_MAX ** -299.0) / 299.0


def test_numeric_matches_linear_closed_form():
    grid = np.geomspace(1e-8, 0.25, 2000)
    k = GridKStar(v_knots=tuple(grid), values=tuple(0.3 * grid))
    rb = RateBound(k)
    exact = RateBound(Linear(0.3))
    for n in (1, 3, 10, 30):
        assert rb.rate_bound(n) == pytest.approx(exact.rate_bound(n), rel=1e-4)


def test_rate_bound_monotone_nonincreasing():
    rb = RateBound(Power(0.1, 1.5))
    vals = [rb.rate_bound(n) for n in range(0, 100)]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[0] == 0.25


def test_n_offset_delays_decay():
    k = compose_mwg(Linear(0.8), None, Linear(0.5), mode="marginal_2mg")
    rb = RateBound(k)
    assert rb.rate_bound(0) == 0.25
    assert rb.rate_bound(1) == 0.25
    assert rb.rate_bound(2) < 0.25
    # offset shifts the linear decay by one step
    plain = RateBound(Linear(k(1.0)))
    assert rb.rate_bound(5) == pytest.approx(plain.rate_bound(4))


def test_saturation_floor_flag():
    # a curve that is exactly zero below a threshold exhausts the integral
    # table: bounds below the floor are reported at the floor with the flag set.
    grid = np.geomspace(1e-8, 0.25, 500)
    k = GridKStar(
        v_knots=tuple(grid),
        values=tuple(np.where(grid < 0.01, 0.0, 0.3 * grid)),
    )
    rb = RateBound(k)
    out = rb.rate_bound(1000)
    assert rb.saturated
    assert 0 < out <= 0.25


def test_curve_and_csv(tmp_path):
    rb = RateBound(Linear(0.2))
    n_grid = [0, 1, 2, 4]
    curve = rb.curve(n_grid)
    assert len(curve) == 4
    path = tmp_path / "bound.csv"
    rb.write_csv(path, n_grid)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,bound"
    assert float(lines[1].split(",")[1]) == 0.25


def test_write_csv_leaves_no_file_when_a_point_fails(tmp_path, monkeypatch):
    rb = RateBound(Linear(0.2))

    def fails_at_5(m):
        if 5.0 in m:
            raise OverflowError("n = 5")
        return np.full_like(m, 0.25)

    # curve inverts every point in one call to _inverse
    monkeypatch.setattr(rb, "_inverse", fails_at_5)
    with pytest.raises(OverflowError):
        rb.write_csv(tmp_path / "bound.csv", [0, 1, 5, 10])
    assert not (tmp_path / "bound.csv").exists()


def _curve_cases():
    grid = np.geomspace(1e-8, 0.25, 500)
    saturating = GridKStar(v_knots=tuple(grid),
                           values=tuple(np.where(grid < 0.01, 0.0, 0.3 * grid)))
    plain = GridKStar(v_knots=tuple(grid), values=tuple(0.3 * grid))
    for name, k in (("linear", Linear(0.3)), ("linear-underflow", Linear(2.0)),
                    ("power", Power(0.1, 1.7)),
                    ("numeric", plain), ("numeric-saturating", saturating)):
        yield name, k
        yield name + "-offset", Composite(k, offset=1)


def test_curve_equals_rate_bound_point_by_point():
    # linear, power and numeric paths (a power K* behind an offset takes the
    # numeric one), offsets 0 and 1, n = 0, floats that curve truncates, and
    # levels past each table's top
    ns = [0, 1, 2, 3, 7, 50, 200, 1000, 10 ** 4, 10 ** 6, 10 ** 9]
    for name, k in _curve_cases():
        rb, ref = RateBound(k), RateBound(k)
        got = rb.curve(ns)
        want = [ref.rate_bound(n) for n in ns]
        assert isinstance(got, np.ndarray) and got.dtype == float
        assert list(got) == want, name
        assert rb.saturated == ref.saturated == name.startswith("numeric"), name
        assert got[0] == X_MAX and (got[1] == X_MAX) == bool(k.n_offset), name
        assert list(RateBound(k).curve([n + 0.9 for n in ns])) == want, name
        assert RateBound(k).curve([]).shape == (0,)
    # the flag is set once a level passes the table's top (near 88 for the
    # plain table with its floor at x_min, near 11 for the saturating one)
    cases = dict(_curve_cases())
    for name, below in (("numeric", 80), ("numeric-saturating", 10)):
        rb = RateBound(cases[name])
        rb.curve(range(below + 1))
        assert not rb.saturated, name
        rb.curve([below + 1, 10 ** 6])
        assert rb.saturated, name


def test_f_inverse_inverts_f():
    rb = RateBound(Power(0.1, 1.7))
    for n in (1.0, 7.5, 40.0):
        x = rb.F_inv(n)
        assert rb.F(x) == pytest.approx(n, rel=1e-9)
    assert rb.F(X_MAX) == pytest.approx(0.0, abs=1e-12)


class _LogEveryCall(RateBound):
    """Reference for the numeric path: F_inv by geometric bisection of the
    interpolated F down to a relative width _REL_TOL, returning the upper
    end, with an F that takes np.log of the whole grid on every call."""

    def _build_table(self):
        super()._build_table()
        self._grid = np.geomspace(self.x_min, X_MAX, _GRID_POINTS)

    def F(self, x):
        x = max(x, self.x_min)
        return float(np.interp(math.log(x), np.log(self._grid), self._table))

    def F_inv(self, n):
        if n <= 0.0:
            return X_MAX
        finite = np.isfinite(self._table)
        top = self._table[finite][0]
        if top < n:
            self.saturated = True
            return float(self._grid[finite][0])
        lo, hi = float(self._grid[finite][0]), X_MAX
        while hi - lo > _REL_TOL * hi:
            mid = math.sqrt(lo * hi)
            if self.F(mid) >= n:
                lo = mid
            else:
                hi = mid
        return hi


def _numeric_curves():
    table = conjugate(Table(knots=((1.0, 0.25), (10.0, 0.1), (100.0, 0.01), (1e4, 1e-4))))
    total = conjugate(Sum((PowerLaw(0.5, 0.7), PowerLaw(1.2, 0.4))))
    shifted = conjugate(AdjointShift(PowerLaw(0.8, 0.6)))
    grid = np.geomspace(1e-8, 0.25, 500)
    yield "table", table
    yield "sum", total
    yield "adjoint-shift", shifted
    yield "explogsquare", ExpLogSquareConjugate(0.25, 1.0)
    # Linear(2.0) exceeds v at 1/4, so full mode wraps it in Clamped
    full = compose_mwg(Linear(0.8), table, Linear(2.0), mode="full")
    assert isinstance(full.inner.outer, Clamped)
    yield "full", full
    yield "strong", compose_mwg(Linear(0.8), shifted, table, mode="strong")
    yield "joint_2mg", compose_mwg(Linear(0.8), None, total, mode="joint_2mg")
    yield "marginal_2mg", compose_mwg(Linear(0.5), None, shifted, mode="marginal_2mg")
    yield "saturating", GridKStar(v_knots=tuple(grid),
                                  values=tuple(np.where(grid < 0.01, 0.0, 0.3 * grid)))


def test_numeric_curve_dominates_bisection_reference(tmp_path):
    # reading the F table backwards gives the root of the interpolated F,
    # which the bisection brackets from below within _REL_TOL; raised by
    # _REL_TOL it sits at or above the bisection's upper end, never further
    # than twice that margin, and the saturation floors are the same points
    ns = [0, *np.unique(np.geomspace(1, 1e6, 60).round().astype(int))]
    for name, k in _numeric_curves():
        rb, ref = RateBound(k), _LogEveryCall(k)
        assert rb._cf is None, name
        for n in ns:
            rb.saturated = ref.saturated = False
            got, want = rb.rate_bound(n), ref.rate_bound(n)
            assert want <= got <= want * (1.0 + 2.0 * _REL_TOL), (name, n)
            assert rb.saturated == ref.saturated, (name, n)
            if ref.saturated or want == X_MAX:
                assert got == want, (name, n)
        rb.write_csv(tmp_path / "got.csv", ns)
        rows = (tmp_path / "got.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[1]) for row in rows] == list(rb.curve(ns)), name
    assert rb.saturated  # the last curve reaches its floor


MODES = ("full", "strong", "joint_2mg", "marginal_2mg")


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=0.5, max_value=2.0),
    st.lists(st.tuples(st.floats(min_value=3.0, max_value=30.0),
                       st.floats(min_value=0.05, max_value=0.7)), min_size=4, max_size=4),
    st.floats(min_value=0.3, max_value=1.0),
    st.floats(min_value=0.3, max_value=1.0),
)
def test_table_profile_curves_in_every_mode(s0, steps, gamma0, slope1):
    """Random 5-knot Table profiles, each knot's s and beta a random
    multiple of the last, through every compose_mwg mode: the curve lies in
    (0, 1/4], is 1/4 up to the offset, never rises, and F(F_inv(m)) <= m
    wherever F_inv is not at its saturation floor."""
    knots = [(s0, 0.25)]
    for ds, dv in steps:
        knots.append((knots[-1][0] * ds, knots[-1][1] * dv))
    k2 = conjugate(Table(knots=tuple(knots)))
    ns = [0, *np.unique(np.geomspace(1, 1e6, 30).round().astype(int))]
    for mode in MODES:
        k1 = Linear(slope1) if mode in ("full", "strong") else None
        k = compose_mwg(Linear(gamma0), k1, k2, mode=mode)
        rb = RateBound(k)
        vals = rb.curve(ns)
        assert np.all((vals > 0.0) & (vals <= X_MAX)), mode
        assert np.all(vals[np.array(ns) <= k.n_offset] == X_MAX), mode
        assert np.all(np.diff(vals) <= 0.0), mode
        for m in (n - k.n_offset for n in ns if n > k.n_offset):
            rb.saturated = False
            x = rb.F_inv(m)
            if not rb.saturated:
                assert rb.F(x) <= m, (mode, m)
