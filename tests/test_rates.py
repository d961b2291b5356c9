import math
import sys

import numpy as np
import pytest

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
from wpgibbs.rates import _REL_TOL, X_MAX


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


def test_f_inverse_inverts_f():
    rb = RateBound(Power(0.1, 1.7))
    for n in (1.0, 7.5, 40.0):
        x = rb.F_inv(n)
        assert rb.F(x) == pytest.approx(n, rel=1e-9)
    assert rb.F(X_MAX) == pytest.approx(0.0, abs=1e-12)


class _LogEveryCall(RateBound):
    """Reference for the numeric path: the bisection with an F that takes
    np.log of the whole grid on every call."""

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


def test_numeric_curve_matches_log_every_call_reference(tmp_path):
    ns = [0, *np.unique(np.geomspace(1, 1e6, 60).round().astype(int))]
    for name, k in _numeric_curves():
        rb, ref = RateBound(k), _LogEveryCall(k)
        assert rb._cf is None, name
        for n in ns:
            assert rb.rate_bound(n).hex() == ref.rate_bound(n).hex(), (name, n)
        assert rb.saturated == ref.saturated, name
        rb.write_csv(tmp_path / "got.csv", ns)
        ref.write_csv(tmp_path / "ref.csv", ns)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes(), name
    assert rb.saturated  # the last curve reaches its floor
