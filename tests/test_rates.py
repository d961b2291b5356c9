import math
import sys

import numpy as np
import pytest

from wpgibbs import GridKStar, Linear, Power, RateBound, compose_mwg
from wpgibbs.kstar import Composite
from wpgibbs.rates import X_MAX


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
