import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpgibbs import (
    AdjointShift,
    DomainError,
    ExpLogSquare,
    Indicator,
    InvalidSpecError,
    PowerLaw,
    Sum,
    Table,
)
from wpgibbs.cases import BayesBeta2, BayesParams, NIGBeta1, NIGBeta2, NIGParams, OUBeta2, OUParams
from wpgibbs.config import beta_from_dict, to_dict


def test_indicator_unit_height():
    b = Indicator(gamma=0.2)
    assert b(4.0) == 1.0
    assert b(5.0) == 1.0
    assert b(5.0001) == 0.0


def test_indicator_requires_positive_gamma():
    with pytest.raises(InvalidSpecError):
        Indicator(gamma=0.0)


# every number field of a profile built in Python, set to x
_EVERY_FIELD = pytest.mark.parametrize("make", [
    lambda x: Indicator(gamma=x),
    lambda x: PowerLaw(coefficient=x, exponent=1.0),
    lambda x: PowerLaw(coefficient=1.0, exponent=x),
    lambda x: ExpLogSquare(c=x, a=1.0),
    lambda x: ExpLogSquare(c=0.25, a=x),
    lambda x: ExpLogSquare(c=0.25, a=1.0, b=x),
    lambda x: Table(knots=((x, 0.2), (2.0, 0.1))),
    lambda x: Table(knots=((1.0, x), (2.0, 0.1), (3.0, 0.2))),
    lambda x: Table(knots=((1.0, 0.2), (2.0, x), (3.0, 0.1))),
], ids=["indicator", "powerlaw-C", "powerlaw-alpha", "explogsquare-c", "explogsquare-a",
        "explogsquare-b", "table-s", "table-first-value", "table-middle-value"])


@_EVERY_FIELD
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_fields_are_refused(make, x):
    """Every comparison is False on NaN, so a NaN field once passed the
    range checks of a profile built in Python (the config reader refuses
    it first): ExpLogSquare(b=nan) gave NaN at every s, and a leading NaN
    value let a Table's later values rise.  The error names the field, in
    the words of the config reader's check."""
    with pytest.raises(InvalidSpecError,
                       match=r"^(\w+\.\w+|Table knot \d) must be a finite number, got -?(nan|inf)$"):
        make(x)


@_EVERY_FIELD
@pytest.mark.parametrize("x", [True, "0.2", None], ids=["bool", "string", "none"])
def test_non_number_fields_are_refused(make, x):
    """A profile built in Python takes a number field as the config reader
    does: a real number, never a boolean or a string.  Indicator(True) was
    accepted and written out as "gamma": true, and Indicator("0.2") raised a
    bare TypeError."""
    with pytest.raises(InvalidSpecError, match="must be a number, got"):
        make(x)


@pytest.mark.parametrize("spec,d", [
    (Indicator(1), {"family": "indicator", "gamma": 1}),
    (PowerLaw(1, 2), {"family": "powerlaw", "coefficient": 1, "exponent": 2}),
    (ExpLogSquare(np.float64(0.25), 1, -2), {"family": "explogsquare", "c": 0.25, "a": 1, "b": -2}),
    (Table(knots=[[1, 1], (2, np.int64(0))]), {"family": "table", "knots": [[1, 1], [2, 0]]}),
], ids=["indicator", "powerlaw", "explogsquare", "table"])
def test_python_built_profiles_store_floats(spec, d):
    """Every number field is stored as a float, so a profile built in Python
    from ints or numpy scalars writes the JSON that the config reader's
    profile writes for the same spec."""
    assert json.dumps(to_dict(spec)) == json.dumps(to_dict(beta_from_dict(d)))
    assert spec == beta_from_dict(d)


@pytest.mark.parametrize("knots,entry", [
    (((1.0,),), 0),
    (((1.0, 0.2, 9.0), (2.0, 0.1)), 0),
    (((1.0, 0.2), 0.1), 1),
], ids=["one-value", "three-values", "bare-number"])
def test_table_refuses_knots_that_are_not_pairs(knots, entry):
    """Each knot is one (s, value) pair.  A knot of one value raised
    IndexError, and a third value was ignored: (1, 0.2, 9), (2, 0.1) read
    0.15 at s = 1.5."""
    with pytest.raises(InvalidSpecError, match=rf"^Table knot {entry} must be an \(s, value\) pair"):
        Table(knots=knots)


def test_powerlaw_capped_at_quarter():
    b = PowerLaw(coefficient=1.0, exponent=1.0)
    assert b(1.0) == 0.25
    assert b(8.0) == 0.125
    assert b(1e-9) == 0.25


def test_cap_is_a_family_constant():
    assert [cls.cap for cls in (PowerLaw, ExpLogSquare, Table)] == [0.25] * 3
    assert [cls.cap for cls in (Indicator, Sum, AdjointShift)] == [None] * 3
    assert ExpLogSquare(c=0.5, a=1.0)(1e-9) == 0.25
    assert Table(knots=((1.0, 0.5),))(1.0) == 0.25
    with pytest.raises(TypeError):
        PowerLaw(1.0, 1.0, cap=0.5)


def test_domain_error_nonpositive_s():
    with pytest.raises(DomainError):
        PowerLaw(1.0, 1.0)(0.0)
    with pytest.raises(DomainError):
        Indicator(0.5)(-2.0)


_NIG = NIGParams(beta_hyper=2.0, sigma0=0.5)


@pytest.mark.parametrize("spec", [
    Indicator(gamma=0.3),
    PowerLaw(coefficient=2.0, exponent=0.7),
    ExpLogSquare(c=0.25, a=1.0, b=0.5),
    Table(knots=((1.0, 0.25), (10.0, 0.1), (100.0, 0.01))),
    Sum((PowerLaw(1.0, 0.5), Indicator(0.25))),
    AdjointShift(PowerLaw(1.0, 1.0)),
    NIGBeta1(_NIG),
    NIGBeta2(_NIG),
    BayesBeta2(BayesParams(a=2.0, b=1.0, X=np.array([[1.0, 0.2], [1.0, -0.4], [1.0, 0.9], [1.0, -1.2]]),
                           Y=np.array([0.3, -0.1, 0.8, -0.9]), sigma0=0.3)),
    OUBeta2(OUParams(mu0=0.5, tau0=1.0, times=(0.0, 0.5, 1.0), obs=(0.2, 0.1, 0.3), M=8)),
], ids=["indicator", "powerlaw", "explogsquare", "table", "sum", "adjoint-shift",
        "nig-beta1", "nig-beta2", "bayes-beta2", "ou-beta2"])
@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_non_finite_s_is_refused(spec, x):
    """A NaN s once passed the s > 0 check: Indicator gave 0, the most
    optimistic value, others 1/4 or NaN; an infinite s reached lambert_w and
    failed there.  Every family now refuses both, alone or in an array."""
    for s in (x, np.array([2.0, x])):
        with pytest.raises(DomainError, match="^beta functions are defined for finite s > 0 only$"):
            spec(s)


def test_explogsquare_flat_before_mode():
    b = ExpLogSquare(c=0.2, a=1.0, b=-2.0)  # mode at exp(2)
    s = np.exp(2.0)
    assert b(s * 0.5) == pytest.approx(0.2)
    assert b(s) == pytest.approx(0.2)
    assert b(s * 10) < 0.2


def test_table_interpolation_and_validation():
    t = Table(knots=((1.0, 0.25), (10.0, 0.1), (100.0, 0.0)))
    assert t(1.0) == 0.25
    assert t(55.0) == pytest.approx(np.interp(55.0, [1, 10, 100], [0.25, 0.1, 0.0]))
    assert t(1e6) == 0.0
    with pytest.raises(InvalidSpecError):
        Table(knots=((1.0, 0.1), (2.0, 0.2)))  # increasing values
    with pytest.raises(InvalidSpecError):
        Table(knots=((2.0, 0.2), (1.0, 0.1)))  # decreasing s
    with pytest.raises(InvalidSpecError):
        Table(knots=((1.0, math.nan), (2.0, 0.1), (3.0, 0.2)))  # rising after a NaN


def test_table_values_cannot_climb_a_staircase():
    """A value may sit up to 1e-15 above the lowest value before it, and no
    more: 1,000 knots that each rise 1e-15 over the one before climb 1e-12,
    and are refused, here and through the config reader."""
    staircase = [(float(i + 1), 0.1 + i * 1e-15) for i in range(1000)]
    with pytest.raises(InvalidSpecError, match="Table values must be nonincreasing"):
        Table(knots=tuple(staircase))
    with pytest.raises(InvalidSpecError, match="Table values must be nonincreasing"):
        beta_from_dict({"family": "table", "knots": [list(k) for k in staircase]})
    # a rise of 1e-15 over the lowest value before it stays allowed
    Table(knots=((1.0, 0.1), (2.0, 0.1 + 1e-15), (3.0, 0.1), (4.0, 0.1 + 1e-15)))
    with pytest.raises(InvalidSpecError, match="Table values must be nonincreasing"):
        Table(knots=((1.0, 0.1), (2.0, 0.1 + 1e-15), (3.0, 0.1 + 2e-15)))


def test_sum_and_tensorize():
    b = Sum((Indicator(0.5), Indicator(0.25)))
    assert b(1.0) == 2.0  # sum is deliberately uncapped
    assert b(3.0) == 1.0
    assert b(5.0) == 0.0
    assert Sum((PowerLaw(1.0, 1.0),) * 3)(1e-9) == 0.75


def test_adjoint_shift():
    b = AdjointShift(PowerLaw(1.0, 1.0))
    assert b(1.0) == 0.25  # s - 1 <= 0 branch
    assert b(5.0) == 0.25  # child capped at 1/4
    assert b(101.0) == pytest.approx(0.01)


@pytest.mark.parametrize("spec", [
    Indicator(gamma=0.3),
    PowerLaw(coefficient=2.0, exponent=0.7),
    ExpLogSquare(c=0.25, a=1.0, b=0.5),
    Table(knots=((1.0, 0.25), (10.0, 0.1), (100.0, 0.01))),
    Sum((PowerLaw(1.0, 0.5), ExpLogSquare(c=0.25, a=0.5, b=0.0))),
    AdjointShift(PowerLaw(1.0, 1.0)),
], ids=["indicator", "powerlaw", "explogsquare", "table", "sum", "adjoint-shift"])
def test_families_evaluate_a_2d_array_point_by_point(spec):
    """A 2-D s gives, in its shape, the bytes of its flattened points."""
    s = np.array([0.5, 1.5, 4.0, 30.0, 1e3, 1e6])
    for grid in (s.reshape(2, 3), s.reshape(3, 2).T):
        got = spec(grid)
        assert got.shape == grid.shape
        assert got.tobytes() == spec(grid.ravel()).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["indicator", "powerlaw", "explogsquare"]),
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=1.01, max_value=10.0),
)
def test_families_nonincreasing_and_bounded(family, s, factor):
    spec = {
        "indicator": Indicator(gamma=0.3),
        "powerlaw": PowerLaw(coefficient=2.0, exponent=0.7),
        "explogsquare": ExpLogSquare(c=0.25, a=1.0, b=0.5),
    }[family]
    lo, hi = spec(s), spec(s * factor)
    assert hi <= lo + 1e-12
    assert lo >= 0.0
    if family != "indicator":
        assert lo <= 0.25 + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.01, max_value=1e4))
def test_sum_of_capped_is_monotone(s):
    b = Sum(children=(PowerLaw(1.0, 0.5), ExpLogSquare(c=0.25, a=0.5, b=0.0)))
    assert b(s) >= b(s * 2) - 1e-12
