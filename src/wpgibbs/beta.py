"""Decreasing beta-function families used in weak Poincare inequalities.

A beta function is a nonincreasing map (0, inf) -> [0, inf) vanishing at
infinity.  Families here are closed under summation (independent products)
and the adjoint shift s -> s-1.  A family's dataclass fields are its whole
definition: ``config`` writes and reads exactly those.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .errors import DomainError, InvalidSpecError

#: canonical ceiling: any centered f satisfies ||f||^2 <= ||f||_osc^2 / 4
DEFAULT_CAP = 0.25


def _as_array(s) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(arr <= 0.0):
        raise DomainError("beta functions are defined for s > 0 only")
    return arr


def _finite(family: str, *values) -> None:
    """Refuse a non-finite field: NaN fails every comparison, so the checks
    after this one would pass it."""
    bad = [v for v in values if not math.isfinite(v)]
    if bad:
        raise InvalidSpecError(f"{family} needs finite values, got {bad[0]!r}")


@dataclass(frozen=True)
class BetaSpec:
    """Base class; concrete families implement ``_eval`` on positive arrays.

    ``cap`` is a per-family constant ceiling on the values, None for none.
    """

    cap: ClassVar[Optional[float]] = None

    def _eval(self, s: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def __call__(self, s):
        arr = _as_array(s)
        out = self._eval(arr)
        if self.cap is not None:
            out = np.minimum(out, self.cap)
        if np.ndim(s) == 0:
            return float(out[0])
        return out


@dataclass(frozen=True)
class Indicator(BetaSpec):
    """SPI with constant gamma encoded as beta(s) = 1{s <= 1/gamma}.

    The unit height is part of the convention (its conjugate is v -> gamma*v),
    so this family is uncapped.
    """

    gamma: float

    def __post_init__(self):
        _finite("Indicator", self.gamma)
        if not self.gamma > 0.0:
            raise InvalidSpecError("Indicator needs gamma > 0")

    def _eval(self, s):
        return np.where(s <= 1.0 / self.gamma, 1.0, 0.0)


@dataclass(frozen=True)
class PowerLaw(BetaSpec):
    """beta(s) = C * s**(-alpha), capped."""

    coefficient: float
    exponent: float
    cap = DEFAULT_CAP

    def __post_init__(self):
        _finite("PowerLaw", self.coefficient, self.exponent)
        if not (self.coefficient > 0.0 and self.exponent > 0.0):
            raise InvalidSpecError("PowerLaw needs C > 0 and alpha > 0")

    def _eval(self, s):
        return self.coefficient * s ** (-self.exponent)


@dataclass(frozen=True)
class ExpLogSquare(BetaSpec):
    """beta(s) = c * exp(-(a*log(s) + b)^2) past its mode, c before it.

    The raw expression increases for s < exp(-b/a); the family is flattened
    there so the result is nonincreasing.
    """

    c: float
    a: float
    b: float = 0.0
    cap = DEFAULT_CAP

    def __post_init__(self):
        _finite("ExpLogSquare", self.c, self.a, self.b)
        if not (self.c > 0.0 and self.a > 0.0):
            raise InvalidSpecError("ExpLogSquare needs c > 0 and a > 0")

    def _eval(self, s):
        with np.errstate(over="ignore"):  # an infinite mode is right: c at every s
            mode = np.exp(-self.b / self.a)
        val = self.c * np.exp(-((self.a * np.log(s) + self.b) ** 2))
        return np.where(s < mode, self.c, val)


@dataclass(frozen=True)
class Table(BetaSpec):
    """Piecewise-linear interpolation through ordered (s, value) knots.

    Constant extrapolation on both sides.  Knot values must be nonincreasing.
    """

    knots: tuple[tuple[float, float], ...]
    cap = DEFAULT_CAP

    def __post_init__(self):
        if len(self.knots) == 0:
            raise InvalidSpecError("Table needs at least one knot")
        ss = [k[0] for k in self.knots]
        vv = [k[1] for k in self.knots]
        _finite("Table", *ss, *vv)
        if any(b <= a for a, b in zip(ss, ss[1:])):
            raise InvalidSpecError("Table knots must have strictly increasing s")
        # each value against the lowest before it, so that rises of up to
        # 1e-15 cannot add up along a staircase of knots
        if any(v > low + 1e-15 for low, v in zip(itertools.accumulate(vv, min), vv[1:])):
            raise InvalidSpecError("Table values must be nonincreasing")
        if any(v < 0.0 for v in vv):
            raise InvalidSpecError("Table values must be nonnegative")

    def _eval(self, s):
        ss = np.array([k[0] for k in self.knots])
        vv = np.array([k[1] for k in self.knots])
        return np.interp(s, ss, vv)


@dataclass(frozen=True)
class Sum(BetaSpec):
    """Sum of child beta functions (tensorization); uncapped."""

    children: tuple[BetaSpec, ...]

    def __post_init__(self):
        if len(self.children) == 0:
            raise InvalidSpecError("Sum needs at least one child")

    def _eval(self, s):
        total = np.zeros_like(s)
        for child in self.children:
            total = total + np.asarray(child(s))
        return total


@dataclass(frozen=True)
class AdjointShift(BetaSpec):
    """beta_tilde(s) = beta(s - 1) for s > 1, else 1/4 (adjoint comparison)."""

    child: BetaSpec

    def _eval(self, s):
        out = np.full_like(s, DEFAULT_CAP)
        mask = s > 1.0
        if np.any(mask):
            out[mask] = np.asarray(self.child(s[mask] - 1.0))
        return out
