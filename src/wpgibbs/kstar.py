"""Convex-conjugate rate functions K* and the compositions acting on them.

K*(v) = sup_{u >= 0} { u*v - u*beta(1/u) } for a decreasing beta.  K* is
convex, nondecreasing, K*(0) = 0, and v -> K*(v)/v is nondecreasing.  The
compositions below mirror the comparison rules for two-component
deterministic-scan samplers: chaining, constant rescaling, the adjoint
half-argument shift, and the Metropolis-within-Gibbs nestings.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .beta import BetaSpec
from .errors import InvalidModeError, InvalidSpecError, UnboundedConjugateError

# u-grid for numeric conjugation: beta families vary on a log scale
_U_LO, _U_HI, _U_POINTS = 1e-8, 1e8, 4096
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# v-grid of every numeric conjugate, on (0, 1/4]
_V_GRID = np.geomspace(1e-6, 0.25, 200)
_V_GRID.flags.writeable = False


def _as_v(v) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if np.any(arr < 0.0):
        raise ValueError("K* is defined for v >= 0")
    return arr


@dataclass(frozen=True)
class KStarFn:
    """Base class for rate functions.  ``n_offset`` shifts the bound clock:
    a composed bound valid as F^{-1}(n - n_offset)."""

    def _eval(self, v: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    @property
    def n_offset(self) -> int:
        return 0

    def __call__(self, v):
        arr = _as_v(v)
        out = self._eval(arr)
        if np.ndim(v) == 0:
            return float(out[0])
        return out


@dataclass(frozen=True)
class Linear(KStarFn):
    """K*(v) = slope * v, the conjugate of an SPI indicator."""

    slope: float

    def __post_init__(self):
        if not self.slope > 0.0:
            raise InvalidSpecError("Linear needs slope > 0")

    def _eval(self, v):
        return self.slope * v


@dataclass(frozen=True)
class Power(KStarFn):
    """K*(v) = coefficient * v**exponent with exponent >= 1."""

    coefficient: float
    exponent: float

    def __post_init__(self):
        if not (self.coefficient > 0.0 and self.exponent >= 1.0):
            raise InvalidSpecError("Power needs coefficient > 0, exponent >= 1")

    def _eval(self, v):
        return self.coefficient * v ** self.exponent


@dataclass(frozen=True)
class Composite(KStarFn):
    """post_scale * outer(inner(pre_scale * v)); inner=None is the identity."""

    outer: KStarFn
    inner: Optional[KStarFn] = None
    pre_scale: float = 1.0
    post_scale: float = 1.0
    offset: int = 0

    @property
    def n_offset(self) -> int:
        return self.offset

    def _eval(self, v):
        w = self.pre_scale * v
        if self.inner is not None:
            w = np.asarray(self.inner(w))
        return self.post_scale * np.asarray(self.outer(w))


@dataclass(frozen=True)
class Clamped(KStarFn):
    """min(K*(v), v): the subunit guard for compositions relying on K* <= v."""

    child: KStarFn

    def _eval(self, v):
        return np.minimum(np.asarray(self.child(v)), v)


@dataclass(frozen=True)
class ExpLogSquareConjugate(KStarFn):
    """Conjugate of the squared-log profile c * exp(-(a*log(s) + b)^2).

    The maximizing u sits far outside any fixed grid once v is tiny, so
    this evaluates the supremum per point: with u = exp(b/a - w) the
    objective is exp(b/a) * (v*exp(-w) - c*exp(-w - a^2 w^2)), positive
    only for w above sqrt(log(c/v))/a and unimodal there, which the
    golden-section search ``_golden_max`` resolves at any representable v.
    """

    c: float
    a: float
    b: float = 0.0

    def __post_init__(self):
        if not (self.c > 0.0 and self.a > 0.0):
            raise InvalidSpecError("ExpLogSquareConjugate needs c > 0 and a > 0")
        a2 = self.a * self.a  # _eval's search bracket spans 5 / a^2
        if not (a2 > 0.0 and np.isfinite(5.0 / a2)):
            raise InvalidSpecError(f"ExpLogSquareConjugate needs 5 / a^2 finite, got a = {self.a!r}")

    def _eval(self, v):
        out = np.zeros_like(v)
        pos = v > 0.0
        if not np.any(pos):
            return out
        if np.any(v > self.c * (1.0 + 1e-12)):
            raise UnboundedConjugateError(
                "conjugate of a squared-log profile is finite only up to its height"
            )
        vp = v[pos]
        a2 = self.a * self.a
        lo = np.sqrt(np.maximum(np.log(self.c / vp), 0.0)) / self.a
        hi = lo + 10.0 + 5.0 / a2

        def g(w):
            return vp * np.exp(-w) - self.c * np.exp(-w - a2 * w * w)

        out[pos] = np.maximum(np.exp(self.b / self.a) * _golden_max(g, lo, hi), 0.0)
        return out


@dataclass(frozen=True)
class GridKStar(KStarFn):
    """Piecewise-linear K* through (v, value) knots; (0, 0) is implied."""

    v_knots: tuple[float, ...]
    values: tuple[float, ...]
    convexified: bool = False

    def __post_init__(self):
        if len(self.v_knots) != len(self.values) or len(self.v_knots) == 0:
            raise InvalidSpecError("GridKStar needs matching nonempty knots")

    def _eval(self, v):
        vs = np.concatenate([[0.0], np.asarray(self.v_knots)])
        ks = np.concatenate([[0.0], np.asarray(self.values)])
        out = np.interp(v, vs, ks)
        # linear continuation of the last segment above the grid
        if len(vs) >= 2:
            slope = (ks[-1] - ks[-2]) / (vs[-1] - vs[-2])
            high = v > vs[-1]
            out = np.where(high, ks[-1] + slope * (v - vs[-1]), out)
        return out


def check_subunit(k: KStarFn) -> bool:
    """Check K*(v) <= v on (0, 1/4].  K*(v)/v is nondecreasing for a convex
    K* with K*(0) = 0, and so for every composition and scaling of such, so
    the check at v = 1/4 decides it."""
    if isinstance(k, Linear):
        return k.slope <= 1.0 + 1e-12
    if isinstance(k, Clamped):
        return True
    return bool(k(0.25) <= 0.25 * (1.0 + 1e-9))


def _golden_max(g, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Golden-section maximization of g on every bracket [lo[j], hi[j]] at
    once; returns the max values.  g maps an array of points to their
    values, one call per iteration for all brackets."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    gc, gd = g(c), g(d)
    for _ in range(80):  # 0.618^80: each bracket shrinks to 2e-17 of its width
        left = gc >= gd  # the max lies in [a, d]: d becomes b, c becomes d
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        new = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        g_new = g(new)
        c, d = np.where(left, new, d), np.where(left, c, new)
        gc, gd = np.where(left, g_new, gd), np.where(left, gc, g_new)
    return np.maximum(np.maximum(gc, gd), g(0.5 * (a + b)))


def _convexify(v: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Greatest convex minorant through (0,0) and the given points.

    Lowering K* only loosens the final bound, so this is the safe direction.
    """
    pts_v = np.concatenate([[0.0], v])
    pts_k = np.concatenate([[0.0], k])
    hull = [(pts_v[0], pts_k[0])]
    for x, y in zip(pts_v[1:], pts_k[1:]):
        hull.append((x, y))
        while len(hull) >= 3:
            (x0, y0), (x1, y1), (x2, y2) = hull[-3:]
            if (y1 - y0) * (x2 - x1) >= (y2 - y1) * (x1 - x0) - 1e-300:
                hull.pop(-2)
            else:
                break
    hv = np.array([p[0] for p in hull])
    hk = np.array([p[1] for p in hull])
    return np.interp(v, hv, hk)


def conjugate(spec: BetaSpec) -> KStarFn:
    """Convex conjugate of u -> u * beta(1/u).

    Closed forms are dispatched for the indicator and power-law families;
    any other spec is conjugated numerically on a logarithmic u-grid with
    golden-section refinement, then convexified.
    """
    from . import beta as _b

    if isinstance(spec, _b.Indicator):
        return Linear(spec.gamma)
    if isinstance(spec, _b.PowerLaw):
        alpha = spec.exponent
        c = spec.coefficient
        try:
            coef = (alpha / (1.0 + alpha)) * (c * (1.0 + alpha)) ** (-1.0 / alpha)
        except OverflowError:
            raise UnboundedConjugateError(
                f"power-law conjugate coefficient overflows a double for "
                f"coefficient {c!r}, exponent {alpha!r}") from None
        return Power(coef, 1.0 + 1.0 / alpha)
    if isinstance(spec, _b.ExpLogSquare) and spec.cap >= spec.c:
        return ExpLogSquareConjugate(c=spec.c, a=spec.a, b=spec.b)

    u = np.geomspace(_U_LO, _U_HI, _U_POINTS)
    beta_at = np.asarray(spec(1.0 / u))
    # the best u-grid point of each v brackets its maximizer; one row at a
    # time, as a v-by-u matrix would cost 6.5 MB per temporary
    best = np.empty_like(_V_GRID)
    at = np.empty(len(_V_GRID), dtype=int)
    for j, v in enumerate(_V_GRID):
        obj = u * (v - beta_at)
        at[j] = np.argmax(obj)
        if at[j] == len(u) - 1 and obj[-1] > obj[-2]:
            raise UnboundedConjugateError(
                "conjugate diverges on the u-grid; beta decays too fast "
                "without a cap"
            )
        best[j] = obj[at[j]]
    lo = u[np.maximum(at - 1, 0)]
    hi = u[np.minimum(at + 1, len(u) - 1)]
    refined = _golden_max(lambda uu: uu * (_V_GRID - spec(1.0 / uu)), lo, hi)
    vals = np.maximum(0.0, np.maximum(refined, best))
    vals = _convexify(_V_GRID, vals)
    return GridKStar(tuple(_V_GRID), tuple(vals), convexified=True)


def scale(k: KStarFn, c1: float, c2: float) -> KStarFn:
    """K~*(v) = c1 * c2 * K*(v / c1); rates obey F~^{-1}(x) <= c1 F^{-1}(c2 x)."""
    if not (c1 > 0.0 and c2 > 0.0):
        raise InvalidSpecError("scale needs c1, c2 > 0")
    if c1 == 1.0 and c2 == 1.0:
        return k
    if isinstance(k, Linear):
        return Linear(c2 * k.slope)
    if isinstance(k, Power):
        return Power(k.coefficient * c1 ** (1.0 - k.exponent) * c2, k.exponent)
    return Composite(outer=k, inner=None, pre_scale=1.0 / c1, post_scale=c1 * c2)


def _guard(k: KStarFn) -> KStarFn:
    return k if check_subunit(k) else Clamped(k)


def compose_mwg(
    k0: Optional[KStarFn],
    k1: Optional[KStarFn],
    k2: Optional[KStarFn],
    mode: str = "full",
) -> KStarFn:
    """Composed K* for a two-component Metropolis-within-Gibbs sampler.

    Modes:
      full         2 K1*(K2*(1/2 K0*(v/4)))   both conditionals intractable
      strong       2 K1*(K2*(gamma/4 v))      exact-scan SPI input (k0 linear)
      joint_2mg    2 K2*(1/2 K0*(v/4))        second conditional intractable
      marginal_2mg K2*(1/2 K0*(v)),           marginal route; bound clock reads
                                              F^{-1}(n-1) (n_offset = 1)
    """
    if mode not in ("full", "strong", "joint_2mg", "marginal_2mg"):
        raise InvalidModeError(f"unknown mode {mode!r}")
    if mode in ("full", "strong") and k1 is None:
        raise InvalidModeError(f"mode {mode!r} requires k1")
    if k0 is None or k2 is None:
        raise InvalidModeError("k0 and k2 are always required")
    k2g = _guard(k2)

    if mode == "strong":
        if not isinstance(k0, Linear):
            raise InvalidModeError("strong mode requires a linear (SPI) k0")
        gamma = k0.slope
        k1g = _guard(k1)
        if isinstance(k1g, Linear) and isinstance(k2g, Linear):
            return Linear(2.0 * k1g.slope * k2g.slope * gamma / 4.0)
        inner = scale(k2g, 4.0 / gamma, gamma / 4.0)  # K2*(gamma/4 * v)
        return Composite(outer=k1g, inner=inner, post_scale=2.0)

    # shared core: 1/2 * K0*(v/4) for full/joint, 1/2 * K0*(v) for marginal
    if mode == "marginal_2mg":
        if isinstance(k0, Linear) and isinstance(k2g, Linear):
            return Composite(
                outer=Linear(k2g.slope * k0.slope / 2.0), offset=1
            )
        core = Composite(outer=k0, pre_scale=1.0, post_scale=0.5)
        return Composite(outer=k2g, inner=core, offset=1)

    core = Composite(outer=k0, pre_scale=0.25, post_scale=0.5)
    if mode == "joint_2mg":
        if isinstance(k0, Linear) and isinstance(k2g, Linear):
            return Linear(2.0 * k2g.slope * 0.5 * k0.slope * 0.25)
        return Composite(outer=k2g, inner=core, post_scale=2.0)

    k1g = _guard(k1)
    if (
        isinstance(k0, Linear)
        and isinstance(k1g, Linear)
        and isinstance(k2g, Linear)
    ):
        return Linear(k0.slope * k1g.slope * k2g.slope / 4.0)
    mid = Composite(outer=k2g, inner=core)
    return Composite(outer=k1g, inner=mid, post_scale=2.0)
