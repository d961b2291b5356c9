"""Convex-conjugate rate functions K* and the compositions acting on them.

K*(v) = sup_{u >= 0} { u*v - u*beta(1/u) } for a decreasing beta.  K* is
convex, nondecreasing, K*(0) = 0, and v -> K*(v)/v is nondecreasing.  The
compositions below mirror the comparison rules for two-component
deterministic-scan samplers: chaining, constant rescaling, the adjoint
half-argument shift, and the Metropolis-within-Gibbs nestings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .beta import DEFAULT_CAP, AdjointShift, BetaSpec, Sum, Table
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
    Where the maximum of the bracketed difference is below the smallest
    normal double, K* is given as 0.
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

        top = _golden_max(g, lo, hi)
        # below the smallest normal double both terms of g are subnormal and
        # the maximum keeps few bits, wrong upward as well as downward: there
        # K* is reported as 0, the safe side
        out[pos] = np.where(top < np.finfo(float).tiny, 0.0,
                            np.maximum(np.exp(self.b / self.a) * top, 0.0))
        return out


def _through(v, x, y) -> np.ndarray:
    """np.interp through the knots (x, y), continued along the last segment
    past them."""
    out = np.interp(v, x, y)
    if len(x) >= 2:
        slope = (y[-1] - y[-2]) / (x[-1] - x[-2])
        out = np.where(v > x[-1], y[-1] + slope * (v - x[-1]), out)
    return out


@dataclass(frozen=True)
class GridKStar(KStarFn):
    """Piecewise-linear K* through (v, value) knots; (0, 0) is implied."""

    v_knots: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.v_knots) != len(self.values) or len(self.v_knots) == 0:
            raise InvalidSpecError("GridKStar needs matching nonempty knots")

    def _eval(self, v):
        return _through(v, np.append(0.0, self.v_knots), np.append(0.0, self.values))


@dataclass(frozen=True)
class PiecewiseLinear(KStarFn):
    """K* through exact (v, value) knots: 0 up to the first knot, linear
    between knots and along the last segment past them.  The first value is
    0 and no value is below the one before it."""

    v_knots: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        x, y = self.v_knots, self.values
        if not (len(x) == len(y) > 0 and x[0] >= 0.0 and y[0] == 0.0
                and all(a < b for a, b in zip(x, x[1:]))
                and all(a <= b for a, b in zip(y, y[1:]))):
            raise InvalidSpecError(
                "PiecewiseLinear needs rising v knots from v >= 0 and nondecreasing values from 0")

    def _eval(self, v):
        return _through(v, np.asarray(self.v_knots), np.asarray(self.values))

    def clamped(self) -> "PiecewiseLinear":
        """min(K*(v), v) for a K* with K*(1/4) > 1/4, with a knot where K*
        crosses v.  K*(v)/v is nondecreasing, so K* crosses v once, below
        1/4, and past the crossing the result is v, held by one more knot
        at v = 1/4."""
        x, y = np.array(self.v_knots), np.array(self.values)
        over = np.flatnonzero(y > x)
        # the crossing is on the segment that ends at the first knot over v,
        # or past the last knot
        k, keep = (over[0], over[0]) if len(over) else (len(x) - 1, len(x))
        g0, g1 = y[k - 1] - x[k - 1], y[k] - x[k]
        w = x[k - 1] + (x[k] - x[k - 1]) * (-g0) / (g1 - g0)
        x, y = x[:keep], y[:keep]
        if w > x[-1]:
            x, y = np.append(x, w), np.append(y, w)
        if 0.25 > x[-1]:
            x, y = np.append(x, 0.25), np.append(y, 0.25)
        return PiecewiseLinear(tuple(x.tolist()), tuple(y.tolist()))


def check_subunit(k: KStarFn) -> bool:
    """Check K*(v) <= v on (0, 1/4].  K*(v)/v is nondecreasing for a convex
    K* with K*(0) = 0, and so for every composition and scaling of such, so
    the check at v = 1/4 decides it."""
    return bool(k(0.25) <= 0.25 * (1.0 + 1e-9))


def _same_bytes(state, other) -> bool:
    """Whether two golden-section states hold the same bytes, so that ±0
    and NaN payloads count as different.  Row 0's a and b go first, as
    floats: while its bracket still shrinks, one of them moves at every
    step, so a search far from its cycle pays for one or two float
    comparisons a step.  (A NaN there keeps all 80 steps.)"""
    (a, b), (oa, ob) = state[:2], other[:2]
    return ((a.size == 0 or (a[0] == oa[0] and b[0] == ob[0]))
            and all(x.tobytes() == y.tobytes() for x, y in zip(state, other)))


def _golden_max(g, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Golden-section maximization of g on every bracket [lo[j], hi[j]] at
    once; returns the max values.  g maps an array of points to their
    values, one call per iteration for all brackets.

    The search runs at most 80 steps and returns the state of the 80th.  A
    bracket only a few ulps wide stops shrinking: its points round back to
    the values they had two steps before.  Once the whole state (a, b, c, d
    and g's values at c and d) equals, bit for bit, the state two steps
    back, each step is a function of the state alone and g gives the same
    values for the same points, so every later state repeats with period 2.
    The loop then stops and takes the 80th state by parity, which is the
    state 80 steps would reach, bit for bit (``_same_bytes``)."""
    a, b = lo, hi
    w = _GOLDEN * (b - a)
    c, d = b - w, a + w
    gc, gd = g(c), g(d)
    state, prev, older = (a, b, c, d, gc, gd), None, None
    for step in range(80):  # 0.618^80: each bracket shrinks to 2e-17 of its width
        left = gc >= gd  # the max lies in [a, d]: d becomes b, c becomes d
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        w = _GOLDEN * (b - a)
        new = np.where(left, b - w, a + w)
        g_new = g(new)
        c, d = np.where(left, new, d), np.where(left, c, new)
        gc, gd = np.where(left, g_new, gd), np.where(left, gc, g_new)
        state, prev, older = (a, b, c, d, gc, gd), state, prev
        if older is not None and _same_bytes(state, older):
            if (79 - step) % 2:  # an odd number of steps left ends on the other state
                state = prev
            break
    a, b, c, d, gc, gd = state
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


def _breaks(spec: BetaSpec) -> Optional[np.ndarray]:
    """The s > 0 where a profile of the Table family bends or jumps, or None
    for a profile outside it.  The family is a Table, an AdjointShift of a
    member and a Sum of members: each is linear in s between its breaks and
    constant before the first and past the last."""
    if isinstance(spec, Table):
        s, v = (np.array(col) for col in zip(*spec.knots))
        # min(interpolant, cap) bends once more where a segment crosses the cap
        a, b = v[:-1] - spec.cap, v[1:] - spec.cap
        cross = a * b < 0.0
        at = s[:-1][cross] + (s[1:] - s[:-1])[cross] * a[cross] / (a - b)[cross]
        s = np.union1d(s, at)
        return s[s > 0.0]
    if isinstance(spec, AdjointShift):
        inner = _breaks(spec.child)
        return None if inner is None else np.union1d(1.0, inner + 1.0)
    if isinstance(spec, Sum):
        parts = [_breaks(child) for child in spec.children]
        return None if any(p is None for p in parts) else np.unique(np.concatenate(parts))
    return None


def _right(spec: BetaSpec, s: np.ndarray) -> np.ndarray:
    """beta(s+) at every s >= 0 of a profile of the Table family, each
    computed as the profile computes beta(s)."""
    if isinstance(spec, Table):
        ss, vv = zip(*spec.knots)
        return np.minimum(np.interp(s, ss, vv), spec.cap)
    if isinstance(spec, AdjointShift):
        # beta(1+) is the child's beta(0+)
        return np.where(s >= 1.0, _right(spec.child, np.maximum(s - 1.0, 0.0)), DEFAULT_CAP)
    return sum((_right(child, s) for child in spec.children), np.zeros_like(s))


def _table_conjugate(spec: BetaSpec, s: np.ndarray) -> PiecewiseLinear:
    """Exact K* of a profile of the Table family with breaks ``s``.

    On each piece between breaks beta is affine in s, so (v - beta(s)) / s
    is monotone there and its supremum sits at a break, as the right limit
    r_i = beta(s_i+):  K*(v) = max(0, max_i (v - r_i) / s_i), the upper
    envelope of lines (Rockafellar, Convex Analysis, section 12).  Before
    the first break beta is its limit beta(0+), so K* is infinite for v
    above it, and past the last break the supremum is 0 or at that break.
    The knots are the envelope's zero and its corners, and v = 1/4, where
    F starts.
    """
    if len(s) == 0:  # a constant beta, whose line at any one s is K*
        s = np.ones(1)
    r = _right(spec, s)
    head = float(_right(spec, np.zeros(1))[0])
    if head < 0.25:
        raise UnboundedConjugateError(
            f"K* is infinite for v above beta(0+) = {head!r}, below 1/4")
    # the envelope's lines by rising slope 1/s, above the zero line (None)
    hull = [None]

    def corner(i, j):
        """v where line j, the steeper, overtakes line i: r_j plus a
        correction, which keeps the corner's rounding within an ulp or so
        when the lines' zeros are close."""
        return r[j] if i is None else r[j] + s[j] * (r[j] - r[i]) / (s[i] - s[j])

    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(len(s) - 1, -1, -1):
            while len(hull) >= 2 and corner(hull[-2], j) <= corner(hull[-2], hull[-1]):
                hull.pop()
            hull.append(j)
        # the first corner is the smallest r_i, where every line is <= 0;
        # each line, rounded, is nondecreasing in v, so the values are too
        v = np.unique([corner(i, j) for i, j in zip(hull, hull[1:])])
        if v[0] < 0.25:
            v = np.union1d(v, 0.25)
        k = np.maximum(0.0, ((v[:, None] - r) / s).max(axis=1))
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(k))):
        raise UnboundedConjugateError(
            f"K* of this profile passes the largest double on (0, 1/4]: a break at s = "
            f"{float(s[0])!r} is too close to 0")
    return PiecewiseLinear(tuple(v.tolist()), tuple(k.tolist()))


def conjugate(spec: BetaSpec) -> KStarFn:
    """Convex conjugate of u -> u * beta(1/u).

    Closed forms are dispatched for the indicator and power-law families,
    ExpLogSquare up to its cap, and the Table family (``_table_conjugate``);
    any other spec is conjugated numerically on a logarithmic u-grid with
    golden-section refinement, then convexified.

    Only live rows of the v-grid are refined.  Row v's best u-grid point
    brackets its maximizer in [lo, hi], the grid points beside it.  beta is
    nonincreasing, so beta(1/u) is nondecreasing in u, and v <= beta(1/lo)
    gives u (v - beta(1/u)) <= 0 on the whole bracket, the best grid point
    included: the row's knot is 0.0 whatever the search finds.  So the
    search runs on the rows with v > beta(1/lo) alone, and not at all when
    there is none.
    """
    from . import beta as _b

    if isinstance(spec, _b.Indicator):
        return Linear(spec.gamma)
    if isinstance(spec, _b.PowerLaw):
        alpha = spec.exponent
        c = spec.coefficient
        try:  # c (1 + alpha) may pass the largest double, and inf^(-1/alpha) is 0
            coef = (alpha / (1.0 + alpha)) * (c * (1.0 + alpha)) ** (-1.0 / alpha)
        except OverflowError:
            coef = math.inf
        if not 0.0 < coef < math.inf:
            raise UnboundedConjugateError(
                f"power-law conjugate coefficient overflows a double for "
                f"coefficient {c!r}, exponent {alpha!r}")
        return Power(coef, 1.0 + 1.0 / alpha)
    if isinstance(spec, _b.ExpLogSquare) and spec.cap >= spec.c:
        return ExpLogSquareConjugate(c=spec.c, a=spec.a, b=spec.b)
    breaks = _breaks(spec)
    if breaks is not None:
        return _table_conjugate(spec, breaks)

    u = np.geomspace(_U_LO, _U_HI, _U_POINTS)
    beta_at = np.asarray(spec(1.0 / u))
    # the best u-grid point of each v brackets its maximizer; 16 rows of v
    # at a time in one 512 KB buffer, as a v-by-u matrix would cost 6.5 MB
    # per temporary
    best = np.empty_like(_V_GRID)
    at = np.empty(len(_V_GRID), dtype=int)
    buf = np.empty((16, len(u)))
    for j in range(0, len(_V_GRID), len(buf)):
        v = _V_GRID[j:j + len(buf), None]
        obj = buf[:len(v)]
        np.subtract(v, beta_at, out=obj)
        obj *= u
        i = obj.argmax(axis=1)
        if np.any((i == len(u) - 1) & (obj[:, -1] > obj[:, -2])):
            raise UnboundedConjugateError(
                "conjugate diverges on the u-grid; beta decays too fast "
                "without a cap"
            )
        at[j:j + len(v)] = i
        best[j:j + len(v)] = obj[np.arange(len(v)), i]
    below = np.maximum(at - 1, 0)
    live = _V_GRID > beta_at[below]
    vals = np.zeros_like(_V_GRID)
    if np.any(live):
        v = _V_GRID[live]
        lo, hi = u[below[live]], u[np.minimum(at[live] + 1, len(u) - 1)]
        refined = _golden_max(lambda uu: uu * (v - spec(1.0 / uu)), lo, hi)
        vals[live] = np.maximum(0.0, np.maximum(refined, best[live]))
    vals = _convexify(_V_GRID, vals)
    return GridKStar(tuple(_V_GRID), tuple(vals))


def scale(k: KStarFn, c1: float, c2: float) -> KStarFn:
    """K~*(v) = c1 * c2 * K*(v / c1); rates obey F~^{-1}(x) <= c1 F^{-1}(c2 x)."""
    if not (c1 > 0.0 and c2 > 0.0):
        raise InvalidSpecError("scale needs c1, c2 > 0")
    if isinstance(k, Linear):
        return Linear(c2 * k.slope)
    if isinstance(k, Power):
        return Power(k.coefficient * c1 ** (1.0 - k.exponent) * c2, k.exponent)
    if isinstance(k, PiecewiseLinear):
        return PiecewiseLinear(tuple((c1 * np.array(k.v_knots)).tolist()),
                               tuple((c1 * c2 * np.array(k.values)).tolist()))
    return Composite(outer=k, inner=None, pre_scale=1.0 / c1, post_scale=c1 * c2)


def _guard(k: KStarFn) -> KStarFn:
    if check_subunit(k):
        return k
    return k.clamped() if isinstance(k, PiecewiseLinear) else Clamped(k)


# compose_mwg's rules as data: mode -> (scale of K0's argument, scale of
# K0's value, whether K1 wraps K2, outer factor, clock offset)
_MODES = {
    "full": (0.25, 0.5, True, 2.0, 0),
    "strong": (0.25, 1.0, True, 2.0, 0),
    "joint_2mg": (0.25, 0.5, False, 2.0, 0),
    "marginal_2mg": (1.0, 0.5, False, 1.0, 1),
}


def compose_mwg(
    k0: Optional[KStarFn],
    k1: Optional[KStarFn],
    k2: Optional[KStarFn],
    mode: str = "full",
) -> KStarFn:
    """Composed K* for a two-component Metropolis-within-Gibbs sampler.

    Modes, one row of ``_MODES`` each:
      full         2 K1*(K2*(1/2 K0*(v/4)))   both conditionals intractable
      strong       2 K1*(K2*(K0*(v/4)))       exact-scan SPI input: k0 is the
                                              linear gamma v, so K2*(gamma v/4)
      joint_2mg    2 K2*(1/2 K0*(v/4))        second conditional intractable
      marginal_2mg K2*(1/2 K0*(v)),           marginal route; bound clock reads
                                              F^{-1}(n-1) (n_offset = 1)

    K1 and K2 are guarded by min(K*(v), v) unless ``check_subunit`` passes.
    When every part is linear, so is the result: its slope is the product
    of the parts' slopes times outer * post * pre.  When K2 is piecewise
    linear and the other parts are linear, so is the result: K2's guarded
    knots, scaled.
    """
    if mode not in _MODES:
        raise InvalidModeError(f"unknown mode {mode!r}")
    pre, post, wraps_k1, outer, offset = _MODES[mode]
    if wraps_k1 and k1 is None:
        raise InvalidModeError(f"mode {mode!r} requires k1")
    if k0 is None or k2 is None:
        raise InvalidModeError("k0 and k2 are always required")
    if mode == "strong" and not isinstance(k0, Linear):
        raise InvalidModeError("strong mode requires a linear (SPI) k0")
    k2g, k1g = _guard(k2), (_guard(k1) if wraps_k1 else None)
    parts = (k0, k1g, k2g) if wraps_k1 else (k0, k2g)
    if all(isinstance(k, Linear) for k in parts):
        top = Linear(math.prod(k.slope for k in parts) * (outer * post * pre))
    elif isinstance(k2g, PiecewiseLinear) and all(isinstance(k, Linear) for k in parts[:-1]):
        # outer * K1(K2(c v)) with K1 linear: K2 at c v, times a
        c = post * pre * k0.slope
        a = outer * math.prod(k.slope for k in parts[1:-1])
        top = scale(k2g, 1.0 / c, a * c)
    else:
        node, top = Composite(outer=k0, pre_scale=pre, post_scale=post), k2g
        if wraps_k1:
            node, top = Composite(outer=k2g, inner=node), k1g
        return Composite(outer=top, inner=node, post_scale=outer, offset=offset)
    # the clock offset, which RateBound reads through to top's closed form
    return Composite(outer=top, offset=offset) if offset else top
