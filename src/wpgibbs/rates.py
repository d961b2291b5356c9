"""Convergence-rate profiles from a rate function K*.

F(x) = integral_x^{1/4} dv / K*(v) and the bound ||T^n f||^2 <= osc^2 *
F^{-1}(n).  Linear K* gives geometric decay 1/4 * exp(-slope * n); power
K* gives polynomial decay; a piecewise-linear K*, the Table family's, gives
F and F^{-1} in closed form on each of its segments; everything else is
integrated on a dense log grid once per ``RateBound``: F interpolates that
table linearly in log x, and F^{-1} reads the same table the other way.
F^{-1} off the linear and power forms is raised by a relative margin to
the conservative side.  Where K* vanishes the integral diverges: the bound
saturates at that level and ``saturated`` is set.

``F_inv``, ``rate_bound`` and ``curve`` share one array inverse, so a curve
takes one pass over its whole grid on every path.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .kstar import Composite, KStarFn, Linear, PiecewiseLinear, Power

X_MIN = 1e-12
X_MAX = 0.25
_GRID_POINTS = 4096
# relative margin by which the numeric and pl F_inv round their root upward
_REL_TOL = 1e-9


def _closed_form(k: KStarFn):
    """Return (kind, params) when F has a closed form, else None."""
    if isinstance(k, Linear):
        return ("linear", k.slope)
    if isinstance(k, Power):
        if k.exponent == 1.0:
            return ("linear", k.coefficient)
        try:  # with q = (1/4)**(1 - p), F's constant term
            return ("power", (k.coefficient, k.exponent, X_MAX ** (1.0 - k.exponent)))
        except OverflowError:
            raise DomainError(f"power K* exponent {k.exponent!r} is too large for a double") from None
    if isinstance(k, PiecewiseLinear):
        return ("pl", _pl_table(k))
    if isinstance(k, Composite) and k.inner is None and k.pre_scale == k.post_scale == 1.0:
        return _closed_form(k.outer)  # compose_mwg's clock offset
    return None


def _pl_table(k: PiecewiseLinear):
    """(a, K, F, floor) of a piecewise-linear K* on (0, 1/4]: its knots
    below 1/4 and 1/4 itself, K* and F there, and the largest knot where K*
    is 0, below which F is infinite (0 when there is none)."""
    x, y = np.asarray(k.v_knots), np.asarray(k.values)
    below = x < X_MAX
    a = np.append(x[below], X_MAX)
    K = np.append(y[below], k(X_MAX))
    # on [a_i, a_i+1], K = K_i (1 + r (v - a_i) / (a_i+1 - a_i)) with
    # r = K_i+1 / K_i - 1, and the integral of dv / K is
    # (a_i+1 - a_i) / K_i * log1p(r) / r: log(K_b / K_a) / m, or (b - a) / K_a
    # where the slope m is 0
    with np.errstate(divide="ignore", invalid="ignore"):
        seg = np.diff(a) / K[:-1] * _log1p_ratio((K[1:] - K[:-1]) / K[:-1])
    seg[K[:-1] == 0.0] = math.inf
    F = np.append(np.cumsum(seg[::-1])[::-1], 0.0)
    zero = np.count_nonzero(K == 0.0)
    return a, K, F, float(a[zero - 1]) if zero else 0.0


def _log1p_ratio(r: np.ndarray) -> np.ndarray:
    """log1p(r) / r, 1 at r = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(r > 0.0, np.log1p(r) / r, 1.0)


@dataclass
class RateBound:
    """Inverse-F evaluator for a rate function.

    ``rate_bound(n)`` is the certified n-step squared-norm decay factor,
    with rate_bound(n) = 1/4 for n <= the function's n_offset.
    """

    kstar: KStarFn
    x_min: float = X_MIN
    saturated: bool = field(default=False, init=False)

    def __post_init__(self):
        if not (0.0 < self.x_min < X_MAX):
            raise DomainError("x_min must lie in (0, 1/4)")
        self._cf = _closed_form(self.kstar)
        self._log_grid = None
        self._table = None
        if self._cf is None:
            self._build_table()

    def _build_table(self):
        v = np.geomspace(self.x_min, X_MAX, _GRID_POINTS)
        kv = np.asarray(self.kstar(v), dtype=float)
        t = np.log(v)
        with np.errstate(divide="ignore"):
            g = np.where(kv > 0.0, v / kv, np.inf)  # integrand in log-v
        # cumulative trapezoid from the top: F at each grid point
        seg = 0.5 * (g[1:] + g[:-1]) * np.diff(t)
        F = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
        self._log_grid = t
        self._table = F
        # F falls as x grows and np.interp needs rising points: F_inv reads
        # the finite part of the table reversed; past its top, the floor
        finite = np.isfinite(F)
        self._rising_F = np.ascontiguousarray(F[finite][::-1])
        self._rising_log_x = np.ascontiguousarray(t[finite][::-1])
        self._top = self._rising_F[-1]
        self._floor = float(v[finite][0])

    def F(self, x: float) -> float:
        """F(x) = integral_x^{1/4} dv / K*(v) (may be inf)."""
        if not (0.0 < x <= X_MAX):
            raise DomainError("F needs x in (0, 1/4]")
        if self._cf is not None:
            if self._cf[0] == "linear":
                return math.log(X_MAX / x) / self._cf[1]
            if self._cf[0] == "pl":
                return float(self._pl_F(np.array([x]))[0])
            c, p, q = self._cf[1]
            try:
                return (x ** (1.0 - p) - q) / (c * (p - 1.0))
            except OverflowError:  # x^(1-p) past the largest double
                return math.inf
        x = max(x, self.x_min)
        return float(np.interp(math.log(x), self._log_grid, self._table))

    def _pl_F(self, x: np.ndarray) -> np.ndarray:
        """F at every x of (0, 1/4] on the ``pl`` path: the knots' F above
        x's segment plus the integral from x to the segment's top."""
        a, K, F, _ = self._cf[1]
        i = np.searchsorted(a, x, side="right") - 1
        j = np.minimum(i + 1, len(a) - 1)
        lo = np.maximum(i, 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            kx = K[lo] + (x - a[lo]) * ((K[j] - K[lo]) / (a[j] - a[lo]))
            out = F[j] + (a[j] - x) / kx * _log1p_ratio((K[j] - kx) / kx)
        out[(i < 0) | (kx <= 0.0)] = math.inf
        out[i == len(a) - 1] = 0.0
        return out

    def F_inv(self, n: float) -> float:
        """Root of F(x) = n, never below it: on the numeric and ``pl`` paths
        raised by the relative margin ``_REL_TOL``, or past the numeric
        table's top its floor."""
        return float(self._inverse(np.array([n], dtype=float))[0])

    def _inverse(self, m: np.ndarray) -> np.ndarray:
        """F_inv at every level of the float array ``m``, 1/4 where m <= 0,
        in one pass; sets ``saturated`` if a level is past the table's top,
        or on the ``pl`` path if the curve has a positive floor."""
        if self._cf is not None and self._cf[0] == "pl":
            return self._pl_inverse(m)
        if self._cf is not None:
            if self._cf[0] == "linear":
                # 1/4 exp(-slope n) falls below the smallest normal double
                # near slope * n = 707 and underflows to 0 near 745; the
                # floor stays above the true value.  math.exp and ** per
                # point, as np.exp and np.power need not round the same way
                neg, top, exp = -self._cf[1], X_MAX, math.exp
                return np.maximum([top * exp(neg * n) if n > 0.0 else top
                                   for n in m.tolist()], sys.float_info.min)
            c, p, q = self._cf[1]
            cp, e = c * (p - 1.0), -1.0 / (p - 1.0)
            return np.maximum([(cp * n + q) ** e if n > 0.0 else X_MAX
                               for n in m.tolist()], self.x_min)
        t = np.interp(m, self._rising_F, self._rising_log_x)
        exp = math.exp
        out = np.array([exp(v) for v in t.tolist()])
        out = np.minimum(out * (1.0 + _REL_TOL), X_MAX)
        past = m > self._top
        if np.count_nonzero(past):
            # K* vanishes (or the integral diverges) before the bound
            # reaches this level; report the certified floor
            self.saturated = True
            out[past] = self._floor
        out[m <= 0.0] = X_MAX
        return out

    def _pl_inverse(self, m: np.ndarray) -> np.ndarray:
        """F_inv at every level of ``m`` on the ``pl`` path, in closed form
        on the level's segment and raised by ``_REL_TOL``.

        On [a, b] with K = K_b at b and slope m, the integral of dv / K from
        x to b is d where K(x) = K_b exp(-m d): x = b - K_b d (1 - exp(-m d))
        / (m d), or x = a + (b - a) exp(-m d) from a zero of K at a.  The
        curve never falls to a floor where K* vanishes, but saturates at it,
        and ``saturated`` is set; nor below the smallest normal double."""
        a, K, F, floor = self._cf[1]
        # the segment [a_i, a_i+1] with F_i > m >= F_i+1, or the floor
        i = len(a) - 1 - np.searchsorted(F[::-1], m, side="right")
        lo, hi = np.clip(i, 0, len(a) - 1), np.clip(i + 1, 0, len(a) - 1)
        d = m - F[hi]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = (K[hi] - K[lo]) / (a[hi] - a[lo]) * d
            from_b = a[hi] - K[hi] * d * np.where(t > 0.0, -np.expm1(-t) / t, 1.0)
            from_zero = a[lo] + (a[hi] - a[lo]) * np.exp(-t)
        out = np.where(K[lo] > 0.0, from_b, from_zero)
        out[i < 0] = a[0]
        out = np.maximum(np.minimum(out * (1.0 + _REL_TOL), X_MAX), sys.float_info.min)
        if floor > 0.0 and np.count_nonzero(m > 0.0):
            self.saturated = True
        out[m <= 0.0] = X_MAX
        return out

    def rate_bound(self, n: float) -> float:
        """Squared-norm decay bound after n scans."""
        return min(self.F_inv(n - self.kstar.n_offset), X_MAX)

    def curve(self, ns) -> np.ndarray:
        """``rate_bound(int(n))`` at every n of ``ns``, in one pass."""
        off = self.kstar.n_offset
        return np.minimum(self._inverse(np.array([int(n) - off for n in ns], dtype=float)), X_MAX)

    def write_csv(self, path: str, ns) -> None:
        bounds = self.curve(ns).tolist()  # a failing point leaves no partial file
        with open(path, "w", newline="") as fh:
            _write_rows(fh, ("n", "bound"), [map(int, ns), bounds])


def _write_rows(fh, header, cols) -> None:
    """Write the equal-length columns ``cols`` to ``fh`` as CSV lines under
    the ``header`` row (none if it is empty), in one ``fh.write``.

    Every cell is an int, a float (whose ``str`` is its ``repr``) or a
    string that is already a cell: a fixed column name or a number's
    ``repr``.  None holds a comma, a quote or a line break, so
    ``csv.writer`` would quote none of them, and the bytes are the ones it
    writes: cells joined by commas and each row ended by CRLF.  ``fh`` is
    opened with ``newline=""``.
    """
    lines = [",".join(header)] if header else []
    lines += map(",".join, zip(*[map(str, col) for col in cols], strict=True))
    if lines:
        fh.write("\r\n".join(lines) + "\r\n")
