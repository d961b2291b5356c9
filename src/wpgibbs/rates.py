"""Convergence-rate profiles from a rate function K*.

F(x) = integral_x^{1/4} dv / K*(v) and the bound ||T^n f||^2 <= osc^2 *
F^{-1}(n).  Linear K* gives geometric decay 1/4 * exp(-slope * n); power
K* gives polynomial decay; everything else is integrated on a dense log
grid once per ``RateBound``: F interpolates that table linearly in log x,
and F^{-1} reads the same table the other way, raised by a relative margin
to the conservative side.  Where K* vanishes the integral diverges: the
bound saturates at that level and ``saturated`` is set.

``F_inv``, ``rate_bound`` and ``curve`` share one array inverse, so a curve
takes one pass over its whole grid on every path.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .kstar import Composite, KStarFn, Linear, Power

X_MIN = 1e-12
X_MAX = 0.25
_GRID_POINTS = 4096
# relative margin by which the numeric F_inv rounds its root upward
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
    if isinstance(k, Composite) and k.inner is None and isinstance(k.outer, Linear):
        return ("linear", k.pre_scale * k.post_scale * k.outer.slope)
    return None


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
            c, p, q = self._cf[1]
            try:
                return (x ** (1.0 - p) - q) / (c * (p - 1.0))
            except OverflowError:  # x^(1-p) past the largest double
                return math.inf
        x = max(x, self.x_min)
        return float(np.interp(math.log(x), self._log_grid, self._table))

    def F_inv(self, n: float) -> float:
        """Root of F(x) = n, never below it: on the numeric path raised by
        the relative margin ``_REL_TOL``, or past the table's top its floor."""
        return float(self._inverse(np.array([n], dtype=float))[0])

    def _inverse(self, m: np.ndarray) -> np.ndarray:
        """F_inv at every level of the float array ``m``, 1/4 where m <= 0,
        in one pass; sets ``saturated`` if a level is past the table's top."""
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
