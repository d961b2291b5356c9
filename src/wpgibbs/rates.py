"""Convergence-rate profiles from a rate function K*.

F(x) = integral_x^{1/4} dv / K*(v) and the bound ||T^n f||^2 <= osc^2 *
F^{-1}(n).  Linear K* gives geometric decay 1/4 * exp(-slope * n); power
K* gives polynomial decay; everything else is integrated on a dense
logarithmic grid and inverted by bisection resolved toward the larger
(conservative) root.  Where K* vanishes the integral diverges: the bound
saturates at that level and ``saturated`` is set.
"""
from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .kstar import Composite, KStarFn, Linear, Power

X_MIN = 1e-12
X_MAX = 0.25
_GRID_POINTS = 4096
# relative width at which the bisection of F_inv stops
_REL_TOL = 1e-9


def _closed_form(k: KStarFn):
    """Return (kind, params) when F has a closed form, else None."""
    if isinstance(k, Linear):
        return ("linear", k.slope)
    if isinstance(k, Power):
        if k.exponent == 1.0:
            return ("linear", k.coefficient)
        return ("power", (k.coefficient, k.exponent))
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
        self._grid = None
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
        self._grid = v
        self._table = F

    def F(self, x: float) -> float:
        """F(x) = integral_x^{1/4} dv / K*(v) (may be inf)."""
        if not (0.0 < x <= X_MAX):
            raise DomainError("F needs x in (0, 1/4]")
        if self._cf is not None:
            if self._cf[0] == "linear":
                return math.log(X_MAX / x) / self._cf[1]
            c, p = self._cf[1]
            return (x ** (1.0 - p) - X_MAX ** (1.0 - p)) / (c * (p - 1.0))
        x = max(x, self.x_min)
        val = float(np.interp(math.log(x), np.log(self._grid), self._table))
        return val

    def F_inv(self, n: float) -> float:
        """Largest x in [X_MIN, 1/4] with F(x) >= n (conservative root)."""
        if n <= 0.0:
            return X_MAX
        if self._cf is not None:
            if self._cf[0] == "linear":
                # 1/4 exp(-slope n) falls below the smallest normal double
                # near slope * n = 707 and underflows to 0 near 745; the
                # floor stays above the true value
                return max(X_MAX * math.exp(-self._cf[1] * n), sys.float_info.min)
            c, p = self._cf[1]
            x = (c * (p - 1.0) * n + X_MAX ** (1.0 - p)) ** (-1.0 / (p - 1.0))
            return max(x, self.x_min)
        finite = np.isfinite(self._table)
        top = self._table[finite][0]
        if top < n:
            # K* vanishes (or the integral diverges) before the bound
            # reaches this level; report the certified floor
            self.saturated = True
            return float(self._grid[finite][0])
        lo, hi = float(self._grid[finite][0]), X_MAX
        while hi - lo > _REL_TOL * hi:
            mid = math.sqrt(lo * hi)
            if self.F(mid) >= n:
                lo = mid
            else:
                hi = mid
        return hi  # larger root: never report a faster rate than certified

    def rate_bound(self, n: float) -> float:
        """Squared-norm decay bound after n scans."""
        m = n - self.kstar.n_offset
        if m <= 0:
            return X_MAX
        return min(self.F_inv(m), X_MAX)

    def curve(self, ns) -> np.ndarray:
        return np.array([self.rate_bound(int(n)) for n in ns])

    def write_csv(self, path: str, ns) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "bound"])
            for n in ns:
                writer.writerow([int(n), repr(self.rate_bound(int(n)))])
