"""Special functions of the conjugate-model beta_2 profiles.

Self-contained implementations of the two real Lambert W branches on
[-1/e, 0) and of the regularised incomplete gamma pieces, so the
closed-form beta profiles do not silently depend on library conventions.
The test suite cross-checks them against scipy.

Both functions take arrays and run all their points through one iteration
loop that holds only the points still iterating: a point is written back at
the step where it converges on its own, and the survivors are compacted
then, so no point's value depends on the points beside it.  ``lambert_w``
runs both branches through one Halley loop, and ``gammainc_tails`` both
incomplete-gamma pieces through one series loop and one continued-fraction
loop.  One bad point anywhere, a non-finite one included, raises
``DomainError``.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_E_INV = math.exp(-1.0)
# relative step that stops Halley's iteration, and the relative term (series)
# or factor change (continued fraction) that stops the incomplete gammas
_W_TOL = 1e-14
# below this |x|, W0 is its Maclaurin series: Halley's stopping test is
# absolute near w = 0 and would stop a tiny w short, or at 0
_W0_SERIES = 1e-8
_GAMMA_TOL = 1e-15


def lambert_w(x) -> np.ndarray:
    """Both real solutions w of w * exp(w) = x for x in [-1/e, 0): row 0
    the principal branch W0, row 1 the branch W_{-1}, shape
    ``(2,) + shape(x)``.

    Halley iteration from a branch-appropriate seed; W0 at |x| < 1e-8 is
    x - x^2 + 3x^3/2 - 8x^4/3, whose next term is below 1e-31 of x there.
    An x that rounds just past -1/e is taken as -1/e.
    """
    xa = np.asarray(x, dtype=float)
    if not np.isfinite(xa).all():
        raise DomainError("lambert_w needs finite x")
    if not np.all(xa >= -_E_INV - 1e-15):
        raise DomainError(f"lambert_w undefined below -1/e (got {np.min(xa)})")
    if np.any(xa >= 0.0):
        raise DomainError("lambert_w needs x in [-1/e, 0)")

    xf = xa.reshape(-1)
    # x at -1/e, or rounded just past it, is the branch point, where both are -1
    todo = xf > -_E_INV
    x = xf[todo]
    w = np.full((2, xf.size), -1.0)
    # W0 from the series about the branch point; W_{-1} from it at x <= -0.1
    # and from the asymptotic logs above
    p = np.sqrt(2.0 * (math.e * x + 1.0))
    w[0, todo] = -1.0 + p - p * p / 3.0
    lx = np.log(np.abs(x))
    w[1, todo] = np.where(x > -0.1, lx - np.log(np.abs(lx)), -1.0 - p - p * p / 3.0)
    small = xf > -_W0_SERIES
    xs = xf[small]
    w[0, small] = xs * (1.0 - xs * (1.0 - xs * (1.5 - xs * (8.0 / 3.0))))
    # the two rows side by side make one flat set of points
    halley = todo & ~small
    idx = np.flatnonzero(np.concatenate([halley, todo]))
    _halley(w.reshape(-1), idx, np.concatenate([xf[halley], x]))
    return w.reshape((2,) + xa.shape)


def _halley(w: np.ndarray, idx: np.ndarray, x: np.ndarray) -> None:
    """Halley steps toward w exp(w) = x on w[idx], in place; ``x`` is
    aligned with ``idx``.  A zero step denominator stops a point where it
    is."""
    wi = w[idx]
    for _ in range(100):
        if idx.size == 0:
            break
        ew = np.exp(wi)
        f = wi * ew - x
        w1 = wi + 1.0
        denom = ew * w1 - (wi + 2.0) * f / (2.0 * w1)
        if np.count_nonzero(denom) < denom.size:
            stuck = denom == 0.0
            w[idx[stuck]] = wi[stuck]
            keep = ~stuck
            idx, wi, x, f, denom = idx[keep], wi[keep], x[keep], f[keep], denom[keep]
        dw = f / denom
        wi = wi - dw
        done = np.abs(dw) <= _W_TOL * (1.0 + np.abs(wi))
        if np.count_nonzero(done):
            w[idx[done]] = wi[done]
            keep = ~done
            idx, wi, x = idx[keep], wi[keep], x[keep]
    w[idx] = wi


def gammainc_tails(s: float, lo, hi) -> np.ndarray:
    """P(s, lo) + Q(s, hi): the regularised lower incomplete gamma up to
    ``lo`` plus the regularised upper one from ``hi``, for a float s > 0 and
    arrays ``lo`` and ``hi`` of one shape.  Gamma(s) is never formed: the
    prefactor x^s e^{-x} / Gamma(s) is one exp, whose rounding grows like
    s log x (about 2e-11 relative at s = 1e4)."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if lo.shape != hi.shape:
        raise DomainError(f"gammainc_tails needs lo and hi of one shape, got {lo.shape} and {hi.shape}")
    s = float(s)
    if not (math.isfinite(s) and s > 0.0):
        raise DomainError("gammainc_tails needs finite s > 0")
    x = np.concatenate([lo.reshape(-1), hi.reshape(-1)])
    if not (np.isfinite(x).all() and np.all(x >= 0.0)):
        raise DomainError("gammainc_tails needs finite x >= 0")
    upper = np.repeat([False, True], lo.size)
    series = (x > 0.0) & (x < s + 1.0)
    cf = x >= s + 1.0
    part = np.zeros_like(x)
    part[series] = _lower_series(s, x[series])
    part[cf] = _upper_cf(s, x[cf])
    # the series gives the lower piece, the continued fraction the upper one;
    # the other piece is 1 minus it (at x = 0, lower 0 and upper 1)
    complement = cf ^ upper
    if np.count_nonzero(complement):
        part[complement] = 1.0 - part[complement]
    return (part[:lo.size] + part[lo.size:]).reshape(lo.shape)


def _lower_series(s: float, x: np.ndarray) -> np.ndarray:
    # P(s, x) = x^s e^{-x} / Gamma(s) sum_{k>=0} x^k / (s (s+1) ... (s+k)); with
    # x, s > 0 every term is >= 0, so the stopping test needs no abs
    total = np.ones_like(x) / s
    idx = np.flatnonzero(total > _GAMMA_TOL * total)
    term, tot, xi = total[idx], total[idx], x[idx]
    k = 0
    while idx.size and k < 10_000:
        k += 1
        term = term * (xi / (s + k))
        tot = tot + term
        going = term > _GAMMA_TOL * tot
        if np.count_nonzero(going) < going.size:
            total[idx[~going]] = tot[~going]
            idx, term, tot, xi = idx[going], term[going], tot[going], xi[going]
    total[idx] = tot
    return total * np.exp(s * np.log(x) - x - math.lgamma(s))


def _upper_cf(s: float, x: np.ndarray) -> np.ndarray:
    # Q(s, x) = x^s e^{-x} / Gamma(s) / (x + 1 - s - 1(1-s)/(x+3-s- ...)), Lentz
    tiny = 1e-300
    b = x + 1.0 - s
    d = 1.0 / np.where(b != 0.0, b, tiny)
    h = d.copy()
    idx = np.arange(x.size)
    c = np.full_like(x, 1.0 / tiny)
    hi = h
    for i in range(1, 10_000):
        if idx.size == 0:
            break
        an = -i * (i - s)
        b = b + 2.0
        d = an * d + b
        if np.count_nonzero(d) < d.size:
            d[d == 0.0] = tiny
        d = 1.0 / d
        c = b + an / c
        if np.count_nonzero(c) < c.size:
            c[c == 0.0] = tiny
        delta = d * c
        hi = hi * delta
        done = np.abs(delta - 1.0) < _GAMMA_TOL
        if np.count_nonzero(done):
            h[idx[done]] = hi[done]
            keep = ~done
            idx, b, d, c, hi = idx[keep], b[keep], d[keep], c[keep], hi[keep]
    h[idx] = hi
    return h * np.exp(s * np.log(x) - x - math.lgamma(s))
