"""Special functions used by the conjugate-model bounds.

Self-contained implementations of the real Lambert W (both real branches)
and the unnormalized incomplete gamma functions, so the closed-form beta
profiles do not silently depend on library conventions.  The test suite
cross-checks them against scipy.

Each function takes a scalar or an array and iterates every point in
lockstep, a point leaving the iteration at the step where it converges on
its own; a scalar input returns a float.  One bad point anywhere raises
``DomainError``.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_E_INV = math.exp(-1.0)


def lambert_w(x, branch: str = "principal", tol: float = 1e-14):
    """Real Lambert W: solve w * exp(w) = x.

    ``branch='principal'`` (W0) is defined on [-1/e, inf); ``'minus_one'``
    (W_{-1}) on [-1/e, 0).  Halley iteration from a branch-appropriate seed.
    """
    if branch not in ("principal", "minus_one"):
        raise DomainError(f"unknown branch {branch!r}")
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    if not np.all(xa >= -_E_INV - 1e-15):
        raise DomainError(f"lambert_w undefined below -1/e (got {np.min(xa)})")
    xa = np.maximum(xa, -_E_INV)
    if branch == "minus_one" and np.any(xa >= 0.0):
        raise DomainError("minus_one branch needs x in [-1/e, 0)")

    w = np.zeros_like(xa)
    at_branch_point = np.abs(xa + _E_INV) < 1e-300
    w[at_branch_point] = -1.0
    todo = (xa != 0.0) & ~at_branch_point
    # seeds: asymptotic logs away from the branch point, the series about it
    if branch == "principal":
        far, near, side = todo & (xa > math.e), todo & (xa < 0.0), 1.0
        mid = todo & (xa > 0.0) & (xa <= math.e)
        w[mid] = xa[mid] / (1.0 + xa[mid])
    else:
        far, near, side = todo & (xa > -0.1), todo & (xa <= -0.1), -1.0
    lx = np.log(np.abs(xa[far]))
    w[far] = lx - np.log(np.abs(lx))
    p = np.sqrt(2.0 * (math.e * xa[near] + 1.0))
    w[near] = -1.0 + side * p - p * p / 3.0

    idx = np.flatnonzero(todo)
    wf, xf = w.reshape(-1), xa.reshape(-1)
    for _ in range(100):
        if idx.size == 0:
            break
        wi = wf[idx]
        ew = np.exp(wi)
        f = wi * ew - xf[idx]
        w1 = wi + 1.0
        denom = ew * w1 - (wi + 2.0) * f / (2.0 * w1)
        moving = denom != 0.0
        dw = f[moving] / denom[moving]
        wi = wi[moving] - dw
        wf[idx[moving]] = wi
        idx = idx[moving][~(np.abs(dw) <= tol * (1.0 + np.abs(wi)))]
    return float(w) if scalar else w


def gammainc_lower(s, x, tol: float = 1e-15):
    """Unnormalized lower incomplete gamma: integral of t^{s-1} e^{-t}, 0..x."""
    return _gammainc(s, x, tol, upper=False)


def gammainc_upper(s, x, tol: float = 1e-15):
    """Unnormalized upper incomplete gamma: integral of t^{s-1} e^{-t}, x..inf."""
    return _gammainc(s, x, tol, upper=True)


def _gammainc(s, x, tol: float, upper: bool):
    name = "gammainc_upper" if upper else "gammainc_lower"
    sa, xa = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(x, dtype=float))
    shape, scalar = sa.shape, sa.ndim == 0
    if not np.all(sa > 0.0):
        raise DomainError(f"{name} needs s > 0")
    if not np.all(xa >= 0.0):
        raise DomainError(f"{name} needs x >= 0")
    sa, xa = sa.reshape(-1), xa.reshape(-1)
    series = (xa > 0.0) & (xa < sa + 1.0)
    cf = xa >= sa + 1.0
    part = np.zeros_like(xa)
    part[series] = _lower_series(sa[series], xa[series], tol)
    part[cf] = _upper_cf(sa[cf], xa[cf], tol)
    # the series gives the lower piece, the continued fraction the upper one;
    # the other piece is Gamma(s) minus it (at x = 0, lower 0 and upper Gamma(s))
    complement = (series | (xa == 0.0)) if upper else cf
    if np.any(complement):
        vals, inv = np.unique(sa[complement], return_inverse=True)
        gam = np.array([math.gamma(v) for v in vals])[inv.reshape(-1)]
        part[complement] = gam - part[complement]
    return float(part[0]) if scalar else part.reshape(shape)


def _lower_series(s: np.ndarray, x: np.ndarray, tol: float) -> np.ndarray:
    # gamma(s, x) = x^s e^{-x} sum_{k>=0} x^k / (s (s+1) ... (s+k))
    term = 1.0 / s
    total = term.copy()
    idx = np.flatnonzero(np.abs(term) > tol * np.abs(total))
    k = 0
    while idx.size and k < 10_000:
        k += 1
        term[idx] *= x[idx] / (s[idx] + k)
        total[idx] += term[idx]
        idx = idx[np.abs(term[idx]) > tol * np.abs(total[idx])]
    return total * np.exp(s * np.log(x) - x)


def _upper_cf(s: np.ndarray, x: np.ndarray, tol: float) -> np.ndarray:
    # Gamma(s, x) = x^s e^{-x} / (x + 1 - s - 1(1-s)/(x+3-s- ...)), Lentz
    tiny = 1e-300
    b = x + 1.0 - s
    c = np.full_like(x, 1.0 / tiny)
    d = 1.0 / np.where(b != 0.0, b, tiny)
    h = d.copy()
    idx = np.arange(x.size)
    for i in range(1, 10_000):
        if idx.size == 0:
            break
        an = -i * (i - s[idx])
        bi = b[idx] + 2.0
        b[idx] = bi
        di = an * d[idx] + bi
        di = 1.0 / np.where(di != 0.0, di, tiny)
        ci = bi + an / c[idx]
        ci = np.where(ci != 0.0, ci, tiny)
        d[idx], c[idx] = di, ci
        delta = di * ci
        h[idx] *= delta
        idx = idx[~(np.abs(delta - 1.0) < tol)]
    return h * np.exp(s * np.log(x) - x)
