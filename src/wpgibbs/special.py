"""Special functions used by the conjugate-model bounds.

Self-contained implementations of the real Lambert W (both real branches)
and the unnormalized incomplete gamma functions, so the closed-form beta
profiles do not silently depend on library conventions.  The test suite
cross-checks them against scipy.

Each function takes a scalar or an array and runs all its points through
one iteration loop that holds only the points still iterating: a point is
written back at the step where it converges on its own, and the survivors
are compacted then, so no point's value depends on the points beside it.
``lambert_w`` runs several branches through one Halley loop, and
``gammainc_tails`` both incomplete-gamma pieces through one series loop
and one continued-fraction loop.  A scalar input returns a float.  One bad
point anywhere, a non-finite one included, raises ``DomainError``.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

_E_INV = math.exp(-1.0)
_BRANCHES = ("principal", "minus_one")


def lambert_w(x, branch="principal", tol: float = 1e-14):
    """Real Lambert W: solve w * exp(w) = x.

    ``branch='principal'`` (W0) is defined on [-1/e, inf); ``'minus_one'``
    (W_{-1}) on [-1/e, 0).  Halley iteration from a branch-appropriate seed.
    A tuple of branch names, e.g. ``("principal", "minus_one")``, iterates
    them all in one loop and returns one row per branch, shape
    ``(len(branch),) + shape(x)``, each row bit-equal to that branch's own
    call.
    """
    branches = branch if isinstance(branch, tuple) else (branch,)
    for b in branches:
        if b not in _BRANCHES:
            raise DomainError(f"unknown branch {b!r}")
    xa = np.asarray(x, dtype=float)
    if not np.isfinite(xa).all():
        raise DomainError("lambert_w needs finite x")
    if not np.all(xa >= -_E_INV - 1e-15):
        raise DomainError(f"lambert_w undefined below -1/e (got {np.min(xa)})")
    xa = np.maximum(xa, -_E_INV)
    if "minus_one" in branches and np.any(xa >= 0.0):
        raise DomainError("minus_one branch needs x in [-1/e, 0)")

    xf = xa.reshape(-1)
    at_branch_point = np.abs(xf + _E_INV) < 1e-300
    todo = (xf != 0.0) & ~at_branch_point
    w = np.zeros((len(branches), xf.size))
    for row, b in zip(w, branches):
        row[at_branch_point] = -1.0
        _seed(row, xf, todo, b)
    # the branches' rows side by side make one flat set of points
    idx = np.flatnonzero(np.tile(todo, len(branches)))
    _halley(w.reshape(-1), idx, np.tile(xf, len(branches))[idx], tol)
    if isinstance(branch, tuple):
        return w.reshape((len(branches),) + xa.shape)
    return float(w[0, 0]) if xa.ndim == 0 else w[0].reshape(xa.shape)


def _seed(w: np.ndarray, x: np.ndarray, todo: np.ndarray, branch: str) -> None:
    # asymptotic logs away from the branch point, the series about it
    if branch == "principal":
        far, near, side = todo & (x > math.e), todo & (x < 0.0), 1.0
        mid = todo & (x > 0.0) & (x <= math.e)
        w[mid] = x[mid] / (1.0 + x[mid])
    else:
        far, near, side = todo & (x > -0.1), todo & (x <= -0.1), -1.0
    lx = np.log(np.abs(x[far]))
    w[far] = lx - np.log(np.abs(lx))
    p = np.sqrt(2.0 * (math.e * x[near] + 1.0))
    w[near] = -1.0 + side * p - p * p / 3.0


def _halley(w: np.ndarray, idx: np.ndarray, x: np.ndarray, tol: float) -> None:
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
        done = np.abs(dw) <= tol * (1.0 + np.abs(wi))
        if np.count_nonzero(done):
            w[idx[done]] = wi[done]
            keep = ~done
            idx, wi, x = idx[keep], wi[keep], x[keep]
    w[idx] = wi


def gammainc_lower(s, x, tol: float = 1e-15):
    """Unnormalized lower incomplete gamma: integral of t^{s-1} e^{-t}, 0..x."""
    return _gammainc("gammainc_lower", s, ((x, False),), tol)


def gammainc_upper(s, x, tol: float = 1e-15):
    """Unnormalized upper incomplete gamma: integral of t^{s-1} e^{-t}, x..inf."""
    return _gammainc("gammainc_upper", s, ((x, True),), tol)


def gammainc_tails(s, lo, hi):
    """gamma(s, lo) + Gamma(s, hi): the lower piece up to ``lo`` plus the
    upper piece from ``hi``, both pieces through one series loop and one
    continued-fraction loop at the default tolerance of those; bit-equal to
    ``gammainc_lower(s, lo) + gammainc_upper(s, hi)``."""
    return _gammainc("gammainc_tails", s, ((lo, False), (hi, True)), 1e-15)


def _gammainc(name: str, s, pieces, tol: float):
    """The sum over ``pieces`` of (x, upper) of the upper incomplete gamma
    from x or the lower one up to x, all pieces evaluated in one pass."""
    s0 = np.asarray(s, dtype=float)
    sa, *xs = np.broadcast_arrays(s0, *[np.asarray(x, dtype=float) for x, _ in pieces])
    if not (np.isfinite(sa).all() and np.all(sa > 0.0)):
        raise DomainError(f"{name} needs finite s > 0")
    x = np.concatenate([xa.reshape(-1) for xa in xs])
    if not (np.isfinite(x).all() and np.all(x >= 0.0)):
        raise DomainError(f"{name} needs finite x >= 0")
    upper = np.repeat([u for _, u in pieces], sa.size)
    # a scalar s stays a float through the loops
    sv = float(s0) if s0.ndim == 0 else np.tile(sa.reshape(-1), len(pieces))
    part = _pieces(sv, x, upper, tol).reshape(len(pieces), sa.size)
    total = part[0] if len(pieces) == 1 else part[0] + part[1]
    return float(total[0]) if sa.ndim == 0 else total.reshape(sa.shape)


def _at(s, mask):
    """``s`` at the points ``mask`` picks: a scalar s stays as it is."""
    return s[mask] if isinstance(s, np.ndarray) else s


def _pieces(s, x: np.ndarray, upper, tol: float) -> np.ndarray:
    """The upper incomplete gamma where ``upper`` holds, the lower one
    elsewhere; ``s`` is a float or an array aligned with ``x``."""
    series = (x > 0.0) & (x < s + 1.0)
    cf = x >= s + 1.0
    part = np.zeros_like(x)
    part[series] = _lower_series(_at(s, series), x[series], tol)
    part[cf] = _upper_cf(_at(s, cf), x[cf], tol)
    # the series gives the lower piece, the continued fraction the upper one;
    # the other piece is Gamma(s) minus it (at x = 0, lower 0 and upper Gamma(s))
    complement = cf ^ upper
    if np.count_nonzero(complement):
        if not isinstance(s, np.ndarray):
            gam = math.gamma(s)
        else:
            vals, inv = np.unique(s[complement], return_inverse=True)
            gam = np.array([math.gamma(v) for v in vals])[inv.reshape(-1)]
        part[complement] = gam - part[complement]
    return part


def _lower_series(s, x: np.ndarray, tol: float) -> np.ndarray:
    # gamma(s, x) = x^s e^{-x} sum_{k>=0} x^k / (s (s+1) ... (s+k)); with
    # x, s > 0 every term is >= 0, so the stopping test needs no abs
    total = np.ones_like(x) / s
    idx = np.flatnonzero(total > tol * total)
    term, tot, xi, si = total[idx], total[idx], x[idx], _at(s, idx)
    k = 0
    while idx.size and k < 10_000:
        k += 1
        term = term * (xi / (si + k))
        tot = tot + term
        going = term > tol * tot
        if np.count_nonzero(going) < going.size:
            total[idx[~going]] = tot[~going]
            idx, term, tot, xi, si = (idx[going], term[going], tot[going], xi[going],
                                      _at(si, going))
    total[idx] = tot
    return total * np.exp(s * np.log(x) - x)


def _upper_cf(s, x: np.ndarray, tol: float) -> np.ndarray:
    # Gamma(s, x) = x^s e^{-x} / (x + 1 - s - 1(1-s)/(x+3-s- ...)), Lentz
    tiny = 1e-300
    b = x + 1.0 - s
    d = 1.0 / np.where(b != 0.0, b, tiny)
    h = d.copy()
    idx = np.arange(x.size)
    c = np.full_like(x, 1.0 / tiny)
    hi, si = h, s
    for i in range(1, 10_000):
        if idx.size == 0:
            break
        an = -i * (i - si)
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
        done = np.abs(delta - 1.0) < tol
        if np.count_nonzero(done):
            h[idx[done]] = hi[done]
            keep = ~done
            idx, b, d, c, hi, si = idx[keep], b[keep], d[keep], c[keep], hi[keep], _at(si, keep)
    h[idx] = hi
    return h * np.exp(s * np.log(x) - x)
