"""Two-sided reference for rate-bound curves.

Nothing here calls the package's conjugation, composition or rate code.
Profiles are re-evaluated from their formulas with numpy/scipy, and
K*(v) = sup_u u (v - beta(1/u)) is bracketed on a fine geometric u-grid:
cell-wise affine majorants give an upper K*, the objective at the grid
points gives a lower K*.  The composition rules of ``compose_mwg`` are
applied to each side, and F is integrated with ``scipy.integrate.quad``.

- Soundness: the upper K* gives a lower F, so a reported point with
  F_lo(bound) > n - offset is a real under-report whatever the grid.
- Tightness: the lower K* gives an upper F.  A reported bound that stays
  above the lower-K* bound even after shrinking both its value and its
  step count by LOOSE_TOL is provably looser than certified.
"""
from __future__ import annotations

import bisect
import math
import warnings

import numpy as np
from scipy import integrate, special

from workloads import C_RWM, C_XI

V_TOP = 0.25
CAP = 0.25
U_LO, U_HI, U_POINTS = 1e-8, 1e8, 200_001
# vectorised passes that thin the lines of a conjugate bound before the
# exact hull is taken
HULL_PASSES = 30
# a point is flagged only when F_lo clears n - offset by more than this
# relative margin plus ten times quad's own error estimate
FLAG_REL_MARGIN = 1e-6
# a bound fails the tightness check when bound / (1 + LOOSE_TOL) still has
# F_hi below (1 - LOOSE_TOL) (n - offset)
LOOSE_TOL = 0.1
# RateBound never reports less than its floor x_min = 1e-12
X_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# profiles from their formulas
# ---------------------------------------------------------------------------


def beta_values(desc: dict, s: np.ndarray) -> np.ndarray:
    """Evaluate the profile described by ``desc`` at the array ``s`` > 0."""
    fam = desc["family"]
    if fam == "indicator":
        return np.where(s <= 1.0 / desc["gamma"], 1.0, 0.0)
    if fam == "powerlaw":
        return np.minimum(desc["coefficient"] * s ** (-desc["exponent"]), CAP)
    if fam == "explogsquare":
        c, a, b = desc["c"], desc["a"], desc.get("b", 0.0)
        val = c * np.exp(-((a * np.log(s) + b) ** 2))
        return np.minimum(np.where(s < math.exp(-b / a), c, val), CAP)
    if fam == "table":
        ss, vv = zip(*desc["knots"])
        return np.minimum(np.interp(s, ss, vv), CAP)
    if fam == "sum":
        return sum(beta_values(ch, s) for ch in desc["children"])
    if fam == "adjoint_shift":
        out = np.full_like(s, CAP)
        high = s > 1.0
        out[high] = beta_values(desc["child"], s[high] - 1.0)
        return out
    if fam == "nig1":
        return _nig_beta1(s, desc["beta_hyper"], desc["sigma0"])
    if fam == "nig2":
        return _nig_beta2(s, desc["beta_hyper"], desc["sigma0"])
    if fam == "bayes2":
        return _bayes_beta2(s, desc["a_prime"], desc["b_prime"], desc["C1"], desc["C2"])
    raise ValueError(f"unknown profile family {fam!r}")


def _lambert_pair(arg: np.ndarray):
    w0 = special.lambertw(arg, 0).real
    wm1 = special.lambertw(arg, -1).real
    return w0, wm1


def _nig_beta1(s, beta, sigma0):
    s0sq = sigma0 * sigma0
    cprime = C_XI * (beta * beta * s0sq / (beta * beta * s0sq + 1.0)) ** 4
    root = np.sqrt(cprime * s / s0sq)
    out = np.full_like(s, CAP)
    hi = root > beta
    val = (2.0 * math.sqrt(2.0 * beta) / math.pi) * (
        math.pi / 2.0 - np.arctan(np.sqrt((root[hi] - beta) / beta))
    )
    out[hi] = np.minimum(val, CAP)
    return out


def _nig_beta2(s, beta, sigma0):
    out = np.full_like(s, CAP)
    hi = s >= 2.0 * math.e / C_RWM
    w0, wm1 = _lambert_pair(np.maximum(-2.0 / (C_RWM * s[hi]), -1.0 / math.e))
    scale = -beta / (2.0 * sigma0 * sigma0)
    # Gamma(1/2) = sqrt(pi), so the normalised sum is the regularised one
    val = special.gammainc(0.5, scale * w0) + special.gammaincc(0.5, scale * wm1)
    out[hi] = np.minimum(val, CAP)
    return out


def _bayes_beta2(s, a_prime, b_prime, C1, C2):
    out = np.full_like(s, CAP)
    c1c2 = C1 * C2
    hi = s >= math.e * c1c2
    w0, wm1 = _lambert_pair(np.maximum(-c1c2 / s[hi], -1.0 / math.e))
    scale = -b_prime / C2
    val = special.gammainc(a_prime, scale * w0) + special.gammaincc(a_prime, scale * wm1)
    out[hi] = np.minimum(val, CAP)
    return out


# ---------------------------------------------------------------------------
# bounds on the conjugate
# ---------------------------------------------------------------------------


def _hull(a: np.ndarray, c: np.ndarray):
    """(slopes, intercepts) of the lines v -> a v - c (a strictly
    increasing) on their upper envelope.

    A line that its two neighbours dominate is not on the envelope of the
    full set, so a few vectorised passes drop all such lines at once; a
    monotone stack then removes the rest."""
    keep = np.arange(len(a))
    for _ in range(HULL_PASSES):
        aa, cc = a[keep], c[keep]
        # the middle line is redundant when the outer lines cross at or
        # before the point where it overtakes its left neighbour
        lhs = (cc[2:] - cc[:-2]) * (aa[1:-1] - aa[:-2])
        rhs = (cc[1:-1] - cc[:-2]) * (aa[2:] - aa[:-2])
        redundant = np.flatnonzero(lhs <= rhs) + 1
        if len(redundant) == 0:
            break
        keep = np.delete(keep, redundant)
    slopes, icpts = [], []
    for ai, ci in zip(a[keep].tolist(), c[keep].tolist()):
        while len(slopes) >= 2 and ((ci - icpts[-2]) * (slopes[-1] - slopes[-2])
                                    <= (icpts[-1] - icpts[-2]) * (ai - slopes[-2])):
            slopes.pop()
            icpts.pop()
        slopes.append(ai)
        icpts.append(ci)
    return slopes, icpts


class Envelope:
    """v -> max(0, max_i a_i v - c_i) for v_lo <= v <= 1/4, evaluated on the
    exact upper hull of the lines, which is taken at the first call."""

    def __init__(self, a: np.ndarray, c: np.ndarray, v_lo: float):
        self.lines, self.v_lo, self.breaks = (a, c), v_lo, None

    def _build(self) -> None:
        a, c = self.lines
        # the maximiser's index grows with v, so only the lines from the
        # one maximal at v_lo to the one maximal at 1/4 matter
        lo = int(np.argmax(a * self.v_lo - c))
        top = int(np.argmax(a * V_TOP - c))
        self.a, self.c = _hull(a[lo: top + 1], c[lo: top + 1])
        a, c = np.array(self.a), np.array(self.c)
        self.breaks = ((c[1:] - c[:-1]) / (a[1:] - a[:-1])).tolist()

    def __call__(self, v: float) -> float:
        if v < self.v_lo * (1.0 - 1e-9):
            raise ValueError(f"the K* bound was built for v >= {self.v_lo}")
        if self.breaks is None:
            self._build()
        i = bisect.bisect_right(self.breaks, v)
        return max(0.0, self.a[i] * v - self.c[i])


def conjugate_bounds(desc: dict, v_lo: float):
    """(upper, lower) bounds on K*(v) = sup_u u (v - beta(1/u)) for
    v_lo <= v <= 1/4.

    Upper: on a cell [u_lo, u_hi] of a geometric u-grid, u (v - beta(1/u))
    <= u_hi v - u_lo beta(1/u_lo) because beta is nonincreasing; below the
    grid the objective is at most u_lo v, and above it the objective is
    negative while v <= beta(1/u_hi).  Lower: the objective itself at each
    grid point, u v - u beta(1/u).
    """
    u = np.geomspace(U_LO, U_HI, U_POINTS)
    b = np.asarray(beta_values(desc, 1.0 / u), dtype=float)
    if np.any(np.diff(b) < -1e-12 * np.max(b)):
        raise ValueError("profile is not nonincreasing in s")
    if V_TOP > float(b[-1]) * (1.0 + 1e-12):
        raise ValueError(f"the upper K* is only valid for v <= {float(b[-1])}")
    upper = Envelope(u, np.concatenate([[0.0], u[:-1] * b[:-1]]), v_lo)
    lower = Envelope(u, u * b, v_lo)
    return upper, lower


def _guarded(k):
    return lambda w: min(k(w), w)


def _compose(mode, inner, k1, k2):
    if mode is None:
        return k2
    k2g = _guarded(k2)
    if mode == "marginal_2mg":
        return lambda v: k2g(inner * v)
    if mode == "joint_2mg":
        return lambda v: 2.0 * k2g(inner * v)
    k1g = _guarded(k1)
    return lambda v: 2.0 * k1g(k2g(inner * v))


def composed_bounds(recipe: dict, v_min: float):
    """(upper, lower) bounds on the composed K* of a bound recipe, for
    arguments from v_min to 1/4.

    ``recipe`` has ``mode`` (None for a bare conjugate, else a compose_mwg
    mode), ``gamma0`` (slope of the linear k0), and ``k1``/``k2``: either
    ``{"linear": slope}`` or a profile description to conjugate.  The
    formulas are those of the ``compose_mwg`` docstring with the subunit
    guard min(K*(v), v) on k1 and k2; every step is monotone in the inner
    K*, so bounds on the parts bound the composition on the same side.
    """
    mode = recipe["mode"]
    g0 = float(recipe.get("gamma0", 1.0))
    # factor by which the outermost argument reaches k2
    inner = {None: 1.0, "marginal_2mg": 0.5 * g0, "joint_2mg": 0.125 * g0,
             "strong": 0.25 * g0, "full": 0.125 * g0}[mode]

    def parts(spec, v_lo):
        if spec is None:
            return None, None
        if "linear" in spec:
            slope = float(spec["linear"])
            return (lambda w: slope * w,) * 2
        return conjugate_bounds(spec, v_lo)

    # k1 sees k2's output, which has no useful lower limit
    k1, k2 = parts(recipe.get("k1"), 0.0), parts(recipe["k2"], inner * v_min)
    return tuple(_compose(mode, inner, k1[side], k2[side]) for side in (0, 1))


def curve_bounds(recipe: dict, points):
    """composed_bounds for every argument that under_reports and too_loose
    evaluate on ``points``."""
    return composed_bounds(recipe, min(b for _, b in points) / (1.0 + LOOSE_TOL))


def f_integral(kstar, x: float):
    """(F(x), abserr): integral of dv / K*(v) over [x, 1/4] in log v."""

    def integrand(t):
        v = math.exp(t)
        k = kstar(v)
        return v / k if k > 0.0 else math.inf

    if x >= V_TOP:
        return 0.0, 0.0
    if not math.isfinite(integrand(math.log(x))):
        return math.inf, 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(
            integrand, math.log(x), math.log(V_TOP), limit=400, epsabs=0.0, epsrel=1e-10
        )
    return val, err


def under_reports(upper, points, offset: int):
    """(n, bound, F_lo) for every point past the offset whose bound lies
    below the reference, F_lo(bound) > n - offset; ``upper`` is the upper
    K* bound of the curve's recipe."""
    flagged = []
    for n, b in points:
        if n <= offset or b >= V_TOP:
            continue
        F, err = f_integral(upper, b)
        m = n - offset
        if F - 10.0 * err > m * (1.0 + FLAG_REL_MARGIN) + FLAG_REL_MARGIN:
            flagged.append((n, b, F))
    return flagged


def too_loose(lower, points, offset: int):
    """(n, bound, F_hi) for every point past the offset whose bound is
    provably looser than certified, F_hi(bound / (1 + LOOSE_TOL)) <
    (1 - LOOSE_TOL) (n - offset); ``lower`` is the lower K* bound of the
    curve's recipe.  Points at the floor are exempt."""
    loose = []
    for n, b in points:
        if n <= offset or b <= X_FLOOR:
            continue
        F, _ = f_integral(lower, b / (1.0 + LOOSE_TOL))
        if F < (1.0 - LOOSE_TOL) * (n - offset):
            loose.append((n, b, F))
    return loose
