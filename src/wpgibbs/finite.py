"""Dense finite-state oracle for the two-block sampler calculus.

Everything here is exact linear algebra on small state spaces: Dirichlet
forms, adjoints, spectral gaps, the assembled joint operators of a two-block
scan, and brute-force verification of every identity, comparison inequality,
and bound-domination claim the continuous theory asserts.

Joint states (x, y) are flattened as i = x * ny + y.  A scan step first
refreshes y given x (operator G1, or its Metropolised version H1), then x
given the new y (G2 / H2); operators act on functions by (Tf)(z) =
sum_z' T[z, z'] f(z').
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .errors import DomainError, InvalidModeError, InvalidSpecError

MAX_JOINT_STATES = 64 * 64
PMF_FLOOR = 1e-6


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteKernel:
    """Row-stochastic matrix with an explicit stationary distribution."""

    matrix: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        T = np.asarray(self.matrix, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        object.__setattr__(self, "matrix", T)
        object.__setattr__(self, "mu", mu)
        n = T.shape[0]
        if T.shape != (n, n) or mu.shape != (n,):
            raise DomainError("kernel matrix and stationary vector mismatch")
        if np.any(T < -1e-15):
            raise DomainError("kernel entries must be nonnegative")
        if np.max(np.abs(T.sum(axis=1) - 1.0)) > 1e-12:
            raise DomainError("kernel rows must sum to 1")
        if np.max(np.abs(mu @ T - mu)) > 1e-10:
            raise DomainError("mu is not stationary for this kernel")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def is_reversible(self, tol: float = 1e-10) -> bool:
        F = self.mu[:, None] * self.matrix
        return bool(np.max(np.abs(F - F.T)) <= tol)


def dirichlet_form(k: FiniteKernel, f: np.ndarray):
    """<(I - T)f, f>_mu, cross-checked against the double-sum form.

    ``f`` of shape (n,) gives a float; ``f`` of shape (n, t) gives an array
    with one value per column.  The double sum
    1/2 sum_ij mu_i T_ij (f_i - f_j)^2 is evaluated expanded, as
    1/2 (sum_i mu_i r_i f_i^2 + sum_j (mu^T T)_j f_j^2) - f^T (mu o T) f,
    with the row sums r and mu^T T taken from the matrix, so that no
    n x n x t array is built and a matrix that is no longer stochastic or
    stationary still fails the check.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim not in (1, 2) or f.shape[0] != k.n:
        raise DomainError("function dimension mismatch")
    F = f[:, None] if f.ndim == 1 else f
    T, mu = k.matrix, k.mu
    TF = T @ F
    inner = mu @ ((F - TF) * F)
    double = 0.5 * ((mu * T.sum(axis=1) + mu @ T) @ F ** 2) - mu @ (F * TF)
    bad = np.abs(inner - double) > 1e-10 * np.maximum(1.0, np.abs(inner))
    if np.any(bad):
        j = int(np.argmax(bad))
        raise DomainError(
            f"Dirichlet-form cross-check failed: {inner[j]} vs {double[j]}"
        )
    out = np.maximum(inner, 0.0)
    return float(out[0]) if f.ndim == 1 else out


def adjoint(k: FiniteKernel) -> FiniteKernel:
    """mu-adjoint kernel T*[y, x] = mu[x] T[x, y] / mu[y]."""
    if np.any(k.mu <= 0.0):
        raise DomainError("adjoint needs strictly positive stationary mass")
    T_star = (k.mu[:, None] * k.matrix).T / k.mu[:, None]
    return FiniteKernel(T_star, k.mu)


def l2_decay_exact(k: FiniteKernel, f: np.ndarray, n_max: int) -> np.ndarray:
    """Exact sequence ||T^n f||^2_mu for n = 0..n_max; f must be centered.

    ``f`` of shape (n, t) gives shape (n_max + 1, t), one sequence per column.
    """
    f = np.asarray(f, dtype=float)
    if np.any(np.abs(k.mu @ f) > 1e-12):
        raise DomainError("l2_decay_exact needs a centered function")
    out = np.empty((n_max + 1,) + f.shape[1:])
    g = f.copy()
    for n in range(n_max + 1):
        out[n] = k.mu @ g ** 2
        g = k.matrix @ g
    return out


def spectral_gap(k: FiniteKernel, tt_star: bool = False) -> float:
    """1 minus the second-largest eigenvalue in the mu-weighted geometry.

    Reversible kernels are symmetrized by mu^{1/2} conjugation; a
    non-reversible kernel is only accepted with ``tt_star=True``, which
    returns the right gap of T*T.
    """
    if np.any(k.mu <= 0.0):
        raise DomainError("spectral_gap needs strictly positive mass")
    if not k.is_reversible():
        if not tt_star:
            raise InvalidModeError(
                "kernel is not reversible; request the T*T gap explicitly"
            )
        ts = adjoint(k)
        prod = FiniteKernel(ts.matrix @ k.matrix, k.mu)
        return spectral_gap(prod)
    root = np.sqrt(k.mu)
    S = root[:, None] * k.matrix / root[None, :]
    vals = np.linalg.eigvalsh(0.5 * (S + S.T))
    return float(1.0 - np.sort(vals)[-2])


# ---------------------------------------------------------------------------
# joint two-block models
# ---------------------------------------------------------------------------


def lazy_rwm_kernel(pi: np.ndarray) -> np.ndarray:
    """Lazy random-walk Metropolis chain targeting pmf pi on a 1-d grid.

    Proposes +-1 steps (rejected at the boundary), Metropolis-corrected,
    then mixed half-and-half with the identity so the kernel is positive
    semidefinite, as the comparison theory assumes.
    """
    pi = np.asarray(pi, dtype=float)
    m = len(pi)
    M = np.zeros((m, m))
    i = np.arange(m - 1)
    M[i, i + 1] = 0.5 * np.minimum(1.0, pi[1:] / pi[:-1])
    M[i + 1, i] = 0.5 * np.minimum(1.0, pi[:-1] / pi[1:])
    np.fill_diagonal(M, 1.0 - M.sum(axis=1))
    return 0.5 * np.eye(m) + 0.5 * M


class FiniteJointModel:
    """Two-block target pi(x, y) with exact and Metropolised scan operators.

    Attributes G1/G2 are the exact conditional refreshes of y|x and x|y;
    H1/H2 their per-slice Markov substitutes; P = G1 G2 the exact scan,
    P1 = H1 G2, P2 = G1 H2, P12 = H1 H2 the three Metropolis-within-Gibbs
    variants; P_X and P_X_bar the x-marginal chains of P and P2.
    """

    def __init__(
        self,
        joint: np.ndarray,
        h1_slices: Optional[Sequence[np.ndarray]] = None,
        h2_slices: Optional[Sequence[np.ndarray]] = None,
    ):
        Pi = np.asarray(joint, dtype=float)
        if Pi.ndim != 2 or np.any(Pi <= 0.0):
            raise InvalidSpecError("joint pmf must be a positive matrix")
        if Pi.size > MAX_JOINT_STATES:
            raise InvalidSpecError("joint state space too large for dense algebra")
        Pi = Pi / Pi.sum()
        self.joint = Pi
        self.nx, self.ny = Pi.shape
        self.mu = Pi.reshape(-1)  # state (x, y) at index x * ny + y
        self.marg_x = Pi.sum(axis=1)
        self.marg_y = Pi.sum(axis=0)
        self.cond_y_given_x = Pi / self.marg_x[:, None]
        self.cond_x_given_y = (Pi / self.marg_y[None, :]).T  # [y, x]

        if h1_slices is None:
            h1_slices = [lazy_rwm_kernel(self.cond_y_given_x[x]) for x in range(self.nx)]
        if h2_slices is None:
            h2_slices = [lazy_rwm_kernel(self.cond_x_given_y[y]) for y in range(self.ny)]
        self.h1_slices = [np.asarray(h, dtype=float) for h in h1_slices]
        self.h2_slices = [np.asarray(h, dtype=float) for h in h2_slices]

        # fill the operators through [x, y, x', y'] views of the matrices
        nx, ny = self.nx, self.ny
        n = nx * ny
        G1, G2, H1, H2 = (np.zeros((n, n)) for _ in range(4))
        ax, ay = np.arange(nx), np.arange(ny)
        h2 = np.stack(self.h2_slices)  # [y, x, x']
        G1.reshape(nx, ny, nx, ny)[ax, :, ax, :] = self.cond_y_given_x[:, None, :]
        H1.reshape(nx, ny, nx, ny)[ax, :, ax, :] = np.stack(self.h1_slices)
        G2.reshape(nx, ny, nx, ny)[:, ay, :, ay] = self.cond_x_given_y[:, None, :]
        H2.reshape(nx, ny, nx, ny)[:, ay, :, ay] = h2
        self.G1, self.G2, self.H1, self.H2 = G1, G2, H1, H2
        self.P = G1 @ G2
        self.P1 = H1 @ G2
        self.P2 = G1 @ H2
        self.P12 = H1 @ H2

        # x-marginal chains: refresh y from the slice, then move x
        A = self.cond_y_given_x  # [x, y]
        B = self.cond_x_given_y  # [y, x']
        self.P_X = A @ B
        self.P_X_bar = np.einsum("xy,yxz->xz", A, h2)

    def kernel(self, name: str) -> FiniteKernel:
        mats = {
            "G1": self.G1, "G2": self.G2, "H1": self.H1, "H2": self.H2,
            "P": self.P, "P1": self.P1, "P2": self.P2, "P12": self.P12,
        }
        if name == "P_X":
            return FiniteKernel(self.P_X, self.marg_x)
        if name == "P_X_bar":
            return FiniteKernel(self.P_X_bar, self.marg_x)
        return FiniteKernel(mats[name], self.mu)

    def component_gaps(self):
        """(gamma0, gamma1, gamma2): right gap of P*P and worst slice gaps."""
        g0 = spectral_gap(self.kernel("P"), tt_star=True)
        g1 = min(
            spectral_gap(FiniteKernel(h, self.cond_y_given_x[x]))
            for x, h in enumerate(self.h1_slices)
        )
        g2 = min(
            spectral_gap(FiniteKernel(h, self.cond_x_given_y[y]))
            for y, h in enumerate(self.h2_slices)
        )
        return g0, g1, g2


def random_joint_model(
    seed: int, nx: int = 4, ny: int = 4, exact: bool = False
) -> FiniteJointModel:
    """Random two-block model: Dirichlet(1) joint pmf floored at 1e-6.

    ``exact=True`` uses the exact conditional refreshes as H1/H2 (the
    degenerate case where every comparison collapses to equality).
    """
    rng = np.random.default_rng(seed)
    Pi = rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny)
    Pi = np.maximum(Pi, PMF_FLOOR)
    Pi = Pi / Pi.sum()
    m = FiniteJointModel(Pi)
    if exact:
        h1 = [m.cond_y_given_x[x][None, :].repeat(ny, axis=0) for x in range(nx)]
        h2 = [m.cond_x_given_y[y][None, :].repeat(nx, axis=0) for y in range(ny)]
        return FiniteJointModel(Pi, h1_slices=h1, h2_slices=h2)
    return m


def random_centered_functions(
    mu: np.ndarray, count: int, seed: int
) -> List[np.ndarray]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        f = rng.normal(size=len(mu))
        out.append(f - float(mu @ f))
    return out


def tensor_product_kernel(k1: FiniteKernel, k2: FiniteKernel) -> FiniteKernel:
    """Simultaneous independent product chain H1 (x) H2."""
    return FiniteKernel(np.kron(k1.matrix, k2.matrix), np.kron(k1.mu, k2.mu))


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    worst_residual: float
    tol: float
    seed: Optional[int] = None

    @property
    def passed(self) -> bool:
        return self.worst_residual <= self.tol


@dataclass
class Report:
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def worst_residual(self) -> float:
        return max((c.worst_residual for c in self.checks), default=0.0)

    def add(self, name, residual, tol, seed=None):
        self.checks.append(CheckResult(name, float(residual), tol, seed))

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            seed = "" if c.seed is None else f"  seed={c.seed}"
            lines.append(
                f"{status}  {c.name}  worst_residual={c.worst_residual:.3e}"
                f"  tol={c.tol:.1e}{seed}"
            )
        lines.append("OVERALL " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def _weighted_psd_min_eig(T: np.ndarray, mu: np.ndarray) -> float:
    root = np.sqrt(mu)
    S = root[:, None] * T / root[None, :]
    return float(np.linalg.eigvalsh(0.5 * (S + S.T))[0])


def verify_identities(m: FiniteJointModel, trials: int = 20, tol: float = 1e-10,
                      seed: int = 0) -> Report:
    """Exhaustive dense check of the operator identities and comparisons."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    rep = Report()
    mu = m.mu
    kP = m.kernel("P")

    def E(T, f):
        return dirichlet_form(FiniteKernel(T, mu), f)

    # structural facts that need no test function
    rep.add("G1 idempotent", np.max(np.abs(m.G1 @ m.G1 - m.G1)), 1e-12, seed)
    rep.add("G2 idempotent", np.max(np.abs(m.G2 @ m.G2 - m.G2)), 1e-12, seed)
    rep.add(
        "P adjoint is G2 G1",
        np.max(np.abs(adjoint(kP).matrix - m.G2 @ m.G1)),
        1e-12,
        seed,
    )
    rep.add(
        "adjoint involution",
        np.max(np.abs(adjoint(adjoint(kP)).matrix - kP.matrix)),
        1e-12,
        seed,
    )
    for name in ("G1", "G2", "H1", "H2", "P", "P1", "P2", "P12"):
        T = m.kernel(name).matrix
        rep.add(f"stationarity of {name}", np.max(np.abs(mu @ T - mu)), tol, seed)
    for name in ("H1", "H2"):
        lam = _weighted_psd_min_eig(m.kernel(name).matrix, mu)
        rep.add(f"positivity of {name}", max(0.0, -lam), 1e-10, seed)

    # the f-independent products are formed once per pair, evaluated on all
    # trial functions (the columns of F) at once, and dropped after use
    pairs = ((m.G1, m.G2), (m.H1, m.G2), (m.G1, m.H2), (m.H1, m.H2))  # P, P1, P2, P12
    F = np.column_stack(random_centered_functions(mu, trials, seed))
    osc_F = np.ptp(F, axis=0)
    worst = {key: 0.0 for key in (
        "decomposition", "doubling", "positive-part", "adjoint-comparison",
        "marginal equality", "marginal lift", "oscillation contraction")}

    def bump(key, vals):
        worst[key] = max(worst[key], float(np.max(vals)))

    for T1, T2 in pairs:
        T = T1 @ T2
        Ts = T2 @ T1  # components are self-adjoint
        TF = T @ F
        lhs = E(Ts @ T, F)
        rhs = E(T2 @ T2, F) + E(T1 @ T1, T2 @ F)
        bump("decomposition", np.abs(lhs - rhs))
        bump("doubling", lhs - 2.0 * E(T, F))
        bump("adjoint-comparison", E(T @ Ts, TF) - lhs)
        bump("oscillation contraction", np.ptp(TF, axis=0) - osc_F)
    for name in ("G1", "G2", "H1", "H2"):
        k = m.kernel(name)
        bump("positive-part",
             dirichlet_form(k, F) - E(k.matrix @ k.matrix, F))
    # cylinder functions: marginal Dirichlet form equality and the lift
    g = F[::m.ny]  # f(x, 0)
    g = g - m.marg_x @ g
    kPX = m.kernel("P_X")
    lhs = E(adjoint(kP).matrix @ kP.matrix, np.repeat(g, m.ny, axis=0))
    rhs = dirichlet_form(
        FiniteKernel(adjoint(kPX).matrix @ kPX.matrix, m.marg_x), g)
    bump("marginal equality", np.abs(lhs - rhs))
    # P f is constant on x-fibers; its x-function advances by P_X
    pf = kP.matrix @ F
    fiber = pf.reshape(m.nx, m.ny, -1)
    bump("marginal lift", np.abs(fiber - fiber[:, :1]))
    bump("marginal lift", np.abs(np.repeat(m.P_X @ fiber[:, 0], m.ny, axis=0)
                                 - kP.matrix @ pf))
    for key, val in worst.items():
        rep.add(key, val, tol if key != "marginal lift" else 1e-12, seed)
    return rep


def verify_bound_domination(
    m: FiniteJointModel,
    f_set: Sequence[np.ndarray],
    n_max: int = 200,
    slack: float = 1e-9,
    mode: str = "full",
) -> Report:
    """Exact decay of the Metropolis-within-Gibbs scan vs the composed bound.

    Component SPI constants are exact spectral gaps (worst slice for the
    Metropolised refreshes, right gap of P*P for the exact scan); the
    composed rate function must dominate ||P12^n f||^2 / ||f||^2_osc for
    every supplied f and every n <= n_max.
    """
    from .kstar import Linear, compose_mwg
    from .rates import RateBound

    g0, g1, g2 = m.component_gaps()
    k = compose_mwg(Linear(g0), Linear(g1), Linear(g2), mode=mode)
    rb = RateBound(k)
    bounds = np.array([rb.rate_bound(n) for n in range(n_max + 1)])

    rep = Report()
    F = np.array(f_set, dtype=float).reshape(len(f_set), m.mu.size).T
    F = F - m.mu @ F
    osc_sq = np.ptp(F, axis=0) ** 2
    keep = osc_sq > 0.0
    worst = -np.inf
    if np.any(keep):
        decay = l2_decay_exact(m.kernel("P12"), F[:, keep], n_max)
        worst = float(np.max(decay / osc_sq[keep] - bounds[:, None]))
    rep.add(f"bound domination ({mode})", worst, slack)
    return rep
