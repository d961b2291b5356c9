"""Dense finite-state oracle for the two-block sampler calculus.

Everything here is exact linear algebra on small state spaces: Dirichlet
forms, adjoints, spectral gaps, the assembled joint operators of a two-block
scan, and brute-force verification of every identity, comparison inequality,
and bound-domination claim the continuous theory asserts.

Joint states (x, y) are flattened as i = x * ny + y.  A scan step first
refreshes y given x (operator G1, or its Metropolised version H1), then x
given the new y (G2 / H2); operators act on functions by (Tf)(z) =
sum_z' T[z, z'] f(z').

Kernels, models and the functions on them take optional leading axes that
stack independent models: a matrix of shape (..., n, n) with a stationary
vector of shape (..., n).  Every operation runs on the whole stack at once
(stacked ``np.matmul`` and ``np.linalg.eigvalsh``), and gives each model the
bits it gets alone, as one model is the same code without leading axes.
Stacks also broadcast: ``verify_identities`` checks the four scans of a
model as one 2 x 2 grid, its (2, 1) stack of block-1 refreshes against its
(1, 2) stack of block-2 refreshes.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .errors import DomainError, InvalidModeError, InvalidSpecError

MAX_JOINT_STATES = 64 * 64
PMF_FLOOR = 1e-6
# most entries of a kernel's sampling table (n states times B buckets): its
# build time and memory grow with it, and a 16-state kernel steps no faster
# with more
_TABLE_ENTRIES = 2 ** 14
# most operator entries, models times (nx ny)^2, of one stack of models that
# `verify` checks in one pass: one 16x16 model, so memory stays bounded at
# any model count
STACK_ENTRIES = 2 ** 16


def _broadcasts(*shapes: tuple) -> bool:
    """Whether the shapes broadcast together."""
    try:
        np.broadcast_shapes(*shapes)
    except ValueError:
        return False
    return True


def _vecmat(v: np.ndarray, M: np.ndarray) -> np.ndarray:
    """v @ M per model: v of shape (..., n), M of shape (..., n, m)."""
    return (v[..., None, :] @ M)[..., 0, :]


def _sym_eigvalsh(T: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of the symmetric part of mu^{1/2} T mu^{-1/2}
    per kernel: T of shape (..., n, n), mu of shape (..., n)."""
    root = np.sqrt(mu)
    S = root[..., :, None] * T / root[..., None, :]
    return np.linalg.eigvalsh(0.5 * (S + np.swapaxes(S, -1, -2)))


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteKernel:
    """Row-stochastic matrix with an explicit stationary distribution; a
    matrix of shape (..., n, n) with ``mu`` of shape (..., n) is a stack of
    kernels; ``mu`` may have size 1 on a leading axis, shared along it."""

    matrix: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        T = np.asarray(self.matrix, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        object.__setattr__(self, "matrix", T)
        object.__setattr__(self, "mu", mu)
        if (T.ndim < 2 or T.shape[-2] != T.shape[-1] or mu.ndim != T.ndim - 1
                or mu.shape[-1] != T.shape[-1]
                or any(a not in (1, b) for a, b in zip(mu.shape, T.shape))):
            raise DomainError("kernel matrix and stationary vector mismatch")
        # each test is phrased so that a NaN fails it
        if not np.all(T >= -1e-15):
            raise DomainError("kernel entries must be nonnegative numbers")
        if not np.max(np.abs(T.sum(axis=-1) - 1.0)) <= 1e-12:
            raise DomainError("kernel rows must sum to 1")
        with np.errstate(invalid="ignore"):  # an infinite mu leaves a NaN residual
            if not np.max(np.abs(_vecmat(mu, T) - mu)) <= 1e-10:
                raise DomainError("mu is not stationary for this kernel")

    @property
    def n(self) -> int:
        return self.matrix.shape[-1]

    @functools.cached_property
    def sampling_table(self):
        """(B, table): what ``samplers.finite_simulate`` steps by, built once
        per kernel (of a single kernel, not a stack).

        A row's cdf values are its prefix sums but the last, which a uniform
        u < 1 never passes.  B is the largest power of two with n * B <= 2^14
        (1 for larger kernels), so u * B and the bucket edges b / B are exact.
        For u in bucket b, [b/B, (b+1)/B), the count of row s's cdf values
        below u lies between lo = #{cdf < b/B} and hi = #{cdf < (b+1)/B}.
        ``table`` (int64, n * B entries) holds at s * B + b that count, lo,
        where lo == hi, and -1 where the bucket holds a cdf value of the row.
        It is built row by row, so no second kernel-sized array is made.
        """
        buckets = 1 << max(0, (_TABLE_ENTRIES // self.n).bit_length() - 1)
        edges = np.arange(buckets + 1) / buckets
        table = np.empty((self.n, buckets), dtype=np.int64)
        for row, t in zip(table, self.matrix):
            cdf = np.sort(np.cumsum(t[:-1]))
            below = np.searchsorted(cdf, edges)  # lo of each bucket, then the last hi
            row[:] = np.where(below[:-1] == below[1:], below[:-1], -1)
        return buckets, table.ravel()

    def is_reversible(self) -> bool:
        """Whether mu_i T_ij and mu_j T_ji agree within 1e-10 everywhere."""
        F = self.mu[..., :, None] * self.matrix
        return bool(np.max(np.abs(F - np.swapaxes(F, -1, -2))) <= 1e-10)


def dirichlet_form(k: FiniteKernel | tuple, f: np.ndarray):
    """<(I - T)f, f>_mu, cross-checked against the double-sum form.

    ``k`` is a kernel, or a tuple of kernels on one mu that stands for their
    product T = T_1 T_2 ... T_m: the factors are applied to ``f`` right to
    left and the product is never formed.  For mu of shape (..., n), ``f``
    holds functions as columns, shape (..., n, t), and gives one value per
    column, shape (..., t).  The leading axes of ``f`` and of the factors
    broadcast, each value the bits of its own call.
    The double sum 1/2 sum_ij mu_i T_ij (f_i - f_j)^2 is evaluated expanded,
    as 1/2 (sum_i mu_i r_i f_i^2 + sum_j (mu^T T)_j f_j^2) - f^T (mu o T) f,
    with the row sums r = T 1 and mu^T T taken from the same factor chain,
    so that no n x n x t array is built and a factor that is no longer
    stochastic or stationary still fails the check.
    """
    factors = k if isinstance(k, tuple) else (k,)
    mu = factors[0].mu
    if any(t.mu is not mu and not np.array_equal(t.mu, mu) for t in factors[1:]):
        raise DomainError("product factors need one stationary vector")
    # numpy passes BLAS a C-order and an F-order operand as different calls,
    # which sum in different orders: f in C order gives every layout its bits
    F = np.asarray(f, dtype=float, order="C")
    if (F.ndim != mu.ndim + 1 or F.shape[-2] != mu.shape[-1]
            or not _broadcasts(F.shape[:-2], *(t.matrix.shape[:-2] for t in factors))):
        raise DomainError("function dimension mismatch: f takes columns, shape (..., n, t)")
    # T F and the row sums T 1 as the columns of one block, then mu^T T
    TF = np.concatenate((F, np.ones(F.shape[:-1] + (1,))), axis=-1)
    for t in reversed(factors):
        TF = t.matrix @ TF
    TF, rows = TF[..., :-1], TF[..., -1]
    mu_T = mu
    for t in factors:
        mu_T = _vecmat(mu_T, t.matrix)
    inner = _vecmat(mu, (F - TF) * F)
    double = 0.5 * _vecmat(mu * rows + mu_T, F ** 2) - _vecmat(mu, F * TF)
    bad = np.abs(inner - double) > 1e-10 * np.maximum(1.0, np.abs(inner))
    if np.any(bad):
        j = int(np.argmax(bad))
        raise DomainError(
            f"Dirichlet-form cross-check failed: {inner.flat[j]} vs {double.flat[j]}"
        )
    return np.maximum(inner, 0.0)


def adjoint(k: FiniteKernel) -> FiniteKernel:
    """mu-adjoint kernel T*[y, x] = mu[x] T[x, y] / mu[y]."""
    if np.any(k.mu <= 0.0):
        raise DomainError("adjoint needs strictly positive stationary mass")
    mu = k.mu[..., :, None]
    return FiniteKernel(np.swapaxes(mu * k.matrix, -1, -2) / mu, k.mu)


def l2_decay_exact(k: FiniteKernel, f: np.ndarray, n_max: int) -> np.ndarray:
    """Exact sequence ||T^n f||^2_mu for n = 0..n_max; f must be centered.

    ``f`` holds functions as columns, shape (..., n, t), and gives shape
    (..., n_max + 1, t), one sequence per column.
    T^n f is advanced one n at a time from a C-order copy of f, so any
    memory order of f gives the same bits, and mu @ (T^n f)^2 is written
    straight into its row of the output.
    """
    F = np.asarray(f, dtype=float)
    if F.ndim != k.mu.ndim + 1 or F.shape[:k.mu.ndim] != k.mu.shape:
        raise DomainError("function dimension mismatch: f takes columns, shape (..., n, t)")
    if np.any(np.abs(_vecmat(k.mu, F)) > 1e-12):
        raise DomainError("l2_decay_exact needs a centered function")
    out = np.empty(F.shape[:-2] + (n_max + 1, F.shape[-1]))
    mu_row = k.mu[..., None, :]
    g = np.ascontiguousarray(F)
    for n in range(n_max + 1):
        if n:
            g = np.matmul(k.matrix, g)
        np.matmul(mu_row, np.square(g), out=out[..., n:n + 1, :])
    return out


def spectral_gap(k: FiniteKernel):
    """1 minus the second-largest eigenvalue of a reversible kernel, which
    mu^{1/2} conjugation symmetrizes; a non-reversible kernel is refused.
    One kernel gives an np.float64, a stack of kernels an array of gaps."""
    if k.n < 2:
        raise DomainError(f"spectral_gap needs at least 2 states, got {k.n}")
    if np.any(k.mu <= 0.0):
        raise DomainError("spectral_gap needs strictly positive mass")
    if not k.is_reversible():
        raise InvalidModeError("spectral_gap needs a reversible kernel")
    return 1.0 - np.sort(_sym_eigvalsh(k.matrix, k.mu), axis=-1)[..., -2]


# ---------------------------------------------------------------------------
# joint two-block models
# ---------------------------------------------------------------------------


def lazy_rwm_kernel(pi: np.ndarray) -> np.ndarray:
    """Lazy random-walk Metropolis chain targeting pmf pi on a 1-d grid.

    Proposes +-1 steps (rejected at the boundary), Metropolis-corrected,
    then mixed half-and-half with the identity so the kernel is positive
    semidefinite, as the comparison theory assumes.  A pi of shape (..., m)
    gives one kernel per pmf, shape (..., m, m).
    """
    pi = np.asarray(pi, dtype=float)
    m = pi.shape[-1]
    M = np.zeros(pi.shape + (m,))
    i = np.arange(m - 1)
    M[..., i, i + 1] = 0.5 * np.minimum(1.0, pi[..., 1:] / pi[..., :-1])
    M[..., i + 1, i] = 0.5 * np.minimum(1.0, pi[..., :-1] / pi[..., 1:])
    d = np.arange(m)
    M[..., d, d] = 1.0 - M.sum(axis=-1)
    return 0.5 * np.eye(m) + 0.5 * M


class FiniteJointModel:
    """Two-block target pi(x, y) with exact and Metropolised scan operators.

    Attributes G1/G2 are the exact conditional refreshes of y|x and x|y;
    H1/H2 their per-slice Markov substitutes; P = G1 G2 the exact scan,
    P12 = H1 H2 the Metropolis-within-Gibbs scan; P_X the x-marginal chain
    of P.  Both sizes must be at least 2.  A joint pmf of shape
    (..., nx, ny) is a stack of models: every array attribute then carries
    the same leading axes.

    The refreshes are views of two stacks that ``scan`` writes in place:
    ``refresh1``, G1 over H1 of shape (..., 2, 1, n, n), and ``refresh2``,
    G2 beside H2 of shape (..., 1, 2, n, n).  Broadcast together, they are
    the grid of scans T1 T2: P at [0, 0], P2 = G1 H2 at [0, 1], P1 = H1 G2
    at [1, 0] and P12 at [1, 1].
    """

    def __init__(
        self,
        joint: np.ndarray,
        h1_slices: Optional[Sequence[np.ndarray]] = None,
        h2_slices: Optional[Sequence[np.ndarray]] = None,
    ):
        Pi = np.asarray(joint, dtype=float)
        if Pi.ndim < 2 or min(Pi.shape[-2:]) < 2 or not np.all((Pi > 0.0) & (Pi < np.inf)):
            raise InvalidSpecError("joint pmf must be a finite positive matrix of at least 2x2")
        nx, ny = Pi.shape[-2:]
        if nx * ny > MAX_JOINT_STATES:
            raise InvalidSpecError("joint state space too large for dense algebra")
        lead = Pi.shape[:-2]
        Pi = Pi / Pi.sum(axis=(-2, -1), keepdims=True)
        self.joint = Pi
        self.nx, self.ny = nx, ny
        self.mu = Pi.reshape(lead + (nx * ny,))  # state (x, y) at index x * ny + y
        self.marg_x = Pi.sum(axis=-1)
        self.marg_y = Pi.sum(axis=-2)
        self.cond_y_given_x = Pi / self.marg_x[..., :, None]
        self.cond_x_given_y = np.swapaxes(Pi / self.marg_y[..., None, :], -1, -2)  # [y, x]

        # the slices of each block, [x, y, y'] and [y, x, x']
        if h1_slices is None:
            h1_slices = lazy_rwm_kernel(self.cond_y_given_x)
        if h2_slices is None:
            h2_slices = lazy_rwm_kernel(self.cond_x_given_y)
        self.h1_slices = np.asarray(h1_slices, dtype=float)
        self.h2_slices = np.asarray(h2_slices, dtype=float)

        # a refresh of one block is its scan with the identity on the other,
        # written in place into its slot of the block's stack
        n = nx * ny
        refresh1 = np.empty(lead + (2, 1, nx, ny, nx, ny))
        refresh2 = np.empty(lead + (1, 2, nx, ny, nx, ny))
        self.scan("G1", "I2", out=refresh1[..., 0, 0, :, :, :, :])
        self.scan("H1", "I2", out=refresh1[..., 1, 0, :, :, :, :])
        self.scan("I1", "G2", out=refresh2[..., 0, 0, :, :, :, :])
        self.scan("I1", "H2", out=refresh2[..., 0, 1, :, :, :, :])
        self.refresh1 = refresh1.reshape(lead + (2, 1, n, n))
        self.refresh2 = refresh2.reshape(lead + (1, 2, n, n))
        self.G1, self.H1 = self.refresh1[..., 0, 0, :, :], self.refresh1[..., 1, 0, :, :]
        self.G2, self.H2 = self.refresh2[..., 0, 0, :, :], self.refresh2[..., 0, 1, :, :]
        self.P = self.scan("G1", "G2")
        self.P12 = self.scan("H1", "H2")
        # x-marginal chain: draw y given x, then x' given y
        self.P_X = self.cond_y_given_x @ self.cond_x_given_y

    def scan(self, first: str, second: str, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The product of two refreshes of different blocks, ``first`` then
        ``second`` (of "G1", "H1", "I1" and "G2", "H2", "I2"), built entry by
        entry.  The identity refreshes "I1" and "I2" have slices delta(y, y')
        and delta(x, x'): a scan with one is the other refresh alone.
        ``out``, of shape (..., nx, ny, nx, ny), takes the entries in place.

        With s1_x(y, y') and s2_y(x, x') the slices of the block-1 and the
        block-2 refresh, block 1 then block 2 has entry s1_x(y, y')
        s2_y'(x, x') at [x, y, x', y'], and block 2 then block 1 has
        s2_y(x, x') s1_x'(y, y').  That is the one nonzero term of the
        entry's sum in the matrix product: its other terms are exact zeros,
        the entries being finite and nonnegative, so this gives the
        product's bits in O(n^2) in place of O(n^3).
        """
        if first[-1] == second[-1]:
            raise DomainError(f"a scan takes one refresh of each block, got {first} {second}")
        slices = {"G1": self.cond_y_given_x[..., :, None, :], "H1": self.h1_slices,
                  "I1": np.eye(self.ny)[None],
                  "G2": self.cond_x_given_y[..., :, None, :], "H2": self.h2_slices,
                  "I2": np.eye(self.nx)[None]}
        s, t = slices[first], slices[second]
        if first[-1] == "1":
            a, b = s[..., :, :, None, :], np.moveaxis(t, -3, -1)[..., :, None, :, :]
        else:
            a, b = np.swapaxes(s, -3, -2)[..., None], np.swapaxes(t, -3, -2)[..., None, :, :, :]
        nx, ny = self.nx, self.ny
        if out is None:
            out = np.empty(self.mu.shape[:-1] + (nx, ny, nx, ny))
        np.multiply(a, b, out=out)
        return out.reshape(self.mu.shape + (nx * ny,))

    def kernel(self, name: str) -> FiniteKernel:
        names = ("G1", "G2", "H1", "H2", "P", "P12", "P_X")
        if name not in names:
            raise DomainError(f"unknown operator {name!r}: expected one of {', '.join(names)}")
        return FiniteKernel(getattr(self, name), self.marg_x if name == "P_X" else self.mu)

    def component_gaps(self):
        """(gamma0, gamma1, gamma2): right gap of P*P and worst slice gaps,
        np.float64 values for one model and arrays for a stack.

        G1 is idempotent, so P*P = G2 G1 G2: the y-marginal chain on
        functions of y and 0 on their complement.  The x- and y-marginal
        chains share their nonzero spectrum, so gamma0 is the gap of P_X.
        """
        g0 = spectral_gap(self.kernel("P_X"))
        g1 = spectral_gap(FiniteKernel(self.h1_slices, self.cond_y_given_x))
        g2 = spectral_gap(FiniteKernel(self.h2_slices, self.cond_x_given_y))
        return g0, np.min(g1, axis=-1), np.min(g2, axis=-1)


def random_joint_model(seed, nx: int = 4, ny: int = 4) -> FiniteJointModel:
    """Random two-block model: Dirichlet(1) joint pmf floored at 1e-6.

    A sequence of seeds gives the stack of their models, each pmf drawn from
    its own seed.
    """
    draws = [np.random.default_rng(s).dirichlet(np.ones(nx * ny)) for s in np.ravel(seed)]
    Pi = np.reshape(draws, np.shape(seed) + (nx, ny))
    Pi = np.maximum(Pi, PMF_FLOOR)
    return FiniteJointModel(Pi / Pi.sum(axis=(-2, -1), keepdims=True))


def random_centered_functions(mu: np.ndarray, count: int, seed: int) -> np.ndarray:
    """``count`` standard-normal functions on the states of ``mu``, the rows
    of a (count, n) array, each centred to mean zero under ``mu`` by one
    stacked (1, n) @ (n, 1) product, the bits of ``mu @ f`` per row."""
    F = np.random.default_rng(seed).normal(size=(count, len(mu)))
    F -= (F[:, None, :] @ mu[:, None])[:, 0]
    return F


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


def _reports(checks, lead: tuple, seeds):
    """One Report per model of a stack with leading shape ``lead`` (a Report
    for a single model) from (name, residuals of shape ``lead``, tol) in
    check order; ``seeds`` holds each model's report seed."""
    values = [np.broadcast_to(residual, lead).ravel().tolist() for _, residual, _ in checks]
    reps = []
    for i, seed in enumerate(seeds):
        rep = Report()
        for (name, _, tol), residual in zip(checks, values):
            rep.add(name, residual[i], tol, seed)
        reps.append(rep)
    return reps if lead else reps[0]


def _blockwise_psd_min_eig(T4: np.ndarray, w: np.ndarray):
    """Smallest eigenvalue of a kernel in the w-weighted geometry, for a
    kernel that is block diagonal in its first state index.

    ``T4[..., a, b, a', b']`` is the kernel on states (a, b) and
    ``w[..., a, b]`` its stationary mass.  Each diagonal block a = a' is
    symmetrized on its own; a nonzero entry off those blocks gives -inf, as
    the block minimum is then no bound on the whole spectrum.
    """
    a = np.arange(T4.shape[-4])[:, None, None]
    b, b2 = np.arange(T4.shape[-3])[None, :, None], np.arange(T4.shape[-3])[None, None, :]
    blocks = T4[..., a, b, a, b2]  # [..., a, b, b']
    off = np.count_nonzero(blocks, axis=(-3, -2, -1)) != np.count_nonzero(T4, axis=(-4, -3, -2, -1))
    lam = np.min(_sym_eigvalsh(blocks, w), axis=(-2, -1))
    return np.where(off, -np.inf, lam)


def _larger(a, b):
    """``max(a, b)`` per model: b where b > a, else a."""
    return np.where(b > a, b, a)


def verify_identities(m: FiniteJointModel, trials: int = 20, tol: float = 1e-10,
                      seed=0):
    """Exhaustive check of the operator identities and comparisons.

    The scans T = T1 T2 (P, P1 = H1 G2, P2 = G1 H2 and P12) are one 2 x 2
    grid, the model's refresh stack (G1, H1) broadcast against (G2, H2):
    each form of the decomposition, doubling and adjoint-comparison checks
    is one ``dirichlet_form`` call over the grid, each positive-part form
    one call per stack, on all trial functions at once as the columns of
    one array, each value the bits of its own per-scan call.  Forms run on
    chains of factors, so the only n x n matrix products formed here are
    G1^2 and G2^2 of the idempotence checks.

    A stacked model gives a list with one Report per model, in order; its
    ``seed`` then holds one seed per model (one seed is shared by all).
    Each model draws its trial functions from its own seed.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    mu = m.mu
    lead = mu.shape[:-1]
    seeds = np.broadcast_to(np.asarray(seed, dtype=object), lead).ravel().tolist()
    checks = []

    def worst_of(vals):
        """The largest entry of each model's part of ``vals``."""
        return np.max(np.reshape(vals, lead + (-1,)), axis=-1)

    # the refresh stacks on one mu, with the grid's two axes of size 1
    grid_mu = mu[..., None, None, :]
    k1 = FiniteKernel(m.refresh1, grid_mu)  # G1 over H1
    k2 = FiniteKernel(m.refresh2, grid_mu)  # G2 beside H2
    kP = m.kernel("P")
    kP_star = adjoint(kP)

    # structural facts that need no test function
    checks.append(("G1 idempotent", worst_of(np.abs(m.G1 @ m.G1 - m.G1)), 1e-12))
    checks.append(("G2 idempotent", worst_of(np.abs(m.G2 @ m.G2 - m.G2)), 1e-12))
    checks.append(("P adjoint is G2 G1",
                   worst_of(np.abs(kP_star.matrix - m.scan("G2", "G1"))), 1e-12))
    checks.append(("adjoint involution",
                   worst_of(np.abs(adjoint(kP_star).matrix - kP.matrix)), 1e-12))
    # P1 and P2 are not formed: mu is pushed through their factors
    mu_T1, mu_T2 = _vecmat(grid_mu, k1.matrix), _vecmat(grid_mu, k2.matrix)
    mu_T12 = _vecmat(mu_T1, k2.matrix)  # mu T1 T2 over the grid
    moved = {"G1": mu_T1[..., 0, 0, :], "G2": mu_T2[..., 0, 0, :],
             "H1": mu_T1[..., 1, 0, :], "H2": mu_T2[..., 0, 1, :],
             "P": _vecmat(mu, m.P), "P1": mu_T12[..., 1, 0, :], "P2": mu_T12[..., 0, 1, :],
             "P12": _vecmat(mu, m.P12)}
    for name, mu_T in moved.items():
        checks.append((f"stationarity of {name}", worst_of(np.abs(mu_T - mu)), tol))
    # H1 is block diagonal in x, H2 in y once (x, y) is reordered to (y, x)
    nx, ny = m.nx, m.ny
    w = mu.reshape(lead + (nx, ny))
    lam1 = _blockwise_psd_min_eig(m.H1.reshape(lead + (nx, ny, nx, ny)), w)
    lam2 = _blockwise_psd_min_eig(
        np.moveaxis(m.H2.reshape(lead + (nx, ny, nx, ny)), (-4, -2), (-3, -1)),
        np.swapaxes(w, -1, -2))
    checks.append(("positivity of H1", _larger(0.0, -lam1), 1e-10))
    checks.append(("positivity of H2", _larger(0.0, -lam2), 1e-10))

    # each model's trial functions, from its own seed, as the columns of F
    F = np.empty(mu.shape + (trials,))
    for i, s in zip(np.ndindex(lead), seeds):
        F[i] = random_centered_functions(mu[i], trials, s).T
    worst = {key: 0.0 for key in (
        "decomposition", "doubling", "positive-part", "adjoint-comparison",
        "marginal equality", "marginal lift", "oscillation contraction")}

    def bump(key, vals):
        worst[key] = _larger(worst[key], worst_of(vals))

    # T = T1 T2 over the grid; the components are self-adjoint, so T* = T2 T1
    Fg = F[..., None, None, :, :]
    T2F = k2.matrix @ Fg
    TF = k1.matrix @ T2F
    lhs = dirichlet_form((k2, k1, k1, k2), Fg)
    rhs = dirichlet_form((k2, k2), Fg) + dirichlet_form((k1, k1), T2F)
    bump("decomposition", np.abs(lhs - rhs))
    bump("doubling", lhs - 2.0 * dirichlet_form((k1, k2), Fg))
    bump("adjoint-comparison", dirichlet_form((k1, k2, k2, k1), TF) - lhs)
    bump("oscillation contraction", np.ptp(TF, axis=-2) - np.ptp(Fg, axis=-2))
    for k in (k1, k2):
        bump("positive-part", dirichlet_form(k, Fg) - dirichlet_form((k, k), Fg))
    # cylinder functions: marginal Dirichlet form equality and the lift
    g = F[..., ::ny, :]  # f(x, 0)
    g = g - _vecmat(m.marg_x, g)[..., None, :]
    kPX = m.kernel("P_X")
    lhs = dirichlet_form((kP_star, kP), np.repeat(g, ny, axis=-2))
    rhs = dirichlet_form((adjoint(kPX), kPX), g)
    bump("marginal equality", np.abs(lhs - rhs))
    # P f is constant on x-fibers; its x-function advances by P_X
    pf = kP.matrix @ F
    fiber = pf.reshape(lead + (nx, ny, trials))
    bump("marginal lift", np.abs(fiber - fiber[..., :, :1, :]))
    bump("marginal lift", np.abs(np.repeat(m.P_X @ fiber[..., :, 0, :], ny, axis=-2)
                                 - kP.matrix @ pf))
    for key, val in worst.items():
        checks.append((key, val, tol if key != "marginal lift" else 1e-12))
    return _reports(checks, lead, seeds)


def verify_bound_domination(
    m: FiniteJointModel,
    f_set: Sequence[np.ndarray],
    n_max: int = 200,
    slack: float = 1e-9,
    mode: str = "full",
):
    """Exact decay of the Metropolis-within-Gibbs scan vs the composed bound.

    Component SPI constants are exact spectral gaps (worst slice for the
    Metropolised refreshes, right gap of P*P for the exact scan); the
    composed rate function must dominate ||P12^n f||^2 / ||f||^2_osc for
    every supplied f and every n <= n_max.

    For a stacked model, ``f_set`` has shape (..., count, n), each model's
    functions under its index, and one Report per model comes back.

    Only ``full`` and ``strong`` bound P12; the two-stage modes, which bound
    scan("G1", "H2"), are refused (ROADMAP item 17).
    """
    from .kstar import Linear, compose_mwg
    from .rates import RateBound

    if mode in ("joint_2mg", "marginal_2mg"):
        raise InvalidModeError(
            f"mode {mode!r} bounds the two-stage chain scan('G1', 'H2'), not P12 = H1 H2, "
            "which verify_bound_domination measures; checking it on its own chain is "
            "ROADMAP item 17")

    lead = m.mu.shape[:-1]
    gaps = [np.asarray(g) for g in m.component_gaps()]
    # the composed bound is closed-form: one rate curve per model
    bounds = np.empty(lead + (n_max + 1,))
    for i in np.ndindex(lead):
        k = compose_mwg(*(Linear(float(g[i])) for g in gaps), mode=mode)
        bounds[i] = RateBound(k).curve(range(n_max + 1))

    F = np.asarray(f_set, dtype=float).reshape(lead + (-1, m.mu.shape[-1]))
    F = np.swapaxes(F, -1, -2)
    F = F - _vecmat(m.mu, F)[..., None, :]
    osc_sq = np.ptp(F, axis=-2) ** 2
    keep = osc_sq > 0.0  # a constant f has nothing to decay
    decay = l2_decay_exact(m.kernel("P12"), F, n_max)
    excess = decay / np.where(keep, osc_sq, 1.0)[..., None, :] - bounds[..., :, None]
    worst = np.max(np.where(keep[..., None, :], excess, -np.inf), axis=(-2, -1),
                   initial=-np.inf)
    return _reports([(f"bound domination ({mode})", worst, slack)], lead,
                    [None] * int(np.prod(lead)))
