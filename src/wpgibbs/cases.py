"""Closed-form convergence profiles for three conjugate two-block samplers.

Cases covered:
  * normal/exponential scale model (``nig``): tau | xi ~ Gamma(1, beta + xi^2/2),
    xi | tau ~ N(0, 1/tau), updated by random-walk Metropolis within Gibbs;
  * Bayesian linear regression (``bayes``): lambda | beta ~ Gamma, beta | lambda
    Gaussian, with a random-walk update on the regression coefficients;
  * discretely observed Ornstein-Uhlenbeck drift inference (``ou``): data
    augmentation over bridge segments refreshed by independence Metropolis.

Each case supplies conditional spectral-gap lower bounds, explicit beta
profiles obtained by integrating slice-wise indicator profiles against the
relevant marginal, and the polynomial / log-squared rate exponents those
profiles imply.  Non-explicit envelope constants are exposed as parameters
and surfaced in CLI metadata rather than silently fixed.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import kstar, samplers
from .beta import DEFAULT_CAP, BetaSpec, ExpLogSquare, _number, _numbers
from .errors import (DomainError, InvalidModeError, InvalidSpecError, UnboundedConjugateError,
                     ValidityRangeError)
from .kstar import Linear
from .special import gammainc_tails, lambert_w

# conductance constants for random-walk / heavy-tail slice gap bounds
C_RWM = 1.972e-4
C_XI = math.pi ** -2 * 2 ** -11

# arbitrary-but-fixed constant in the upper-incomplete-gamma tail bound
# Gamma_U(t, x) <= B exp(-x) x^{t-1}; any B > 1 works, we record this one
B_UPPER_TAIL = 2.0

GAMMA_XI_SCALED = (27.0 / 256.0) * C_XI
GAMMA_TAU_SCALED = C_RWM / (2.0 * math.e)

# the delta > 1 of the OU rate shape exp(-(a/delta) log^2((n-1)/(gamma/2))),
# which the OU bound states; the K* it reports does not depend on it
OU_DELTA = 1.5


def _frozen(a) -> np.ndarray:
    """A read-only float copy, so values derived from it can be cached."""
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _number_array(name: str, value) -> np.ndarray:
    """``_frozen`` of an array field whose every entry passes ``_number``, which
    np.asarray alone does not check: it reads True or "0.5" as a float."""
    cells = np.array(value, dtype=object)
    return _frozen([_number(f"{name} entry", v) for v in cells.flat]).reshape(cells.shape)


def _positive(obj, *names) -> None:
    """Store each named field of a frozen params object as a positive finite float."""
    _numbers(obj, float, *names)
    for name in names:
        if not getattr(obj, name) > 0.0:
            raise DomainError(f"{name} must be positive, got {getattr(obj, name)}")


def _square_within(obj, name: str, low: float = sys.float_info.min) -> None:
    """Refuse a field whose square is not in [low, the largest double]: the
    cases' constants square their fields and, by default, divide by the
    squares."""
    x = getattr(obj, name)
    if not low <= x * x <= sys.float_info.max:
        raise DomainError(f"{name}^2 must lie in [{low:.3g}, {sys.float_info.max:.3g}], "
                          f"got {name} = {x!r}")


def _gap_at_most_one(obj) -> None:
    """``gamma_dg`` is a right spectral gap of a positive semidefinite
    operator (P*P, or the marginal chain), so it is at most 1."""
    if obj.gamma_dg > 1.0:
        raise DomainError(f"gamma_dg must be at most 1, as a spectral gap of a positive "
                          f"semidefinite kernel; got {obj.gamma_dg}")


# ---------------------------------------------------------------------------
# normal/exponential scale model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NIGParams:
    """Scale model tau | xi ~ Gamma(1, beta + xi^2/2), xi | tau ~ N(0, 1/tau).

    ``sigma0`` is the common random-walk step of both updates in mode
    ``fixed``; None stands for the conditioning-dependent steps
    sigma_xi^2 = 3/beta_xi^2 (tau-update) and sigma_tau^2 = 1/(2 tau)
    (xi-update) of mode ``scaled``.  ``gamma_dg`` is a user-supplied SPI
    constant for the exact-scan kernel.
    """

    beta_hyper: float = 1.0
    sigma0: Optional[float] = None
    gamma_dg: float = 1.0

    def __post_init__(self):
        _positive(self, "beta_hyper", "gamma_dg", *(() if self.sigma0 is None else ("sigma0",)))
        if self.sigma0 is not None:
            _square_within(self, "sigma0")
        _gap_at_most_one(self)


def nig_scaled_kstar(p: NIGParams) -> Linear:
    """Composed rate function for the scaled-step sampler.

    Both slice profiles are indicators with conditioning-free constants, so
    2 K1*(K2*(gamma v / 2)) collapses to the linear slope
    gamma_tau * gamma_xi * gamma and the bound is 1/4 exp(-slope * n).
    """
    return Linear(GAMMA_TAU_SCALED * GAMMA_XI_SCALED * p.gamma_dg)


def _nig_sigma0(p: NIGParams) -> float:
    if p.sigma0 is None:
        raise InvalidSpecError("fixed-step profiles need a step sigma0 (the CLI's --sigma0)")
    return p.sigma0


def nig_envelope_exponents(p: NIGParams):
    """Tail exponents of the two fixed-step profiles: (1/4, min(1/2, beta/(2 sigma0^2)))."""
    sigma0 = _nig_sigma0(p)
    return 0.25, min(0.5, p.beta_hyper / (2.0 * sigma0 * sigma0))


def nig_rate_exponent(p: NIGParams) -> float:
    """Polynomial decay exponent of the fixed-step bound: n^(-exponent)."""
    sigma0 = _nig_sigma0(p)
    beta = p.beta_hyper
    if beta / sigma0 > 1.0:
        return 1.0 / 14.0
    return beta / (4.0 * beta + 10.0 * sigma0)


@dataclass(frozen=True)
class NIGBeta1(BetaSpec):
    """Fixed-step profile of the tau-update: the indicator profile integrated
    against the t_1(0, 2 beta) marginal of xi; the cap 1/4 below its
    validity range."""

    params: NIGParams
    cap = DEFAULT_CAP

    def _eval(self, s):
        sigma0 = _nig_sigma0(self.params)
        beta = self.params.beta_hyper
        s0sq = sigma0 * sigma0
        cprime = C_XI * (beta * beta * s0sq / (beta * beta * s0sq + 1.0)) ** 4
        root = np.sqrt(cprime * s / s0sq)
        out = np.full_like(s, DEFAULT_CAP)
        valid = root > beta
        out[valid] = (2.0 * math.sqrt(2.0 * beta) / math.pi) * (
            math.pi / 2.0 - np.arctan(np.sqrt((root[valid] - beta) / beta))
        )
        return out


def _gamma_marginal_profile(s: np.ndarray, a: float, c: float, rate: float, rate_name: str):
    """P(a, x_lo) + Q(a, x_hi) at x = -rate W(-c/s), W0 for x_lo and W_{-1}
    for x_hi, where s >= e c; the cap 1/4 below.  Both beta_2 profiles take
    this form: the mass of their Gamma(a, rate) marginal outside a Lambert-W
    interval.  ``rate_name`` names the inputs behind ``rate`` if x overflows."""
    out = np.full_like(s, DEFAULT_CAP)
    valid = s >= math.e * c
    arg = -c / s[valid]  # in [-1/e, 0) up to rounding at the edge, which lambert_w absorbs
    with np.errstate(over="ignore"):
        x = -rate * lambert_w(arg)
    if not np.isfinite(x).all():
        raise DomainError(f"{rate_name} overflows the beta_2 profile's incomplete-gamma arguments")
    out[valid] = gammainc_tails(a, x[0], x[1])
    return out


@dataclass(frozen=True)
class NIGBeta2(BetaSpec):
    """Fixed-step profile of the xi-update: integrated against the
    Gamma(1/2, beta) marginal of tau via the two real Lambert-W branches;
    the cap 1/4 below its validity range."""

    params: NIGParams
    cap = DEFAULT_CAP

    def _eval(self, s):
        sigma0, beta = _nig_sigma0(self.params), self.params.beta_hyper
        return _gamma_marginal_profile(
            s, 0.5, 2.0 / C_RWM, beta / (2.0 * sigma0 * sigma0),
            f"beta_hyper / (2 sigma0^2) at beta_hyper={beta!r}, sigma0={sigma0!r}")


# ---------------------------------------------------------------------------
# Bayesian linear regression
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BayesParams:
    """Gamma(a, b) precision prior, Gaussian regression likelihood, RWM step
    sigma0 on the coefficients.  Derived quantities use the posterior
    precision marginal Gamma(a_prime, b_prime)."""

    a: float
    b: float
    X: np.ndarray
    Y: np.ndarray
    sigma0: float
    gamma_dg: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "X", _number_array("X", self.X))
        object.__setattr__(self, "Y", _number_array("Y", self.Y))
        _numbers(self, float, "a")
        _positive(self, "b", "sigma0", "gamma_dg")
        _gap_at_most_one(self)
        if not self.a > 1.0:
            raise DomainError("a must be > 1")
        if self.X.ndim != 2:
            raise DomainError(f"X must be a 2-D design matrix, got shape {self.X.shape}")
        N, p = self.X.shape
        if not N > p:
            raise DomainError("need more observations than coefficients")
        if np.linalg.matrix_rank(self.X) < p:
            raise DomainError("design matrix must have full column rank")
        if self.Y.shape != (N,):
            raise DomainError("response length must match the design matrix")
        try:
            ok = 0.0 < self.C1 < math.inf and 0.0 < self.C2 < math.inf
        except ArithmeticError:
            ok = False
        if not ok:
            raise DomainError(f"sigma0 = {self.sigma0!r} puts C1 = 1/(C_RWM eig_min sigma0^2) or "
                              f"C2 = 2 eig_max p sigma0^2 outside the positive doubles")

    @property
    def N(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @functools.cached_property
    def gram(self) -> np.ndarray:
        return _frozen(self.X.T @ self.X)

    @functools.cached_property
    def posterior_mean(self) -> np.ndarray:
        """The coefficients' conditional mean (X^T X)^-1 X^T Y, at any precision."""
        return _frozen(np.linalg.solve(self.gram, self.X.T @ self.Y))

    @functools.cached_property
    def a_prime(self) -> float:
        return self.a + self.N / 2.0 - self.p / 2.0

    @functools.cached_property
    def b_prime(self) -> float:
        u = self.posterior_mean
        resid = float(self.Y @ self.Y - u @ self.gram @ u)
        return self.b + max(resid, 0.0) / 2.0

    @functools.cached_property
    def eig_min(self) -> float:
        return float(np.linalg.eigvalsh(self.gram)[0])

    @functools.cached_property
    def eig_max(self) -> float:
        return float(np.linalg.eigvalsh(self.gram)[-1])

    @functools.cached_property
    def C1(self) -> float:
        return 1.0 / (C_RWM * self.eig_min * self.sigma0 ** 2)

    @functools.cached_property
    def C2(self) -> float:
        return 2.0 * self.eig_max * self.p * self.sigma0 ** 2


def bayes_rate_exponent(p: BayesParams) -> float:
    """Polynomial decay exponent: the bound decays like (n-1)^(-exponent)."""
    return min(p.a_prime, p.b_prime / p.C2)


@dataclass(frozen=True)
class BayesBeta2(BetaSpec):
    """Profile of the coefficient update integrated over the precision
    marginal: the regularised lower+upper incomplete-gamma expression at the
    two Lambert-W branch points of -C1 C2 / s, valid for s >= e C1 C2; the
    cap 1/4 below."""

    params: BayesParams
    cap = DEFAULT_CAP

    def _eval(self, s):
        p = self.params
        return _gamma_marginal_profile(
            s, p.a_prime, p.C1 * p.C2, p.b_prime / p.C2, f"b' / C2 at b={p.b!r}, sigma0={p.sigma0!r}")


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck drift inference by data augmentation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OUParams:
    """N(mu0, tau0^2) prior on the drift parameter, observations Y at the
    given times, bridge segments refreshed by independence Metropolis on an
    M-point grid per segment.

    ``envelope_K`` is the non-explicit density-ratio constant bounding the
    drift posterior by the N(m, tau0^2) reference (m = mu0 + tau0^2 T / 2);
    it is a modeling input, not derived, and is echoed into metadata.
    """

    mu0: float
    tau0: float
    times: tuple
    obs: tuple
    M: int = 64
    gamma_dg: float = 1.0
    envelope_K: float = 1.0

    def __post_init__(self):
        for name in ("times", "obs"):
            values = _number_array(name, getattr(self, name))
            if values.ndim != 1:
                raise InvalidSpecError(f"{name} must be a list of numbers")
            object.__setattr__(self, name, tuple(values.tolist()))
        _numbers(self, float, "mu0")
        _numbers(self, int, "M")
        _positive(self, "tau0", "gamma_dg", "envelope_K")
        _square_within(self, "tau0")
        _square_within(self, "mu0", low=0.0)
        _gap_at_most_one(self)
        if self.M < 2:
            raise DomainError("segment grid resolution M must be >= 2")
        if len(self.times) < 2 or np.any(self.dts <= 0.0):
            raise DomainError("observation times must be strictly increasing")
        if len(self.obs) != len(self.times):
            raise DomainError("need one observation per time point")

    @functools.cached_property
    def dts(self) -> np.ndarray:
        return _frozen(np.diff(self.times))

    @functools.cached_property
    def y(self) -> np.ndarray:
        return _frozen(self.obs)

    @functools.cached_property
    def ends(self) -> np.ndarray:
        """The (segments x 2) endpoints every bridge path is pinned to."""
        return _frozen(np.stack((self.y[:-1], self.y[1:]), axis=1))

    # The sampler's per-segment constants, one row per segment: each bridge's
    # grid step dt / M and its square root, start y_i and gap y_{i+1} - y_i.
    @functools.cached_property
    def hs(self) -> np.ndarray:
        return _frozen((self.dts / self.M)[:, None])

    @functools.cached_property
    def sqrt_hs(self) -> np.ndarray:
        return _frozen(np.sqrt(self.hs))

    @functools.cached_property
    def bridge_starts(self) -> np.ndarray:
        return _frozen(self.y[:-1, None])

    @functools.cached_property
    def bridge_gaps(self) -> np.ndarray:
        return _frozen(self.y[1:, None] - self.y[:-1, None])

    @functools.cached_property
    def prior_precision(self) -> float:
        """tau0^-2."""
        return self.tau0 ** -2

    @property
    def T(self) -> float:
        return self.times[-1] - self.times[0]

    @property
    def m(self) -> float:
        return self.mu0 + self.tau0 ** 2 * self.T / 2.0

    @property
    def eta(self) -> float:
        y = self.y
        return float(np.max(self.dts - y[1:] ** 2 + y[:-1] ** 2))


def ou_exp_log_square_envelope(p: OUParams) -> ExpLogSquare:
    """Log-squared envelope dominating ``OUBeta2`` on all of s >= 1.

    Completing the square in the Gaussian tail bound 1 - Phi(z) <=
    exp(-z^2/2)/2 gives z^2/2 = (a log s + b)^2 with a = sqrt(2)/(eta tau0)
    and b = -m/(sqrt(2) tau0); the b-shift is what lets a single constant
    dominate for every s (the leading log^2 coefficient 2/(eta^2 tau0^2)
    is a^2, which is all the rate conversion uses).
    """
    if p.eta <= 0.0:
        raise ValidityRangeError("envelope needs eta > 0")
    a = math.sqrt(2.0) / (p.eta * p.tau0)
    b = -p.m / (math.sqrt(2.0) * p.tau0)
    c = max(0.25, p.envelope_K / 2.0)
    return ExpLogSquare(c=c, a=a, b=b)


def ou_rate_coefficient(p: OUParams) -> float:
    """The a in the rate shape exp(-(a/delta) log^2((n-1)/(gamma/2)))."""
    if p.eta <= 0.0:
        raise ValidityRangeError("rate needs eta > 0")
    return 2.0 / (p.eta ** 2 * p.tau0 ** 2)


@dataclass(frozen=True)
class OUBeta2(BetaSpec):
    """Gaussian-tail profile of the bridge refresh integrated over the drift:
    envelope_K * (1 - Phi((2 log(s)/eta - m) / tau0)) for s >= 1; 1/4 below.

    Evaluated one point at a time with ``math.log`` and ``math.erfc``,
    whose last bits ``np.log`` does not reproduce, over the points of s
    flattened and returned in its shape.
    """

    params: OUParams
    cap = DEFAULT_CAP

    def _eval(self, s):
        p = self.params
        flat = s.ravel()
        out = np.full(flat.shape, DEFAULT_CAP)
        tail = np.flatnonzero(~(flat < 1.0))
        if tail.size and p.eta <= 0.0:
            raise ValidityRangeError("profile needs eta > 0 for the Gaussian tail")
        eta, m = p.eta, p.m
        for i in tail:
            z = (2.0 * math.log(flat[i]) / eta - m) / p.tau0
            out[i] = p.envelope_K * (0.5 * math.erfc(z / math.sqrt(2.0)))
        return out.reshape(s.shape)


# ---------------------------------------------------------------------------
# case registry: what the CLI runs for each case
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """One worked sampler as the CLI runs it.

    ``modes`` are the allowed ``--mode`` values, the default first.
    ``bound(p, mode)`` returns (K*, constants, rate_shape).
    ``trace(p, mode, rngs, steps, acc)`` runs one chain per stream of
    ``rngs`` side by side and yields, for the start and then each of
    ``steps`` scans, a list of CSV rows under the header ``columns(p)``,
    one row per chain in the order of ``rngs``; a chain's rows depend on
    its own stream alone.  A case that records acceptance appends each
    chain's per-segment counts to ``acc``, in chain order.
    ``sample_meta`` holds what the case adds to a trace run's metadata.
    ``fields`` are the params fields that the CLI's case flags may set.
    ``check(p, mode)`` rejects params that do not suit the mode.
    ``decay(p, mode, n_grid, starts, seed)`` is the paired-chain decay
    estimate that ``compare`` sets against the bound; None for a case that
    has none.
    """

    params: type
    modes: tuple
    bound: Callable
    columns: Callable
    trace: Callable
    sample_meta: dict = field(default_factory=dict)
    fields: tuple = ("gamma_dg",)
    check: Callable = lambda p, mode: None
    decay: Optional[Callable] = None


def nig_check_steps(p: NIGParams, mode: str) -> None:
    """Mode ``fixed`` needs the step ``sigma0``; the others take none."""
    if mode == "fixed" and p.sigma0 is None:
        raise InvalidSpecError("--mode fixed needs a numeric step sigma0 (--sigma0)")
    if mode != "fixed" and p.sigma0 is not None:
        raise InvalidSpecError(f"--mode {mode} takes no step sigma0; use --mode fixed")


def _nig_bound(p: NIGParams, mode: str):
    if mode == "scaled":
        k = nig_scaled_kstar(p)
        constants = {
            "gamma_xi": GAMMA_XI_SCALED,
            "gamma_xi_expr": "27/256 * pi^-2 * 2^-11",
            "gamma_tau": GAMMA_TAU_SCALED,
            "gamma_tau_expr": "1.972e-4 / (2e)",
            "slope": k.slope,
        }
        return k, constants, "0.25*exp(-gamma_tau*gamma_xi*gamma*n)"
    if mode != "fixed":
        raise InvalidModeError(f"bound has no rate recipe for --mode {mode}")
    high = p.beta_hyper / p.sigma0 > 1.0
    constants = {
        "rate_exponent": nig_rate_exponent(p),
        "rate_exponent_expr": "1/14" if high else "beta/(4*beta+10*sigma0)",
        "regime": "beta/sigma0 > 1" if high else "beta/sigma0 <= 1",
        "envelope_exponents": list(nig_envelope_exponents(p)),
    }
    k1 = kstar.conjugate(NIGBeta1(p))
    k2 = kstar.conjugate(NIGBeta2(p))
    k = kstar.compose_mwg(Linear(p.gamma_dg), k1, k2, mode="strong")
    return k, constants, "C*n^(-rate_exponent)"


def _nig_trace(p: NIGParams, mode: str, rngs, steps: int, acc: list):
    # all chains in one batch, an entry and a stream per chain
    starts = [samplers.nig_stationary_start(p, r, 1) for r in rngs]
    tau = np.concatenate([t for t, _ in starts])
    xi = np.concatenate([x for _, x in starts])
    for step in range(steps + 1):
        yield [(step, repr(t), repr(x)) for t, x in zip(tau.tolist(), xi.tolist())]
        tau, xi = samplers.nig_step(tau, xi, p, mode, rngs)


def _nig_decay(p: NIGParams, mode: str, n_grid, starts: int, seed: int):
    if mode != "scaled":
        raise InvalidModeError("compare --case nig runs the scaled-step chain only")
    return samplers.nig_decay_estimate(p, mode, n_grid, starts=starts, master_seed=seed)


def _bayes_bound(p: BayesParams, mode: str):
    constants = {
        "a_prime": p.a_prime,
        "b_prime": p.b_prime,
        "C1": p.C1,
        "C2": p.C2,
        "rate_exponent": bayes_rate_exponent(p),
        "rate_exponent_expr": "min{a', b'/C2}",
        "B_upper_tail": B_UPPER_TAIL,
    }
    k2 = kstar.conjugate(BayesBeta2(p))
    k = kstar.compose_mwg(Linear(p.gamma_dg), None, k2, mode="marginal_2mg")
    return k, constants, "C*(n-1)^(-min{a',b'/C2})"


def _bayes_trace(p: BayesParams, mode: str, rngs, steps: int, acc: list):
    # all chains in one batch, a stream per chain; bayes_step takes each
    # chain's residuals by a product of its own, so a chain rounds as alone
    lam = np.array([r.gamma(p.a, 1.0 / p.b) for r in rngs])
    beta = np.zeros((len(rngs), p.p))
    for step in range(steps + 1):
        yield [[step, v, *b] for v, b in zip(lam.tolist(), beta.tolist())]
        lam, beta = samplers.bayes_step(lam, beta, p, rngs)


def _ou_bound(p: OUParams, mode: str):
    constants = {
        "a": ou_rate_coefficient(p),
        "a_expr": "2/(eta^2*tau0^2)",
        "eta": p.eta,
        "m": p.m,
        "delta": OU_DELTA,
        "envelope_K": p.envelope_K,
    }
    try:
        k2 = kstar.conjugate(ou_exp_log_square_envelope(p))
    except UnboundedConjugateError:
        raise UnboundedConjugateError(
            f"at mu0={p.mu0!r}, tau0={p.tau0!r} the ou envelope (m={p.m:.6g}, eta={p.eta:.6g})"
            " has its conjugate beyond the package's u-grid, so no bound is given") from None
    k = kstar.compose_mwg(Linear(p.gamma_dg), None, k2, mode="marginal_2mg")
    return k, constants, "exp(-(a/delta)*log^2((n-1)/(gamma/2)))"


def _ou_trace(p: OUParams, mode: str, rngs, steps: int, acc: list):
    accepted = [np.zeros(len(p.times) - 1) for _ in rngs]
    acc.extend(accepted)
    chains = [samplers.ou_initial_state(p, r) for r in rngs]
    for step in range(steps + 1):
        yield [(step, repr(theta)) for theta, _ in chains]
        for i, ((theta, paths), r) in enumerate(zip(chains, rngs)):
            theta, paths, ok = samplers.ou_da_step(theta, paths, p, r)
            chains[i] = theta, paths
            accepted[i] += ok


CASES = {
    "nig": Case(NIGParams, samplers.NIG_MODES, _nig_bound,
                lambda p: ["step", "tau", "xi"], _nig_trace,
                fields=("gamma_dg", "beta_hyper", "sigma0"), check=nig_check_steps,
                decay=_nig_decay),
    "bayes": Case(BayesParams, ("mwg",), _bayes_bound,
                  lambda p: ["step", "lambda"] + [f"beta{j}" for j in range(p.p)],
                  _bayes_trace),
    "ou": Case(OUParams, ("mwg",), _ou_bound, lambda p: ["step", "theta"], _ou_trace,
               {"discretization": {"ito": "left-point", "time_integral": "trapezoid"}}),
}
