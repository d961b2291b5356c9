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
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from . import kstar, samplers
from .beta import DEFAULT_CAP, BetaSpec, ExpLogSquare, Indicator
from .errors import DomainError, InvalidModeError, InvalidSpecError, ValidityRangeError
from .kstar import Linear
from .special import gammainc_lower, gammainc_upper, lambert_w

# conductance constants for random-walk / heavy-tail slice gap bounds
C_RWM = 1.972e-4
C_XI = math.pi ** -2 * 2 ** -11

# arbitrary-but-fixed constant in the upper-incomplete-gamma tail bound
# Gamma_U(t, x) <= B exp(-x) x^{t-1}; any B > 1 works, we record this one
B_UPPER_TAIL = 2.0

GAMMA_XI_SCALED = (27.0 / 256.0) * C_XI
GAMMA_TAU_SCALED = C_RWM / (2.0 * math.e)


def _numbers(obj, kind, *names) -> None:
    """Store each named field of a frozen params object as ``kind``."""
    for name in names:
        value = getattr(obj, name)
        try:
            object.__setattr__(obj, name, kind(value))
        except (TypeError, ValueError):
            raise InvalidSpecError(f"{name} must be a number, got {value!r}") from None


def _frozen(a) -> np.ndarray:
    """A read-only float copy, so values derived from it can be cached."""
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _positive(name: str, x: float) -> float:
    x = float(x)
    if not x > 0.0:
        raise DomainError(f"{name} must be positive, got {x}")
    return x


# ---------------------------------------------------------------------------
# normal/exponential scale model
# ---------------------------------------------------------------------------

Scaled = str  # the literal "scaled"


@dataclass(frozen=True)
class NIGParams:
    """Scale model tau | xi ~ Gamma(1, beta + xi^2/2), xi | tau ~ N(0, 1/tau).

    ``sigma_xi`` is the step size of the tau-update (chosen per conditioning
    xi), ``sigma_tau`` the step size of the xi-update; either may be the
    string "scaled" for the conditioning-dependent optimal choices
    sigma_xi^2 = 3/beta_xi^2 and sigma_tau^2 = 1/(2 tau).  ``gamma_dg`` is a
    user-supplied SPI constant for the exact-scan kernel.
    """

    beta_hyper: float
    sigma_xi: Union[float, Scaled] = "scaled"
    sigma_tau: Union[float, Scaled] = "scaled"
    gamma_dg: float = 1.0

    def __post_init__(self):
        steps = [n for n in ("sigma_xi", "sigma_tau") if getattr(self, n) != "scaled"]
        _numbers(self, float, "beta_hyper", "gamma_dg", *steps)
        for name in ("beta_hyper", "gamma_dg", *steps):
            _positive(name, getattr(self, name))


def nig_conditional_gaps(p: NIGParams, xi: float, tau: float):
    """Lower bounds (gamma_xi, gamma_tau) on the two conditional slice gaps.

    gamma_xi bounds the gap of the tau-update at fixed xi, gamma_tau the gap
    of the xi-update at fixed tau.  With the scaled step choices both bounds
    are constants independent of the conditioning value.
    """
    tau = _positive("tau", tau)
    beta_xi = p.beta_hyper + 0.5 * xi * xi

    if p.sigma_xi == "scaled":
        gamma_xi = GAMMA_XI_SCALED
    else:
        s2 = float(p.sigma_xi) ** 2
        gamma_xi = C_XI * (beta_xi ** 2 * s2) ** 3 / (beta_xi ** 2 * s2 + 1.0) ** 4

    if p.sigma_tau == "scaled":
        gamma_tau = GAMMA_TAU_SCALED
    else:
        s2 = float(p.sigma_tau) ** 2
        gamma_tau = C_RWM * s2 * tau * math.exp(-2.0 * s2 * tau)

    return gamma_xi, gamma_tau


def nig_scaled_kstar(p: NIGParams) -> Linear:
    """Composed rate function for the scaled-step sampler.

    Both slice profiles are indicators with conditioning-free constants, so
    2 K1*(K2*(gamma v / 2)) collapses to the linear slope
    gamma_tau * gamma_xi * gamma and the bound is 1/4 exp(-slope * n).
    """
    return Linear(GAMMA_TAU_SCALED * GAMMA_XI_SCALED * p.gamma_dg)


def _nig_sigma0(p: NIGParams) -> float:
    if p.sigma_xi == "scaled" or p.sigma_tau == "scaled":
        raise InvalidSpecError(
            "fixed-step profiles need numeric step sizes (the CLI's --sigma0)"
        )
    if float(p.sigma_xi) != float(p.sigma_tau):
        raise InvalidSpecError("fixed-step profiles assume a common step sigma0")
    return float(p.sigma_xi)


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


@dataclass(frozen=True)
class NIGBeta2(BetaSpec):
    """Fixed-step profile of the xi-update: integrated against the
    Gamma(1/2, beta) marginal of tau via the two real Lambert-W branches;
    the cap 1/4 below its validity range."""

    params: NIGParams
    cap = DEFAULT_CAP

    def _eval(self, s):
        sigma0 = _nig_sigma0(self.params)
        out = np.full_like(s, DEFAULT_CAP)
        valid = s >= 2.0 * math.e / C_RWM
        # in [-1/e, 0) up to rounding at the edge, which lambert_w absorbs
        arg = -2.0 / (C_RWM * s[valid])
        scale_w = -self.params.beta_hyper / (2.0 * sigma0 * sigma0)
        x_lo = scale_w * lambert_w(arg, "principal")
        x_hi = scale_w * lambert_w(arg, "minus_one")
        out[valid] = (gammainc_lower(0.5, x_lo) + gammainc_upper(0.5, x_hi)) / math.sqrt(math.pi)
        return out


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
        object.__setattr__(self, "X", _frozen(self.X))
        object.__setattr__(self, "Y", _frozen(self.Y))
        _numbers(self, float, "a", "b", "sigma0", "gamma_dg")
        if not self.a > 1.0:
            raise DomainError("a must be > 1")
        _positive("b", self.b)
        _positive("sigma0", self.sigma0)
        _positive("gamma_dg", self.gamma_dg)
        N, p = self.X.shape
        if not N > p:
            raise DomainError("need more observations than coefficients")
        if np.linalg.matrix_rank(self.X) < p:
            raise DomainError("design matrix must have full column rank")
        if self.Y.shape != (N,):
            raise DomainError("response length must match the design matrix")

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
    def a_prime(self) -> float:
        return self.a + self.N / 2.0 - self.p / 2.0

    @functools.cached_property
    def b_prime(self) -> float:
        u = np.linalg.solve(self.gram, self.X.T @ self.Y)
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


def bayes_crossover_sigma0_sq(p: BayesParams) -> float:
    """Step-size-squared threshold below which the a' exponent dominates."""
    return p.b_prime / (2.0 * p.a_prime * p.eig_max * p.p)


@dataclass(frozen=True)
class BayesBeta2(BetaSpec):
    """Profile of the coefficient update integrated over the precision
    marginal: the normalized lower+upper incomplete-gamma expression at the
    two Lambert-W branch points of -C1 C2 / s, valid for s >= e C1 C2; the
    cap 1/4 below."""

    params: BayesParams
    cap = DEFAULT_CAP

    def _eval(self, s):
        p = self.params
        c1c2 = p.C1 * p.C2
        out = np.full_like(s, DEFAULT_CAP)
        valid = s >= math.e * c1c2
        arg = -c1c2 / s[valid]  # in [-1/e, 0) up to rounding at the edge
        scale_w = -p.b_prime / p.C2
        x_lo = scale_w * lambert_w(arg, "principal")
        x_hi = scale_w * lambert_w(arg, "minus_one")
        ap = p.a_prime
        out[valid] = (gammainc_lower(ap, x_lo) + gammainc_upper(ap, x_hi)) / math.gamma(ap)
        return out


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
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "obs", tuple(float(y) for y in self.obs))
        _numbers(self, float, "mu0", "tau0", "gamma_dg", "envelope_K")
        _numbers(self, int, "M")
        _positive("tau0", self.tau0)
        _positive("gamma_dg", self.gamma_dg)
        _positive("envelope_K", self.envelope_K)
        if self.M < 2:
            raise DomainError("segment grid resolution M must be >= 2")
        t = np.asarray(self.times)
        if len(t) < 2 or np.any(np.diff(t) <= 0.0):
            raise DomainError("observation times must be strictly increasing")
        if len(self.obs) != len(self.times):
            raise DomainError("need one observation per time point")

    @property
    def T(self) -> float:
        return self.times[-1] - self.times[0]

    @property
    def m(self) -> float:
        return self.mu0 + self.tau0 ** 2 * self.T / 2.0

    @property
    def eta(self) -> float:
        t = np.asarray(self.times)
        y = np.asarray(self.obs)
        return float(np.max(np.diff(t) - y[1:] ** 2 + y[:-1] ** 2))


def diffusion_beta2_indicator(theta: float, p: OUParams) -> Indicator:
    """Indicator profile of the bridge refresh at a fixed drift parameter.

    Each segment's independence-Metropolis kernel has slice profile
    1{s <= Gtilde_i} with Gtilde_i = exp{A(Y_i) - A(Y_{i-1}) - M(theta) dt_i / 2};
    the product over segments keeps the worst one.  For the mean-reverting
    drift b(x) = -theta x, A(u) = -theta u^2/2 and the lower bound
    M(theta) = -theta give Gtilde_i = exp{theta (dt_i - Y_i^2 + Y_{i-1}^2) / 2}.
    """
    y = np.asarray(p.obs)
    A = -theta * y * y / 2.0
    g = np.exp(A[1:] - A[:-1] + 0.5 * theta * np.diff(np.asarray(p.times)))
    return Indicator(gamma=1.0 / float(np.max(g)))


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


def ou_rate(n: int, p: OUParams, delta: float, C_tilde: float = 0.25) -> float:
    """Bound C~ exp(-(a/delta) log^2((n-1)/(gamma/2))) after n >= 2 scans."""
    if delta <= 1.0:
        raise DomainError("delta must be > 1")
    if n < 2:
        raise DomainError("n must be >= 2")
    a = ou_rate_coefficient(p)
    arg = (n - 1) / (p.gamma_dg / 2.0)
    if arg <= 1.0:
        return C_tilde
    return C_tilde * math.exp(-(a / delta) * math.log(arg) ** 2)


@dataclass(frozen=True)
class OUBeta2(BetaSpec):
    """Gaussian-tail profile of the bridge refresh integrated over the drift:
    envelope_K * (1 - Phi((2 log(s)/eta - m) / tau0)) for s >= 1; 1/4 below.

    Evaluated one point at a time with ``math.log`` and ``math.erfc``,
    whose last bits ``np.log`` does not reproduce.
    """

    params: OUParams
    cap = DEFAULT_CAP

    def _eval(self, s):
        p = self.params
        out = np.full_like(s, DEFAULT_CAP)
        tail = np.flatnonzero(~(s < 1.0))
        if tail.size and p.eta <= 0.0:
            raise ValidityRangeError("profile needs eta > 0 for the Gaussian tail")
        eta, m = p.eta, p.m
        for i in tail:
            z = (2.0 * math.log(s[i]) / eta - m) / p.tau0
            out[i] = p.envelope_K * (0.5 * math.erfc(z / math.sqrt(2.0)))
        return out


# ---------------------------------------------------------------------------
# case registry: what the CLI runs for each case
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """One worked sampler as the CLI runs it.

    ``modes`` are the allowed ``--mode`` values, the default first.
    ``bound(p, mode, delta)`` returns (K*, constants, rate_shape).
    ``trace(p, mode, rng, steps, acc)`` yields the CSV rows of one chain
    (start, then ``steps`` scans) under the header ``columns(p)``; a case
    that records acceptance appends its per-segment counts to ``acc``.
    ``sample_meta`` holds what the case adds to a trace run's metadata.
    """

    params: type
    modes: tuple
    bound: Callable
    columns: Callable
    trace: Callable
    sample_meta: dict = field(default_factory=dict)


def nig_check_steps(p: NIGParams, mode: str) -> None:
    """Mode ``fixed`` needs one common numeric step; the others take none."""
    if mode == "fixed":
        _nig_sigma0(p)
    elif p.sigma_xi != "scaled" or p.sigma_tau != "scaled":
        raise InvalidSpecError(f"--mode {mode} takes no numeric step; use --mode fixed")


def _nig_bound(p: NIGParams, mode: str, delta: float):
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
    high = p.beta_hyper / p.sigma_xi > 1.0
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


def _nig_trace(p: NIGParams, mode: str, rng, steps: int, acc: list):
    tau, xi = samplers.nig_stationary_start(p, rng, 1)
    for step in range(steps + 1):
        yield step, repr(float(tau[0])), repr(float(xi[0]))
        tau, xi = samplers.nig_step(tau, xi, p, mode, rng)


def _bayes_bound(p: BayesParams, mode: str, delta: float):
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


def _bayes_trace(p: BayesParams, mode: str, rng, steps: int, acc: list):
    lam = float(rng.gamma(p.a, 1.0 / p.b))
    bvec = np.zeros(p.p)
    for step in range(steps + 1):
        yield [step, repr(lam)] + [repr(float(v)) for v in bvec]
        lam, bvec = samplers.bayes_step(lam, bvec, p, rng)


def _ou_bound(p: OUParams, mode: str, delta: float):
    if not delta > 1.0:
        raise DomainError(f"delta must be > 1, got {delta}")
    constants = {
        "a": ou_rate_coefficient(p),
        "a_expr": "2/(eta^2*tau0^2)",
        "eta": p.eta,
        "m": p.m,
        "delta": delta,
        "envelope_K": p.envelope_K,
    }
    k2 = kstar.conjugate(ou_exp_log_square_envelope(p))
    k = kstar.compose_mwg(Linear(p.gamma_dg), None, k2, mode="marginal_2mg")
    return k, constants, "exp(-(a/delta)*log^2((n-1)/(gamma/2)))"


def _ou_trace(p: OUParams, mode: str, rng, steps: int, acc: list):
    accepted = np.zeros(len(p.times) - 1)
    acc.append(accepted)
    st = samplers.ou_initial_state(p, rng)
    for step in range(steps + 1):
        yield step, repr(st.theta)
        st, ok = samplers.ou_da_step(st, p, rng)
        accepted += ok


CASES = {
    "nig": Case(NIGParams, samplers.NIG_MODES, _nig_bound,
                lambda p: ["step", "tau", "xi"], _nig_trace),
    "bayes": Case(BayesParams, ("mwg",), _bayes_bound,
                  lambda p: ["step", "lambda"] + [f"beta{j}" for j in range(p.p)],
                  _bayes_trace),
    "ou": Case(OUParams, ("mwg",), _ou_bound, lambda p: ["step", "theta"], _ou_trace,
               {"discretization": {"ito": "left-point", "time_integral": "trapezoid"}}),
}
