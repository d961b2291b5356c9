"""Convergence-bound calculus for deterministic-scan Gibbs-type samplers.

Weak Poincare profiles (beta), their convex-conjugate rate functions (K*),
composition rules for Metropolis-within-Gibbs kernels, closed-form bounds
for three conjugate models, a dense finite-state oracle, and Monte Carlo
decay estimators.
"""
from .beta import (
    AdjointShift,
    BetaSpec,
    ExpLogSquare,
    Indicator,
    PowerLaw,
    Sum,
    Table,
)
from .errors import (
    DomainError,
    InvalidModeError,
    InvalidSpecError,
    UnboundedConjugateError,
    ValidityRangeError,
    WpgibbsError,
)
from .kstar import (
    Clamped,
    Composite,
    ExpLogSquareConjugate,
    GridKStar,
    KStarFn,
    Linear,
    Power,
    compose_mwg,
    conjugate,
    scale,
)
from .rates import RateBound

__version__ = "0.1.0"
