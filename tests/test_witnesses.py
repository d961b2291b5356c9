"""Exact witness for tensorization: the ``Sum`` profile rule on a product chain.

For independent reversible chains P and Q, the product chain T = P (x) Q
has T*T = P*P (x) Q*Q, and the profile of T*T is bounded by the sum of the
SPI indicators of P*P and Q*Q at their exact spectral gaps.  The bound runs
the numeric path (a ``Sum`` is conjugated on the u-grid and integrated by
the rate table).  The exact side is the worst ||T^n f||^2 / osc(f)^2 over
the 2^N - 2 nonconstant indicators, which is the worst over all f: the
norm is convex in f, and f with osc(f) <= 1 ranges, up to a constant, over
the cube [0, 1]^N, whose vertices are the indicators.
"""
import functools

import numpy as np
import pytest

from wpgibbs.beta import Indicator, Sum
from wpgibbs.finite import (
    PMF_FLOOR,
    FiniteKernel,
    adjoint,
    l2_decay_exact,
    lazy_rwm_kernel,
    spectral_gap,
)
from wpgibbs.kstar import conjugate
from wpgibbs.rates import RateBound

N_MAX = 60
SEEDS = range(8)
# the slack `verify_bound_domination` allows, as a ratio
SLACK = 1e-9


def _chain(rng, m):
    pi = np.maximum(rng.dirichlet(np.ones(m)), PMF_FLOOR)
    pi /= pi.sum()
    return FiniteKernel(lazy_rwm_kernel(pi), pi)


def _gap(k):
    """Spectral gap of k*k."""
    return spectral_gap(FiniteKernel(adjoint(k).matrix @ k.matrix, k.mu))


def _curve(gaps):
    k = conjugate(Sum(tuple(Indicator(float(g)) for g in gaps)))
    return np.asarray(RateBound(k).curve(range(N_MAX + 1)))


@functools.cache
def _witness(seed):
    """(worst exact decay per n, the Sum bound, the bound without the slower
    child) for the product of a 3- or 4-state and a 4-state chain."""
    rng = np.random.default_rng(seed)
    kP, kQ = _chain(rng, 3 + seed % 2), _chain(rng, 4)
    T = FiniteKernel(np.kron(kP.matrix, kQ.matrix), np.kron(kP.mu, kQ.mu))
    n = T.n
    # the 2^n - 2 nonconstant indicators, centred; each has osc 1
    F = ((np.arange(1, 2 ** n - 1) >> np.arange(n)[:, None]) & 1).astype(float)
    F -= T.mu @ F
    decay = np.max(l2_decay_exact(T, F, N_MAX), axis=-1)
    gaps = (_gap(kP), _gap(kQ))
    return decay, _curve(gaps), _curve([max(gaps)])


@pytest.mark.parametrize("seed", SEEDS)
def test_sum_of_indicators_dominates_the_product_chain(seed):
    decay, bound, _ = _witness(seed)
    ratio = decay / bound
    assert np.max(ratio) <= 1.0 + SLACK, (seed, int(np.argmax(ratio)), np.max(ratio))


def test_dropping_the_slower_child_fails():
    """Power control: the bound of the faster chain alone is too fast for
    the product on some seeded pair."""
    failed = [s for s in SEEDS if np.any(_witness(s)[0] > _witness(s)[2] * (1.0 + SLACK))]
    assert failed
