"""Scan products built entry by entry, and the blocked exact decay.

``FiniteJointModel.scan`` builds a product of one refresh of each block
from the slices, as the one nonzero term of each entry; ``l2_decay_exact``
projects T^n F for a block of n in one product.  Both must give the bits of
the dense matrix products and of the row-at-a-time sequence they replace.
A single refresh is a scan with the identity on the other block, so every
operator of a model must also give the bits of the scatter-built reference.
"""
import numpy as np
import pytest
from test_finite_stack import (
    _ref_l2_decay_exact,
    _ref_random_joint_model,
    _RefModel,
    _slice_cases,
)

from wpgibbs import finite
from wpgibbs.errors import DomainError
from wpgibbs.finite import (
    FiniteJointModel,
    FiniteKernel,
    dirichlet_form,
    l2_decay_exact,
    random_centered_functions,
    random_joint_model,
)

PAIRS = [(a, b) for a in ("G1", "H1") for b in ("G2", "H2")]


def _check_scans(m):
    for a, b in PAIRS:
        for first, second in ((a, b), (b, a)):
            dense = getattr(m, first) @ getattr(m, second)
            assert m.scan(first, second).tobytes() == dense.tobytes(), (first, second)
    assert m.P.tobytes() == (m.G1 @ m.G2).tobytes()
    assert m.P12.tobytes() == (m.H1 @ m.H2).tobytes()


@pytest.mark.parametrize("nx,ny", [(2, 2), (2, 5), (5, 3), (8, 8), (16, 16)])
def test_scans_match_dense_products(nx, ny):
    """Every scan of a G or H refresh of each block, in both orders, is the
    dense product byte for byte: lazy, exact and plain (not PSD) slices, on
    single models and on their stack."""
    joints, h1s, h2s = [], [], []
    for seed in (nx * 31 + ny, 7):
        base = _ref_random_joint_model(seed, nx, ny)
        for h1, h2 in _slice_cases(base):
            m = FiniteJointModel(base.joint, h1_slices=h1, h2_slices=h2)
            _check_scans(m)
            joints.append(base.joint)
            h1s.append(h1)
            h2s.append(h2)
    stack = FiniteJointModel(np.stack(joints), h1_slices=np.stack(h1s), h2_slices=np.stack(h2s))
    _check_scans(stack)
    _check_scans(random_joint_model([1, 2, 3], nx, ny))


OPERATORS = ("G1", "G2", "H1", "H2", "P", "P12", "P_X")


@pytest.mark.parametrize("nx,ny", [(2, 3), (2, 5), (5, 3), (4, 4)])
def test_operators_match_scatter_reference(nx, ny):
    """Every operator of the model is the scatter-built reference's byte for
    byte, with its stationary vector: lazy, exact and plain (not PSD)
    slices, on single models and on their stack."""
    joints, h1s, h2s, refs = [], [], [], []
    for seed in (nx * 31 + ny, 7):
        base = _ref_random_joint_model(seed, nx, ny)
        for h1, h2 in _slice_cases(base):
            ref = _RefModel(base.joint, h1_slices=h1, h2_slices=h2)
            m = FiniteJointModel(base.joint, h1_slices=h1, h2_slices=h2)
            for name in OPERATORS:
                k, k_ref = m.kernel(name), ref.kernel(name)
                assert k.matrix.tobytes() == k_ref.matrix.tobytes(), name
                assert k.mu.tobytes() == k_ref.mu.tobytes(), name
            joints.append(base.joint)
            h1s.append(h1)
            h2s.append(h2)
            refs.append(ref)
    stack = FiniteJointModel(np.stack(joints), h1_slices=np.stack(h1s), h2_slices=np.stack(h2s))
    for name in OPERATORS:
        k = stack.kernel(name)
        assert k.matrix.tobytes() == np.stack([r.kernel(name).matrix for r in refs]).tobytes()
        assert k.mu.tobytes() == np.stack([r.kernel(name).mu for r in refs]).tobytes()


def test_scan_takes_one_refresh_of_each_block():
    m = random_joint_model(2, 3, 3)
    for first, second in (("G1", "H1"), ("H2", "G2"), ("I1", "G1"), ("I2", "I2")):
        with pytest.raises(DomainError, match="one refresh of each block"):
            m.scan(first, second)


def test_kernel_names_its_operators():
    m = random_joint_model(2, 3, 3)
    for name in ("Q", "I1", "G2G1"):
        with pytest.raises(DomainError, match=", ".join(OPERATORS)):
            m.kernel(name)


def _decay_case(lead, trials, nx=4, ny=3):
    """A P12 kernel and centered functions (..., n, t), C order, on ``lead``
    models (one model for lead == ())."""
    k = random_joint_model(list(range(3, 3 + lead[0])) if lead else 3, nx, ny).kernel("P12")
    F = np.empty(k.mu.shape + (trials,))
    for i in np.ndindex(lead):
        F[i] = random_centered_functions(k.mu[i], trials, 11 + sum(i)).T
    return k, F


def _ref_decay(k, F, n_max):
    """``_ref_l2_decay_exact`` one model at a time."""
    out = np.empty(F.shape[:-2] + (n_max + 1, F.shape[-1]))
    for i in np.ndindex(F.shape[:-2]):
        out[i] = _ref_l2_decay_exact(FiniteKernel(k.matrix[i], k.mu[i]), F[i], n_max)
    return out


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("trials", [1, 3])
def test_blocked_decay_matches_row_reference(lead, trials):
    """The decay is the row-at-a-time sequence byte for byte, from one
    model and from a stack, at n_max = 0, 1, 2 and 200."""
    k, F = _decay_case(lead, trials)
    for n_max in (0, 1, 2, 200):
        assert l2_decay_exact(k, F, n_max).tobytes() == _ref_decay(k, F, n_max).tobytes(), n_max


def test_decay_matches_row_reference_at_verify_size():
    """A stack the size of a 3x3 `verify` of 50 models at its default 20
    trials and n_max 200 gives the row-at-a-time sequence byte for byte."""
    k, F = _decay_case((50,), 20, 3, 3)
    assert l2_decay_exact(k, F, 200).tobytes() == _ref_decay(k, F, 200).tobytes()


# sizes where a transposed view once moved the last bits of the forms
@pytest.mark.parametrize("nx,ny,trials", [(4, 4, 3), (6, 7, 16), (8, 8, 5)])
@pytest.mark.parametrize("seeds", [4, [4, 5, 6]], ids=["one", "stack"])
def test_results_do_not_depend_on_memory_order(nx, ny, trials, seeds):
    """A transposed view of the trial functions and its C-order copy give
    the same bytes, from one model and from a stack."""
    m = random_joint_model(seeds, nx, ny)
    lead = m.mu.shape[:-1]
    draws = np.stack([random_centered_functions(m.mu[i], trials, 9 + sum(i))
                      for i in np.ndindex(lead)]).reshape(lead + (trials, -1))
    view = np.swapaxes(draws, -1, -2)
    assert not view.flags.c_contiguous
    copy = view.copy()
    kP, kP12 = m.kernel("P"), m.kernel("P12")
    kG2, kH1 = m.kernel("G2"), m.kernel("H1")
    for k in (kP12, (kP12, kP12), (finite.adjoint(kP), kP), (kG2, kH1, kH1, kG2)):
        assert dirichlet_form(k, view).tobytes() == dirichlet_form(k, copy).tobytes()
    assert l2_decay_exact(kP12, view, 40).tobytes() == l2_decay_exact(kP12, copy, 40).tobytes()


def _ref_centered_functions(mu, count, seed):
    """``random_centered_functions`` as first written: one row at a time."""
    F = np.random.default_rng(seed).normal(size=(count, len(mu)))
    for f in F:
        f -= float(mu @ f)
    return F


@pytest.mark.parametrize("n,count", [(2, 1), (4, 20), (9, 7), (15, 3), (64, 20), (256, 2)])
def test_centring_matches_the_row_loop(n, count):
    for seed in range(8):
        mu = np.random.default_rng(100 + seed).dirichlet(np.ones(n))
        assert np.array_equal(random_centered_functions(mu, count, seed),
                              _ref_centered_functions(mu, count, seed))


GRID = [("G1", "H1"), ("G2", "H2")]  # the slots of refresh1 and of refresh2


@pytest.mark.parametrize("seeds,nx,ny", [([1, 2, 3, 4, 5], 3, 3), ([6, 7, 8, 9], 3, 5),
                                         (10, 16, 16)])
def test_grid_forms_are_the_per_pair_calls(seeds, nx, ny):
    """Every Dirichlet form of verify_identities, taken once over the 2 x 2
    grid of the refresh stacks, equals its per-pair and per-refresh calls
    bit for bit."""
    m = random_joint_model(seeds, nx, ny)
    lead, trials = m.mu.shape[:-1], 5
    F = np.empty(m.mu.shape + (trials,))
    for i in np.ndindex(lead):
        F[i] = random_centered_functions(m.mu[i], trials, 3 + sum(i)).T
    grid_mu = m.mu[..., None, None, :]
    k1, k2 = FiniteKernel(m.refresh1, grid_mu), FiniteKernel(m.refresh2, grid_mu)
    Fg = F[..., None, None, :, :]
    T2F = k2.matrix @ Fg
    TF = k1.matrix @ T2F
    grid = {"TF": TF,
            "lhs": dirichlet_form((k2, k1, k1, k2), Fg),
            "T2 T2": dirichlet_form((k2, k2), Fg),
            "T1 T1": dirichlet_form((k1, k1), T2F),
            "T": dirichlet_form((k1, k2), Fg),
            "T T*": dirichlet_form((k1, k2, k2, k1), TF)}
    for a, name1 in enumerate(GRID[0]):
        for b, name2 in enumerate(GRID[1]):
            t1, t2 = m.kernel(name1), m.kernel(name2)
            t2F = t2.matrix @ F
            tF = t1.matrix @ t2F
            pair = {"TF": tF,
                    "lhs": dirichlet_form((t2, t1, t1, t2), F),
                    "T2 T2": dirichlet_form((t2, t2), F),
                    "T1 T1": dirichlet_form((t1, t1), t2F),
                    "T": dirichlet_form((t1, t2), F),
                    "T T*": dirichlet_form((t1, t2, t2, t1), tF)}
            for key, value in pair.items():
                cells = np.broadcast_to(grid[key], lead + (2, 2) + value.shape[len(lead):])
                assert np.array_equal(cells[(slice(None),) * len(lead) + (a, b)], value), (
                    key, name1, name2)
    # the positive-part forms, one call per stack
    for k, slots, names in ((k1, ((0, 0), (1, 0)), GRID[0]), (k2, ((0, 0), (0, 1)), GRID[1])):
        one, two = dirichlet_form(k, Fg), dirichlet_form((k, k), Fg)
        for (a, b), name in zip(slots, names):
            t = m.kernel(name)
            assert np.array_equal(one[..., a, b, :], dirichlet_form(t, F)), name
            assert np.array_equal(two[..., a, b, :], dirichlet_form((t, t), F)), name
