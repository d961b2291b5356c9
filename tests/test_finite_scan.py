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
@pytest.mark.parametrize("per_block", [1, 3])
def test_blocked_decay_matches_row_reference(monkeypatch, lead, per_block):
    """With room for 1 or 3 values of n a block, the decay is the
    row-at-a-time sequence byte for byte, for a block that ends before,
    at and after n_max."""
    k, F = _decay_case(lead, 5)
    monkeypatch.setattr(finite, "_DECAY_ENTRIES", per_block * F.size + F.size - 1)
    for n_max in sorted({0, 1, per_block - 1, per_block, per_block + 1, 200}):
        ref = _ref_decay(k, F, n_max)
        assert l2_decay_exact(k, F, n_max).tobytes() == ref.tobytes(), n_max
        one = _ref_decay(k, F[..., :1], n_max)
        assert l2_decay_exact(k, F[..., :1], n_max).tobytes() == one.tobytes(), n_max


# (models, trials, n_max, values of n a block holds) on 16x16 models at
# 2^14 entries a block: 256 * 20 values of T^n F a step fit 3 times, and
# 16 models of them not once
@pytest.mark.parametrize("lead,trials,n_max,most", [
    ((), 20, 200, 3), ((), 2, 200, 32), ((), 2, 20, 21), ((16,), 20, 30, 1)])
def test_decay_block_holds_at_most_its_entries(monkeypatch, lead, trials, n_max, most):
    """Every block squared and projected holds at most ``_DECAY_ENTRIES``
    entries, and the blocks cover each n once; a block is one n when one n
    alone holds more."""
    assert finite._DECAY_ENTRIES == 2 ** 14
    k, F = _decay_case(lead, trials, 16, 16)
    blocks = []
    square = np.square

    def spy(x, *args, **kwargs):
        blocks.append(x.shape[-3])
        assert x.size <= max(finite._DECAY_ENTRIES, F.size)
        return square(x, *args, **kwargs)

    monkeypatch.setattr(np, "square", spy)
    l2_decay_exact(k, F, n_max)
    assert sum(blocks) == n_max + 1 and max(blocks) == min(most, n_max + 1)


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
