import numpy as np
import pytest

from wpgibbs.errors import DomainError, InvalidModeError, InvalidSpecError, WpgibbsError
from wpgibbs.finite import (
    FiniteJointModel,
    FiniteKernel,
    Report,
    adjoint,
    dirichlet_form,
    l2_decay_exact,
    lazy_rwm_kernel,
    random_centered_functions,
    random_joint_model,
    spectral_gap,
    verify_bound_domination,
    verify_identities,
)


def _two_state(p=0.3, q=0.2):
    M = np.array([[1.0 - p, p], [q, 1.0 - q]])
    mu = np.array([q, p]) / (p + q)
    return FiniteKernel(matrix=M, mu=mu)


def test_two_state_closed_forms():
    p, q = 0.3, 0.2
    k = _two_state(p, q)
    assert spectral_gap(k) == pytest.approx(p + q)
    # f = indicator of state 0, centered; E(T, f) in closed form is
    # mu0 mu1 (p+q) |f(0)-f(1)|^2
    mu = k.mu
    f = np.array([1.0, 0.0]) - mu[0]
    assert dirichlet_form(k, f[:, None])[0] == pytest.approx(mu[0] * mu[1] * (p + q))
    # exact decay: ||P^n f||^2 = (1-p-q)^(2n) ||f||^2
    norm_sq = float(mu @ f ** 2)
    decay = l2_decay_exact(k, f[:, None], n_max=5)[:, 0]
    expect = [(1.0 - p - q) ** (2 * n) * norm_sq for n in range(6)]
    assert np.allclose(decay, expect, atol=1e-14)


def test_identity_and_rank_one_gaps():
    mu = np.array([0.25, 0.75])
    ident = FiniteKernel(matrix=np.eye(2), mu=mu)
    assert spectral_gap(ident) == pytest.approx(0.0, abs=1e-12)
    refresh = FiniteKernel(matrix=np.tile(mu, (2, 1)), mu=mu)
    assert spectral_gap(refresh) == pytest.approx(1.0)


def test_adjoint_rules():
    k = _two_state()
    adj = adjoint(k)
    assert np.allclose(adj.matrix, k.matrix)  # reversible chain is self-adjoint
    # doubly stochastic, non-reversible: adjoint is the transpose
    M = np.array([[0.1, 0.6, 0.3], [0.3, 0.1, 0.6], [0.6, 0.3, 0.1]])
    mu = np.full(3, 1.0 / 3.0)
    k3 = FiniteKernel(matrix=M, mu=mu)
    assert np.allclose(adjoint(k3).matrix, M.T)
    assert np.allclose(adjoint(adjoint(k3)).matrix, M)


def test_spectral_gap_requires_reversibility():
    M = np.array([[0.1, 0.6, 0.3], [0.3, 0.1, 0.6], [0.6, 0.3, 0.1]])
    k = FiniteKernel(matrix=M, mu=np.full(3, 1.0 / 3.0))
    with pytest.raises(InvalidModeError, match="reversible"):
        spectral_gap(k)


def test_spectral_gap_needs_two_states():
    with pytest.raises(DomainError, match="at least 2 states, got 1"):
        spectral_gap(FiniteKernel(matrix=[[1.0]], mu=[1.0]))


def test_kernel_validation():
    mu = np.array([0.5, 0.5])
    with pytest.raises(DomainError):
        FiniteKernel(matrix=np.array([[0.5, 0.4], [0.5, 0.5]]), mu=mu)
    with pytest.raises(DomainError):
        # valid rows but mu is not stationary
        FiniteKernel(matrix=np.array([[0.9, 0.1], [0.5, 0.5]]), mu=mu)


def test_uncentered_function_rejected():
    k = _two_state()
    with pytest.raises(DomainError):
        l2_decay_exact(k, np.array([[1.0], [0.0]]), n_max=3)


def test_lazy_rwm_kernel_properties():
    rng = np.random.default_rng(0)
    pi = rng.dirichlet(np.ones(6))
    k = FiniteKernel(matrix=lazy_rwm_kernel(pi), mu=pi)
    assert k.is_reversible()
    assert np.all(np.diag(k.matrix) >= 0.5 - 1e-12)
    # lazy mixing makes the kernel positive semidefinite
    root = np.sqrt(pi)
    S = root[:, None] * k.matrix / root[None, :]
    assert np.min(np.linalg.eigvalsh(0.5 * (S + S.T))) >= -1e-12


def test_random_joint_model_operators():
    m = random_joint_model(seed=3, nx=4, ny=5)
    P = m.kernel("P")
    assert np.allclose(P.matrix, m.kernel("G1").matrix @ m.kernel("G2").matrix)
    g0, g1, g2 = m.component_gaps()
    assert 0.0 <= g0 <= 1.0 + 1e-12
    assert 0.0 < g1 <= 1.0 + 1e-12
    assert 0.0 < g2 <= 1.0 + 1e-12


def _model(seed, nx, ny, exact=False):
    """A random model; ``exact`` uses the exact conditional refreshes as H1/H2
    (the degenerate case where every comparison collapses to equality)."""
    m = random_joint_model(seed, nx, ny)
    if not exact:
        return m
    h1 = [m.cond_y_given_x[x][None, :].repeat(ny, axis=0) for x in range(nx)]
    h2 = [m.cond_x_given_y[y][None, :].repeat(nx, axis=0) for y in range(ny)]
    return FiniteJointModel(m.joint, h1_slices=h1, h2_slices=h2)


def _dense_gap0(m):
    """The right gap of P*P, from the formed n x n product."""
    P = m.kernel("P")
    return spectral_gap(FiniteKernel(adjoint(P).matrix @ P.matrix, m.mu))


@pytest.mark.parametrize("nx,ny", [(2, 2), (3, 5), (5, 3), (4, 16), (16, 16)])
@pytest.mark.parametrize("exact", [False, True])
def test_exact_scan_gap_is_the_marginal_chain_gap(nx, ny, exact):
    for seed in range(3):
        m = _model(seed * 101 + nx * 17 + ny, nx, ny, exact)
        assert m.component_gaps()[0] == pytest.approx(_dense_gap0(m), rel=0, abs=1e-13)


def test_models_need_two_states_per_block():
    for shape in ((1, 4), (4, 1), (1, 1), (6,)):
        with pytest.raises(InvalidSpecError, match="at least 2x2"):
            FiniteJointModel(np.full(shape, 0.25))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_is_refused(bad):
    """A NaN or an infinity fails every entry check: none reaches numpy's
    linear algebra."""
    with pytest.raises(WpgibbsError):
        FiniteKernel([[bad, 0.5], [0.5, 0.5]], [0.5, 0.5])
    with pytest.raises(WpgibbsError):
        FiniteKernel([[0.5, 0.5], [0.5, 0.5]], [bad, 0.5])
    joint = np.full((3, 3), 1.0 / 9.0)
    joint[1, 2] = bad
    with pytest.raises(WpgibbsError, match="finite positive"):
        FiniteJointModel(joint)


def test_exact_slice_model_collapses():
    m = _model(seed=5, nx=3, ny=4, exact=True)
    assert np.allclose(m.kernel("P12").matrix, m.kernel("P").matrix, atol=1e-13)


def test_verify_identities_random_models():
    for seed in range(4):
        m = random_joint_model(seed=seed, nx=3, ny=4)
        report = verify_identities(m, trials=5, seed=seed)
        assert report.passed, report.to_text()
        assert report.worst_residual <= 1e-10


def test_verify_bound_domination():
    m = random_joint_model(seed=11, nx=3, ny=3)
    fs = random_centered_functions(m.mu, count=10, seed=1)
    result = verify_bound_domination(m, fs, n_max=50)
    assert result.passed, result.to_text()


@pytest.mark.parametrize("mode", ["joint_2mg", "marginal_2mg"])
def test_domination_refuses_the_two_stage_modes(mode):
    """The two-stage modes bound scan("G1", "H2"), not the P12 this check
    measures, where they fail: they are refused, and the other two run."""
    m = random_joint_model(seed=11, nx=3, ny=3)
    fs = random_centered_functions(m.mu, count=4, seed=1)
    with pytest.raises(InvalidModeError, match=r"scan\('G1', 'H2'\).*item 17"):
        verify_bound_domination(m, fs, n_max=20, mode=mode)
    for other in ("full", "strong"):
        assert verify_bound_domination(m, fs, n_max=20, mode=other).passed


def test_tensor_product_gap():
    pa = np.random.default_rng(1).dirichlet(np.ones(4))
    pb = np.random.default_rng(2).dirichlet(np.ones(5))
    a = FiniteKernel(matrix=lazy_rwm_kernel(pa), mu=pa)
    b = FiniteKernel(matrix=lazy_rwm_kernel(pb), mu=pb)
    prod = FiniteKernel(np.kron(a.matrix, b.matrix), np.kron(a.mu, b.mu))  # H1 (x) H2
    ga, gb, gp = spectral_gap(a), spectral_gap(b), spectral_gap(prod)
    assert gp == pytest.approx(min(ga, gb), abs=1e-10)


# -- the entry-by-entry model build, kept as the reference for the array build


def _loop_lazy_rwm_kernel(pi):
    m = len(pi)
    M = np.zeros((m, m))
    for i in range(m):
        for j in (i - 1, i + 1):
            if 0 <= j < m:
                M[i, j] = 0.5 * min(1.0, pi[j] / pi[i])
        M[i, i] = 1.0 - M[i].sum()
    return 0.5 * np.eye(m) + 0.5 * M


def _loop_operators(m, exact):
    nx, ny = m.nx, m.ny
    if exact:
        h1 = [m.cond_y_given_x[x][None, :].repeat(ny, axis=0) for x in range(nx)]
        h2 = [m.cond_x_given_y[y][None, :].repeat(nx, axis=0) for y in range(ny)]
    else:
        h1 = [_loop_lazy_rwm_kernel(m.cond_y_given_x[x]) for x in range(nx)]
        h2 = [_loop_lazy_rwm_kernel(m.cond_x_given_y[y]) for y in range(ny)]
    n = nx * ny
    G1, G2, H1, H2 = (np.zeros((n, n)) for _ in range(4))
    for x in range(nx):
        for y in range(ny):
            i = x * ny + y
            G1[i, x * ny : (x + 1) * ny] = m.cond_y_given_x[x]
            H1[i, x * ny : (x + 1) * ny] = h1[x][y]
            for xp in range(nx):
                G2[i, xp * ny + y] = m.cond_x_given_y[y, xp]
                H2[i, xp * ny + y] = h2[y][x, xp]
    return {"G1": G1, "G2": G2, "H1": H1, "H2": H2, "P12": H1 @ H2}


@pytest.mark.parametrize("nx,ny", [(3, 3), (3, 5), (5, 3), (16, 16)])
@pytest.mark.parametrize("exact", [False, True])
def test_model_build_matches_loop_reference(nx, ny, exact):
    m = _model(seed=nx * 31 + ny, nx=nx, ny=ny, exact=exact)
    for name, ref in _loop_operators(m, exact).items():
        assert np.array_equal(m.kernel(name).matrix, ref), name


def _batch_case():
    m = random_joint_model(seed=8, nx=4, ny=5)
    F = random_centered_functions(m.mu, count=6, seed=2).T
    return m.kernel("P12"), F


def test_batched_forms_match_column_calls():
    k, F = _batch_case()
    cols = np.array([dirichlet_form(k, F[:, j:j + 1])[0] for j in range(F.shape[1])])
    batched = dirichlet_form(k, F)
    assert batched.shape == (F.shape[1],)
    assert np.allclose(batched, cols, rtol=1e-12, atol=1e-15)
    decay = l2_decay_exact(k, F, n_max=30)
    assert decay.shape == (31, F.shape[1])
    for j in range(F.shape[1]):
        assert np.allclose(decay[:, j], l2_decay_exact(k, F[:, j:j + 1], 30)[:, 0],
                           rtol=1e-12, atol=1e-15)


def test_functions_are_columns_only():
    """A one-dimensional f is refused: one function is one column."""
    k, F = _batch_case()
    with pytest.raises(DomainError, match="f takes columns"):
        dirichlet_form(k, F[:, 0])
    with pytest.raises(DomainError, match="f takes columns"):
        l2_decay_exact(k, F[:, 0], 3)
    with pytest.raises(DomainError, match="f takes columns"):
        l2_decay_exact(k, F[:-1], 3)


def test_corrupted_kernel_fails_cross_check():
    k, F = _batch_case()
    k.matrix[0, 0] += 0.1  # no longer stochastic nor stationary
    with pytest.raises(DomainError, match="cross-check"):
        dirichlet_form(k, F[:, :1])
    with pytest.raises(DomainError, match="cross-check"):
        dirichlet_form(k, F)
    with pytest.raises(DomainError, match="dimension"):
        dirichlet_form(k, F[:, :, None])


# -- the dense-product identity checks, kept as the reference for the
# -- factor-chain forms and the blockwise positivity check


def _dense_psd_min_eig(T, mu):
    root = np.sqrt(mu)
    S = root[:, None] * T / root[None, :]
    return float(np.linalg.eigvalsh(0.5 * (S + S.T))[0])


def _dense_identities(m, trials=20, tol=1e-10, seed=0):
    rep = Report()
    mu = m.mu
    kP = m.kernel("P")

    def E(T, f):
        return dirichlet_form(FiniteKernel(T, mu), f)

    rep.add("G1 idempotent", np.max(np.abs(m.G1 @ m.G1 - m.G1)), 1e-12, seed)
    rep.add("G2 idempotent", np.max(np.abs(m.G2 @ m.G2 - m.G2)), 1e-12, seed)
    rep.add("P adjoint is G2 G1", np.max(np.abs(adjoint(kP).matrix - m.G2 @ m.G1)),
            1e-12, seed)
    rep.add("adjoint involution",
            np.max(np.abs(adjoint(adjoint(kP)).matrix - kP.matrix)), 1e-12, seed)
    scans = {"P1": m.H1 @ m.G2, "P2": m.G1 @ m.H2}
    for name in ("G1", "G2", "H1", "H2", "P", "P1", "P2", "P12"):
        T = scans[name] if name in scans else m.kernel(name).matrix
        rep.add(f"stationarity of {name}", np.max(np.abs(mu @ T - mu)), tol, seed)
    for name in ("H1", "H2"):
        lam = _dense_psd_min_eig(m.kernel(name).matrix, mu)
        rep.add(f"positivity of {name}", max(0.0, -lam), 1e-10, seed)

    pairs = ((m.G1, m.G2), (m.H1, m.G2), (m.G1, m.H2), (m.H1, m.H2))
    F = random_centered_functions(mu, trials, seed).T.copy()  # C order, as verify_identities keeps it
    osc_F = np.ptp(F, axis=0)
    worst = {key: 0.0 for key in (
        "decomposition", "doubling", "positive-part", "adjoint-comparison",
        "marginal equality", "marginal lift", "oscillation contraction")}

    def bump(key, vals):
        worst[key] = max(worst[key], float(np.max(vals)))

    for T1, T2 in pairs:
        T = T1 @ T2
        Ts = T2 @ T1
        TF = T @ F
        lhs = E(Ts @ T, F)
        rhs = E(T2 @ T2, F) + E(T1 @ T1, T2 @ F)
        bump("decomposition", np.abs(lhs - rhs))
        bump("doubling", lhs - 2.0 * E(T, F))
        bump("adjoint-comparison", E(T @ Ts, TF) - lhs)
        bump("oscillation contraction", np.ptp(TF, axis=0) - osc_F)
    for name in ("G1", "G2", "H1", "H2"):
        k = m.kernel(name)
        bump("positive-part", dirichlet_form(k, F) - E(k.matrix @ k.matrix, F))
    g = F[::m.ny]
    g = g - m.marg_x @ g
    kPX = m.kernel("P_X")
    lhs = E(adjoint(kP).matrix @ kP.matrix, np.repeat(g, m.ny, axis=0))
    rhs = dirichlet_form(FiniteKernel(adjoint(kPX).matrix @ kPX.matrix, m.marg_x), g)
    bump("marginal equality", np.abs(lhs - rhs))
    pf = kP.matrix @ F
    fiber = pf.reshape(m.nx, m.ny, -1)
    bump("marginal lift", np.abs(fiber - fiber[:, :1]))
    bump("marginal lift", np.abs(np.repeat(m.P_X @ fiber[:, 0], m.ny, axis=0)
                                 - kP.matrix @ pf))
    for key, val in worst.items():
        rep.add(key, val, tol if key != "marginal lift" else 1e-12, seed)
    return rep


def _assert_same_report(report, ref):
    assert [(c.name, c.tol, c.seed) for c in report.checks] == [
        (c.name, c.tol, c.seed) for c in ref.checks]
    for c, r in zip(report.checks, ref.checks):
        assert c.worst_residual == pytest.approx(r.worst_residual, rel=0, abs=1e-13), c.name
        assert c.passed == r.passed, c.name


@pytest.mark.parametrize("nx,ny", [(3, 3), (3, 5), (5, 3), (16, 16)])
@pytest.mark.parametrize("exact", [False, True])
def test_identities_match_dense_reference(nx, ny, exact):
    m = _model(seed=nx * 7 + ny, nx=nx, ny=ny, exact=exact)
    _assert_same_report(verify_identities(m, seed=nx), _dense_identities(m, seed=nx))


def _chain_case():
    m = random_joint_model(seed=4, nx=3, ny=5)
    F = random_centered_functions(m.mu, count=4, seed=9).T
    P1 = FiniteKernel(m.H1 @ m.G2, m.mu)
    chain = tuple(m.kernel(n) for n in ("P", "H1", "G2", "H2")) + (P1,)
    return m, chain, F  # P and P1 are not self-adjoint


def test_product_forms_match_the_formed_product():
    m, chain, F = _chain_case()
    for end in range(1, len(chain) + 1):
        T = chain[0].matrix
        for t in chain[1:end]:
            T = T @ t.matrix
        whole = FiniteKernel(T, m.mu)
        assert dirichlet_form(chain[:end], F[:, :1])[0] == pytest.approx(
            dirichlet_form(whole, F[:, :1])[0], rel=1e-12, abs=1e-15)
        assert np.allclose(dirichlet_form(chain[:end], F), dirichlet_form(whole, F),
                           rtol=1e-12, atol=1e-15)


def test_corrupted_factor_fails_cross_check():
    m, chain, F = _chain_case()
    chain[1].matrix[0, 0] += 0.1  # a factor no longer stochastic nor stationary
    with pytest.raises(DomainError, match="cross-check"):
        dirichlet_form(chain, F)
    with pytest.raises(DomainError, match="cross-check"):
        dirichlet_form(chain, F[:, :1])


def test_product_factors_need_one_mu():
    m, chain, F = _chain_case()
    other = random_joint_model(seed=5, nx=3, ny=5).kernel("G1")
    with pytest.raises(DomainError, match="one stationary vector"):
        dirichlet_form(chain + (other,), F)


def _failing(report):
    return [c.name for c in report.checks if not c.passed]


@pytest.mark.parametrize("block", ["H1", "H2"])
def test_non_psd_slices_fail_positivity(block):
    # 2 L - I of a lazy kernel L is the plain Metropolis kernel: stochastic
    # and reversible, but not positive semidefinite
    base = random_joint_model(seed=3, nx=3, ny=4)
    if block == "H1":
        slices = {"h1_slices": [2.0 * lazy_rwm_kernel(c) - np.eye(4) for c in base.cond_y_given_x]}
    else:
        slices = {"h2_slices": [2.0 * lazy_rwm_kernel(c) - np.eye(3) for c in base.cond_x_given_y]}
    m = FiniteJointModel(base.joint, **slices)
    report = verify_identities(m, seed=3)
    assert _failing(report) == [f"positivity of {block}", "positive-part"]
    assert _failing(report) == _failing(_dense_identities(m, seed=3))


def test_mass_off_the_slice_blocks_fails_positivity():
    m = random_joint_model(seed=6, nx=3, ny=4)
    mu, ny = m.mu, m.ny
    i, j = 0, ny  # states (0, 0) and (1, 0): different x blocks of H1
    flow = 0.01 * min(mu[i] * m.H1[i, i], mu[j] * m.H1[j, j])
    for a, b in ((i, j), (j, i)):  # a mu-reversible swap: still stochastic and stationary
        m.H1[a, a] -= flow / mu[a]
        m.H1[a, b] += flow / mu[a]
    report = verify_identities(m, trials=5, seed=6)
    assert _failing(report) == ["positivity of H1"]
    assert report.checks[[c.name for c in report.checks].index("positivity of H1")
                         ].worst_residual == np.inf
