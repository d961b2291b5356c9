"""The stacked finite oracle against the per-model oracle it replaced.

The reference below is that oracle as it was first written: each model
built, checked and reported on its own, one kernel, one slice and one
matrix product at a time.  ``verify`` checks a stack of models in one pass
and must give every model the same residuals, gaps, P12 and report text,
bit for bit.
"""
import numpy as np
import pytest

from wpgibbs import cli, finite
from wpgibbs.cli import main
from wpgibbs.finite import FiniteJointModel, Report, random_centered_functions
from wpgibbs.kstar import Linear, compose_mwg
from wpgibbs.rates import RateBound


class _Kern:
    def __init__(self, matrix, mu):
        self.matrix, self.mu = matrix, mu


def _ref_dirichlet_form(k, f):
    factors = k if isinstance(k, tuple) else (k,)
    mu = factors[0].mu
    f = np.asarray(f, dtype=float)
    F = f[:, None] if f.ndim == 1 else f
    TF = np.column_stack((F, np.ones(mu.size)))
    for t in reversed(factors):
        TF = t.matrix @ TF
    TF, rows = TF[:, :-1], TF[:, -1]
    mu_T = mu
    for t in factors:
        mu_T = mu_T @ t.matrix
    inner = mu @ ((F - TF) * F)
    double = 0.5 * ((mu * rows + mu_T) @ F ** 2) - mu @ (F * TF)
    assert not np.any(np.abs(inner - double) > 1e-10 * np.maximum(1.0, np.abs(inner)))
    out = np.maximum(inner, 0.0)
    return float(out[0]) if f.ndim == 1 else out


def _ref_adjoint(k):
    return _Kern((k.mu[:, None] * k.matrix).T / k.mu[:, None], k.mu)


def _ref_spectral_gap(k):
    root = np.sqrt(k.mu)
    S = root[:, None] * k.matrix / root[None, :]
    vals = np.linalg.eigvalsh(0.5 * (S + S.T))
    return float(1.0 - np.sort(vals)[-2])


def _ref_lazy_rwm_kernel(pi):
    m = len(pi)
    M = np.zeros((m, m))
    i = np.arange(m - 1)
    M[i, i + 1] = 0.5 * np.minimum(1.0, pi[1:] / pi[:-1])
    M[i + 1, i] = 0.5 * np.minimum(1.0, pi[:-1] / pi[1:])
    np.fill_diagonal(M, 1.0 - M.sum(axis=1))
    return 0.5 * np.eye(m) + 0.5 * M


class _RefModel:
    def __init__(self, joint, h1_slices=None, h2_slices=None):
        Pi = np.asarray(joint, dtype=float)
        Pi = Pi / Pi.sum()
        self.joint = Pi
        self.nx, self.ny = Pi.shape
        self.mu = Pi.reshape(-1)
        self.marg_x = Pi.sum(axis=1)
        self.marg_y = Pi.sum(axis=0)
        self.cond_y_given_x = Pi / self.marg_x[:, None]
        self.cond_x_given_y = (Pi / self.marg_y[None, :]).T
        if h1_slices is None:
            h1_slices = [_ref_lazy_rwm_kernel(self.cond_y_given_x[x]) for x in range(self.nx)]
        if h2_slices is None:
            h2_slices = [_ref_lazy_rwm_kernel(self.cond_x_given_y[y]) for y in range(self.ny)]
        self.h1_slices = [np.asarray(h, dtype=float) for h in h1_slices]
        self.h2_slices = [np.asarray(h, dtype=float) for h in h2_slices]
        nx, ny = self.nx, self.ny
        n = nx * ny
        G1, G2, H1, H2 = (np.zeros((n, n)) for _ in range(4))
        ax, ay = np.arange(nx), np.arange(ny)
        G1.reshape(nx, ny, nx, ny)[ax, :, ax, :] = self.cond_y_given_x[:, None, :]
        H1.reshape(nx, ny, nx, ny)[ax, :, ax, :] = np.stack(self.h1_slices)
        G2.reshape(nx, ny, nx, ny)[:, ay, :, ay] = self.cond_x_given_y[:, None, :]
        H2.reshape(nx, ny, nx, ny)[:, ay, :, ay] = np.stack(self.h2_slices)
        self.G1, self.G2, self.H1, self.H2 = G1, G2, H1, H2
        self.P = G1 @ G2
        self.P12 = H1 @ H2
        self.P_X = self.cond_y_given_x @ self.cond_x_given_y

    def kernel(self, name):
        if name == "P_X":
            return _Kern(self.P_X, self.marg_x)
        return _Kern(getattr(self, name), self.mu)

    def component_gaps(self):
        g0 = _ref_spectral_gap(self.kernel("P_X"))
        g1 = min(_ref_spectral_gap(_Kern(h, self.cond_y_given_x[x]))
                 for x, h in enumerate(self.h1_slices))
        g2 = min(_ref_spectral_gap(_Kern(h, self.cond_x_given_y[y]))
                 for y, h in enumerate(self.h2_slices))
        return g0, g1, g2


def _ref_random_joint_model(seed, nx, ny):
    rng = np.random.default_rng(seed)
    Pi = rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny)
    Pi = np.maximum(Pi, finite.PMF_FLOOR)
    return _RefModel(Pi / Pi.sum())


def _ref_blockwise_psd_min_eig(T4, w):
    ia = np.arange(T4.shape[0])
    blocks = T4[ia, :, ia, :]
    if np.count_nonzero(blocks) != np.count_nonzero(T4):
        return -np.inf
    root = np.sqrt(w)
    S = root[:, :, None] * blocks / root[:, None, :]
    return float(np.linalg.eigvalsh(0.5 * (S + np.swapaxes(S, 1, 2))).min())


def _ref_verify_identities(m, trials=20, tol=1e-10, seed=0):
    rep = Report()
    mu = m.mu
    k = {name: m.kernel(name) for name in ("G1", "G2", "H1", "H2", "P", "P12")}
    kP = k["P"]
    kP_star = _ref_adjoint(kP)
    rep.add("G1 idempotent", np.max(np.abs(m.G1 @ m.G1 - m.G1)), 1e-12, seed)
    rep.add("G2 idempotent", np.max(np.abs(m.G2 @ m.G2 - m.G2)), 1e-12, seed)
    rep.add("P adjoint is G2 G1", np.max(np.abs(kP_star.matrix - m.G2 @ m.G1)), 1e-12, seed)
    rep.add("adjoint involution",
            np.max(np.abs(_ref_adjoint(kP_star).matrix - kP.matrix)), 1e-12, seed)
    chains = {"P1": ("H1", "G2"), "P2": ("G1", "H2")}
    for name in ("G1", "G2", "H1", "H2", "P", "P1", "P2", "P12"):
        mu_T = mu
        for factor in chains.get(name, (name,)):
            mu_T = mu_T @ k[factor].matrix
        rep.add(f"stationarity of {name}", np.max(np.abs(mu_T - mu)), tol, seed)
    nx, ny = m.nx, m.ny
    w = mu.reshape(nx, ny)
    lam1 = _ref_blockwise_psd_min_eig(m.H1.reshape(nx, ny, nx, ny), w)
    lam2 = _ref_blockwise_psd_min_eig(m.H2.reshape(nx, ny, nx, ny).transpose(1, 0, 3, 2), w.T)
    rep.add("positivity of H1", max(0.0, -lam1), 1e-10, seed)
    rep.add("positivity of H2", max(0.0, -lam2), 1e-10, seed)

    F = random_centered_functions(mu, trials, seed).T.copy()  # C order, as verify_identities keeps it
    osc_F = np.ptp(F, axis=0)
    worst = {key: 0.0 for key in (
        "decomposition", "doubling", "positive-part", "adjoint-comparison",
        "marginal equality", "marginal lift", "oscillation contraction")}

    def bump(key, vals):
        worst[key] = max(worst[key], float(np.max(vals)))

    E = _ref_dirichlet_form
    for T1, T2 in ((k["G1"], k["G2"]), (k["H1"], k["G2"]), (k["G1"], k["H2"]), (k["H1"], k["H2"])):
        T2F = T2.matrix @ F
        TF = T1.matrix @ T2F
        lhs = E((T2, T1, T1, T2), F)
        rhs = E((T2, T2), F) + E((T1, T1), T2F)
        bump("decomposition", np.abs(lhs - rhs))
        bump("doubling", lhs - 2.0 * E((T1, T2), F))
        bump("adjoint-comparison", E((T1, T2, T2, T1), TF) - lhs)
        bump("oscillation contraction", np.ptp(TF, axis=0) - osc_F)
    for name in ("G1", "G2", "H1", "H2"):
        bump("positive-part", E(k[name], F) - E((k[name], k[name]), F))
    g = F[::ny]
    g = g - m.marg_x @ g
    kPX = m.kernel("P_X")
    lhs = E((kP_star, kP), np.repeat(g, ny, axis=0))
    rhs = E((_ref_adjoint(kPX), kPX), g)
    bump("marginal equality", np.abs(lhs - rhs))
    pf = kP.matrix @ F
    fiber = pf.reshape(nx, ny, -1)
    bump("marginal lift", np.abs(fiber - fiber[:, :1]))
    bump("marginal lift", np.abs(np.repeat(m.P_X @ fiber[:, 0], ny, axis=0) - kP.matrix @ pf))
    for key, val in worst.items():
        rep.add(key, val, tol if key != "marginal lift" else 1e-12, seed)
    return rep


def _ref_l2_decay_exact(k, f, n_max):
    out = np.empty((n_max + 1,) + f.shape[1:])
    g = f.copy()
    for n in range(n_max + 1):
        out[n] = k.mu @ g ** 2
        g = k.matrix @ g
    return out


def _ref_verify_bound_domination(m, f_set, n_max=200, slack=1e-9, mode="full"):
    g0, g1, g2 = m.component_gaps()
    bounds = RateBound(compose_mwg(Linear(g0), Linear(g1), Linear(g2), mode=mode)).curve(
        range(n_max + 1))
    rep = Report()
    F = np.array(f_set, dtype=float).reshape(len(f_set), m.mu.size).T
    F = F - m.mu @ F
    osc_sq = np.ptp(F, axis=0) ** 2
    keep = osc_sq > 0.0
    worst = -np.inf
    if np.any(keep):
        decay = _ref_l2_decay_exact(m.kernel("P12"), F[:, keep], n_max)
        worst = float(np.max(decay / osc_sq[keep] - bounds[:, None]))
    rep.add(f"bound domination ({mode})", worst, slack)
    return rep


def _ref_verify(models, trials, nx, ny, n_max, seed):
    """The per-model ``verify`` loop: its models and the text of its report."""
    rng = np.random.default_rng(seed)
    runs, lines, worst, all_pass = [], [], 0.0, True
    for i in range(models):
        s = int(rng.integers(0, 2 ** 31))
        m = _ref_random_joint_model(s, nx, ny)
        rep = _ref_verify_identities(m, trials=trials, seed=s)
        rep2 = _ref_verify_bound_domination(
            m, random_centered_functions(m.mu, trials, s + 1), n_max=n_max)
        runs.append((m, rep, rep2))
        for r in (rep, rep2):
            all_pass &= r.passed
            worst = max(worst, r.worst_residual)
            lines.append(f"model {i} (seed {s}):\n{r.to_text()}")
    text = ("\n".join(lines) + f"\nmodels={models} trials={trials} states={nx}x{ny}"
            f" worst_residual={worst:.3e}\nOVERALL {'PASS' if all_pass else 'FAIL'}\n")
    return runs, text


def _bits(report):
    return [(c.name, c.tol, c.seed, float(c.worst_residual).hex()) for c in report.checks]


def _spy(monkeypatch, name, calls):
    real = getattr(finite, name)

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args[0], result))
        return result

    monkeypatch.setattr(finite, name, spy)


# (states, models, trials, n-max, seed); 8x8 stacks 16 models, 16x16 one,
# so the last two runs span two and three stacks
RUNS = [
    (states, models, trials, n_max, seed)
    for states, models, trials, n_max in (
        ("2x2", 6, 20, 200), ("3x3", 5, 20, 200), ("3x5", 4, 7, 60), ("5x3", 3, 1, 40),
        ("4x4", 5, 20, 200), ("8x8", 2, 20, 200))
    for seed in (0, 3, 11)
] + [("8x8", 18, 3, 30, 0), ("16x16", 3, 2, 20, 0)]


@pytest.mark.parametrize("states,models,trials,n_max,seed", RUNS)
def test_verify_matches_per_model_reference(tmp_path, monkeypatch, states, models, trials,
                                            n_max, seed):
    nx, ny = map(int, states.split("x"))
    ident, dom = [], []
    _spy(monkeypatch, "verify_identities", ident)
    _spy(monkeypatch, "verify_bound_domination", dom)
    argv = ["verify", "--models", str(models), "--trials", str(trials), "--states", states,
            "--n-max", str(n_max), "--seed", str(seed), "--verbose", "--out", str(tmp_path)]
    assert main(argv) == 0
    runs, text = _ref_verify(models, trials, nx, ny, n_max, seed)
    assert (tmp_path / "verify_report.txt").read_text() == text

    stack = max(1, finite.STACK_ENTRIES // (nx * ny) ** 2)
    assert [len(reps) for _, reps in ident] == [
        min(stack, models - start) for start in range(0, models, stack)]
    stacked = [(m, i, rep, rep2) for (m, reps), (_, reps2) in zip(ident, dom)
               for i, (rep, rep2) in enumerate(zip(reps, reps2))]
    assert len(stacked) == models
    for (m, i, rep, rep2), (ref_m, ref, ref2) in zip(stacked, runs):
        assert _bits(rep) == _bits(ref) and _bits(rep2) == _bits(ref2)
        assert m.P12[i].tobytes() == ref_m.P12.tobytes()
        gaps = [float(np.asarray(g)[i]) for g in m.component_gaps()]
        assert [g.hex() for g in gaps] == [g.hex() for g in ref_m.component_gaps()]


def _slice_cases(base):
    """Per model: exact conditional refreshes (every comparison an
    equality), plain Metropolis slices (not PSD), and the lazy default."""
    nx, ny = base.nx, base.ny
    exact = ([np.repeat(base.cond_y_given_x[x][None, :], ny, axis=0) for x in range(nx)],
             [np.repeat(base.cond_x_given_y[y][None, :], nx, axis=0) for y in range(ny)])
    plain = ([2.0 * _ref_lazy_rwm_kernel(c) - np.eye(ny) for c in base.cond_y_given_x],
             [2.0 * _ref_lazy_rwm_kernel(c) - np.eye(nx) for c in base.cond_x_given_y])
    lazy = ([_ref_lazy_rwm_kernel(c) for c in base.cond_y_given_x],
            [_ref_lazy_rwm_kernel(c) for c in base.cond_x_given_y])
    return exact, plain, lazy


@pytest.mark.parametrize("nx,ny", [(2, 3), (3, 4), (5, 5)])
def test_stacked_slices_match_reference(nx, ny):
    """A stack of models with given slices, some failing positivity,
    reports each model as the reference does alone."""
    bases = [_ref_random_joint_model(40 + j, nx, ny) for j in range(3)]
    joints, h1s, h2s, refs = [], [], [], []
    for base in bases:
        for h1, h2 in _slice_cases(base):
            joints.append(base.joint)
            h1s.append(h1)
            h2s.append(h2)
            refs.append(_RefModel(base.joint, h1_slices=h1, h2_slices=h2))
    m = FiniteJointModel(np.stack(joints), h1_slices=np.stack(h1s), h2_slices=np.stack(h2s))
    seeds = list(range(len(refs)))
    reps = finite.verify_identities(m, trials=4, seed=seeds)
    fs = [random_centered_functions(r.mu, 5, s) for r, s in zip(refs, seeds)]
    reps2 = finite.verify_bound_domination(m, fs, n_max=30)
    failing = set()
    for i, ref in enumerate(refs):
        ref_rep = _ref_verify_identities(ref, trials=4, seed=seeds[i])
        assert _bits(reps[i]) == _bits(ref_rep)
        assert reps[i].to_text() == ref_rep.to_text()
        assert _bits(reps2[i]) == _bits(_ref_verify_bound_domination(ref, fs[i], n_max=30))
        failing |= {c.name for c in reps[i].checks if not c.passed}
    # the plain Metropolis slices fail positivity, and the reports say so
    assert "positive-part" in failing and failing & {"positivity of H1", "positivity of H2"}


def test_one_model_is_the_stack_without_its_axis():
    m1 = finite.random_joint_model(17, 3, 4)
    stack = finite.random_joint_model([17], 3, 4)
    assert m1.P12.shape == (12, 12) and stack.P12.shape == (1, 12, 12)
    assert m1.P12.tobytes() == stack.P12.tobytes()
    rep = finite.verify_identities(m1, trials=3, seed=17)
    assert isinstance(rep, Report)
    assert _bits(rep) == _bits(finite.verify_identities(stack, trials=3, seed=[17])[0])
    gaps = m1.component_gaps()
    assert all(isinstance(g, float) for g in gaps)
    assert [g.hex() for g in gaps] == [float(g[0]).hex() for g in stack.component_gaps()]


def test_chunks_hold_at_most_the_entry_budget(tmp_path, monkeypatch):
    sizes = []
    real = finite.random_joint_model
    monkeypatch.setattr(finite, "random_joint_model",
                        lambda seed, nx, ny: sizes.append(len(seed)) or real(seed, nx, ny))
    assert main(["verify", "--models", "40", "--trials", "1", "--n-max", "2",
                 "--states", "8x8", "--out", str(tmp_path)]) == 0
    assert sizes == [16, 16, 8] and 16 * 64 ** 2 <= finite.STACK_ENTRIES
    assert cli.finite is finite
