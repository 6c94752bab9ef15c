import numpy as np
import pytest

import distkf
from distkf import _kernels, numerics
from distkf.decomposition import psd_factor


def random_spectrum(rng, n, allow_unstable=True):
    """Real-matrix spectrum: real values and conjugate pairs, moduli
    bounded away from the unit circle on both sides."""
    eigs = []
    while len(eigs) < n:
        if n - len(eigs) >= 2 and rng.random() < 0.35:
            r = rng.uniform(0.15, 1.25 if allow_unstable else 0.9)
            if 0.95 < r < 1.05:
                r = 0.9
            th = rng.uniform(0.2, np.pi - 0.2)
            eigs += [r * np.exp(1j * th), r * np.exp(-1j * th)]
        else:
            lam = rng.uniform(-1.25 if allow_unstable else -0.9, 1.25 if allow_unstable else 0.9)
            if 0.95 < abs(lam) < 1.05:
                lam = np.sign(lam) * 0.9
            eigs.append(complex(lam))
    return np.array(eigs[:n])


def matrix_with_spectrum(rng, eigs):
    """Real matrix with the given conjugate-closed spectrum via a real
    block-diagonal form conjugated by a well-conditioned similarity."""
    from scipy.linalg import block_diag

    blocks = []
    used = np.zeros(len(eigs), dtype=bool)
    for i, lam in enumerate(eigs):
        if used[i]:
            continue
        if abs(lam.imag) < 1e-12:
            blocks.append(np.array([[lam.real]]))
            used[i] = True
        else:
            j = next(k for k in range(i + 1, len(eigs)) if not used[k] and abs(eigs[k] - lam.conjugate()) < 1e-9)
            used[i] = used[j] = True
            blocks.append(np.array([[lam.real, lam.imag], [-lam.imag, lam.real]]))
    D = block_diag(*blocks)
    Qmat, _ = np.linalg.qr(rng.standard_normal((len(eigs), len(eigs))))
    scale = np.diag(rng.uniform(0.6, 1.6, size=len(eigs)))
    V = Qmat @ scale
    return V @ D @ np.linalg.inv(V)


def random_observable_model(rng, n=None, m=None, allow_unstable=True):
    """Seeded random observable plant with PSD Q and PD R."""
    n = int(n if n is not None else rng.integers(1, 6))
    m = int(m if m is not None else rng.integers(1, 7))
    for _ in range(100):
        A = matrix_with_spectrum(rng, random_spectrum(rng, n, allow_unstable))
        C = rng.standard_normal((m, n))
        B = rng.standard_normal((n, n))
        Q = B @ B.T / n + 0.05 * np.eye(n)
        D = rng.standard_normal((m, m))
        R = D @ D.T / m + 0.1 * np.eye(m)
        if numerics.is_observable(A, C):
            return distkf.build_system(A, C, Q, R)
    raise RuntimeError("failed to sample an observable model")


def nonnormal_plants(seed, count):
    """(model, graph) pairs with A = V diag(eig) V^-1 for a Gaussian V."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        nu = int(rng.integers(1, n))
        eig = np.r_[rng.uniform(1.02, 1.3, nu) * rng.choice([-1, 1], nu), rng.uniform(-0.9, 0.9, n - nu)]
        V = rng.standard_normal((n, n))
        C, B, D = rng.standard_normal((m, n)), rng.standard_normal((n, n)), rng.standard_normal((m, m))
        try:
            model = distkf.build_system(V @ np.diag(eig) @ np.linalg.inv(V), C,
                                        B @ B.T / n + 0.05 * np.eye(n), D @ D.T / m + 0.1 * np.eye(m))
        except distkf.DistkfError:
            continue
        out.append((model, random_connected_graph(rng, m)))
    return out


def check_split(A, V, T, nu):
    """Assert the split contract and return its largest relative gap: V
    orthogonal, ``T = V'AV`` block upper-triangular with the nu unstable
    eigenvalues in the leading block, ``V T V' = A``, and the spectrum of
    A shared out between the two diagonal blocks."""
    n = A.shape[0]
    scale = max(1.0, np.linalg.norm(A))
    gap = max(np.linalg.norm(V.T @ V - np.eye(n)),
              np.linalg.norm(V.T @ A @ V - T) / scale,
              np.linalg.norm(V @ T @ V.T - A) / scale)
    assert gap <= 1e-12
    assert not np.any(T[nu:, :nu])
    eu, es = np.linalg.eigvals(T[:nu, :nu]), np.linalg.eigvals(T[nu:, nu:])
    assert np.all(np.abs(eu) >= 1 - 1e-9) and np.all(np.abs(es) < 1 - 1e-9)
    got = sorted(np.r_[eu, es], key=lambda z: (z.real, z.imag))
    want = sorted(np.linalg.eigvals(A), key=lambda z: (z.real, z.imag))
    assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-8 * max(1.0, np.abs(want).max())
    return gap


def random_connected_graph(rng, m):
    """Random weighted undirected connected graph on m nodes."""
    for _ in range(100):
        adj = np.zeros((m, m))
        for i in range(m):
            for j in range(i + 1, m):
                if rng.random() < 0.55:
                    adj[i, j] = adj[j, i] = rng.uniform(0.5, 2.0)
        try:
            return distkf.build_graph(adj)
        except distkf.DisconnectedGraphError:
            continue
    raise RuntimeError("failed to sample a connected graph")


def heat_grid(seed, N=4, m=10, radius=2.0):
    """Seeded N x N zero-flux heat grid watched by m interpolating sensors
    on a geometric graph; sensors are jittered over an (m/2) x 2 tiling of
    the grid so that the graph is connected."""
    rng = np.random.default_rng(seed)
    cells = [(c, r) for r in range(2) for c in range(m // 2)]
    w, h = (N - 1) / (m // 2), (N - 1) / 2
    pos = np.array([((c + rng.random()) * w, (r + rng.random()) * h) for c, r in cells])
    A = distkf.heat_transition(N=N, alpha=0.2)
    C = distkf.interpolation_rows(pos, N=N, h=1.0)
    model = distkf.build_system(A, C, 0.04 * np.eye(N * N), 9.0 * np.eye(m))
    graph = distkf.build_graph(distkf.geometric_adjacency(pos, radius))
    return model, graph


@pytest.fixture(scope="session")
def example1():
    """Scenario, designs, and trial config for the 4-sensor ring example."""
    sc = distkf.example1_scenario()
    designs = distkf.design_pipeline(
        sc.model, sc.graph, zeta=sc.zeta, stable_poles=sc.stable_poles, variant=sc.variant
    )
    return sc, designs


@pytest.fixture(scope="session")
def example2_design():
    sc = distkf.example2_scenario()
    designs = distkf.design_pipeline(
        sc.model, sc.graph, zeta=sc.zeta, stable_poles=sc.stable_poles, variant=sc.variant
    )
    return sc, designs


def trial_config(sc, **overrides):
    base = dict(
        horizon=sc.horizon,
        seed=sc.seed,
        variant=sc.variant,
        strategy=distkf.static_strategy(),
        replace_own=sc.replace_own,
        rounds_per_sample=sc.rounds_per_sample,
        initial_state_cov=sc.initial_state_cov,
    )
    base.update(overrides)
    return distkf.TrialConfig(**base)


def trial_draws(model, designs, cfg):
    """What ``run_trial`` draws for the trial ``cfg`` describes, in kernel
    order and without the trial axis: the link flags, w, v(0), v and x(0)."""
    noise_ss, link_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    rng = np.random.Generator(np.random.Philox(noise_ss))
    x0 = np.zeros(model.n)
    if cfg.initial_state_cov is not None:
        x0 = psd_factor(cfg.initial_state_cov) @ rng.standard_normal(model.n)
    w = rng.standard_normal((cfg.horizon, model.n)) @ psd_factor(model.Q).T
    v = rng.standard_normal((cfg.horizon + 1, model.m)) @ psd_factor(model.R).T
    flags = cfg.strategy.sample_gains(designs.graph.adjacency, cfg.horizon, cfg.rounds_per_sample,
                                      np.random.Generator(np.random.Philox(link_ss)))
    return flags, w, v[0], v[1:], x0


def _T_blocks(designs):
    return np.stack([designs.reduced.T_blocks(i) for i in range(designs.graph.m)])


def kernel_args(model, designs, variant):
    """The kernel's leading positional arguments, shared by every trial:
    the plant, filter and local-filter matrices, variant 2's blocks T_i,
    Gamma and the adjacency."""
    kd, bundle = designs.kalman, designs.bundle
    head = (model.A, model.C, kd.Acl, kd.K, bundle.S, bundle.beta)
    if variant == "alg2":
        head += (_T_blocks(designs),)
    return head + (designs.consensus.Gamma, designs.graph.adjacency)


def run_kernel(model, designs, variant, draws, replace_own=False, chunk=None):
    """The kernel's outputs for the trials whose ``trial_draws`` are
    ``draws``, stacked along the trial axis as one batch, in blocks of
    ``chunk`` steps."""
    args = kernel_args(model, designs, variant) + tuple(np.stack(a) for a in zip(*draws))
    if variant == "alg1":
        return _kernels.sim_alg1(*args, replace_own, chunk)
    return _kernels.sim_alg2(*args, chunk)


def loop_args(model, designs, variant, draws):
    """The arguments of ``loop_kernels.sim_alg1_loops``/``sim_alg2_loops``
    (before replace_own and rounds) for one trial's ``draws``: the blocks
    F_i (variant 1) or T_i (variant 2), and the flags as dense link
    weights."""
    flags, w, v0, v, x0 = draws
    kd, bundle = designs.kalman, designs.bundle
    blocks = bundle.F if variant == "alg1" else _T_blocks(designs)
    return (model.A, model.C, kd.Acl, kd.K, bundle.S, bundle.beta, blocks,
            designs.consensus.Gamma, dense_weights(designs.graph.adjacency, flags, w.shape[0]),
            w, v0, v, x0)


def edges(adjacency):
    """The edges i < j of ``adjacency`` in row-major order, as two index
    arrays."""
    return np.nonzero(np.triu(adjacency, 1))


def incidence(adjacency):
    """The incidence matrix (m, E) of ``edges(adjacency)``, columns e_i - e_j."""
    i, j = edges(adjacency)
    eye = np.eye(adjacency.shape[0])
    return eye[:, i] - eye[:, j]


def dense_weights(adjacency, flags, horizon):
    """The link weights a_ij flag_ij(k, rho) as (horizon, rounds, m, m),
    symmetric, from the flags (steps, rounds, E) of one trial."""
    i, j = edges(adjacency)
    m = adjacency.shape[0]
    out = np.zeros(flags.shape[:2] + (m, m))
    out[:, :, i, j] = adjacency[i, j] * flags
    out[:, :, j, i] = out[:, :, i, j]
    return np.broadcast_to(out, (horizon,) + out.shape[1:])


def kernel_batch(model, designs, cfgs):
    """The kernel's outputs for the trials ``cfgs`` describe (one model,
    design and variant), stacked along the trial axis as one batch."""
    cfg = cfgs[0]
    variant = distkf.resolve_variant(cfg.variant, model.n, model.m)
    return run_kernel(model, designs, variant, [trial_draws(model, designs, c) for c in cfgs],
                      cfg.replace_own)


def kernel_run(model, designs, cfg):
    """The kernel's six per-trial outputs (x, y, xhat, xbreve, xi and the
    consensus state) for the trial ``cfg`` describes, run as a batch of
    one and returned without the trial axis."""
    return tuple(a[0] for a in kernel_batch(model, designs, [cfg])[:6])
