"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with the measured margin (run with ``pytest -s`` to see them).

All tolerances are fixed here, not tuned at runtime.
"""

import numpy as np
import pytest

import distkf
from distkf import analysis, numerics
from distkf.decomposition import ModalBasis, _ones_basis, _residues
from distkf.errors import InfeasibleConditionError

from conftest import (
    check_split,
    heat_grid,
    kernel_run,
    matrix_with_spectrum,
    random_connected_graph,
    random_observable_model,
    random_spectrum,
    trial_config,
)
from loop_kernels import lossless_residual


def _report(num, name, detail):
    print(f"\nACCEPTANCE {num} ({name}): PASS - {detail}")


# -------------------------------------------------------------------- 1 ---

def test_criterion_1_losslessness(example1, example2_design):
    """Weighted local filters reproduce the centralized estimate at every
    step: 50 random observable systems, the ring and heat examples and
    two seeded 4x4 heat grids, 200 steps, residual <= 1e-7 * (1 + ||xhat||)."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        model = random_observable_model(rng)  # n <= 5, m <= 6
        design = distkf.design_kalman(model)
        bundle = distkf.build_bundle(model, design)
        seed = int(rng.integers(1 << 31))
        worst = max(worst, lossless_residual(bundle, model, design, 200, seed))
    for sc, designs in (example1, example2_design):
        worst = max(worst, lossless_residual(designs.bundle, sc.model, designs.kalman, 200, 5))
    for seed in (11, 12):
        model, _ = heat_grid(seed)
        design = distkf.design_kalman(model)
        bundle = distkf.build_bundle(model, design)
        worst = max(worst, lossless_residual(bundle, model, design, 200, seed))
    assert worst <= 1e-7
    _report(1, "losslessness", f"max stepwise residual {worst:.2e} over 54 systems x 200 steps")


# -------------------------------------------------------------------- 2 ---

def test_criterion_2_model_reduction():
    """Aggregated (order m*n) and reduced (order n^2) realizations share
    the impulse response: 20 random systems with n < m, 50 steps, 1e-7."""
    rng = np.random.default_rng(2025)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(n + 1, 7))
        model = random_observable_model(rng, n=n, m=m)
        design = distkf.design_kalman(model)
        bundle = distkf.build_bundle(model, design)
        red = distkf.reduce_model(bundle)
        Sfull = np.kron(np.eye(m), bundle.S)
        Lfull = np.kron(np.eye(m), np.ones((n, 1)))
        Sred = np.kron(np.eye(n), bundle.S)
        F = bundle.Fstack
        for ch in range(m):
            z = np.zeros(m)
            z[ch] = 1.0
            xi = Lfull @ z
            th = red.T @ z
            for _ in range(50):
                gap = np.linalg.norm(F @ xi - red.H @ th)
                scale = 1.0 + np.linalg.norm(F @ xi)
                worst = max(worst, gap / scale)
                xi = Sfull @ xi
                th = Sred @ th
    assert worst <= 1e-7
    _report(2, "model reduction", f"worst impulse-response gap {worst:.2e} over 20 systems")


# -------------------------------------------------------------------- 3 ---

def test_criterion_3_exact_average(example1):
    """Network average equals the Kalman estimate at every step, both
    variants, perfect and lossy links, 20 seeds, 1e-8."""
    sc, designs = example1
    worst = 0.0
    for variant in ("alg1", "alg2"):
        for strategy in (distkf.static_strategy(), distkf.bernoulli_drop_strategy(0.3)):
            for seed in range(20):
                cfg = trial_config(sc, horizon=80, seed=(400 + seed), variant=variant,
                                   strategy=strategy)
                tr = distkf.run_trial(sc.model, designs, cfg)
                gap = np.abs(tr.xbreve.mean(axis=1) - tr.xhat)
                rel = np.max(gap / (1.0 + np.abs(tr.xhat)))
                worst = max(worst, rel)
    assert worst <= 1e-8
    _report(3, "exact average", f"max stepwise gap {worst:.2e} over 2 variants x 2 strategies x 20 seeds")


# -------------------------------------------------------------------- 4 ---

def test_criterion_4_gain_feasibility():
    """For 100 random (system, connected graph) pairs meeting the Mahler
    condition every deviation mode is stable; violating pairs raise."""
    rng = np.random.default_rng(2026)
    feasible_done = 0
    infeasible_seen = 0
    worst_radius = 0.0
    while feasible_done < 100:
        model = random_observable_model(rng, n=int(rng.integers(1, 5)))
        design = distkf.design_kalman(model)
        bundle = distkf.build_bundle(model, design)
        graph = random_connected_graph(rng, model.m)
        rep = distkf.check_condition(bundle.S, graph)
        if not rep.feasible:
            with pytest.raises(InfeasibleConditionError):
                distkf.design_consensus(bundle.S, graph)
            infeasible_seen += 1
            continue
        cons = distkf.design_consensus(bundle.S, graph)
        if cons.spectral_radii.size:
            worst_radius = max(worst_radius, float(cons.spectral_radii.max()))
        assert np.all(cons.spectral_radii < 1.0)
        feasible_done += 1
    # constructed violation is reported, never silently designed
    adj = np.array([[0.0, 1, 0], [1, 0, 1], [0, 1, 0]])
    with pytest.raises(InfeasibleConditionError):
        distkf.design_consensus(np.array([[2.5]]), distkf.build_graph(adj))
    infeasible_seen += 1
    assert worst_radius < 1.0
    _report(4, "gain feasibility",
            f"100 feasible designs stable (worst radius {worst_radius:.4f}); "
            f"{infeasible_seen} infeasible pairs rejected")


# -------------------------------------------------------------------- 5 ---

def test_criterion_5_analytic_vs_empirical(example1):
    """Ring scenario, 5000 trials, horizon 100: per-node steady-state MSE
    (mean over steps 50..100) within 10% of the analytic covariance
    diagonal for the simulated variant."""
    sc, designs = example1
    variant = distkf.resolve_variant(sc.variant, sc.model.n, sc.model.m)
    cfg = trial_config(sc)
    res = distkf.run_monte_carlo(sc.model, designs, cfg, 5000)
    aug = distkf.build_augmented(
        sc.model, designs.split, designs.kalman, designs.bundle,
        designs.consensus, designs.graph, variant=variant, reduced=designs.reduced,
    )
    rep = distkf.asymptotic_covariance(aug, sc.model, designs.kalman.Ppost)
    emp = res.node_mse(slice(50, 101))
    ana = np.array([np.diag(rep.node_block(i)) for i in range(sc.model.m)])
    rel = np.abs(emp - ana) / ana
    assert np.max(rel) <= 0.10
    _report(5, "analytic vs empirical covariance",
            f"worst per-node relative gap {np.max(rel):.3%} (5000 trials, variant {variant})")


# -------------------------------------------------------------------- 6 ---

def test_criterion_6_heat_reproduction(example2_design):
    """Heat-diffusion scenario, 2000 trials: every sensor improves on its
    local filter, analytic local ratios lie in [1.8, 2.1], and the mean
    improvement is at least 0.4."""
    sc, designs = example2_design
    locals_ = distkf.local_baselines(sc.model)
    assert all(b is not None for b in locals_)
    tr_p = np.trace(designs.kalman.Ppost)
    rho1 = np.array([np.trace(b.Ppost) / tr_p for b in locals_])
    assert np.all(rho1 >= 1.8) and np.all(rho1 <= 2.1)

    cfg = trial_config(sc)
    res = distkf.run_monte_carlo(sc.model, designs, cfg, 2000)
    lo, hi = sc.steady_window
    rho2 = res.node_mse(slice(lo, hi)).sum(axis=1) / tr_p
    improvement = rho1 - rho2
    assert np.all(improvement > 0.0), f"non-improving sensors: {np.where(improvement <= 0)[0]}"
    assert improvement.mean() >= 0.4
    _report(6, "heat reproduction",
            f"rho1 in [{rho1.min():.3f}, {rho1.max():.3f}], "
            f"rho2 in [{rho2.min():.3f}, {rho2.max():.3f}], "
            f"mean improvement {improvement.mean():.3f} (2000 trials)")


# -------------------------------------------------------------------- 7 ---

def test_criterion_7_optimality_limit(example1):
    """Extra consensus rounds per sample shrink the deviation-from-Kalman
    power monotonically, reaching <= 20% of the single-round value at 8
    rounds (messages of size m carry the residual injections the extra
    coupling rounds can cancel)."""
    sc, designs = example1
    vals = {}
    for rounds in (1, 2, 4, 8):
        cfg = trial_config(sc, horizon=60, seed=515, variant="alg1",
                           rounds_per_sample=rounds)
        res = distkf.run_monte_carlo(sc.model, designs, cfg, 2000)
        vals[rounds] = res.tr_wbar(slice(40, 61))
    assert vals[2] < vals[1] and vals[4] < vals[2] and vals[8] < vals[4]
    assert vals[8] <= 0.20 * vals[1]
    _report(7, "optimality limit",
            "tr(Wbar) estimates " + ", ".join(f"{r}: {vals[r]:.3f}" for r in (1, 2, 4, 8))
            + f"; ratio 8/1 = {vals[8] / vals[1]:.3%}")


# -------------------------------------------------------------------- 8 ---

def test_criterion_8_message_complexity(example1, example2_design):
    """Broadcast payload length is m under variant 1 and n under variant
    2, and auto selection picks min(m, n)."""
    sc1, d1 = example1
    sc2, d2 = example2_design
    # auto selection
    assert distkf.resolve_variant("auto", sc1.model.n, sc1.model.m) == "alg2"  # n=2 < m=4
    assert distkf.resolve_variant("auto", sc2.model.n, sc2.model.m) == "alg1"  # n=25 > m=15
    for sc, d in ((sc1, d1), (sc2, d2)):
        n, m = sc.model.n, sc.model.m
        variant = distkf.resolve_variant("auto", n, m)
        assert distkf.message_dimension(variant, n, m) == min(n, m)
        # node 0 broadcasts its consensus state, as the kernel returns it, times Gamma
        state = kernel_run(sc.model, d, trial_config(sc, horizon=3, variant=variant))[5]
        assert len((state[0] @ d.consensus.Gamma).tobytes()) == 8 * min(n, m)
    _report(8, "message complexity",
            "payload length = min(m, n) doubles on both scenarios; auto picks the smaller")


# -------------------------------------------------------------------- 9 ---

def test_criterion_9_numerics_property_suite():
    """Residual and round-trip properties of the numeric kernels on 200
    random instances each."""
    rng = np.random.default_rng(909)

    worst_dare = 0.0
    for _ in range(200):
        model = random_observable_model(rng)
        S = numerics.solve_dare(model.A, model.C, model.Q, model.R)
        G = model.C @ S @ model.C.T + model.R
        ASC = model.A @ S @ model.C.T
        res = np.linalg.norm(S - (model.A @ S @ model.A.T - ASC @ np.linalg.solve(G, ASC.T) + model.Q))
        rel = res / (1.0 + np.linalg.norm(S))
        worst_dare = max(worst_dare, rel)
        assert rel <= 1e-9

    worst_dlyap = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 6))
        F = matrix_with_spectrum(rng, random_spectrum(rng, n, allow_unstable=False))
        rho = numerics.spectral_radius(F)
        if rho > 0.9:
            F *= 0.9 / rho
        B = rng.standard_normal((n, n))
        V = B @ B.T
        W = analysis._stein(F, F, V)
        acc = np.zeros((n, n))
        Fk = np.eye(n)
        for _ in range(201):
            acc += Fk @ V @ Fk.T
            Fk = F @ Fk
        gap = np.linalg.norm(W - acc) / (1.0 + np.linalg.norm(W))
        worst_dlyap = max(worst_dlyap, gap)
        assert gap <= 1e-6

    # closed-form beta: S carries poles s (complex pairs, and real unstable
    # poles repeated into Jordan chains), beta_c holds the residues for
    # targets lam, and S - 1 beta' must have spectrum lam
    worst_pole = 0.0
    chains = complex_s = done = 0
    while done < 200:
        n = int(rng.integers(1, 7))
        q = int(rng.integers(2, min(n, 3) + 1)) if n >= 2 and rng.random() < 0.3 else 0
        a = rng.choice([-1.0, 1.0]) * rng.uniform(1.05, 1.25)
        s = np.concatenate([np.full(q, a, dtype=complex), random_spectrum(rng, n - q)])
        link = np.zeros(n, dtype=bool)
        link[1:q] = True
        lam = random_spectrum(rng, n, allow_unstable=False)
        # the gaps the design keeps between distinct poles and targets
        pts = np.concatenate([s[~link], lam])
        gaps = np.abs(pts[:, None] - pts[None, :])
        np.fill_diagonal(gaps, np.inf)
        if gaps.min() < 1e-3:
            continue
        basis = ModalBasis(s, _residues(s, lam, link), _ones_basis(s), link)
        got = np.linalg.eigvals(basis.S - np.outer(np.ones(n), basis.beta))
        dist = np.abs(got[:, None] - lam[None, :])
        gap = max(dist.min(axis=0).max(), dist.min(axis=1).max()) / (1.0 + np.abs(lam).max())
        worst_pole = max(worst_pole, gap)
        assert gap <= 1e-6
        chains += q > 0
        complex_s += bool(np.any(s.imag != 0))
        done += 1

    worst_split = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        A = matrix_with_spectrum(rng, random_spectrum(rng, n))
        worst_split = max(worst_split, check_split(A, *numerics.spectral_split(A)))

    _report(9, "numerics property suite",
            f"200 instances each: DARE {worst_dare:.1e}, Lyapunov-vs-series {worst_dlyap:.1e}, "
            f"modal beta round-trip {worst_pole:.1e} ({chains} with Jordan chains, "
            f"{complex_s} with complex S), split reconstruction {worst_split:.1e}")
