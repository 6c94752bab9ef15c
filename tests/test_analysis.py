import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import linalg

import distkf
from distkf import analysis, numerics
from distkf.errors import InfeasibleDesignError, NoConvergenceError, UnstableAugmentedError

from conftest import (
    heat_grid,
    matrix_with_spectrum,
    nonnormal_plants,
    random_connected_graph,
    random_observable_model,
    random_spectrum,
    trial_config,
)


def build_report(sc, designs, variant):
    aug = distkf.build_augmented(
        sc.model, designs.split, designs.kalman, designs.bundle,
        designs.consensus, designs.graph, variant=variant, reduced=designs.reduced,
    )
    return aug, distkf.asymptotic_covariance(aug, sc.model, designs.kalman.Ppost)


@pytest.fixture(scope="module")
def random_plants():
    """30 seeded random plants (complex pairs, Jordan chains) with their
    alg2-capable designs."""
    rng = np.random.default_rng(31)
    plants = []
    while len(plants) < 30:
        model = random_observable_model(rng)
        graph = random_connected_graph(rng, model.m)
        try:
            plants.append((model, distkf.design_pipeline(model, graph, variant="alg2")))
        except InfeasibleDesignError:
            continue
    return plants


def augment(model, designs, variant):
    return distkf.build_augmented(
        model, designs.split, designs.kalman, designs.bundle,
        designs.consensus, designs.graph, variant=variant, reduced=designs.reduced,
    )


def dense_wbar(aug, model, solve):
    """Wbar from one dense Lyapunov solve on the assembled Ar."""
    V = aug.Bw @ model.Q @ aug.Bw.T + aug.Bv @ model.R @ aug.Bv.T
    W = solve(aug.Ar, 0.5 * (V + V.T))
    return aug.out_map @ W @ aug.out_map.T


def relative_gap(Wbar, ref):
    return np.linalg.norm(Wbar - ref) / np.linalg.norm(ref)


class TestStein:
    """The direct solver of ``X - P X Q' = R`` behind every covariance
    block, here with Q = P, against closed forms, the truncated series and
    scipy's Schur-based solver."""

    def test_zero_map(self):
        assert_allclose(analysis._stein(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2)), np.eye(2))

    def test_scalar_closed_form(self):
        # W = V / (1 - F^2)
        F = np.array([[0.5]])
        assert_allclose(analysis._stein(F, F, np.array([[3.0]])), [[4.0]], rtol=1e-12)

    def test_decoupled_diagonal(self):
        F = np.diag([0.2, 0.5])
        W = analysis._stein(F, F, np.eye(2))
        assert_allclose(W, np.diag([1 / 0.96, 4 / 3]), rtol=1e-12)

    def test_series_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = rng.integers(1, 5)
            F = matrix_with_spectrum(rng, random_spectrum(rng, n, allow_unstable=False))
            F *= 0.9 / max(numerics.spectral_radius(F), 0.9)
            B = rng.standard_normal((n, n))
            V = B @ B.T
            W = analysis._stein(F, F, V)
            acc = np.zeros((n, n))
            Fk = np.eye(n)
            for _ in range(201):
                acc += Fk @ V @ Fk.T
                Fk = F @ Fk
            assert_allclose(W, acc, atol=1e-6 * (1 + np.linalg.norm(W)))

    def test_near_boundary_non_normal(self):
        # spectral radius 0.999 on a Jordan-like 3-block coupled to a
        # stable remainder
        rng = np.random.default_rng(0)
        n = 40
        J = 0.999 * np.eye(3) + 0.003 * np.eye(3, k=1)
        rest = linalg.schur(matrix_with_spectrum(
            rng, random_spectrum(rng, n - 3, allow_unstable=False)), output="real")[0]
        T = linalg.block_diag(J, rest)
        T[:3, 3:] = 0.3 * rng.standard_normal((3, n - 3))
        Z, _ = np.linalg.qr(rng.standard_normal((n, n)))
        F = Z @ T @ Z.T
        assert abs(numerics.spectral_radius(F) - 0.999) < 1e-4
        B = rng.standard_normal((n, n))
        V = B @ B.T
        ref = linalg.solve_discrete_lyapunov(F, V)
        assert np.linalg.norm(analysis._stein(F, F, V) - ref) <= 1e-10 * np.linalg.norm(ref)


class TestBuildAugmented:
    def test_ring_example_dimensions_alg1(self, example1):
        sc, designs = example1
        aug, _ = build_report(sc, designs, "alg1")
        # (m-1) m n + m n + ns = 24 + 8 + 1
        assert aug.dim == 33
        assert aug.block_dims == (24, 8, 1)

    def test_ring_example_dimensions_alg2(self, example1):
        sc, designs = example1
        aug, _ = build_report(sc, designs, "alg2")
        # (m-1) n^2 + m n + ns = 12 + 8 + 1
        assert aug.dim == 21

    def test_stable_by_construction(self, example1):
        sc, designs = example1
        for variant in ("alg1", "alg2"):
            aug, _ = build_report(sc, designs, variant)
            assert numerics.spectral_radius(aug.Ar) < 1.0

    def test_blockwise_radius_matches_dense(self, example1):
        sc, designs = example1
        for variant in ("alg1", "alg2"):
            aug, _ = build_report(sc, designs, variant)
            assert abs(aug.spectral_radius - numerics.spectral_radius(aug.Ar)) <= 1e-10

    def test_blockwise_radius_random_plants(self, random_plants):
        for model, designs in random_plants:
            for variant in ("alg1", "alg2"):
                aug = augment(model, designs, variant)
                assert abs(aug.spectral_radius - numerics.spectral_radius(aug.Ar)) <= 1e-10

    def test_broken_design_detected(self, example1):
        sc, designs = example1
        bad = distkf.ConsensusDesign(
            zeta=designs.consensus.zeta, Pmare=designs.consensus.Pmare,
            Gamma=np.zeros(2), mahler=1.1, bound=3.0,
            spectral_radii=designs.consensus.spectral_radii,
        )
        with pytest.raises(UnstableAugmentedError):
            distkf.build_augmented(
                sc.model, designs.split, designs.kalman, designs.bundle,
                bad, designs.graph, variant="alg1",
            )

    def test_fully_unstable_plant_empty_third_block(self):
        model = distkf.build_system(
            np.diag([1.1, 1.2]), np.array([[1.0, 0.4], [0.3, 1.0], [1.0, 1.0]]),
            0.1 * np.eye(2), np.eye(3),
        )
        graph = distkf.ring_graph(3, 1.0)
        designs = distkf.design_pipeline(model, graph)
        aug = distkf.build_augmented(
            model, designs.split, designs.kalman, designs.bundle,
            designs.consensus, designs.graph, variant="alg1",
        )
        assert designs.split.ns == 0
        assert aug.block_dims == (12, 6, 0)
        rep = distkf.asymptotic_covariance(aug, model, designs.kalman.Ppost)
        ref = dense_wbar(aug, model, linalg.solve_discrete_lyapunov)
        assert relative_gap(rep.Wbar, ref) <= 1e-10

    def test_single_node_network(self):
        model = distkf.build_system([[0.7]], [[1.0]], [[0.3]], [[1.0]])
        graph = distkf.build_graph(np.zeros((1, 1)))
        designs = distkf.design_pipeline(model, graph)
        aug = distkf.build_augmented(
            model, designs.split, designs.kalman, designs.bundle,
            designs.consensus, designs.graph, variant="alg1",
        )
        rep = distkf.asymptotic_covariance(aug, model, designs.kalman.Ppost)
        # no deviation subspace: the node is the centralized filter
        assert_allclose(rep.Wbar, 0.0, atol=1e-12)
        assert_allclose(rep.Wbar, dense_wbar(aug, model, linalg.solve_discrete_lyapunov), atol=1e-15)
        assert_allclose(rep.Wbreve, designs.kalman.Ppost, atol=1e-12)
        ratios = distkf.performance_ratios(
            [rep.node_block(0)], [designs.kalman], designs.kalman.Ppost
        )
        assert ratios[0][1] == pytest.approx(1.0)


class TestAsymptoticCovariance:
    def test_zero_noise_gives_zero(self, example1):
        sc, designs = example1
        aug, _ = build_report(sc, designs, "alg1")
        silent = distkf.SystemModel(A=sc.model.A, C=sc.model.C,
                                    Q=np.zeros((2, 2)), R=np.zeros((4, 4)))
        rep = distkf.asymptotic_covariance(aug, silent, np.zeros((2, 2)))
        assert_allclose(rep.Wbar, 0.0, atol=1e-12)
        assert_allclose(rep.Wbreve, 0.0, atol=1e-12)
        assert rep.residual == 0.0

    def test_matches_monte_carlo_both_variants(self, example1):
        sc, designs = example1
        for variant in ("alg1", "alg2"):
            _, rep = build_report(sc, designs, variant)
            cfg = trial_config(sc, variant=variant, seed=31)
            res = distkf.run_monte_carlo(sc.model, designs, cfg, 1200)
            emp = res.node_mse(slice(50, 101))
            ana = np.array([np.diag(rep.node_block(i)) for i in range(4)])
            assert np.max(np.abs(emp - ana) / ana) < 0.10

    def test_variants_at_or_below_previous_design(self, example1):
        # exact per-node traces of the companion-basis design with the
        # full-S MARE gain; the modal design with the unstable-block gain
        # may not do worse on either variant
        sc, designs = example1
        previous = {
            "alg1": [2.39123857, 2.6769634, 3.20569414, 3.21090474],
            "alg2": [4.73873718, 5.35656934, 8.84528331, 8.82228217],
        }
        for variant, bound in previous.items():
            _, rep = build_report(sc, designs, variant)
            assert np.all(rep.per_node_trace <= bound)

    def test_loewner_floor(self, example1):
        # no node can beat the centralized filter
        sc, designs = example1
        for variant in ("alg1", "alg2"):
            _, rep = build_report(sc, designs, variant)
            for i in range(4):
                gap = rep.node_block(i) - designs.kalman.Ppost
                assert np.min(np.linalg.eigvalsh(0.5 * (gap + gap.T))) >= -1e-10
            big = rep.Wbreve - np.kron(np.ones((4, 4)), designs.kalman.Ppost)
            assert np.min(np.linalg.eigvalsh(0.5 * (big + big.T))) >= -1e-8

    def test_decomposition_identity(self, example1):
        # node blocks of Wbreve = node blocks of Wbar + Ppost exactly
        sc, designs = example1
        _, rep = build_report(sc, designs, "alg2")
        for i in range(4):
            blk_bar = rep.Wbar[i * 2 : (i + 1) * 2, i * 2 : (i + 1) * 2]
            assert_allclose(rep.node_block(i), blk_bar + designs.kalman.Ppost, rtol=1e-12)


class TestExactOracle:
    """The block-by-block solve against one dense Lyapunov solve on the
    assembled augmented system, projected through the read-out map."""

    def test_example1_matches_scipy(self, example1):
        sc, designs = example1
        for variant in ("alg1", "alg2"):
            aug, rep = build_report(sc, designs, variant)
            ref = dense_wbar(aug, sc.model, linalg.solve_discrete_lyapunov)
            assert relative_gap(rep.Wbar, ref) <= 1e-10

    def test_heat_grid_matches_scipy(self):
        model, graph = heat_grid(2, N=3, m=4)
        designs = distkf.design_pipeline(model, graph)
        aug = augment(model, designs, "alg1")
        rep = distkf.asymptotic_covariance(aug, model, designs.kalman.Ppost)
        assert aug.block_dims == (108, 36, 8)
        ref = dense_wbar(aug, model, linalg.solve_discrete_lyapunov)
        assert relative_gap(rep.Wbar, ref) <= 1e-10

    def test_random_plants_match_dense_solve(self, random_plants):
        # some of these Stein operators are ill-conditioned enough that two
        # correct direct solvers differ well above roundoff (1.9e-6 at worst)
        for model, designs in random_plants:
            for variant in ("alg1", "alg2"):
                aug = augment(model, designs, variant)
                rep = distkf.asymptotic_covariance(aug, model, designs.kalman.Ppost)
                ref = dense_wbar(aug, model, linalg.solve_discrete_lyapunov)
                if model.m == 1:
                    assert_allclose(rep.Wbar, ref, atol=1e-15)
                else:
                    assert relative_gap(rep.Wbar, ref) <= 1e-5


class TestNonNormalPlant:
    """A plant whose stable substate drives its unstable one (|Aus| = 1.06
    in the Schur basis): the oracle must carry that coupling."""

    def test_oracle_matches_monte_carlo(self):
        model, graph = nonnormal_plants(77, 1)[0]
        designs = distkf.design_pipeline(model, graph, variant="alg1")
        assert (model.n, model.m, designs.split.nu) == (2, 5, 1)
        assert abs(designs.split.Aus[0, 0]) > 1.0
        rep = distkf.asymptotic_covariance(augment(model, designs, "alg1"), model,
                                           designs.kalman.Ppost)
        cfg = distkf.TrialConfig(horizon=150, seed=3, variant="alg1")
        emp = distkf.run_monte_carlo(model, designs, cfg, 2000).node_mse(slice(75, 151))
        # 0.7% with the coupling, 46% without it
        assert np.max(np.abs(emp.sum(axis=1) / rep.per_node_trace - 1.0)) < 0.05

    def test_negative_variance_rejected(self):
        # conditioning 3.2e8: the block residual 8.4e-10 meets the contract,
        # yet node traces of Wbar reach -7e4
        model, graph = nonnormal_plants(77, 80)[37]
        designs = distkf.design_pipeline(model, graph, variant="alg1")
        aug = augment(model, designs, "alg1")
        with pytest.raises(NoConvergenceError, match="negative variance"):
            distkf.asymptotic_covariance(aug, model, designs.kalman.Ppost)


class TestCertificate:
    def test_example1_below_budget(self, example1):
        sc, designs = example1
        for variant in ("alg1", "alg2"):
            _, rep = build_report(sc, designs, variant)
            assert 0.0 < rep.residual <= 1e-12
            assert analysis.report_to_dict(rep)["residual"] == rep.residual

    @pytest.mark.parametrize("block", ["pair", "coupling", "ee"])
    def test_corrupted_block_is_flagged(self, example1, monkeypatch, block):
        # perturb, as it leaves the Stein solver, the solution of one W_jl
        # atom pair, of the Lambda column blocks of one W_je, or of every
        # row block of W_ee (the only solves whose P is Lambda or As)
        sc, designs = example1
        aug, _ = build_report(sc, designs, "alg1")
        Lam, As = designs.bundle.Lambda, designs.split.As
        target = aug.atoms[-1] if block == "pair" else Lam
        solve = analysis._stein

        def corrupted(P, Q, R):
            X = solve(P, Q, R)
            if block == "ee":
                hit = np.array_equal(P, Lam) or np.array_equal(P, As)
            else:
                hit = np.array_equal(P, aug.atoms[0]) and np.array_equal(Q, target)
            if hit:
                X.flat[0] += 1e-6
            return X

        monkeypatch.setattr(analysis, "_stein", corrupted)
        with pytest.raises(NoConvergenceError):
            distkf.asymptotic_covariance(aug, sc.model, designs.kalman.Ppost)


class TestOrthogonality:
    def test_deviation_uncorrelated_with_central_error(self, example1):
        sc, designs = example1
        rng_seeds = range(400)
        prods = []
        k = 60
        for s in rng_seeds:
            tr = distkf.run_trial(sc.model, designs, trial_config(sc, horizon=k, seed=(71, s)))
            dev = tr.xbreve[k, 0] - tr.xhat[k]      # node 1 deviation
            cerr = tr.xhat[k] - tr.x[k]             # centralized error
            prods.append(np.outer(dev, cerr))
        prods = np.array(prods)
        mean = prods.mean(axis=0)
        stderr = prods.std(axis=0, ddof=1) / np.sqrt(len(prods))
        assert np.all(np.abs(mean) <= 3.0 * stderr + 1e-12)


class TestPerformanceRatios:
    def test_none_for_undetectable(self, example1):
        sc, designs = example1
        locals_ = distkf.local_baselines(sc.model)
        assert locals_[0] is None
        _, rep = build_report(sc, designs, "alg2")
        ratios = distkf.performance_ratios(
            [rep.node_block(i) for i in range(4)], locals_, designs.kalman.Ppost
        )
        assert ratios[0][0] is None
        for r1, r2 in ratios:
            assert r2 >= 1.0 - 1e-9
        for r1, r2 in ratios[1:]:
            assert r1 is not None and r1 > 1.0


class TestRoundsMonotonicity:
    def test_extra_rounds_shrink_deviation_power(self, example1):
        sc, designs = example1
        vals = []
        for rounds in (1, 4):
            cfg = trial_config(sc, horizon=60, seed=77, variant="alg1",
                               rounds_per_sample=rounds)
            res = distkf.run_monte_carlo(sc.model, designs, cfg, 250)
            vals.append(res.tr_wbar(slice(40, 61)))
        assert vals[1] < 0.5 * vals[0]
