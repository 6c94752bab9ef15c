import numpy as np
import pytest
from numpy.testing import assert_allclose

import distkf
from distkf import consensus, numerics
from distkf.errors import (
    ConfigError, GainInfeasibleError, InfeasibleConditionError, InfeasibleZetaError,
)

from conftest import (
    dense_weights,
    edges,
    incidence,
    matrix_with_spectrum,
    random_connected_graph,
    random_observable_model,
)


class TestCheckCondition:
    def test_ring_example(self, example1):
        _, designs = example1
        rep = distkf.check_condition(designs.bundle.S, designs.graph)
        assert rep.mahler == pytest.approx(1.1, rel=1e-9)
        assert rep.bound == pytest.approx(3.0, rel=1e-12)
        assert rep.feasible

    def test_stable_matrix_empty_product(self):
        g = distkf.ring_graph(3, 1.0)
        rep = distkf.check_condition(np.diag([0.3, -0.5]), g)
        assert rep.mahler == 1.0
        assert rep.feasible

    def test_complete_graph_infinite_bound(self):
        g = distkf.complete_graph(4, 1.0)
        rep = distkf.check_condition(np.diag([5.0]), g)
        assert np.isinf(rep.bound)
        assert rep.feasible


class TestSolveMare:
    def test_scalar_stable_closed_form(self):
        # P = 1 / (1 - zeta^2 s^2)
        s, zeta = 0.5, 0.7
        P, _ = distkf.solve_mare([[s]], zeta)
        assert_allclose(P, [[1.0 / (1 - zeta**2 * s**2)]], rtol=1e-9)

    def test_scalar_unstable_closed_form(self):
        P, _ = distkf.solve_mare([[1.1]], 0.5)
        assert_allclose(P, [[1.0 / 0.6975]], rtol=1e-9)

    def test_infeasible_zeta(self):
        with pytest.raises(InfeasibleZetaError):
            distkf.solve_mare([[1.1]], 0.95)

    def test_strict_inequality_margin(self, example1):
        # the MARE runs on the unstable block; Pmare is zero outside it
        _, designs = example1
        c = designs.consensus
        nu = designs.split.nu
        Pu = c.Pmare[:nu, :nu]
        margin = consensus.mare_margin(designs.bundle.S[:nu, :nu], Pu, c.zeta)
        assert margin >= 1e-10 * np.linalg.norm(Pu)
        # the +I forcing pins the margin at one
        assert margin == pytest.approx(1.0, rel=1e-6)
        assert np.all(c.Pmare[nu:] == 0.0) and np.all(c.Pmare[:, nu:] == 0.0)
        assert c.mare_iterations > 0

    def test_monotone_iterates(self, example1):
        # fixed-point iterates from P = I rise in the Loewner order and
        # stay below the returned solution
        _, designs = example1
        S = designs.bundle.S
        P, iterations = distkf.solve_mare(S, 0.5)
        ones = np.ones(2)
        prev = np.eye(2)
        for _ in range(iterations):
            g = S.T @ prev @ ones
            nxt = S.T @ prev @ S - 0.75 * np.outer(g, g) / (ones @ prev @ ones) + np.eye(2)
            assert np.min(np.linalg.eigvalsh(nxt - prev)) >= -1e-9 * (1 + np.linalg.norm(nxt))
            assert np.min(np.linalg.eigvalsh(P - nxt)) >= -1e-9 * (1 + np.linalg.norm(P))
            prev = nxt
        assert_allclose(prev, P, rtol=1e-9)


class TestUnstableBlockGain:
    def test_scalar_block_closed_form(self, example1, example2_design):
        # nu = 1: Gamma = [2 s_u / (mu_2 + mu_m), 0, ..., 0]
        for _, designs in (example1, example2_design):
            g, S = designs.graph, designs.bundle.S
            want = np.zeros(S.shape[0])
            want[0] = 2.0 * S[0, 0] / (g.mu2 + g.mu_max)
            assert_allclose(designs.consensus.Gamma, want, rtol=1e-12, atol=0)

    def test_stable_plant_gets_zero_gain(self):
        rng = np.random.default_rng(113)
        model = random_observable_model(rng, n=3, m=3, allow_unstable=False)
        designs = distkf.design_pipeline(model, distkf.ring_graph(3))
        c = designs.consensus
        assert np.all(c.Gamma == 0.0) and np.all(c.Pmare == 0.0)
        assert c.mare_iterations == 0
        assert_allclose(c.spectral_radii, numerics.spectral_radius(designs.bundle.S))

    def test_complex_unstable_pair(self):
        # a rotating unstable pair gives a 2 x 2 real block and a 2-dim MARE
        rng = np.random.default_rng(5)
        A = matrix_with_spectrum(rng, np.array([1.1 * np.exp(0.7j), 1.1 * np.exp(-0.7j), 0.4]))
        model = distkf.build_system(A, rng.standard_normal((4, 3)), np.eye(3), np.eye(4))
        designs = distkf.design_pipeline(model, distkf.complete_graph(4))
        c = designs.consensus
        assert designs.split.nu == 2
        assert np.all(c.Gamma[2:] == 0.0) and np.all(c.Pmare[2:] == 0.0)
        assert np.all(c.spectral_radii < 1.0)


class TestComputeGamma:
    def test_scalar_P_cancels(self):
        g = distkf.ring_graph(4, 1.0)
        gam = distkf.compute_gamma(np.array([[0.8]]), np.array([[3.7]]), g)
        assert_allclose(gam, [2.0 / 6.0 * 0.8], rtol=1e-12)

    def test_zero_S(self):
        g = distkf.ring_graph(4, 1.0)
        gam = distkf.compute_gamma(np.zeros((2, 2)), np.eye(2), g)
        assert_allclose(gam, np.zeros(2))

    def test_ring_example_prefactor(self, example1):
        _, designs = example1
        S, P = designs.bundle.S, designs.consensus.Pmare
        ones = np.ones(2)
        want = (1.0 / 3.0) * (ones @ P @ S) / (ones @ P @ ones)
        assert_allclose(designs.consensus.Gamma, want, rtol=1e-12)


class TestVerifyGain:
    def test_ring_example_all_stable(self, example1):
        _, designs = example1
        radii = distkf.verify_gain(designs.bundle.S, designs.consensus.Gamma, designs.graph)
        assert radii.shape == (3,)
        assert np.all(radii < 1.0)

    def test_zero_gain_unstable(self, example1):
        _, designs = example1
        with pytest.raises(GainInfeasibleError):
            distkf.verify_gain(designs.bundle.S, np.zeros(2), designs.graph)

    def test_scalar_deadbeat(self):
        g = distkf.complete_graph(2, 1.0)  # mu = {0, 2}
        S = np.array([[1.1]])
        P, _ = distkf.solve_mare(S, 0.5)
        gam = distkf.compute_gamma(S, P, g)
        assert_allclose(gam, [1.1 / 2.0], rtol=1e-12)
        radii = distkf.verify_gain(S, gam, g)
        assert_allclose(radii, [0.0], atol=1e-12)


class TestDesignConsensus:
    def test_zeta_rule_inside_interval(self, example1):
        _, designs = example1
        d = distkf.design_consensus(designs.bundle.S, designs.graph)
        assert designs.consensus.mahler < 1.0 / d.zeta <= designs.consensus.bound + 1e-9

    def test_user_zeta_out_of_range(self, example1):
        _, designs = example1
        with pytest.raises(InfeasibleZetaError):
            distkf.design_consensus(designs.bundle.S, designs.graph, zeta=0.05)

    def test_infeasible_pair_reported(self):
        # path graph of 3: mu = {0, 1, 3} -> bound 2; Mahler 2.5 >= 2
        adj = np.zeros((3, 3))
        adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 1] = 1.0
        g = distkf.build_graph(adj)
        with pytest.raises(InfeasibleConditionError):
            distkf.design_consensus(np.array([[2.5]]), g)

    def test_random_feasible_pairs(self):
        rng = np.random.default_rng(107)
        done = 0
        while done < 25:
            model = random_observable_model(rng, n=int(rng.integers(1, 4)))
            design = distkf.design_kalman(model)
            bundle = distkf.build_bundle(model, design)
            graph = random_connected_graph(rng, model.m)
            rep = distkf.check_condition(bundle.S, graph)
            if not rep.feasible:
                with pytest.raises(InfeasibleConditionError):
                    distkf.design_consensus(bundle.S, graph)
                continue
            d = distkf.design_consensus(bundle.S, graph)
            assert np.all(d.spectral_radii < 1.0)
            done += 1


def _flag_laplacians(adjacency, flags):
    """The Laplacians D diag(w flags) D' of flags (steps, rounds, E)."""
    D = incidence(adjacency)
    i, j = edges(adjacency)
    return (D * (adjacency[i, j] * flags)[..., None, :]) @ D.T


class TestStrategies:
    def test_static_gains_are_adjacency(self):
        g = distkf.ring_graph(4, 1.5)
        flags = distkf.static_strategy().sample_gains(g.adjacency, 7, 2)
        assert flags.dtype == bool and flags.shape == (1, 2, 4)
        assert np.all(flags)
        assert np.array_equal(_flag_laplacians(g.adjacency, flags)[0, 1], g.laplacian)

    def test_drop_zero_equals_static(self):
        g = distkf.ring_graph(4, 1.0)
        rng = np.random.default_rng(5)
        flags = distkf.bernoulli_drop_strategy(0.0).sample_gains(g.adjacency, 5, 1, rng)
        assert flags.shape == (5, 1, 4)
        assert np.all(flags)

    def test_drop_probability_one_rejected(self):
        with pytest.raises(ConfigError):
            distkf.bernoulli_drop_strategy(1.0)

    def test_symmetry_per_step(self):
        g = distkf.ring_graph(6, 1.0)
        rng = np.random.default_rng(11)
        flags = distkf.bernoulli_drop_strategy(0.4).sample_gains(g.adjacency, 50, 1, rng)
        lap = _flag_laplacians(g.adjacency, flags)
        assert np.all(lap == np.swapaxes(lap, -1, -2))
        assert_allclose(lap.sum(axis=-1), 0.0, atol=1e-12)
        # drops actually happen
        assert 0 < flags.sum() < flags.size

    def test_coupling_sums_to_zero(self):
        # symmetric per-link coefficients keep sum_i u_i(k) = 0 exactly
        g = distkf.ring_graph(5, 1.0)
        rng = np.random.default_rng(13)
        flags = distkf.bernoulli_drop_strategy(0.3).sample_gains(g.adjacency, 20, 1, rng)
        lap = _flag_laplacians(g.adjacency, flags)
        delta = rng.standard_normal((5, 3))
        for k in range(20):
            u = -lap[k, 0] @ delta
            assert_allclose(u.sum(axis=0), 0.0, atol=1e-12)

    def test_same_stream_reproducible(self):
        # two Philox generators from one SeedSequence draw the same links
        g = distkf.ring_graph(4, 1.0)
        s = distkf.bernoulli_drop_strategy(0.5)
        ss = np.random.SeedSequence(99)
        a = s.sample_gains(g.adjacency, 10, 1, np.random.Generator(np.random.Philox(ss)))
        b = s.sample_gains(g.adjacency, 10, 1, np.random.Generator(np.random.Philox(ss)))
        assert np.array_equal(a, b)
        assert 0 < a.sum() < a.size

    def test_flags_select_the_dense_weights_edges(self):
        # a seeded trial of the ex1-drop scenario (4-ring, 20% drops, 3
        # rounds): its flags pick the links of the dense (T, rounds, m, m)
        # weights drawn from the same stream, one uniform per edge i < j
        # in row-major order
        g, T, rounds, p = distkf.ring_graph(4, 1.0), 100, 3, 0.2
        link_ss = np.random.SeedSequence((51, 7)).spawn(2)[1]
        flags = distkf.bernoulli_drop_strategy(p).sample_gains(
            g.adjacency, T, rounds, np.random.Generator(np.random.Philox(link_ss)))
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4) if g.adjacency[i, j] > 0]
        keep = np.random.Generator(np.random.Philox(link_ss)).random((T, rounds, len(pairs))) >= p
        want = np.zeros((T, rounds, 4, 4))
        for e, (i, j) in enumerate(pairs):
            want[:, :, i, j] = want[:, :, j, i] = g.adjacency[i, j] * keep[:, :, e]
        assert np.array_equal(dense_weights(g.adjacency, flags, T), want)
        assert np.array_equal(_flag_laplacians(g.adjacency, flags),
                              np.sum(want, axis=-1)[..., None] * np.eye(4) - want)
