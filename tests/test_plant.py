import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import block_diag

import distkf
from distkf.errors import BadNoiseError, DimensionMismatchError, DisconnectedGraphError, NotObservableError

from conftest import check_split, matrix_with_spectrum, nonnormal_plants, random_observable_model


def ring_example_args():
    A = np.diag([0.9, 1.1])
    C = np.array([[1.0, 0], [0, 1], [1, 1], [1, -1]])
    return A, C, 0.25 * np.eye(2), 4.0 * np.eye(4)


class TestBuildSystem:
    def test_ring_example_valid(self):
        model = distkf.build_system(*ring_example_args())
        assert model.n == 2 and model.m == 4

    def test_zero_row_not_observable(self):
        A = np.diag([0.9, 1.1])
        with pytest.raises(NotObservableError):
            distkf.build_system(A, np.zeros((1, 2)), np.eye(2), np.eye(1))

    def test_singular_R_rejected(self):
        A, C, Q, _ = ring_example_args()
        with pytest.raises(BadNoiseError):
            distkf.build_system(A, C, Q, np.zeros((4, 4)))

    def test_indefinite_Q_rejected(self):
        A, C, _, R = ring_example_args()
        with pytest.raises(BadNoiseError):
            distkf.build_system(A, C, -np.eye(2), R)

    def test_dimension_mismatch(self):
        A, C, Q, R = ring_example_args()
        with pytest.raises(DimensionMismatchError):
            distkf.build_system(A, C[:, :1], Q, R)


class TestSplitModel:
    def test_ring_example(self):
        model = distkf.build_system(*ring_example_args())
        split = distkf.split_model(model)
        assert split.nu == 1 and split.ns == 1
        assert_allclose(split.Au, [[1.1]], atol=1e-12)
        assert_allclose(split.As, [[0.9]], atol=1e-12)
        # sensor rows split consistently: C_i V = [Ciu Cis]
        CV = model.C @ split.V
        assert_allclose(CV[:, :1], split.Ciu)
        assert_allclose(CV[:, 1:], split.Cis)

    def test_stable_plant(self):
        rng = np.random.default_rng(1)
        model = random_observable_model(rng, n=3, m=2, allow_unstable=False)
        split = distkf.split_model(model)
        assert split.nu == 0
        assert split.Au.shape == (0, 0) and split.Aus.shape == (0, 3) and split.Ciu.shape == (2, 0)
        check_split(model.A, split.V, split.As, 0)
        assert_allclose(split.Cis, model.C @ split.V)

    @pytest.mark.parametrize("eigs, nu", [([0.5, -0.3, 0.8], 0), ([1.2, -1.5, 1.0], 3)],
                             ids=["all-stable", "all-unstable"])
    def test_one_sided_spectrum(self, eigs, nu):
        # all stable or all unstable: Schur coordinates, one block empty
        rng = np.random.default_rng(7)
        A = matrix_with_spectrum(rng, np.asarray(eigs, dtype=complex))
        model = distkf.build_system(A, rng.standard_normal((2, 3)), 0.1 * np.eye(3), np.eye(2))
        split = distkf.split_model(model)
        assert split.nu == nu and split.ns == 3 - nu and split.Aus.shape == (nu, 3 - nu)
        check_split(A, split.V, block_diag(split.Au, split.As), nu)
        assert_allclose(np.hstack([split.Ciu, split.Cis]), model.C @ split.V)

    def test_block_diagonal_plant_rebuilt(self):
        # an already ordered plant goes through the Schur route like any other
        A = np.diag([1.2, 0.5])
        model = distkf.build_system(A, np.array([[1.0, 1.0]]), 0.1 * np.eye(2), [[1.0]])
        split = distkf.split_model(model)
        assert split.nu == 1 and split.ns == 1
        check_split(A, split.V, np.block([[split.Au, split.Aus], [np.zeros((1, 1)), split.As]]), 1)
        assert_allclose(split.Aus, [[0.0]], atol=1e-15)

    def test_heat_model_single_marginal_mode(self):
        A = distkf.heat_transition(N=5, alpha=0.2)
        # independent oracle: eigensolve count of near-unit moduli
        mods = np.abs(np.linalg.eigvals(A))
        assert int(np.sum(mods >= 1 - 1e-9)) == 1
        # constant temperature profile is invariant
        assert_allclose(A @ np.ones(25), np.ones(25), atol=1e-14)
        sc = distkf.example2_scenario(trials=1)
        split = distkf.split_model(sc.model)
        assert split.nu == 1

    def test_reconstruction_invariant(self):
        rng = np.random.default_rng(23)
        models = [random_observable_model(rng) for _ in range(30)]
        models += [model for model, _ in nonnormal_plants(23, 30)]
        for model in models:
            split = distkf.split_model(model)
            nu, ns = split.nu, split.ns
            T = np.block([[split.Au, split.Aus], [np.zeros((ns, nu)), split.As]])
            check_split(model.A, split.V, T, nu)
            assert_allclose(np.hstack([split.Ciu, split.Cis]), model.C @ split.V)


class TestGraphs:
    def test_ring4_spectrum(self):
        g = distkf.ring_graph(4, 1.0)
        assert_allclose(g.mu, [0.0, 2.0, 2.0, 4.0], atol=1e-10)
        assert g.mu2 == pytest.approx(2.0)
        assert g.mu_max == pytest.approx(4.0)

    def test_complete_two_nodes(self):
        g = distkf.complete_graph(2, 1.0)
        assert_allclose(g.mu, [0.0, 2.0], atol=1e-12)

    def test_disconnected_rejected(self):
        adj = np.zeros((4, 4))
        adj[0, 1] = adj[1, 0] = 1.0
        adj[2, 3] = adj[3, 2] = 1.0
        with pytest.raises(DisconnectedGraphError):
            distkf.build_graph(adj)

    def test_asymmetric_rejected(self):
        adj = np.zeros((3, 3))
        adj[0, 1] = 1.0
        with pytest.raises(DimensionMismatchError):
            distkf.build_graph(adj)

    def test_near_symmetric_adjacency_made_symmetric(self):
        # an asymmetry inside the tolerance, even in the pattern, leaves
        # one undirected link per pair, as the per-edge link flags count them
        adj = distkf.ring_graph(4, 1.0).adjacency.copy()
        adj[0, 2] = 1e-13
        g = distkf.build_graph(adj)
        assert np.array_equal(g.adjacency, g.adjacency.T)
        assert np.array_equal(g.laplacian, g.laplacian.T)
        assert np.count_nonzero(g.adjacency) // 2 == np.count_nonzero(np.triu(g.adjacency, 1))

    def test_laplacian_row_sums_and_nonnegative_spectrum(self):
        rng = np.random.default_rng(4)
        from conftest import random_connected_graph

        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(2, 8)))
            assert np.abs(g.laplacian.sum(axis=1)).max() <= 1e-12
            assert g.mu[0] == 0.0
            assert np.all(g.mu >= -1e-12)
            # one eigensolve: phi diagonalizes L, orthonormal, ones first
            m = g.m
            assert np.abs(g.laplacian @ g.phi - g.phi * g.mu).max() <= 1e-12
            assert np.abs(g.phi.T @ g.phi - np.eye(m)).max() <= 1e-12
            assert np.abs(g.phi[:, 0] - 1.0 / np.sqrt(m)).max() <= 1e-12

    def test_random_geometric_deterministic(self):
        def adjacency(seed):
            cfg = {"system": {"A": np.eye(8).tolist(), "C": np.eye(8).tolist(),
                              "Q": np.eye(8).tolist(), "R": np.eye(8).tolist()},
                   "graph": {"kind": "random_geometric", "m": 8, "radius": 0.6, "seed": seed}}
            return distkf.parse_scenario(cfg).graph.adjacency

        assert np.array_equal(adjacency(5), adjacency(5))
        assert not np.array_equal(adjacency(5), adjacency(6))
