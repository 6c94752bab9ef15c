import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import linalg

from distkf import numerics
from distkf.errors import NoConvergenceError, NotDetectableError

from conftest import (
    check_split,
    matrix_with_spectrum,
    nonnormal_plants,
    random_observable_model,
    random_spectrum,
)


def dare_residual(A, C, Q, R, S):
    G = C @ S @ C.T + R
    ASC = A @ S @ C.T
    return np.linalg.norm(S - (A @ S @ A.T - ASC @ np.linalg.solve(G, ASC.T) + Q))


class TestSolveDare:
    def test_static_scalar(self):
        S = numerics.solve_dare([[0.0]], [[1.0]], [[1.0]], [[1.0]])
        assert_allclose(S, [[1.0]], atol=1e-12)

    def test_golden_ratio_scalar(self):
        # S^2 - S - 1 = 0 for A = C = Q = R = 1
        S = numerics.solve_dare([[1.0]], [[1.0]], [[1.0]], [[1.0]])
        assert_allclose(S[0, 0], (1 + np.sqrt(5)) / 2, rtol=1e-12)

    def test_ring_example_system(self):
        A = np.diag([0.9, 1.1])
        C = np.array([[1.0, 0], [0, 1], [1, 1], [1, -1]])
        Q = 0.25 * np.eye(2)
        R = 4.0 * np.eye(4)
        S = numerics.solve_dare(A, C, Q, R)
        assert np.isfinite(np.trace(S))
        assert dare_residual(A, C, Q, R, S) <= 1e-9 * (1 + np.linalg.norm(S))

    def test_not_detectable(self):
        with pytest.raises(NotDetectableError):
            numerics.solve_dare([[2.0]], [[0.0]], [[1.0]], [[1.0]])

    def test_marginal_unit_eigenvalue(self):
        # detectable random-walk mode sits exactly on the unit circle
        A = np.array([[1.0, 0.0], [0.0, 0.5]])
        S = numerics.solve_dare(A, np.array([[1.0, 1.0]]), 0.1 * np.eye(2), [[1.0]])
        assert dare_residual(A, np.array([[1.0, 1.0]]), 0.1 * np.eye(2), [[1.0]], S) <= 1e-9 * (
            1 + np.linalg.norm(S)
        )

    def test_residual_miss_is_numerical_error(self, monkeypatch):
        monkeypatch.setattr(linalg, "solve_discrete_are", lambda A, B, Q, R: Q)
        with pytest.raises(NoConvergenceError, match="Riccati residual"):
            numerics.solve_dare([[0.5]], [[1.0]], [[1.0]], [[1.0]])

    def test_random_residuals(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            model = random_observable_model(rng)
            S = numerics.solve_dare(model.A, model.C, model.Q, model.R)
            res = dare_residual(model.A, model.C, model.Q, model.R, S)
            assert res <= 1e-9 * (1 + np.linalg.norm(S))
            assert np.min(np.linalg.eigvalsh(S)) >= -1e-9 * (1 + np.linalg.norm(S))


class TestSpectralSplit:
    def test_diagonal_reorder(self):
        A = np.diag([0.9, 1.1])
        V, T, nu = numerics.spectral_split(A)
        check_split(A, V, T, nu)
        assert nu == 1
        assert_allclose(T, np.diag([1.1, 0.9]), rtol=1e-12, atol=1e-15)

    def test_stable_matrix_empty_unstable_block(self):
        rng = np.random.default_rng(3)
        A = matrix_with_spectrum(rng, random_spectrum(rng, 3, allow_unstable=False))
        V, T, nu = numerics.spectral_split(A)
        check_split(A, V, T, nu)
        assert nu == 0

    def test_triangular_coupling_kept(self):
        # already in ordered Schur form: the basis can only flip signs,
        # and the coupling survives in T
        A = np.array([[1.2, 1.0], [0.0, 0.5]])
        V, T, nu = numerics.spectral_split(A)
        check_split(A, V, T, nu)
        assert nu == 1
        assert_allclose(np.abs(V), np.eye(2), atol=1e-12)
        assert_allclose(np.diag(T), [1.2, 0.5], atol=1e-12)
        assert_allclose(abs(T[0, 1]), 1.0, atol=1e-12)

    def test_eigenvalue_multiset_preserved(self):
        rng = np.random.default_rng(5)
        plants = [matrix_with_spectrum(rng, random_spectrum(rng, rng.integers(2, 7))) for _ in range(60)]
        plants += [model.A for model, _ in nonnormal_plants(5, 40)]
        for A in plants:
            V, T, nu = numerics.spectral_split(A)
            check_split(A, V, T, nu)


class TestCtrb:
    def test_diagonal(self):
        R = numerics.ctrb(np.diag([0.1, 0.2]), [1.0, 1.0])
        assert_allclose(R, [[1, 0.1], [1, 0.2]])
        assert np.linalg.matrix_rank(R, rtol=numerics.RANK_RTOL) == 2

    def test_jordan_block(self):
        X = np.array([[0.5, 1.0], [0.0, 0.5]])
        R = numerics.ctrb(X, [1.0, 1.0])
        assert_allclose(R, [[1, 1.5], [1, 0.5]])
        assert np.linalg.matrix_rank(R, rtol=numerics.RANK_RTOL) == 2

    def test_derogatory_identity(self):
        R = numerics.ctrb(np.eye(2), [1.0, 0.0])
        assert_allclose(R, [[1, 1], [0, 0]])
        assert np.linalg.matrix_rank(R, rtol=numerics.RANK_RTOL) == 1
