import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import linalg

from distkf import numerics
from distkf.errors import NoConvergenceError, NotDetectableError

from conftest import matrix_with_spectrum, random_observable_model, random_spectrum


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
        V, Vinv, Au, As = numerics.spectral_split(np.diag([0.9, 1.1]))
        assert Au.shape == (1, 1) and As.shape == (1, 1)
        assert_allclose(Au[0, 0], 1.1, rtol=1e-12)
        assert_allclose(As[0, 0], 0.9, rtol=1e-12)

    def test_stable_matrix_empty_unstable_block(self):
        rng = np.random.default_rng(3)
        A = matrix_with_spectrum(rng, random_spectrum(rng, 3, allow_unstable=False))
        V, Vinv, Au, As = numerics.spectral_split(A)
        assert Au.shape == (0, 0)
        assert_allclose(sorted(np.linalg.eigvals(As)), sorted(np.linalg.eigvals(A)), atol=1e-10)

    def test_triangular_coupling_removed(self):
        A = np.array([[1.2, 1.0], [0.0, 0.5]])
        V, Vinv, Au, As = numerics.spectral_split(A)
        assert_allclose(Au, [[1.2]], atol=1e-12)
        assert_allclose(As, [[0.5]], atol=1e-12)
        from scipy.linalg import block_diag

        assert_allclose(Vinv @ A @ V, block_diag(Au, As), atol=1e-12)

    def test_eigenvalue_multiset_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = rng.integers(2, 7)
            A = matrix_with_spectrum(rng, random_spectrum(rng, n))
            V, Vinv, Au, As = numerics.spectral_split(A)
            got = np.concatenate([np.linalg.eigvals(Au) if Au.size else [], np.linalg.eigvals(As) if As.size else []])
            want = np.linalg.eigvals(A)
            assert_allclose(
                np.sort_complex(np.round(got, 12)), np.sort_complex(np.round(want, 12)), atol=1e-8
            )
            assert np.all(np.abs(np.linalg.eigvals(Au)) >= 1 - 1e-9) if Au.size else True
            assert np.all(np.abs(np.linalg.eigvals(As)) < 1 - 1e-9) if As.size else True


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
