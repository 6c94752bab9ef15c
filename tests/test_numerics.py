import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import linalg

from distkf import numerics
from distkf.errors import NotDetectableError, UnstableMatrixError

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

    def test_random_residuals(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            model = random_observable_model(rng)
            S = numerics.solve_dare(model.A, model.C, model.Q, model.R)
            res = dare_residual(model.A, model.C, model.Q, model.R, S)
            assert res <= 1e-9 * (1 + np.linalg.norm(S))
            assert np.min(np.linalg.eigvalsh(S)) >= -1e-9 * (1 + np.linalg.norm(S))


class TestSolveDlyap:
    def test_zero_map(self):
        assert_allclose(numerics.solve_dlyap(np.zeros((2, 2)), np.eye(2)), np.eye(2))

    def test_scalar_closed_form(self):
        # W = V / (1 - F^2)
        assert_allclose(numerics.solve_dlyap([[0.5]], [[3.0]]), [[4.0]], rtol=1e-12)

    def test_decoupled_diagonal(self):
        W = numerics.solve_dlyap(np.diag([0.2, 0.5]), np.eye(2))
        assert_allclose(W, np.diag([1 / 0.96, 4 / 3]), rtol=1e-12)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableMatrixError):
            numerics.solve_dlyap([[1.0]], [[1.0]])

    def test_series_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = rng.integers(1, 5)
            F = matrix_with_spectrum(rng, random_spectrum(rng, n, allow_unstable=False))
            F *= 0.9 / max(numerics.spectral_radius(F), 0.9)
            B = rng.standard_normal((n, n))
            V = B @ B.T
            W = numerics.solve_dlyap(F, V)
            acc = np.zeros((n, n))
            Fk = np.eye(n)
            for _ in range(201):
                acc += Fk @ V @ Fk.T
                Fk = F @ Fk
            assert_allclose(W, acc, atol=1e-6 * (1 + np.linalg.norm(W)))


class TestDlyapAgainstScipy:
    """The doubling solver against scipy's Schur-based solver (kept here
    only as the reference) on larger, complex-spectrum and near-boundary
    inputs."""

    RTOL = 1e-10

    @staticmethod
    def _check(F, V):
        W = numerics.solve_dlyap(F, V)
        ref = linalg.solve_discrete_lyapunov(F, V)
        assert np.linalg.norm(W - ref) <= TestDlyapAgainstScipy.RTOL * np.linalg.norm(ref)

    @pytest.mark.parametrize("n, seed", [(65, 1), (129, 2), (250, 3)])
    def test_matches_scipy(self, n, seed):
        rng = np.random.default_rng(seed)
        F = matrix_with_spectrum(rng, random_spectrum(rng, n, allow_unstable=False))
        T, _ = linalg.schur(F, output="real")
        assert np.count_nonzero(np.diag(T, -1)) >= 10  # complex pairs present
        B = rng.standard_normal((n, n))
        self._check(F, B @ B.T)

    def test_midpoint_on_complex_pair(self):
        # F is already in real Schur form, with a 2x2 block straddling
        # rows 63-64
        rng = np.random.default_rng(4)
        sizes = [2] * 31 + [1, 2] + [2] * 32
        F = np.triu(0.3 * rng.standard_normal((129, 129)), 1)
        k = 0
        for size in sizes:
            if size == 1:
                F[k, k] = rng.uniform(-0.9, 0.9)
            else:
                r, th = rng.uniform(0.2, 0.9), rng.uniform(0.2, np.pi - 0.2)
                b = rng.uniform(0.5, 2.0)
                F[k : k + 2, k : k + 2] = [[r * np.cos(th), r * np.sin(th) * b],
                                           [-r * np.sin(th) / b, r * np.cos(th)]]
            k += size
        T, _ = linalg.schur(F, output="real")
        assert T[64, 63] != 0.0
        B = rng.standard_normal((129, 129))
        self._check(F, B @ B.T)

    def test_near_boundary_non_normal(self):
        # spectral radius 0.999 on a Jordan-like 3-block coupled to a
        # stable remainder: the stop rule needs 15 doublings here
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
        self._check(F, B @ B.T)

    def test_unit_modulus_pair_rejected(self):
        rng = np.random.default_rng(5)
        eigs = np.concatenate([random_spectrum(rng, 78, allow_unstable=False),
                               np.exp([0.7j, -0.7j])])
        F = matrix_with_spectrum(rng, eigs)
        T, _ = linalg.schur(F, output="real")
        # every diagonal entry is inside the disc: only the 2x2 block is not
        assert np.abs(np.diag(T)).max() < 0.95
        with pytest.raises(UnstableMatrixError):
            numerics.solve_dlyap(F, np.eye(80))


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
