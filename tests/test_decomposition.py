import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import distkf
from distkf import decomposition, numerics
from distkf.errors import ConfigError, IllConditionedError, PoleClashError
from distkf.kalman import KalmanDesign

from conftest import heat_grid, random_observable_model
from loop_kernels import isolated_nodes, lossless_residual


def fake_design(Acl):
    Acl = np.atleast_2d(np.asarray(Acl, dtype=float))
    n = Acl.shape[0]
    return KalmanDesign(Sigma=np.eye(n), Ppost=np.eye(n), K=np.zeros((n, 1)), Acl=Acl)


def stable_split(n):
    """Split of a stable n-state plant (nu = 0)."""
    model = distkf.build_system(0.5 * np.eye(n), np.eye(n), np.eye(n), np.eye(n))
    return distkf.split_model(model)


def modal_lambda(design, split, stable_poles=None):
    basis = distkf.design_S_beta(distkf.build_lambda(design), split, stable_poles=stable_poles)
    return basis, basis.S - np.outer(np.ones(len(basis.s)), basis.beta)


def assert_same_char_poly(X, Y, tol=1e-10):
    want = np.real(np.poly(Y))
    got = np.real(np.poly(X))
    assert_allclose(got, want, rtol=0, atol=tol * (1 + np.abs(want).max()))


def assert_controllable(X, p):
    """PBH test of the single-input pair (X, p): ``[X - z I, p]`` keeps full
    rank at every eigenvalue z, by the SVD rule ``sigma_min > 1e-10 sigma_max``."""
    n = X.shape[0]
    for z in np.linalg.eigvals(X):
        s = np.linalg.svd(np.column_stack([X - z * np.eye(n), p]), compute_uv=False)
        assert s[-1] > numerics.RANK_RTOL * s[0]


def assert_modal_identities(bundle, kd, split, tol=1e-10):
    """Every defining identity of the decomposition, at ``tol``."""
    n = bundle.n
    ones = np.ones(n)
    assert_same_char_poly(bundle.Lambda, kd.Acl, tol)
    assert_controllable(bundle.Lambda, ones)
    assert_allclose(bundle.Lambda, bundle.S - np.outer(ones, bundle.beta), rtol=0, atol=1e-14)
    for i in range(bundle.m):
        Fi = bundle.F[i]
        assert np.linalg.norm(Fi @ bundle.Lambda - kd.Acl @ Fi) <= tol * (1 + np.linalg.norm(Fi))
        assert np.linalg.norm(Fi @ ones - kd.K[:, i]) <= tol * (1 + np.linalg.norm(kd.K[:, i]))
        Giu = bundle.G[i][:, : split.nu]
        assert np.linalg.norm(bundle.S @ Giu - Giu @ split.Au) <= tol * (1 + np.linalg.norm(Giu))
        q = split.Ciu[i] @ split.Au
        assert np.linalg.norm(bundle.beta @ Giu - q) <= tol * (1 + np.linalg.norm(q))
    assert bundle.diagnostics["F"]["route"] == bundle.diagnostics["G"]["route"] == "modal"


class TestBuildLambda:
    def test_scalar_is_closed_loop(self):
        modes = distkf.build_lambda(fake_design([[0.37]]))
        assert_allclose(modes.lam, [0.37], rtol=1e-15)
        basis, lam = modal_lambda(fake_design([[0.37]]), stable_split(1))
        assert_allclose(lam, [[0.37]], rtol=1e-12)
        # the one stable pick sits one step off the closed-loop pole
        assert_allclose(basis.S, [[0.37 + 1.5e-3]], rtol=1e-12)

    def test_two_state_spectrum_and_controllability(self):
        # char poly s^2 - 0.5 s + 0.06 has roots 0.2 and 0.3
        _, lam = modal_lambda(fake_design(np.diag([0.2, 0.3])), stable_split(2))
        assert_allclose(sorted(np.linalg.eigvals(lam).real), [0.2, 0.3], atol=1e-12)
        assert np.linalg.matrix_rank(numerics.ctrb(lam, np.ones(2)), rtol=numerics.RANK_RTOL) == 2
        assert_allclose(np.real(np.poly(lam)), [1.0, -0.5, 0.06], atol=1e-12)

    def test_ring_example_shares_closed_loop_spectrum(self, example1):
        _, designs = example1
        got = np.sort_complex(np.linalg.eigvals(designs.bundle.Lambda))
        want = np.sort_complex(np.linalg.eigvals(designs.kalman.Acl))
        assert_allclose(got, want, atol=1e-8)

    def test_char_poly_matches_closed_loop(self):
        rng = np.random.default_rng(61)
        for _ in range(15):
            model = random_observable_model(rng)
            design = distkf.design_kalman(model)
            bundle = distkf.build_bundle(model, design)
            assert_same_char_poly(bundle.Lambda, design.Acl, 1e-10)

    def test_defective_closed_loop_refused(self):
        # a Jordan block is not diagonalizable
        with pytest.raises(IllConditionedError, match="defective"):
            distkf.build_lambda(fake_design([[0.5, 1.0], [0.0, 0.5]]))


class TestBuildF:
    def test_scalar_equals_gain_columns(self):
        model = distkf.build_system([[0.5]], [[1.0], [2.0]], [[1.0]], np.eye(2))
        design = distkf.design_kalman(model)
        bundle = distkf.build_bundle(model, design)
        assert_allclose(bundle.F[:, :, 0].T, design.K, atol=1e-12)

    def test_defining_identities(self, example1):
        _, designs = example1
        b = designs.bundle
        kd = designs.kalman
        ones = np.ones(b.n)
        for i in range(b.m):
            assert np.linalg.norm(b.F[i] @ b.Lambda - kd.Acl @ b.F[i]) <= 1e-10 * (
                1 + np.linalg.norm(b.F[i])
            )
            assert np.linalg.norm(b.F[i] @ ones - kd.K[:, i]) <= 1e-10

    def test_krylov_and_stacked_routes_agree(self):
        # F is unique given Lambda, so the closed form must equal both the
        # Krylov solution R_Y R_X^{-1} and the stacked Kronecker solve
        rng = np.random.default_rng(67)
        for _ in range(8):
            model = random_observable_model(rng, n=3, m=2)
            design = distkf.design_kalman(model)
            bundle = distkf.build_bundle(model, design)
            lam, F = bundle.Lambda, bundle.F
            assert bundle.diagnostics["F"]["route"] == "modal"
            n = 3
            ones = np.ones(n)
            RX = numerics.ctrb(lam, ones)
            stacked = np.vstack(
                [np.kron(lam.T, np.eye(n)) - np.kron(np.eye(n), design.Acl),
                 np.kron(ones, np.eye(n))]
            )
            for i in range(2):
                krylov = np.linalg.solve(RX.T, numerics.ctrb(design.Acl, design.K[:, i]).T).T
                assert_allclose(F[i], krylov, atol=1e-8)
                rhs = np.concatenate([np.zeros(n * n), design.K[:, i]])
                vec, *_ = np.linalg.lstsq(stacked, rhs, rcond=None)
                assert_allclose(F[i], vec.reshape((n, n), order="F"), atol=1e-8)


class TestDesignSBeta:
    def test_stable_plant_all_poles_free(self):
        # every pole of S is one of Acl's eigenvalues moved along the real
        # axis by a nonzero multiple of 1.5e-3, with the 1e-3 gaps kept
        rng = np.random.default_rng(71)
        model = random_observable_model(rng, n=3, m=2, allow_unstable=False)
        design = distkf.design_kalman(model)
        bundle = distkf.build_bundle(model, design)
        s = bundle.modal.s
        lam = np.linalg.eigvals(design.Acl)
        assert np.abs(s[:, None] - lam[None, :]).min() >= 1e-3
        assert (np.abs(s[:, None] - s[None, :]) + np.eye(3)).min() >= 1e-3
        for p in s:
            near = lam[np.argmin(np.abs(lam.real - p.real) + 1e3 * np.abs(lam.imag - p.imag))]
            steps = (p.real - near.real) / 1.5e-3
            assert abs(p.imag - near.imag) <= 1e-12
            assert round(steps) != 0 and abs(steps - round(steps)) <= 1e-9
        got = np.sort_complex(np.linalg.eigvals(bundle.S))
        assert_allclose(got, np.sort_complex(s), atol=1e-12)

    def test_ring_example_divisibility(self, example1):
        _, designs = example1
        b = designs.bundle
        # (s - 1.1) divides char(S)
        quothat, rem = np.polydiv(b.phiS, np.array([1.0, -1.1]))
        assert np.abs(rem).max() <= 1e-7
        gap = np.min(
            np.abs(np.linalg.eigvals(b.S)[:, None] - np.linalg.eigvals(b.Lambda)[None, :])
        )
        assert gap >= 1e-3

    def test_scalar_unstable(self):
        model = distkf.build_system([[1.1]], [[1.0]], [[1.0]], [[1.0]])
        design = distkf.design_kalman(model)
        basis, lam = modal_lambda(design, distkf.split_model(model))
        assert_allclose(lam, design.Acl, rtol=1e-12)
        assert_allclose(basis.beta, [1.1 - design.Acl[0, 0]], rtol=1e-12)
        assert_allclose(basis.S, [[1.1]], rtol=1e-12)

    def test_pole_clash_rejected(self, example1):
        _, designs = example1
        modes = distkf.build_lambda(designs.kalman)
        clash = [np.linalg.eigvals(designs.bundle.Lambda)[0].real]
        with pytest.raises(PoleClashError):
            distkf.design_S_beta(modes, designs.split, stable_poles=clash)
        # 1e-3 is the least admissible distance
        near = [clash[0] + 0.9e-3]
        with pytest.raises(PoleClashError):
            distkf.design_S_beta(modes, designs.split, stable_poles=near)

    def test_user_poles_respected(self, example1):
        _, designs = example1
        basis = distkf.design_S_beta(
            distkf.build_lambda(designs.kalman), designs.split, stable_poles=[0.25]
        )
        got = np.sort(np.linalg.eigvals(basis.S).real)
        assert_allclose(got, [0.25, 1.1], atol=1e-12)

    def test_complex_user_poles_respected(self):
        model = distkf.build_system(
            np.diag([1.1, 0.5, 0.3]), [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]],
            np.eye(3), np.eye(3),
        )
        design = distkf.design_kalman(model)
        split = distkf.split_model(model)
        picks = [0.2 - 0.3j, 0.2 + 0.3j]
        bundle = distkf.build_bundle(model, design, split=split, stable_poles=picks)
        want = np.sort_complex(np.array([1.1, *picks]))
        assert_allclose(np.sort_complex(np.linalg.eigvals(bundle.S)), want, atol=1e-12)
        assert_modal_identities(bundle, design, split)

    def test_malformed_user_poles(self, example1):
        _, designs = example1
        modes = distkf.build_lambda(designs.kalman)
        for bad in ([0.2, 0.3], [1.2], [0.2 + 0.1j]):
            with pytest.raises(ConfigError):
                distkf.design_S_beta(modes, designs.split, stable_poles=bad)


class TestModalIdentities:
    def test_random_plants_with_complex_spectra(self):
        # the conftest plants have complex closed-loop eigenvalues and
        # complex unstable pairs; every identity holds in the real form
        rng = np.random.default_rng(59)
        complex_acl = complex_unstable = 0
        for _ in range(40):
            model = random_observable_model(rng)
            design = distkf.design_kalman(model)
            split = distkf.split_model(model)
            bundle = distkf.build_bundle(model, design, split=split)
            assert_modal_identities(bundle, design, split)
            complex_acl += np.any(np.linalg.eigvals(design.Acl).imag != 0)
            complex_unstable += np.any(bundle.modal.s[: split.nu].imag != 0)
        assert complex_acl >= 5 and complex_unstable >= 2

    @pytest.mark.parametrize("A", [
        np.eye(2),                            # two random walks
        np.diag([1.05, 1.05, 0.5]),
        np.diag([1.0, 1.0, 1.0, 0.5]),        # a chain of three
        np.diag([1.1, 1.1, 1.2, 0.3]),        # a chain next to a simple pole
        np.array([[1.0, 1.0], [0.0, 1.0]]),   # double integrator: Au is defective
    ], ids=["I2", "double", "triple", "mixed", "integrator"])
    def test_repeated_unstable_pole(self, A):
        # a repeated unstable plant pole is carried by a Jordan chain of S
        n = A.shape[0]
        C = np.random.default_rng(n).standard_normal((n + 1, n))
        model = distkf.build_system(A, C, 0.1 * np.eye(n), np.eye(n + 1))
        split = distkf.split_model(model)
        for variant in ("alg1", "alg2"):
            designs = distkf.design_pipeline(model, distkf.ring_graph(n + 1), variant=variant)
        assert np.any(designs.bundle.modal.link)
        assert_modal_identities(designs.bundle, designs.kalman, split)
        assert lossless_residual(designs.bundle, model, designs.kalman, 200, 0) <= 1e-10
        _assert_impulse_match(designs.bundle, designs.reduced, steps=50)
        assert np.all(designs.consensus.spectral_radii < 1.0)

    def test_heat_identities(self, example2_design):
        sc, designs = example2_design
        assert_modal_identities(designs.bundle, designs.kalman, designs.split)
        assert designs.bundle.diagnostics["conditioning"] <= 1e-2


class TestBuildG:
    def test_stable_plant_zero_G(self):
        rng = np.random.default_rng(73)
        model = random_observable_model(rng, n=3, m=2, allow_unstable=False)
        design = distkf.design_kalman(model)
        split = distkf.split_model(model)
        bundle = distkf.build_bundle(model, design, split=split)
        assert_allclose(bundle.G, np.zeros_like(bundle.G))

    def test_ring_example_identities(self, example1):
        _, designs = example1
        b, split = designs.bundle, designs.split
        Au = split.Au
        for i in range(b.m):
            Giu = b.G[i][:, : split.nu]
            assert np.linalg.norm(b.S @ Giu - Giu @ Au) <= 1e-8 * (1 + np.linalg.norm(Giu))
            assert np.linalg.norm(b.beta @ Giu - split.Ciu[i] @ Au) <= 1e-8
            assert_allclose(b.G[i][:, split.nu :], 0.0, atol=1e-12)
        # the sensor reading the unstable state has a nonzero block
        assert np.linalg.norm(b.G[1]) > 1e-3

    def test_scalar_unstable_identities(self):
        model = distkf.build_system([[1.1]], [[2.0]], [[1.0]], [[1.0]])
        design = distkf.design_kalman(model)
        bundle = distkf.build_bundle(model, design)
        g = bundle.G[0, 0, 0]
        # S g = g * 1.1 is trivial (S = [[1.1]]); beta g = C^u A^u
        assert_allclose(bundle.beta[0] * g, 2.0 * 1.1, rtol=1e-8)


class TestStepLocalFilter:
    def test_same_io_as_raw_measurement_form(self, example1):
        # S xi + 1 (y - beta' xi) == Lambda xi + 1 y
        _, designs = example1
        b = designs.bundle
        rng = np.random.default_rng(79)
        for _ in range(20):
            xi = rng.standard_normal(2)
            y = rng.standard_normal()
            got = b.S @ xi + np.ones(2) * (y - b.beta @ xi)
            want = b.Lambda @ xi + np.ones(2) * y
            assert_allclose(got, want, atol=1e-12 * (1 + np.linalg.norm(want)))

    def test_residual_bounded_while_measurement_grows(self, example1):
        sc, designs = example1
        b = designs.bundle
        rng = np.random.default_rng(83)
        x0 = rng.standard_normal(2)
        y_all = isolated_nodes(sc.model, designs.kalman, b, rng, 220, x0)[1]
        xi = np.zeros((4, 2))
        ys, zs = [], []
        for y in y_all[1:]:
            z = y - xi @ b.beta
            xi = xi @ b.S.T + np.outer(z, np.ones(2))
            ys.append(y)
            zs.append(z)
        ys, zs = np.array(ys), np.array(zs)
        # unstable plant: late measurement power dwarfs the early one
        assert ys[-50:].var(axis=0).max() > 10 * ys[:50].var(axis=0).max()
        assert zs[-50:].var(axis=0).max() < 5 * max(zs[20:70].var(axis=0).max(), 1.0)


class TestLossless:
    def test_zero_noise_zero_everything(self):
        model = distkf.SystemModel(
            A=np.diag([0.9, 1.1]),
            C=np.array([[1.0, 0], [0, 1], [1, 1], [1, -1]]),
            Q=np.zeros((2, 2)),
            R=np.zeros((4, 4)),
        )
        noisy = distkf.build_system(model.A, model.C, 0.25 * np.eye(2), 4 * np.eye(4))
        design = distkf.design_kalman(noisy)
        bundle = distkf.build_bundle(noisy, design)
        assert lossless_residual(bundle, model, design, 50, 1) == 0.0

    def test_ring_example(self, example1):
        sc, designs = example1
        assert lossless_residual(designs.bundle, sc.model, designs.kalman, 200, 9) <= 1e-7

    def test_random_systems(self):
        rng = np.random.default_rng(89)
        for _ in range(15):
            model = random_observable_model(rng)
            design = distkf.design_kalman(model)
            bundle = distkf.build_bundle(model, design)
            seed = int(rng.integers(1 << 31))
            assert lossless_residual(bundle, model, design, 200, seed) <= 1e-7

    def test_violation_detected(self, example1):
        sc, designs = example1
        b = designs.bundle
        broken = distkf.DecompositionBundle(
            Lambda=b.Lambda, beta=b.beta, S=b.S, F=1.01 * b.F, G=b.G, phiS=b.phiS
        )
        assert lossless_residual(broken, sc.model, designs.kalman, 50, 2) > 1e-7


def _tracking_errors(model, design, bundle, split, horizon, seed):
    rng = np.random.default_rng(seed)
    n, m = model.n, model.m
    x0 = rng.standard_normal(n)
    plant_x, plant_y = isolated_nodes(model, design, bundle, rng, horizon, x0)[:2]
    xi = np.zeros((m, n))
    eps = []
    for x, y in zip(plant_x[1:], plant_y[1:]):
        z = y - xi @ bundle.beta
        xi = xi @ bundle.S.T + np.outer(z, np.ones(n))
        xsplit = split.V.T @ x
        eps.append(np.array([bundle.G[i] @ xsplit - xi[i] for i in range(m)]))
    return np.array(eps)


class TestTrackingErrorStability:
    def test_bounded_variance_ring_example(self, example1):
        # eps_i = G_i (x in split coordinates) - xi_i stays bounded; the
        # horizon keeps 1.1^k inside the float cancellation budget
        sc, designs = example1
        eps = _tracking_errors(sc.model, designs.kalman, designs.bundle, designs.split, 250, 97)
        early = eps[50:150].var(axis=0).max()
        late = eps[150:250].var(axis=0).max()
        assert late < 5 * max(early, 1.0)

    def test_bounded_variance_500_steps_marginal_plant(self):
        # a random-walk mode grows too slowly to exhaust float precision,
        # so the full 500-step window is meaningful here
        model = distkf.build_system(
            np.diag([1.0, 0.6]), np.array([[1.0, 1.0], [1.0, -1.0]]),
            0.2 * np.eye(2), np.eye(2),
        )
        design = distkf.design_kalman(model)
        split = distkf.split_model(model)
        bundle = distkf.build_bundle(model, design, split=split)
        eps = _tracking_errors(model, design, bundle, split, 500, 103)
        early = eps[100:300].var(axis=0).max()
        late = eps[300:500].var(axis=0).max()
        assert late < 5 * max(early, 1.0)


class TestReduceModel:
    def test_scalar(self):
        model = distkf.build_system([[1.1]], [[1.0], [1.0]], [[1.0]], np.eye(2))
        design = distkf.design_kalman(model)
        bundle = distkf.build_bundle(model, design)
        red = distkf.reduce_model(bundle)
        assert red.H.shape == (1, 1)
        assert red.T.shape == (1, 2)
        # reconstruction: F_i = H_1 p_i1(S) exactly in the scalar case
        for i in range(2):
            assert_allclose(red.H[0, 0] * red.alpha[i, 0, 0], bundle.F[i, 0, 0], rtol=1e-9)

    def test_ring_example_order(self, example1):
        _, designs = example1
        red = designs.reduced
        assert red.H.shape == (2, 4)   # n x n^2
        assert red.T.shape == (4, 4)   # n^2 x m
        # reconstruction identity F_i = sum_j H_j p_ij(S)
        b = designs.bundle
        for i in range(4):
            rec = np.zeros((2, 2))
            for j in range(2):
                Pij = np.zeros((2, 2))
                Sp = np.eye(2)
                for l in range(2):
                    Pij += red.alpha[i, j, l] * Sp
                    Sp = Sp @ b.S
                Hj = np.zeros((2, 2))
                Hj[j] = b.beta
                rec += Hj @ Pij
            assert np.linalg.norm(rec - b.F[i]) <= 1e-7 * (1 + np.linalg.norm(b.F[i]))

    def test_impulse_response_match(self):
        rng = np.random.default_rng(101)
        for _ in range(5):
            model = random_observable_model(rng, n=2, m=4)
            design = distkf.design_kalman(model)
            bundle = distkf.build_bundle(model, design)
            red = distkf.reduce_model(bundle)
            _assert_impulse_match(bundle, red, steps=50)

    def test_ill_conditioned_rejected(self, example1, example2_design):
        # the monomial coefficients are filled only while cond(K_beta) <=
        # 1e12; the realization itself never needs them
        assert example1[1].reduced.alpha is not None
        sc, designs = example2_design
        red = distkf.reduce_model(designs.bundle)
        assert red.alpha is None
        assert "exceeds 1e+12" in red.alpha_skipped_reason
        assert red.T.shape == (sc.model.n ** 2, sc.model.m)

    def test_heat_alg2_impulse_response_match(self, example2_design):
        sc, designs = example2_design
        alg2 = distkf.design_pipeline(
            sc.model, sc.graph, zeta=sc.zeta, stable_poles=sc.stable_poles, variant="alg2"
        )
        _assert_impulse_match(alg2.bundle, alg2.reduced, steps=50)

    def test_bundle_without_modal_basis_refused(self, example1):
        _, designs = example1
        b = designs.bundle
        bare = distkf.DecompositionBundle(
            Lambda=b.Lambda, beta=b.beta, S=b.S, F=b.F, G=b.G, phiS=b.phiS
        )
        with pytest.raises(ConfigError):
            distkf.reduce_model(bare)


def _assert_impulse_match(bundle, red, steps=50):
    n, m = bundle.n, bundle.m
    Sfull = np.kron(np.eye(m), bundle.S)
    Lfull = np.kron(np.eye(m), np.ones((n, 1)))
    Sred = np.kron(np.eye(n), bundle.S)
    Fmat = bundle.Fstack
    for ch in range(m):
        z = np.zeros(m)
        z[ch] = 1.0
        xi = Lfull @ z
        th = red.T @ z
        for _ in range(steps):
            out_full = Fmat @ xi
            out_red = red.H @ th
            assert np.linalg.norm(out_full - out_red) <= 1e-7 * (1 + np.linalg.norm(out_full))
            xi = Sfull @ xi
            th = Sred @ th


class TestDeadbeatPlant:
    def test_pole_retry_escapes_clash(self):
        # A = 0 makes the closed loop deadbeat, so the default stable pick
        # at 0 collides with Lambda's spectrum and the retry shift engages
        model = distkf.build_system([[0.0]], [[1.0]], [[1.0]], [[1.0]])
        design = distkf.design_kalman(model)
        bundle = distkf.build_bundle(model, design)
        assert abs(np.linalg.eigvals(bundle.S)[0]) > 1e-3
        assert lossless_residual(bundle, model, design, 100, 0) <= 1e-7


class TestLargeSystemConstruction:
    def test_heat_bundle_residuals(self, example2_design):
        sc, designs = example2_design
        b = designs.bundle
        kd = designs.kalman
        ones = np.ones(b.n)
        # the closed form keeps the defining identities at roundoff at n = 25
        assert designs.bundle.diagnostics["F"]["route"] == "modal"
        assert designs.bundle.diagnostics["F"]["residual"] <= 1e-12
        assert designs.bundle.diagnostics["G"]["residual"] <= 1e-12
        for i in range(b.m):
            assert np.linalg.norm(b.F[i] @ b.Lambda - kd.Acl @ b.F[i]) <= 1e-10 * (
                1 + np.linalg.norm(b.F[i])
            )
            assert np.linalg.norm(b.F[i] @ ones - kd.K[:, i]) <= 1e-10

    def test_heat_controllability_warning(self):
        # the pairs (Lambda, 1) and (S', beta) pass the PBH test on heat,
        # and the build warns about nothing
        sc = distkf.example2_scenario(trials=1)
        design = distkf.design_kalman(sc.model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bundle = distkf.build_bundle(sc.model, design)
        assert_controllable(bundle.Lambda, np.ones(bundle.n))
        assert_controllable(bundle.S.T, bundle.beta)


class TestHeatLosslessness:
    """Defect 1: the companion basis lost losslessness on heat (6.9e-5)."""

    def test_example2(self, example2_design):
        sc, designs = example2_design
        assert lossless_residual(designs.bundle, sc.model, designs.kalman, 200, 3) <= 1e-10

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_heat_grids(self, seed):
        model, _ = heat_grid(seed)
        design = distkf.design_kalman(model)
        bundle = distkf.build_bundle(model, design)
        assert lossless_residual(bundle, model, design, 200, seed) <= 1e-10
