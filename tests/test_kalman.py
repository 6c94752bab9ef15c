import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import linalg

import distkf
from distkf import _kernels, numerics
from distkf.decomposition import psd_factor
from distkf.errors import NotDetectableError

from conftest import random_observable_model


def scalar_model(a):
    return distkf.build_system([[a]], [[1.0]], [[1.0]], [[1.0]])


class TestDesignKalman:
    def test_static_scalar(self):
        d = distkf.design_kalman(scalar_model(0.0))
        assert_allclose(d.Sigma, [[1.0]], atol=1e-12)
        assert_allclose(d.K, [[0.5]], atol=1e-12)
        assert_allclose(d.Ppost, [[0.5]], atol=1e-12)
        assert_allclose(d.Acl, [[0.0]], atol=1e-12)

    def test_golden_ratio_scalar(self):
        d = distkf.design_kalman(scalar_model(1.0))
        phi = (1 + np.sqrt(5)) / 2
        assert_allclose(d.Sigma[0, 0], phi, rtol=1e-12)
        assert_allclose(d.K[0, 0], phi / (phi + 1), rtol=1e-12)
        assert_allclose(d.Acl[0, 0], 1 - phi / (phi + 1), rtol=1e-12)

    def test_ring_example_stable_loop(self, example1):
        _, designs = example1
        assert numerics.spectral_radius(designs.kalman.Acl) < 1.0

    def test_unstable_mode_not_driven_by_q(self):
        # Q = 0 leaves the unstable mode 1.2 unexcited, so S = 0 also solves
        # the Riccati equation; only the stabilising root is correct
        model = distkf.build_system([[1.2]], [[1.0], [1.0]], [[0.0]], np.eye(2))
        d = distkf.design_kalman(model)
        ref = linalg.solve_discrete_are(model.A.T, model.C.T, model.Q, model.R)
        assert_allclose(d.Sigma, ref, rtol=1e-12)
        assert d.Sigma[0, 0] > 0.0
        assert_allclose(numerics.spectral_radius(d.Acl), 1 / 1.2, rtol=1e-12)

    def test_gain_and_posterior_identities(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            model = random_observable_model(rng)
            d = distkf.design_kalman(model)
            G = model.C @ d.Sigma @ model.C.T + model.R
            assert_allclose(d.K, d.Sigma @ model.C.T @ np.linalg.inv(G), atol=1e-9)
            assert_allclose(d.Ppost, (np.eye(model.n) - d.K @ model.C) @ d.Sigma, atol=1e-9)
            assert numerics.spectral_radius(d.Acl) < 1.0

    def test_riccati_recursion_oracle(self):
        # time-varying recursion from identity converges to the fixed point
        rng = np.random.default_rng(37)
        for _ in range(10):
            model = random_observable_model(rng, n=int(rng.integers(1, 5)))
            d = distkf.design_kalman(model)
            P = np.eye(model.n)
            for _ in range(200):
                G = model.C @ P @ model.C.T + model.R
                APC = model.A @ P @ model.C.T
                P = model.A @ P @ model.A.T - APC @ np.linalg.solve(G, APC.T) + model.Q
                P = 0.5 * (P + P.T)
            assert_allclose(P, d.Sigma, atol=1e-6 * (1 + np.linalg.norm(d.Sigma)))


class TestClosedLoop:
    def test_innovation_form_identity(self):
        # Acl xhat + K y = A xhat + K (y - C A xhat)
        rng = np.random.default_rng(41)
        model = random_observable_model(rng, n=3, m=2)
        d = distkf.design_kalman(model)
        want = model.A - d.K @ model.C @ model.A
        assert_allclose(d.Acl, want, atol=1e-12 * (1 + np.linalg.norm(want)))


class TestLocalKF:
    def test_ring_sensor_one_not_detectable(self, example1):
        sc, _ = example1
        # first sensor reads only the stable state
        with pytest.raises(NotDetectableError):
            distkf.design_local_kf(sc.model, 0)

    def test_ring_other_sensors_detectable(self, example1):
        sc, designs = example1
        for i in (1, 2, 3):
            d = distkf.design_local_kf(sc.model, i)
            assert numerics.spectral_radius(d.Acl) < 1.0
            assert np.trace(d.Ppost) >= np.trace(designs.kalman.Ppost) - 1e-9

    def test_huge_noise_still_detectable(self):
        model = distkf.build_system(
            np.diag([0.9, 1.1]), np.array([[1.0, 1.0], [1.0, -1.0]]),
            0.1 * np.eye(2), 1e6 * np.eye(2),
        )
        d = distkf.design_local_kf(model, 0)
        assert np.isfinite(np.trace(d.Ppost))
        assert np.trace(d.Ppost) > 1.0

    def test_heat_sensors_all_detectable(self, example2_design):
        sc, designs = example2_design
        baselines = distkf.local_baselines(sc.model)
        assert all(b is not None for b in baselines)
        ratios = [np.trace(b.Ppost) / np.trace(designs.kalman.Ppost) for b in baselines]
        assert min(ratios) > 1.0


class TestOrthogonality:
    def test_innovation_uncorrelated_with_estimate(self, example1):
        # steady state: innovation at k+1 is orthogonal to the estimate at k
        sc, designs = example1
        model, b = sc.model, designs.bundle
        trials, burn = 400, 60
        # per trial, x(0) and then w(k), v(k) for k = 0..burn, in draw order
        z = np.random.default_rng(53).standard_normal((trials, 2 + 6 * (burn + 1)))
        wv = z[:, 2:].reshape(trials, burn + 1, 6)
        w, v = wv[..., :2] @ psd_factor(model.Q).T, wv[..., 2:] @ psd_factor(model.R).T
        _, y, xhat = _kernels.sim_alg1(
            model.A, model.C, designs.kalman.Acl, designs.kalman.K, b.S, b.beta, b.F,
            designs.consensus.Gamma, np.zeros((1, 1, 1, 4, 4)), w, np.zeros((trials, 4)), v,
            z[:, :2], False,
        )[:3]
        innov = y[:, burn + 1] - xhat[:, burn] @ (model.C @ model.A).T
        prods = innov[:, :, None] * xhat[:, burn, None, :]
        mean = prods.mean(axis=0)
        stderr = prods.std(axis=0, ddof=1) / np.sqrt(trials)
        assert np.all(np.abs(mean) <= 3.0 * stderr + 1e-12)
