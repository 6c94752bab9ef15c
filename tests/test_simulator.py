import inspect
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import distkf
from distkf import _kernels, simulator
from distkf.errors import ConfigError

from conftest import (
    edges,
    heat_grid,
    kernel_batch,
    kernel_run,
    loop_args,
    matrix_with_spectrum,
    run_kernel,
    trial_config,
    trial_draws,
)
from loop_kernels import sim_alg1_loops, sim_alg2_loops


class TestVariantSelection:
    def test_auto_rule(self):
        assert distkf.resolve_variant("auto", 2, 4) == "alg2"
        assert distkf.resolve_variant("auto", 25, 15) == "alg1"
        assert distkf.resolve_variant("auto", 3, 3) == "alg1"

    def test_explicit_passthrough(self):
        assert distkf.resolve_variant("alg1", 2, 4) == "alg1"
        with pytest.raises(ConfigError):
            distkf.resolve_variant("alg3", 2, 4)

    def test_message_dimension(self):
        assert distkf.message_dimension("alg1", 2, 4) == 4
        assert distkf.message_dimension("alg2", 2, 4) == 2
        # auto resolves first: alg1 (messages of size m) when n >= m
        assert distkf.message_dimension("auto", 25, 15) == 15
        assert distkf.message_dimension("auto", 2, 4) == 2


class TestPlantNoise:
    def test_deterministic_when_noiseless(self, example1):
        sc, designs = example1
        model = replace(sc.model, Q=np.zeros((2, 2)), R=np.zeros((4, 4)))
        tr = distkf.run_trial(model, designs, trial_config(sc, horizon=5, seed=0))
        for k in range(6):
            assert_allclose(tr.x[k], np.linalg.matrix_power(model.A, k) @ tr.x[0], rtol=1e-12)
        assert_allclose(tr.y, tr.x @ model.C.T, rtol=1e-12)

    def test_noise_covariance_recovered(self, example1):
        sc, designs = example1
        Q = np.array([[0.5, 0.2], [0.2, 0.4]])
        model = replace(sc.model, Q=Q)
        cfg = trial_config(sc, horizon=100)
        xs = np.stack([distkf.run_trial(model, designs, replace(cfg, seed=(3, t))).x
                       for t in range(1000)])
        ws = (xs[:, 1:] - xs[:, :-1] @ model.A.T).reshape(-1, 2)
        N = len(ws)
        emp = ws.T @ ws / N
        for a in range(2):
            for b in range(2):
                sigma = np.sqrt((Q[a, a] * Q[b, b] + Q[a, b] ** 2) / N)
                assert abs(emp[a, b] - Q[a, b]) <= 3.5 * sigma


class TestRunTrial:
    def test_horizon_zero(self, example1):
        sc, designs = example1
        tr = distkf.run_trial(sc.model, designs, trial_config(sc, horizon=0))
        assert tr.x.shape == (1, 2)
        assert tr.xbreve.shape == (1, 4, 2)
        assert_allclose(tr.xbreve[0], 0.0)

    def test_deterministic_bitwise(self, example1):
        sc, designs = example1
        cfg = trial_config(sc, horizon=40, seed=77)
        a = distkf.run_trial(sc.model, designs, cfg)
        b = distkf.run_trial(sc.model, designs, cfg)
        for name in ("x", "y", "xhat", "xbreve"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_initial_state_sampled(self, example1):
        sc, designs = example1
        x0s = [
            distkf.run_trial(sc.model, designs, trial_config(sc, horizon=0, seed=(5, t))).x[0]
            for t in range(400)
        ]
        x0s = np.array(x0s)
        var = x0s.var(axis=0)
        assert np.all(np.abs(var - 1.0) < 3.5 * np.sqrt(2.0 / 400))

    def test_exact_average_both_variants_and_strategies(self, example1):
        sc, designs = example1
        for variant in ("alg1", "alg2"):
            for strategy in (distkf.static_strategy(), distkf.bernoulli_drop_strategy(0.3)):
                for seed in (1, 2, 3):
                    cfg = trial_config(
                        sc, horizon=60, seed=seed, variant=variant, strategy=strategy
                    )
                    tr = distkf.run_trial(sc.model, designs, cfg)
                    gap = np.abs(tr.xbreve.mean(axis=1) - tr.xhat)
                    scale = 1.0 + np.abs(tr.xhat)
                    assert np.max(gap / scale) <= 1e-8

    @pytest.mark.parametrize("overrides", [
        dict(variant="alg2"),
        dict(variant="alg1", strategy=distkf.bernoulli_drop_strategy(0.3), rounds_per_sample=2),
    ], ids=["alg2-x0", "alg1-drop-2"])
    def test_draws_follow_the_documented_streams(self, example1, overrides):
        # trial seed s draws x(0) (under initial_state_cov), w and v from
        # child 0 of SeedSequence(s).spawn(2), and the link flags from
        # child 1, which kernel_run restates
        sc, designs = example1
        cfg = trial_config(sc, horizon=30, seed=(17, 4), **overrides)
        assert cfg.initial_state_cov is not None
        tr = distkf.run_trial(sc.model, designs, cfg)
        for name, want in zip(("x", "y", "xhat", "xbreve"), kernel_run(sc.model, designs, cfg)):
            assert_allclose(getattr(tr, name), want, rtol=1e-12,
                            atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("drop", [0.0, 0.3], ids=["static", "bernoulli"])
    def test_streams_are_the_spawned_children(self, example1, monkeypatch, drop):
        # run_trial builds the children of SeedSequence(s) directly, and the
        # link stream only for a strategy that draws from it; their first
        # draws are those of SeedSequence(s).spawn(2)
        sc, designs = example1
        strategy = distkf.bernoulli_drop_strategy(drop) if drop else distkf.static_strategy()
        built, child_rng = [], simulator._rng

        def kept(seed, child):
            rng = child_rng(seed, child)
            built.append((child, rng.bit_generator.state))
            return rng
        monkeypatch.setattr(simulator, "_rng", kept)
        distkf.run_trial(sc.model, designs, trial_config(sc, horizon=5, seed=(17, 4),
                                                         variant="alg1", strategy=strategy))
        children = np.random.SeedSequence((17, 4)).spawn(2)
        assert [child for child, _ in built] == ([0, 1] if drop else [0])
        for child, state in built:
            got = np.random.Philox()
            got.state = state
            want = np.random.Philox(children[child])
            assert np.array_equal(np.random.Generator(got).standard_normal(8),
                                  np.random.Generator(want).standard_normal(8))

    def test_alg2_requires_reduced(self, example1):
        sc, designs = example1
        bare = distkf.DesignSet(
            kalman=designs.kalman, split=designs.split, bundle=designs.bundle,
            consensus=designs.consensus, graph=designs.graph, reduced=None,
        )
        with pytest.raises(ConfigError):
            distkf.run_trial(sc.model, bare, trial_config(sc, variant="alg2"))

    def test_replace_own_requires_alg1(self, example1):
        sc, designs = example1
        with pytest.raises(ConfigError):
            distkf.run_trial(
                sc.model, designs, trial_config(sc, variant="alg2", replace_own=True)
            )


def _run_alg1(trials=None, seeds=None, **overrides):
    """A call that runs example1 with alg1 and the given trial options:
    Monte Carlo when ``trials`` is given, a batch when ``seeds`` is, one
    trial otherwise."""
    def call(sc, designs):
        cfg = trial_config(sc, variant="alg1", **overrides)
        if trials is None:
            return distkf.run_trial(sc.model, designs, cfg, seeds=seeds)
        return distkf.run_monte_carlo(sc.model, designs, cfg, trials)
    return call


class TestBadLibraryInputs:
    """Library callers get the checks the CLI's scenarios get: each of
    these raises ConfigError with one line, before any kernel step and
    without a warning."""

    @pytest.mark.parametrize("call, needle", [
        # 1.1^8000 overflows the plant state long before the last step
        (_run_alg1(trials=20, horizon=8000), "the limit is 289 steps"),
        (lambda sc, designs: distkf.bernoulli_drop_strategy(1.0), "drop_prob"),
        (_run_alg1(seed=-1), "seed"),
        (_run_alg1(replace_own="no"), "true or false"),
        (_run_alg1(initial_state_cov=np.diag([-1.0, 1.0])), "semidefinite"),
        (_run_alg1(seeds=[(1, 2), -1]), "seed"),
        (_run_alg1(seeds=[(1, 2.5)]), "seed"),
        (_run_alg1(horizon=40.9), "horizon must be an integer"),
        (_run_alg1(rounds_per_sample=1.9), "rounds_per_sample must be an integer"),
        # a stable plant, so only the memory bound stops a horizon whose
        # trace would need 64 PB
        (lambda sc, designs: distkf.run_monte_carlo(
            replace(sc.model, A=np.diag([0.9, 0.5])), designs,
            trial_config(sc, variant="alg1", horizon=10**15), 20),
         "the limit is 4194303 steps"),
    ], ids=["horizon-growth", "drop-one", "seed-negative", "replace-own-text",
            "x0-cov-indefinite", "batch-seed-negative", "batch-seed-float", "horizon-float",
            "rounds-float", "horizon-memory"])
    def test_rejected(self, example1, monkeypatch, call, needle):
        sc, designs = example1

        def no_kernel(*args):
            raise AssertionError("the kernel ran")
        monkeypatch.setattr(_kernels, "sim_alg1", no_kernel)
        monkeypatch.setattr(_kernels, "sim_alg2", no_kernel)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError) as exc:
                call(sc, designs)
        message = str(exc.value)
        assert needle in message and "\n" not in message

    @pytest.mark.parametrize("changes", [
        dict(horizon=30), dict(steady_window=(60, 50)), dict(steady_window=(-1, 50)),
        dict(steady_window=(50, 102)),
    ], ids=["horizon-below-window", "window-reversed", "window-negative", "window-past-horizon"])
    def test_steady_window_inside_horizon(self, changes):
        # a window past the horizon once averaged an empty slice into NaN
        sc = distkf.builtin_scenario("example1", trials=2)
        with pytest.raises(ConfigError) as exc:
            replace(sc, **changes)
        message = str(exc.value)
        assert "steady_window" in message and "\n" not in message


_LOOP_CASES = {
    "alg1-static-1": dict(variant="alg1"),
    "alg1-drop-3": dict(variant="alg1", strategy=distkf.bernoulli_drop_strategy(0.2),
                        rounds_per_sample=3),
    "alg1-static-2-replace_own": dict(variant="alg1", rounds_per_sample=2, replace_own=True),
    "alg1-drop-3-replace_own": dict(variant="alg1", strategy=distkf.bernoulli_drop_strategy(0.2),
                                    rounds_per_sample=3, replace_own=True),
    "alg2-static-1": dict(variant="alg2"),
    "alg2-static-2": dict(variant="alg2", rounds_per_sample=2),
    "alg2-drop-3": dict(variant="alg2", strategy=distkf.bernoulli_drop_strategy(0.2),
                        rounds_per_sample=3),
    "alg1-drop-1": dict(variant="alg1", strategy=distkf.bernoulli_drop_strategy(0.3)),
    "alg1-static-1-replace_own": dict(variant="alg1", replace_own=True),
    "alg1-drop-1-replace_own": dict(variant="alg1", strategy=distkf.bernoulli_drop_strategy(0.3),
                                    replace_own=True),
    "alg2-drop-1": dict(variant="alg2", strategy=distkf.bernoulli_drop_strategy(0.3)),
}


# plant spectra whose S is not diagonal: an unstable complex pair gives
# a real 2x2 block, a repeated real unstable pole a Jordan link
_BLOCK_S_PLANTS = {
    "pair": [1.15 * np.exp(0.7j), 1.15 * np.exp(-0.7j), 0.4],
    "jordan": [1.1, 1.1, 0.5],
}


def _block_S_design(eigs):
    """A 3-state plant with spectrum ``eigs`` watched by 4 sensors on a
    complete graph, designed for both variants."""
    rng = np.random.default_rng(0)
    A = matrix_with_spectrum(rng, np.asarray(eigs, dtype=complex))
    model = distkf.build_system(A, rng.standard_normal((4, 3)), 0.5 * np.eye(3), np.eye(4))
    graph = distkf.build_graph(np.ones((4, 4)) - np.eye(4))
    return model, distkf.design_pipeline(model, graph, variant="alg2")


# plants whose S splits otherwise than example1's, each watched by 4
# sensors on a complete graph: the filtered stable block of S holds a
# complex pair (a 2x2 entry), a stable plant (nu = 0, Gamma = 0, every
# coordinate filtered), and an unstable one (nothing filtered)
_SPLIT_PLANTS = {
    "stable-pair": ([1.2, 0.5, -0.3, 0.2, 0.6], [0.3 + 0.4j, 0.3 - 0.4j, 0.2, -0.1]),
    "stable": ([0.5, -0.3, 0.2, 0.6], None),
    "unstable": ([1.2, -1.1, 1.05 * np.exp(0.5j), 1.05 * np.exp(-0.5j)], None),
}


def _split_design(plant):
    """The plant ``_SPLIT_PLANTS[plant]`` and its variant-1 design, with
    the split the kernel takes for it asserted."""
    eigs, poles = _SPLIT_PLANTS[plant]
    n = len(eigs)
    rng = np.random.default_rng(1)
    A = matrix_with_spectrum(rng, np.asarray(eigs, dtype=complex))
    model = distkf.build_system(A, rng.standard_normal((4, n)), 0.5 * np.eye(n), np.eye(4))
    graph = distkf.build_graph(np.ones((4, 4)) - np.eye(4))
    designs = distkf.design_pipeline(model, graph, stable_poles=poles, variant="alg1")
    S, Gamma = designs.bundle.S, designs.consensus.Gamma
    p = _kernels._coupled_block(S, Gamma)
    assert p == {"stable-pair": 1, "stable": 0, "unstable": n}[plant]
    assert n - p == 0 or n - p >= _kernels._MIN_FILTERED
    if plant == "stable-pair":
        assert np.count_nonzero(S[p:, p:] - np.diag(np.diag(S[p:, p:]))) == 2
    if plant == "stable":
        assert not np.any(Gamma)
    return model, designs


class TestKernelAgainstLoopReference:
    @pytest.mark.parametrize("case", list(_LOOP_CASES), ids=list(_LOOP_CASES))
    def test_kernel_matches_loop_reference(self, example1, case):
        sc, designs = example1
        cfg = trial_config(sc, horizon=25, seed=8, **_LOOP_CASES[case])
        loops = sim_alg1_loops if cfg.variant == "alg1" else sim_alg2_loops
        got = kernel_run(sc.model, designs, cfg)
        want = loops(*loop_args(sc.model, designs, cfg.variant,
                                trial_draws(sc.model, designs, cfg)),
                     cfg.replace_own, cfg.rounds_per_sample)
        for a, b in zip(got, want):
            # entries near zero carry the roundoff of the array's scale
            assert_allclose(a, b, rtol=1e-10, atol=1e-10 * np.max(np.abs(b)))
        xhat, xbreve = got[2:4]
        if not cfg.replace_own:
            # the node average is the centralized estimate at every step
            gap = np.linalg.norm(xbreve.mean(axis=1) - xhat, axis=1)
            assert np.all(gap <= 1e-8 * (1 + np.linalg.norm(xhat, axis=1)))
        if cfg.variant == "alg1":
            # sum_i eta_ij = xi_j: consensus keeps the sum of the copies
            xi, eta = want[4:]
            gap = np.linalg.norm(eta.sum(axis=0) - xi, axis=1)
            assert np.all(gap <= 1e-8 * (1 + np.linalg.norm(xi, axis=1)))
        tr = distkf.run_trial(sc.model, designs, cfg)
        assert np.array_equal(tr.xbreve, got[3])

    @pytest.mark.parametrize("variant", ["alg1", "alg2"])
    @pytest.mark.parametrize("plant", list(_BLOCK_S_PLANTS), ids=list(_BLOCK_S_PLANTS))
    def test_kernel_matches_loop_reference_on_block_S(self, plant, variant):
        # example1's S is diagonal; here S has a 2x2 block or a Jordan
        # link, and Gamma two nonzeros
        model, designs = _block_S_design(_BLOCK_S_PLANTS[plant])
        S = designs.bundle.S
        assert np.count_nonzero(S - np.diag(np.diag(S))) == (2 if plant == "pair" else 1)
        assert np.count_nonzero(designs.consensus.Gamma) == 2
        replace_own = variant == "alg1"
        cfgs = [distkf.TrialConfig(horizon=25, seed=(3, t), variant=variant,
                                   replace_own=replace_own, rounds_per_sample=2,
                                   initial_state_cov=np.eye(3)) for t in range(3)]
        loops = sim_alg1_loops if variant == "alg1" else sim_alg2_loops
        wants = [loops(*loop_args(model, designs, variant, trial_draws(model, designs, cfg)),
                       replace_own, 2) for cfg in cfgs]
        batched = kernel_batch(model, designs, cfgs)
        for t, (cfg, want) in enumerate(zip(cfgs, wants)):
            for one, many, ref in zip(kernel_run(model, designs, cfg), batched, want):
                tol = dict(rtol=1e-10, atol=1e-10 * np.max(np.abs(ref)))
                assert_allclose(one, ref, **tol)
                assert_allclose(many[t], ref, **tol)

    @pytest.mark.parametrize("replace_own", [False, True], ids=["", "replace_own"])
    @pytest.mark.parametrize("horizon", [1, _kernels._BLOCK - 1, _kernels._BLOCK,
                                         _kernels._BLOCK + 1])
    @pytest.mark.parametrize("plant", list(_SPLIT_PLANTS))
    def test_kernel_matches_loop_reference_on_split_S(self, plant, horizon, replace_own):
        # single traces run in blocks of _BLOCK steps: horizons around it end
        # in a full block, a partial one, or one block and one step
        model, designs = _split_design(plant)
        cfgs = [distkf.TrialConfig(horizon=horizon, seed=(7, t), variant="alg1",
                                   replace_own=replace_own, rounds_per_sample=2,
                                   initial_state_cov=np.eye(model.n)) for t in range(3)]
        wants = [sim_alg1_loops(*loop_args(model, designs, "alg1",
                                           trial_draws(model, designs, cfg)),
                                replace_own, 2) for cfg in cfgs]
        batched = kernel_batch(model, designs, cfgs)
        for t, (cfg, want) in enumerate(zip(cfgs, wants)):
            # x, y, xhat, xbreve, xi and the final consensus state
            for one, many, ref in zip(kernel_run(model, designs, cfg), batched, want):
                tol = dict(rtol=1e-10, atol=1e-10 * np.max(np.abs(ref)))
                assert_allclose(one, ref, **tol)
                assert_allclose(many[t], ref, **tol)

    @pytest.mark.parametrize("plant", list(_SPLIT_PLANTS))
    def test_block_sums_match_loop_reference_on_split_S(self, plant):
        # Monte-Carlo blocks of 3 steps over 17 steps, the last one partial
        model, designs = _split_design(plant)
        draws = [trial_draws(model, designs, distkf.TrialConfig(
            horizon=17, seed=(8, t), variant="alg1", strategy=distkf.bernoulli_drop_strategy(0.3),
            initial_state_cov=np.eye(model.n))) for t in range(4)]
        wants = [sim_alg1_loops(*loop_args(model, designs, "alg1", d), False, 1) for d in draws]
        out = run_kernel(model, designs, "alg1", draws, chunk=3)
        err = sum((want[3] - want[0][:, None]) ** 2 for want in wants)
        dev = sum((want[3] - want[2][:, None]) ** 2 for want in wants)
        for got, ref in ((out[6], err), (out[7], dev)):
            assert_allclose(got, ref, rtol=1e-10, atol=1e-10 * np.max(ref))
        for t, want in enumerate(wants):
            assert_allclose(out[5][t], want[5], rtol=1e-10, atol=1e-10 * np.max(np.abs(want[5])))

    def test_fixed_links_that_differ_per_trial(self, example1):
        # one-step flags that differ between the trials of a batch take the
        # per-edge path instead of the Laplacian shared by the batch
        sc, designs = example1
        draws = [list(trial_draws(sc.model, designs, trial_config(
            sc, horizon=25, seed=(9, t), variant="alg1", rounds_per_sample=2)))
            for t in range(2)]
        draws[1][0] = draws[1][0].copy()
        draws[1][0][0, 1, 2] = False  # trial 1 never uses edge 2 in round 2
        batched = run_kernel(sc.model, designs, "alg1", draws)
        for t, one in enumerate(draws):
            want = sim_alg1_loops(*loop_args(sc.model, designs, "alg1", one), False, 2)
            for many, ref in zip(batched, want):
                assert_allclose(many[t], ref, rtol=1e-10, atol=1e-10 * np.max(np.abs(ref)))

    def test_isolated_alg2_matches_alg1_fusion(self, example1):
        # with every link cut both variants reproduce the same fused output
        # (same transfer function from z to the estimate)
        sc, designs = example1
        draws = list(trial_draws(sc.model, designs, trial_config(sc, horizon=40, seed=23,
                                                                 variant="alg2")))
        draws[0] = np.zeros_like(draws[0])  # every link flag down
        xbreve2 = sim_alg2_loops(*loop_args(sc.model, designs, "alg2", draws), False, 1)[3]
        _, _, _, xbreve1, xi, eta = sim_alg1_loops(*loop_args(sc.model, designs, "alg1", draws),
                                                   False, 1)
        # alg1: node i's own block is its local filter, the others stay 0
        own = np.eye(4, dtype=bool)
        assert_allclose(eta[own], xi, atol=1e-10)
        assert_allclose(eta[~own], 0.0, atol=1e-12)
        assert_allclose(xbreve1, xbreve2, atol=1e-10)

    def test_message_sizes(self, example1, example2_design):
        # node i broadcasts its consensus state times Gamma: n values under
        # alg2 (example1), m under alg1 (example2)
        for (sc, d), variant, size in ((example1, "alg2", 2), (example2_design, "alg1", 15)):
            state = kernel_run(sc.model, d, trial_config(sc, horizon=3, variant=variant))[5]
            assert (state @ d.consensus.Gamma).shape == (sc.model.m, size)


class TestReplaceOwn:
    def test_output_only_substitution(self, example1):
        sc, designs = example1
        base = dict(horizon=25, seed=5, variant="alg1")
        tr_a = distkf.run_trial(sc.model, designs, trial_config(sc, **base, replace_own=False))
        tr_b = distkf.run_trial(sc.model, designs, trial_config(sc, **base, replace_own=True))
        # identical noise and consensus state: truth and central agree bitwise
        assert np.array_equal(tr_a.x, tr_b.x)
        assert np.array_equal(tr_a.xhat, tr_b.xhat)
        # outputs differ
        assert not np.allclose(tr_a.xbreve[5:], tr_b.xbreve[5:])
        # consensus internals identical: kernel final eta comparison
        out_a = _run_kernel(sc, designs, replace_own=False)
        out_b = _run_kernel(sc, designs, replace_own=True)
        assert np.array_equal(out_a[5], out_b[5])


def _run_kernel(sc, designs, replace_own):
    cfg = trial_config(sc, horizon=25, seed=5, variant="alg1", replace_own=replace_own)
    return kernel_run(sc.model, designs, cfg)


class TestConsensusDecay:
    def test_geometric_decay_without_residual_drive(self, example1):
        # after cutting the residual injection the deviations contract at
        # the designed mode rate
        sc, designs = example1
        b, cons = designs.bundle, designs.consensus
        adj = designs.graph.adjacency
        m, n = 4, 2
        rng = np.random.default_rng(29)
        eta = rng.standard_normal((m, m, n))  # arbitrary disagreement
        rho_max = float(np.max(cons.spectral_radii))
        prev = None
        ratios = []
        for k in range(25):
            delta = eta @ cons.Gamma
            coup = adj @ delta - adj.sum(axis=1)[:, None] * delta
            eta = eta @ b.S.T + coup[:, :, None] * np.ones(n)
            dev = eta - eta.mean(axis=0)
            norm = np.max(np.linalg.norm(dev.reshape(m, -1), axis=1))
            if prev is not None and prev > 1e-12:
                ratios.append(norm / prev)
            prev = norm
        # after the transient every per-step contraction obeys the bound
        assert max(ratios[5:]) <= rho_max + 0.05


class TestBatchedTrials:
    @pytest.mark.parametrize("case", list(_LOOP_CASES), ids=list(_LOOP_CASES))
    def test_slices_match_single_trials(self, example1, case):
        sc, designs = example1
        cfgs = [trial_config(sc, horizon=30, seed=(41, t), **_LOOP_CASES[case])
                for t in range(5)]
        batch = kernel_batch(sc.model, designs, cfgs)
        assert batch[3].shape == (5, 31, 4, 2)
        for t, cfg in enumerate(cfgs):
            for many, want in zip(batch, kernel_run(sc.model, designs, cfg)):
                # entries near zero carry the roundoff of the array's scale
                assert_allclose(many[t], want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("case", list(_LOOP_CASES), ids=list(_LOOP_CASES))
    def test_batched_monte_carlo_matches_trial_mean(self, example1, monkeypatch, case):
        sc, designs = example1
        cfg = trial_config(sc, horizon=20, seed=6, **_LOOP_CASES[case])
        T = 20
        fixed, step = _trial_bytes(cfg, designs.graph, n=2)
        # a block holds at most _BLOCK steps and those that fit in 1/16 of
        # the budget: take the shortest block that a budget of 3 trials with
        # that block gives back
        for chunk in range(1, T + 1):
            budget = 3 * (fixed + chunk * step)
            if min(T, _kernels._BLOCK, budget // (16 * step)) == chunk:
                break
        monkeypatch.setattr(simulator, "_BATCH_BYTES", budget)
        calls = []
        single = simulator.run_trial

        def counted(*args, **kwargs):
            calls.append(len(kwargs["seeds"]))
            return single(*args, **kwargs)

        monkeypatch.setattr(simulator, "run_trial", counted)
        res = distkf.run_monte_carlo(sc.model, designs, cfg, 8)
        assert calls == [3, 3, 2]
        traces = [single(sc.model, designs, replace(cfg, seed=(6, t))) for t in range(8)]
        assert_allclose(res.mse, np.mean([tr.errors**2 for tr in traces], axis=0), rtol=1e-12)
        assert_allclose(res.dev_sq, np.mean([tr.deviations**2 for tr in traces], axis=0),
                        rtol=1e-12)

    @pytest.mark.parametrize("horizon", [0, 1, 20])
    @pytest.mark.parametrize("case", list(_LOOP_CASES), ids=list(_LOOP_CASES))
    def test_chunked_sums_match_trial_mean(self, example1, monkeypatch, case, horizon):
        # budgets that give blocks of 2, 3 and _BLOCK steps (at most the
        # horizon), each run as three batches, the last of one trial
        sc, designs = example1
        cfg = trial_config(sc, horizon=horizon, seed=12, **_LOOP_CASES[case])
        step = _trial_bytes(cfg, designs.graph, n=2)[1]
        calls = []

        def counted(kernel):
            def wrapper(*args, **kwargs):
                bound = inspect.signature(kernel).bind(*args, **kwargs).arguments
                calls.append((len(bound["w"]), bound["chunk"]))
                return kernel(*args, **kwargs)
            return wrapper

        for name in ("sim_alg1", "sim_alg2"):
            monkeypatch.setattr(_kernels, name, counted(getattr(_kernels, name)))
        traces = []
        for chunk in (2, 3, _kernels._BLOCK):
            monkeypatch.setattr(simulator, "_BATCH_BYTES", 16 * step * chunk)
            size, got = simulator._batch_plan(sc.model, designs.graph, cfg, cfg.variant)
            assert got == max(1, min(chunk, horizon))
            trials = 2 * size + 1
            calls.clear()
            res = distkf.run_monte_carlo(sc.model, designs, cfg, trials)
            assert calls == [(size, got), (size, got), (1, got)]
            traces += [distkf.run_trial(sc.model, designs, replace(cfg, seed=(12, t)))
                       for t in range(len(traces), trials)]
            assert_allclose(res.mse, np.mean([tr.errors**2 for tr in traces[:trials]], axis=0),
                            rtol=1e-12)
            assert_allclose(res.dev_sq,
                            np.mean([tr.deviations**2 for tr in traces[:trials]], axis=0),
                            rtol=1e-12)


    def test_batch_plan_sizes(self, example1, example2_design):
        # static links count no flag bytes; example1 under drops stores one
        # byte per step, round and edge (1.2 KB a trial for 4 edges)
        for (sc, designs), size, chunk in ((example1, 102, 16), (example2_design, 4, 10)):
            cfg = sc.trial_config()
            variant = distkf.resolve_variant(cfg.variant, sc.model.n, sc.model.m)
            assert simulator._batch_plan(sc.model, designs.graph, cfg, variant) == (size, chunk)
        sc, designs = example1
        cfg = trial_config(sc, variant="alg1", rounds_per_sample=3,
                           strategy=distkf.bernoulli_drop_strategy(0.2))
        size, chunk = simulator._batch_plan(sc.model, designs.graph, cfg, "alg1")
        assert size >= 60 and chunk == 16


class TestBatchMemory:
    @pytest.mark.parametrize("example, overrides", [
        ("example2", {}),
        ("example1", {}),
        ("example1", dict(variant="alg1", rounds_per_sample=3,
                          strategy=distkf.bernoulli_drop_strategy(0.2))),
    ], ids=["example2", "example1", "example1-drop"])
    def test_batch_peak_within_twice_the_budget(self, example1, example2_design, example,
                                                overrides):
        # the batch plan counts every buffer the kernel holds per trial, so
        # a batch of its size stays within twice the budget (the rest is
        # the batch's sums and the trial-free tables)
        sc, designs = example2_design if example == "example2" else example1
        cfg = trial_config(sc, **overrides)
        variant = distkf.resolve_variant(cfg.variant, sc.model.n, sc.model.m)
        size = simulator._batch_plan(sc.model, designs.graph, cfg, variant)[0]
        tracemalloc.start()
        try:
            distkf.run_trial(sc.model, designs, cfg, seeds=[(3, t) for t in range(size)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * simulator._BATCH_BYTES


def _trial_bytes(cfg, graph, n):
    """A trial's fixed working set and the bytes of one block step, as
    ``simulator._BATCH_BYTES`` counts them: one byte per link flag."""
    T, m = cfg.horizon, graph.m
    r = m if cfg.variant == "alg1" else n
    fixed = 8 * (T * n + (T + 1) * 2 * (n + m) + n * m + 3 * n * r * m)
    if not isinstance(cfg.strategy, distkf.StaticStrategy):
        fixed += T * cfg.rounds_per_sample * edges(graph.adjacency)[0].size
    return fixed, 8 * m * (n + 2 * r + 2 + max(n, 2 * r))


class TestMonteCarlo:
    def test_single_trial_reduces_to_run_trial(self, example1):
        sc, designs = example1
        cfg = trial_config(sc, horizon=20, seed=123)
        res = distkf.run_monte_carlo(sc.model, designs, cfg, 1)
        tr = distkf.run_trial(sc.model, designs, trial_config(sc, horizon=20, seed=(123, 0)))
        assert np.array_equal(res.mse, tr.errors**2)

    def test_reproducible(self, example1):
        sc, designs = example1
        cfg = trial_config(sc, horizon=15, seed=9)
        a = distkf.run_monte_carlo(sc.model, designs, cfg, 8)
        b = distkf.run_monte_carlo(sc.model, designs, cfg, 8)
        assert np.array_equal(a.mse, b.mse)

    def test_rejects_zero_trials(self, example1):
        sc, designs = example1
        with pytest.raises(ConfigError):
            distkf.run_monte_carlo(sc.model, designs, trial_config(sc), 0)


class TestCsvExport:
    def test_trace_schema_and_determinism(self, tmp_path, example1):
        sc, designs = example1
        tr = distkf.run_trial(sc.model, designs, trial_config(sc, horizon=10, seed=4))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        distkf.write_trace_csv(tr, p1)
        distkf.write_trace_csv(tr, p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert len(lines) == 12  # header + 11 rows
        header = lines[0].split(",")
        assert header[:5] == ["k", "x_1", "x_2", "xhat_1", "xhat_2"]
        assert header[5] == "node1_xbreve_1"
        assert header[-1] == "node4_xbreve_2"
        row0 = lines[1].split(",")
        assert row0[0] == "0"
        # round-trip float fidelity
        assert float(row0[1]) == tr.x[0, 0]

    def test_mse_schema(self, tmp_path, example1):
        sc, designs = example1
        res = distkf.run_monte_carlo(sc.model, designs, trial_config(sc, horizon=6, seed=2), 3)
        p = tmp_path / "mse.csv"
        distkf.write_mse_csv(res, p)
        lines = p.read_text().splitlines()
        assert len(lines) == 8
        header = lines[0].split(",")
        assert header[1] == "node1_mse_1"
        assert "node1_mse" in header


class TestHeatLinkDrops:
    def test_deviation_power_under_drops(self):
        # a dropped link leaves an imbalance of the size of the internal
        # states; with the huge states of a companion-basis design the
        # deviation power rose from about 0.5 to about 3e7 with 10% drops
        model, graph = heat_grid(5)
        designs = distkf.design_pipeline(model, graph, variant="alg1")
        power = {}
        for drop in (0.0, 0.1):
            strategy = distkf.bernoulli_drop_strategy(drop) if drop else distkf.static_strategy()
            cfg = distkf.TrialConfig(horizon=100, seed=17, variant="alg1", strategy=strategy)
            res = distkf.run_monte_carlo(model, designs, cfg, 10)
            power[drop] = res.tr_wbar(slice(50, 101)) / model.m
        assert power[0.1] <= 2.0 * power[0.0]
