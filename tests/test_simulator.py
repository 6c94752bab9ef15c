from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import distkf
from distkf import _kernels, simulator
from distkf.decomposition import psd_factor
from distkf.errors import ConfigError

from conftest import heat_grid, matrix_with_spectrum, trial_config
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


class TestStepTruth:
    def test_deterministic_when_noiseless(self):
        model = distkf.SystemModel(
            A=np.diag([0.9, 1.1]), C=np.eye(2), Q=np.zeros((2, 2)), R=np.zeros((2, 2))
        )
        rng = np.random.default_rng(0)
        x = np.array([1.0, 1.0])
        for k in range(1, 6):
            x, y = distkf.step_truth(model, x, rng)
            assert_allclose(x, [0.9**k, 1.1**k], rtol=1e-12)
            assert_allclose(y, x, rtol=1e-12)

    def test_noise_covariance_recovered(self):
        Q = np.array([[0.5, 0.2], [0.2, 0.4]])
        model = distkf.SystemModel(A=np.zeros((2, 2)), C=np.eye(2), Q=Q, R=np.eye(2))
        rng = np.random.default_rng(3)
        N = 100_000
        ws = np.empty((N, 2))
        x = np.zeros(2)
        for k in range(N):
            xn, _ = distkf.step_truth(model, x, rng)
            ws[k] = xn  # A = 0, so x_next is exactly w
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


def _trial_inputs(model, designs, cfg):
    """Replay the noise and link weights run_trial draws for ``cfg``."""
    noise_ss, link_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    rng = np.random.Generator(np.random.Philox(noise_ss))
    Lq, Lr = psd_factor(model.Q), psd_factor(model.R)
    x0 = psd_factor(cfg.initial_state_cov) @ rng.standard_normal(model.n)
    w = rng.standard_normal((cfg.horizon, model.n)) @ Lq.T
    v = rng.standard_normal((cfg.horizon + 1, model.m)) @ Lr.T
    gains = cfg.strategy.sample_gains(designs.graph.adjacency, cfg.horizon, cfg.rounds_per_sample,
                                      np.random.Generator(np.random.Philox(link_ss)))
    return x0, w, v, gains


def _kernel_args(model, designs, cfg):
    """Positional arguments of the variant's kernel for ``cfg``, without
    the trailing replace_own."""
    x0, w, v, gains = _trial_inputs(model, designs, cfg)
    if cfg.variant == "alg1":
        blocks = designs.bundle.F
    else:
        blocks = np.stack([designs.reduced.T_blocks(i) for i in range(model.m)])
    kd = designs.kalman
    return (model.A, model.C, kd.Acl, kd.K, designs.bundle.S, designs.bundle.beta, blocks,
            designs.consensus.Gamma, gains, w, v[0], v[1:], x0)


# alg1 over static links without replace_own is
# test_stepwise_identities_and_kernel_match
_STEP_CASES = {
    "alg1-drop": dict(variant="alg1", strategy=distkf.bernoulli_drop_strategy(0.3)),
    "alg1-static-replace_own": dict(variant="alg1", replace_own=True),
    "alg1-drop-replace_own": dict(
        variant="alg1", strategy=distkf.bernoulli_drop_strategy(0.3), replace_own=True
    ),
    "alg2-static": dict(variant="alg2"),
    "alg2-drop": dict(variant="alg2", strategy=distkf.bernoulli_drop_strategy(0.3)),
}

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


class TestKernelAgainstStepFunctions:
    def _step_network(self, sc, designs, cfg):
        """Network simulation through the public single-node step API, on
        the noise and link weights of the kernel run; checks the
        consensus identities along the way."""
        model = sc.model
        n, m = model.n, model.m
        tr = distkf.run_trial(model, designs, cfg)  # kernel result + same noise
        gains = _trial_inputs(model, designs, cfg)[3]
        nodes = [distkf.init_node(cfg.variant, n, m, i) for i in range(m)]
        xhat = np.zeros(n)
        xbreve = np.zeros_like(tr.xbreve)
        for k in range(cfg.horizon):
            y = tr.y[k + 1]
            msgs = [distkf.simulator.node_message(nd, designs.consensus.Gamma) for nd in nodes]
            weights = gains[k, 0]
            new = []
            for i in range(m):
                neigh = [(weights[i, l], msgs[l]) for l in range(m) if weights[i, l] > 0]
                if cfg.variant == "alg1":
                    new.append(distkf.step_node_alg1(
                        nodes[i], designs.bundle, designs.consensus, neigh, y[i],
                        replace_own=cfg.replace_own,
                    ))
                else:
                    new.append(distkf.step_node_alg2(
                        nodes[i], designs.reduced, designs.bundle, designs.consensus, neigh, y[i]
                    ))
            nodes = new
            xhat = distkf.step_centralized(designs.kalman, xhat, y)
            if cfg.variant == "alg1":
                # sum_i eta_{i,j} = xi_j
                eta_sum = sum(nd.blocks for nd in nodes)
                for j in range(m):
                    assert np.linalg.norm(eta_sum[j] - nodes[j].xi) <= 1e-8 * (
                        1 + np.linalg.norm(nodes[j].xi)
                    )
            if not cfg.replace_own:
                # the node average is the centralized estimate
                avg = sum(nd.xbreve for nd in nodes) / m
                assert np.linalg.norm(avg - xhat) <= 1e-8 * (1 + np.linalg.norm(xhat))
            xbreve[k + 1] = [nd.xbreve for nd in nodes]
        return tr, xbreve

    def test_stepwise_identities_and_kernel_match(self, example1):
        sc, designs = example1
        cfg = trial_config(sc, horizon=30, seed=21, variant="alg1")
        tr, xbreve = self._step_network(sc, designs, cfg)
        assert_allclose(tr.xbreve, xbreve, rtol=1e-10)

    @pytest.mark.parametrize("case", list(_STEP_CASES), ids=list(_STEP_CASES))
    def test_kernel_matches_step_network(self, example1, case):
        sc, designs = example1
        cfg = trial_config(sc, horizon=30, seed=31, **_STEP_CASES[case])
        tr, xbreve = self._step_network(sc, designs, cfg)
        assert_allclose(tr.xbreve, xbreve, rtol=1e-10)

    @pytest.mark.parametrize("case", list(_LOOP_CASES), ids=list(_LOOP_CASES))
    def test_kernel_matches_loop_reference(self, example1, case):
        # the step functions run one consensus round per sample; the loop
        # kernels cover every round count
        sc, designs = example1
        cfg = trial_config(sc, horizon=25, seed=8, **_LOOP_CASES[case])
        args = _kernel_args(sc.model, designs, cfg)
        if cfg.variant == "alg1":
            got = _kernels.sim_alg1(*args, cfg.replace_own)
            want = sim_alg1_loops(*args, cfg.replace_own, cfg.rounds_per_sample)
        else:
            got = _kernels.sim_alg2(*args)
            want = sim_alg2_loops(*args, False, cfg.rounds_per_sample)
        for a, b in zip(got, want):
            # entries near zero carry the roundoff of the array's scale
            assert_allclose(a, b, rtol=1e-10, atol=1e-10 * np.max(np.abs(b)))
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
        args = [_kernel_args(model, designs, cfg) for cfg in cfgs]
        if variant == "alg1":
            kernel, loops, flag = _kernels.sim_alg1, sim_alg1_loops, (True,)
        else:
            kernel, loops, flag = _kernels.sim_alg2, sim_alg2_loops, ()
        wants = [loops(*a, replace_own, 2) for a in args]
        # the model and design matrices are shared; noise and links stack
        batched = kernel(*args[0][:8], *(np.stack(z) for z in zip(*(a[8:] for a in args))),
                         *flag)
        for t, (a, want) in enumerate(zip(args, wants)):
            for one, many, ref in zip(kernel(*a, *flag), batched, want):
                tol = dict(rtol=1e-10, atol=1e-10 * np.max(np.abs(ref)))
                assert_allclose(one, ref, **tol)
                assert_allclose(many[t], ref, **tol)

    def test_alg2_single_node_matches_alg1_fusion(self, example1):
        # with one node and no neighbors both variants reproduce the same
        # fused output (same transfer function from z to the estimate)
        sc, designs = example1
        n, m = 2, 4
        rng = np.random.default_rng(23)
        node1 = distkf.init_node("alg1", n, m, 0)
        node2 = distkf.init_node("alg2", n, m, 0)
        for _ in range(40):
            y = rng.standard_normal()
            node1 = distkf.step_node_alg1(node1, designs.bundle, designs.consensus, [], y)
            node2 = distkf.step_node_alg2(
                node2, designs.reduced, designs.bundle, designs.consensus, [], y
            )
            # single-node alg1: block i reproduces the local filter, others stay 0
            assert_allclose(node1.blocks[0], node1.xi, atol=1e-10)
            assert_allclose(node1.blocks[1:], 0.0, atol=1e-12)
            assert_allclose(node1.xbreve, node2.xbreve, atol=1e-7)

    def test_message_sizes(self, example1, example2_design):
        sc1, d1 = example1
        assert distkf.init_node("alg2", 2, 4, 0).msg.shape == (2,)
        node = distkf.init_node("alg2", 2, 4, 0)
        node = distkf.step_node_alg2(node, d1.reduced, d1.bundle, d1.consensus, [], 1.0)
        assert node.msg.shape == (2,)  # alg2 broadcasts n values
        sc2, d2 = example2_design
        node = distkf.init_node("alg1", 25, 15, 3)
        node = distkf.step_node_alg1(node, d2.bundle, d2.consensus, [], 1.0)
        assert node.msg.shape == (15,)  # alg1 broadcasts m values


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
    return _kernels.sim_alg1(*_kernel_args(sc.model, designs, cfg), replace_own)


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
        cfg = trial_config(sc, horizon=30, **_LOOP_CASES[case])
        seeds = [(41, t) for t in range(5)]
        batch = distkf.run_trial(sc.model, designs, cfg, seeds=seeds)
        assert batch.xbreve.shape == (5, 31, 4, 2)
        assert batch.seed == seeds
        for t, seed in enumerate(seeds):
            one = distkf.run_trial(sc.model, designs, replace(cfg, seed=seed))
            for name in ("x", "y", "xhat", "xbreve"):
                assert_allclose(getattr(batch, name)[t], getattr(one, name), rtol=1e-12)
            assert_allclose(batch.errors[t], one.errors, rtol=1e-12)

    @pytest.mark.parametrize("case", list(_LOOP_CASES), ids=list(_LOOP_CASES))
    def test_batched_monte_carlo_matches_trial_mean(self, example1, monkeypatch, case):
        sc, designs = example1
        cfg = trial_config(sc, horizon=20, seed=6, **_LOOP_CASES[case])
        T = 20
        fixed, step = _trial_bytes(cfg, n=2, m=4)
        # a chunk holds the steps that fit in 1/64 of the budget: take the
        # shortest chunk that a budget of 3 trials with that chunk gives back
        for chunk in range(1, T + 2):
            budget = 3 * (fixed + chunk * step)
            if min(T + 1, max(1, budget // (64 * step))) == chunk:
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
        # budgets that give chunks of 2 and 3 steps and of the whole
        # horizon, each run as three batches, the last of one trial
        sc, designs = example1
        cfg = trial_config(sc, horizon=horizon, seed=12, **_LOOP_CASES[case])
        step = _trial_bytes(cfg, n=2, m=4)[1]
        single = simulator.run_trial
        traces = []
        for chunk in (2, 3, horizon + 1):
            monkeypatch.setattr(simulator, "_BATCH_BYTES", 64 * step * chunk)
            size, got = simulator._batch_plan(sc.model, cfg, cfg.variant)
            assert got == min(chunk, horizon + 1)
            calls = []

            def counted(*args, **kwargs):
                calls.append((len(kwargs["seeds"]), kwargs["chunk"]))
                return single(*args, **kwargs)

            monkeypatch.setattr(simulator, "run_trial", counted)
            trials = 2 * size + 1
            res = distkf.run_monte_carlo(sc.model, designs, cfg, trials)
            assert calls == [(size, got), (size, got), (1, got)]
            traces += [single(sc.model, designs, replace(cfg, seed=(12, t)))
                       for t in range(len(traces), trials)]
            assert_allclose(res.mse, np.mean([tr.errors**2 for tr in traces[:trials]], axis=0),
                            rtol=1e-12)
            assert_allclose(res.dev_sq,
                            np.mean([tr.deviations**2 for tr in traces[:trials]], axis=0),
                            rtol=1e-12)


def _trial_bytes(cfg, n, m):
    """A trial's fixed working set and the bytes of one buffered step, as
    ``simulator._BATCH_BYTES`` counts them."""
    T = cfg.horizon
    r = m if cfg.variant == "alg1" else n
    fixed = 8 * (2 * m * (r + 1) * n + T * n + (T + 1) * 2 * (n + m))
    if not isinstance(cfg.strategy, distkf.StaticStrategy):
        fixed += 8 * T * cfg.rounds_per_sample * m * m
    return fixed, 16 * m * n


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
