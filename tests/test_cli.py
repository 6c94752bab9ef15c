import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import distkf
from distkf import cli


def write_config(path, **overrides):
    cfg = {
        "system": {
            "A": [[0.9, 0.0], [0.0, 1.1]],
            "C": [[1, 0], [0, 1], [1, 1], [1, -1]],
            "Q": [[0.25, 0], [0, 0.25]],
            "R": np.diag([4.0] * 4).tolist(),
        },
        "graph": {"kind": "ring", "m": 4, "weight": 1.0},
        "design": {"zeta": 0.5},
        "sim": {"horizon": 10, "trials": 1, "seed": 9,
                "initial_state_cov": [[1, 0], [0, 1]]},
    }
    for key, val in overrides.items():
        cfg[key] = val
    path.write_text(json.dumps(cfg))
    return path


class TestExitCodes:
    def test_check_ok(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        assert cli.main(["check", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "mahler measure:   1.1" in out
        assert "feasible:         True" in out

    def test_missing_config_file(self):
        assert cli.main(["check", "--config", "/nonexistent.json"]) == 2

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert cli.main(["check", "--config", str(p)]) == 2

    def test_dimension_mismatch(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            system={"A": [[0.9]], "C": [[1, 0]], "Q": [[0.25]], "R": [[4.0]]},
        )
        assert cli.main(["check", "--config", str(cfg)]) == 2

    def test_unobservable(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            system={"A": [[0.9, 0], [0, 1.1]], "C": [[0, 0]],
                    "Q": [[0.25, 0], [0, 0.25]], "R": [[4.0]]},
            graph={"kind": "custom", "adjacency": [[0.0]]},
        )
        assert cli.main(["check", "--config", str(cfg)]) == 3

    def test_disconnected_graph(self, tmp_path):
        adj = np.zeros((4, 4))
        adj[0, 1] = adj[1, 0] = 1.0
        adj[2, 3] = adj[3, 2] = 1.0
        cfg = write_config(tmp_path / "c.json", graph={"kind": "custom", "adjacency": adj.tolist()})
        assert cli.main(["check", "--config", str(cfg)]) == 3

    def test_infeasible_mahler(self, tmp_path):
        # path graph of 3: bound = 2 < Mahler 2.5
        adj = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        cfg = write_config(
            tmp_path / "c.json",
            system={"A": [[2.5]], "C": [[1.0], [1.0], [1.0]],
                    "Q": [[1.0]], "R": np.eye(3).tolist()},
            graph={"kind": "custom", "adjacency": adj},
            design={},
            sim={"horizon": 5, "trials": 1, "seed": 0},
        )
        assert cli.main(["check", "--config", str(cfg)]) == 3

    def test_oversized_matrix_guard(self, tmp_path):
        big = np.eye(65).tolist()
        cfg = write_config(
            tmp_path / "c.json",
            system={"A": big, "C": big, "Q": big, "R": big},
            graph={"kind": "ring", "m": 65},
        )
        assert cli.main(["check", "--config", str(cfg)]) == 2


class TestDesignCommand:
    def test_writes_design_json(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert cli.main(["design", "--config", str(cfg), "--out", str(out)]) == 0
        data = json.loads((out / "design.json").read_text())
        assert data["variant"] == "alg2"
        assert data["message_size"] == 2
        assert data["consensus"]["feasible"] is True
        assert np.asarray(data["decomposition"]["F"]).shape == (4, 2, 2)
        assert np.asarray(data["reduced"]["alpha"]).shape == (4, 2, 2)
        assert data["reduced"]["alpha_skipped_reason"] is None
        # Pmare is zero outside the unstable block (the second coordinate)
        P = np.asarray(data["consensus"]["Pmare"])
        assert P[0, 0] > 0 and np.all(P[1] == 0) and np.all(P[:, 1] == 0)
        assert (out / "feasibility.txt").exists()


class TestSimulateCommand:
    def test_outputs_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        trace = (out1 / "trace.csv").read_text().splitlines()
        assert len(trace) == 12  # header + horizon + 1
        for name in ("trace.csv", "mse.csv", "covariance.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        cov = json.loads((out1 / "covariance.json").read_text())
        assert cov["variant"] == "alg2"
        assert cov["analytic"] is not None
        assert len(cov["analytic"]["per_node_trace"]) == 4
        assert 0.0 < cov["analytic"]["residual"] <= 1e-12

    def test_trials_override(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "o"
        assert cli.main([
            "simulate", "--config", str(cfg), "--out", str(out), "--trials", "3",
        ]) == 0
        cov = json.loads((out / "covariance.json").read_text())
        assert cov["trials"] == 3

    def test_analytic_skipped_above_size_cap(self, tmp_path):
        out = tmp_path / "o"
        code = cli.main(["simulate", "--example", "example2", "--out", str(out), "--trials", "2"])
        assert code == 0
        cov = json.loads((out / "covariance.json").read_text())
        assert cov["analytic"] is None
        assert "exceeds cap" in cov["analytic_skipped_reason"]
        assert len(cov["empirical_node_mse"]) == 15


class TestAnalyticSkippedForUnmodeledRuns:
    """The covariance model has one consensus round per sample, static
    links and the unchanged read-out: a run with more rounds, link drops
    or ``replace_own`` writes no analytic covariance and prints no gap."""

    @pytest.mark.parametrize("flags, sim, design, reason", [
        (["--rounds", "2"], {}, {}, "rounds_per_sample 2"),
        (["--drop", "0.2"], {}, {}, "drop_prob 0.2"),
        ([], {}, {"replace_own": True, "variant": "alg1"}, "replace_own"),
    ], ids=["rounds", "drop", "replace_own"])
    def test_simulate(self, tmp_path, capsys, flags, sim, design, reason):
        cfg = write_config(
            tmp_path / "c.json",
            design={"zeta": 0.5, **design},
            sim={"horizon": 10, "trials": 2, "seed": 9, **sim},
        )
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out), *flags]) == 0
        cov = json.loads((out / "covariance.json").read_text())
        assert cov["analytic"] is None
        assert reason in cov["analytic_skipped_reason"]
        assert len(cov["empirical_node_mse"]) == 4
        text = capsys.readouterr().out
        assert "gap" not in text and reason in text

    @pytest.mark.parametrize("flags, reason", [
        (["--rounds", "3"], "rounds_per_sample 3"),
        (["--drop", "0.3"], "drop_prob 0.3"),
    ], ids=["rounds", "drop"])
    def test_reproduce_example1(self, tmp_path, capsys, flags, reason):
        out = tmp_path / "rep"
        code = cli.main(["reproduce", "example1", "--trials", "4", "--out", str(out), *flags])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["analytic_node_diag"] is None
        assert report["worst_relative_gap"] is None
        assert reason in report["analytic_skipped_reason"]
        assert np.asarray(report["empirical_node_mse"]).shape == (4, 2)
        text = capsys.readouterr().out
        assert "gap" not in text and reason in text


class TestBadSimOptions:
    """Link-drop probability outside [0, 1), negative seeds, horizons,
    trial counts or consensus rounds below 1, horizons past the plant's
    growth limit, replace_own off alg1 or not a boolean, an initial state
    covariance that is not symmetric PSD, and non-numeric or malformed
    sim, graph and design values end with exit 2 and exactly one error
    line on stderr, never a traceback or a warning, from flags and from
    scenario JSON."""

    @staticmethod
    def _run(args):
        env = dict(os.environ, PYTHONPATH=str(Path(distkf.__file__).parent.parent))
        return subprocess.run(
            [sys.executable, "-m", "distkf.cli", *args],
            capture_output=True, text=True, env=env,
        )

    @pytest.mark.parametrize("args", [
        ["simulate", "--example", "example1", "--drop", "1.0"],
        ["simulate", "--example", "example1", "--drop", "-0.1"],
        ["simulate", "--example", "example1", "--seed", "-1"],
        ["reproduce", "example1", "--drop", "1.0"],
        ["reproduce", "example1", "--seed", "-1"],
        ["check", "--example", "example1", "--rounds", "0"],
    ])
    def test_flags(self, tmp_path, args):
        if args[0] == "simulate":
            args = [*args, "--out", str(tmp_path / "o")]
        proc = self._run(args)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("sim", [
        {"drop_prob": 1.0}, {"seed": -3}, {"seed": "abc"}, {"horizon": -1}, {"horizon": 0},
        {"rounds_per_sample": 0}, {"trials": 0},
    ])
    def test_scenario_json(self, tmp_path, sim):
        cfg = write_config(tmp_path / "c.json", sim={"horizon": 10, "trials": 1, **sim})
        proc = self._run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("overrides", [
        dict(graph="ring"),
        dict(graph={"kind": "ring", "m": "x"}),
        dict(graph={"kind": "ring", "m": 0}),
        dict(graph={"kind": "ring", "m": 4, "weight": "w"}),
        dict(graph={"kind": "random_geometric", "m": 4, "radius": "far", "seed": 1}),
        dict(graph={"kind": "random_geometric", "m": 4, "radius": 2.0, "seed": -1}),
        dict(design={"zeta": "x"}),
        dict(design={"zeta": 0.5, "stable_poles": "abc"}),
    ], ids=["graph-not-object", "ring-m-text", "ring-m-zero", "ring-weight-text",
            "geometric-radius-text", "geometric-seed-negative", "zeta-text", "stable-poles-text"])
    def test_graph_and_design_json(self, tmp_path, overrides):
        cfg = write_config(tmp_path / "c.json", **overrides)
        proc = self._run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in proc.stderr + proc.stdout

    @pytest.mark.parametrize("overrides, needle", [
        (dict(design={"zeta": 0.5, "replace_own": True}), "alg1 only"),
        (dict(design={"zeta": 0.5, "variant": "alg1", "replace_own": "no"}), "true or false"),
        (dict(sim={"horizon": 10, "initial_state_cov": [[-1, 0], [0, 1]]}), "semidefinite"),
        (dict(sim={"horizon": 10, "initial_state_cov": [[1, 5], [0, 1]]}), "semidefinite"),
        # example1's plant: 1.1^400 = 3.6e16 leaves no digits for x_hat - x
        (dict(sim={"horizon": 400}), "limit is 289 steps"),
    ], ids=["replace-own-alg2", "replace-own-text", "x0-cov-indefinite", "x0-cov-asymmetric",
            "horizon-growth"])
    def test_check_rejects_scenario(self, tmp_path, overrides, needle):
        cfg = write_config(tmp_path / "c.json", **overrides)
        proc = self._run(["check", "--config", str(cfg)])
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert needle in lines[0]

    def test_initial_state_cov_misfits_plant_order(self, tmp_path):
        # a 3-state plant with the 2x2 covariance once died in run_trial
        cfg = write_config(tmp_path / "c.json", system={
            "A": np.diag([0.9, 1.1, 0.5]).tolist(), "C": np.eye(4, 3).tolist(),
            "Q": (0.25 * np.eye(3)).tolist(), "R": (4.0 * np.eye(4)).tolist(),
        })
        proc = self._run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "initial_state_cov" in lines[0]
        assert "Traceback" not in proc.stderr + proc.stdout


class TestBadDesignInputs:
    """A defective closed loop, a stable-pole clash, a failed Riccati solve
    and a repeated unstable complex pair end with exit 4, and a plant with
    no stabilising Kalman filter with exit 3, each with exactly one error
    line on stderr."""

    @pytest.mark.parametrize("overrides, needle", [
        # Jordan block with near-blind sensors: A - KCA equals A to roundoff
        (dict(system={"A": [[0.5, 1.0], [0.0, 0.5]], "C": [[1, 0], [0, 1], [1, 1], [1, -1]],
                      "Q": [[1, 0], [0, 1]], "R": np.diag([1e20] * 4).tolist()},
              design={}), "defective"),
        # 0.6286 lies within 1e-3 of the closed-loop pole 0.62859...
        (dict(design={"zeta": 0.5, "stable_poles": [0.6286]}), "stable pole"),
        # detectable, but scipy finds no finite Riccati solution for 1e8;
        # one step keeps 1e8^horizon inside the scenario's growth limit
        (dict(system={"A": [[1e8, 0.0], [0.0, 0.5]], "C": [[1, 0], [0, 1], [1, 1], [1, -1]],
                      "Q": [[0.25, 0], [0, 0.25]], "R": np.diag([4.0] * 4).tolist()},
              sim={"horizon": 1, "trials": 1, "seed": 9}),
         "Riccati solve"),
    ], ids=["defective-closed-loop", "stable-pole-clash", "riccati-failure"])
    def test_exit_4(self, tmp_path, overrides, needle):
        cfg = write_config(tmp_path / "c.json", **overrides)
        proc = TestBadSimOptions._run(
            ["design", "--config", str(cfg), "--out", str(tmp_path / "o")]
        )
        assert proc.returncode == 4
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert needle in lines[0]
        assert "Traceback" not in proc.stderr + proc.stdout

    def test_repeated_complex_pair_exit_4(self, tmp_path):
        # A = I_2 (x) 1.05 rot(0.7) repeats one unstable complex pair, which
        # S cannot carry: PoleClashError
        c, s = 1.05 * np.cos(0.7), 1.05 * np.sin(0.7)
        A = np.kron(np.eye(2), [[c, -s], [s, c]])
        # sim drops the default 2x2 initial_state_cov, which misfits n = 4
        cfg = write_config(tmp_path / "c.json", system={
            "A": A.tolist(), "C": np.eye(4).tolist(),
            "Q": (0.25 * np.eye(4)).tolist(), "R": (4.0 * np.eye(4)).tolist(),
        }, sim={"horizon": 10, "trials": 1, "seed": 9})
        proc = TestBadSimOptions._run(["check", "--config", str(cfg)])
        assert proc.returncode == 4
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "repeated complex pair" in lines[0]
        assert "Traceback" not in proc.stderr + proc.stdout

    def test_undriven_unit_circle_mode_exit_3(self, tmp_path):
        # (A, C) passes PBH, but Q = 0 leaves the random-walk mode A = 1
        # undriven, so the Riccati solution cannot stabilise the filter
        cfg = write_config(tmp_path / "c.json", system={
            "A": [[1.0]], "C": [[1.0], [1.0]], "Q": [[0.0]], "R": np.eye(2).tolist(),
        }, graph={"kind": "ring", "m": 2, "weight": 1.0}, design={},
            sim={"horizon": 10, "trials": 1, "seed": 9})
        proc = TestBadSimOptions._run(
            ["design", "--config", str(cfg), "--out", str(tmp_path / "o")]
        )
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "not driven by Q" in lines[0]
        assert "Traceback" not in proc.stderr + proc.stdout

    def test_design_json_writes_null_alpha_with_reason(self, example2_design):
        sc, designs = example2_design
        alg2 = distkf.design_pipeline(sc.model, sc.graph, variant="alg2")
        data = json.loads(json.dumps(cli._design_dict(sc, alg2, "alg2")))
        assert data["reduced"]["alpha"] is None
        assert "cond(K_beta)" in data["reduced"]["alpha_skipped_reason"]
        assert data["decomposition"]["diagnostics"]["F"]["route"] == "modal"


class TestFlagForwarding:
    def test_rounds_and_drop_forwarded(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "o"
        code = cli.main([
            "simulate", "--config", str(cfg), "--out", str(out),
            "--trials", "2", "--rounds", "2", "--drop", "0.3",
        ])
        assert code == 0

    def test_config_and_example_conflict(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        assert cli.main(["check", "--config", str(cfg), "--example", "example1"]) == 2

    def test_large_seed_accepted(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "o"
        code = cli.main([
            "simulate", "--config", str(cfg), "--out", str(out),
            "--seed", str(2**64 - 1), "--trials", "2",
        ])
        assert code == 0


class TestReproduceCommand:
    def test_example1_smoke(self, tmp_path, capsys):
        out = tmp_path / "rep"
        code = cli.main(["reproduce", "example1", "--trials", "300", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["worst_relative_gap"] < 0.15
        assert report["analytic_skipped_reason"] is None
        text = capsys.readouterr().out
        assert "variant:          alg2" in text

    def test_example2_smoke(self, tmp_path, capsys):
        out = tmp_path / "rep"
        code = cli.main(["reproduce", "example2", "--trials", "60", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["mean_improvement"] > 0.4
        rows = report["ratios"]
        assert len(rows) == 15
        assert all(r["rho_local"] is not None for r in rows)
        text = capsys.readouterr().out
        assert "variant:          alg1" in text
