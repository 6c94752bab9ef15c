"""One run of one workload in a fresh interpreter, started by run.py.

The child follows the path a CLI user takes (`distkf reproduce` for the
built-in examples, `distkf simulate` for scenario JSON) through the
package's public API, stamps the monotonic clock at phase boundaries,
writes the program's output files, then runs the correctness checks and
writes one result JSON.  Throughout, a HostProbe samples how fast the
host runs, so run.py can scale the child's times to the idle host's
speed.  With --trace 1 the tracer wraps the package's entry points
first; spans are kept in memory and written with the result.

Usage: child.py --workload NAME --seed N --mode full|mc|setup --trace 0|1
                --scenario PATH --out DIR --result PATH --src DIR

--mode setup stops once the design is ready and --mode mc once Monte
Carlo has run; --src is the directory the package must be imported from.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import signal
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

from workloads import WORKLOADS


def now() -> float:
    # CLOCK_MONOTONIC is shared by all processes, so run.py's launch
    # stamp and the child's stamps can be subtracted.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


PROBE_PERIOD_S = 0.02
PROBE_LOOPS = 4000


class HostProbe:
    """Samples how fast the host runs while the child works.

    Every PROBE_PERIOD_S an interval timer makes the child run the same
    short pure-Python loop and record when it started and how long it
    took.  On a shared host the program's speed moves with the loop's, so
    run.py rescales the child's times by the loop's slowdown.  A signal
    that arrives during a long call into compiled code is handled when the
    call returns, so run.py takes the slowdown of such a call from the
    samples on either side of it.
    """

    def __init__(self):
        self.samples = []  # [start, duration]

    def _probe(self, signum, frame):
        t0 = now()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += (i * i) % 7
        self.samples.append([t0, now() - t0])

    def start(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)


class Record:
    def __init__(self):
        self.ok = []          # names of phases and checks that passed
        self.failed = {}      # name -> reason
        self.stamps = {}
        self.values = {}

    def check(self, name, passed, detail):
        self.values[name] = detail
        if passed:
            self.ok.append(name)
        else:
            self.failed[name] = f"outside tolerance: {detail}"


def _timed(rec, name, fn, *args, **kwargs):
    rec.stamps[f"{name}_start"] = now()
    out = fn(*args, **kwargs)
    rec.stamps[f"{name}_done"] = now()
    return out


def _csv_shape(path):
    with open(path, encoding="ascii") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = sum(1 for _ in fh)
    return header, rows


def _analytic(distkf, sc, designs, variant):
    aug = distkf.build_augmented(
        sc.model, designs.split, designs.kalman, designs.bundle,
        designs.consensus, designs.graph, variant=variant, reduced=designs.reduced,
    )
    return aug, distkf.asymptotic_covariance(aug, sc.model, designs.kalman.Ppost)


def run(args, rec, tracer):
    w = WORKLOADS[args.workload]
    t0 = now()
    import distkf
    rec.values["import_s"] = now() - t0
    src = Path(args.src).resolve()
    if Path(distkf.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"distkf imported from {distkf.__file__}, expected {src}")
    import numpy as np

    if tracer is not None:
        tracer.install()

    if w.path == "reproduce":
        sc = distkf.builtin_scenario(w.example, trials=w.trials, seed=args.seed)
    else:
        sc = distkf.load_scenario(args.scenario)
    designs = distkf.design_pipeline(
        sc.model, sc.graph, zeta=sc.zeta, stable_poles=sc.stable_poles, variant=sc.variant
    )
    rec.stamps["design_ready"] = now()
    rec.ok.append("design")
    if args.mode == "setup":
        return

    n, m, T = sc.model.n, sc.model.m, sc.horizon
    variant = distkf.resolve_variant(sc.variant, n, m)
    strategy = (distkf.bernoulli_drop_strategy(sc.drop_prob) if sc.drop_prob > 0.0
                else distkf.static_strategy())
    config = distkf.TrialConfig(
        horizon=T, seed=sc.seed, variant=sc.variant, strategy=strategy,
        replace_own=sc.replace_own, rounds_per_sample=sc.rounds_per_sample,
        initial_state_cov=sc.initial_state_cov,
    )
    result = _timed(rec, "mc", distkf.run_monte_carlo, sc.model, designs, config, sc.trials)
    rec.ok.append("mc")
    rec.values["trials"] = sc.trials
    if args.mode == "mc":
        return
    node_mse = result.node_mse(slice(*sc.steady_window))
    replay_config = replace(config, seed=(sc.seed, 0))
    outdir = Path(args.out)
    report = replay = None

    if w.path == "simulate":
        replay = distkf.run_trial(sc.model, designs, replay_config)
        rec.ok.append("replay")
        distkf.write_trace_csv(replay, outdir / "trace.csv")
        distkf.write_mse_csv(result, outdir / "mse.csv")
        aug, report = _timed(rec, "analytic", _analytic, distkf, sc, designs, variant)
        rec.ok.append("analytic")
        out = {
            "scenario": sc.name, "variant": variant, "trials": sc.trials,
            "steady_window": list(sc.steady_window),
            "empirical_node_mse": node_mse.tolist(),
            "analytic": distkf.analysis.report_to_dict(report),
            "analytic_skipped_reason": None,
        }
        with open(outdir / "covariance.json", "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
    else:
        out = {"scenario": sc.name, "variant": variant, "trials": sc.trials}
        if w.example == "example1":
            aug, report = _timed(rec, "analytic", _analytic, distkf, sc, designs, variant)
            rec.ok.append("analytic")
            diag = np.array([np.diag(report.node_block(i)) for i in range(m)])
            out["empirical_node_mse"] = node_mse.tolist()
            out["analytic_node_diag"] = diag.tolist()
            out["worst_relative_gap"] = float(np.max(np.abs(node_mse - diag) / diag))
        else:
            locals_ = distkf.local_baselines(sc.model)
            ratios = distkf.performance_ratios(
                [np.diag(row) for row in node_mse], locals_, designs.kalman.Ppost
            )
            rec.ok.append("baselines")
            out["ratios"] = [{"sensor": i + 1, "rho_local": r1, "rho_dist": r2}
                             for i, (r1, r2) in enumerate(ratios)]
            out["mean_improvement"] = float(np.mean(
                [r1 - r2 for r1, r2 in ratios if r1 is not None]))
        with open(outdir / "report.json", "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
    rec.stamps["outputs_done"] = now()
    rec.ok.append("write")
    rec.values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rec.values["bytes_written"] = sum(p.stat().st_size for p in outdir.iterdir())

    # Everything below checks the outputs and is neither timed nor traced.
    if tracer is not None:
        tracer.enabled = False
    rec.values["node_steps"] = sc.trials * m * T
    rows = m if variant == "alg1" else n  # consensus rows per node
    rec.values["state_bytes_per_trial"] = 8 * m * (n + rows * n)
    diags = designs.bundle.diagnostics
    rec.values["F_route"] = diags.get("F", {}).get("route")
    limit = getattr(sys.modules["distkf.decomposition"], "_RESIDUAL_HARD_LIMIT", None)
    if limit:
        for key in ("F", "G"):
            if "residual" in diags.get(key, {}):
                rec.values[f"{key}_residual_ratio"] = diags[key]["residual"] / limit
    rec.values["mare_iterations"] = getattr(designs.consensus, "mare_iterations", None)
    if report is not None:
        rec.values["aug_dim"] = int(aug.Ar.shape[0])

    if replay is None:
        # own-block replacement changes the fused output by design, so the
        # exact-average identity is checked on the trial without it
        replay = distkf.run_trial(sc.model, designs, replace(replay_config, replace_own=False))
        rec.ok.append("replay")
    gap = np.abs(replay.xbreve.mean(axis=1) - replay.xhat) / (1.0 + np.abs(replay.xhat))
    rec.values["average_gap"] = float(gap.max())
    if "check.average" in w.ops:
        rec.check("check.average", float(gap.max()) <= 1e-8, float(gap.max()))

    if "check.mc_vs_analytic" in w.ops:
        emp = node_mse.sum(axis=1)
        worst = float(np.max(np.abs(emp - report.per_node_trace) / report.per_node_trace))
        rec.check("check.mc_vs_analytic", worst <= 0.10, worst)

    if "check.heat_ratios" in w.ops:
        rho1 = np.array([r1 if r1 is not None else np.nan for r1, _ in ratios])
        rho2 = np.array([r2 for _, r2 in ratios])
        passed = bool(np.all((rho1 >= 1.8) & (rho1 <= 2.1)) and np.all(rho1 - rho2 > 0.0))
        rec.check("check.heat_ratios", passed,
                  {"rho_local": [float(np.nanmin(rho1)), float(np.nanmax(rho1))],
                   "min_improvement": float(np.nanmin(rho1 - rho2))})

    rec.check("check.outputs", *_check_outputs(w, outdir, n, m, T))


def _check_outputs(w, outdir, n, m, T):
    """Files present, with the expected headers, row counts and keys."""
    problems = []
    if w.path == "simulate":
        trace_cols = (["k"] + [f"x_{s + 1}" for s in range(n)] + [f"xhat_{s + 1}" for s in range(n)]
                      + [f"node{i + 1}_xbreve_{s + 1}" for i in range(m) for s in range(n)])
        mse_cols = ["k"]
        for i in range(m):
            mse_cols += [f"node{i + 1}_mse_{s + 1}" for s in range(n)] + [f"node{i + 1}_mse"]
        for name, cols in (("trace.csv", trace_cols), ("mse.csv", mse_cols)):
            header, rows = _csv_shape(outdir / name)
            if header != cols:
                problems.append(f"{name} header")
            if rows != T + 1:
                problems.append(f"{name} has {rows} rows, expected {T + 1}")
        with open(outdir / "covariance.json", encoding="utf-8") as fh:
            cov = json.load(fh)
        if len(cov["empirical_node_mse"]) != m or len(cov["analytic"]["per_node_trace"]) != m:
            problems.append("covariance.json node count")
    else:
        with open(outdir / "report.json", encoding="utf-8") as fh:
            rep = json.load(fh)
        key = "empirical_node_mse" if w.example == "example1" else "ratios"
        if len(rep.get(key, ())) != m:
            problems.append(f"report.json {key}")
    return not problems, problems


def _environment():
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numba": "absent" if importlib.util.find_spec("numba") is None else "present",
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    for flag in ("--workload", "--mode", "--scenario", "--out", "--result", "--src"):
        ap.add_argument(flag, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    rec = Record()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    probe = HostProbe()
    probe.start()
    try:
        run(args, rec, tracer)
    except Exception:  # the result must still reach run.py
        rec.failed["exception"] = traceback.format_exc()
    finally:
        probe.stop()
    out = {"ok": rec.ok, "failed": rec.failed, "stamps": rec.stamps, "values": rec.values,
           "probe": probe.samples}
    if tracer is not None:
        out["spans"] = tracer.spans
        out["missing"] = tracer.missing
    if args.mode == "full":
        out["env"] = _environment()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 1 if rec.failed else 0


if __name__ == "__main__":
    sys.exit(main())
