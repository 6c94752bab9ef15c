#!/usr/bin/env python3
"""Benchmark runner for distkf: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory.  The runner is a closed loop with one client: it starts
one fresh child interpreter (perfbench/child.py) at a time, waits for it
to end, and starts the next until --seconds have passed.  Children run
with BLAS pinned to one thread.  Each child runs the whole workload and
checks its outputs; every phase and check is one attempted operation.

--trace 0 reports the end-to-end metrics (medians over the children).
Their times are scaled to the speed of the idle host: the host is shared,
its speed changes by up to 1.8x within seconds, and each child samples it
as it runs (see scaled_seconds).  The times as measured are saved too.
A run holds at least FULL_SAMPLES full children, even when they take
longer than --seconds.  Monte-Carlo throughput is sampled in at least
MC_SAMPLES children and set-up time in at least SETUP_SAMPLES children per
run; when fewer full children fit, extra children stop after Monte Carlo
or after the design.

--trace 1 alternates untraced and traced children, and reports the
per-layer metrics derived from the spans (medians over the traced
children) and the tracing overhead: the median traced wall time minus
the median untraced one.

Every metric is printed by name with its unit; the last line is one JSON
object holding the metrics BENCHMARK.json lists for the mode.  The full
result, with the environment, the per-child figures, the metrics that
apply only to some workloads and one child's spans, goes to
perfbench/out/<workload>-seed<N>-trace<T>/result.json.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import PARTIAL_OPS, WORKLOADS, write_scenario

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 7
MC_SAMPLES = 6
FULL_SAMPLES = 3
CHILD_TIMEOUT_S = 100
# Duration of one HostProbe loop (child.py) on the idle host, a 2-vCPU
# Xeon at 2.1 GHz: the speed that reported times are scaled to.
PROBE_REF_S = 2.35e-4
SMOOTH = 3  # probe samples on either side that set the slowdown at a sample
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Per-layer metrics taken from spans: (metric, span name, kind, ancestor).
# "total" sums span durations, "self" sums durations minus the time the
# span's direct children cover.  A metric with an ancestor counts only
# spans nested under a span of that name.
SPAN_METRICS = (
    ("scenarios.build_ms", "scenarios.build", "total", None),
    ("pipeline.design_ms", "pipeline.design", "total", None),
    ("kalman.design_ms", "kalman.design", "total", "pipeline.design"),
    ("numerics.dare_ms", "numerics.dare", "total", "pipeline.design"),
    ("plant.split_ms", "plant.split", "total", None),
    ("decomposition.lambda_ms", "decomposition.lambda", "total", None),
    ("decomposition.F_ms", "decomposition.F", "total", None),
    ("decomposition.S_beta_ms", "decomposition.S_beta", "total", None),
    ("decomposition.G_ms", "decomposition.G", "total", None),
    ("decomposition.reduce_ms", "decomposition.reduce", "total", None),
    ("consensus.design_ms", "consensus.design", "total", None),
    ("consensus.mare_ms", "consensus.mare", "total", None),
    ("simulator.mc_ms", "simulator.mc", "total", None),
    ("simulator.link_gains_ms", "simulator.link_gains", "total", None),
    ("simulator.kernel_ms", "simulator.kernel", "total", None),
    ("simulator.trial_self_ms", "simulator.trial", "self", None),
    ("simulator.accum_self_ms", "simulator.mc", "self", None),
    ("analysis.build_augmented_ms", "analysis.build_augmented", "total", None),
    ("analysis.covariance_ms", "analysis.covariance", "total", None),
    ("analysis.lyapunov_ms", "analysis.lyapunov", "total", None),
    ("io.trace_csv_ms", "io.trace_csv", "total", None),
    ("io.mse_csv_ms", "io.mse_csv", "total", None),
)

# Per-layer metrics the child reports directly.
VALUE_METRICS = (
    ("simulator.trials", "trials", 1.0),
    ("simulator.node_steps", "node_steps", 1.0),
    ("simulator.state_bytes_per_trial", "state_bytes_per_trial", 1.0),
    ("decomposition.F_residual_ratio", "F_residual_ratio", 1.0),
    ("decomposition.G_residual_ratio", "G_residual_ratio", 1.0),
    ("consensus.mare_iterations", "mare_iterations", 1.0),
    ("analysis.aug_dim", "aug_dim", 1.0),
    ("io.bytes_written", "bytes_written", 1.0),
    ("startup.import_ms", "import_s", 1e3),
    ("check.average_gap", "average_gap", 1.0),
)

# Per-layer metrics derived from the spans and values above.
DERIVED_METRICS = ("decomposition.F_fallback", "simulator.ms_per_trial",
                   "simulator.trace_bytes_per_trial", "analysis.dense_bytes",
                   "trace.overhead_ms")

# Units of metrics whose name does not end in _ms or _s.
UNITS = {
    "mc_trials_per_s": "1/s",
    "peak_rss_mb": "MB",
    "fail_frac": "ratio",
    "decomposition.F_fallback": "count",
    "decomposition.F_residual_ratio": "ratio",
    "decomposition.G_residual_ratio": "ratio",
    "consensus.mare_iterations": "count",
    "simulator.trials": "count",
    "simulator.node_steps": "count",
    "simulator.ms_per_trial": "ms",
    "simulator.state_bytes_per_trial": "bytes-computed",
    "simulator.trace_bytes_per_trial": "bytes-computed",
    "analysis.aug_dim": "count",
    "analysis.dense_bytes": "bytes-computed",
    "io.bytes_written": "bytes",
    "check.average_gap": "ratio",
}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(workload, seed, mode, trace, scenario, workdir, index, env):
    """Run one child to completion and return its launch stamp, result and exit code."""
    out = workdir / f"child{index}"
    out.mkdir()
    result_path = out / "result.json"
    cmd = [
        sys.executable, str(BENCH_DIR / "child.py"), "--workload", workload.name,
        "--seed", str(seed), "--mode", mode, "--trace", str(trace),
        "--scenario", str(scenario), "--out", str(out), "--result", str(result_path),
        "--src", str(ROOT / "src"),
    ]
    t_launch = now()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
        code, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        code, stderr = "timeout", exc.stderr or b""
    result = None
    if result_path.is_file():
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    if code != 0:
        tail = stderr.decode(errors="replace").strip().splitlines()[-5:]
        reasons = result["failed"] if result else {}
        print(f"child {index} ({mode}) exit {code}: {reasons or tail}", file=sys.stderr)
    return {"launch": t_launch, "result": result, "code": code, "mode": mode, "trace": trace}


def scaled_seconds(probe, a, b):
    """Seconds from a to b at the speed of the idle host.

    probe holds the child's HostProbe samples [start, duration] in time
    order.  The host's slowdown at a sample is the median duration of the
    samples within SMOOTH of it, over PROBE_REF_S; between two samples it
    is the mean of theirs, and before the first or after the last sample
    it is that sample's.  Each stretch of [a, b] is divided by its
    slowdown, and the probes' own time is taken out.
    """
    starts = [t for t, _ in probe]
    durations = [d for _, d in probe]
    slow = [statistics.median(durations[max(0, i - SMOOTH):i + SMOOTH + 1]) / PROBE_REF_S
            for i in range(len(durations))]
    total, edge = 0.0, a
    i = bisect.bisect_right(starts, a)
    while edge < b:
        end = min(starts[i], b) if i < len(starts) else b
        total += (end - edge) / (0.5 * (slow[max(i - 1, 0)] + slow[min(i, len(slow) - 1)]))
        edge, i = end, i + 1
    probes_inside = bisect.bisect_left(starts, b) - bisect.bisect_left(starts, a)
    return total - probes_inside * PROBE_REF_S


def tally(children, workload):
    """Attempted and failed operations over all children."""
    attempted = failed = 0
    for ch in children:
        ops = PARTIAL_OPS.get(ch["mode"], workload.ops)
        passed = 0 if ch["result"] is None else len(set(ch["result"]["ok"]) & set(ops))
        attempted += len(ops)
        # a non-zero exit fails at least one operation
        failed += max(len(ops) - passed, int(ch["code"] != 0))
    return attempted, failed


def clean(children, *modes, trace=None):
    """Children of the given modes whose operations all passed."""
    return [ch for ch in children
            if ch["mode"] in modes and ch["code"] == 0 and ch["result"] is not None
            and (trace is None or ch["trace"] == trace)]


def median_of(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(children, scaled=True):
    """Medians over the clean untraced children, of times scaled to the
    idle host's speed (see scaled_seconds) or, with scaled=False, as
    measured."""
    def seconds(ch, start, end):
        stamps = ch["result"]["stamps"]
        a = ch["launch"] if start == "launch" else stamps[start]
        if scaled:
            return scaled_seconds(ch["result"]["probe"], a, stamps[end])
        return stamps[end] - a

    full = clean(children, "full", trace=0)
    mc = clean(children, "full", "mc", trace=0)
    designed = clean(children, "full", "mc", "setup", trace=0)
    return {
        "wall_s": median_of([seconds(ch, "launch", "outputs_done") for ch in full]),
        "setup_s": median_of([seconds(ch, "launch", "design_ready") for ch in designed]),
        "mc_trials_per_s": median_of([ch["result"]["values"]["trials"] / seconds(ch, "mc_start", "mc_done")
                                      for ch in mc]),
        "analytic_s": median_of([seconds(ch, "analytic_start", "analytic_done") for ch in full
                                 if "analytic_start" in ch["result"]["stamps"]]),
        "peak_rss_mb": median_of([ch["result"]["values"]["peak_rss_mb"] for ch in full]),
    }


def span_metrics(spans):
    """Per-layer figures of one traced child from its spans."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def under(i, ancestor):
        parent = spans[i][1]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                return True
            parent = spans[parent][1]
        return False

    out = {}
    for metric, name, kind, ancestor in SPAN_METRICS:
        picked = [i for i, s in enumerate(spans)
                  if s[0] == name and (ancestor is None or under(i, ancestor))]
        if not picked:
            continue  # the layer did not run: absent, not zero
        out[metric] = 1e3 * sum(spans[i][3] - spans[i][2] - (child_time[i] if kind == "self" else 0.0)
                                for i in picked)
    # bytes of trial traces materialized inside Monte Carlo
    trial_bytes = [s[4] for i, s in enumerate(spans)
                   if s[0] == "simulator.trial" and under(i, "simulator.mc")]
    out["_mc_trace_bytes"] = sum(trial_bytes)
    return out


def layer_metrics(result):
    values = result["values"]
    out = span_metrics(result["spans"])
    mc_trace_bytes = out.pop("_mc_trace_bytes")
    for metric, key, scale in VALUE_METRICS:
        if values.get(key) is not None:
            out[metric] = values[key] * scale
    if values.get("F_route") is not None:
        out["decomposition.F_fallback"] = float(values["F_route"] == "stacked-lstsq")
    trials = values.get("trials")
    if trials and "simulator.mc_ms" in out:
        out["simulator.ms_per_trial"] = out["simulator.mc_ms"] / trials
        out["simulator.trace_bytes_per_trial"] = mc_trace_bytes / trials
    if "analysis.aug_dim" in out:
        out["analysis.dense_bytes"] = 8.0 * out["analysis.aug_dim"] ** 2
    return out


def per_layer(children):
    per_child = [layer_metrics(ch["result"]) for ch in clean(children, "full", trace=1)]
    names = sorted({k for d in per_child for k in d})
    layers = {k: median_of([d.get(k) for d in per_child]) for k in names}
    walls = {}
    for trace in (0, 1):
        walls[trace] = median_of([ch["result"]["stamps"]["outputs_done"] - ch["launch"]
                                  for ch in clean(children, "full", trace=trace)])
    if walls[0] is not None and walls[1] is not None:
        layers["trace.overhead_ms"] = 1e3 * (walls[1] - walls[0])
    return layers


def unit_of(metric):
    if metric in UNITS:
        return UNITS[metric]
    return "ms" if metric.endswith("_ms") else "s"


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "distkf" / "__init__.py").is_file():
        print(f"error: no distkf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    workload = WORKLOADS[args.workload]
    seed = args.seed % 2**32  # SeedSequence entropy must be non-negative

    workdir = BENCH_DIR / "out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    scenario = ""
    if workload.path == "simulate":
        scenario = workdir / "scenario.json"
        write_scenario(workload, seed, scenario)
    env = child_env()

    children = []

    def child(mode, trace):
        children.append(launch(workload, seed, mode, trace, scenario, workdir, len(children), env))

    t_start = now()
    if args.trace:
        # untraced and traced children alternate, so the overhead compares
        # medians taken over the same stretch of time
        while True:
            child("full", 0)
            child("full", 1)
            if now() - t_start >= args.seconds:
                break
    else:
        while True:
            child("full", 0)
            if len(children) >= FULL_SAMPLES and now() - t_start >= args.seconds:
                break
        while len(children) < MC_SAMPLES:
            child("mc", 0)
        while len(children) < SETUP_SAMPLES:
            child("setup", 0)

    attempted, failed = tally(children, workload)
    e2e = end_to_end(children)
    e2e["fail_frac"] = failed / attempted
    report = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(),
        "env": next((ch["result"]["env"] for ch in children
                     if ch["result"] and "env" in ch["result"]), None),
        "attempted": attempted, "failed": failed,
        "children": [ch | {"result": {k: v for k, v in (ch["result"] or {}).items()
                                      if k != "spans"}} for ch in children],
        "end_to_end": {k: v for k, v in e2e.items() if v is not None},
        "end_to_end_unscaled": {k: v for k, v in end_to_end(children, scaled=False).items()
                                if v is not None},
        "end_to_end_absent": sorted(k for k, v in e2e.items() if v is None),
    }
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"children: {len(clean(children, 'full', trace=0))} untraced, "
          f"{len(clean(children, 'full', trace=1))} traced, {len(clean(children, 'mc'))} MC only, "
          f"{len(clean(children, 'setup'))} set-up only"
          f" (failed children excluded)")
    env_info = report["env"] or {}
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env_info.items())
          + f", commit {report['git_commit']}")
    for name, value in e2e.items():
        shown = "absent" if value is None else f"{value:.6g} {unit_of(name)}"
        print(f"  {name:34s} {shown}")

    if args.trace:
        layers = per_layer(children)
        traced = clean(children, "full", trace=1)
        missing = sorted({m for ch in traced for m in ch["result"]["missing"]})
        wanted = sorted({m for m, *_ in SPAN_METRICS} | {m for m, *_ in VALUE_METRICS}
                        | set(DERIVED_METRICS))
        report["per_layer"] = layers
        report["per_layer_absent"] = [m for m in wanted if m not in layers]
        report["trace_targets_missing"] = missing
        if traced:
            with open(workdir / "spans.json", "w", encoding="utf-8") as fh:
                json.dump(traced[-1]["result"]["spans"], fh)
        print(f"per-layer metrics (median of {len(traced)} traced children):")
        for name in wanted:
            shown = "absent" if name not in layers else f"{layers[name]:.6g} {unit_of(name)}"
            print(f"  {name:34s} {shown}")
        if missing:
            print("  trace targets not found: " + ", ".join(missing))
        listed, measured = spec["per_layer"], layers
    else:
        listed, measured = spec["end_to_end"], e2e

    with open(workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"attempted {attempted}  failed {failed}  result {workdir / 'result.json'}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in listed if measured.get(m["name"]) is not None}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
