"""Command-line interface.

Subcommands:
    check      feasibility only (Mahler measure vs graph bound, gain radii)
    design     full synthesis, writes design.json plus a feasibility report
    simulate   design + Monte Carlo + covariance analysis, writes
               trace.csv / mse.csv / covariance.json
    reproduce  built-in scenarios example1 | example2 with report output

Exit codes: 0 success, 2 configuration error, 3 infeasible design,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis, simulator
from .decomposition import bundle_to_dict
from .errors import ConfigError, DistkfError
from .pipeline import design_pipeline, local_baselines
from .scenarios import Scenario, builtin_scenario, load_scenario
from .simulator import resolve_variant, run_monte_carlo, run_trial

_ANALYTIC_DIM_CAP = 2500


def _load(args) -> Scenario:
    if getattr(args, "example", None) and getattr(args, "config", None):
        raise ConfigError("--config and --example are mutually exclusive")
    if getattr(args, "example", None):
        sc = builtin_scenario(args.example, trials=args.trials, seed=args.seed)
    elif getattr(args, "config", None):
        sc = load_scenario(args.config)
        if args.trials is not None:
            sc = replace(sc, trials=args.trials)
        if args.seed is not None:
            sc = replace(sc, seed=args.seed)
    else:
        raise ConfigError("provide --config PATH or --example NAME")
    if args.rounds is not None:
        sc = replace(sc, rounds_per_sample=args.rounds)
    if args.drop is not None:
        sc = replace(sc, drop_prob=args.drop)
    return sc


def _design(sc: Scenario):
    """The scenario's design and the variant it runs."""
    designs = design_pipeline(
        sc.model, sc.graph, zeta=sc.zeta, stable_poles=sc.stable_poles, variant=sc.variant
    )
    return designs, resolve_variant(sc.variant, sc.model.n, sc.model.m)


def _feasibility_lines(designs, variant):
    cons = designs.consensus
    yield f"variant:          {variant} (message size {simulator.message_dimension(variant, designs.kalman.n, designs.kalman.m)})"
    yield f"mahler measure:   {cons.mahler:.6f}"
    yield f"graph bound:      {cons.bound:.6f}"
    yield f"zeta:             {cons.zeta:.6f}"
    yield f"max gain radius:  {cons.spectral_radii.max():.6f}"
    yield f"feasible:         {cons.feasible}"


def cmd_check(args) -> int:
    sc = _load(args)
    designs, variant = _design(sc)
    for line in _feasibility_lines(designs, variant):
        print(line)
    return 0


def _design_dict(sc: Scenario, designs, variant):
    kal, cons = designs.kalman, designs.consensus
    out = {
        "scenario": sc.name,
        "variant": variant,
        "message_size": simulator.message_dimension(variant, sc.model.n, sc.model.m),
        "kalman": {
            "Sigma": kal.Sigma.tolist(),
            "Ppost": kal.Ppost.tolist(),
            "K": kal.K.tolist(),
            "Acl": kal.Acl.tolist(),
            "trace_Ppost": float(np.trace(kal.Ppost)),
        },
        "decomposition": bundle_to_dict(designs.bundle),
        "consensus": {
            "zeta": cons.zeta,
            "mahler": cons.mahler,
            "bound": cons.bound if np.isfinite(cons.bound) else "inf",
            "Gamma": cons.Gamma.tolist(),
            "Pmare": cons.Pmare.tolist(),
            "spectral_radii": cons.spectral_radii.tolist(),
            "feasible": cons.feasible,
        },
        "graph": {"mu": designs.graph.mu.tolist()},
    }
    if designs.reduced is not None:
        out["reduced"] = {
            "H": designs.reduced.H.tolist(),
            "T": designs.reduced.T.tolist(),
            "alpha": None if designs.reduced.alpha is None else designs.reduced.alpha.tolist(),
            "alpha_skipped_reason": designs.reduced.alpha_skipped_reason,
        }
    return out


def cmd_design(args) -> int:
    sc = _load(args)
    designs, variant = _design(sc)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "design.json", "w", encoding="utf-8") as fh:
        json.dump(_design_dict(sc, designs, variant), fh, indent=1)
    report = "\n".join(_feasibility_lines(designs, variant))
    (outdir / "feasibility.txt").write_text(report + "\n", encoding="utf-8")
    print(report)
    print(f"wrote {outdir / 'design.json'}")
    return 0


def _analytic_report(sc: Scenario, designs, variant):
    """Variant-matched analytic covariance, or None and the reason it was
    skipped: above the size cap, or for a run the covariance model does
    not describe (it models one consensus round per sample over static
    links, with the consensus state read out unchanged)."""
    dim = sum(analysis.augmented_dims(sc.model.n, sc.model.m, designs.split.ns, variant))
    if dim > _ANALYTIC_DIM_CAP:
        return None, f"augmented dimension {dim} exceeds cap {_ANALYTIC_DIM_CAP}"
    unmodeled = []
    if sc.rounds_per_sample > 1:
        unmodeled.append(f"rounds_per_sample {sc.rounds_per_sample}")
    if sc.drop_prob > 0.0:
        unmodeled.append(f"drop_prob {sc.drop_prob:g}")
    if sc.replace_own:
        unmodeled.append("replace_own")
    if unmodeled:
        return None, "the covariance model does not cover " + ", ".join(unmodeled)
    aug = analysis.build_augmented(
        sc.model, designs.split, designs.kalman, designs.bundle,
        designs.consensus, designs.graph, variant=variant, reduced=designs.reduced,
    )
    return analysis.asymptotic_covariance(aug, sc.model, designs.kalman.Ppost), None


def cmd_simulate(args) -> int:
    sc = _load(args)
    designs, variant = _design(sc)
    config = sc.trial_config()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    result = run_monte_carlo(sc.model, designs, config, sc.trials)
    first = run_trial(sc.model, designs, replace(config, seed=(sc.seed, 0)))
    simulator.write_trace_csv(first, outdir / "trace.csv")
    simulator.write_mse_csv(result, outdir / "mse.csv")

    lo, hi = sc.steady_window
    window = slice(lo, hi)
    report, skip_reason = _analytic_report(sc, designs, variant)
    cov = {
        "scenario": sc.name,
        "variant": variant,
        "trials": sc.trials,
        "steady_window": [lo, hi],
        "empirical_node_mse": result.node_mse(window).tolist(),
        "analytic": None if report is None else analysis.report_to_dict(report),
        "analytic_skipped_reason": skip_reason,
    }
    with open(outdir / "covariance.json", "w", encoding="utf-8") as fh:
        json.dump(cov, fh, indent=1)
    print(f"wrote trace.csv, mse.csv, covariance.json to {outdir}")
    if report is None:
        print(f"analytic covariance skipped: {skip_reason}")
    else:
        emp = result.node_mse(window).sum(axis=1)
        ana = report.per_node_trace
        worst = float(np.max(np.abs(emp - ana) / ana))
        print(f"empirical vs analytic per-node MSE: worst relative gap {worst:.3%}")
    return 0


def cmd_reproduce(args) -> int:
    sc = _load(args)
    outdir = Path(args.out) if args.out else None
    if outdir:
        outdir.mkdir(parents=True, exist_ok=True)

    designs, variant = _design(sc)
    config = sc.trial_config()
    for line in _feasibility_lines(designs, variant):
        print(line)
    result = run_monte_carlo(sc.model, designs, config, sc.trials)
    lo, hi = sc.steady_window
    window = slice(lo, hi)
    node_mse = result.node_mse(window)

    report = {"scenario": sc.name, "variant": variant, "trials": sc.trials}
    if args.example == "example1":
        ana, skip_reason = _analytic_report(sc, designs, variant)
        report["empirical_node_mse"] = node_mse.tolist()
        report["analytic_node_diag"] = report["worst_relative_gap"] = None
        report["analytic_skipped_reason"] = skip_reason
        if ana is None:
            print(f"\nanalytic covariance skipped: {skip_reason}")
            print("per-node steady-state MSE (empirical):")
            for i in range(sc.model.m):
                for s in range(sc.model.n):
                    print(f"  node {i + 1} state {s + 1}: {node_mse[i, s]:9.4f}")
        else:
            diag = np.array([np.diag(ana.node_block(i)) for i in range(sc.model.m)])
            rel = np.abs(node_mse - diag) / diag
            print("\nper-node steady-state MSE (empirical | analytic | rel.err):")
            for i in range(sc.model.m):
                for s in range(sc.model.n):
                    print(
                        f"  node {i + 1} state {s + 1}: "
                        f"{node_mse[i, s]:9.4f} | {diag[i, s]:9.4f} | {rel[i, s]:.3%}"
                    )
            print(f"worst relative gap: {rel.max():.3%}")
            report["analytic_node_diag"] = diag.tolist()
            report["worst_relative_gap"] = float(rel.max())
    else:
        locals_ = local_baselines(sc.model)
        ratios = analysis.performance_ratios(
            [np.diag(row) for row in node_mse], locals_, designs.kalman.Ppost
        )
        print("\nsensor |  rho_local  rho_dist  improvement")
        rows = []
        for i, (r1, r2) in enumerate(ratios):
            r1s = f"{r1:.3f}" if r1 is not None else "  n/a"
            impr = f"{r1 - r2:+.3f}" if r1 is not None else "  n/a"
            print(f"  {i + 1:4d} |  {r1s}      {r2:.3f}     {impr}")
            rows.append({"sensor": i + 1, "rho_local": r1, "rho_dist": r2})
        valid = [(r1, r2) for r1, r2 in ratios if r1 is not None]
        mean_impr = float(np.mean([r1 - r2 for r1, r2 in valid]))
        print(f"mean improvement: {mean_impr:.3f}")
        report["ratios"] = rows
        report["mean_improvement"] = mean_impr
    if outdir:
        with open(outdir / "report.json", "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
        print(f"wrote {outdir / 'report.json'}")
    return 0


def _add_common(p: argparse.ArgumentParser, config_group: bool = True):
    if config_group:
        p.add_argument("--config", help="scenario JSON path")
        p.add_argument("--example", choices=["example1", "example2"], help="built-in scenario")
    p.add_argument("--trials", type=int, default=None, help="Monte-Carlo trials override")
    p.add_argument("--seed", type=int, default=None, help="master seed override")
    p.add_argument("--rounds", type=int, default=None, help="consensus rounds per sample")
    p.add_argument("--drop", type=float, default=None, help="Bernoulli link-drop probability")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="distkf", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="feasibility check only")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("design", help="synthesize and export the design")
    _add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("simulate", help="design, simulate, analyze")
    _add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reproduce", help="run a built-in scenario")
    p.add_argument("example", choices=["example1", "example2"])
    _add_common(p, config_group=False)
    p.add_argument("--out", default=None, help="output directory for report.json")
    p.set_defaults(func=cmd_reproduce)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DistkfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
