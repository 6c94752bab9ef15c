"""The names the benchmark harness in ``perfbench/`` reads from distkf.

The harness is checked out beside the package and traces or reads these
names in its child processes; a name that goes missing turns into a
missing per-layer metric there.  The harness files are parsed, never
imported, so this test writes nothing under ``perfbench/``.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import distkf
from distkf import decomposition

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# traced spans that are not listed metrics, so may go missing
_MAY_BE_MISSING = {"distkf.numerics:solve_dlyap"}


def _tracer_targets():
    """(module, attribute path) of every entry of tracer.TARGETS."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return [(e.elts[1].value, e.elts[2].value) for e in node.value.elts]
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_every_tracer_target_resolves():
    missing = []
    for module, path in _tracer_targets():
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}:{path}")
    assert set(missing) <= _MAY_BE_MISSING, missing


def test_augmented_system_has_Ar():
    # the child records the augmented dimension as aug.Ar.shape[0]
    assert hasattr(distkf.AugmentedSystem, "Ar")


def test_residual_hard_limit():
    # the child divides the F and G residuals by it
    assert decomposition._RESIDUAL_HARD_LIMIT > 0


def _child_tree():
    return ast.parse((PERFBENCH / "child.py").read_text())


def _distkf_path(node):
    """``("analysis", "report_to_dict")`` for ``distkf.analysis.report_to_dict``,
    None when ``node`` does not read an attribute of ``distkf``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "distkf" and parts:
        return tuple(reversed(parts))
    return None


def test_every_child_name_resolves():
    # child.py reads distkf.<name> and distkf.analysis.<name>
    paths = {_distkf_path(node) for node in ast.walk(_child_tree())}
    paths = {p for p in paths if p and (len(p) == 1 or p[0] == "analysis")}
    assert paths, "child.py reads no distkf names"
    missing = []
    for path in sorted(paths):
        owner = distkf
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(".".join(("distkf",) + path))
    assert not missing, missing


def _child_calls():
    """(dotted name, positional arguments, keyword names) of every call of a
    distkf function in child.py, made directly or through
    ``_timed(rec, name, distkf.<fn>, *args, **kwargs)``."""
    calls = []
    for node in ast.walk(_child_tree()):
        if not isinstance(node, ast.Call):
            continue
        path, args = _distkf_path(node.func), node.args
        if path is None and isinstance(node.func, ast.Name) and node.func.id == "_timed":
            path, args = _distkf_path(args[2]) if len(args) > 2 else None, args[3:]
        if path is not None:
            calls.append((".".join(path), args, [kw.arg for kw in node.keywords]))
    return calls


_CHILD_CALLS = _child_calls()


@pytest.mark.parametrize("name", sorted({"TrialConfig", "design_pipeline", "build_augmented"}
                                        | {name for name, _, _ in _CHILD_CALLS}))
def test_child_call_arguments_bind(name):
    calls = [(args, keywords) for called, args, keywords in _CHILD_CALLS if called == name]
    assert calls, f"child.py no longer calls distkf.{name}"
    owner = distkf
    for part in name.split("."):
        owner = getattr(owner, part)
    signature = inspect.signature(owner)
    for args, keywords in calls:
        # a call with *args or **kwargs binds only what it names
        unpacked = any(isinstance(a, ast.Starred) for a in args) or None in keywords
        bind = signature.bind_partial if unpacked else signature.bind
        bind(*[None] * sum(not isinstance(a, ast.Starred) for a in args),
             **{kw: None for kw in keywords if kw})


def _child_reads(name):
    """Attributes child.py reads off the local variable ``name``."""
    return {node.attr for node in ast.walk(_child_tree())
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == name}


def test_child_scenario_and_design_reads_resolve():
    # child.py reads fields of the scenario (sc) and of its design (designs)
    sc = distkf.builtin_scenario("example1", trials=2)
    designs = distkf.design_pipeline(
        sc.model, sc.graph, zeta=sc.zeta, stable_poles=sc.stable_poles, variant=sc.variant
    )
    for name, owner in (("sc", sc), ("designs", designs)):
        reads = _child_reads(name)
        assert reads, f"child.py reads nothing off {name}"
        missing = sorted(attr for attr in reads if not hasattr(owner, attr))
        assert not missing, (name, missing)


@pytest.mark.parametrize("drop", [0.0, 0.2], ids=["static", "bernoulli"])
@pytest.mark.parametrize("variant", ["alg1", "alg2"])
def test_traced_calls_per_batch_and_trial(monkeypatch, variant, drop):
    # the harness times the spans simulator.trial, simulator.link_gains and
    # simulator.kernel per call; Monte Carlo must call run_trial and the
    # kernel once per batch, and the strategy's sample_gains once per trial
    from distkf import _kernels, simulator

    sc = distkf.builtin_scenario("example1", trials=2)
    designs = distkf.design_pipeline(sc.model, sc.graph, zeta=sc.zeta,
                                     stable_poles=sc.stable_poles, variant=sc.variant)
    strategy = distkf.bernoulli_drop_strategy(drop) if drop else distkf.static_strategy()
    cfg = distkf.TrialConfig(horizon=20, seed=3, variant=variant, strategy=strategy,
                             rounds_per_sample=2)
    budget = simulator._BATCH_BYTES
    while simulator._batch_plan(sc.model, designs.graph, cfg, variant)[0] > 3:
        budget //= 2
        monkeypatch.setattr(simulator, "_BATCH_BYTES", budget)
    size = simulator._batch_plan(sc.model, designs.graph, cfg, variant)[0]
    assert size >= 2
    calls = {"run_trial": 0, "sample_gains": 0, "sim_alg1": 0, "sim_alg2": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(simulator, "run_trial")
    counted(type(strategy), "sample_gains")
    counted(_kernels, "sim_alg1")
    counted(_kernels, "sim_alg2")
    trials = 2 * size + 1
    distkf.run_monte_carlo(sc.model, designs, cfg, trials)
    other = "sim_alg2" if variant == "alg1" else "sim_alg1"
    assert calls == {"run_trial": 3, "sample_gains": trials, f"sim_{variant}": 3, other: 0}
