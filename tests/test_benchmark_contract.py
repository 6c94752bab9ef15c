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


@pytest.mark.parametrize("name", ["TrialConfig", "design_pipeline", "build_augmented"])
def test_child_call_arguments_bind(name):
    calls = [node for node in ast.walk(_child_tree())
             if isinstance(node, ast.Call) and _distkf_path(node.func) == (name,)]
    assert calls, f"child.py no longer calls distkf.{name}"
    signature = inspect.signature(getattr(distkf, name))
    for call in calls:
        signature.bind_partial(*[None] * len(call.args),
                               **{kw.arg: None for kw in call.keywords if kw.arg})
