"""The names the benchmark harness in ``perfbench/`` reads from distkf.

The harness is checked out beside the package and traces or reads these
names in its child processes; a name that goes missing turns into a
missing per-layer metric there.  The harness files are parsed, never
imported, so this test writes nothing under ``perfbench/``.
"""

import ast
import importlib
from pathlib import Path

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
