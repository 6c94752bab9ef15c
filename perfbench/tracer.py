"""In-memory spans around the public entry points of the distkf modules.

The tracer never edits the package: it replaces module attributes (and
class attributes for methods) inside the traced process with wrappers
that record (name, parent, start, end).  A function imported by name into
another module is replaced there too, so calls through either name are
seen.  A target that no longer exists is reported as missing.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _trace_nbytes(trace):
    """Bytes of the arrays one trial hands back (computed from shapes)."""
    return sum(v.nbytes for v in vars(trace).values() if hasattr(v, "nbytes"))


# (span name, module, attribute path, measure of the returned value)
TARGETS = (
    ("scenarios.build", "distkf.scenarios", "builtin_scenario", None),
    ("scenarios.build", "distkf.scenarios", "load_scenario", None),
    ("pipeline.design", "distkf.pipeline", "design_pipeline", None),
    ("kalman.design", "distkf.kalman", "design_kalman", None),
    ("numerics.dare", "distkf.numerics", "solve_dare", None),
    ("plant.split", "distkf.plant", "split_model", None),
    ("decomposition.lambda", "distkf.decomposition", "build_lambda", None),
    ("decomposition.F", "distkf.decomposition", "build_F", None),
    ("decomposition.S_beta", "distkf.decomposition", "design_S_beta", None),
    ("decomposition.G", "distkf.decomposition", "build_G", None),
    ("decomposition.reduce", "distkf.decomposition", "reduce_model", None),
    ("consensus.design", "distkf.consensus", "design_consensus", None),
    ("consensus.mare", "distkf.consensus", "solve_mare", None),
    ("simulator.mc", "distkf.simulator", "run_monte_carlo", None),
    ("simulator.trial", "distkf.simulator", "run_trial", _trace_nbytes),
    ("simulator.link_gains", "distkf.consensus", "StaticStrategy.sample_gains", None),
    ("simulator.link_gains", "distkf.consensus", "BernoulliDropStrategy.sample_gains", None),
    ("simulator.kernel", "distkf._kernels", "sim_alg1", None),
    ("simulator.kernel", "distkf._kernels", "sim_alg2", None),
    ("analysis.build_augmented", "distkf.analysis", "build_augmented", None),
    ("analysis.covariance", "distkf.analysis", "asymptotic_covariance", None),
    ("analysis.lyapunov", "distkf.numerics", "solve_dlyap", None),
    ("io.trace_csv", "distkf.simulator", "write_trace_csv", None),
    ("io.mse_csv", "distkf.simulator", "write_mse_csv", None),
)


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    def __init__(self):
        self.spans = []      # [name, parent index or -1, start, end, measured value]
        self.missing = []    # "module:attribute" targets that do not exist
        self.enabled = True
        self._stack = []

    def _wrap(self, name, fn, measure):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, self._stack[-1] if self._stack else -1, _now(), None, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = _now()
                self._stack.pop()
            if measure is not None:
                span[4] = measure(result)
            return result

        return traced

    def install(self, targets=TARGETS, package="distkf"):
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == package or key.startswith(package + ".")]
        for name, module_name, path, measure in targets:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}:{path}")
                continue
            wrapped = self._wrap(name, original, measure)
            if outer:
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
