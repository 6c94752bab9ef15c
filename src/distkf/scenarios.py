"""Scenario configuration: JSON loading plus the two built-in examples.

A scenario bundles the plant, the communication graph, design options,
and simulation options.  The JSON schema (all matrices as nested arrays,
row major):

    {
      "system": {"A": [[...]], "C": [[...]], "Q": [[...]], "R": [[...]]},
      "graph":  {"kind": "ring", "m": 4, "weight": 1.0}
              | {"kind": "custom", "adjacency": [[...]]}
              | {"kind": "random_geometric", "m": 15, "radius": 0.5, "seed": 1},
      "design": {"zeta": null, "stable_poles": null,
                 "variant": "auto", "replace_own": false},
      "sim":    {"horizon": 100, "trials": 100, "seed": 1,
                 "rounds_per_sample": 1, "drop_prob": 0.0,
                 "initial_state_cov": null}
    }

Defaults: zeta auto (geometric midpoint rule), variant auto,
rounds_per_sample 1, drop_prob 0, zero initial state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .numerics import spectral_radius
from .plant import (
    SensorGraph,
    SystemModel,
    build_graph,
    build_system,
    geometric_adjacency,
    is_psd,
    ring_graph,
)
from .simulator import resolve_variant

_MAX_DIM = 64
_MAX_GROWTH = 1e12  # largest rho(A)^horizon a simulation may reach


@dataclass(frozen=True, eq=False)
class Scenario:
    name: str
    model: SystemModel
    graph: SensorGraph
    zeta: float | None = None
    stable_poles: list | None = None
    variant: str = "auto"
    replace_own: bool = False
    horizon: int = 100
    trials: int = 100
    seed: int = 0
    rounds_per_sample: int = 1
    drop_prob: float = 0.0
    initial_state_cov: np.ndarray | None = None
    steady_window: tuple = (50, 100)  # step range used for steady-state averages

    def __post_init__(self):
        # runs on every construction, dataclasses.replace included
        if not 0.0 <= self.drop_prob < 1.0:
            raise ConfigError(f"drop_prob must lie in [0, 1), got {self.drop_prob}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for key in ("horizon", "trials", "rounds_per_sample"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be at least 1, got {getattr(self, key)}")
        if not isinstance(self.replace_own, (bool, np.bool_)):
            raise ConfigError(f"replace_own must be true or false, got {self.replace_own!r}")
        n, m, P0 = self.model.n, self.model.m, self.initial_state_cov
        if self.replace_own and resolve_variant(self.variant, n, m) != "alg1":
            raise ConfigError("replace_own applies to variant alg1 only (auto picks alg2 when n < m)")
        if P0 is not None and not is_psd(np.asarray(P0, dtype=float)):
            raise ConfigError("initial_state_cov must be symmetric positive semidefinite")
        # the simulator works in absolute coordinates, so x_hat - x loses
        # digits as the state grows like rho(A)^k
        rho = spectral_radius(self.model.A)
        if rho > 1.0 and self.horizon * np.log(rho) > np.log(_MAX_GROWTH):
            limit = int(np.log(_MAX_GROWTH) / np.log(rho))
            raise ConfigError(f"horizon {self.horizon} grows the plant by rho(A)^horizon = {rho:.6g}"
                              f"^{self.horizon} > {_MAX_GROWTH:.0e}; the limit is {limit} steps")


def _matrix(obj, name):
    try:
        M = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} is not a numeric matrix") from exc
    if M.ndim != 2:
        raise ConfigError(f"{name} must be a nested (2-D) array")
    if max(M.shape) > _MAX_DIM:
        raise ConfigError(f"{name} exceeds the {_MAX_DIM}x{_MAX_DIM} size guard")
    if not np.all(np.isfinite(M)):
        raise ConfigError(f"{name} has non-finite entries")
    return M


def _graph_from_config(cfg: dict) -> SensorGraph:
    kind = cfg.get("kind", "custom")
    if kind == "ring":
        return ring_graph(int(cfg["m"]), float(cfg.get("weight", 1.0)))
    if kind == "custom":
        return build_graph(_matrix(cfg["adjacency"], "graph.adjacency"))
    if kind == "random_geometric":
        rng = np.random.default_rng(int(cfg["seed"]))
        box = float(cfg.get("box", 1.0))
        pos = rng.uniform(0.0, box, size=(int(cfg["m"]), 2))
        return build_graph(geometric_adjacency(pos, float(cfg["radius"])))
    raise ConfigError(f"unknown graph kind {kind!r}")


def parse_scenario(cfg: dict, name: str = "custom") -> Scenario:
    try:
        system = cfg["system"]
        model = build_system(
            _matrix(system["A"], "system.A"),
            _matrix(system["C"], "system.C"),
            _matrix(system["Q"], "system.Q"),
            _matrix(system["R"], "system.R"),
        )
        graph = _graph_from_config(cfg["graph"])
    except KeyError as exc:
        raise ConfigError(f"missing config key: {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad system or graph value: {exc}") from exc
    try:
        design = cfg.get("design", {})
        sim = cfg.get("sim", {})
        x0cov = sim.get("initial_state_cov")
        if x0cov is not None:
            x0cov = _matrix(x0cov, "sim.initial_state_cov")
            if x0cov.shape != (model.n, model.n):
                raise ConfigError(
                    f"sim.initial_state_cov is {x0cov.shape[0]}x{x0cov.shape[1]}, "
                    f"expected {model.n}x{model.n} for the plant order"
                )
        zeta, poles = design.get("zeta"), design.get("stable_poles")
        horizon = int(sim.get("horizon", 100))
        lo = max(1, horizon // 2)
        return Scenario(
            name=name,
            model=model,
            graph=graph,
            zeta=None if zeta is None else float(zeta),
            stable_poles=None if poles is None else [complex(p) for p in np.ravel(poles)],
            variant=str(design.get("variant", "auto")),
            replace_own=design.get("replace_own", False),
            horizon=horizon,
            trials=int(sim.get("trials", 100)),
            seed=int(sim.get("seed", 0)),
            rounds_per_sample=int(sim.get("rounds_per_sample", 1)),
            drop_prob=float(sim.get("drop_prob", 0.0)),
            initial_state_cov=x0cov,
            steady_window=(lo, horizon + 1),
        )
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad design or sim value: {exc}") from exc


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return parse_scenario(cfg, name=str(path))


# --- built-in example 1: scalar-sensor ring around an unstable plant ------

def example1_scenario(trials: int = 5000, seed: int = 12345) -> Scenario:
    """Four sensors on a ring observing a two-state plant with one
    unstable mode; sensor 1 alone cannot see it.  Messages use the
    reduced (alg2) form since n < m."""
    A = np.diag([0.9, 1.1])
    C = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
    Q = 0.25 * np.eye(2)
    R = 4.0 * np.eye(4)
    model = build_system(A, C, Q, R)
    graph = ring_graph(4, 1.0)
    return Scenario(
        name="example1",
        model=model,
        graph=graph,
        zeta=0.5,
        variant="auto",
        horizon=100,
        trials=trials,
        seed=seed,
        initial_state_cov=np.eye(2),
        steady_window=(50, 101),
    )


# --- built-in example 2: heat diffusion on a grid --------------------------

def heat_transition(N: int = 5, alpha: float = 0.2) -> np.ndarray:
    """Zero-flux diffusion step on an N x N grid: I - alpha * L_grid.

    The grid-graph Laplacian keeps the constant temperature profile
    invariant, so the transition matrix has a single eigenvalue at 1.
    """
    n = N * N
    L = np.zeros((n, n))
    for i in range(N):
        for j in range(N):
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < N and 0 <= jj < N:
                    L[i * N + j, i * N + j] += 1.0
                    L[i * N + j, ii * N + jj] -= 1.0
    return np.eye(n) - alpha * L


def interpolation_rows(positions: np.ndarray, N: int = 5, h: float = 1.0) -> np.ndarray:
    """Bilinear interpolation of the four surrounding grid temperatures,
    scaled by 1/h^2.  Positions live in [0, (N-1)*h)^2."""
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    m = pos.shape[0]
    C = np.zeros((m, N * N))
    for s in range(m):
        gx, gy = pos[s] / h
        i, j = int(np.floor(gx)), int(np.floor(gy))
        if not (0 <= i < N - 1 and 0 <= j < N - 1):
            raise ConfigError(f"sensor {s} lies outside the grid interior")
        d1, d2 = gx - i, gy - j
        C[s, i * N + j] = (1 - d1) * (1 - d2) / h**2
        C[s, (i + 1) * N + j] = d1 * (1 - d2) / h**2
        C[s, i * N + (j + 1)] = (1 - d1) * d2 / h**2
        C[s, (i + 1) * N + (j + 1)] = d1 * d2 / h**2
    return C


def example2_scenario(trials: int = 2000, seed: int = 777) -> Scenario:
    """Heat-diffusion monitoring: 25 grid states, 15 randomly placed
    sensors communicating within radius 2.4, messages of size m (alg1),
    own-block replacement enabled.

    Noise levels are specified as standard deviations (0.2 process, 3.0
    measurement), i.e. Q = 0.04 I and R = 9 I.
    """
    N, m, side = 5, 15, 4.0
    placement = np.random.default_rng(42)
    positions = placement.uniform(0.0, side, size=(m, 2))
    A = heat_transition(N=N, alpha=0.2)
    C = interpolation_rows(positions, N=N, h=1.0)
    Q = 0.2**2 * np.eye(N * N)
    R = 3.0**2 * np.eye(m)
    model = build_system(A, C, Q, R)
    graph = build_graph(geometric_adjacency(positions, 2.4))
    return Scenario(
        name="example2",
        model=model,
        graph=graph,
        zeta=None,
        variant="auto",
        replace_own=True,
        horizon=200,
        trials=trials,
        seed=seed,
        steady_window=(120, 201),
    )


def builtin_scenario(name: str, trials: int | None = None, seed: int | None = None) -> Scenario:
    builders = {"example1": example1_scenario, "example2": example2_scenario}
    if name not in builders:
        raise ConfigError(f"unknown example {name!r}; choose example1 or example2")
    kwargs = {}
    if trials is not None:
        kwargs["trials"] = trials
    if seed is not None:
        kwargs["seed"] = seed
    return builders[name](**kwargs)
