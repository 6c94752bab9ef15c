"""Consensus coupling design and the two link models: static links and
Bernoulli link drops.

Feasibility hinges on the Mahler measure of the local-filter matrix S
(the product of its unstable eigenvalue moduli) against the graph bound
``(1 + mu_2/mu_m) / (1 - mu_2/mu_m)``.  S comes from the modal
decomposition: block diagonal with its unstable block ``S_u`` (nu x nu)
leading.  The coupling gain acts on that block only, ``Gamma = [Gamma_u, 0]``,
so every deviation mode ``S - mu_j 1 Gamma`` is block triangular with
spectrum ``eig(S_u - mu_j 1 Gamma_u)`` plus the stable picks.  ``Gamma_u``
comes from the rank-one modified algebraic Riccati equation on ``S_u``
(for nu = 1 it is ``2 s_u / (mu_2 + mu_m)``, You & Xie, IEEE TAC 2011);
``Pmare`` is zero outside the unstable block.  A stable S (nu = 0) gets
``Gamma = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import (
    ConfigError,
    GainInfeasibleError,
    InfeasibleConditionError,
    InfeasibleZetaError,
    NoConvergenceError,
)
from .plant import SensorGraph

_MARE_RTOL = 1e-11
_MARE_MAX_ITER = 100_000


@dataclass(frozen=True, eq=False)
class ConditionReport:
    mahler: float
    bound: float
    feasible: bool


def mahler_measure(S: np.ndarray) -> float:
    """Product of the moduli of eigenvalues on/outside the unit circle
    (empty product = 1)."""
    lam = numerics.unstable_eigvals(S)
    return float(np.prod(np.abs(lam))) if lam.size else 1.0


def check_condition(S: np.ndarray, graph: SensorGraph) -> ConditionReport:
    """Mahler measure versus the graph bound; infinite bound on graphs
    with mu_2 = mu_m (e.g. complete graphs) and on single-node networks."""
    mahler = mahler_measure(S)
    if graph.m == 1:
        return ConditionReport(mahler=mahler, bound=np.inf, feasible=True)
    ratio = graph.mu2 / graph.mu_max
    bound = np.inf if ratio >= 1.0 - 1e-12 else (1.0 + ratio) / (1.0 - ratio)
    return ConditionReport(mahler=mahler, bound=float(bound), feasible=bool(mahler < bound))


def choose_zeta(mahler: float, bound: float) -> float:
    """Deterministic default: 1/zeta at the geometric midpoint of the
    admissible interval (mahler, bound], clamped inside it."""
    if not np.isfinite(bound):
        return 1.0 / (2.0 * max(mahler, 1.0))
    inv = float(np.sqrt(mahler * bound))
    inv = min(max(inv, mahler * (1.0 + 1e-9)), bound)
    return 1.0 / inv


def solve_mare(S: np.ndarray, zeta: float):
    """Positive-definite solution of the rank-one modified Riccati relation

        P = S'PS - (1 - zeta^2) S'P 1 1'P S / (1'P1) + I

    by fixed-point iteration from P = I.  The +I forcing makes the strict
    inequality version hold with unit margin.  Returns (P, number of
    iterations).

    Raises:
        InfeasibleZetaError: zeta * mahler(S) >= 1 (no solution exists).
        NoConvergenceError: iteration cap reached.
    """
    S = np.atleast_2d(np.asarray(S, dtype=float))
    n = S.shape[0]
    if not (0.0 < zeta < 1.0):
        raise InfeasibleZetaError(f"zeta must lie in (0, 1), got {zeta}")
    if zeta * mahler_measure(S) >= 1.0:
        raise InfeasibleZetaError(
            f"zeta * mahler = {zeta * mahler_measure(S):.6f} >= 1, no MARE solution"
        )
    ones = np.ones(n)
    P = np.eye(n)
    shrink = 1.0 - zeta**2
    for k in range(1, _MARE_MAX_ITER + 1):
        SP = S.T @ P
        g = SP @ ones
        Pn = SP @ S - shrink * np.outer(g, g) / (ones @ P @ ones) + np.eye(n)
        Pn = 0.5 * (Pn + Pn.T)
        done = np.linalg.norm(Pn - P) <= _MARE_RTOL * np.linalg.norm(Pn)
        P = Pn
        if done:
            if mare_margin(S, P, zeta) <= 1e-10 * np.linalg.norm(P):
                raise NoConvergenceError("MARE fixed point lost strict positivity")
            return P, k
    raise NoConvergenceError("MARE fixed point did not converge")


def mare_margin(S: np.ndarray, P: np.ndarray, zeta: float) -> float:
    """Smallest eigenvalue of P - S'PS + (1-zeta^2) S'P11'PS / (1'P1)."""
    n = S.shape[0]
    ones = np.ones(n)
    g = S.T @ P @ ones
    lhs = P - S.T @ P @ S + (1.0 - zeta**2) * np.outer(g, g) / (ones @ P @ ones)
    return float(np.min(np.linalg.eigvalsh(0.5 * (lhs + lhs.T))))


def compute_gamma(S: np.ndarray, Pmare: np.ndarray, graph: SensorGraph) -> np.ndarray:
    """Coupling row vector Gamma = 2/(mu_2 + mu_m) * 1'PS / (1'P1)."""
    n = S.shape[0]
    ones = np.ones(n)
    return (2.0 / (graph.mu2 + graph.mu_max)) * (ones @ Pmare @ S) / (ones @ Pmare @ ones)


def verify_gain(S: np.ndarray, Gamma: np.ndarray, graph: SensorGraph):
    """Spectral radii of S - mu_j 1 Gamma for j = 2..m.

    Raises GainInfeasibleError listing the offending modes.
    """
    n = S.shape[0]
    ones = np.ones(n)
    radii = np.array(
        [numerics.spectral_radius(S - mu * np.outer(ones, Gamma)) for mu in graph.mu[1:]]
    )
    bad = np.where(radii >= 1.0 - numerics.UNIT_CIRCLE_TOL)[0]
    if bad.size:
        modes = ", ".join(f"j={j + 2} (rho={radii[j]:.6f})" for j in bad)
        raise GainInfeasibleError(f"coupling leaves unstable deviation modes: {modes}")
    return radii


@dataclass(frozen=True, eq=False)
class ConsensusDesign:
    zeta: float
    Pmare: np.ndarray
    Gamma: np.ndarray          # (n,) row gain
    mahler: float
    bound: float
    spectral_radii: np.ndarray  # rho(S - mu_j 1 Gamma), j = 2..m
    mare_iterations: int = 0

    @property
    def feasible(self) -> bool:
        return bool(np.all(self.spectral_radii < 1.0 - numerics.UNIT_CIRCLE_TOL))


def design_consensus(S: np.ndarray, graph: SensorGraph, zeta: float | None = None) -> ConsensusDesign:
    """Feasibility check, zeta selection, MARE on the unstable block, gain,
    verification.

    S must have its unstable eigenvalues in a leading decoupled block, as
    ``build_bundle`` produces it; the gain is ``[Gamma_u, 0]`` with
    Gamma_u from the MARE solution on that block.

    Raises:
        InfeasibleConditionError: mahler >= graph bound.
        InfeasibleZetaError: a user-supplied zeta violates
            mahler < 1/zeta <= bound.
        GainInfeasibleError: a deviation mode remains unstable.
    """
    report = check_condition(S, graph)
    if not report.feasible:
        raise InfeasibleConditionError(
            f"Mahler measure {report.mahler:.6f} >= graph bound {report.bound:.6f}"
        )
    S = np.atleast_2d(np.asarray(S, dtype=float))
    n = S.shape[0]
    nu = numerics.unstable_eigvals(S).size
    if zeta is None:
        zeta = choose_zeta(report.mahler, report.bound)
    elif graph.m > 1:
        if not (0.0 < zeta < 1.0):
            raise InfeasibleZetaError(f"zeta must lie in (0, 1), got {zeta}")
        inv = 1.0 / zeta
        if not (report.mahler < inv <= report.bound + 1e-12):
            raise InfeasibleZetaError(
                f"1/zeta = {inv:.6f} outside (mahler, bound] = "
                f"({report.mahler:.6f}, {report.bound:.6f}]"
            )
    P = np.zeros((n, n))
    iterations = 0
    if nu:
        P[:nu, :nu], iterations = solve_mare(S[:nu, :nu], zeta)
    # a single node never couples, and a stable S needs no coupling
    Gamma = np.zeros(n)
    radii = np.empty(0)
    if graph.m > 1:
        if nu:
            Gamma = compute_gamma(S, P, graph)
        radii = verify_gain(S, Gamma, graph)
    return ConsensusDesign(
        zeta=float(zeta),
        Pmare=P,
        Gamma=np.asarray(Gamma, dtype=float).ravel(),
        mahler=report.mahler,
        bound=report.bound,
        spectral_radii=radii,
        mare_iterations=iterations,
    )


@dataclass(frozen=True, eq=False)
class StaticStrategy:
    """Perfect links: gamma_ij(k) = 1 for every edge and step."""

    def sample_gains(self, adjacency, horizon, rounds, rng=None):
        """Link flags (steps, rounds, E), True where the link is up, one
        per step, consensus round and edge i < j of ``adjacency`` in
        row-major order: here all True, with steps = 1 for links that never
        change.  ``rng`` is the trial's link stream; this draws nothing."""
        return np.ones((1, rounds, np.count_nonzero(adjacency) // 2), dtype=bool)


@dataclass(frozen=True, eq=False)
class BernoulliDropStrategy:
    """I.i.d. symmetric link failures: each undirected edge fails as a
    whole with probability ``drop_prob``, independently across edges,
    steps, and consensus rounds, and independently of all plant noise.
    """

    drop_prob: float

    def __post_init__(self):
        if not (0.0 <= self.drop_prob < 1.0):
            raise ConfigError(f"drop_prob must lie in [0, 1), got {self.drop_prob}")

    def sample_gains(self, adjacency, horizon, rounds, rng):
        """Link flags (horizon, rounds, E) as for ``StaticStrategy``,
        each True with probability 1 - drop_prob, from one uniform draw
        of ``rng``, the trial's link stream."""
        return rng.random((horizon, rounds, np.count_nonzero(adjacency) // 2)) >= self.drop_prob


def static_strategy() -> StaticStrategy:
    return StaticStrategy()


def bernoulli_drop_strategy(drop_prob: float) -> BernoulliDropStrategy:
    return BernoulliDropStrategy(drop_prob=drop_prob)
