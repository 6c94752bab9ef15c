"""Plant, sensor, and communication-graph models with validation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import (
    BadNoiseError,
    DimensionMismatchError,
    DisconnectedGraphError,
    NotObservableError,
)

_CONNECTIVITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SystemModel:
    """LTI Gaussian plant monitored by m scalar sensors.

    x(k+1) = A x(k) + w(k),  w ~ N(0, Q)
    y(k)   = C x(k) + v(k),  v ~ N(0, R)

    Row i of C is the measurement map of sensor i.
    """

    A: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.C.shape[0]

    def sensor_row(self, i: int) -> np.ndarray:
        return self.C[i : i + 1]


def _check_symmetric(M, name, tol=1e-8):
    if np.linalg.norm(M - M.T) > tol * (1.0 + np.linalg.norm(M)):
        raise BadNoiseError(f"{name} must be symmetric")


def build_system(A, C, Q, R) -> SystemModel:
    """Validate dimensions, observability, and noise definiteness.

    Raises:
        DimensionMismatchError: incompatible shapes.
        NotObservableError: (A, C) fails the PBH observability test.
        BadNoiseError: Q indefinite or R not strictly positive definite.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    n = A.shape[0]
    m = C.shape[0]
    if A.shape != (n, n):
        raise DimensionMismatchError("A must be square")
    if C.shape[1] != n:
        raise DimensionMismatchError("C column count must match the state dimension")
    if Q.shape != (n, n):
        raise DimensionMismatchError("Q must be n x n")
    if R.shape != (m, m):
        raise DimensionMismatchError("R must be m x m")

    _check_symmetric(Q, "Q")
    _check_symmetric(R, "R")
    if np.min(np.linalg.eigvalsh(0.5 * (Q + Q.T))) < -1e-10 * max(1.0, np.linalg.norm(Q)):
        raise BadNoiseError("Q must be positive semidefinite")
    if np.min(np.linalg.eigvalsh(0.5 * (R + R.T))) <= 1e-12 * max(1.0, np.linalg.norm(R)):
        raise BadNoiseError("R must be strictly positive definite")
    if not numerics.is_observable(A, C):
        raise NotObservableError("(A, C) is not observable (PBH rank test)")
    return SystemModel(A=A, C=C, Q=Q, R=R)


@dataclass(frozen=True, eq=False)
class SplitModel:
    """Coordinates in which the plant is block diagonal, unstable part first.

    Vinv @ A @ V = diag(Au, As); C_i V = [Ciu_i, Cis_i]; J selects the
    stable substate from the (transformed) process noise.
    """

    V: np.ndarray
    Vinv: np.ndarray
    Au: np.ndarray
    As: np.ndarray
    Ciu: np.ndarray  # (m, nu)
    Cis: np.ndarray  # (m, ns)
    J: np.ndarray    # (ns, n) selector [0 I]

    @property
    def nu(self) -> int:
        return self.Au.shape[0]

    @property
    def ns(self) -> int:
        return self.As.shape[0]


def split_model(model: SystemModel) -> SplitModel:
    """Split the plant into unstable and stable spectral blocks.

    ``numerics.spectral_split`` gives the change of basis: the identity
    when A is all stable or all unstable, otherwise an ordered Schur
    decomposition plus a Sylvester solve.
    """
    V, Vinv, Au, As = numerics.spectral_split(model.A)
    nu, ns = Au.shape[0], As.shape[0]
    CV = model.C @ V
    J = np.hstack([np.zeros((ns, nu)), np.eye(ns)])
    return SplitModel(V=V, Vinv=Vinv, Au=Au, As=As, Ciu=CV[:, :nu], Cis=CV[:, nu:], J=J)


@dataclass(frozen=True, eq=False)
class SensorGraph:
    """Weighted undirected communication graph over the m sensors."""

    adjacency: np.ndarray
    laplacian: np.ndarray
    mu: np.ndarray  # Laplacian eigenvalues, ascending

    @property
    def m(self) -> int:
        return self.adjacency.shape[0]

    @property
    def mu2(self) -> float:
        return float(self.mu[1])

    @property
    def mu_max(self) -> float:
        return float(self.mu[-1])


def build_graph(adjacency) -> SensorGraph:
    """Build a SensorGraph from a symmetric nonnegative adjacency matrix.

    Raises:
        DimensionMismatchError / ConfigError family on malformed input.
        DisconnectedGraphError: algebraic connectivity mu_2 <= 1e-10.
    """
    A = np.atleast_2d(np.asarray(adjacency, dtype=float))
    m = A.shape[0]
    if m == 0 or A.shape != (m, m):
        raise DimensionMismatchError("adjacency must be square with at least one sensor")
    if np.linalg.norm(A - A.T) > 1e-12 * (1.0 + np.linalg.norm(A)):
        raise DimensionMismatchError("adjacency must be symmetric")
    if np.any(A < 0):
        raise DimensionMismatchError("adjacency weights must be nonnegative")
    if np.any(np.diag(A) != 0):
        raise DimensionMismatchError("adjacency diagonal must be zero")
    L = np.diag(A.sum(axis=1)) - A
    mu = np.sort(np.linalg.eigvalsh(0.5 * (L + L.T)))
    if m > 1 and mu[1] <= _CONNECTIVITY_TOL:
        raise DisconnectedGraphError(f"graph is disconnected (mu_2 = {mu[1]:.2e})")
    mu[0] = 0.0
    return SensorGraph(adjacency=A, laplacian=L, mu=mu)


def ring_graph(m: int, weight: float = 1.0) -> SensorGraph:
    """Ring of m sensors with a common edge weight."""
    A = np.zeros((m, m))
    for i in range(m):
        j = (i + 1) % m
        if i != j:
            A[i, j] = A[j, i] = weight
    return build_graph(A)


def complete_graph(m: int, weight: float = 1.0) -> SensorGraph:
    A = weight * (np.ones((m, m)) - np.eye(m))
    return build_graph(A)


def geometric_adjacency(positions: np.ndarray, radius: float) -> np.ndarray:
    """Unit-weight adjacency connecting points within the given radius."""
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    m = pos.shape[0]
    A = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            if np.linalg.norm(pos[i] - pos[j]) <= radius:
                A[i, j] = A[j, i] = 1.0
    return A


def random_geometric_graph(m: int, radius: float, seed: int) -> SensorGraph:
    """Seeded uniform placement on the unit square, radius connectivity."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(size=(m, 2))
    return build_graph(geometric_adjacency(pos, radius))
