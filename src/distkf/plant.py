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


def is_psd(M, floor=-1e-10) -> bool:
    """Symmetric, with eigenvalues above ``floor * max(1, ||M||)``; the
    default floor is the tolerance for a positive semidefinite Q."""
    size = np.linalg.norm(M)
    return (np.linalg.norm(M - M.T) <= 1e-8 * (1.0 + size)
            and np.linalg.eigvalsh(0.5 * (M + M.T)).min() > floor * max(1.0, size))


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

    if not is_psd(Q):
        raise BadNoiseError("Q must be symmetric positive semidefinite")
    if not is_psd(R, floor=1e-12):
        raise BadNoiseError("R must be symmetric and strictly positive definite")
    if not numerics.is_observable(A, C):
        raise NotObservableError("(A, C) is not observable (PBH rank test)")
    return SystemModel(A=A, C=C, Q=Q, R=R)


@dataclass(frozen=True, eq=False)
class SplitModel:
    """Orthogonal coordinates in which the plant is block upper-triangular,
    unstable part first.

    V' A V = [[Au, Aus], [0, As]] with V orthogonal; C_i V = [Ciu_i, Cis_i].
    The stable substate ``x_s = V[:, nu:]' x`` evolves on its own and drives
    the unstable one through Aus.
    """

    V: np.ndarray
    Au: np.ndarray   # eigenvalues with |lambda| >= 1 - 1e-9
    Aus: np.ndarray  # (nu, ns) stable-to-unstable coupling
    As: np.ndarray   # strictly stable block
    Ciu: np.ndarray  # (m, nu)
    Cis: np.ndarray  # (m, ns)

    @property
    def nu(self) -> int:
        return self.Au.shape[0]

    @property
    def ns(self) -> int:
        return self.As.shape[0]


def split_model(model: SystemModel) -> SplitModel:
    """Split the plant into unstable and stable parts by the ordered real
    Schur form of ``numerics.spectral_split``; one or the other may be empty.
    """
    V, T, nu = numerics.spectral_split(model.A)
    CV = model.C @ V
    return SplitModel(V=V, Au=T[:nu, :nu], Aus=T[:nu, nu:], As=T[nu:, nu:],
                      Ciu=CV[:, :nu], Cis=CV[:, nu:])


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
