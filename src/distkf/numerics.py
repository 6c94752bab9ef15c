"""Core numerical kernels: the filtering Riccati solver, spectral
splitting, observability tests and the Krylov matrix of a single-input
pair.  Stein (discrete Lyapunov) equations are solved where they arise,
block by block, in ``analysis``.

All routines operate on plain ``numpy.ndarray`` inputs and are pure
functions, safe for concurrent use.  Conventions:

* the unit-circle classification threshold is ``1 - 1e-9``: an eigenvalue
  with modulus at or above it counts as unstable;
* every rank decision goes through an SVD with relative tolerance
  ``1e-10 * sigma_max``.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg

from .errors import NoConvergenceError, NotDetectableError

UNIT_CIRCLE_TOL = 1e-9
RANK_RTOL = 1e-10


def spectral_radius(X: np.ndarray) -> float:
    X = np.atleast_2d(X)
    if X.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(X))))


def unstable_eigvals(X: np.ndarray) -> np.ndarray:
    """Eigenvalues of X with modulus >= 1 - UNIT_CIRCLE_TOL."""
    ev = np.linalg.eigvals(np.atleast_2d(X)) if np.size(X) else np.array([])
    return ev[np.abs(ev) >= 1.0 - UNIT_CIRCLE_TOL]


def _pbh_ok(A, C, eigenvalues) -> bool:
    n = A.shape[0]
    for lam in eigenvalues:
        M = np.vstack([A - lam * np.eye(n), C])
        s = np.linalg.svd(M, compute_uv=False)
        if s[-1] <= RANK_RTOL * s[0]:
            return False
    return True


def is_observable(A: np.ndarray, C: np.ndarray) -> bool:
    """PBH test over the full spectrum of A."""
    return _pbh_ok(A, C, np.linalg.eigvals(A))


def is_detectable(A: np.ndarray, C: np.ndarray) -> bool:
    """PBH test restricted to eigenvalues on or outside the unit circle."""
    return _pbh_ok(A, C, unstable_eigvals(A))


def solve_dare(A: np.ndarray, C: np.ndarray, Q: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Steady-state prediction covariance of the filtering Riccati equation.

    Solves ``S = A S A' - A S C' (C S C' + R)^{-1} C S A' + Q`` for the
    stabilizing solution with scipy's Schur-based solver.  Whether that
    solution stabilizes the filter is the caller's check
    (``kalman.design_kalman``).

    Raises:
        NotDetectableError: (A, C) fails the PBH detectability test.
        NoConvergenceError: the solver failed, or its solution misses the
            residual contract ``1e-9 * (1 + ||S||)``.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    if not is_detectable(A, C):
        raise NotDetectableError("(A, C) is not detectable (PBH rank test)")
    try:
        Sigma = linalg.solve_discrete_are(A.T, C.T, Q, R)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NoConvergenceError(f"Riccati solve failed: {exc}") from exc
    Sigma = 0.5 * (Sigma + Sigma.T)
    G = C @ Sigma @ C.T + R
    ASC = A @ Sigma @ C.T
    res = np.linalg.norm(Sigma - (A @ Sigma @ A.T - ASC @ np.linalg.solve(G, ASC.T) + Q))
    if not res <= 1e-9 * (1.0 + np.linalg.norm(Sigma)):
        raise NoConvergenceError(f"Riccati residual {res:.3e} exceeds 1e-9 * (1 + ||S||)")
    return Sigma


def spectral_split(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Ordered real Schur form ``A = V T V'``, (marginally) unstable part first.

    Returns ``(V, T, nu)``: V orthogonal, ``T = [[Au, Aus], [0, As]]``
    quasi-upper-triangular, and nu the number of eigenvalues with modulus
    at or above ``1 - 1e-9``, which Au holds.  The first nu columns of V
    span A's unstable invariant subspace; the coupling Aus is kept, so no
    Sylvester solve (whose conditioning is ``sep(Au, As)``) is needed.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    thresh = 1.0 - UNIT_CIRCLE_TOL
    T, V, nu = linalg.schur(
        A, output="real", sort=lambda re, im: np.hypot(re, im) >= thresh
    )
    return V, T, nu


def ctrb(X: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Krylov controllability matrix ``[p, Xp, ..., X^{n-1} p]``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    p = np.asarray(p, dtype=float).ravel()
    n = X.shape[0]
    out = np.empty((n, n))
    col = p
    for j in range(n):
        out[:, j] = col
        if j + 1 < n:
            col = X @ col
    return out
