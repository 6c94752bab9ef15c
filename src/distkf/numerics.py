"""Core numerical kernels: Riccati/Lyapunov solvers, spectral splitting,
observability tests and the Krylov matrix of a single-input pair.

All routines operate on plain ``numpy.ndarray`` inputs and are pure
functions, safe for concurrent use.  Conventions:

* the unit-circle classification threshold is ``1 - 1e-9``: an eigenvalue
  with modulus at or above it counts as unstable;
* every rank decision goes through an SVD with relative tolerance
  ``1e-10 * sigma_max``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy import linalg

from .errors import NoConvergenceError, NotDetectableError, UnstableMatrixError

UNIT_CIRCLE_TOL = 1e-9
RANK_RTOL = 1e-10

_DARE_MAX_ITER = 100_000
_DARE_RTOL = 1e-12
_DLYAP_MAX_DOUBLINGS = 64


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
    ev = np.linalg.eigvals(A)
    return _pbh_ok(A, C, ev[np.abs(ev) >= 1.0 - UNIT_CIRCLE_TOL])


def _dare_rhs(A, C, Q, R, Sigma):
    G = C @ Sigma @ C.T + R
    ASC = A @ Sigma @ C.T
    return A @ Sigma @ A.T - ASC @ np.linalg.solve(G, ASC.T) + Q


def solve_dare(A: np.ndarray, C: np.ndarray, Q: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Steady-state prediction covariance of the filtering Riccati equation.

    Solves ``S = A S A' - A S C' (C S C' + R)^{-1} C S A' + Q`` for the
    unique stabilizing solution.  Uses the Schur-based solver first and
    falls back to the fixed-point recursion, which also covers plants with
    eigenvalues exactly on the unit circle.

    Raises:
        NotDetectableError: (A, C) fails the PBH detectability test.
        NoConvergenceError: neither route produced a solution within the
            residual contract ``1e-9 * (1 + ||S||)``.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    if not is_detectable(A, C):
        raise NotDetectableError("(A, C) is not detectable (PBH rank test)")

    Sigma = None
    try:
        Sigma = linalg.solve_discrete_are(A.T, C.T, Q, R)
    except (np.linalg.LinAlgError, linalg.LinAlgError, ValueError):
        Sigma = None

    if Sigma is None or not _dare_residual_ok(A, C, Q, R, Sigma):
        Sigma = Q.copy()
        for _ in range(_DARE_MAX_ITER):
            nxt = _dare_rhs(A, C, Q, R, Sigma)
            # resymmetrize: antisymmetric rounding noise is amplified at the
            # squared unstable rate and would eventually dominate
            nxt = 0.5 * (nxt + nxt.T)
            if np.linalg.norm(nxt - Sigma) <= _DARE_RTOL * (1.0 + np.linalg.norm(nxt)):
                Sigma = nxt
                break
            Sigma = nxt
        else:
            raise NoConvergenceError("Riccati fixed-point iteration hit the cap")

    Sigma = 0.5 * (Sigma + Sigma.T)
    if not _dare_residual_ok(A, C, Q, R, Sigma):
        raise NoConvergenceError("Riccati residual exceeds 1e-9 * (1 + ||S||)")
    return Sigma


def _dare_residual_ok(A, C, Q, R, Sigma) -> bool:
    res = np.linalg.norm(Sigma - _dare_rhs(A, C, Q, R, Sigma))
    return bool(res <= 1e-9 * (1.0 + np.linalg.norm(Sigma)))


def solve_dlyap(F: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Solve ``W = F W F' + V`` for a strictly stable F and symmetric V.

    Smith's squared series (R. A. Smith, SIAM J. Appl. Math. 1968): from
    ``W = V`` and ``F_0 = F``, each doubling sets ``W <- W + F_k W F_k'``
    and ``F_{k+1} = F_k^2``, so k doublings sum 2^k terms of
    ``sum_j F^j V F'^j``.  The loop stops once ``||F_k||_F^2 <= eps``, when
    the tail is below roundoff and before F_k decays into subnormals (which
    slow every product), or after 64 doublings (about 36 suffice at
    spectral radius ``1 - 1e-9``).  Roundoff grows with the transient peak
    of ``||F^j||``, so a strongly non-normal F near the unit circle can fail
    the residual contract.

    Callers: ``analysis.asymptotic_covariance`` on the small block E of the
    augmented system, and acceptance criterion 9.

    Raises:
        UnstableMatrixError: spectral radius of F is >= 1 - 1e-9.
        NoConvergenceError: ``||W - F W F' - V|| > 1e-9 (1 + ||W||)``.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    V = np.atleast_2d(np.asarray(V, dtype=float))
    if spectral_radius(F) >= 1.0 - UNIT_CIRCLE_TOL:
        raise UnstableMatrixError("spectral radius >= 1, Lyapunov solution undefined")
    W = 0.5 * (V + V.T)
    Fk = F
    for _ in range(_DLYAP_MAX_DOUBLINGS):
        if np.vdot(Fk, Fk) <= np.finfo(float).eps:
            break
        W = W + Fk @ W @ Fk.T
        W = 0.5 * (W + W.T)
        Fk = Fk @ Fk
    res = np.linalg.norm(W - F @ W @ F.T - V)
    if res > 1e-9 * (1.0 + np.linalg.norm(W)):
        raise NoConvergenceError(f"Lyapunov residual {res:.3e} out of contract")
    return W


class SpectralSplit(NamedTuple):
    V: np.ndarray      # change of basis, V^{-1} A V = diag(Au, As)
    Vinv: np.ndarray
    Au: np.ndarray     # eigenvalues with |lambda| >= 1 - 1e-9
    As: np.ndarray     # strictly stable block


def spectral_split(A: np.ndarray) -> SpectralSplit:
    """Similarity transform isolating the (marginally) unstable subspace.

    Ordered real Schur form puts the unstable eigenvalues in the leading
    block; a Sylvester solve then removes the off-diagonal coupling so the
    transformed matrix is block diagonal.  Either block may be empty.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    thresh = 1.0 - UNIT_CIRCLE_TOL

    T, Z, nu = linalg.schur(
        A, output="real", sort=lambda re, im: np.hypot(re, im) >= thresh
    )
    T11 = T[:nu, :nu]
    T22 = T[nu:, nu:]
    M = np.eye(n)
    if 0 < nu < n:
        # zero the coupling: T11 X - X T22 = -T12
        X = linalg.solve_sylvester(T11, -T22, -T[:nu, nu:])
        M[:nu, nu:] = X
    Minv = np.eye(n)
    Minv[:nu, nu:] = -M[:nu, nu:]
    V = Z @ M
    Vinv = Minv @ Z.T
    return SpectralSplit(V, Vinv, T11.copy(), T22.copy())


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
