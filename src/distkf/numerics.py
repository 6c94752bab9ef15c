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
from scipy.linalg import lapack

from .errors import NoConvergenceError, NotDetectableError, UnstableMatrixError

UNIT_CIRCLE_TOL = 1e-9
RANK_RTOL = 1e-10

_DARE_MAX_ITER = 100_000
_DARE_RTOL = 1e-12
_LYAP_LEAF = 64  # largest block that solve_dlyap hands to LAPACK dtrsyl


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


def _quasi_triangular_radius(T: np.ndarray) -> float:
    """Spectral radius of a real Schur form from its 1x1 and 2x2 diagonal
    blocks (a nonzero subdiagonal entry marks a 2x2 block)."""
    n = T.shape[0]
    if n == 0:
        return 0.0
    d = np.abs(np.diag(T))
    pairs = np.flatnonzero(np.diag(T, -1))
    if pairs.size:
        blocks = np.stack([T[k : k + 2, k : k + 2] for k in pairs])
        d[pairs] = np.abs(np.linalg.eigvals(blocks)).max(axis=1)
    return float(d.max())


def solve_dlyap(F: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Solve ``W = F W F' + V`` for a strictly stable F and symmetric V.

    Recursive blocked Bartels-Stewart on one real Schur form
    ``F = Z T Z'`` (Bartels & Stewart, CACM 1972; Jonsson & Kagstrom,
    ACM TOMS 2002).  The stability guard reads T's diagonal blocks.  The
    bilinear map ``R = I - 2 (T + I)^{-1}`` turns ``Y = T Y T' + Z'VZ``
    into the continuous equation ``R Y + Y R' = C`` with
    ``C = -2 (T + I)^{-1} Z'VZ (T + I)^{-T}``; R keeps T's block pattern.
    That equation is solved by halving at block boundaries, with LAPACK
    ``dtrsyl`` at leaves of at most ``_LYAP_LEAF`` rows and matrix
    products everywhere else.

    Callers: ``analysis.asymptotic_covariance`` on the small tracking and
    stable-substate block E of the augmented system (the deviation blocks
    are solved atom by atom there), and acceptance criterion 9, which
    checks this solver against a truncated series on random plants.

    Raises:
        UnstableMatrixError: spectral radius of F is >= 1 - 1e-9.
        NoConvergenceError: ``dtrsyl`` had to rescale or rejected its
            input, or the residual contract
            ``||W - F W F' - V|| <= 1e-9 (1 + ||W||)`` is not met.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    V = np.atleast_2d(np.asarray(V, dtype=float))
    n = F.shape[0]
    T, Z = _flush_tiny(*linalg.schur(F, output="real"))
    if _quasi_triangular_radius(T) >= 1.0 - UNIT_CIRCLE_TOL:
        raise UnstableMatrixError("spectral radius >= 1, Lyapunov solution undefined")
    (M,) = _flush_tiny(linalg.inv(T + np.eye(n)))
    # R takes exactly T's block pattern: roundoff below it would read as
    # further 2x2 blocks
    R = np.eye(n) - 2.0 * np.triu(M)
    pairs = np.flatnonzero(np.diag(T, -1))
    R[pairs + 1, pairs] = -2.0 * M[pairs + 1, pairs]
    MZt = M @ Z.T
    Y = -2.0 * (MZt @ V @ MZt.T)
    # the recursion mirrors blocks above the diagonal onto those below, so
    # the roundoff asymmetry of C is averaged out first: on heat16, a
    # mirrored asymmetry of 1e-14 changes the projected covariance Wbar
    # at order one
    Y = 0.5 * (Y + Y.T)
    _lyap_rec(R, Y)
    W = Z @ Y @ Z.T
    W = 0.5 * (W + W.T)
    res = np.linalg.norm(W - F @ W @ F.T - V)
    if res > 1e-9 * (1.0 + np.linalg.norm(W)):
        raise NoConvergenceError(f"Lyapunov residual {res:.3e} out of contract")
    return W


def _flush_tiny(*arrays):
    """Zero entries below sqrt(tiny) ~ 1.5e-154 in place.

    The Schur factors of a block-triangular F hold many subnormal and
    near-subnormal entries.  As operands, or through products that
    underflow, they slow every matrix product several times over (3x on
    heat16), and they lie far below the roundoff of the O(1)-scaled
    factors."""
    tiny = np.sqrt(np.finfo(float).tiny)
    for X in arrays:
        X[np.abs(X) < tiny] = 0.0
    return arrays


def _trsyl(A, B, C):
    """``A X + X B' = C`` for small upper quasi-triangular A, B."""
    X, scale, info = lapack.dtrsyl(A, B, C, tranb="T")
    if info < 0 or scale != 1.0:
        raise NoConvergenceError(
            f"triangular Sylvester solve failed (info {info}, scale {scale:.3e})"
        )
    return X


def _split(A) -> int:
    """Midpoint of a quasi-triangular A, moved off any 2x2 block."""
    k = A.shape[0] // 2
    return k + 1 if A[k, k - 1] != 0.0 else k


def _lyap_rec(R, C) -> None:
    """Overwrite symmetric C with the solution Y of ``R Y + Y R' = C``."""
    if R.shape[0] <= _LYAP_LEAF:
        C[...] = _trsyl(R, R, C)
        return
    k = _split(R)
    R12 = R[:k, k:]
    _lyap_rec(R[k:, k:], C[k:, k:])
    C[:k, k:] -= R12 @ C[k:, k:]
    _sylv_rec(R[:k, :k], R[k:, k:], C[:k, k:])
    upd = R12 @ C[:k, k:].T
    C[:k, :k] -= upd + upd.T
    _lyap_rec(R[:k, :k], C[:k, :k])
    C[k:, :k] = C[:k, k:].T


def _sylv_rec(A, B, C) -> None:
    """Overwrite C with the solution X of ``A X + X B' = C``."""
    p, q = C.shape
    if p <= _LYAP_LEAF and q <= _LYAP_LEAF:
        C[...] = _trsyl(A, B, C)
    elif p >= q:
        k = _split(A)
        _sylv_rec(A[k:, k:], B, C[k:])
        C[:k] -= A[:k, k:] @ C[k:]
        _sylv_rec(A[:k, :k], B, C[:k])
    else:
        k = _split(B)
        _sylv_rec(A, B[k:, k:], C[:, k:])
        C[:, :k] -= C[:, k:] @ B[:k, k:].T
        _sylv_rec(A, B[:k, :k], C[:, :k])


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
