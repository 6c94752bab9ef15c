"""Lossless decomposition of the steady-state Kalman filter.

The centralized fixed-gain filter is rewritten as m per-sensor filters
plus a linear read-out:

* ``Lambda`` -- strictly stable, non-derogatory, same characteristic
  polynomial as the closed loop ``Acl = A - KCA``; built as a companion
  matrix conjugated by the unit-determinant similarity that maps the last
  basis vector to the all-ones vector, so ``(Lambda, 1)`` is controllable
  by construction.
* ``F_i`` -- weights with ``F_i Lambda = Acl F_i`` and ``F_i 1 = K_i``;
  the Kalman estimate is exactly ``sum_i F_i xi_i(k)`` when every sensor
  runs ``xi_i(k+1) = Lambda xi_i(k) + 1 y_i(k+1)``.
* ``S = Lambda + 1 beta'`` -- the same filter driven by the bounded
  residual ``z_i(k) = y_i(k+1) - beta' xi_i(k)`` instead of the raw
  (possibly unbounded) measurement; beta places the spectrum of S on the
  unstable plant poles plus freely chosen stable ones.
* ``G_i`` -- analysis matrices tying the local filter state to the
  unstable substate, used by the covariance pipeline.
* ``ReducedBundle`` -- an order-n^2 realization of the same transfer
  function used when n < m to shrink messages.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import (
    IllConditionedError,
    LosslessViolationError,
    NumericalError,
    PoleClashError,
)
from .kalman import KalmanDesign, step_centralized
from .plant import SplitModel, SystemModel, split_model

_COND_LIMIT = 1e12
_POLE_GAP = 1e-3
_RESIDUAL_TOL = 1e-8
_RESIDUAL_HARD_LIMIT = 1e-5


@dataclass(frozen=True, eq=False)
class DecompositionBundle:
    Lambda: np.ndarray          # (n, n)
    beta: np.ndarray            # (n,)
    S: np.ndarray               # (n, n) = Lambda + 1 beta'
    F: np.ndarray               # (m, n, n), F[i] = F_i
    G: np.ndarray               # (m, n, n), G[i] = [G_i^u 0] in split coordinates
    phiS: np.ndarray            # char poly of S, monic descending
    diagnostics: dict = field(default_factory=dict, compare=False)

    @property
    def n(self) -> int:
        return self.Lambda.shape[0]

    @property
    def m(self) -> int:
        return self.F.shape[0]

    @property
    def Fstack(self) -> np.ndarray:
        """F as the (n, m*n) block row [F_1 ... F_m]."""
        return np.hstack(list(self.F))


@dataclass(frozen=True, eq=False)
class ReducedBundle:
    H: np.ndarray       # (n, n^2) block row of H_j = e_j beta'
    T: np.ndarray       # (n^2, m), column i stacks p_ij(S) @ 1 over j
    alpha: np.ndarray   # (m, n, n) ascending coefficients of p_ij

    @property
    def n(self) -> int:
        return self.H.shape[0]

    @property
    def m(self) -> int:
        return self.T.shape[1]

    def T_blocks(self, i: int) -> np.ndarray:
        """T_i reshaped to (n, n): row j is p_ij(S) @ 1."""
        n = self.n
        return self.T[:, i].reshape(n, n)


def _ones_similarity(n: int):
    """M with det 1 mapping e_n to the all-ones vector, and its inverse."""
    ones = np.ones(n)
    e_n = np.zeros(n)
    e_n[-1] = 1.0
    M = np.eye(n) + np.outer(ones - e_n, e_n)
    Minv = np.eye(n) - np.outer(ones - e_n, e_n)
    return M, Minv


def _warn_if_uncontrollable(X, p, label):
    """Controllability holds in exact arithmetic by construction; the
    numeric PBH margin can still underflow for clustered spectra at
    larger n (monic polynomials are exponentially small between roots),
    so a failed check is reported rather than fatal."""
    if not numerics.is_controllable_pair(X, p):
        warnings.warn(
            f"numeric PBH controllability margin of {label} is below the rank "
            "tolerance; Krylov-based consumers will fall back or refuse",
            stacklevel=3,
        )
        return False
    return True


def build_lambda(design: KalmanDesign) -> np.ndarray:
    """Stable non-derogatory companion-similar matrix sharing Acl's
    characteristic polynomial, with (Lambda, 1) controllable."""
    phi = numerics.char_poly(design.Acl)
    n = design.n
    Ac = numerics.companion(phi)
    M, Minv = _ones_similarity(n)
    Lam = M @ Ac @ Minv
    _warn_if_uncontrollable(Lam, np.ones(n), "(Lambda, 1)")
    return Lam


def _companion_coefficients(Lambda: np.ndarray):
    """Recover monic coefficients when Lambda is companion-similar under
    the all-ones similarity; None if the structure does not hold."""
    n = Lambda.shape[0]
    M, Minv = _ones_similarity(n)
    Ac = Minv @ Lambda @ M
    if n > 1:
        ref = np.zeros((n - 1, n))
        ref[:, 1:] = np.eye(n - 1)
        scale = 1.0 + np.abs(Ac).max()
        if np.abs(Ac[: n - 1] - ref).max() > 1e-9 * scale:
            return None
    phi = np.empty(n + 1)
    phi[0] = 1.0
    phi[1:] = -Ac[-1, ::-1]
    return phi


def build_F(design: KalmanDesign, Lambda: np.ndarray):
    """Per-sensor weights F_i with F_i Lambda = Acl F_i and F_i 1 = K_i.

    The constructive route is F_i = R_Y R_X^{-1} with R_X = ctrb(Lambda, 1)
    and R_Y = ctrb(Acl, K_i).  When R_X is ill-conditioned (or the
    residual contract fails, which happens well before cond reaches 1e12
    on larger systems) each F_i is instead recovered from the stacked
    linear system

        [Lambda' (x) I - I (x) Acl] vec(F_i) = 0,   (1' (x) I) vec(F_i) = K_i

    by least squares.

    Returns (F, info) where F has shape (m, n, n).
    """
    n, m = design.n, design.m
    Acl, K = design.Acl, design.K
    ones = np.ones(n)
    RX = numerics.ctrb(Lambda, ones)
    cond = np.linalg.cond(RX)
    info = {"ctrb_cond": float(cond), "route": "krylov"}

    def residuals(F):
        worst = 0.0
        for i in range(m):
            r1 = np.linalg.norm(F[i] @ Lambda - Acl @ F[i]) / (1.0 + np.linalg.norm(F[i]))
            r2 = np.linalg.norm(F[i] @ ones - K[:, i])
            worst = max(worst, r1, r2)
        return worst

    F = None
    if cond <= _COND_LIMIT:
        F = np.empty((m, n, n))
        for i in range(m):
            RY = numerics.ctrb(Acl, K[:, i])
            F[i] = np.linalg.solve(RX.T, RY.T).T
        if residuals(F) > _RESIDUAL_TOL:
            F = None

    if F is None:
        info["route"] = "stacked-lstsq"
        stacked = np.vstack(
            [np.kron(Lambda.T, np.eye(n)) - np.kron(np.eye(n), Acl), np.kron(ones, np.eye(n))]
        )
        F = np.empty((m, n, n))
        for i in range(m):
            rhs = np.concatenate([np.zeros(n * n), K[:, i]])
            vec, *_ = np.linalg.lstsq(stacked, rhs, rcond=None)
            F[i] = vec.reshape((n, n), order="F")

    info["residual"] = float(residuals(F))
    if info["residual"] > _RESIDUAL_HARD_LIMIT:
        raise IllConditionedError(
            f"F construction residual {info['residual']:.3e} (cond {cond:.3e})"
        )
    return F, info


def default_stable_poles(ns: int, retry: int = 0) -> np.ndarray:
    """Deterministic stable pole picks: ns values uniformly spaced on
    [-0.4, 0.4], shifted by +0.013 per retry."""
    if ns == 0:
        return np.empty(0)
    base = np.array([0.0]) if ns == 1 else np.linspace(-0.4, 0.4, ns)
    return base + 0.013 * retry


def design_S_beta(Lambda: np.ndarray, split: SplitModel, stable_poles=None):
    """Choose beta so S = Lambda + 1 beta' carries the unstable plant poles
    plus stable fill-ins disjoint from Lambda's spectrum.

    The placement is Ackermann's formula; when Lambda comes from
    build_lambda it is evaluated in the companion basis, where the gain is
    an exact difference of characteristic coefficients.

    Raises:
        PoleClashError: no pole set with the 1e-3 spectral gap was found
            within 10 retries (only possible with the default rule).
    """
    n = Lambda.shape[0]
    ns = n - split.nu
    lam_eigs = np.linalg.eigvals(Lambda)
    unstable = np.linalg.eigvals(split.Au) if split.nu else np.empty(0, dtype=complex)

    def ok(picks):
        vals = np.concatenate([unstable, np.asarray(picks, dtype=complex)])
        if np.min(np.abs(vals[:, None] - lam_eigs[None, :])) < _POLE_GAP:
            return False
        if len(picks) > 1:
            p = np.asarray(picks, dtype=complex)
            d = np.abs(p[:, None] - p[None, :]) + np.eye(len(picks))
            if d.min() < _POLE_GAP:
                return False
        return True

    if stable_poles is not None:
        picks = np.asarray(stable_poles, dtype=complex)
        if len(picks) != ns:
            raise ValueError(f"expected {ns} stable poles, got {len(picks)}")
        if np.any(np.abs(picks) >= 1.0 - numerics.UNIT_CIRCLE_TOL):
            raise ValueError("stable poles must be strictly inside the unit circle")
        if not ok(picks):
            raise PoleClashError("supplied stable poles clash with Lambda's spectrum")
    else:
        for retry in range(10):
            picks = default_stable_poles(ns, retry)
            if ok(picks):
                break
        else:
            raise PoleClashError("no admissible stable pole set after 10 retries")

    targets = np.concatenate([unstable, np.asarray(picks, dtype=complex)])
    phi_d = np.real(np.poly(targets)) if n else np.array([1.0])

    phi_lam = _companion_coefficients(Lambda)
    if phi_lam is not None:
        # companion basis: Ackermann reduces to a coefficient difference
        _, Minv = _ones_similarity(n)
        beta_tilde = (phi_lam - phi_d)[::-1][:-1]
        beta = Minv.T @ beta_tilde
    else:
        beta = numerics.pole_place(Lambda, np.ones(n), targets)

    S = Lambda + np.outer(np.ones(n), beta)
    _warn_if_uncontrollable(S.T, beta, "(S', beta)")
    return S, beta


def build_G(S: np.ndarray, beta: np.ndarray, split: SplitModel):
    """Analysis matrices G_i = [G_i^u 0] with S G_i^u = G_i^u Au and
    beta' G_i^u = Ciu_i Au.

    Uses the Krylov constructor (R_Y over ctrb(S', beta)) when it is well
    conditioned, otherwise a least-squares solve of the same equations.
    Returns (G, info) with G of shape (m, n, n).
    """
    n = S.shape[0]
    m = split.Ciu.shape[0]
    nu = split.nu
    G = np.zeros((m, n, n))
    info = {"residual": 0.0, "route": "empty"}
    if nu == 0:
        return G, info

    Au = split.Au
    Kb = numerics.ctrb(S.T, beta)
    cond = np.linalg.cond(Kb)
    info = {"ctrb_cond": float(cond), "route": "krylov"}

    def solve_one(i):
        q = split.Ciu[i] @ Au  # (nu,)
        RY = np.empty((nu, n))
        col = q
        for k in range(n):
            RY[:, k] = col
            if k + 1 < n:
                col = Au.T @ col
        # G_i^u = (RY @ Kb^{-1})'
        return np.linalg.solve(Kb.T, RY.T)

    def solve_one_lstsq(i):
        q = split.Ciu[i] @ Au
        lhs = np.vstack(
            [np.kron(np.eye(nu), S) - np.kron(Au.T, np.eye(n)), np.kron(np.eye(nu), beta)]
        )
        rhs = np.concatenate([np.zeros(n * nu), q])
        vec, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
        return vec.reshape((n, nu), order="F")

    def residual(Giu, i):
        q = split.Ciu[i] @ Au
        r1 = np.linalg.norm(S @ Giu - Giu @ Au) / (1.0 + np.linalg.norm(Giu))
        r2 = np.linalg.norm(beta @ Giu - q)
        return max(r1, r2)

    worst = 0.0
    use_lstsq = cond > _COND_LIMIT
    for i in range(m):
        Giu = solve_one_lstsq(i) if use_lstsq else solve_one(i)
        r = residual(Giu, i)
        if r > _RESIDUAL_TOL and not use_lstsq:
            Giu = solve_one_lstsq(i)
            r = residual(Giu, i)
            info["route"] = "lstsq"
        worst = max(worst, r)
        G[i, :, :nu] = Giu
    if use_lstsq:
        info["route"] = "lstsq"
    info["residual"] = float(worst)
    if worst > _RESIDUAL_HARD_LIMIT:
        raise NumericalError(f"G construction residual {worst:.3e}")
    return G, info


def build_bundle(
    model: SystemModel,
    design: KalmanDesign,
    split: SplitModel | None = None,
    stable_poles=None,
) -> DecompositionBundle:
    """Full decomposition: Lambda, F, (S, beta), G, and diagnostics."""
    if split is None:
        split = split_model(model)
    Lam = build_lambda(design)
    F, f_info = build_F(design, Lam)
    S, beta = design_S_beta(Lam, split, stable_poles=stable_poles)
    G, g_info = build_G(S, beta, split)
    phiS = numerics.char_poly(S)
    diags = {"F": f_info, "G": g_info}
    return DecompositionBundle(
        Lambda=Lam, beta=beta, S=S, F=F, G=G, phiS=phiS, diagnostics=diags
    )


@dataclass(frozen=True)
class LosslessReport:
    max_relative_residual: float
    worst_step: int
    horizon: int


def verify_lossless(
    bundle: DecompositionBundle,
    model: SystemModel,
    design: KalmanDesign,
    horizon: int = 200,
    seed: int = 0,
    tol: float = 1e-7,
) -> LosslessReport:
    """Simulate the plant, all local filters, and the centralized filter
    from zero initial conditions and check that sum_i F_i xi_i(k)
    reproduces the Kalman estimate at every step.

    Raises LosslessViolationError when the residual exceeds
    ``tol * (1 + ||xhat||)`` at any step.
    """
    n, m = model.n, model.m
    rng = np.random.default_rng(seed)
    Lq = psd_factor(model.Q)
    Lr = psd_factor(model.R)
    x = np.zeros(n)
    xhat = np.zeros(n)
    xi = np.zeros((m, n))
    worst, worst_k = 0.0, 0
    for k in range(horizon):
        x = model.A @ x + Lq @ rng.standard_normal(Lq.shape[1])
        y = model.C @ x + Lr @ rng.standard_normal(Lr.shape[1])
        z = y - xi @ bundle.beta
        xi = xi @ bundle.S.T + np.outer(z, np.ones(n))
        xhat = step_centralized(design, xhat, y)
        rec = np.einsum("ijk,ik->j", bundle.F, xi)
        rel = np.linalg.norm(rec - xhat) / (1.0 + np.linalg.norm(xhat))
        if rel > worst:
            worst, worst_k = rel, k + 1
    if worst > tol:
        raise LosslessViolationError(
            f"lossless identity violated: residual {worst:.3e} at step {worst_k}"
        )
    return LosslessReport(max_relative_residual=worst, worst_step=worst_k, horizon=horizon)


def psd_factor(M: np.ndarray, clip: float = 1e-12) -> np.ndarray:
    """Factor L with L L' = M for symmetric PSD M, tolerating semidefinite
    inputs by clipping eigenvalues below ``clip * max(eig)`` to zero."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    w, U = np.linalg.eigh(0.5 * (M + M.T))
    top = max(w.max(), 0.0)
    w = np.where(w > clip * max(top, 1.0), w, 0.0)
    return U * np.sqrt(w)


def reduce_model(bundle: DecompositionBundle) -> ReducedBundle:
    """Order-n^2 realization of the aggregated decomposition.

    Writes each F_i as sum_j H_j p_ij(S) with H_j = e_j beta'; the
    coefficient vectors solve K_beta alpha = (row j of F_i)' where K_beta
    is the Krylov matrix of (S', beta).

    Raises IllConditionedError when cond(K_beta) exceeds 1e12.
    """
    n, m = bundle.n, bundle.m
    S, beta = bundle.S, bundle.beta
    Kb = numerics.ctrb(S.T, beta)
    cond = np.linalg.cond(Kb)
    if cond > _COND_LIMIT:
        raise IllConditionedError(f"cond(K_beta) = {cond:.3e} exceeds 1e12")
    ones = np.ones(n)
    alpha = np.empty((m, n, n))
    T = np.empty((n * n, m))
    for i in range(m):
        for j in range(n):
            a = np.linalg.solve(Kb, bundle.F[i, j, :])
            alpha[i, j] = a
            T[j * n : (j + 1) * n, i] = numerics.matrix_poly_eval(a, S, ones)
    H = np.zeros((n, n * n))
    for j in range(n):
        H[j, j * n : (j + 1) * n] = beta
    return ReducedBundle(H=H, T=T, alpha=alpha)


def bundle_to_dict(bundle: DecompositionBundle) -> dict:
    """The bundle as plain lists, for ``design.json``."""
    return {
        "Lambda": bundle.Lambda.tolist(),
        "beta": bundle.beta.tolist(),
        "S": bundle.S.tolist(),
        "F": bundle.F.tolist(),
        "G": bundle.G.tolist(),
        "phiS": bundle.phiS.tolist(),
    }
