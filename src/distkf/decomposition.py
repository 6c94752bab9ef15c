"""Lossless decomposition of the steady-state Kalman filter, in a modal basis.

The centralized fixed-gain filter is rewritten as m per-sensor filters
plus a linear read-out.  Every matrix has a closed form in the eigenbasis
of the local-filter matrix S:

* ``S`` -- diagonal in the complex form, ``diag(s)`` with input vector 1.
  Its spectrum s holds the unstable plant poles first, then stable picks
  placed at the closed loop's own eigenvalues of smallest modulus, each
  moved by the least multiple of ``_POLE_STEP`` that keeps a
  ``_POLE_GAP`` distance to ``Acl``'s spectrum and to the other picks.
  A real unstable pole repeated in the plant (random walks, integrators)
  becomes a Jordan chain, ones above the diagonal, so that ``(S, 1)``
  stays controllable.
* ``beta`` -- ``beta_k = prod_r (s_k - lambda_r) / prod_{l != k} (s_k - s_l)``,
  the residue of ``det(zI - Acl) / det(zI - S)`` at ``s_k`` (on a Jordan
  chain, differences of the Taylor coefficients of the principal part).
  Then ``Lambda = S - 1 beta'`` has the characteristic polynomial of
  ``Acl = A - KCA`` and ``(Lambda, 1)`` is controllable.
* ``F_i = V diag(V^{-1} K_i) W`` with ``Acl = V diag(lambda) V^{-1}`` and
  row r of W equal to ``beta' (S - lambda_r I)^{-1}``, so that
  ``F_i Lambda = Acl F_i`` and ``F_i 1 = K_i``: the Kalman estimate is
  exactly ``sum_i F_i xi_i(k)`` when every sensor runs
  ``xi_i(k+1) = S xi_i(k) + 1 (y_i(k+1) - beta' xi_i(k))``, a filter
  driven by a bounded residual even when the plant is unstable.
* ``G_i = [G_i^u 0]`` -- analysis matrices tying the local filter state to
  the unstable plant substate (``S G_i^u = G_i^u Au``,
  ``beta' G_i^u = Ciu_i Au``); nonzero only on the unstable coordinates.
* ``ReducedBundle`` -- an order-n^2 realization of the same transfer
  function, used when n < m to shrink messages.

A conjugate pair ``(s, conj(s))`` is mapped to a real 2x2 block by
``T = 1/2 [[1+i, 1-i], [1-i, 1+i]]``, which keeps the input vector
(``T 1 = 1``) and has ``T^{-1} = conj(T)``.  So ``S = T diag(s) T^{-1}``,
``beta' = beta_c' T^{-1}`` and ``F_i = F_i^c T^{-1}`` are real.

A defective closed loop (eigenvector condition number above
``_EIGVEC_COND_LIMIT``) is refused with IllConditionedError; a pole set
that cannot keep its gaps is refused with PoleClashError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import numerics
from .errors import (
    ConfigError,
    IllConditionedError,
    NumericalError,
    PoleClashError,
)
from .kalman import KalmanDesign
from .plant import SplitModel, SystemModel, split_model

_COND_LIMIT = 1e12          # largest cond(K_beta) for which ReducedBundle.alpha is filled
_EIGVEC_COND_LIMIT = 1e8    # largest cond(V) of Acl's eigenvectors: above it, Acl is defective
_POLE_GAP = 1e-3            # least distance of every pole of S to Acl's spectrum and to each other
_POLE_STEP = 1.5e-3         # a stable pick moves off Acl's eigenvalue by multiples of this
_MAX_POLE_STEPS = 600       # a pick moves at most 0.9 either way before the design is refused
_REPEAT_TOL = 1e-6          # real unstable poles this close (relative) are one repeated pole
_RESIDUAL_HARD_LIMIT = 1e-5


@dataclass(frozen=True, eq=False)
class ModalBasis:
    """Complex diagonal form of the local filter and its real image."""

    s: np.ndarray        # (n,) spectrum of S: unstable plant poles first, then stable picks
    beta_c: np.ndarray   # (n,) beta in the complex form
    T: np.ndarray        # (n, n) complex, T 1 = 1, S = T Sc conj(T)
    link: np.ndarray     # (n,) bool, Sc[k-1, k] = 1: pole k repeats pole k-1 (Jordan chain)

    @property
    def Sc(self) -> np.ndarray:
        """S in the complex form: diag(s) plus the Jordan links."""
        return np.diag(self.s) + np.diag(self.link[1:].astype(complex), 1)

    @property
    def S(self) -> np.ndarray:
        return _real(self.T @ self.Sc @ self.T.conj())

    @property
    def beta(self) -> np.ndarray:
        return _real(self.beta_c @ self.T.conj())


@dataclass(frozen=True, eq=False)
class DecompositionBundle:
    Lambda: np.ndarray          # (n, n) = S - 1 beta'
    beta: np.ndarray            # (n,)
    S: np.ndarray               # (n, n) real block diagonal, unstable block first
    F: np.ndarray               # (m, n, n), F[i] = F_i
    G: np.ndarray               # (m, n, n), G[i] = [G_i^u 0] in split coordinates
    phiS: np.ndarray            # char poly of S, monic descending
    diagnostics: dict = field(default_factory=dict, compare=False)
    modal: ModalBasis | None = field(default=None, compare=False)

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
    alpha: np.ndarray | None   # (m, n, n) ascending coefficients of p_ij, or None
    alpha_skipped_reason: str | None = None

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


class ClosedLoopModes(NamedTuple):
    lam: np.ndarray     # (n,) eigenvalues of Acl
    V: np.ndarray       # (n, n) eigenvectors, Acl V = V diag(lam)
    cond: float         # cond(V)


def build_lambda(design: KalmanDesign) -> ClosedLoopModes:
    """The spectrum Lambda must carry: ``Acl = V diag(lambda) V^{-1}``.

    Raises IllConditionedError when cond(V) exceeds ``_EIGVEC_COND_LIMIT``,
    i.e. when Acl is defective or too close to it for a modal design.
    """
    lam, V = np.linalg.eig(design.Acl)
    cond = float(np.linalg.cond(V))
    if not cond <= _EIGVEC_COND_LIMIT:
        raise IllConditionedError(
            f"closed loop A - KCA is (nearly) defective: eigenvector condition "
            f"number {cond:.3e} exceeds {_EIGVEC_COND_LIMIT:.0e}"
        )
    return ClosedLoopModes(lam=lam, V=V, cond=cond)


def _real(X: np.ndarray) -> np.ndarray:
    """Real part as a contiguous array: the simulation kernel reads S, beta
    and F at every step, and a strided view of a complex array slows it."""
    return np.ascontiguousarray(X.real)


def _pair_up(z, what: str) -> np.ndarray:
    """z ordered so that each conjugate pair is adjacent, positive imaginary
    part first and the partner exactly conjugate; reals keep their place."""
    z = np.asarray(z, dtype=complex).ravel()
    out, used = [], np.zeros(len(z), dtype=bool)
    for i, v in enumerate(z):
        if used[i]:
            continue
        used[i] = True
        if v.imag == 0.0:
            out.append(v)
            continue
        tol = 1e-9 * max(1.0, abs(v))
        cand = [j for j in range(len(z)) if not used[j] and abs(z[j] - v.conjugate()) <= tol]
        if not cand:
            raise ConfigError(f"{what} are not closed under conjugation")
        used[cand[0]] = True
        head = v if v.imag > 0 else v.conjugate()
        out += [head, head.conjugate()]
    return np.array(out, dtype=complex)


def _num(z: complex) -> str:
    return f"{z.real:.6g}" if z.imag == 0 else f"{z:.6g}"


def _ones_basis(s: np.ndarray) -> np.ndarray:
    """Block-diagonal T with T 1 = 1 mapping diag(s) to a real matrix."""
    n = len(s)
    T = np.eye(n, dtype=complex)
    pair = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
    for k in np.flatnonzero(s.imag > 0):
        T[k : k + 2, k : k + 2] = pair
    return T


def _clear(points, lam, placed) -> bool:
    """Inside the unit circle and at least _POLE_GAP from Acl's spectrum,
    from the poles already placed and from each other."""
    p = np.asarray(points, dtype=complex)
    if np.any(np.abs(p) >= 1.0 - _POLE_GAP):
        return False
    others = np.concatenate([lam, np.asarray(placed, dtype=complex)])
    if others.size and np.abs(p[:, None] - others[None, :]).min() < _POLE_GAP:
        return False
    return len(p) < 2 or abs(p[0] - p[1]) >= _POLE_GAP


def _default_picks(lam: np.ndarray, placed: np.ndarray, ns: int) -> np.ndarray:
    """ns stable poles at Acl's eigenvalues of smallest modulus, each moved
    along the real axis by the least multiple of _POLE_STEP (+j before -j)
    that keeps its gaps.  A conjugate pair cut by the modulus boundary, or
    closer to the real axis than the gap allows, is taken as real parts."""
    near = lam[np.argsort(np.abs(lam), kind="stable")[:ns]]
    real = [abs(v.imag) < _POLE_GAP or not np.any(near == v.conjugate()) for v in near]
    near = _pair_up(np.where(real, near.real, near), "closed-loop eigenvalues")
    picks = list(placed)
    for v in near[near.imag >= 0]:
        for j in range(1, 2 * _MAX_POLE_STEPS + 1):
            p = v + (j + 1) // 2 * _POLE_STEP * (1 if j % 2 else -1)
            cand = [p] if v.imag == 0 else [p, p.conjugate()]
            if _clear(cand, lam, picks):
                picks += cand
                break
        else:
            raise PoleClashError(f"no stable pole keeps a {_POLE_GAP:.0e} gap near {_num(v)}")
    return np.array(picks[len(placed):], dtype=complex)


def _chains(link: np.ndarray):
    """(start, length) of every Jordan chain of S longer than one."""
    starts = np.flatnonzero(~link[:-1] & link[1:])
    return [(k, int(np.argmin(np.append(link[k + 1 :], False))) + 1) for k in starts]


def _unstable_poles(Au: np.ndarray):
    """Unstable plant poles in the order S carries them -- real ones
    ascending, then conjugate pairs -- and the Jordan links: a run of real
    poles within ``_REPEAT_TOL`` is one repeated pole at the run's mean."""
    a = _pair_up(np.linalg.eigvals(Au), "unstable poles")
    real = np.sort(a[a.imag == 0].real)
    link = np.zeros(a.size, dtype=bool)
    link[1 : real.size] = np.diff(real) <= _REPEAT_TOL * np.maximum(1.0, np.abs(real[1:]))
    run = np.cumsum(~link[: real.size]) - 1
    real = (np.bincount(run, weights=real) / np.bincount(run))[run]
    return np.concatenate([real, a[a.imag != 0]]).astype(complex), link


def _residues(s: np.ndarray, lam: np.ndarray, link: np.ndarray) -> np.ndarray:
    """beta_k = prod_r (s_k - lambda_r) / prod_{l != k} (s_k - s_l), the
    residue of det(zI - Acl) / det(zI - S) at a simple pole, taken as a
    product of n ratios to keep every factor of order one.  Along a Jordan
    chain of length q at a, ``beta_{k+j} = h_j - h_{j-1}`` with h_j the
    Taylor coefficients at a of ``(z - a)^q det(zI - Acl) / det(zI - S)``,
    from the power series of its logarithm."""
    same = s[:, None] == s[None, :]
    den = np.where(same, 1.0, s[:, None] - s[None, :])
    beta = np.prod((s[:, None] - lam[None, :]) / den, axis=1)
    for k, q in _chains(link):
        p = np.arange(1, q)
        d = np.concatenate([lam, s[~same[k]]]) - s[k]
        sign = np.where(np.arange(d.size) < lam.size, 1.0, -1.0)
        log_h = -(sign * d ** -p[:, None]).sum(axis=1) / p     # t^p coefficients
        h = [1.0]
        for j in range(1, q):
            h.append(sum(i * log_h[i - 1] * h[j - i] for i in range(1, j + 1)) / j)
        beta[k + 1 : k + q] = np.diff(beta[k] * np.array(h))
    heads = np.flatnonzero(s.imag > 0)
    beta[heads + 1] = beta[heads].conj()
    return beta


def design_S_beta(modes: ClosedLoopModes, split: SplitModel, stable_poles=None) -> ModalBasis:
    """The modal basis: spectrum s of S, beta in closed form and the real map.

    ``stable_poles`` replaces the default stable picks; it must hold
    ``n - nu`` values inside the unit circle, closed under conjugation.

    A real unstable pole repeated in the plant (within ``_REPEAT_TOL``) is
    carried by a Jordan chain of S, so that (S, 1) stays controllable.

    Raises:
        ConfigError: malformed ``stable_poles``.
        PoleClashError: distinct unstable plant poles closer than
            ``_POLE_GAP`` to each other or to Acl's spectrum, a repeated
            complex pair, a supplied pick that clashes, or no default pick
            that keeps its gaps.
    """
    lam = modes.lam
    n, nu = len(lam), split.nu
    unstable, link = np.empty(0, complex), np.empty(0, bool)
    if nu:
        unstable, link = _unstable_poles(split.Au)
        heads = unstable[~link]
        repeat = np.abs(heads[:, None] - heads[None, :]) + np.diag(np.full(heads.size, np.inf))
        if min(np.abs(heads[:, None] - lam[None, :]).min(), repeat.min()) < _POLE_GAP:
            raise PoleClashError(
                f"distinct unstable plant poles must lie {_POLE_GAP:.0e} apart and "
                f"{_POLE_GAP:.0e} away from the closed-loop spectrum (a repeated "
                "complex pair is not supported)"
            )
    if stable_poles is None:
        picks = _default_picks(lam, unstable, n - nu)
    else:
        picks = np.asarray(stable_poles, dtype=complex).ravel()
        if len(picks) != n - nu:
            raise ConfigError(f"expected {n - nu} stable poles, got {len(picks)}")
        if np.any(np.abs(picks) >= 1.0 - numerics.UNIT_CIRCLE_TOL):
            raise ConfigError("stable poles must be strictly inside the unit circle")
        picks = _pair_up(picks, "stable poles")
        placed = list(unstable)
        for p in picks:
            if not _clear([p], lam, placed):
                raise PoleClashError(
                    f"stable pole {_num(p)} is within {_POLE_GAP:.0e} of the closed-loop "
                    "spectrum or of another pole"
                )
            placed.append(p)
    s = np.concatenate([unstable, picks])
    link = np.concatenate([link, np.zeros(n - nu, dtype=bool)])
    return ModalBasis(s=s, beta_c=_residues(s, lam, link), T=_ones_basis(s), link=link)


def _norms(X: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix in a stack."""
    return np.linalg.norm(X, axis=(1, 2))


def build_F(design: KalmanDesign, modes: ClosedLoopModes, basis: ModalBasis):
    """Per-sensor weights ``F_i = V diag(V^{-1} K_i) W T^{-1}`` with
    ``F_i Lambda = Acl F_i`` and ``F_i 1 = K_i``.

    Returns (F, info) where F has shape (m, n, n) and info holds the
    route ("modal") and the worst residual of the two identities.
    """
    lam, V = modes.lam, modes.V
    c = np.linalg.solve(V, design.K)                          # (n, m)
    W = basis.beta_c[None, :] / (basis.s[None, :] - lam[:, None])
    for k in np.flatnonzero(basis.link):   # on a Jordan chain: w' (Sc - lambda I) = beta'
        W[:, k] = (basis.beta_c[k] - W[:, k - 1]) / (basis.s[k] - lam)
    F = _real(np.einsum("ar,ri,rk->iak", V, c, W) @ basis.T.conj())
    Lam = basis.S - np.outer(np.ones(len(lam)), basis.beta)
    r1 = _norms(F @ Lam - design.Acl @ F) / (1.0 + _norms(F))
    r2 = np.linalg.norm(F.sum(axis=2) - design.K.T, axis=1)
    info = {"route": "modal", "residual": float(max(r1.max(), r2.max()))}
    if info["residual"] > _RESIDUAL_HARD_LIMIT:
        raise IllConditionedError(f"F construction residual {info['residual']:.3e}")
    return F, info


def build_G(basis: ModalBasis, split: SplitModel):
    """Analysis matrices G_i = [G_i^u 0] with S G_i^u = G_i^u Au and
    beta' G_i^u = Ciu_i Au.

    G_i^u is zero outside the unstable coordinates.  There, in the complex
    form, ``beta' Sc^t G = Ciu_i Au^(t+1)`` for every t follows from the two
    identities, so G solves ``O G = [Ciu_i Au^(t+1)]_{t < nu}`` with O the
    observability matrix of (beta_u', Sc_u); O is invertible because beta
    is nonzero at every simple pole and chain start.  For nu = 1 this is
    ``G = a Ciu_i / beta_u``.  Au may be defective (a double integrator).
    Returns (G, info) with G of shape (m, n, n).
    """
    n, nu = len(basis.s), split.nu
    m = split.Ciu.shape[0]
    G = np.zeros((m, n, n))
    if nu == 0:
        return G, {"route": "modal", "residual": 0.0}
    Su, bu = basis.Sc[:nu, :nu], basis.beta_c[:nu]
    O = np.array([bu @ np.linalg.matrix_power(Su, t) for t in range(nu)])
    Q = np.stack([split.Ciu @ np.linalg.matrix_power(split.Au, t + 1) for t in range(nu)], axis=1)
    Gu = _real(basis.T[:, :nu] @ np.linalg.solve(O, Q))           # (m, n, nu)
    G[:, :, :nu] = Gu
    S, beta = basis.S, basis.beta
    q = split.Ciu @ split.Au
    r1 = _norms(S @ Gu - Gu @ split.Au) / (1.0 + _norms(Gu))
    r2 = np.linalg.norm(beta @ Gu - q, axis=1)
    worst = float(max(r1.max(), r2.max()))
    if worst > _RESIDUAL_HARD_LIMIT:
        raise NumericalError(f"G construction residual {worst:.3e}")
    return G, {"route": "modal", "residual": worst}


def build_bundle(
    model: SystemModel,
    design: KalmanDesign,
    split: SplitModel | None = None,
    stable_poles=None,
) -> DecompositionBundle:
    """Full decomposition: modal basis, S, beta, Lambda, F, G and diagnostics.

    ``diagnostics`` holds the F and G routes and residuals, cond(V) of
    Acl's eigenvectors and the conditioning figure
    ``sum|beta| * max_i ||F_i||_2``: the weights with which a local filter
    state enters its residual and the fused estimate, multiplied.
    """
    if split is None:
        split = split_model(model)
    modes = build_lambda(design)
    basis = design_S_beta(modes, split, stable_poles=stable_poles)
    F, f_info = build_F(design, modes, basis)
    G, g_info = build_G(basis, split)
    S, beta = basis.S, basis.beta
    diags = {
        "F": f_info,
        "G": g_info,
        "eigvec_cond": modes.cond,
        "conditioning": float(np.abs(beta).sum() * np.linalg.norm(F, 2, axis=(1, 2)).max()),
    }
    return DecompositionBundle(
        Lambda=S - np.outer(np.ones(len(beta)), beta), beta=beta, S=S, F=F, G=G,
        phiS=np.real(np.poly(basis.s)), diagnostics=diags, modal=basis,
    )


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

    Writes row j of F_i as ``beta' p_ij(S)`` for a polynomial p_ij, so that
    ``F_i = sum_j H_j p_ij(S)`` with ``H_j = e_j beta'``.  In the complex
    form ``p_ij(s_k) = (F_i T)_jk / beta_k`` at a simple pole, so the
    injected blocks ``p_ij(S) 1 = T p_ij(Sc) 1`` need no solve beyond a
    q x q triangular one on a Jordan chain of length q.  The monomial
    coefficients ``alpha`` solve ``K_beta alpha = (row j of F_i)'`` with
    K_beta the Krylov matrix of (S', beta); they are filled only while
    cond(K_beta) <= 1e12 and are None with a reason otherwise.
    """
    n, m = bundle.n, bundle.m
    basis = bundle.modal
    if basis is None:
        raise ConfigError("reduce_model needs a bundle built by build_bundle")
    # row j of F_i T is beta_c' p_ij(Sc); C maps it to p_ij(Sc) 1: 1 / beta_k
    # at a simple pole, and on a Jordan chain, where p(Sc) is Toeplitz with
    # entries p^(d)(a) / d!, the inverse of the Toeplitz system in beta
    # followed by the row sums
    C = np.diag(1.0 / basis.beta_c)
    for k, q in _chains(basis.link):
        b = basis.beta_c[k : k + q]
        toeplitz = np.array([[b[i - d] if d <= i else 0.0 for d in range(q)] for i in range(q)])
        C[k : k + q, k : k + q] = np.flipud(np.tril(np.ones((q, q)))) @ np.linalg.inv(toeplitz)
    blocks = _real(bundle.F @ basis.T @ C.T @ basis.T.T)   # row j: p_ij(S) 1
    T = blocks.reshape(m, n * n).T
    H = np.kron(np.eye(n), bundle.beta[None, :])
    Kb = numerics.ctrb(bundle.S.T, bundle.beta)
    cond = np.linalg.cond(Kb)
    if cond <= _COND_LIMIT:
        alpha = np.linalg.solve(Kb, bundle.F.reshape(m * n, n).T).T.reshape(m, n, n)
        return ReducedBundle(H=H, T=T, alpha=alpha)
    return ReducedBundle(
        H=H, T=T, alpha=None,
        alpha_skipped_reason=f"cond(K_beta) = {cond:.3e} exceeds {_COND_LIMIT:.0e}",
    )


def bundle_to_dict(bundle: DecompositionBundle) -> dict:
    """The bundle as plain lists, for ``design.json``."""
    return {
        "Lambda": bundle.Lambda.tolist(),
        "beta": bundle.beta.tolist(),
        "S": bundle.S.tolist(),
        "F": bundle.F.tolist(),
        "G": bundle.G.tolist(),
        "phiS": bundle.phiS.tolist(),
        "diagnostics": bundle.diagnostics,
    }
