"""Closed-form steady-state covariance of the distributed estimator and
per-sensor performance ratios.

The stacked node deviations from the network average, the local-filter
tracking errors, and the stable plant substate together form a stable
linear system ``z+ = Ar z + Bw w + Bv v`` driven by the plant and
measurement noise.  The stable substate ``x_s = V_s' x``, in the
orthogonal Schur basis of ``plant.split_model``, evolves on its own and
also drives the unstable substate through Aus.  The steady-state
covariance W of z solves the Lyapunov equation ``W = Ar W Ar' + V``;
projecting W through the read-out map yields the exact asymptotic
covariance of the per-node deviations from the centralized Kalman
estimate (Wbar), and adding the Kalman error covariance on every node
block gives the full error covariance (Wbreve).

That equation is never formed densely.  ``Ar = [[D, L Ec], [0, E]]`` is
block upper-triangular:

* D, on the deviation block of dimension d2, is block diagonal in n x n
  *atoms* ``M_j = S - mu_j 1 Gamma'``, one per nonzero Laplacian mode j,
  each repeated c times (c = m for alg1, whose inference blocks stack m
  local filters; c = n for alg2, whose reduced state has n^2 entries);
* ``E = [[I (x) Lambda, A_eps], [0, As]]`` holds the m tracking blocks
  and the stable plant substate, of small dimension ``e = m n + ns``;
* the coupling has rank m: mode j's rows of it are ``L_j Ec`` with
  ``L_j = P diag(phi_j)``, where phi_j is the Laplacian eigenvector and P
  the input of a node's residual into its consensus block.  The
  deviation rows of the noise input factor through the same ``L_j``.

The covariance blocks are solved in back-substitution order.  Every row
block of W that meets E's columns solves ``X - P X E' = R`` for one
diagonal block P of Ar, by its As column block and then its Lambda
column blocks: first E's As row and E's Lambda rows, which give
``W_ee``, then each atom's ``W_je``; last ``W_jl`` one atom pair j <= l
at a time, from a right-hand side of rank 2m.  So every block is a
Stein equation ``X - P X Q' = R`` with P and Q atoms, Lambda or As,
solved by one LU of ``I - P (x) Q`` for all copies of the pair.  A pair
is projected onto Wbar as soon as it is solved, so the d2 x d2 block is
never stored.  Each block equation's residual is recorded as it is
solved; the largest, relative to ``1 + ||X||``, is the report's
certificate and must stay within ``1e-9``.

The dense ``Ar``, ``Bw``, ``Bv`` and ``out_map`` remain available as
views assembled on first read, as a reference for tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numerics
from .decomposition import DecompositionBundle, ReducedBundle
from .consensus import ConsensusDesign
from .errors import ConfigError, NoConvergenceError, UnstableAugmentedError
from .kalman import KalmanDesign
from .plant import SensorGraph, SplitModel, SystemModel

_RESIDUAL_CONTRACT = 1e-9  # largest relative residual a covariance block may keep


@dataclass(frozen=True, eq=False)
class AugmentedSystem:
    """Factors of the augmented deviation system, in the layout above."""

    atoms: np.ndarray     # (m-1, n, n) deviation atoms M_j = S - mu_j 1 Gamma'
    copies: int           # c: how often each atom repeats along D
    phi: np.ndarray       # (m, m-1) Laplacian eigenvectors orthogonal to 1
    P: np.ndarray         # (c n, m) residual input of one mode's block: L_j = P diag(phi_j)
    E: np.ndarray         # (e, e) tracking errors and stable substate
    Ec: np.ndarray        # (m, e) coupling of E's state into the deviation rows
    Cw: np.ndarray        # (m, n) process noise into the deviation rows (through L_j)
    Bw_e: np.ndarray      # (e, n) process noise into E's state
    Bv_e: np.ndarray      # (e, m) measurement noise into E's state
    F: np.ndarray         # (n, c n) read-out m F of one mode's block
    variant: str
    block_dims: tuple     # (deviation block, tracking block, stable substate)
    spectral_radius: float  # of Ar, from its diagonal blocks

    @property
    def dim(self) -> int:
        return sum(self.block_dims)

    @cached_property
    def L(self) -> np.ndarray:
        """(d2, m) deviation-row input, the L_j stacked over modes."""
        return (self.phi.T[:, None, :] * self.P).reshape(self.block_dims[0], self.P.shape[1])

    @cached_property
    def Ar(self) -> np.ndarray:
        d2, blk = self.block_dims[0], self.P.shape[0]
        Ar = np.zeros((self.dim, self.dim))
        for j, M in enumerate(self.atoms):
            Ar[j * blk : (j + 1) * blk, j * blk : (j + 1) * blk] = np.kron(np.eye(self.copies), M)
        Ar[:d2, d2:] = self.L @ self.Ec
        Ar[d2:, d2:] = self.E
        return Ar

    @cached_property
    def Bw(self) -> np.ndarray:
        return np.vstack([self.L @ self.Cw, self.Bw_e])

    @cached_property
    def Bv(self) -> np.ndarray:
        return np.vstack([self.L, self.Bv_e])

    @cached_property
    def out_map(self) -> np.ndarray:
        """Augmented state -> stacked deviations (m n rows)."""
        out = np.zeros((self.F.shape[0] * self.phi.shape[0], self.dim))
        out[:, : self.block_dims[0]] = np.kron(self.phi, self.F)
        return out


def augmented_dims(n: int, m: int, ns: int, variant: str) -> tuple:
    """(deviation block, tracking block, stable substate) dimensions of the
    augmented system; each of the m - 1 atoms repeats m times for alg1 and
    n times for alg2."""
    return ((m - 1) * (m if variant == "alg1" else n) * n, m * n, ns)


def _laplacian_eigenbasis(graph: SensorGraph):
    """Orthonormal eigenbasis with the normalized all-ones vector first."""
    m = graph.m
    w, U = np.linalg.eigh(0.5 * (graph.laplacian + graph.laplacian.T))
    order = np.argsort(w)
    w = w[order]
    U = U[:, order]
    U[:, 0] = 1.0 / np.sqrt(m)
    return w, U


def build_augmented(
    model: SystemModel,
    split: SplitModel,
    kalman: KalmanDesign,
    bundle: DecompositionBundle,
    consensus: ConsensusDesign,
    graph: SensorGraph,
    variant: str = "alg1",
    reduced: ReducedBundle | None = None,
) -> AugmentedSystem:
    """Factors of the stable augmented deviation system for one variant.

    Raises UnstableAugmentedError when the assembled dynamics are not
    strictly stable, which signals a broken or infeasible design.
    """
    n, m = model.n, model.m
    ns = split.ns
    S, Lam = bundle.S, bundle.Lambda
    ones = np.ones((n, 1))
    mu, Phi = _laplacian_eigenbasis(graph)

    if variant == "alg1":
        copies = m
        P = np.kron(np.eye(m), ones)   # node i's residual enters its copy i
        F = m * bundle.Fstack
    elif variant == "alg2":
        if reduced is None:
            raise ConfigError("variant alg2 requires the reduced-order bundle")
        copies = n
        P = reduced.T
        F = m * reduced.H
    else:
        raise ConfigError(f"unknown variant {variant!r}")
    atoms = S - mu[1:, None, None] * (ones * consensus.Gamma)

    nu, mn = split.nu, m * n
    Cbar = model.C @ split.V
    W_eps = np.vstack([bundle.G[i] - ones * Cbar[i] for i in range(m)])
    V_eps = -np.kron(np.eye(m), ones)
    # the residual sees x_s through Cx; the tracking rows also through G_i^u Aus
    Cx = split.Ciu @ split.Aus + split.Cis @ split.As
    E = np.zeros((mn + ns, mn + ns))
    E[:mn, :mn] = np.kron(np.eye(m), Lam)
    E[:mn, mn:] = V_eps @ Cx + (bundle.G[:, :, :nu] @ split.Aus).reshape(mn, ns)
    E[mn:, mn:] = split.As
    Ec = np.hstack([np.kron(np.eye(m), bundle.beta.reshape(1, -1)), Cx])

    # Ar is block upper-triangular, so its spectrum is the union of the
    # atoms' spectra, Lambda's and As'
    rho = max(numerics.spectral_radius(X) for X in [*atoms, Lam, split.As])
    if rho >= 1.0 - numerics.UNIT_CIRCLE_TOL:
        raise UnstableAugmentedError(
            f"augmented deviation system has spectral radius {rho:.6f}"
        )
    return AugmentedSystem(
        atoms=atoms, copies=copies, phi=Phi[:, 1:], P=P, E=E, Ec=Ec,
        Cw=model.C,
        Bw_e=np.vstack([W_eps, np.eye(n)[nu:]]) @ split.V.T,
        Bv_e=np.vstack([V_eps, np.zeros((ns, m))]),
        F=F, variant=variant,
        block_dims=augmented_dims(n, m, ns, variant), spectral_radius=rho,
    )


@dataclass(frozen=True, eq=False)
class CovarianceReport:
    Wbar: np.ndarray          # (mn, mn) covariance of deviations from the Kalman estimate
    Wbreve: np.ndarray        # (mn, mn) full error covariance
    per_node_trace: np.ndarray  # trace of each node's diagonal block of Wbreve
    variant: str
    residual: float           # largest relative residual of the block equations

    def node_block(self, i: int) -> np.ndarray:
        m = self.per_node_trace.shape[0]
        n = self.Wbreve.shape[0] // m
        return self.Wbreve[i * n : (i + 1) * n, i * n : (i + 1) * n]


def _stein(P: np.ndarray, Q: np.ndarray, R: np.ndarray) -> np.ndarray:
    """``X - P X Q' = R`` for every matrix of the stack R (..., p, q).

    One LU of ``I - P (x) Q``, the map of ``X -> P X Q'`` on row-major
    vec(X), serves all of them."""
    p, q = R.shape[-2:]
    K = -(P[:, None, :, None] * Q[None, :, None, :]).reshape(p * q, p * q)
    K.flat[:: p * q + 1] += 1.0
    rhs = R.reshape(-1, p * q).T if p * q else R.reshape(0, 0)
    return np.linalg.solve(K, rhs).T.reshape(R.shape)


def _stein_rows(P, Lam, A_eps, As, R):
    """``X - P X E' = R`` for a stack R (c, p, e) of row blocks, with
    ``E = [[I (x) Lambda, A_eps], [0, As]]``: the As column block first,
    then the Lambda column blocks, one p x n block per copy and node."""
    c, p, _ = R.shape
    n, mn = Lam.shape[0], A_eps.shape[0]
    X = np.empty_like(R)
    X[..., mn:] = _stein(P, As, R[..., mn:])
    blocks = (R[..., :mn] + P @ X[..., mn:] @ A_eps.T).reshape(c, p, mn // n, n).swapaxes(1, 2)
    X[..., :mn] = _stein(P, Lam, blocks).swapaxes(1, 2).reshape(c, p, mn)
    return X


def _relres(res: np.ndarray, X: np.ndarray) -> float:
    return float(np.linalg.norm(res) / (1.0 + np.linalg.norm(X)))


def asymptotic_covariance(
    aug: AugmentedSystem, model: SystemModel, Ppost: np.ndarray
) -> CovarianceReport:
    """Exact steady-state covariance, solved block by block.

    Back-substitution order (see the module docstring): ``W_ee`` by E's
    As row, then its Lambda rows; each atom j's ``W_je``; then ``W_jl``
    for every atom pair j <= l, each projected onto Wbar at once.
    ``Wbreve = Wbar + (11') (x) Ppost``, where the second term is the
    centralized Kalman error shared by every node.

    Raises:
        NoConvergenceError: a block equation's residual exceeds
            ``1e-9 (1 + ||X||)``; the largest such ratio is the report's
            ``residual``.  Or a diagonal entry of Wbar lies below
            ``-1e-9 (1 + max diag)``.
    """
    n, m = model.n, model.m
    mn, c = m * n, aug.copies
    Q, R = model.Q, model.R
    E, Ec = aug.E, aug.Ec
    V_ee = aug.Bw_e @ Q @ aug.Bw_e.T + aug.Bv_e @ R @ aug.Bv_e.T
    V_ee = 0.5 * (V_ee + V_ee.T)
    Lam, A_eps, As = E[:n, :n], E[:mn, mn:], E[mn:, mn:]
    # E's Lambda rows see its As row through A_eps
    W_s = _stein_rows(As, Lam, A_eps, As, V_ee[None, mn:])[0]
    rhs = V_ee[:mn].reshape(m, n, -1) + A_eps.reshape(m, n, -1) @ (W_s @ E.T)
    W_ee = np.vstack([_stein_rows(Lam, Lam, A_eps, As, rhs).reshape(mn, -1), W_s])
    W_ee = 0.5 * (W_ee + W_ee.T)
    residual = _relres(W_ee - E @ W_ee @ E.T - V_ee, W_ee)

    # mode j's W_je solves X - D_j X E' = L_j G; the right-hand side of
    # W_jl is L_j H L_l' plus the terms that run through W_je and W_le
    G = Ec @ W_ee @ E.T + aug.Cw @ Q @ aug.Bw_e.T + R @ aug.Bv_e.T
    H = Ec @ W_ee @ Ec.T + aug.Cw @ Q @ aug.Cw.T + R
    H = 0.5 * (H + H.T)
    left, right = [], []
    for j, M in enumerate(aug.atoms):
        Lj = aug.P * aug.phi[:, j]
        rhs = (Lj @ G).reshape(c, n, -1)
        X = _stein_rows(M, Lam, A_eps, As, rhs)
        residual = max(residual, _relres(X - M @ X @ E.T - rhs, X))
        Yj = (M @ X @ Ec.T).reshape(c * n, m)
        left.append(np.hstack([Yj, Lj]))
        right.append(np.hstack([Lj, Yj + Lj @ H]))

    k = len(aug.atoms)
    Z = np.zeros((k, k, n, n))  # F W_jl F' per atom pair
    for j in range(k):
        for l in range(j, k):
            Mj, Ml = aug.atoms[j], aug.atoms[l]
            rhs = (left[j] @ right[l].T).reshape(c, n, c, n).swapaxes(1, 2)
            X = _stein(Mj, Ml, rhs)
            residual = max(residual, _relres(X - Mj @ X @ Ml.T - rhs, X))
            Z[j, l] = aug.F @ X.swapaxes(1, 2).reshape(c * n, c * n) @ aug.F.T
            Z[l, j] = Z[j, l].T
    if residual > _RESIDUAL_CONTRACT:
        raise NoConvergenceError(f"covariance block residual {residual:.3e} out of contract")

    Wbar = np.einsum("ij,kl,jlab->iakb", aug.phi, aug.phi, Z).reshape(mn, mn)
    Wbar = 0.5 * (Wbar + Wbar.T)
    # a small residual does not bound the error of an ill-conditioned
    # solve; a negative variance shows it was lost
    var = np.diag(Wbar)
    if var.min() < -_RESIDUAL_CONTRACT * (1.0 + var.max()):
        raise NoConvergenceError(f"covariance has a negative variance {var.min():.3e}")
    Wbreve = Wbar + np.kron(np.ones((m, m)), Ppost)
    traces = np.einsum("iaia->i", Wbreve.reshape(m, n, m, n))
    return CovarianceReport(
        Wbar=Wbar, Wbreve=Wbreve, per_node_trace=traces, variant=aug.variant,
        residual=residual,
    )


def performance_ratios(node_covs, local_designs, Ppost: np.ndarray):
    """Per-sensor trace ratios against the centralized filter.

    ``node_covs``: per-node error covariance blocks (m, n, n), analytic or
    empirical.  ``local_designs``: KalmanDesign per sensor or None where
    the single-sensor filter is not detectable.  Returns a list of
    (rho_local, rho_distributed) pairs; rho_local is None for skipped
    sensors.
    """
    tr_p = float(np.trace(Ppost))
    out = []
    for i, cov in enumerate(node_covs):
        local = local_designs[i]
        rho1 = float(np.trace(local.Ppost)) / tr_p if local is not None else None
        rho2 = float(np.trace(cov)) / tr_p
        out.append((rho1, rho2))
    return out


def report_to_dict(report: CovarianceReport) -> dict:
    n = report.Wbreve.shape[0] // report.per_node_trace.shape[0]
    m = report.per_node_trace.shape[0]
    return {
        "variant": report.variant,
        "per_node_trace": report.per_node_trace.tolist(),
        "node_diagonals": [
            np.diag(report.Wbreve[i * n : (i + 1) * n, i * n : (i + 1) * n]).tolist()
            for i in range(m)
        ],
        "tr_wbar": float(np.trace(report.Wbar)),
        "residual": report.residual,
    }
