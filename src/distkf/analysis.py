"""Closed-form steady-state covariance of the distributed estimator and
empirical comparison metrics.

The stacked node deviations from the network average, the local-filter
tracking errors, and the stable plant substate together form a stable
linear system driven by the plant and measurement noise.  Solving one
discrete Lyapunov equation for that augmented system and projecting
through the read-out map yields the exact asymptotic covariance of the
per-node deviations from the centralized Kalman estimate (Wbar); adding
the Kalman error covariance on every node block gives the full error
covariance (Wbreve).  The deviation dynamics differ between the two
algorithm variants (inference blocks of size m*n versus the reduced
n^2 state), so the augmented system is built per variant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from . import numerics
from .decomposition import DecompositionBundle, ReducedBundle
from .consensus import ConsensusDesign
from .errors import ConfigError, UnstableAugmentedError
from .kalman import KalmanDesign
from .plant import SensorGraph, SplitModel, SystemModel


@dataclass(frozen=True, eq=False)
class AugmentedSystem:
    Ar: np.ndarray        # block upper-triangular closed deviation dynamics
    Bw: np.ndarray        # process-noise input (original coordinates)
    Bv: np.ndarray        # measurement-noise input
    out_map: np.ndarray   # augmented state -> stacked deviations (m*n rows)
    variant: str
    block_dims: tuple     # (deviation block, tracking block, stable substate)
    spectral_radius: float  # of Ar, from its diagonal blocks

    @property
    def dim(self) -> int:
        return self.Ar.shape[0]


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
    """Assemble the stable augmented deviation system for one variant.

    Raises UnstableAugmentedError when the assembled dynamics are not
    strictly stable, which signals a broken or infeasible design.
    """
    n, m = model.n, model.m
    nu, ns = split.nu, split.ns
    S, beta, Lam = bundle.S, bundle.beta, bundle.Lambda
    ones = np.ones(n)
    mu, Phi = _laplacian_eigenbasis(graph)
    Phi2 = Phi[:, 1:]
    mus = mu[1:]

    if variant == "alg1":
        blk = m * n
        Smap = np.kron(np.eye(m), S)
        BG = np.kron(np.eye(m), np.outer(ones, consensus.Gamma))
        L_in = np.zeros((m * blk, m))
        for i in range(m):
            L_in[i * blk + i * n : i * blk + (i + 1) * n, i] = 1.0
        out_gain = np.kron(np.eye(m), m * bundle.Fstack)
    elif variant == "alg2":
        if reduced is None:
            raise ConfigError("variant alg2 requires the reduced-order bundle")
        blk = n * n
        Smap = np.kron(np.eye(n), S)
        BG = np.kron(np.eye(n), np.outer(ones, consensus.Gamma))
        L_in = np.zeros((m * blk, m))
        for i in range(m):
            L_in[i * blk : (i + 1) * blk, i] = reduced.T[:, i]
        out_gain = np.kron(np.eye(m), m * reduced.H)
    else:
        raise ConfigError(f"unknown variant {variant!r}")

    d2 = (m - 1) * blk
    A_d2 = linalg.block_diag(*[Smap - mu_j * BG for mu_j in mus]) if d2 else np.zeros((0, 0))
    L_td = np.kron(Phi2.T, np.eye(blk)) @ L_in  # deviation-mode noise input

    Cbar = model.C @ split.V
    W_eps = np.vstack([bundle.G[i] - np.outer(ones, Cbar[i]) for i in range(m)])
    V_eps = -np.kron(np.eye(m), ones.reshape(-1, 1))
    CsAs = split.Cis @ split.As
    A_eps = V_eps @ CsAs

    dim = d2 + m * n + ns
    Ar = np.zeros((dim, dim))
    Ar[:d2, :d2] = A_d2
    Ar[:d2, d2 : d2 + m * n] = L_td @ np.kron(np.eye(m), beta.reshape(1, -1))
    Ar[:d2, d2 + m * n :] = L_td @ CsAs
    Ar[d2 : d2 + m * n, d2 : d2 + m * n] = np.kron(np.eye(m), Lam)
    Ar[d2 : d2 + m * n, d2 + m * n :] = A_eps
    Ar[d2 + m * n :, d2 + m * n :] = split.As

    # noise inputs, mapped back to original process-noise coordinates
    Bw_split = np.vstack([L_td @ Cbar, W_eps, split.J])
    Bw = Bw_split @ split.Vinv
    Bv = np.vstack([L_td, V_eps, np.zeros((ns, m))])

    out_map = np.zeros((m * n, dim))
    if d2:
        out_map[:, :d2] = out_gain @ np.kron(Phi2, np.eye(blk))

    # Ar is block upper-triangular, so its spectrum is the union of the
    # deviation modes S - mu_j 1 Gamma' (j >= 2), Lambda and As
    modes = [S - mu_j * np.outer(ones, consensus.Gamma) for mu_j in mus]
    rho = max(numerics.spectral_radius(X) for X in [*modes, Lam, split.As])
    if rho >= 1.0 - numerics.UNIT_CIRCLE_TOL:
        raise UnstableAugmentedError(
            f"augmented deviation system has spectral radius {rho:.6f}"
        )
    return AugmentedSystem(
        Ar=Ar, Bw=Bw, Bv=Bv, out_map=out_map, variant=variant,
        block_dims=(d2, m * n, ns), spectral_radius=rho,
    )


@dataclass(frozen=True, eq=False)
class CovarianceReport:
    Wr: np.ndarray            # augmented steady-state covariance
    Wbar: np.ndarray          # (mn, mn) covariance of deviations from the Kalman estimate
    Wbreve: np.ndarray        # (mn, mn) full error covariance
    per_node_trace: np.ndarray  # trace of each node's diagonal block of Wbreve
    variant: str

    def node_block(self, i: int) -> np.ndarray:
        m = self.per_node_trace.shape[0]
        n = self.Wbreve.shape[0] // m
        return self.Wbreve[i * n : (i + 1) * n, i * n : (i + 1) * n]


def asymptotic_covariance(
    aug: AugmentedSystem, model: SystemModel, Ppost: np.ndarray
) -> CovarianceReport:
    """Exact steady-state covariance via one Lyapunov solve.

    Wbreve = Wbar + (11') (x) Ppost, where the second term is the
    centralized Kalman error shared by every node.
    """
    n, m = model.n, model.m
    V = aug.Bw @ model.Q @ aug.Bw.T + aug.Bv @ model.R @ aug.Bv.T
    Wr = numerics.solve_dlyap(aug.Ar, 0.5 * (V + V.T)) if aug.dim else np.zeros((0, 0))
    Wbar = aug.out_map @ Wr @ aug.out_map.T
    Wbar = 0.5 * (Wbar + Wbar.T)
    Wbreve = Wbar + np.kron(np.ones((m, m)), Ppost)
    traces = np.array([np.trace(Wbreve[i * n : (i + 1) * n, i * n : (i + 1) * n]) for i in range(m)])
    return CovarianceReport(
        Wr=Wr, Wbar=Wbar, Wbreve=Wbreve, per_node_trace=traces, variant=aug.variant
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


def empirical_covariance(traces, steps):
    """Sample covariance of per-node errors over trials at given steps.

    ``traces``: >= 2 SimulationTrace objects from independent trials.
    ``steps``: selector (slice or index array) over trace steps; samples
    are pooled across the selected steps of each trial.

    Returns (cov, stderr): per-node covariance estimates (m, n, n) and
    batch-means standard errors of the same shape.
    """
    traces = list(traces)
    if len(traces) < 2:
        raise ConfigError("empirical covariance needs at least 2 trials")
    per_trial = []
    for tr in traces:
        err = tr.errors[steps]              # (k, m, n)
        per_trial.append(np.einsum("kma,kmb->mab", err, err) / err.shape[0])
    per_trial = np.array(per_trial)         # (trials, m, n, n)
    cov = per_trial.mean(axis=0)
    n_batches = min(10, len(traces))
    batches = np.array_split(np.arange(len(traces)), n_batches)
    bm = np.array([per_trial[b].mean(axis=0) for b in batches])
    stderr = bm.std(axis=0, ddof=1) / np.sqrt(n_batches)
    return cov, stderr


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
    }
