"""Centralized steady-state Kalman design and per-sensor baselines.

One convention note that matters throughout the package: the gain is
computed from the steady-state *prediction* covariance ``Sigma``,

    K = Sigma C' (C Sigma C' + R)^{-1},

so that the fixed-gain recursion x^(k+1) = (A - KCA) x^(k) + K y(k+1) is
the standard posterior filter.  ``Ppost = (I - KC) Sigma`` is the error
covariance of that recursion's output and is the quantity used in all
error-covariance reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import NotDetectableError
from .plant import SystemModel


@dataclass(frozen=True, eq=False)
class KalmanDesign:
    Sigma: np.ndarray   # prediction covariance
    Ppost: np.ndarray   # posterior covariance (I - KC) Sigma
    K: np.ndarray       # steady-state gain, column i belongs to sensor i
    Acl: np.ndarray     # A - K C A, strictly stable

    @property
    def n(self) -> int:
        return self.Acl.shape[0]

    @property
    def m(self) -> int:
        return self.K.shape[1]


def _design(A, C, Q, R) -> KalmanDesign:
    Sigma = numerics.solve_dare(A, C, Q, R)
    G = C @ Sigma @ C.T + R
    K = np.linalg.solve(G.T, (Sigma @ C.T).T).T
    Ppost = (np.eye(A.shape[0]) - K @ C) @ Sigma
    Ppost = 0.5 * (Ppost + Ppost.T)
    Acl = A - K @ C @ A
    return KalmanDesign(Sigma=Sigma, Ppost=Ppost, K=K, Acl=Acl)


def design_kalman(model: SystemModel) -> KalmanDesign:
    """Steady-state Kalman filter for the full sensor stack."""
    design = _design(model.A, model.C, model.Q, model.R)
    rho = numerics.spectral_radius(design.Acl)
    if rho >= 1.0:
        # detectable (A, C) still has no stabilising filter when a mode on
        # the unit circle is not driven by Q (A = 1, Q = 0)
        raise NotDetectableError(f"closed-loop spectral radius {rho:.6f} >= 1: a unit-circle "
                                 "mode is not driven by Q, so no stabilising filter exists")
    return design


def design_local_kf(model: SystemModel, sensor: int) -> KalmanDesign:
    """Steady-state filter using only sensor ``sensor``'s measurement.

    Raises NotDetectableError when (A, C_i) cannot stabilize the filter;
    callers treating this as a baseline should skip that sensor.
    """
    Ci = model.sensor_row(sensor)
    Ri = model.R[sensor : sensor + 1, sensor : sensor + 1]
    return _design(model.A, Ci, model.Q, Ri)

