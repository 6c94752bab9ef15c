"""Per-trial simulation kernel shared by both algorithm variants.

Both variants run one recursion on a consensus state of shape (m, r, n):
node i holds r copies of the order-n local filter, r = m for variant 1
(one copy per sensor, messages of size m) and r = n for variant 2
(messages of size n).  Per step k, with residual z_i = y_i(k+1) - beta' xi_i
and consensus Laplacian L(k, rho) built from the sampled link weights:

    xi_i   <- S xi_i + 1 z_i
    state  <- state S' + inject z - (L(k, 0) (state Gamma)) 1'
    state  <- state - (L(k, rho) (state Gamma)) 1'      rho = 1 .. rounds-1
    xbreve <- m * state.reshape(m, r n) @ readout

``inject`` is (m, r, n): ``e_i 1'`` for variant 1, ``T_i`` for variant 2.
``readout`` is (r n, n): the stacked ``F_j'`` for variant 1 and
``e_j beta'`` for variant 2.  Variant 1 with ``replace_own`` reads the own
block as xi_i / m instead of state[i, i]; the state itself is unchanged.
The plant and the centralized filter are co-simulated on the same noise.
All randomness (w, v, x0, link weights) is sampled outside the kernel.

Returns x (T+1,n), y (T+1,m), xhat (T+1,n), xbreve (T+1,m,n), the final
local states xi (m,n) and the final consensus state (m,r,n).
"""

from __future__ import annotations

import numpy as np


def _simulate(A, C, Acl, K, S, beta, inject, readout, own, Gamma, gains, w, v0, v, x0):
    T, n = w.shape
    m = C.shape[0]
    x = np.zeros((T + 1, n))
    y = np.zeros((T + 1, m))
    xhat = np.zeros((T + 1, n))
    xbreve = np.zeros((T + 1, m, n))
    xi = np.zeros((m, n))
    state = np.zeros(inject.shape)
    lap = gains.sum(axis=-1)[..., None] * np.eye(m) - gains
    readout = m * readout
    idx = np.arange(m)
    x[0] = x0
    y[0] = C @ x0 + v0
    for k in range(T):
        x[k + 1] = A @ x[k] + w[k]
        y[k + 1] = C @ x[k + 1] + v[k]
        z = y[k + 1] - xi @ beta
        xi = xi @ S.T + z[:, None]
        state = state @ S.T + inject * z[:, None, None] - (lap[k, 0] @ (state @ Gamma))[:, :, None]
        for L in lap[k, 1:]:
            state = state - (L @ (state @ Gamma))[:, :, None]
        xbreve[k + 1] = state.reshape(m, -1) @ readout
        if own is not None:
            xbreve[k + 1] += np.einsum("iab,ib->ia", own, xi - m * state[idx, idx])
        xhat[k + 1] = Acl @ xhat[k] + K @ y[k + 1]
    return x, y, xhat, xbreve, xi, state


def sim_alg1(A, C, Acl, K, S, beta, F, Gamma, gains, w, v0, v, x0, replace_own):
    """Variant 1: F (m,n,n) are the fusion weights F_j."""
    m, n = F.shape[:2]
    inject = np.repeat(np.eye(m)[:, :, None], n, axis=2)
    readout = F.transpose(0, 2, 1).reshape(m * n, n)
    own = F if replace_own else None
    return _simulate(A, C, Acl, K, S, beta, inject, readout, own, Gamma, gains, w, v0, v, x0)


def sim_alg2(A, C, Acl, K, S, beta, Tb, Gamma, gains, w, v0, v, x0):
    """Variant 2: Tb (m,n,n) stacks the reduced-order blocks T_i."""
    n = Tb.shape[1]
    readout = np.kron(np.eye(n), beta[:, None])
    return _simulate(A, C, Acl, K, S, beta, Tb, readout, None, Gamma, gains, w, v0, v, x0)
