"""Batched simulation kernel shared by both algorithm variants.

Both variants run one recursion on a consensus state of shape (B, m, r, n):
B independent trials side by side (the trial axis), and in each, node i
holds r copies of the order-n local filter, r = m for variant 1 (one copy
per sensor, messages of size m) and r = n for variant 2 (messages of size
n).  Per step k, with residual z_i = y_i(k+1) - beta' xi_i and consensus
Laplacian L(k, rho) built from the sampled link weights:

    xi_i   <- S xi_i + 1 z_i
    state  <- state S' + inject z - (L(k, 0) (state Gamma)) 1'
    state  <- state - (L(k, rho) (state Gamma)) 1'      rho = 1 .. rounds-1
    xbreve <- m * state.reshape(m, r n) @ readout

``gains`` holds the link weights, (B, T, rounds, m, m) for links that
change per step, or (B, 1, rounds, m, m) or (1, 1, rounds, m, m) for links
that never change, whose Laplacians are formed once.  Per-step Laplacians
are formed one step at a time: a (B, T, rounds, m, m) Laplacian next to
the weights would double the largest array of a batch.

``inject`` is (m, r, n): ``e_i 1'`` for variant 1, ``T_i`` for variant 2.
``readout`` is (r n, n): the stacked ``F_j'`` for variant 1 and
``e_j beta'`` for variant 2.  Variant 1 with ``replace_own`` reads the own
block as xi_i / m instead of state[i, i]; the state itself is unchanged.
The plant and the centralized filter are co-simulated on the same noise.
All randomness (w, v, x0, link weights) is sampled outside the kernel,
per trial, so a trial's result depends on the batch it runs in only
through roundoff.

Inputs carry the trial axis first: w (B, T, n), v0 (B, m), v (B, T, m),
x0 (B, n).  Returns x (B, T+1, n), y (B, T+1, m), xhat (B, T+1, n),
xbreve (B, T+1, m, n), the final local states xi (B, m, n) and the final
consensus state (B, m, r, n).  Called with w (T, n), v0 (m,), v (T, m),
x0 (n,) and gains (T, rounds, m, m), a kernel runs one trial and returns
the same arrays without the trial axis.
"""

from __future__ import annotations

import numpy as np


def _laplacian(g):
    """Laplacians diag(g 1) - g of a stack of link-weight matrices g."""
    return g.sum(axis=-1)[..., None] * np.eye(g.shape[-1]) - g


def _simulate(A, C, Acl, K, S, beta, inject, readout, own, Gamma, gains, w, v0, v, x0):
    if w.ndim == 2:
        out = _simulate(A, C, Acl, K, S, beta, inject, readout, own, Gamma, gains[None],
                        w[None], v0[None], v[None], x0[None])
        return tuple(a[0] for a in out)
    B, T, n = w.shape
    m, r = inject.shape[:2]
    x = np.empty((B, T + 1, n))
    xhat = np.zeros((B, T + 1, n))
    xbreve = np.zeros((B, T + 1, m, n))
    # local filters and consensus state are kept as stacks of n-vectors,
    # so that each product with S' or Gamma is a single matrix product
    xi = np.zeros((B * m, n))
    state = np.zeros((B * m * r, n))
    St = S.T
    fixed = _laplacian(gains[:, 0]) if gains.shape[1] == 1 else None
    readout = m * readout
    idx = np.arange(m)
    x[:, 0] = x0
    for k in range(T):
        x[:, k + 1] = x[:, k] @ A.T + w[:, k]
    y = x @ C.T
    y[:, 0] += v0
    y[:, 1:] += v
    Ky = y @ K.T
    for k in range(T):
        z = y[:, k + 1] - (xi @ beta).reshape(B, m)
        xi = xi @ St + z.reshape(-1, 1)
        lap = fixed if fixed is not None else _laplacian(gains[:, k])
        c = (state @ Gamma).reshape(B, m, r)
        state = (state @ St + (inject * z[..., None, None]).reshape(-1, n)
                 - (lap[:, 0] @ c).reshape(-1, 1))
        for rho in range(1, lap.shape[1]):
            c = (state @ Gamma).reshape(B, m, r)
            state = state - (lap[:, rho] @ c).reshape(-1, 1)
        xbreve[:, k + 1] = (state.reshape(B * m, r * n) @ readout).reshape(B, m, n)
        if own is not None:
            own_gap = xi.reshape(B, m, n) - m * state.reshape(B, m, r, n)[:, idx, idx]
            xbreve[:, k + 1] += np.einsum("iab,Bib->Bia", own, own_gap)
        xhat[:, k + 1] = xhat[:, k] @ Acl.T + Ky[:, k + 1]
    return x, y, xhat, xbreve, xi.reshape(B, m, n), state.reshape((B,) + inject.shape)


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
