"""Batched simulation kernel shared by both algorithm variants.

Both variants run one recursion on a consensus state: B independent trials
side by side (the trial axis), and in each, node i holds r copies of the
order-n local filter, r = m for variant 1 (one copy per sensor, messages
of size m) and r = n for variant 2 (messages of size n).  Per step k, with
residual z_i = y_i(k+1) - beta' xi_i and consensus Laplacian L(k, rho)
built from the sampled link weights:

    xi_i   <- S xi_i + 1 z_i
    state  <- state S' + inject z - (L(k, 0) (state Gamma)) 1'
    state  <- state - (L(k, rho) (state Gamma)) 1'      rho = 1 .. rounds-1
    xbreve <- the read-out of state

``gains`` holds the link weights, (B, T, rounds, m, m) for links that
change per step, or (B, 1, rounds, m, m) or (1, 1, rounds, m, m) for links
that never change, whose Laplacians are formed once (and once for the
batch when every trial has the same links).  Per-step Laplacians are
formed one step at a time: a (B, T, rounds, m, m) Laplacian next to the
weights would double the largest array of a batch.

``inject`` is None for variant 1, which adds z_i to the own block
state[i, i] only, and the blocks T_i (m, r, n) for variant 2.  ``read``
(n, n r) is the read-out: m F_j for variant 1 and m e_j beta' for
variant 2, in column blocks s = 1..n of r columns each.  Variant 1 with
``replace_own`` (``own`` = F) reads the own block as xi_i / m instead of
state[i, i]; the state itself is unchanged.  The plant and the
centralized filter are co-simulated on the same noise.  All randomness
(w, v, x0, link weights) is sampled outside the kernel, per trial, so a
trial's result depends on the batch it runs in only through roundoff.

Memory stays fixed across steps.  The state is held coordinate first,
as (n, r, B, m), so that S and Gamma act on n long rows.  The local
filters and the consensus state each live in two buffers that swap roles
every step and are written in place.  S is real block diagonal, so
``state S'`` is an elementwise product with its diagonal plus one row
update per off-diagonal entry (conjugate-pair 2x2 blocks, Jordan links);
``state Gamma`` reads only the rows up to Gamma's last nonzero; and
variant 1's z_i 1 is folded into the coupling term of the own block
(variant 2 adds inject z, a product over the whole state, each step).
Each step's node estimates go into a buffer of ``chunk`` steps.

Inputs carry the trial axis first: w (B, T, n), v0 (B, m), v (B, T, m),
x0 (B, n).  Without ``chunk`` the buffer covers the whole horizon and the
kernel returns x (B, T+1, n), y (B, T+1, m), xhat (B, T+1, n), xbreve
(B, T+1, m, n), the final local states xi (B, m, n) and the final
consensus state (B, m, r, n).  With ``chunk`` it keeps only that many
steps of node estimates: whenever the buffer fills, it sums the squared
errors against x and the squared deviations from xhat over the trial
axis, and it returns those two (T+1, m, n) sums.
"""

from __future__ import annotations

import numpy as np


def _laplacian(g):
    """Laplacians diag(g 1) - g of a stack of link-weight matrices g."""
    return g.sum(axis=-1)[..., None] * np.eye(g.shape[-1]) - g


def _simulate(A, C, Acl, K, S, beta, inject, read, own, Gamma, gains, w, v0, v, x0, chunk=None):
    B, T, n = w.shape
    m = C.shape[0]
    r = read.shape[1] // n
    x = np.empty((B, T + 1, n))
    x[:, 0] = x0
    for k in range(T):
        x[:, k + 1] = x[:, k] @ A.T + w[:, k]
    y = x @ C.T
    y[:, 0] += v0
    y[:, 1:] += v
    xhat = y @ K.T
    xhat[:, 0] = 0.0
    for k in range(T):
        xhat[:, k + 1] += xhat[:, k] @ Acl.T

    d = S.diagonal()[:, None]
    off = [(i, j, S[i, j]) for i, j in zip(*np.nonzero(S - np.diag(S.diagonal())))]
    nz = np.flatnonzero(Gamma)
    gamma = Gamma[: nz[-1] + 1 if nz.size else 0]
    if inject is not None:
        inject = inject.transpose(2, 1, 0)[:, :, None, :]

    def views(a):
        """A state buffer, as n rows, as (n r, B m) for the read-out and,
        for variant 1, its own blocks a[:, i, :, i]."""
        own_blocks = np.einsum("sibi->sbi", a) if inject is None else None
        return a, a.reshape(n, -1), a.reshape(n * r, B * m), own_blocks

    xi, xi_next = np.zeros((n, B, m)), np.empty((n, B, m))
    cur, nxt = views(np.zeros((n, r, B, m))), views(np.empty((n, r, B, m)))
    lapT = None
    if gains.shape[1] == 1:  # links that never change: one Laplacian for all steps
        lapT = _laplacian(gains[:, 0]).swapaxes(-1, -2)
        if np.all(lapT == lapT[:1]):  # and the same in every trial
            lapT = lapT[:1]
    steps = T + 1 if chunk is None else min(chunk, T + 1)
    buf = np.zeros((steps, n, B, m))
    if chunk is not None:
        sq_err, sq_dev = np.empty((T + 1, n, m)), np.empty((T + 1, n, m))
        x_t = x.transpose(1, 2, 0)[..., None]
        xhat_t = xhat.transpose(1, 2, 0)[..., None]
    t0 = 0  # the step held in buf[0]
    for k in range(1, T + 1):
        z = y[:, k] - (beta @ xi.reshape(n, -1)).reshape(B, m)
        _apply_S(xi.reshape(n, -1), d, off, xi_next.reshape(n, -1))
        xi_next += z
        xi, xi_next = xi_next, xi
        lt = lapT if lapT is not None else _laplacian(gains[:, k - 1]).swapaxes(-1, -2)
        state, rows, flat, own_blocks = nxt
        u = _couple(gamma @ cur[1][: gamma.size], lt[:, 0], r, B, m)
        _apply_S(cur[1], d, off, rows)
        if inject is None:  # z_i 1 enters the own block the way the coupling does
            own_u = np.einsum("ibi->bi", u)
            own_u -= z
        else:
            state += inject * z
        state -= u
        for rho in range(1, lt.shape[1]):
            state -= _couple(gamma @ rows[: gamma.size], lt[:, rho], r, B, m)
        cur, nxt = nxt, cur
        if k - t0 == steps:  # buffer full: sum it, then start the next chunk
            _reduce(buf, x_t, xhat_t, t0, sq_err, sq_dev)
            t0 = k
        out = buf[k - t0]
        np.matmul(read, flat, out=out.reshape(n, B * m))
        if own is not None:
            own_gap = (xi - m * own_blocks).transpose(2, 0, 1)
            out += np.matmul(own, own_gap).transpose(1, 2, 0)
    if chunk is None:
        return (x, y, xhat, buf.transpose(2, 0, 3, 1), xi.transpose(1, 2, 0),
                cur[0].transpose(2, 3, 1, 0))
    _reduce(buf, x_t, xhat_t, t0, sq_err, sq_dev)
    return sq_err.transpose(0, 2, 1), sq_dev.transpose(0, 2, 1)


def _apply_S(src, d, off, dst):
    """dst = S src for n rows src: the diagonal d (n, 1) as an elementwise
    product, then one row update per off-diagonal entry (i, j, S_ij)."""
    np.multiply(src, d, out=dst)
    for i, j, s in off:
        dst[i] += s * src[j]


def _couple(c, lapT, r, B, m):
    """The coupling L c as (r, B, m), for c = Gamma' state flattened from
    (r, B, m) and transposed Laplacians lapT, (1, m, m) when every trial
    shares them (one matrix product), else (B, m, m)."""
    if lapT.shape[0] == 1:
        return (c.reshape(-1, m) @ lapT[0]).reshape(r, B, m)
    return np.matmul(c.reshape(r, B, m).transpose(1, 0, 2), lapT).transpose(1, 0, 2)


def _reduce(buf, x_t, xhat_t, t0, sq_err, sq_dev):
    """Sum the squared errors and deviations of the buffered steps t0..
    over the trial axis into rows t0.. of sq_err and sq_dev (T+1, n, m)."""
    t1 = min(t0 + buf.shape[0], sq_err.shape[0])
    held = buf[: t1 - t0]
    e = held - x_t[t0:t1]
    np.einsum("ksbi,ksbi->ksi", e, e, out=sq_err[t0:t1])
    np.subtract(held, xhat_t[t0:t1], out=e)
    np.einsum("ksbi,ksbi->ksi", e, e, out=sq_dev[t0:t1])


def sim_alg1(A, C, Acl, K, S, beta, F, Gamma, gains, w, v0, v, x0, replace_own, chunk=None):
    """Variant 1: F (m,n,n) are the fusion weights F_j."""
    m, n = F.shape[:2]
    read = m * F.transpose(1, 2, 0).reshape(n, n * m)
    own = F if replace_own else None
    return _simulate(A, C, Acl, K, S, beta, None, read, own, Gamma, gains, w, v0, v, x0, chunk)


def sim_alg2(A, C, Acl, K, S, beta, Tb, Gamma, gains, w, v0, v, x0, chunk=None):
    """Variant 2: Tb (m,n,n) stacks the reduced-order blocks T_i."""
    m, n = Tb.shape[:2]
    read = m * np.kron(beta[None, :], np.eye(n))
    return _simulate(A, C, Acl, K, S, beta, Tb, read, None, Gamma, gains, w, v0, v, x0, chunk)
