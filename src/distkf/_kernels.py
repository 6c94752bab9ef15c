"""Batched simulation kernel shared by both algorithm variants.

Both variants run one recursion on a consensus state: B independent trials
side by side (the trial axis), and in each, node i holds r copies of the
order-n local filter, r = m for variant 1 (one copy per sensor, messages
of size m) and r = n for variant 2 (messages of size n).  Per step k, with
residual z_i = y_i(k+1) - beta' xi_i and consensus Laplacian L(k, rho)
of the links that are up:

    xi_i   <- S xi_i + 1 z_i
    state  <- state S' + inject z - (L(k, 0) (state Gamma)) 1'
    state  <- state - (L(k, rho) (state Gamma)) 1'      rho = 1 .. rounds-1
    xbreve <- the read-out of state

``flags`` (B, steps, rounds, E) holds one bool flag per trial, step,
round and edge i < j of ``adj`` in row-major order, True where the link
is up, and steps = 1 for links that never change.  With the incidence D
(m, E), columns e_i - e_j, and edge weights w, L = D diag(w flags) D'.
Flags of one step shared by every trial give one Laplacian per round for
the whole batch (one matrix product per round); other flags couple each
trial through D with its own edge weights, ((c D) * w flags) D'.

``inject`` is None for variant 1, which adds z_i to the own block
state[i, i] only, and the blocks T_i (m, r, n) for variant 2.  ``read``
(n, n r) is the read-out: m F_j for variant 1 and m e_j beta' for
variant 2, in column blocks s = 1..n of r columns each.  Variant 1 with
``replace_own`` (``own`` = F) reads the own block as xi_i / m instead of
state[i, i]; the state itself is unchanged.  The plant and the
centralized filter are co-simulated on the same noise.  All randomness
(w, v, x0, link flags) is sampled outside the kernel, per trial, so a
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
Each step's node estimates go into a buffer of ``chunk`` steps, or of
the whole horizon without ``chunk``; whenever it fills, the kernel sums
their squared errors against x and deviations from xhat over the trials.

Inputs carry the trial axis first: w (B, T, n), v0 (B, m), v (B, T, m),
x0 (B, n).  The kernel returns x (B, T+1, n), y (B, T+1, m), xhat
(B, T+1, n), the buffer's last node estimates xbreve (B, steps, m, n),
the final local and consensus states xi (B, m, n) and (B, m, r, n), and
the two sums (T+1, m, n).
"""

from __future__ import annotations

import numpy as np


def _simulate(A, C, Acl, K, S, beta, inject, read, own, Gamma, adj, flags, w, v0, v, x0, chunk):
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
    head, tail = np.nonzero(np.triu(adj, 1))  # edges i < j, row-major
    D = np.eye(m)[:, head] - np.eye(m)[:, tail]
    weights = adj[head, tail]
    links, rounds = flags.shape[1:3]
    lap = None
    if links == 1 and np.all(flags == flags[:1]):  # one Laplacian per round for all
        lap = (D * (weights * flags[0, 0])[:, None, :]) @ D.T
    steps = T + 1 if chunk is None else min(chunk, T + 1)
    buf = np.zeros((steps, n, B, m))
    sq_err, sq_dev = np.empty((T + 1, n, m)), np.empty((T + 1, n, m))
    x_t = x.transpose(1, 2, 0)[..., None]
    xhat_t = xhat.transpose(1, 2, 0)[..., None]
    t0 = 0  # the step held in buf[0]
    for k in range(1, T + 1):
        z = y[:, k] - (beta @ xi.reshape(n, -1)).reshape(B, m)
        _apply_S(xi.reshape(n, -1), d, off, xi_next.reshape(n, -1))
        xi_next += z
        xi, xi_next = xi_next, xi
        ew = None if lap is not None else weights * flags[:, min(k, links) - 1]
        state, rows, flat, own_blocks = nxt
        u = _couple(gamma @ cur[1][: gamma.size], lap, ew, D, 0, r, B, m)
        _apply_S(cur[1], d, off, rows)
        if inject is None:  # z_i 1 enters the own block the way the coupling does
            own_u = np.einsum("ibi->bi", u)
            own_u -= z
        else:
            state += inject * z
        state -= u
        for rho in range(1, rounds):
            state -= _couple(gamma @ rows[: gamma.size], lap, ew, D, rho, r, B, m)
        cur, nxt = nxt, cur
        if k - t0 == steps:  # buffer full: sum it, then start the next chunk
            _reduce(buf, x_t, xhat_t, t0, sq_err, sq_dev)
            t0 = k
        out = buf[k - t0]
        np.matmul(read, flat, out=out.reshape(n, B * m))
        if own is not None:
            own_gap = (xi - m * own_blocks).transpose(2, 0, 1)
            out += np.matmul(own, own_gap).transpose(1, 2, 0)
    _reduce(buf, x_t, xhat_t, t0, sq_err, sq_dev)
    return (x, y, xhat, buf[: T + 1 - t0].transpose(2, 0, 3, 1), xi.transpose(1, 2, 0),
            cur[0].transpose(2, 3, 1, 0), sq_err.transpose(0, 2, 1), sq_dev.transpose(0, 2, 1))


def _apply_S(src, d, off, dst):
    """dst = S src for n rows src: the diagonal d (n, 1) as an elementwise
    product, then one row update per off-diagonal entry (i, j, S_ij)."""
    np.multiply(src, d, out=dst)
    for i, j, s in off:
        dst[i] += s * src[j]


def _couple(c, lap, ew, D, rho, r, B, m):
    """The coupling L c of round rho as (r, B, m), for c = Gamma' state
    flattened from (r, B, m): one product with the shared Laplacians
    ``lap`` (rounds, m, m), or else, with ``lap`` None, through the
    incidence D with each trial's edge weights ``ew`` (B, rounds, E)."""
    c = c.reshape(-1, m)
    if lap is not None:
        return (c @ lap[rho]).reshape(r, B, m)
    return (((c @ D).reshape(r, B, -1) * ew[:, rho]).reshape(r * B, -1) @ D.T).reshape(r, B, m)


def _reduce(buf, x_t, xhat_t, t0, sq_err, sq_dev):
    """Sum the squared errors and deviations of the buffered steps t0..
    over the trial axis into rows t0.. of sq_err and sq_dev (T+1, n, m)."""
    t1 = min(t0 + buf.shape[0], sq_err.shape[0])
    held = buf[: t1 - t0]
    e = held - x_t[t0:t1]
    np.einsum("ksbi,ksbi->ksi", e, e, out=sq_err[t0:t1])
    np.subtract(held, xhat_t[t0:t1], out=e)
    np.einsum("ksbi,ksbi->ksi", e, e, out=sq_dev[t0:t1])


def sim_alg1(A, C, Acl, K, S, beta, F, Gamma, adj, flags, w, v0, v, x0, replace_own, chunk=None):
    """Variant 1: F (m,n,n) are the fusion weights F_j."""
    m, n = F.shape[:2]
    read = m * F.transpose(1, 2, 0).reshape(n, n * m)
    own = F if replace_own else None
    return _simulate(A, C, Acl, K, S, beta, None, read, own, Gamma, adj, flags, w, v0, v, x0, chunk)


def sim_alg2(A, C, Acl, K, S, beta, Tb, Gamma, adj, flags, w, v0, v, x0, chunk=None):
    """Variant 2: Tb (m,n,n) stacks the reduced-order blocks T_i."""
    m, n = Tb.shape[:2]
    read = m * np.kron(beta[None, :], np.eye(n))
    return _simulate(A, C, Acl, K, S, beta, Tb, read, None, Gamma, adj, flags, w, v0, v, x0, chunk)
