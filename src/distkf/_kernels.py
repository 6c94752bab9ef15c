"""Batched simulation kernel shared by both algorithm variants.

B independent trials run side by side (the trial axis).  In each, node i
holds r copies of the order-n local filter: r = m for variant 1 (messages
of size m), r = n for variant 2 (messages of size n).  Per step k, with
residual z_i(k) = y_i(k) - beta' xi_i(k-1) and consensus Laplacian
L(k, rho) of the links that are up:

    xi_i   <- S xi_i + 1 z_i
    state  <- state S' + inject z - (L(k, 0) (state Gamma)) 1'
    state  <- state - (L(k, rho) (state Gamma)) 1'      rho = 1 .. rounds-1

``flags`` (B, steps, rounds, E) holds one bool per trial, step, round and
edge i < j of ``adj`` (row-major), True where the link is up; steps = 1
for links that never change.  With the incidence D (m, E) and edge
weights w, L = D diag(w flags) D', shared by the batch when its trials
share one step's flags.

``inject`` is None for variant 1, which adds z_i to the own copy eta_ii,
and the blocks T_i as (n, r, 1, m) for variant 2, whose node i estimates
m beta' theta_ij in coordinate j.  Variant 1 never forms X_i = m sum_j
F_j eta_ij: every copy moves along 1, eta_ij(k) = S eta_ij(k-1) +
1 a_ij(k), and F_j S = Acl F_j + K_j beta' (F_j Lambda = Acl F_j,
Lambda = S - 1 beta', F_j 1 = K_j), so

    X_i(k) = Acl X_i(k-1) + m K b_i(k),   b_ij(k) = beta' eta_ij(k-1) + a_ij(k),

n^2 + n m per node and step instead of n^2 m.  ``replace_own`` reads the
own copy as F_i xi_i, the same recursion with b_ii(k) = y_i(k) / m.

Only S's leading block up to Gamma's last nonzero (Gamma = [Gamma_u, 0])
feeds the coupling back, so the loop steps those p coordinates alone.
The other n - p of a copy filter its input a and are read only through
beta_s' eta_s; per block of c steps, from their state ``carry`` before it,

    beta_s' eta_s(k0 + t) = P_t carry + sum_{tau < t} h(t-1-tau) a(k0+1+tau)
    carry                <- S_s^c carry + sum_tau S_s^(c-1-tau) 1 a(k0+1+tau)

with P_t = beta_s' S_s^t, h(t) = P_t 1: four products, time on the row
axis.  The local filters, xi_i(k) = Lambda xi_i(k-1) + 1 y_i(k), are such
a filter too, so a block's residuals come before its loop.  Fewer than
``_MIN_FILTERED`` stable coordinates are stepped (example1's one ran 4-6%
faster so, heat16's fifteen 50% faster filtered).  Variant 2's injection
reaches the stable coordinates along other vectors than 1, so it steps
all n.  Randomness is drawn outside, per trial: batching is roundoff.

A step fills a slot of the block buffer, rows (n + 2 r, B m): X, then
[beta; Gamma]' of the stepped coordinates, whose Gamma row the coupling
input q = -a overwrites.  After the block, variant 1 adds the stable part
and a to the beta row and runs the X recursion, one product with
[Acl, m K] a slot; the block's squared errors and deviations are then
summed over the trials.  ``chunk`` is the block length; without it,
blocks hold ``_BLOCK`` steps and every X is kept.

Inputs carry the trial axis first: w (B, T, n), v0 (B, m), v (B, T, m),
x0 (B, n).  Returns x, y, xhat (B, T+1, .), node estimates xbreve
(B, steps, m, n) of the horizon without ``chunk``, else of the last
block, the final xi (B, m, n) and consensus state (B, m, r, n), and the
two sums (T+1, m, n).
"""

from __future__ import annotations

import numpy as np

_BLOCK = 16  # most steps per block
_MIN_FILTERED = 4  # a smaller stable block is stepped with the coupled one


def _simulate(A, C, Acl, K, S, beta, inject, Gamma, adj, flags, w, v0, v, x0, replace_own,
              chunk):
    B, T, n = w.shape
    m = C.shape[0]
    r = m if inject is None else n
    plant = np.zeros((B, T + 1, 2 * n))  # [x; xhat], xhat(k+1) = Acl xhat(k) + K y(k+1)
    plant[:, 0, :n] = x0
    plant[:, 1:, :n], plant[:, 1:, n:] = w, (w @ C.T + v) @ K.T
    step = np.block([[A, np.zeros((n, n))], [K @ C @ A, Acl]]).T
    for k in range(T):
        plant[:, k + 1] += plant[:, k] @ step
    x, xhat = plant[..., :n], plant[..., n:]
    y = x @ C.T + np.concatenate([v0[:, None], v], axis=1)

    p = n if inject is not None else _coupled_block(S, Gamma)
    c = max(1, min(_BLOCK if chunk is None else chunk, T))
    N = r * B * m
    d = S.diagonal()[:p, None, None]  # S acts on the stepped rows: d, then off-diagonals
    off = [(i, j, S[i, j]) for i, j in zip(*np.nonzero(S[:p, :p] - np.diag(d.ravel())))]
    read = np.vstack([beta[:p], Gamma[:p]])
    xi_tables = _block_tables(S - np.outer(np.ones(n), beta), beta, c, 1.0)
    eta_tables = _block_tables(S[p:, p:], beta[p:], c, -1.0) if p < n else None
    G = np.hstack([Acl, m * K])

    # slot t: X(k0+t), [beta; Gamma]' state(k0+t), the Gamma row then q(k0+t+1)
    slots = np.zeros((c + 1, n + 2 * r, B * m))
    X, bread, q = slots[:, :n], slots[:, n:n + r], slots[:, n + r:]
    reads, qs = slots[1:, n:].reshape(c, 2, N), q.reshape(c + 1, r * B, m)
    if inject is None:  # the own copies eta_ii, r = m
        own_q = np.einsum("tibi->tbi", q.reshape(c + 1, r, B, m))
        own_b = np.einsum("tibi->tbi", bread.reshape(c + 1, r, B, m))
    xi = np.zeros((n, B * m))
    cur, nxt = np.zeros((p, r * B, m)), np.empty((p, r * B, m))
    state = np.zeros((n, N))  # the full consensus state; its last n - p rows carry
    carry = state[p:]         # the stable coordinates from block to block
    trace = np.zeros((T + 1, n, B * m)) if chunk is None else None

    head, tail = np.nonzero(np.triu(adj, 1))  # edges i < j, row-major
    D = np.eye(m)[:, head] - np.eye(m)[:, tail]
    weights = adj[head, tail]
    links, rounds = flags.shape[1:3]
    shared = links == 1 and np.all(flags == flags[:1])  # one Laplacian per round for all
    lap = (D * (weights * flags[0, 0])[:, None, :]) @ D.T if shared else None
    sq_err, sq_dev = np.empty((T + 1, n, m)), np.empty((T + 1, n, m))
    for k0 in range(0, max(T, 1), c):
        k1 = min(k0 + c, T)
        cb = k1 - k0
        yb = y[:, k0 + 1:k1 + 1].transpose(1, 0, 2).reshape(cb, B * m)
        zb = _filter_block(xi_tables, xi, yb)  # the residuals z = y - beta' xi
        np.subtract(yb, zb, out=zb)
        zs = zb.reshape(cb, B, m)
        for t, k in enumerate(range(k0 + 1, k1 + 1)):
            ew = None if lap is not None else weights * flags[:, min(k, links) - 1]
            qt = qs[t]
            _couple(qt, lap, ew, D, 0, out=qt)
            np.multiply(cur, d, out=nxt)
            for i, j, s in off:
                nxt[i] += s * cur[j]
            if inject is None:  # z_i enters the own copy the way the coupling does
                own_q[t] -= zs[t]
            else:
                nxt += (inject * zs[t]).reshape(n, -1, m)
            nxt -= qt
            for rho in range(1, rounds):
                u = _couple((Gamma[:p] @ nxt.reshape(p, N)).reshape(-1, m), lap, ew, D, rho)
                nxt -= u
                qt += u
            cur, nxt = nxt, cur
            np.matmul(read, cur.reshape(p, N), out=reads[t])
        if inject is None:
            bv, qv = bread[:cb].reshape(cb, N), q[:cb].reshape(cb, N)
            bv -= qv
            if eta_tables is not None:
                bv += _filter_block(eta_tables, carry, qv)
            if replace_own:
                own_b[:cb] = yb.reshape(cb, B, m) / m
            for t in range(cb):
                np.matmul(G, slots[t, :n + r], out=slots[t + 1, :n])
        else:
            np.multiply(bread[1:cb + 1], m, out=X[1:cb + 1])
        lo = 0 if k0 == 0 else 1
        _reduce(X[lo:cb + 1], plant[:, k0 + lo:k1 + 1], k0 + lo, sq_err, sq_dev)
        if trace is not None:
            trace[k0 + 1:k1 + 1] = X[1:cb + 1]
        slots[0] = slots[cb]

    state[:p] = cur.reshape(p, N)
    held = trace if trace is not None else X[1:cb + 1]
    return (x, y, xhat, held.reshape(-1, n, B, m).transpose(2, 0, 3, 1),
            xi.reshape(n, B, m).transpose(1, 2, 0),
            state.reshape(n, r, B, m).transpose(2, 3, 1, 0),
            sq_err.transpose(0, 2, 1), sq_dev.transpose(0, 2, 1))


def _coupled_block(S, Gamma):
    """S's leading block holding Gamma's nonzeros, or all of S if too little is left."""
    p = max(np.flatnonzero(Gamma), default=-1) + 1
    while np.any(S[:p, p:]) or np.any(S[p:, :p]):
        p += 1
    return p if len(S) - p >= _MIN_FILTERED else len(S)


def _block_tables(M, beta, c, sign):
    """Tables of the filter s(k) = M s(k-1) + sign 1 u(k), read as beta' s,
    for blocks of c steps, by doubling: M; P (c, n), rows beta' M^t; sign H
    (c, c), H[t, tau] = beta' M^(t-1-tau) 1 for tau < t; sign W (n, c),
    columns M^(c-1-t) 1; and M^c."""
    cols, rows, power = np.ones((len(beta), 1)), beta[None, :], M
    while cols.shape[1] < c:
        cols = np.hstack([cols, power @ cols])
        rows = np.vstack([rows, rows @ power])
        power = power @ power
    P = rows[:c]
    lag = np.subtract.outer(np.arange(c), np.arange(c)) - 1
    H = np.where(lag >= 0, sign * P.sum(axis=1)[np.maximum(lag, 0)], 0.0)
    return M, P, H, sign * cols[:, c - 1::-1], np.linalg.matrix_power(M, c)


def _filter_block(tables, carry, u):
    """That filter over a block of inputs u (cb, N), cb <= c: returns beta' s
    before each step, (cb, N), and moves its state ``carry`` past the block."""
    M, P, H, W, power = tables
    cb, c = len(u), len(P)
    read = P[:cb] @ carry
    read += H[:cb, :cb] @ u
    power = power if cb == c else np.linalg.matrix_power(M, cb)  # a shorter last block
    carry[...] = power @ carry + W[:, c - cb:] @ u
    return read


def _couple(c, lap, ew, D, rho, out=None):
    """The coupling L c of round rho for c = Gamma' state (r B, m): with
    the shared Laplacians ``lap`` (rounds, m, m), or else through the
    incidence D and each trial's edge weights ``ew`` (B, rounds, E)."""
    if lap is not None:
        return np.matmul(c, lap[rho], out=out)
    t = (c @ D).reshape(-1, *ew.shape[::2]) * ew[:, rho]
    return np.matmul(t.reshape(len(c), -1), D.T, out=out)


def _reduce(held, plant, t0, sq_err, sq_dev):
    """Sum the squared errors and deviations of the node estimates ``held``
    (steps, n, B m) of steps t0.. over the trials into rows t0.. of sq_err
    and sq_dev (T+1, n, m), against their [x; xhat] in ``plant``."""
    steps, n = held.shape[:2]
    for half, out in enumerate((sq_err, sq_dev)):  # x or xhat once for each node
        ref = np.repeat(plant[..., half * n:(half + 1) * n].transpose(1, 2, 0), out.shape[2], -1)
        np.subtract(held, ref, out=ref)
        e = ref.reshape(steps, n, len(plant), -1)
        np.einsum("ksbi,ksbi->ksi", e, e, out=out[t0:t0 + steps])


def sim_alg1(A, C, Acl, K, S, beta, Gamma, adj, flags, w, v0, v, x0, replace_own, chunk=None):
    """Variant 1: one copy per sensor, node estimates by the Acl recursion."""
    return _simulate(A, C, Acl, K, S, beta, None, Gamma, adj, flags, w, v0, v, x0, replace_own,
                     chunk)


def sim_alg2(A, C, Acl, K, S, beta, Tb, Gamma, adj, flags, w, v0, v, x0, chunk=None):
    """Variant 2: Tb (m,n,n) stacks the reduced-order blocks T_i."""
    inject = Tb.transpose(2, 1, 0)[:, :, None, :]  # (n, r, 1, m), r = n
    return _simulate(A, C, Acl, K, S, beta, inject, Gamma, adj, flags, w, v0, v, x0, False, chunk)
