"""Plain-Python loop versions of the simulation recursions.

One explicit loop per index, written independently of the vectorized
kernel in ``distkf._kernels``; they are the tests' reference for the
network recursion in every configuration (link drops, several consensus
rounds per sample, replace_own, block S).  Both take
``(A, C, Acl, K, S, beta, blocks, Gamma, gains, w, v0, v, x0, replace_own,
rounds)`` with ``blocks`` the F_i (variant 1) or T_i (variant 2), and
return what ``distkf._kernels.sim_alg1``/``sim_alg2`` return for a batch
of one trial, without the trial axis.
"""

import numpy as np

from distkf.decomposition import psd_factor


def sim_alg1_loops(A, C, Acl, K, S, beta, F, Gamma, gains, w, v0, v, x0, replace_own, rounds):
    T = w.shape[0]
    n = A.shape[0]
    m = C.shape[0]
    x = np.zeros((T + 1, n))
    y = np.zeros((T + 1, m))
    xhat = np.zeros((T + 1, n))
    xbreve = np.zeros((T + 1, m, n))
    xi = np.zeros((m, n))
    eta = np.zeros((m, m, n))
    ones = np.ones(n)
    x[0] = x0
    y[0] = C @ x0 + v0
    for k in range(T):
        xk = A @ x[k] + w[k]
        yk = C @ xk + v[k]
        z = np.empty(m)
        for i in range(m):
            z[i] = yk[i] - beta @ xi[i]
        xin = np.empty((m, n))
        for i in range(m):
            xin[i] = S @ xi[i] + ones * z[i]
        delta = np.empty((m, m))
        for i in range(m):
            for j in range(m):
                delta[i, j] = Gamma @ eta[i, j]
        etan = np.empty((m, m, n))
        for i in range(m):
            for j in range(m):
                u = 0.0
                for l in range(m):
                    g = gains[k, 0, i, l]
                    if g != 0.0:
                        u += g * (delta[l, j] - delta[i, j])
                etan[i, j] = S @ eta[i, j] + ones * u
            etan[i, i] = etan[i, i] + ones * z[i]
        for r in range(1, rounds):
            for i in range(m):
                for j in range(m):
                    delta[i, j] = Gamma @ etan[i, j]
            upd = np.zeros((m, m))
            for i in range(m):
                for l in range(m):
                    g = gains[k, r, i, l]
                    if g != 0.0:
                        for j in range(m):
                            upd[i, j] += g * (delta[l, j] - delta[i, j])
            for i in range(m):
                for j in range(m):
                    etan[i, j] = etan[i, j] + ones * upd[i, j]
        eta = etan
        xi = xin
        for i in range(m):
            acc = np.zeros(n)
            for j in range(m):
                if replace_own and j == i:
                    acc += F[j] @ (xi[i] / m)
                else:
                    acc += F[j] @ eta[i, j]
            xbreve[k + 1, i] = m * acc
        xhat[k + 1] = Acl @ xhat[k] + K @ yk
        x[k + 1] = xk
        y[k + 1] = yk
    return x, y, xhat, xbreve, xi, eta


def sim_alg2_loops(A, C, Acl, K, S, beta, Tb, Gamma, gains, w, v0, v, x0, replace_own, rounds):
    T = w.shape[0]
    n = A.shape[0]
    m = C.shape[0]
    x = np.zeros((T + 1, n))
    y = np.zeros((T + 1, m))
    xhat = np.zeros((T + 1, n))
    xbreve = np.zeros((T + 1, m, n))
    xi = np.zeros((m, n))
    theta = np.zeros((m, n, n))
    ones = np.ones(n)
    x[0] = x0
    y[0] = C @ x0 + v0
    for k in range(T):
        xk = A @ x[k] + w[k]
        yk = C @ xk + v[k]
        z = np.empty(m)
        for i in range(m):
            z[i] = yk[i] - beta @ xi[i]
        xin = np.empty((m, n))
        for i in range(m):
            xin[i] = S @ xi[i] + ones * z[i]
        delta = np.empty((m, n))
        for i in range(m):
            for j in range(n):
                delta[i, j] = Gamma @ theta[i, j]
        thetan = np.empty((m, n, n))
        for i in range(m):
            for j in range(n):
                u = 0.0
                for l in range(m):
                    g = gains[k, 0, i, l]
                    if g != 0.0:
                        u += g * (delta[l, j] - delta[i, j])
                thetan[i, j] = S @ theta[i, j] + Tb[i, j] * z[i] + ones * u
        for r in range(1, rounds):
            for i in range(m):
                for j in range(n):
                    delta[i, j] = Gamma @ thetan[i, j]
            upd = np.zeros((m, n))
            for i in range(m):
                for l in range(m):
                    g = gains[k, r, i, l]
                    if g != 0.0:
                        for j in range(n):
                            upd[i, j] += g * (delta[l, j] - delta[i, j])
            for i in range(m):
                for j in range(n):
                    thetan[i, j] = thetan[i, j] + ones * upd[i, j]
        theta = thetan
        xi = xin
        for i in range(m):
            for j in range(n):
                xbreve[k + 1, i, j] = m * (beta @ theta[i, j])
        xhat[k + 1] = Acl @ xhat[k] + K @ yk
        x[k + 1] = xk
        y[k + 1] = yk
    return x, y, xhat, xbreve, xi, theta


def isolated_nodes(model, design, bundle, rng, horizon, x0):
    """``sim_alg1_loops`` with every link cut, so that node i estimates
    m F_i xi_i and the node average is sum_i F_i xi_i.  The plant noise is
    drawn from ``rng`` in the order of a plant stepped one sample at a
    time: w(k), then v(k), then w(k+1)."""
    n, m = model.n, model.m
    Lq, Lr = psd_factor(model.Q), psd_factor(model.R)
    z = rng.standard_normal((horizon, n + m))
    return sim_alg1_loops(model.A, model.C, design.Acl, design.K, bundle.S, bundle.beta,
                          bundle.F, np.zeros(n), np.zeros((horizon, 1, m, m)), z[:, :n] @ Lq.T,
                          np.zeros(m), z[:, n:] @ Lr.T, x0, False, 1)


def lossless_residual(bundle, model, design, horizon, seed):
    """Largest ||sum_i F_i xi_i(k) - xhat(k)|| / (1 + ||xhat(k)||) over
    the horizon, from zero states, with plant noise from default_rng(seed)."""
    _, _, xhat, xbreve, _, _ = isolated_nodes(
        model, design, bundle, np.random.default_rng(seed), horizon, np.zeros(model.n))
    size = 1.0 + np.linalg.norm(xhat, axis=1)
    return float(np.max(np.linalg.norm(xbreve.mean(axis=1) - xhat, axis=1) / size))
