"""The ring's Pauli sums by Kronecker products, and the basis change a ``ChainOps`` records."""

import numpy as np

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])


def kron_chain(N, ops_by_site):
    out = np.ones((1, 1))
    for site in range(1, N + 1):
        out = np.kron(out, ops_by_site.get(site, np.eye(2)))
    return out


def kron_sums(N):
    """(sum sigma_z, sum sigma_x, sum sigma_x^n sigma_x^(n+1)) in the computational basis, site N+1 = site 1."""
    sz = sum(kron_chain(N, {n: SZ}) for n in range(1, N + 1))
    sx = sum(kron_chain(N, {n: SX}) for n in range(1, N + 1))
    xx = np.zeros((2 ** N, 2 ** N))
    for n in range(1, N + 1):
        m = n % N + 1
        xx += kron_chain(N, {n: SX @ SX}) if m == n else kron_chain(N, {n: SX, m: SX})
    return sz, sx, xx


def translate(N, state):
    """T on a computational state: site n moves to n + 1 (one bit towards the least significant), site N to 1."""
    return (state >> 1) | ((state & 1) << (N - 1))


def ring_basis(ops):
    """U, column i the basis state of row i of ``ops``, rebuilt from its record in the computational basis.

    Column i is cos (or sin) of 2 pi j r / N on the states T^r a of the
    orbit of a = ``ops.representative[i]``, normalized; so an operator S
    of ``ops`` is U S U^T in the computational basis.
    """
    N = ops.N
    u = np.zeros((ops.dim, ops.dim))
    for i, (a, j, sine) in enumerate(zip(ops.representative.tolist(), ops.momentum, ops.sine)):
        state, r = a, 0
        while r == 0 or state != a:
            u[state, i] = (np.sin if sine else np.cos)(2.0 * np.pi * j * r / N)
            state, r = translate(N, state), r + 1
        u[:, i] /= np.linalg.norm(u[:, i])
    return u


def momentum_groups(ops):
    """The row groups of ``ops`` sharing (popcount parity of the representative, j), sorted as rows lists."""
    parity = np.array([bin(a).count("1") % 2 for a in ops.representative.tolist()])
    labels = sorted(set(zip(parity.tolist(), ops.momentum.tolist())))
    return sorted(np.flatnonzero((parity == p) & (ops.momentum == j)).tolist() for p, j in labels)
