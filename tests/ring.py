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


def reflect(N, state):
    """R on a computational state: site n moves to N + 1 - n, i.e. its N bits reversed."""
    return int(format(state, f"0{N}b")[::-1], 2)


def orbit_wave(N, a, wave):
    """sum_r wave(r) |T^r a> over the orbit of ``a``, as a computational vector."""
    out = np.zeros(2 ** N)
    state, r = a, 0
    while r == 0 or state != a:
        out[state] = wave(r)
        state, r = translate(N, state), r + 1
    return out


def ring_basis(ops):
    """U, column i the basis state of row i of ``ops``, rebuilt from its record in the computational basis.

    At j = 0 and N/2 column i is sum_r cos(k r) |T^r a>, normalized, for
    k = 2 pi j / N and a = ``ops.representative[i]``.  At 0 < 2j < N it is
    w + R w for an even row and, with sin for cos, w - R w for its twin,
    where w = sum_r cos(k r - phi) |T^r a>: phi is pi/2 on a sine row,
    k l / 2 for an orbit its own reflection (R a = T^l a, l the smallest)
    and 0 otherwise.  An operator S of ``ops`` is U S U^T in the
    computational basis.
    """
    N = ops.N
    mirror = np.array([reflect(N, s) for s in range(ops.dim)])  # (R v)[s] = v[R s]
    u = np.zeros((ops.dim, ops.dim))
    record = zip(ops.representative.tolist(), ops.momentum.tolist(), ops.partner.tolist(),
                 ops.sine.tolist(), ops.twin.tolist())
    for i, (a, j, partner, sine, twin) in enumerate(record):
        k = 2.0 * np.pi * j / N
        if not 0 < 2 * j < N:
            column = orbit_wave(N, a, lambda r: np.cos(k * r))
        else:
            phi = np.pi / 2 if sine else 0.0
            if partner == a:  # phi = k l / 2 for the smallest l with T^l a = R a
                state, l = a, 0
                while state != reflect(N, a):
                    state, l = translate(N, state), l + 1
                phi = k * l / 2
            wave = orbit_wave(N, a, lambda r: (np.sin if twin else np.cos)(k * r - phi))
            column = wave - wave[mirror] if twin else wave + wave[mirror]
        u[:, i] = column / np.linalg.norm(column)
    return u


def ring_groups(ops):
    """The row groups of ``ops`` sharing (popcount parity of the representative, j, twin), sorted as rows lists."""
    parity = np.array([bin(a).count("1") % 2 for a in ops.representative.tolist()])
    labels = sorted(set(zip(parity.tolist(), ops.momentum.tolist(), ops.twin.tolist())))
    return sorted(np.flatnonzero((parity == p) & (ops.momentum == j) & (ops.twin == t)).tolist()
                  for p, j, t in labels)
