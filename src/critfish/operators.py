"""Operator matrices for the three Hilbert-space families.

* truncated Fock space of a single bosonic mode,
* collective spin in the maximal-spin (Dicke) basis j = N/2,
* rings of spin-1/2 sites built from Pauli matrices (periodic closure).

Diagonal operators are held as their diagonal.  Every other matrix is a
read-only ``linalg.Sectors``.  The Fock and Dicke ones respect the
parity of the index and are built as its even and odd chains.  The
ring's respect the popcount parity and commute with translation and
with the reflection of the ring, so they are built in a real basis of
lattice momentum, one dense block per (parity, momentum) pair, split by
the reflection into two equal blocks wherever k and -k differ (Sandvik,
arXiv:1101.3281, sec. 4), from orbit arithmetic and never through a
2^N-row matrix.  Constructors are pure and their outputs are safe to
share between workers; the ring's last one is kept and handed out
again.  Spin conventions differ deliberately
between the two spin families: collective operators are half-integer spin
(a single spin gives +-1/2) while the ring uses bare Pauli matrices
(eigenvalues +-1), matching how each Hamiltonian is written.  The two
are never mixed.
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension
from .linalg import Sectors

# the blocks of 14 sites hold up to 596 rows (2.8 MB each) and take
# under a second to build; past that the dense blocks' O(rows^3) solves,
# each 0.7 s at 14 sites, and the vectors they keep set the limit
CHAIN_MAX_SITES = 14


@dataclass(frozen=True)
class FockOps:
    """Ladder-derived operators on the truncated space |0> .. |n_max-1>.

    ``num`` is the number operator's diagonal n.  ``x2`` holds, as the
    even and odd index chains, the exact matrix elements of
    (a + a^dag)^2 restricted to the truncation: diagonal 2n+1, plus
    (n, n+2) couplings sqrt((n+1)(n+2)).
    Squaring the truncated (a + a^dag) instead would zero out the ladder
    traffic through the cut and corrupt the top diagonal entry; with the
    exact elements the truncation error enters only through the missing
    levels themselves.  No annihilation matrix is kept: the model needs only
    these two, and at n_max = 2048 a dense one is 32 MB per build.
    """

    n_max: int
    num: np.ndarray
    x2: Sectors


def _index_chains(diagonal, off):
    """The even and odd index chains of the matrix with ``off[i]`` coupling rows i and i + 2."""
    rows = [np.arange(start, diagonal.size, 2) for start in range(min(2, diagonal.size))]
    return Sectors(rows, [(diagonal[r], off[r[:-1]]) for r in rows])


def make_fock_ops(n_max):
    if n_max < 2:
        raise InvalidDimension(f"need n_max >= 2, got {n_max}")
    n = np.arange(n_max, dtype=float)
    off = np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0))
    return FockOps(n_max=int(n_max), num=n, x2=_index_chains(2.0 * n + 1.0, off))


@dataclass(frozen=True)
class DickeOps:
    """Collective spin operators in the j = N/2 sector, dimension N + 1.

    Basis ordered by magnetization m = -N/2 .. +N/2, so ``sz`` is the
    ascending diagonal m of Sz.  Sx is tridiagonal with
    <m+1|Sx|m> = r_m / 2, r_m = sqrt(j(j+1) - m(m+1)), so ``sx2`` = Sx^2
    has (r_(m-1)^2 + r_m^2) / 4 on its diagonal and r_m r_(m+1) / 4 at
    offsets +-2.  It is held in closed form as the even and odd index
    chains; no (N+1)-row matrix is formed.
    """

    N: int
    sz: np.ndarray
    sx2: Sectors

    @property
    def dim(self):
        return self.N + 1


def make_dicke_ops(N):
    if N < 1:
        raise InvalidDimension(f"need N >= 1, got {N}")
    j = N / 2.0
    m = np.arange(N + 1, dtype=float) - j
    raising = np.sqrt(j * (j + 1.0) - m[:-1] * (m[:-1] + 1.0))
    square = raising ** 2 / 4.0
    diagonal = np.append(square, 0.0) + np.append(0.0, square)
    return DickeOps(N=int(N), sz=m, sx2=_index_chains(diagonal, raising[:-1] * raising[1:] / 4.0))


@dataclass(frozen=True)
class ChainOps:
    """Pauli sums over a ring of N spin-1/2 sites, dimension 2^N, in a real momentum basis.

    Site 1 is the leftmost Kronecker factor, the most significant bit of a
    computational state, the translation T moves every site one place
    along the ring (site n to n + 1, site N to 1), and the reflection R
    takes site n to N + 1 - n.  Each orbit {T^r a : r < R} of T, with
    ``a`` its smallest state and R its period, and each j = 0 .. N // 2
    with j R = 0 (mod N), give the normalized real columns
    c_a = sum_r cos(k r) |T^r a> and, for 0 < 2j < N, s_a = sum_r
    sin(k r) |T^r a>, k = 2 pi j / N.  At j = 0 and N/2 row i of every
    operator here is the column c_a.  At 0 < 2j < N the rows are the
    reflection-even combinations e of those columns and their twins J e,
    J = (T - T^-1) / (2 sin k) turning each (c_a, s_a) pair by 90 degrees
    (c_a to s_a, s_a to -c_a).  With R a = T^l b, b the ``partner``
    orbit: an orbit its own partner gives e = cos(kl/2) c_a + sin(kl/2)
    s_a, and a pair a < b of orbits gives (c_a + R c_a) / sqrt 2 and, the
    ``sine`` row, (s_a + R s_a) / sqrt 2.  These 2^N rows are
    orthonormal; ``representative[i]`` is the a of row i, ``momentum[i]``
    its j, ``partner[i]`` the b, ``sine[i]`` whether it is built on s_a
    and ``twin[i]`` whether it is J e.

    Each row lies inside one popcount, so ``sz_total``, the diagonal of
    sum sigma_z, is N - 2 popcount(a) per row.  ``xx_pbc`` holds the N
    bond terms sigma_x^n sigma_x^(n+1) with site N+1 identified with site
    1, and ``sx2`` is (sum_n sigma_x^n / 2)^2.  Both commute with T, R and
    the popcount parity, so they are Sectors over the blocks of rows that
    share (parity, j), parity 0 first and j ascending within each.  At
    0 < 2j < N that block is two: its even rows, in ascending order of
    (a, sine), then their twins in the same order.  J commutes with both
    operators and R anticommutes with J, so the two hold the same matrix,
    stored once.  A block at j = 0 or N/2 lists its orbits in ascending
    order of ``a``.  Every array is read-only.
    """

    N: int
    sz_total: np.ndarray
    xx_pbc: Sectors
    sx2: Sectors
    representative: np.ndarray
    momentum: np.ndarray
    partner: np.ndarray
    sine: np.ndarray
    twin: np.ndarray

    @property
    def dim(self):
        return 2 ** self.N


def _bit_of_site(N, site):
    # site 1 is the leftmost kron factor, i.e. the most significant bit
    return 1 << (N - site)


def _unit_circle(N):
    """cos and sin of 2 pi q / N for q = 0 .. N-1.

    Both are read off the first quadrant, so the values the circle's
    symmetries equate are equal bits (cos at q, N - q and, negated,
    N/2 - q), and the zeros at multiples of pi/2 are exact.
    """
    q = np.arange(N)
    t = np.minimum(q, N - q)  # the angle folded into [0, pi]
    u = np.minimum(2 * t, N - 2 * t)  # and its distance pi u / N from 0 or pi
    cos = np.where(4 * t <= N, 1.0, -1.0) * np.sin(np.pi * (N - 2 * u) / (2 * N))
    sin = np.where(2 * q <= N, 1.0, -1.0) * np.sin(np.pi * u / N)
    return cos, sin


def _orbits(N):
    """Per state s: its orbit's representative b, the shift l with s = T^l b, and its period."""
    states = np.arange(2 ** N)
    back = np.empty((N + 1, states.size), dtype=states.dtype)  # back[r] = T^-r s, back[N] = s
    back[0] = states
    for r in range(1, N + 1):
        back[r] = ((back[r - 1] << 1) & (states.size - 1)) | (back[r - 1] >> (N - 1))
    return back[:N].min(axis=0), back[:N].argmin(axis=0), (back[1:] == states).argmax(axis=0) + 1


def _momentum_block(N, members, j, orbits, circle, flips):
    """One (parity, j) block of diagonal * I + weight * sum_mask X_mask, X_mask flipping the bits of mask.

    ``members`` are the representatives of the block's orbits and
    ``flips`` is (masks, weight, diagonal).  The flips commute with T, so
    X_mask T^r |a> = T^(r + l) |b> for the image a ^ mask = T^l b gives
    <b, k| X |a, k> = exp(-i k l) sqrt(R_a / R_b) between the normalized
    momentum states |a, k> = sum_r exp(i k r) T^r |a> / sqrt(R_a); in the
    cosine and sine rows that turns the (cos, sin) pair by k l.  Every
    entry is a sum of such terms in a fixed order, with no BLAS call.
    """
    rep, shift, period = orbits
    masks, weight, diagonal = flips
    position = np.full(rep.size, -1)
    position[members] = np.arange(members.size)
    images = members[:, None] ^ masks[None, :]
    source = np.repeat(np.arange(members.size), masks.size)
    target, turn = position[rep[images]].ravel(), (j * shift[images].ravel()) % N
    keep = target >= 0  # the image's orbit also carries momentum j
    source, target, turn = source[keep], target[keep], turn[keep]
    scale = weight * np.sqrt(period[members[source]] / period[members[target]])
    cos, sin = scale * circle[0][turn], scale * circle[1][turn]
    if 0 < 2 * j < N:  # orbit i has its cosine row 2i and its sine row 2i + 1
        rows = np.concatenate([2 * target, 2 * target + 1, 2 * target, 2 * target + 1])
        cols = np.concatenate([2 * source, 2 * source, 2 * source + 1, 2 * source + 1])
        entries, n = np.concatenate([cos, sin, -sin, cos]), 2 * members.size
    else:
        rows, cols, entries, n = target, source, cos, members.size
    # bincount gives integers when no entry is left
    block = np.bincount(rows * n + cols, entries, minlength=n * n).astype(float, copy=False).reshape(n, n)
    block.flat[:: n + 1] += diagonal
    return block


def _reflect(N, states):
    """The reflection R (site n to N + 1 - n) on computational states: their N bits reversed."""
    return sum(((states >> n) & 1) << (N - 1 - n) for n in range(N))


def _even_rows(N, members, j, orbits):
    """The reflection-even rows E of a (parity, j) block with 0 < 2j < N, on its cosine and sine rows.

    Orbit p of ``members`` has its cosine row c at 2p and its sine row s
    at 2p + 1.  R a = T^l b for the representatives a, b maps c_a and s_a
    to cos(kl) c_b + sin(kl) s_b and sin(kl) c_b - cos(kl) s_b.  An orbit
    with b = a gives the one even row cos(kl/2) c_a + sin(kl/2) s_a; a
    pair of orbits, listed at its smaller representative a, gives the two
    (c_a + R c_a) / sqrt 2 and (s_a + R s_a) / sqrt 2.  Returns
    (representative a, partner b, sine, index, weight) per even row in
    ascending order of (a, sine): even row i is
    sum_t weight[i, t] * row index[i, t], t = 0, 1, 2.
    """
    rep, shift, _ = orbits
    image = _reflect(N, members)
    partner, p = rep[image], np.arange(members.size)
    alone, first = partner == members, partner > members
    a, b, c = p[alone], p[first], np.searchsorted(members, partner[first])
    cos_h, sin_h = (part[(j * shift[image[alone]]) % (2 * N)] for part in _unit_circle(2 * N))
    cos, sin = (np.sqrt(0.5) * part[(j * shift[image[first]]) % N] for part in _unit_circle(N))
    root = np.full(b.size, np.sqrt(0.5))
    index = np.concatenate([np.stack([2 * a, 2 * a + 1, 2 * a], axis=1),
                            np.stack([2 * b, 2 * c, 2 * c + 1], axis=1),
                            np.stack([2 * b + 1, 2 * c, 2 * c + 1], axis=1)])
    weight = np.concatenate([np.stack([cos_h, sin_h, np.zeros(a.size)], axis=1),
                             np.stack([root, cos, sin], axis=1),
                             np.stack([root, sin, -cos], axis=1)])
    listed = np.concatenate([a, b, b])
    sine = np.arange(listed.size) >= a.size + b.size
    order = np.lexsort((sine, listed))
    return members[listed][order], partner[listed][order], sine[order], index[order], weight[order]


def _reflection_even(block, index, weight):
    """E^T B^T E for the block B over the cosine and sine rows and the even rows E of ``_even_rows``.

    That is E^T B E up to roundoff, B being symmetric.  It is formed by
    two gathers of rows, each a three-term sum in a fixed order, with no
    BLAS call.
    """
    half = np.ascontiguousarray(sum(weight[:, t, None] * block[index[:, t]] for t in range(3)).T)
    return sum(weight[:, t, None] * half[index[:, t]] for t in range(3))


@functools.lru_cache(maxsize=1)
def _ring(N):
    """The ChainOps of an N-site ring; kept for the last N, as every array of it is read-only."""
    orbits = _orbits(N)
    rep, _, period = orbits
    reps = np.flatnonzero(rep == np.arange(rep.size))
    popcount = sum((reps >> n) & 1 for n in range(N))
    circle = _unit_circle(N)
    bit = [_bit_of_site(N, site) for site in range(1, N + 1)]
    bonds = (np.array([bit[n] ^ bit[(n + 1) % N] for n in range(N)]), 1.0, 0.0)
    pairs = (np.array([bit[a] ^ bit[b] for a in range(N) for b in range(a + 1, N)], dtype=int), 0.5, N / 4.0)
    record, xx, sx2 = [], [], []
    for parity in (0, 1):
        for j in range(N // 2 + 1):
            members = reps[(popcount % 2 == parity) & (j * period[reps] % N == 0)]
            if members.size == 0:
                continue
            blocks = [_momentum_block(N, members, j, orbits, circle, flips) for flips in (bonds, pairs)]
            if 0 < 2 * j < N:  # the even rows, then their twins J e over the same matrices
                members, partner, sine, index, weight = _even_rows(N, members, j, orbits)
                blocks, twins = [_reflection_even(block, index, weight) for block in blocks], (False, True)
            else:
                partner, sine, twins = rep[_reflect(N, members)], np.zeros(members.size, bool), (False,)
            for twin in twins:
                record.append((members, np.full(members.size, j), partner, sine, np.full(members.size, twin)))
                xx.append(blocks[0])
                sx2.append(blocks[1])
    representative, momentum, partner, sine, twin = (np.concatenate(column) for column in zip(*record))
    rows = np.split(np.arange(representative.size), np.cumsum([block.shape[0] for block in xx])[:-1])
    sz_total = N - 2.0 * sum((representative >> n) & 1 for n in range(N))
    for array in (representative, momentum, partner, sine, twin, sz_total):
        array.flags.writeable = False
    xx_pbc = Sectors(rows, xx)
    return ChainOps(N=N, sz_total=sz_total, xx_pbc=xx_pbc, sx2=Sectors(xx_pbc.rows, sx2),
                    representative=representative, momentum=momentum, partner=partner, sine=sine, twin=twin)


def make_chain_ops(N):
    if not 1 <= N <= CHAIN_MAX_SITES:
        raise InvalidDimension(
            f"need 1 <= N <= {CHAIN_MAX_SITES} for dense momentum blocks, got {N}"
        )
    if N == 2:
        warnings.warn(
            "periodic 2-site ring: the single bond appears twice in xx_pbc",
            stacklevel=2,
        )
    return _ring(int(N))
