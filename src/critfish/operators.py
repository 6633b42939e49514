"""Operator matrices for the three Hilbert-space families.

* truncated Fock space of a single bosonic mode,
* collective spin in the maximal-spin (Dicke) basis j = N/2,
* rings of spin-1/2 sites built from Pauli matrices (periodic closure).

Diagonal operators are held as their diagonal.  Every other matrix
respects a Z2 parity (the Fock and Dicke index mod 2, the ring's
popcount mod 2) and is built in its two parity sectors as a read-only
``linalg.Sectors``.  Constructors are pure and their outputs are safe
to share between workers.  Spin conventions differ deliberately
between the two spin families: collective operators are half-integer spin
(a single spin gives +-1/2) while the ring uses bare Pauli matrices
(eigenvalues +-1), matching how each Hamiltonian is written.  The two
are never mixed.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension
from .linalg import Sectors

CHAIN_MAX_SITES = 14  # dense 2^N storage budget


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
    """Pauli sums over a ring of N spin-1/2 sites, dimension 2^N.

    Site 1 is the leftmost Kronecker factor.  ``sz_total`` is the diagonal
    N - 2 popcount(state).  ``xx_pbc`` contains N bond
    terms sigma_x^n sigma_x^(n+1) with site N+1 identified with site 1.
    ``sx2`` = (sum_n sigma_x^n / 2)^2 is N/4 on the diagonal and 1/2 per
    pair of flipped sites.  Both are written entry by entry over the
    states of even and odd popcount, each in ascending order.
    """

    N: int
    sz_total: np.ndarray
    xx_pbc: Sectors
    sx2: Sectors

    @property
    def dim(self):
        return 2 ** self.N


def _bit_of_site(N, site):
    # site 1 is the leftmost kron factor, i.e. the most significant bit
    return 1 << (N - site)


def _pair_flips(sectors, masks, weight, diagonal):
    """Sectors of diagonal * I + weight * sum_mask X_mask, X_mask flipping the bits of mask."""
    position = np.empty(sum(r.size for r in sectors), dtype=np.intp)
    for r in sectors:
        position[r] = np.arange(r.size)
    blocks = []
    for r in sectors:
        block = np.diag(np.full(r.size, diagonal))
        for mask in masks:
            block[position[r], position[r ^ mask]] += weight
        blocks.append(block)
    return Sectors(sectors, blocks)


def make_chain_ops(N):
    if not 1 <= N <= CHAIN_MAX_SITES:
        raise InvalidDimension(
            f"need 1 <= N <= {CHAIN_MAX_SITES} for dense 2^N matrices, got {N}"
        )
    if N == 2:
        warnings.warn(
            "periodic 2-site ring: the single bond appears twice in xx_pbc",
            stacklevel=2,
        )
    popcount = np.array([bin(s).count("1") for s in range(2 ** N)])
    sectors = [np.flatnonzero(popcount % 2 == parity) for parity in (0, 1)]
    bit = [_bit_of_site(N, site) for site in range(1, N + 1)]
    bonds = [bit[n] ^ bit[(n + 1) % N] for n in range(N)]
    pairs = [bit[a] ^ bit[b] for a in range(N) for b in range(a + 1, N)]
    return ChainOps(
        N=int(N),
        sz_total=(N - 2 * popcount).astype(float),
        xx_pbc=_pair_flips(sectors, bonds, 1.0, 0.0),
        sx2=_pair_flips(sectors, pairs, 0.5, N / 4.0),
    )
