"""Operator matrices for the three Hilbert-space families.

* truncated Fock space of a single bosonic mode,
* collective spin in the maximal-spin (Dicke) basis j = N/2,
* rings of spin-1/2 sites built from Pauli matrices (periodic closure).

Constructors are pure; outputs are plain float64 arrays and safe to
share between workers.  Spin conventions differ deliberately between
the two spin families: collective operators are half-integer spin
(a single spin gives +-1/2) while the ring uses bare Pauli matrices
(eigenvalues +-1), matching how each Hamiltonian is written.  The two
are never mixed.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension

CHAIN_MAX_SITES = 14  # dense 2^N storage budget


@dataclass(frozen=True)
class FockOps:
    """Ladder-derived operators on the truncated space |0> .. |n_max-1>.

    ``num`` is the number operator's diagonal n.  ``x2`` holds the exact
    matrix elements of (a + a^dag)^2 restricted to the truncation:
    diagonal 2n+1, plus (n, n+2) couplings sqrt((n+1)(n+2)).  Squaring
    the truncated (a + a^dag) instead would zero out the ladder traffic
    through the cut and corrupt the top diagonal entry; with the exact
    elements the truncation error enters only through the missing levels
    themselves.  No annihilation matrix is kept: the model needs only
    these two, and at n_max = 2048 a dense one is 32 MB per build.
    """

    n_max: int
    num: np.ndarray
    x2: np.ndarray


def make_fock_ops(n_max):
    if n_max < 2:
        raise InvalidDimension(f"need n_max >= 2, got {n_max}")
    n = np.arange(n_max, dtype=float)
    x2 = np.diag(2.0 * n + 1.0)
    if n_max > 2:
        off = np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0))
        x2 += np.diag(off, k=2) + np.diag(off, k=-2)
    return FockOps(n_max=int(n_max), num=n, x2=x2)


@dataclass(frozen=True)
class DickeOps:
    """Collective spin operators in the j = N/2 sector, dimension N + 1.

    Basis ordered by magnetization m = -N/2 .. +N/2, so ``sz`` is the
    ascending diagonal m of Sz and sx is tridiagonal with
    <m+1|Sx|m> = sqrt(j(j+1) - m(m+1)) / 2.
    """

    N: int
    sz: np.ndarray
    sx: np.ndarray
    sx2: np.ndarray

    @property
    def dim(self):
        return self.N + 1


def make_dicke_ops(N):
    if N < 1:
        raise InvalidDimension(f"need N >= 1, got {N}")
    j = N / 2.0
    m = np.arange(N + 1, dtype=float) - j
    raising = np.sqrt(j * (j + 1.0) - m[:-1] * (m[:-1] + 1.0))
    sx = (np.diag(raising, k=-1) + np.diag(raising, k=1)) / 2.0
    return DickeOps(N=int(N), sz=m, sx=sx, sx2=sx @ sx)


@dataclass(frozen=True)
class ChainOps:
    """Pauli sums over a ring of N spin-1/2 sites, dimension 2^N.

    Site 1 is the leftmost Kronecker factor.  ``sz_total`` is the diagonal
    N - 2 popcount(state).  ``xx_pbc`` contains N bond
    terms sigma_x^n sigma_x^(n+1) with site N+1 identified with site 1.
    """

    N: int
    sz_total: np.ndarray
    sx_total: np.ndarray
    xx_pbc: np.ndarray

    @property
    def dim(self):
        return 2 ** self.N


def _bit_of_site(N, site):
    # site 1 is the leftmost kron factor, i.e. the most significant bit
    return 1 << (N - site)


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
    dim = 2 ** N
    states = np.arange(dim)
    popcount = np.array([bin(s).count("1") for s in range(dim)])

    sz_total = (N - 2 * popcount).astype(float)

    sx_total = np.zeros((dim, dim))
    for site in range(1, N + 1):
        sx_total[states, states ^ _bit_of_site(N, site)] += 1.0

    xx_pbc = np.zeros((dim, dim))
    for site in range(1, N + 1):
        neighbor = site % N + 1
        flips = _bit_of_site(N, site) ^ _bit_of_site(N, neighbor)
        xx_pbc[states, states ^ flips] += 1.0

    return ChainOps(N=int(N), sz_total=sz_total, sx_total=sx_total, xx_pbc=xx_pbc)
