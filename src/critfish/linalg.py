"""Real-symmetric linear algebra on dense arrays and bands.

Every operator in this package has real matrix elements in its chosen
basis, so matrices are float64 ndarrays or bands, symmetry is exact
by construction and no complex arithmetic appears anywhere.
Functions are pure and outputs never alias inputs, which makes all of
this safe to call from parallel sweep workers.

``eigh`` diagonalizes each connected block of a matrix on its own.
Every model Hamiltonian conserves a Z2 parity, and so do its Gibbs
states and the measured squares, so their matrices fall apart into two
parity sectors with exactly zero couplings between them, and the two
half-size solves cost about a quarter of one dense solve.  A row with no
off-diagonal entry (as in a pure or underflowed Gibbs state) is an
eigenvector as it stands and needs no solve.

The oscillator and collective-spin Hamiltonians and their measured
squares are held as a ``Banded``: a main diagonal plus one off-diagonal
at offsets +-2, never an n x n array.  Each of their parity blocks is an
unreduced symmetric tridiagonal matrix in its own row order, so ``eigh``
reads a band's blocks off in O(n), as the residue chains mod k cut
wherever the off-diagonal is zero.  A chain with at least
_STEVD_MIN_ROWS rows goes to LAPACK's tridiagonal divide and conquer
``?stevd``, which is handed only its two diagonals; a shorter chain goes
to ``?syevd`` on its dense block.  A dense matrix is split into the
connected components of its exact nonzero pattern, and every block goes
to the divide-and-conquer ``?syevd`` through ``numpy.linalg.eigh``.  On
a tridiagonal block ``?syevd``'s Householder reduction meets nothing to
eliminate (every reflector has tau = 0), so it hands the same diagonals
to the same ``?stedc`` call: a band and its dense matrix get the same
bits, and ``?stevd`` skips the O(n^3) reduction.

All BLAS and LAPACK work here goes through numpy's own OpenBLAS.  scipy
ships a second OpenBLAS with its own thread pool, and switching between
the two pools (numpy matmuls, scipy solves) left their spinning threads
contending for the same cores.  ``?stevd``, which numpy does not wrap,
is called through ``ctypes`` in the OpenBLAS that numpy bundles and has
already loaded.  The library is looked up at the first block that needs
it; where it cannot be found (another numpy build, another platform)
every chain goes through ``?syevd`` and the results are the same.  The
same handle lets a sweep worker cap its BLAS threads
(``limit_blas_threads``).
"""

import ctypes
import functools
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DiagonalizationFailed, DimMismatch, InvalidMatrix, NotPSD

# negative eigenvalues above -PSD_CLAMP_RTOL * ||M|| count as roundoff
PSD_CLAMP_RTOL = 1e-10
_LABEL_ROWS = 64  # rows per read in the component search
# smallest block sent to ?stevd, measured on toy parity blocks (2 vCPUs):
# at 32 rows the check and ctypes call took 0.12-0.14 ms against numpy's
# 0.09-0.10 ms, near 48 rows the two were level, and at 64 rows they took
# 0.27-0.32 ms against 0.40-0.52 ms
_STEVD_MIN_ROWS = 64
_c_int = ctypes.c_int64  # the library's LAPACK integer (ILP64)
_int_p = ctypes.POINTER(_c_int)
_float_p = ctypes.POINTER(ctypes.c_double)


@functools.cache
def _openblas():
    """ctypes handle on the OpenBLAS numpy has loaded, or None when it is not found."""
    package = Path(np.__file__).parent
    # the wheels keep it next to the package (Linux, Windows) or inside it (macOS)
    for folder in (package.parent / "numpy.libs", package / ".dylibs"):
        for path in sorted(folder.glob("libscipy_openblas64_*")):
            try:
                lib = ctypes.CDLL(str(path))
                stevd, set_threads = lib.scipy_dstevd_64_, lib.scipy_openblas_set_num_threads64_
            except (OSError, AttributeError):
                continue
            # JOBZ, N, D, E, Z, LDZ, WORK, LWORK, IWORK, LIWORK, INFO, len(JOBZ)
            stevd.argtypes = [ctypes.c_char_p, _int_p, _float_p, _float_p, _float_p, _int_p,
                              _float_p, _int_p, _int_p, _int_p, _int_p, ctypes.c_size_t]
            stevd.restype = None
            set_threads.argtypes = [ctypes.c_int]
            set_threads.restype = None
            return lib
    return None


def limit_blas_threads(count):
    """Cap this process's BLAS thread pool at ``count`` threads.

    Does nothing where numpy's OpenBLAS cannot be found.
    """
    lib = _openblas()
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(count)


def _DSYEVD(a):
    """LAPACK's ?syevd on a symmetric block: (eigenvalues, eigenvectors, info)."""
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError:
        return None, None, 1
    return vals, vecs, 0


def _DSTEVD(diagonal, offdiagonal):
    """LAPACK's ?stevd on a symmetric tridiagonal block: (eigenvalues, eigenvectors, info).

    Returns None where numpy's OpenBLAS cannot be found.
    """
    lib = _openblas()
    if lib is None:
        return None
    n = diagonal.size
    # every buffer is a fresh float64 (or LAPACK-integer) array in the
    # layout LAPACK expects, and stays referenced here until the call returns
    vals = np.array(diagonal, dtype=np.float64)  # overwritten with the eigenvalues
    work_e = np.zeros(n)  # E holds n - 1 entries and is overwritten
    work_e[:-1] = offdiagonal
    vecs = np.empty((n, n), order="F")
    work = np.empty(1 + 4 * n + n * n)
    iwork = np.empty(3 + 5 * n, dtype=_c_int)
    info = _c_int()

    def ref(value):
        return ctypes.byref(_c_int(value))

    def ptr(array, kind=_float_p):
        return array.ctypes.data_as(kind)

    lib.scipy_dstevd_64_(b"V", ref(n), ptr(vals), ptr(work_e), ptr(vecs), ref(n), ptr(work),
                         ref(work.size), ptr(iwork, _int_p), ref(iwork.size), ctypes.byref(info), 1)
    return vals, vecs, info.value


def symmetrize(entries):
    """Return the exactly symmetric part (A + A.T) / 2 of a square matrix.

    Raises InvalidMatrix for non-square shapes and for entries that are
    non-finite or whose sum overflows.  Every input entry reaches the
    result, so checking the result alone catches non-finite input too.
    """
    a = np.asarray(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        sym = a + a.T  # a new array, so the result never aliases the input
        sym /= 2.0
    if not np.all(np.isfinite(sym)):
        raise InvalidMatrix("matrix has non-finite entries or overflows when symmetrized")
    return sym


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a real symmetric matrix.

    eigenvalues are ascending; eigenvectors[:, k] is the orthonormal
    eigenvector of eigenvalues[k], with the largest-magnitude component
    of each column made positive so repeated runs give identical output.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self):
        return int(self.eigenvalues.shape[0])


def _dense(diagonal, off, k):
    """The n x n matrix with ``diagonal`` on its main diagonal and ``off`` at offsets +-k."""
    n = diagonal.size
    dense = np.zeros((n, n))
    flat = dense.reshape(-1)  # a view: entry (i, j) sits at i * n + j
    flat[:: n + 1] = diagonal
    flat[k:(n - k) * n:n + 1] = off
    flat[k * n::n + 1] = off
    return dense


@dataclass(frozen=True, eq=False)
class Banded:
    """Symmetric matrix with a main diagonal and one off-diagonal at offsets +-k.

    ``off[i]`` couples rows i and i + k, so it holds n - k entries (none
    when n <= k).  Both arrays are copied as read-only float64.
    ``np.asarray`` gives the dense matrix; ``eigh`` solves the band
    without forming it.
    """

    diagonal: np.ndarray
    off: np.ndarray
    k: int = 1

    def __post_init__(self):
        object.__setattr__(self, "k", operator.index(self.k))
        for name in ("diagonal", "off"):
            array = np.array(getattr(self, name), dtype=np.float64)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        n = self.diagonal.size
        if self.diagonal.ndim != 1 or n < 1 or self.k < 1 or self.off.shape != (max(n - self.k, 0),):
            raise InvalidMatrix(
                f"band needs a non-empty diagonal and n - k off-diagonal entries, got "
                f"{self.diagonal.shape}, {self.off.shape} at k={self.k}"
            )

    @property
    def shape(self):
        return (self.diagonal.size, self.diagonal.size)

    def __len__(self):
        return self.diagonal.size

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a band has no dense storage to share")
        dense = _dense(self.diagonal, self.off, self.k)
        return dense if dtype is None else dense.astype(dtype, copy=False)


def _component_labels(m):
    """Label every row of m with the smallest row index of its component.

    Components are those of the graph whose edges are the exact nonzero
    entries of the (exactly symmetric) matrix.  Each round gives every
    row the smallest label among itself and its neighbours.  A round
    that changes nothing ends the search, since neighbours then share a
    label; otherwise each label jumps to its label's label until every
    chain reaches its root, so a path of any length settles in one round
    and one more confirms it.  Rows are read _LABEL_ROWS at a time, so
    no n x n temporary is formed.
    """
    n = m.shape[0]
    jumps = range(max(n - 1, 1).bit_length())
    labels = np.arange(n)
    while True:
        low = np.empty_like(labels)
        for lo in range(0, n, _LABEL_ROWS):
            rows = slice(lo, lo + _LABEL_ROWS)
            low[rows] = np.where(m[rows] != 0.0, labels, labels[rows, None]).min(axis=1)
        if (low == labels).all():
            return labels
        for _ in jumps:
            low = low[low]
        labels = low


def _sign_fixed(idx, solved):
    """(idx, eigenvalues, eigenvectors) of one solved block, checked and sign-fixed."""
    vals, vecs, info = solved
    if info != 0:
        raise DiagonalizationFailed(f"LAPACK failed with info={info} on a block of size {idx.size}")
    vecs *= np.copysign(1.0, vecs[np.abs(vecs).argmax(axis=0), np.arange(idx.size)])
    # ?stevd's vectors are column-major; the scatter in eigh reads rows far faster
    return idx, vals, np.ascontiguousarray(vecs)


def _dense_blocks(matrix):
    """Isolated rows, their diagonal and the solved connected blocks of a dense matrix."""
    m = symmetrize(matrix)
    n = m.shape[0]
    labels = _component_labels(m)
    sizes = np.bincount(labels, minlength=n)
    isolated = (sizes[labels] == 1).nonzero()[0]
    blocks = []
    for root in (sizes > 1).nonzero()[0]:
        idx = (labels == root).nonzero()[0]
        blocks.append(_sign_fixed(idx, _DSYEVD(m if idx.size == n else m[idx[:, None], idx])))
    return isolated, m[isolated, isolated], blocks


def _band_chains(band):
    """Isolated rows and the row chains of a band's connected blocks, ordered by first row.

    Row i couples only to i - k and i + k, so the blocks are the residue
    classes mod k, cut wherever the off-diagonal entry is exactly zero.
    """
    n, k = len(band), band.k
    # positions along each residue class where a chain starts or ends
    edges = [[0] for _ in range(min(k, n))]
    for cut in np.flatnonzero(band.off == 0.0).tolist():  # rows cut and cut + k are not linked
        edges[cut % k].append(cut // k + 1)
    isolated, chains = [], []
    for start, bounds in enumerate(edges):
        bounds.append(len(range(start, n, k)))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi - lo == 1:
                isolated.append(start + lo * k)
            else:
                chains.append((start + lo * k, np.arange(start + lo * k, start + hi * k, k)))
    chains.sort(key=lambda chain: chain[0])
    return np.array(sorted(isolated), dtype=np.intp), [rows for _, rows in chains]


def _solve_chain(diagonal, off):
    """(eigenvalues, eigenvectors, info) of an unreduced tridiagonal block.

    A block of at least _STEVD_MIN_ROWS rows goes to ?stevd; a smaller
    one, or any block where numpy's OpenBLAS is not found, to ?syevd on
    the dense block.
    """
    solved = _DSTEVD(diagonal, off) if diagonal.size >= _STEVD_MIN_ROWS else None
    return _DSYEVD(_dense(diagonal, off, 1)) if solved is None else solved


def _band_blocks(band):
    """Isolated rows, their diagonal and the solved blocks of a band, found in O(n)."""
    if not (np.isfinite(band.diagonal).all() and np.isfinite(band.off).all()):
        raise InvalidMatrix("band has non-finite entries")
    isolated, chains = _band_chains(band)
    blocks = [_sign_fixed(idx, _solve_chain(band.diagonal[idx], band.off[idx[:-1]])) for idx in chains]
    return isolated, band.diagonal[isolated], blocks


def eigh(matrix):
    """Full eigendecomposition of a symmetric matrix with fixed signs.

    ``matrix`` is a dense array or a Banded.  Each connected block is
    diagonalized on its own and its vectors are sign-fixed; rows with no
    off-diagonal entry are their own eigenvectors and need no solve.  A
    band's blocks are its chains, solved by ?stevd once large enough;
    a dense matrix's blocks are the components of its exact nonzero
    pattern, solved by ?syevd (see the module docstring).  The blocks'
    eigenvalues are merged by a stable sort, so every eigenvector is
    supported in exactly one block.  Raises InvalidMatrix for non-finite
    entries and DiagonalizationFailed when the solver does not converge.
    """
    isolated, diagonal, blocks = (_band_blocks if isinstance(matrix, Banded) else _dense_blocks)(matrix)
    n = isolated.size + sum(idx.size for idx, _, _ in blocks)
    merged = np.concatenate([diagonal] + [vals for _, vals, _ in blocks])
    order = np.argsort(merged, kind="stable")
    column = order.argsort()  # output column of each entry of merged
    eigenvalues = merged[order]
    eigenvectors = np.zeros((n, n))
    eigenvectors[isolated, column[: isolated.size]] = 1.0
    start = isolated.size
    for idx, _, vecs in blocks:
        eigenvectors[idx[:, None], column[start:start + idx.size]] = vecs
        start += idx.size
    eigenvalues.flags.writeable = False
    eigenvectors.flags.writeable = False
    return Spectrum(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def _root_columns(density):
    """R = V sqrt(lambda) with rho = R R^T, for a unit-trace PSD matrix rho.

    Eigenvalues in [-PSD_CLAMP_RTOL * ||rho||, 0) are roundoff (Gibbs
    states are PSD analytically) and are clamped to zero; more negative
    ones raise NotPSD.
    """
    tr = float(np.trace(density))
    if abs(tr - 1.0) > 1e-9:
        raise InvalidMatrix(f"density matrix trace {tr!r} is not 1")
    spec = eigh(density)
    vals = spec.eigenvalues
    floor = -PSD_CLAMP_RTOL * float(np.max(np.abs(vals)))
    if vals[0] < floor:
        raise NotPSD(f"eigenvalue {vals[0]:.6e} below roundoff floor {floor:.6e}")
    return spec.eigenvectors * np.sqrt(np.clip(vals, 0.0, None))


def _root_fidelity(a, b):
    """sqrt F of the states a a^T and b b^T (a = V sqrt(p) for a Gibbs state): ||a^T b||_1."""
    try:
        singulars = np.linalg.svd(a.T @ b, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise DiagonalizationFailed(f"fidelity: {exc}") from exc
    return float(np.sum(singulars))


def fidelity(rho, sigma):
    """Uhlmann fidelity of two density matrices, clamped to [0, 1].

    Equals [tr sqrt(sqrt(rho) sigma sqrt(rho))]^2.  With rho = V diag(l) V^T
    and sigma = W diag(m) W^T, sqrt F = ||sqrt(rho) sqrt(sigma)||_1 is the
    nuclear norm of (V sqrt(l))^T (W sqrt(m)), as the orthogonal V and W
    drop out; no matrix root is formed (Uhlmann, Rep. Math. Phys. 9, 273,
    1976; Jozsa, J. Mod. Opt. 41, 2315, 1994).  Symmetric in its
    arguments to ~1e-10.
    """
    r = np.asarray(rho, dtype=float)
    s = np.asarray(sigma, dtype=float)
    if r.shape != s.shape:
        raise DimMismatch(f"density-matrix shapes differ: {r.shape} vs {s.shape}")
    return min(_root_fidelity(_root_columns(r), _root_columns(s)) ** 2, 1.0)
