"""Real-symmetric linear algebra on dense arrays and parity sectors.

Every operator in this package has real matrix elements in its chosen
basis, so matrices are float64 ndarrays or ``Sectors``, symmetry is
exact by construction and no complex arithmetic appears anywhere.
Functions are pure and outputs never alias inputs, which makes all of
this safe to call from parallel sweep workers.

Every model Hamiltonian conserves a Z2 parity that its diagonal
generator respects, and so do its Gibbs states and the measured
squares.  Their matrices are block diagonal over row sets known before
any number is computed, so the operators are built as ``Sectors``: one
block per parity sector, never an n x n array.  ``eigh`` solves each
block on its own, and two half-size solves cost about a quarter of one
dense solve.  A plain ndarray is one block: it gets one ?syevd.  The
eigenpairs stay in their blocks (``Spectrum.blocks``), so no n x n
eigenvector matrix, half of it zeros, is formed either, and every
consumer works block by block.

The oscillator and collective-spin blocks are unreduced symmetric
tridiagonal chains, held as their two diagonals.  A chain with at least
_STEVD_MIN_ROWS rows goes to LAPACK's tridiagonal divide and conquer
``?stevd``; a shorter chain, and every dense block, goes to the
divide-and-conquer ``?syevd`` through ``numpy.linalg.eigh``.  On a
tridiagonal block ``?syevd``'s Householder reduction meets nothing to
eliminate (every reflector has tau = 0), so it hands the same diagonals
to the same ``?stedc`` call: a chain and its dense block get the same
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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DiagonalizationFailed, DimMismatch, InvalidMatrix, NotPSD

# negative eigenvalues above -PSD_CLAMP_RTOL * ||M|| count as roundoff
PSD_CLAMP_RTOL = 1e-10
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
    """Eigendecomposition of a real symmetric matrix, kept in its solved blocks.

    ``eigenvalues`` holds all n levels in ascending order.  ``blocks``
    holds one read-only ``(rows, levels, vectors)`` per solved block:
    ``vectors[:, k]`` is the orthonormal eigenvector of level
    ``levels[k]`` on the rows ``rows``, zero on every other row, with its
    largest-magnitude component positive so repeated runs give identical
    output.  Each block's levels ascend, and together the blocks cover
    the rows and the levels 0 .. n-1 once.  No n x n eigenvector matrix
    is held.
    """

    eigenvalues: np.ndarray
    blocks: tuple

    @property
    def dim(self):
        return int(self.eigenvalues.shape[0])


def _dense(diagonal, off):
    """The square tridiagonal matrix with ``diagonal`` and ``off`` at offsets +-1."""
    n = diagonal.size
    dense = np.zeros((n, n))
    flat = dense.reshape(-1)  # a view: entry (i, j) sits at i * n + j
    flat[:: n + 1] = diagonal
    flat[1:(n - 1) * n:n + 1] = off
    flat[n::n + 1] = off
    return dense


@dataclass(frozen=True, eq=False)
class Sectors:
    """Symmetric n x n matrix that is block diagonal over disjoint row sets.

    ``rows[b]`` lists the rows of block b, which together cover 0 .. n-1
    once; entry (i, j) of block b is the matrix entry
    (rows[b][i], rows[b][j]).  A block is either a ``(diagonal, off)``
    tuple, the tridiagonal chain whose ``off[i]`` couples its rows i and
    i + 1, or a dense square array, which is stored exactly symmetrized.
    Every array is copied read-only, and non-finite entries raise
    InvalidMatrix.  ``np.asarray`` gives the dense matrix; ``eigh``
    solves the blocks without forming it.
    """

    rows: tuple
    blocks: tuple

    def __post_init__(self):
        rows = tuple(np.array(r, dtype=np.intp) for r in self.rows)
        if (not rows or len(rows) != len(self.blocks) or any(r.ndim != 1 or r.size < 1 for r in rows)
                or not np.array_equal(np.sort(np.concatenate(rows)), np.arange(sum(r.size for r in rows)))):
            raise InvalidMatrix("need one non-empty row list per block, together covering 0 .. n-1 once")
        blocks = []
        for r, block in zip(rows, self.blocks):
            chain = isinstance(block, tuple)
            parts = [np.array(a, dtype=np.float64) for a in block] if chain else [symmetrize(block)]
            layout = [a.shape for a in parts]
            if layout != ([(r.size,), (r.size - 1,)] if chain else [(r.size, r.size)]):
                raise InvalidMatrix(f"a block of {r.size} rows has the layout {layout}")
            if chain and not all(np.isfinite(a).all() for a in parts):  # symmetrize checks a dense one
                raise InvalidMatrix("chain has non-finite entries")
            for array in (r, *parts):
                array.flags.writeable = False
            blocks.append(tuple(parts) if chain else parts[0])
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "blocks", tuple(blocks))

    @property
    def shape(self):
        return (len(self), len(self))

    def __len__(self):
        return sum(r.size for r in self.rows)

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a Sectors matrix has no dense storage to share")
        dense = np.zeros(self.shape)
        for r, block in zip(self.rows, self.blocks):
            dense[np.ix_(r, r)] = _dense(*block) if isinstance(block, tuple) else block
        return dense if dtype is None else dense.astype(dtype, copy=False)


def _sign_fixed(idx, solved):
    """(eigenvalues, eigenvectors) of one solved block, checked, sign-fixed and read-only."""
    vals, vecs, info = solved
    if info != 0:
        raise DiagonalizationFailed(f"LAPACK failed with info={info} on a block of size {idx.size}")
    vecs *= np.copysign(1.0, vecs[np.abs(vecs).argmax(axis=0), np.arange(idx.size)])
    vecs.flags.writeable = False
    return vals, vecs


def _solve_chain(diagonal, off):
    """(eigenvalues, eigenvectors, info) of a tridiagonal block.

    A block of at least _STEVD_MIN_ROWS rows goes to ?stevd; a smaller
    one, or any block where numpy's OpenBLAS is not found, to ?syevd on
    the dense block.
    """
    solved = _DSTEVD(diagonal, off) if diagonal.size >= _STEVD_MIN_ROWS else None
    return _DSYEVD(_dense(diagonal, off)) if solved is None else solved


def eigh(matrix):
    """Full eigendecomposition of a symmetric matrix, block by block, with fixed signs.

    ``matrix`` is a Sectors or a dense array.  Each block of a Sectors
    is solved on its own (a chain by ?stevd once large enough, a dense
    block by ?syevd; see the module docstring) and its vectors are
    sign-fixed; a dense array is symmetrized and solved as one block.
    The blocks' eigenvalues are merged by a stable sort into the global
    levels, and each block keeps its own rows, levels and vectors in
    ``Spectrum.blocks``.  Raises InvalidMatrix for non-finite entries and
    DiagonalizationFailed when the solver does not converge.
    """
    if not isinstance(matrix, Sectors):
        dense = np.asarray(matrix, dtype=float)
        # one block of all rows; Sectors checks and symmetrizes it
        matrix = Sectors([np.arange(dense.shape[0] if dense.ndim else 0)], [dense])
    solved = [
        _sign_fixed(idx, _solve_chain(*block) if isinstance(block, tuple) else _DSYEVD(block))
        for idx, block in zip(matrix.rows, matrix.blocks)
    ]
    merged = np.concatenate([vals for vals, _ in solved])
    order = np.argsort(merged, kind="stable")
    level = order.argsort()  # the global level of each entry of merged
    eigenvalues = merged[order]
    eigenvalues.flags.writeable = level.flags.writeable = False
    levels = np.split(level, np.cumsum([idx.size for idx in matrix.rows])[:-1])  # read-only views
    return Spectrum(eigenvalues, tuple(zip(matrix.rows, levels, [vecs for _, vecs in solved])))


def _same_rows(matrix, rows):
    """Whether ``matrix`` is a Sectors over exactly ``rows``, block for block."""
    return isinstance(matrix, Sectors) and [r.tolist() for r in matrix.rows] == [r.tolist() for r in rows]


def _root_columns(density):
    """R_b = V_b sqrt(lambda_b) per block, with rho = sum_b R_b R_b^T, for a unit-trace PSD rho.

    Eigenvalues in [-PSD_CLAMP_RTOL * ||rho||, 0) are roundoff (Gibbs
    states are PSD analytically) and are clamped to zero; more negative
    ones raise NotPSD.
    """
    spec = eigh(density)
    vals = spec.eigenvalues
    tr = float(np.sum(vals))
    if abs(tr - 1.0) > 1e-9:
        raise InvalidMatrix(f"density matrix trace {tr!r} is not 1")
    floor = -PSD_CLAMP_RTOL * float(np.max(np.abs(vals)))
    if vals[0] < floor:
        raise NotPSD(f"eigenvalue {vals[0]:.6e} below roundoff floor {floor:.6e}")
    return [vecs * np.sqrt(np.clip(vals[levels], 0.0, None)) for _, levels, vecs in spec.blocks]


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
    1976; Jozsa, J. Mod. Opt. 41, 2315, 1994).  Two Sectors over the same
    rows go to ``eigh`` as they are: that product is then block diagonal,
    and its nuclear norm is the sum of its blocks'.  Any other pair is
    diagonalized as two dense matrices of one block each.  Symmetric in
    its arguments to ~1e-10.
    """
    r, s = (m if isinstance(m, Sectors) else np.asarray(m, dtype=float) for m in (rho, sigma))
    if r.shape != s.shape:
        raise DimMismatch(f"density-matrix shapes differ: {r.shape} vs {s.shape}")
    if not (isinstance(r, Sectors) and _same_rows(s, r.rows)):
        r, s = np.asarray(r), np.asarray(s)
    return min(sum(_root_fidelity(a, b) for a, b in zip(_root_columns(r), _root_columns(s))) ** 2, 1.0)
