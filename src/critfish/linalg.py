"""Real-symmetric linear algebra on dense arrays and symmetry sectors.

Every operator in this package has real matrix elements in its chosen
basis, so matrices are float64 ndarrays or ``Sectors``, symmetry is
exact by construction and no complex arithmetic appears anywhere.
Functions are pure and outputs never alias inputs, which makes all of
this safe to call from parallel sweep workers.

Every model Hamiltonian conserves a Z2 parity that its diagonal
generator respects, and so do its Gibbs states and the measured
squares; the ring conserves its lattice momentum and reflection too.
Their matrices are block diagonal over row sets known before any number
is computed, so the operators are built as ``Sectors``, never as an
n x n array: one block per parity sector, and on the ring one per
(parity, momentum) pair, its rows the real translation-adapted basis of
``operators.ChainOps``.  Where the momenta k and -k differ, that pair
is two twin blocks, the reflection-even rows and their images, that
hold one matrix.  ``eigh`` solves each block on its own: two half-size
solves cost about a quarter of one dense solve, and the ring's 2N
blocks of about 2^N / 2N rows far less.  A dense block equal entry for
entry to the block before it (a twin) is stored as that same array
(``Sectors``), and ``eigh`` hands it the eigenpairs it found for that
array, the bits a second ?syevd of it would give; so the ring's H, its
Gibbs states and the measured square each solve one block of every
twin pair.  A plain ndarray is one block: it gets one ?syevd.  The
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
(``limit_blas_threads``).  Each routine is looked up on its own, so a
library that lacks one still serves the others.

A cold Gibbs state weighs a few dozen of thousands of levels, so
``eigh`` takes an energy window.  A dense block whose levels all lie
past it is left out whole; the rest are solved completely.  Dense
blocks are solved in ascending order of a lower bound on each one's
lowest level (a floor, -inf unless the caller gives floors) until the
next floor lies past the window's end, and the blocks from there on are
never solved.  Without floors a long chain solves only its levels
within the window of the lowest one, by bisection (``?stebz``) and
inverse iteration (``?stein``), at O(n) per level; a caller that gives
floors gets every chain whole.  A Sturm count at the window's edge
(``?larrc``, one O(n) pass) sizes each chain's bisection before it
starts, and sends a chain whose window holds too many levels to
``?stevd`` before any level but its lowest and highest is bisected.
The levels a chain leaves out are still reachable through its
resolvent, one tridiagonal solve (``?gtsv``) per level (``fisher``).
"""

import bisect
import ctypes
import functools
import itertools
import math
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
# shortest chain a window solves in part; a shorter one is solved whole
_WINDOW_MIN_ROWS = 256
# a windowed chain solves at most 1/_WINDOW_SHARE of its levels, measured
# on toy chains (2 vCPUs): ?stebz and ?stein take about 0.5 us per row and
# level, ?stevd about 50 ns per row squared (50 ms at 1024 rows), so the
# two are level near 1/10 of the levels; a chain whose Sturm count at the
# window's edge asks for more goes to ?stevd before any level past its
# lowest is bisected
_WINDOW_SHARE = 16
# |E_i - E_j| below this * max |E| counts as degenerate
DEGENERACY_RTOL = 1e-10
_c_int = ctypes.c_int64  # the library's LAPACK integer (ILP64)
_int_p = ctypes.POINTER(_c_int)
_float_p = ctypes.POINTER(ctypes.c_double)
_c_char = ctypes.c_char_p
_size = ctypes.c_size_t
# each LAPACK hook: its symbol in the library and its arguments (every
# Fortran argument by reference, then the length of each character one)
_HOOKS = {
    # JOBZ, N, D, E, Z, LDZ, WORK, LWORK, IWORK, LIWORK, INFO, len(JOBZ)
    "stevd": ("scipy_dstevd_64_", [_c_char, _int_p, _float_p, _float_p, _float_p, _int_p,
                                   _float_p, _int_p, _int_p, _int_p, _int_p, _size]),
    # RANGE, ORDER, N, VL, VU, IL, IU, ABSTOL, D, E, M, NSPLIT, W, IBLOCK,
    # ISPLIT, WORK, IWORK, INFO, len(RANGE), len(ORDER)
    "stebz": ("scipy_dstebz_64_", [_c_char, _c_char, _int_p, _float_p, _float_p, _int_p, _int_p,
                                   _float_p, _float_p, _float_p, _int_p, _int_p, _float_p, _int_p,
                                   _int_p, _float_p, _int_p, _int_p, _size, _size]),
    # N, D, E, M, W, IBLOCK, ISPLIT, Z, LDZ, WORK, IWORK, IFAIL, INFO
    "stein": ("scipy_dstein_64_", [_int_p, _float_p, _float_p, _int_p, _float_p, _int_p, _int_p,
                                   _float_p, _int_p, _float_p, _int_p, _int_p, _int_p]),
    # JOBT, N, VL, VU, D, E, PIVMIN, EIGCNT, LCNT, RCNT, INFO, len(JOBT)
    "larrc": ("scipy_dlarrc_64_", [_c_char, _int_p, _float_p, _float_p, _float_p, _float_p, _float_p, _int_p,
                                   _int_p, _int_p, _int_p, _size]),
    # N, NRHS, DL, D, DU, B, LDB, INFO
    "gtsv": ("scipy_dgtsv_64_", [_int_p, _int_p, _float_p, _float_p, _float_p, _float_p, _int_p, _int_p]),
    "set_threads": ("scipy_openblas_set_num_threads64_", [ctypes.c_int]),
}


@functools.cache
def _openblas():
    """ctypes handle on the OpenBLAS numpy has loaded, or None when it is not found."""
    package = Path(np.__file__).parent
    # the wheels keep it next to the package (Linux, Windows) or inside it (macOS)
    for folder in (package.parent / "numpy.libs", package / ".dylibs"):
        for path in sorted(folder.glob("libscipy_openblas64_*")):
            try:
                return ctypes.CDLL(str(path))
            except OSError:
                continue
    return None


@functools.cache
def _hook(name):
    """The library function of one _HOOKS entry, typed, or None where it is not found.

    Each symbol is looked up on its own, so a library without one of them
    still serves the others.
    """
    symbol, argtypes = _HOOKS[name]
    function = getattr(_openblas(), symbol, None)
    if function is not None:
        function.argtypes, function.restype = argtypes, None
    return function


def limit_blas_threads(count):
    """Cap this process's BLAS thread pool at ``count`` threads.

    Does nothing where numpy's OpenBLAS, or its thread setter, cannot be found.
    """
    set_threads = _hook("set_threads")
    if set_threads is not None:
        set_threads(count)


def _ref(value):
    return ctypes.byref(_c_int(value))


def _ptr(array, kind=_float_p):
    """Pointer to a C-contiguous array's data; it holds the array until the call it is passed to returns."""
    return array.ctypes.data_as(kind)


def _DSYEVD(a):
    """LAPACK's ?syevd on a symmetric block: (eigenvalues, eigenvectors, info)."""
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError:
        return None, None, 1
    return vals, vecs, 0


def _DSTEVD(diagonal, offdiagonal):
    """LAPACK's ?stevd on a symmetric tridiagonal block: (eigenvalues, eigenvectors, info).

    Returns None where numpy's OpenBLAS or its ?stevd cannot be found.
    """
    stevd = _hook("stevd")
    if stevd is None:
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
    stevd(b"V", _ref(n), _ptr(vals), _ptr(work_e), _ptr(vecs), _ref(n), _ptr(work),
          _ref(work.size), _ptr(iwork, _int_p), _ref(iwork.size), ctypes.byref(info), 1)
    return vals, vecs, info.value


def _DSTEBZ(diagonal, offdiagonal, first, last):
    """LAPACK's ?stebz: levels first .. last (from 1, ascending) of a chain, by bisection.

    Returns (eigenvalues ascending, the split-off block of each, where
    each split-off block ends), or None when the bisection reports a
    failure.
    """
    n = diagonal.size
    vals = np.empty(n)
    iblock, isplit = np.empty(n, dtype=_c_int), np.empty(n, dtype=_c_int)
    found, nsplit, info = _c_int(), _c_int(), _c_int()
    unread = ctypes.c_double(0.0)  # VL and VU
    # ABSTOL at twice the underflow threshold bisects each level to its own
    # relative precision, not to eps * ||T|| (30% more steps on toy chains):
    # the gap E_1 - E_0 near g -> omega keeps ~1e-14 relative, not ~1e-11
    abstol = ctypes.c_double(2.0 * np.finfo(float).tiny)
    _hook("stebz")(b"I", b"E", _ref(n), ctypes.byref(unread), ctypes.byref(unread), _ref(first), _ref(last),
                   ctypes.byref(abstol), _ptr(np.array(diagonal, dtype=np.float64)),
                   _ptr(np.array(offdiagonal, dtype=np.float64)), ctypes.byref(found), ctypes.byref(nsplit),
                   _ptr(vals), _ptr(iblock, _int_p), _ptr(isplit, _int_p), _ptr(np.empty(4 * n)),
                   _ptr(np.empty(3 * n, dtype=_c_int), _int_p), ctypes.byref(info), 1, 1)
    if info.value != 0 or found.value != last - first + 1:
        return None
    return vals[:found.value], iblock[:found.value], isplit[:nsplit.value]


def _DLARRC(diagonal, offdiagonal, edge):
    """LAPACK's ?larrc: how many levels of a chain lie at or below ``edge``, by one Sturm count.

    One O(rows) pass of the chain's LDL^T pivots.  Roundoff may count a
    level within a few ulps of the edge on the wrong side of it.
    """
    edge = ctypes.c_double(edge)
    # the PIVMIN ?stebz takes for a chain no entry splits (JOBT "T" does not read it)
    pivmin = ctypes.c_double(np.finfo(float).tiny * max(1.0, float(np.max(np.square(offdiagonal)))))
    inside, below, below_too, info = _c_int(), _c_int(), _c_int(), _c_int()
    _hook("larrc")(b"T", _ref(diagonal.size), ctypes.byref(edge), ctypes.byref(edge),
                   _ptr(np.array(diagonal, dtype=np.float64)), _ptr(np.array(offdiagonal, dtype=np.float64)),
                   ctypes.byref(pivmin), ctypes.byref(inside), ctypes.byref(below), ctypes.byref(below_too),
                   ctypes.byref(info), 1)
    return below.value


def _DSTEIN(diagonal, offdiagonal, vals, iblock, isplit):
    """LAPACK's ?stein: (eigenvalues, eigenvectors, info) of a chain at bisected levels.

    Inverse iteration, reorthogonalized within clusters.  ?stein wants
    the levels grouped by split-off block; the columns come back in the
    ascending order of ``vals``.
    """
    n, count = diagonal.size, vals.size
    order = np.argsort(iblock, kind="stable")  # vals ascend, so each block's share ascends too
    vecs = np.empty((n, count), order="F")
    info = _c_int()
    _hook("stein")(_ref(n), _ptr(np.array(diagonal, dtype=np.float64)),
                   _ptr(np.array(offdiagonal, dtype=np.float64)), _ref(count), _ptr(np.array(vals[order])),
                   _ptr(np.array(iblock[order]), _int_p), _ptr(np.array(isplit), _int_p), _ptr(vecs), _ref(n),
                   _ptr(np.empty(5 * n)), _ptr(np.empty(n, dtype=_c_int), _int_p),
                   _ptr(np.empty(count, dtype=_c_int), _int_p), ctypes.byref(info))
    ascending = np.empty((n, count))
    ascending[:, order] = vecs
    return np.array(vals), ascending, info.value


def _DGTSV(diagonal, offdiagonal, shift, rhs):
    """LAPACK's ?gtsv: x with (T - shift) x = rhs for the chain T, by LU with partial pivoting.

    Returns (x, info); info > 0 marks an exactly singular pivot.
    """
    n = diagonal.size
    x = np.array(rhs, dtype=np.float64)
    info = _c_int()
    _hook("gtsv")(_ref(n), _ref(1), _ptr(np.array(offdiagonal, dtype=np.float64)),
                  _ptr(diagonal - shift), _ptr(np.array(offdiagonal, dtype=np.float64)), _ptr(x), _ref(n),
                  ctypes.byref(info))
    return x, info.value


def _symmetric_part(entries):
    """The exactly symmetric part (A + A.T) / 2 of a square matrix, under an error state that ignores overflow.

    Raises InvalidMatrix for non-square shapes and for entries that are
    non-finite or whose sum overflows.  Every input entry reaches the
    result, so checking the result alone catches non-finite input too.
    """
    a = np.asarray(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    sym = a + a.T  # a new array, so the result never aliases the input
    sym /= 2.0
    if not np.isfinite(sym).all():
        raise InvalidMatrix("matrix has non-finite entries or overflows when symmetrized")
    return sym


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a real symmetric matrix, kept in its solved blocks.

    ``eigenvalues`` holds the solved levels in ascending order: all n of
    them, unless ``eigh`` was given a window.  ``blocks`` holds one
    read-only ``(rows, levels, vectors)`` per block of the matrix:
    ``vectors[:, k]`` is the orthonormal eigenvector of level
    ``levels[k]`` on the rows ``rows``, zero on every other row, with its
    largest-magnitude component positive so repeated runs give identical
    output.  Each block's levels ascend, and together the blocks cover
    the rows once and the solved levels once.  No n x n eigenvector
    matrix is held.  A block may hold no level at all: a dense block a
    window left out whole, or a zero block (``Sectors``).

    A spectrum whose chains a window left partly unsolved also keeps
    ``highest``, the matrix's largest eigenvalue, and ``matrix``, the
    Sectors it was solved from, so that the unsolved levels of a chain
    can still be reached through its resolvent.  Both are None when
    every chain is solved completely, even where dense blocks were left
    out: every level of such a block lies past the window, so no
    resolvent is needed for it, and ``energy_scale`` is then that of the
    solved levels.
    """

    eigenvalues: np.ndarray
    blocks: tuple
    highest: float = None
    matrix: object = None

    @property
    def dim(self):
        """The dimension n of the matrix, solved levels or not."""
        return sum(int(rows.size) for rows, _, _ in self.blocks)

    @property
    def complete(self):
        return self.eigenvalues.shape[0] == self.dim

    @property
    def energy_scale(self):
        """max(1, max |E|) over every level of the matrix, the scale of the relative tolerances."""
        top = self.eigenvalues[-1] if self.highest is None else self.highest
        return max(1.0, abs(float(self.eigenvalues[0])), abs(float(top)))


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
    (rows[b][i], rows[b][j]).  A block is a ``(diagonal, off)`` tuple,
    the tridiagonal chain whose ``off[i]`` couples its rows i and i + 1;
    a dense square array, which is stored exactly symmetrized; or None,
    a zero block, to which ``eigh`` gives no eigenpair (a Gibbs state's
    block with no solved level, ``thermal.density_matrix``).  A dense
    block equal entry for entry to the dense block before it is stored
    as that same array, which ``eigh`` solves once.  Every block array
    is copied read-only, as is every row list but a read-only 1-D intp
    array that owns its data (another Sectors' rows), which is kept as
    it is; non-finite entries raise InvalidMatrix.
    ``np.asarray`` gives the dense matrix; ``eigh`` solves the blocks
    without forming it.
    """

    rows: tuple
    blocks: tuple

    def __post_init__(self):
        rows = tuple(r if isinstance(r, np.ndarray) and r.dtype == np.intp and r.ndim == 1 and r.flags.owndata
                     and not r.flags.writeable else np.array(r, dtype=np.intp) for r in self.rows)
        if (not rows or len(rows) != len(self.blocks) or any(r.ndim != 1 or r.size < 1 for r in rows)
                or not np.array_equal(np.sort(np.concatenate(rows)), np.arange(sum(r.size for r in rows)))):
            raise InvalidMatrix("need one non-empty row list per block, together covering 0 .. n-1 once")
        blocks = []
        with np.errstate(over="ignore", invalid="ignore"):  # for _symmetric_part
            for b, (r, block) in enumerate(zip(rows, self.blocks)):
                r.flags.writeable = False
                if block is None:
                    blocks.append(None)
                    continue
                chain = isinstance(block, tuple)
                if (b and not chain and isinstance(blocks[-1], np.ndarray) and r.size == rows[b - 1].size
                        and (block is self.blocks[b - 1] or np.array_equal(block, self.blocks[b - 1]))):
                    blocks.append(blocks[-1])  # a twin of the block before it: the same array
                    continue
                parts = [np.array(a, dtype=np.float64) for a in block] if chain else [_symmetric_part(block)]
                layout = [a.shape for a in parts]
                if layout != ([(r.size,), (r.size - 1,)] if chain else [(r.size, r.size)]):
                    raise InvalidMatrix(f"a block of {r.size} rows has the layout {layout}")
                if chain and not all(np.isfinite(a).all() for a in parts):  # _symmetric_part checks a dense one
                    raise InvalidMatrix("chain has non-finite entries")
                for array in parts:
                    array.flags.writeable = False
                blocks.append(tuple(parts) if chain else parts[0])
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "blocks", tuple(blocks))

    @classmethod
    def _checked(cls, rows, blocks):
        """A Sectors of parts that already meet every rule above, taken as they are.

        For ``rows`` of a Sectors and blocks that are read-only, finite and
        exactly symmetric, an equal consecutive dense block being the same
        array; nothing is checked or copied.
        """
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "rows", rows)
        object.__setattr__(matrix, "blocks", tuple(blocks))
        return matrix

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
            if block is not None:
                dense[np.ix_(r, r)] = _dense(*block) if isinstance(block, tuple) else block
        return dense if dtype is None else dense.astype(dtype, copy=False)


def _sign_fixed(idx, solved):
    """(eigenvalues, eigenvectors) of one solved block, checked, sign-fixed and read-only."""
    vals, vecs, info = solved
    if info != 0:
        raise DiagonalizationFailed(f"LAPACK failed with info={info} on a block of size {idx.size}")
    vecs *= np.copysign(1.0, vecs[abs(vecs).argmax(axis=0), np.arange(vecs.shape[1])])
    vecs.setflags(write=False)
    return vals, vecs


def _solve_chain(diagonal, off):
    """(eigenvalues, eigenvectors, info) of a tridiagonal block.

    A block of at least _STEVD_MIN_ROWS rows goes to ?stevd; a smaller
    one, or any block where numpy's OpenBLAS is not found, to ?syevd on
    the dense block.
    """
    solved = _DSTEVD(diagonal, off) if diagonal.size >= _STEVD_MIN_ROWS else None
    return _DSYEVD(_dense(diagonal, off)) if solved is None else solved


# the levels of every spectrum block that holds none
_NO_LEVELS = np.empty(0, dtype=np.intp)
_NO_LEVELS.setflags(write=False)


@functools.cache
def _no_level(rows):
    """(eigenvalues, eigenvectors) of a block of ``rows`` rows that holds no solved level: both empty, read-only."""
    vals, vecs = np.empty(0), np.empty((rows, 0))
    vals.flags.writeable = vecs.flags.writeable = False
    return vals, vecs


def _solve_block(idx, block):
    """(eigenvalues, eigenvectors) of every level of one block of a Sectors, sign-fixed; none for a zero block."""
    if block is None:
        return _no_level(idx.size)
    return _sign_fixed(idx, _solve_chain(*block) if isinstance(block, tuple) else _DSYEVD(block))


def _twins(matrix):
    """Per block of a Sectors, whether it is the block before it (a dense block stored once for both)."""
    blocks = matrix.blocks
    return [b > 0 and block is not None and block is blocks[b - 1] for b, block in enumerate(blocks)]


def _window_end(levels, edge, tol, bound=math.inf, head=None):
    """Last level of the kept prefix of the levels seen, or None when it is not among them.

    ``levels`` holds ascending arrays (the levels of each solved block or
    bisected chain).  A level is seen if it lies at or below ``bound`` and
    below ``head``; ``head``, where given, is seen after them.  The prefix
    runs through the degenerate group (consecutive gaps <= tol) of the
    first level seen above ``edge``, and its end needs the next level seen.
    Only that group and the level after it are read, as Python floats, in
    one ascending merge of the arrays from their first level past the
    edge: no array is copied or sorted.
    """
    ahead = {}  # per array with a level left past the edge: (that level, its index)
    for source, values in enumerate(levels):
        start = bisect.bisect_right(values, edge)
        if start < len(values):
            ahead[source] = (float(values[start]), start)
    previous = None
    while ahead:
        source = min(ahead, key=ahead.get)
        value, at = ahead[source]
        if value > bound or (head is not None and value >= head):
            break
        if previous is not None and value - previous > tol:
            return previous
        previous, values = value, levels[source]
        if at + 1 < len(values):
            ahead[source] = (float(values[at + 1]), at + 1)
        else:
            del ahead[source]
    if head is not None and previous is not None and head - previous > tol:
        return previous
    return None


def _windowed(matrix, window, floors):
    """eigh's (eigenvalues, eigenvectors) per block within ``window``, and the highest level.

    Long chains are bisected only without ``floors``, which are then -inf
    for every block.  The highest level is None unless a chain was left
    partly unsolved.  A dense block left out whole gets no eigenpair.
    """
    chains, solved, lows, tops, queue = {}, {}, [], [], []
    windowable = floors is None and all(_hook(name) is not None for name in ("stebz", "stein", "gtsv", "larrc"))
    floors = [-math.inf] * len(matrix.blocks) if floors is None else floors
    twins = _twins(matrix)
    for b, (idx, block) in enumerate(zip(matrix.rows, matrix.blocks)):
        chain = isinstance(block, tuple)
        if windowable and chain and idx.size >= _WINDOW_MIN_ROWS:
            low, top = _DSTEBZ(*block, 1, 1), _DSTEBZ(*block, idx.size, idx.size)
            if low is not None and top is not None:
                chains[b] = low
                lows.append(float(low[0][0]))
                tops.append(float(top[0][0]))
                continue
        if block is not None and not twins[b]:
            queue.append((-math.inf if chain else floors[b], b))  # a chain not bisected is solved whole, first
    queue.sort()
    while True:
        # the end lies past the edge E_0 + window: a block whose floor is within the edge is solved without it
        if not queue or (lows and queue[0][0] > min(lows) + window):
            cut = None
            if lows:
                lowest = min(lows)
                tol = DEGENERACY_RTOL * max(1.0, abs(lowest), *map(abs, tops))
                # every level below the lowest last bisected level is known; given floors (so no chain
                # bisected), every level not yet seen lies at or above the head's
                bound, b = min([(float(vals[-1]), b) for b, (vals, _, _) in chains.items()], default=(math.inf, 0))
                cut = _window_end([part[0] for part in (*chains.values(), *solved.values())], lowest + window, tol,
                                  bound, queue[0][0] if queue else None)
            if cut is None and chains:
                bisected, block = chains[b][0].size, matrix.blocks[b]
                # the count only sizes the request: a miscount costs one more bisection, never a level kept
                want = max(_DLARRC(*block, lowest + window) + 1, bisected + 1)
                more = None if want > matrix.rows[b].size / _WINDOW_SHARE else _DSTEBZ(*block, bisected + 1, want)
                if more is None:  # too large a share of the chain, or a failed bisection
                    solved[b] = _solve_block(matrix.rows[b], block)
                    del chains[b]
                else:
                    chains[b] = (*(np.concatenate(pair) for pair in zip(chains[b], more[:2])), more[2])
                continue
            # every block still queued has its lowest level past the end, and so can move neither it nor E_0
            if not queue or (cut is not None and queue[0][0] > cut + tol):
                break
        b = queue.pop(0)[1]
        solved[b] = _solve_block(matrix.rows[b], matrix.blocks[b])
        lows.append(float(solved[b][0][0]))
        tops.append(float(solved[b][0][-1]))
    for b in [b for b in solved if isinstance(matrix.blocks[b], np.ndarray)]:
        if cut is not None and solved[b][0][0] > cut:  # a dense block whose lowest level lies past the end
            del solved[b]
    for b, (vals, iblock, isplit) in chains.items():
        keep = vals <= cut
        solved[b] = _sign_fixed(matrix.rows[b], _DSTEIN(*matrix.blocks[b], vals[keep], iblock[keep], isplit))
    results = []
    for b, idx in enumerate(matrix.rows):
        if b not in solved:
            solved[b] = solved[b - 1] if twins[b] else _no_level(idx.size)
        results.append(solved[b])
    return results, (max(tops) if chains else None)


def eigh(matrix, window=None, *, floors=None):
    """Eigendecomposition of a symmetric matrix, block by block, with fixed signs.

    ``matrix`` is a Sectors or a dense array.  Each block of a Sectors
    is solved on its own (a chain by ?stevd once large enough, a dense
    block by ?syevd; see the module docstring) and its vectors are
    sign-fixed; a dense block stored as the same array as the block
    before it (a twin) takes that block's eigenpairs, and a zero block
    (None) gets none.  A dense array is symmetrized and solved as one
    block.  The blocks' eigenvalues are merged by a stable sort into the
    global levels, and each block keeps its own rows, levels and vectors
    in ``Spectrum.blocks``.  Raises InvalidMatrix for non-finite entries
    and DiagonalizationFailed when the solver does not converge.

    With a ``window`` >= 0 the spectrum keeps every level up to the end
    of the degenerate group (DEGENERACY_RTOL * max |E|) of the first
    level more than ``window`` above the matrix's lowest level, so it
    ends on a group boundary and holds at least one level past the
    window.  Blocks beyond that are left out or cut short:

    * A dense block whose lowest level lies past the end of that group
      is left out whole and holds no level; every other dense block is
      solved completely, to the bits of an unwindowed solve.  ``floors``
      holds one value per block of the matrix, at or below that block's
      lowest level (-inf where none is known; the values of chains and
      zero blocks are not read), and is -inf for every block when not
      given.  Dense blocks are solved in ascending order of their floors
      while the floor lies within the window of the lowest level known,
      or at or below the end known so far plus the degeneracy
      tolerance, or no end is known yet; the end is known once a level
      seen, or the next floor, lies more than the tolerance past its
      group.  The first block past that
      stops the visits, as every block not yet solved then has all its
      levels past the end and can move neither it nor E_0; a solved
      block whose lowest level lies past the final end is dropped.  So
      without floors every dense block is solved and those past the end
      are dropped.  A floor above its block's lowest level may leave out
      a block the window holds.
    * A call with ``floors`` solves every chain completely: the Gibbs
      states of the finite-difference rungs pass floors from the
      spectrum at the ladder's centre (``fisher``), and so keep their
      chains' states the unwindowed ones bit for bit.  Without floors,
      as on the oscillator's truncation ladder
      (``models.toy_converged_truncation``), a chain of at least
      _WINDOW_MIN_ROWS rows solves only its lowest levels.  Bisection
      (?stebz) first finds its lowest and its highest level; the
      highest makes the tolerance scale max |E| that of the full
      spectrum.  Once every other block is solved and the end is not
      yet known, the chain whose last bisected level is lowest counts
      its levels at or below the window's edge, E_0 + window, by one
      Sturm count (?larrc), and bisects up to that count plus one, or
      one level more than it holds where that is more.  A chain whose
      request would pass 1/_WINDOW_SHARE of its levels, or whose
      bisection fails, is solved completely by ?stevd instead.  The
      count only sizes the request: the levels kept are still those the
      rule above picks from the levels bisected, and inverse iteration
      (?stein) gives their vectors.  A shorter chain is solved
      completely too, as are all chains where the library lacks ?stebz,
      ?stein, ?larrc or the ?gtsv that reaches the unsolved levels
      (``fisher``).
    """
    if not isinstance(matrix, Sectors):
        dense = np.asarray(matrix, dtype=float)
        # one block of all rows; Sectors checks and symmetrizes it
        matrix = Sectors([np.arange(dense.shape[0] if dense.ndim else 0)], [dense])
    if window is None:
        solved, highest = [], None
        for idx, block, twin in zip(matrix.rows, matrix.blocks, _twins(matrix)):
            solved.append(solved[-1] if twin else _solve_block(idx, block))
    elif window >= 0:
        if floors is not None and len(floors) != len(matrix.blocks):
            raise ValueError(f"need one floor per block: {len(floors)} for {len(matrix.blocks)} blocks")
        solved, highest = _windowed(matrix, float(window), floors)
    else:
        raise ValueError(f"window must be >= 0, got {window}")
    merged = np.concatenate([vals for vals, _ in solved if vals.size] or [np.empty(0)])
    order = merged.argsort(kind="stable")
    level = order.argsort()  # the global level of each entry of merged
    eigenvalues = merged[order]
    eigenvalues.setflags(write=False)
    level.setflags(write=False)
    ends = itertools.accumulate(vals.size for vals, _ in solved)
    # read-only views, and one shared empty array for every block with no level
    levels = [level[end - vals.size:end] if vals.size else _NO_LEVELS for (vals, _), end in zip(solved, ends)]
    blocks = tuple(zip(matrix.rows, levels, [vecs for _, vecs in solved]))
    return Spectrum(eigenvalues, blocks, highest, None if highest is None else matrix)


def _same_rows(matrix, rows):
    """Whether ``matrix`` is a Sectors over exactly ``rows``, block for block."""
    return isinstance(matrix, Sectors) and len(matrix.rows) == len(rows) and all(
        r is other or r.tolist() == other.tolist() for r, other in zip(matrix.rows, rows))


def _root_columns(density):
    """R_b = V_b sqrt(lambda_b) per block, with rho = sum_b R_b R_b^T, for a unit-trace PSD rho.

    Eigenvalues in [-PSD_CLAMP_RTOL * ||rho||, 0) are roundoff (Gibbs
    states are PSD analytically) and are clamped to zero; more negative
    ones raise NotPSD.  A zero block (None) has no root column: its
    (rows, 0) vectors are returned as they are.
    """
    spec = eigh(density)
    vals = spec.eigenvalues
    tr = float(vals.sum())
    if abs(tr - 1.0) > 1e-9:
        raise InvalidMatrix(f"density matrix trace {tr!r} is not 1")
    floor = -PSD_CLAMP_RTOL * float(abs(vals).max())
    if vals[0] < floor:
        raise NotPSD(f"eigenvalue {vals[0]:.6e} below roundoff floor {floor:.6e}")
    roots = np.sqrt(vals.clip(0.0, None))
    return [vecs * roots[levels] if levels.size else vecs for _, levels, vecs in spec.blocks]


def _root_fidelity(a, b):
    """sqrt F of the states a a^T and b b^T (a = V sqrt(p) for a Gibbs state): ||a^T b||_1.

    A zero block on either side (no root column) adds nothing.
    """
    if not (a.shape[1] and b.shape[1]):
        return 0.0
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
