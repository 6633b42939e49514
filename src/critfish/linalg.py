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
twin pair.  Two maps hold that fact, and every consumer reads them:
``Sectors.layout`` for a matrix and ``Spectrum.twins`` for a spectrum.
A plain ndarray is one block: it gets one ?syevd.  The eigenpairs stay
in their blocks (``Spectrum.blocks``), so no n x n eigenvector matrix,
half of it zeros, is formed either, and every consumer works block by
block.

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
never solved.  Without floors the end closes the degenerate group past
the window; with them, the group that straddles its edge.  Without
floors a long chain solves only its levels within the window of the
lowest one, by bisection (``?stebz``) and inverse iteration
(``?stein``), at O(n) per level; a caller that gives floors gets every
chain whole.  A Sturm count at the window's edge
(``?larrc``, one O(n) pass) sizes each chain's bisection before it
starts, and sends a chain whose window holds too many levels to
``?stevd`` before any level but its lowest and highest is bisected.
The levels a chain leaves out are still reachable through its
resolvent, one tridiagonal solve (``?gtsv``) per level (``fisher``).
"""

import bisect
import ctypes
import functools
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
    window left out whole, or a zero block (``Sectors``).  ``kept``
    lists the blocks that hold a level, ascending, so that a pass over
    the solved blocks never visits the others; it is found from
    ``blocks`` where not given.

    A spectrum whose chains a window left partly unsolved also keeps
    ``highest``, the matrix's largest eigenvalue, and ``matrix``, the
    Sectors it was solved from, so that the unsolved levels of a chain
    can still be reached through its resolvent.  Both are None when
    every chain is solved completely, even where dense blocks were left
    out: every level of such a block lies past the window and past the
    degenerate group that ends it (``eigh``), so no resolvent is needed
    for it, and ``energy_scale`` is then that of the solved levels.  A
    call with floors ends at the group that straddles the window's edge,
    so its spectrum may hold no level past the window, and neither E_1
    nor the gap where E_1 lies in a block left out.
    """

    eigenvalues: np.ndarray
    blocks: tuple
    highest: float = None
    matrix: object = None
    kept: tuple = None

    def __post_init__(self):
        if self.kept is None:
            object.__setattr__(self, "kept", tuple(b for b, (_, levels, _) in enumerate(self.blocks) if levels.size))

    @functools.cached_property
    def twins(self):
        """The kept blocks whose ``vectors`` is the same array as the block before it's, as a frozenset.

        ``eigh`` hands a twin of its matrix's ``layout`` the eigenpairs of
        the block it repeats, so the layout's kept twins are these; a
        spectrum built with copies has none, and its blocks are each
        summed on their own.
        """
        blocks = self.blocks
        return frozenset(b for b in self.kept if b and blocks[b][2] is blocks[b - 1][2])

    @functools.cached_property
    def lows(self):
        """The lowest level of each block, -inf for a block that holds none, as one read-only array."""
        lows = np.full(len(self.blocks), -math.inf)
        for b in self.kept:
            lows[b] = self.eigenvalues[self.blocks[b][1][0]]
        lows.setflags(write=False)
        return lows

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
    without forming it.  ``layout`` records the kind of each block once
    (``Layout``), and ``_lazy`` makes a Sectors whose blocks are formed
    only when read.
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
    def _lazy(cls, rows, layout, form):
        """A Sectors over ``rows`` laid out as ``layout``, whose block b ``form(b)`` forms when it is first read.

        ``eigh`` reads only the blocks it solves, so it forms no twin and
        no block that a window leaves out.  Nothing else sees an unformed
        block: ``blocks[b]`` forms block b, iterating ``blocks`` (as
        ``np.asarray`` does) forms each, and a twin is the array of the
        block before it.  The blocks must meet the rules of ``_checked``.
        """
        matrix = object.__new__(cls)
        matrix.__dict__.update(rows=rows, blocks=_Formed(layout.kinds, form), layout=layout)
        return matrix

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

    @functools.cached_property
    def layout(self):
        """The ``Layout`` of the blocks, read off them once."""
        blocks = self.blocks
        return Layout.of(self.rows, [None if block is None else "twin" if b and block is blocks[b - 1]
                                     else "chain" if isinstance(block, tuple) else "dense"
                                     for b, block in enumerate(blocks)])


@dataclass(frozen=True, eq=False)
class Layout:
    """The kind of each block of a block-diagonal matrix, as ``eigh`` visits them.

    ``kinds[b]`` is "chain", "dense", "twin" (the block before it, stored
    as the same array) or None (a zero block).  ``chains`` and ``dense``
    hold the chains and the dense blocks ``eigh`` solves, ascending; a
    twin is solved with the block it repeats, and a zero block is never
    solved.  ``empty`` holds, per block, the ``Spectrum`` block of one
    that holds no level.
    """

    kinds: tuple
    chains: tuple
    dense: np.ndarray
    empty: tuple

    @classmethod
    def of(cls, rows, kinds):
        chains = tuple(b for b, kind in enumerate(kinds) if kind == "chain")
        dense = np.array([b for b, kind in enumerate(kinds) if kind == "dense"], dtype=np.intp)
        return cls(tuple(kinds), chains, dense, tuple((r, _NO_LEVELS, _no_level(r.size)[1]) for r in rows))


class _Formed:
    """The blocks of a ``Sectors._lazy``, each formed when first read: a twin is the block before it, a zero block None.

    Iterating goes through ``__getitem__`` up to the IndexError past the last block, and so forms every block;
    a negative index reads the same array as its positive one.
    """

    __slots__ = ("kinds", "form", "formed")

    def __init__(self, kinds, form):
        self.kinds, self.form, self.formed = kinds, form, {}

    def __len__(self):
        return len(self.kinds)

    def __getitem__(self, b):
        b = range(len(self.kinds))[b]
        if b not in self.formed:
            kind = self.kinds[b]
            self.formed[b] = None if kind is None else self[b - 1] if kind == "twin" else self.form(b)
        return self.formed[b]


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
    """(eigenvalues, eigenvectors) of every level of one chain or dense block of a Sectors, sign-fixed."""
    return _sign_fixed(idx, _solve_chain(*block) if isinstance(block, tuple) else _DSYEVD(block))


def _window_end(levels, edge, tol, bound=math.inf, head=None, straddle=False):
    """Last level of the kept prefix of the levels seen, or None when it is not among them.

    ``levels`` holds ascending arrays (the levels of each solved block or
    bisected chain).  A level is seen if it lies at or below ``bound`` and
    below ``head``; ``head``, where given, is seen after them.  The prefix
    runs through the degenerate group (consecutive gaps <= tol) of the
    first level seen above ``edge``, or with ``straddle`` of the highest
    level seen at or below it (the group that straddles the edge), and
    its end needs the next level seen.  Only that group and the level
    after it are read, as Python floats, in one ascending merge of the
    arrays from their first level past the edge: no array is copied or
    sorted.
    """
    if head is not None and head <= edge:
        return None  # the head is the last level seen and lies within the edge
    ahead, previous = {}, None  # per array with a level left past the edge: (that level, its index)
    for source, values in enumerate(levels):
        start = bisect.bisect_right(values, edge)
        if start < len(values):
            ahead[source] = (float(values[start]), start)
        below = bisect.bisect_right(values, bound, hi=start) if straddle else 0
        if below and (previous is None or values[below - 1] > previous):
            previous = float(values[below - 1])
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
    """eigh's (eigenvalues, eigenvectors) per solved block within ``window``, by block, and the highest level.

    Long chains are bisected only without ``floors``, which are then -inf
    for every block.  With ``floors`` the end closes the group that
    straddles the window's edge, so the next floor past that group
    closes it with no solve; without them, the group past the edge.  The
    highest level is None unless a chain was left partly unsolved.
    Neither twins nor the blocks past the window's end are read.
    """
    form, layout, rows = matrix.blocks.__getitem__, matrix.layout, matrix.rows
    windowable = floors is None and all(_hook(name) is not None for name in ("stebz", "stein", "gtsv", "larrc"))
    # bisected chains (their levels so far, and the chain), the solved blocks, the dense ones among them
    chains, solved, dense = {}, {}, []
    lowest, highest = math.inf, -math.inf  # over the lowest and the highest level of each block solved or bisected
    for b in layout.chains:
        block = form(b)
        if windowable and rows[b].size >= _WINDOW_MIN_ROWS:
            low, top = _DSTEBZ(*block, 1, 1), _DSTEBZ(*block, rows[b].size, rows[b].size)
            if low is not None and top is not None:
                chains[b] = low, block
                lowest, highest = min(lowest, float(low[0][0])), max(highest, float(top[0][0]))
                continue
        solved[b] = vals, _ = _solve_block(rows[b], block)  # a chain not bisected is solved whole, first
        lowest, highest = min(lowest, float(vals[0])), max(highest, float(vals[-1]))
    # the dense blocks in ascending order of their floors, the floors as Python floats
    order, heads = layout.dense, [-math.inf] * layout.dense.size
    if floors is not None and order.size:
        keys = np.asarray(floors, dtype=float)[order]
        rank = keys.argsort(kind="stable")
        order, heads = order[rank], keys[rank].tolist()
    heads.append(None)  # past the last block
    order, cut, visit = order.tolist(), None, 0
    while True:
        head = heads[visit]
        # a block whose floor is within the edge E_0 + window may hold a level within it, and is solved first
        if head is None or head > lowest + window:
            cut = None
            if lowest < math.inf:
                tol = DEGENERACY_RTOL * max(1.0, abs(lowest), abs(highest))
                # every level below the lowest last bisected level is known; given floors (so no chain
                # bisected), every level not yet seen lies at or above the head's
                bound, b = min([(float(part[0][-1]), b) for b, (part, _) in chains.items()], default=(math.inf, 0))
                cut = _window_end([part[0] for part, _ in chains.values()] + [vals for vals, _ in solved.values()],
                                  lowest + window, tol, bound, head, straddle=floors is not None)
            if cut is None and chains:
                (bisected, *_), block = chains[b]
                # the count only sizes the request: a miscount costs one more bisection, never a level kept
                want = max(_DLARRC(*block, lowest + window) + 1, bisected.size + 1)
                more = None if want > rows[b].size / _WINDOW_SHARE else _DSTEBZ(*block, bisected.size + 1, want)
                if more is None:  # too large a share of the chain, or a failed bisection
                    solved[b] = _solve_block(rows[b], block)
                    del chains[b]
                else:
                    chains[b] = (*(np.concatenate(pair) for pair in zip(chains[b][0], more[:2])), more[2]), block
                continue
            # every block still queued has its lowest level past the end, and so can move neither it nor E_0
            if head is None or (cut is not None and head > cut + tol):
                break
        b = order[visit]
        visit += 1
        solved[b] = vals, _ = _solve_block(rows[b], form(b))
        dense.append(b)
        if vals[0] < lowest:
            lowest = float(vals[0])
        if vals[-1] > highest:
            highest = float(vals[-1])
    if cut is not None:
        for b in dense:
            if solved[b][0][0] > cut:  # a dense block whose lowest level lies past the end
                del solved[b]
    for b, ((vals, iblock, isplit), block) in chains.items():
        keep = vals <= cut
        solved[b] = _sign_fixed(rows[b], _DSTEIN(*block, vals[keep], iblock[keep], isplit))
    return solved, (highest if chains else None)


def eigh(matrix, window=None, *, floors=None):
    """Eigendecomposition of a symmetric matrix, block by block, with fixed signs.

    ``matrix`` is a Sectors, or a dense array, symmetrized and solved as
    one block.  The blocks are visited as the Sectors' ``layout`` lists
    them, and each is read only when it is solved, so a ``Sectors._lazy``
    forms no other: a chain goes to ?stevd once long enough and a dense
    block to ?syevd (module docstring), a twin takes the eigenpairs of the
    block it repeats, the same arrays (``Spectrum.twins``), and a zero
    block gets none.  The vectors are sign-fixed, the levels merged by a
    stable sort, and each block keeps its rows, levels and vectors
    (``Spectrum``).  Raises InvalidMatrix for non-finite entries and
    DiagonalizationFailed when the solver does not converge.

    With a ``window`` >= 0 the spectrum keeps every level up to an end
    that closes a degenerate group (gaps within DEGENERACY_RTOL * max |E|):
    without ``floors`` the group of the first level past E_0 + window, so
    that E_1 is kept (the oscillator's truncation ladder hands its spectrum
    on as the cell's); with them the group that straddles E_0 + window, as
    a level past it holds no Gibbs weight the window keeps (the
    finite-difference rungs).  A dense block whose lowest level lies past
    the end holds no level, and every other block holds all its levels, to
    the bits of an unwindowed solve.  ``floors`` bounds each block's lowest
    level from below (-inf where none is known; only dense blocks' are
    read): dense blocks are solved in ascending order of their floors, and
    none whose floor lies past the end is solved, so a floor above its
    block's lowest level may leave out a block the window holds.  Given
    floors, every chain is solved whole.  Without them a chain of at least
    _WINDOW_MIN_ROWS rows solves only its levels up to the end, where the
    library has the routines for it (module docstring), and the spectrum
    keeps the matrix's ``highest`` level.

    The tests that pin each case, in ``tests/test_linalg.py`` unless named:

    * twins: ``test_an_equal_dense_block_reuses_the_eigenpairs_before_it``,
      ``test_a_twin_pair_past_the_window_is_left_out_unsolved`` and
      ``test_spectrum_twins_are_the_kept_twins_of_the_layout``;
    * the end: ``test_the_window_end_is_the_numpy_rule_over_the_levels_seen``,
      ``test_windowed_eigh_picks_the_window_end_of_the_numpy_rule`` and
      ``test_window_zero_keeps_a_split_ground_group_and_no_group_past_it``;
    * dense blocks: ``test_dense_blocks_and_short_chains_ignore_the_window``
      and ``test_windowed_ring_keeps_the_blocks_that_reach_the_window_end_with_their_bits``;
    * floors: ``test_floors_change_which_dense_blocks_are_solved_never_which_are_kept``,
      ``test_floors_keep_long_chains_whole``, and in ``tests/test_fisher.py``
      ``test_tight_floors_solve_each_kept_block_once`` and
      ``test_a_cold_rung_keeps_both_blocks_of_a_degenerate_ground_doublet``;
    * bisected chains: ``test_a_windowed_chain_bisects_at_most_one_level_past_those_it_keeps``,
      ``test_a_count_one_low_costs_a_bisection_not_a_level``,
      ``test_a_wide_window_solves_the_chains_completely`` and
      ``test_each_missing_symbol_leaves_the_others_and_the_rows``.
    """
    if not isinstance(matrix, Sectors):
        dense = np.asarray(matrix, dtype=float)
        # one block of all rows; Sectors checks and symmetrizes it
        matrix = Sectors([np.arange(dense.shape[0] if dense.ndim else 0)], [dense])
    form, layout, rows = matrix.blocks.__getitem__, matrix.layout, matrix.rows
    if window is None:
        solved, highest = {b: _solve_block(rows[b], form(b)) for b in (*layout.chains, *layout.dense.tolist())}, None
    elif window >= 0:
        if floors is not None and len(floors) != len(rows):
            raise ValueError(f"need one floor per block: {len(floors)} for {len(rows)} blocks")
        solved, highest = _windowed(matrix, float(window), floors)
    else:
        raise ValueError(f"window must be >= 0, got {window}")
    for b, kind in enumerate(layout.kinds):
        if kind == "twin" and b - 1 in solved:
            solved[b] = solved[b - 1]
    kept = sorted(b for b, (vals, _) in solved.items() if vals.size)
    merged = np.concatenate([solved[b][0] for b in kept]) if kept else np.empty(0)
    order = merged.argsort(kind="stable")
    level = order.argsort()  # the global level of each entry of merged
    eigenvalues = merged[order]
    eigenvalues.setflags(write=False)
    level.setflags(write=False)
    # the blocks that hold no level keep their shared empty arrays; the others take read-only views
    blocks, end = list(layout.empty), 0
    for b in kept:
        vals, vecs = solved[b]
        blocks[b] = rows[b], level[end:end + vals.size], vecs
        end += vals.size
    return Spectrum(eigenvalues, tuple(blocks), highest, None if highest is None else matrix, tuple(kept))


def _same_rows(matrix, rows):
    """Whether ``matrix`` is a Sectors over exactly ``rows``, block for block."""
    return isinstance(matrix, Sectors) and len(matrix.rows) == len(rows) and all(
        r is other or r.tolist() == other.tolist() for r, other in zip(matrix.rows, rows))


def _root_columns(density):
    """R_b = V_b sqrt(lambda_b) per block that holds a level, with rho = sum_b R_b R_b^T, for a unit-trace PSD rho.

    Eigenvalues in [-PSD_CLAMP_RTOL * ||rho||, 0) are roundoff (Gibbs
    states are PSD analytically) and are clamped to zero; more negative
    ones raise NotPSD.  Returns ({b: R_b} in ascending b, the spectrum's
    ``twins``); a zero block (None) has no level, and so no entry, and a
    twin, which holds the eigenpairs of the block before it, gets that
    block's R.
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
    columns = {}
    for b in spec.kept:
        _, levels, vecs = spec.blocks[b]
        columns[b] = columns[b - 1] if b in spec.twins else vecs * roots[levels]
    return columns, spec.twins


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
    and its nuclear norm is the sum of its blocks', over the blocks where
    both states hold a level; a block that is a twin in both spectra
    (``Spectrum.twins``) repeats the term of the block before it.  Any other pair is diagonalized as two dense
    matrices of one block each.  Symmetric in its arguments to ~1e-10.
    """
    r, s = (m if isinstance(m, Sectors) else np.asarray(m, dtype=float) for m in (rho, sigma))
    if r.shape != s.shape:
        raise DimMismatch(f"density-matrix shapes differ: {r.shape} vs {s.shape}")
    if not (isinstance(r, Sectors) and _same_rows(s, r.rows)):
        r, s = np.asarray(r), np.asarray(s)
    (a, a_twins), (c, c_twins) = _root_columns(r), _root_columns(s)
    terms = {}
    for b in a:
        if b in c:  # a twin on both sides repeats the term of the block before it
            terms[b] = terms[b - 1] if b in a_twins and b in c_twins else _root_fidelity(a[b], c[b])
    return min(sum(terms.values()) ** 2, 1.0)
