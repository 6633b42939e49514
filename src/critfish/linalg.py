"""Dense real-symmetric linear algebra.

Every operator in this package has real matrix elements in its chosen
basis, so matrices are plain float64 ndarrays, symmetry is enforced
exactly at construction and no complex arithmetic appears anywhere.
Functions are pure and outputs never alias inputs, which makes all of
this safe to call from parallel sweep workers.

``eigh`` splits a matrix into the connected components of its exact
nonzero pattern and diagonalizes each block on its own with LAPACK's
divide-and-conquer ``?syevd`` through ``numpy.linalg.eigh``.  Every model
Hamiltonian conserves a Z2 parity, and so do its Gibbs states and the
measured squares, so their matrices fall apart into two parity sectors
with exactly zero couplings between them, and the two half-size solves
cost about a quarter of one dense solve.  A row with no off-diagonal
entry (as in a pure or underflowed Gibbs state) is an eigenvector as it
stands and needs no solve.  A matrix without such structure is one
block.

All BLAS and LAPACK work here goes through numpy.  scipy ships its own
OpenBLAS with its own thread pool, and switching between the two pools
(numpy matmuls, scipy solves) left their spinning threads contending
for the same cores.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DiagonalizationFailed, DimMismatch, InvalidMatrix, NotPSD

# negative eigenvalues above -PSD_CLAMP_RTOL * ||M|| count as roundoff
PSD_CLAMP_RTOL = 1e-10
_LABEL_ROWS = 64  # rows per read in the component search


def _DSYEVD(a):
    """LAPACK's ?syevd on a symmetric block: (eigenvalues, eigenvectors, info)."""
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError:
        return None, None, 1
    return vals, vecs, 0


def symmetrize(entries):
    """Return the exactly symmetric part (A + A.T) / 2 of a square matrix.

    Raises InvalidMatrix for non-square shapes and for entries that are
    non-finite or whose sum overflows.  Every input entry reaches the
    result, so checking the result alone catches non-finite input too.
    """
    a = np.array(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        sym = (a + a.T) / 2.0
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


def eigh(matrix):
    """Full eigendecomposition of a symmetric matrix with fixed signs.

    Each connected block of the nonzero pattern is diagonalized on its
    own by LAPACK's divide-and-conquer ?syevd and its vectors are
    sign-fixed; rows with no off-diagonal entry are their own
    eigenvectors and need no solve.  The blocks' eigenvalues are merged
    by a stable sort, so every eigenvector is supported in exactly one
    block.  Raises DiagonalizationFailed when the solver does not
    converge.
    """
    m = symmetrize(matrix)
    n = m.shape[0]
    labels = _component_labels(m)
    sizes = np.bincount(labels, minlength=n)
    isolated = (sizes[labels] == 1).nonzero()[0]
    diagonal = m[isolated, isolated]
    blocks = []
    for root in (sizes > 1).nonzero()[0]:
        idx = (labels == root).nonzero()[0]
        vals, vecs, info = _DSYEVD(m if idx.size == n else m[idx[:, None], idx])
        if info != 0:
            raise DiagonalizationFailed(f"syevd failed with info={info} on a block of size {idx.size}")
        vecs *= np.copysign(1.0, vecs[np.abs(vecs).argmax(axis=0), np.arange(idx.size)])
        blocks.append((idx, vals, vecs))
    del m
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


def psd_sqrt(matrix):
    """Symmetric PSD square root via eigendecomposition.

    Eigenvalues in [-1e-10 * ||M||, 0) are clamped to zero; Gibbs-state
    inputs are PSD analytically, so anything in that band is roundoff.
    More negative input raises NotPSD.
    """
    spec = eigh(matrix)
    vals = spec.eigenvalues
    scale = float(np.max(np.abs(vals)))
    floor = -PSD_CLAMP_RTOL * scale
    if vals[0] < floor:
        raise NotPSD(f"eigenvalue {vals[0]:.6e} below roundoff floor {floor:.6e}")
    roots = np.sqrt(np.clip(vals, 0.0, None))
    v = spec.eigenvectors
    return symmetrize((v * roots) @ v.T)


def fidelity(rho, sigma):
    """Uhlmann fidelity of two density matrices, clamped to [0, 1].

    Equals [tr sqrt(sqrt(rho) sigma sqrt(rho))]^2, evaluated as the
    squared nuclear norm of sqrt(rho) @ sqrt(sigma) -- the same value
    with one nested root fewer, which behaves better for nearly equal
    states.  Symmetric in its arguments to ~1e-10.
    """
    r = np.asarray(rho, dtype=float)
    s = np.asarray(sigma, dtype=float)
    if r.shape != s.shape:
        raise DimMismatch(f"density-matrix shapes differ: {r.shape} vs {s.shape}")
    for m in (r, s):
        tr = float(np.trace(m))
        if abs(tr - 1.0) > 1e-9:
            raise InvalidMatrix(f"density matrix trace {tr!r} is not 1")
    try:
        singulars = np.linalg.svd(psd_sqrt(r) @ psd_sqrt(s), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise DiagonalizationFailed(f"fidelity: {exc}") from exc
    value = float(np.sum(singulars)) ** 2
    return min(max(value, 0.0), 1.0)


def validate_density_matrix(rho, trace_tol=1e-12, eig_floor=1e-12):
    """Check symmetry, unit trace and numerical positivity; raise if not."""
    r = np.asarray(rho, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise InvalidMatrix(f"expected a square matrix, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise InvalidMatrix("density matrix has non-finite entries")
    if abs(float(np.trace(r)) - 1.0) > trace_tol:
        raise InvalidMatrix(f"trace {float(np.trace(r))!r} not within {trace_tol} of 1")
    lowest = float(np.linalg.eigvalsh(symmetrize(r))[0])
    if lowest < -eig_floor:
        raise NotPSD(f"minimum eigenvalue {lowest:.6e} below -{eig_floor}")
