import ctypes

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from critfish import linalg
from critfish.errors import DiagonalizationFailed, DimMismatch, InvalidMatrix, NotPSD
from critfish.linalg import Banded, _band_chains, _component_labels, eigh, fidelity, symmetrize
from critfish.models import build_model
from critfish.operators import make_dicke_ops, make_fock_ops
from critfish.thermal import density_matrix, gibbs


def random_symmetric(rng, dim, scale=5.0):
    a = rng.normal(scale=scale, size=(dim, dim))
    return (a + a.T) / 2.0


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim))
    rho = a @ a.T
    return rho / np.trace(rho)


def test_symmetrize_is_exact():
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    s = symmetrize(a)
    assert np.array_equal(s, s.T)
    assert not np.shares_memory(s, a)
    assert not np.shares_memory(symmetrize(s), s)  # an already symmetric input is copied too


def test_symmetrize_rejects_bad_input():
    with pytest.raises(InvalidMatrix):
        symmetrize(np.ones((2, 3)))
    with pytest.raises(InvalidMatrix):
        symmetrize([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(InvalidMatrix):
        symmetrize([[np.inf, 0.0], [0.0, 1.0]])


@pytest.mark.filterwarnings("error")
def test_symmetrize_rejects_overflow_without_a_warning():
    # finite entries whose sum overflows, and infinities whose sum is nan
    with pytest.raises(InvalidMatrix):
        eigh(np.full((3, 3), 1.5e308))
    with pytest.raises(InvalidMatrix):
        symmetrize([[1.0, 1.5e308], [1.5e308, 1.0]])
    with pytest.raises(InvalidMatrix):
        symmetrize([[1.0, np.inf], [-np.inf, 1.0]])
    big = np.full((2, 2), 8e307)
    assert np.array_equal(symmetrize(big), big)


def test_eigh_already_diagonal():
    spec = eigh(np.diag([3.0, 1.0]))
    assert np.allclose(spec.eigenvalues, [1.0, 3.0])
    assert np.allclose(np.abs(spec.eigenvectors), np.eye(2)[:, ::-1])


def test_eigh_two_level_flip():
    spec = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(spec.eigenvalues, [-1.0, 1.0])
    r = 1.0 / np.sqrt(2.0)
    # sign convention: first of the tied largest-magnitude components positive
    assert np.allclose(spec.eigenvectors[:, 0], [r, -r])
    assert np.allclose(spec.eigenvectors[:, 1], [r, r])


def test_eigh_reconstruction_seeded():
    rng = np.random.default_rng(7)
    m = random_symmetric(rng, 8)
    spec = eigh(m)
    rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.T
    tol = 1e-10 * max(1.0, np.abs(m).max())
    assert np.abs(rebuilt - m).max() <= tol


def test_eigh_deterministic():
    rng = np.random.default_rng(3)
    m = random_symmetric(rng, 12)
    a = eigh(m)
    b = eigh(m.copy())
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 64), seed=st.integers(0, 2 ** 31))
def test_eigh_invariants_random(dim, seed):
    rng = np.random.default_rng(seed)
    m = random_symmetric(rng, dim)
    spec = eigh(m)
    assert np.all(np.diff(spec.eigenvalues) >= 0)
    v = spec.eigenvectors
    assert np.abs(v.T @ v - np.eye(dim)).max() <= 1e-12
    rebuilt = (v * spec.eigenvalues) @ v.T
    assert np.abs(rebuilt - m).max() <= 1e-10 * max(1.0, np.abs(m).max())


def scrambled_path(rng, dim):
    """Random tridiagonal matrix with rows and columns shuffled: a path graph in random order."""
    off = rng.uniform(0.5, 2.0, dim - 1)
    t = np.diag(rng.normal(size=dim)) + np.diag(off, 1) + np.diag(off, -1)
    order = rng.permutation(dim)
    return t[np.ix_(order, order)]


def interleaved_blocks(rng, sizes, singleton_values, paths=False):
    """Symmetric matrix that is block diagonal after a random permutation.

    Blocks of size 1 take their value from ``singleton_values`` (so they
    repeat exactly); larger blocks are dense random, or scrambled paths
    with ``paths``, and every second one repeats the block before it, so
    their spectra coincide too.  The permutation interleaves the blocks
    but keeps each block's own row order, which keeps repeated blocks
    bit-identical after extraction.
    Returns (matrix, list of index arrays, one per block).
    """
    owner = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    members = [np.flatnonzero(owner == b) for b in range(len(sizes))]
    m = np.zeros((len(owner), len(owner)))
    previous = None
    for b, idx in enumerate(members):
        if idx.size == 1:
            block = np.array([[singleton_values[b % len(singleton_values)]]])
        elif previous is not None and previous.shape[0] == idx.size and b % 2:
            block = previous
        elif paths:
            block = scrambled_path(rng, idx.size)
        else:
            block = random_symmetric(rng, idx.size)
        m[np.ix_(idx, idx)] = block
        previous = block
    return m, members


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.sampled_from([1, 1, 2, 3, 5, 8]), min_size=1, max_size=8),
    singleton_values=st.lists(st.sampled_from([-2.5, 0.0, 1.0]), min_size=1, max_size=3),
    paths=st.booleans(),
    seed=st.integers(0, 2 ** 31),
)
def test_eigh_blocked_matches_dense(sizes, singleton_values, paths, seed):
    rng = np.random.default_rng(seed)
    m, members = interleaved_blocks(rng, sizes, singleton_values, paths)
    dim = m.shape[0]
    spec = eigh(m)
    vals, v = spec.eigenvalues, spec.eigenvectors
    scale = max(1.0, np.abs(m).max())
    assert np.abs(vals - scipy.linalg.eigvalsh(m)).max() <= 1e-12 * scale
    assert np.all(np.diff(vals) >= 0)
    assert np.abs(m @ v - v * vals).max() <= 1e-12 * scale
    assert np.abs(v.T @ v - np.eye(dim)).max() <= 1e-12
    owner = np.empty(dim, dtype=int)
    for b, idx in enumerate(members):
        owner[idx] = b
    for k in range(dim):
        support = np.flatnonzero(v[:, k])
        assert np.unique(owner[support]).size == 1
        assert v[np.argmax(np.abs(v[:, k])), k] > 0
    assert not vals.flags.writeable and not v.flags.writeable
    again = eigh(m)
    assert np.array_equal(again.eigenvalues, vals)
    assert np.array_equal(again.eigenvectors, v)


def components(labels):
    return sorted(np.flatnonzero(labels == root).tolist() for root in np.unique(labels))


@pytest.mark.parametrize("paths", [False, True])
def test_component_labels_of_interleaved_blocks(paths):
    # the 150-row block spans several reads of _LABEL_ROWS rows
    rng = np.random.default_rng(2)
    m, members = interleaved_blocks(rng, [3, 1, 5, 1, 2, 150], [0.0, 1.0], paths)
    labels = _component_labels(m)
    assert components(labels) == sorted(idx.tolist() for idx in members)
    for idx in members:
        assert np.all(labels[idx] == idx.min())


def test_ising_hamiltonian_splits_into_parity_sectors():
    found = components(_component_labels(build_model("ising", 1.0, 0.7, 6).H))
    assert [len(c) for c in found] == [32, 32]
    parity = [np.unique([bin(i).count("1") % 2 for i in c]) for c in found]
    assert [p.tolist() for p in parity] == [[0], [1]]


def test_eigh_wraps_solver_failure(monkeypatch):
    def fail(a):
        return np.zeros(a.shape[0]), a, 3

    monkeypatch.setattr(linalg, "_DSYEVD", fail)
    with pytest.raises(DiagonalizationFailed, match="info=3"):
        eigh(np.ones((3, 3)))


def test_eigh_turns_a_lapack_error_into_diagonalization_failed(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(DiagonalizationFailed, match="block of size 3"):
        eigh(np.ones((3, 3)))


def random_band(rng, dim, k=1):
    off = rng.uniform(0.5, 2.0, dim - k) * rng.choice([-1.0, 1.0], dim - k)
    return Banded(rng.normal(size=dim), off, k)


def random_tridiagonal(rng, dim):
    return np.asarray(random_band(rng, dim))


def no_stevd(diagonal, offdiagonal):
    return None  # what the hook returns where numpy's OpenBLAS is not found


TRIDIAGONAL_CASES = {
    "toy-128": lambda: build_model("toy", 1.0, 0.9, 128).H,
    "toy-1024": lambda: build_model("toy", 1.0, 0.999, 1024).H,
    "lmg-400-normal": lambda: build_model("lmg", 1.0, 0.6, 400).H,
    "lmg-400-ordered": lambda: build_model("lmg", 1.0, 1.3, 400).H,
    "random-tridiagonal": lambda: random_band(np.random.default_rng(8), 200),
}


@pytest.mark.parametrize("case", sorted(TRIDIAGONAL_CASES))
def test_tridiagonal_route_returns_the_bits_of_syevd(monkeypatch, case):
    m = TRIDIAGONAL_CASES[case]()
    solved = []
    stevd = linalg._DSTEVD
    monkeypatch.setattr(linalg, "_DSTEVD", lambda d, e: solved.append(d.size) or stevd(d, e))
    routed = eigh(m)
    assert solved and min(solved) >= linalg._STEVD_MIN_ROWS
    monkeypatch.setattr(linalg, "_DSTEVD", no_stevd)
    dense = eigh(m)
    assert np.array_equal(routed.eigenvalues, dense.eigenvalues)
    assert np.array_equal(routed.eigenvectors, dense.eigenvectors)
    assert not routed.eigenvalues.flags.writeable and not routed.eigenvectors.flags.writeable


def test_tridiagonal_route_is_taken_on_this_platform(monkeypatch):
    # numpy's bundled OpenBLAS is found: no block of a toy Hamiltonian reaches ?syevd
    def fail(a):
        return None, None, 1

    m = build_model("toy", 1.0, 0.9, 512).H
    want = eigh(m)
    monkeypatch.setattr(linalg, "_DSYEVD", fail)
    got = eigh(m)
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    assert np.array_equal(got.eigenvectors, want.eigenvectors)


def test_failing_stevd_raises_diagonalization_failed(monkeypatch):
    monkeypatch.setattr(linalg, "_DSTEVD", lambda d, e: (None, None, 2))
    with pytest.raises(DiagonalizationFailed, match="info=2 on a block of size 64"):
        eigh(build_model("toy", 1.0, 0.5, 128).H)


def beyond_the_band(rng, dim):
    # tridiagonal but for one pair of entries three rows out
    m = random_tridiagonal(rng, dim)
    m[5, 8] = m[8, 5] = 0.75
    return m


NOT_TRIDIAGONAL_CASES = {
    "dense-gibbs-state": lambda: density_matrix(gibbs(eigh(build_model("toy", 1.0, 0.5, 256).H), 0.5)),
    "beyond-the-band": lambda: beyond_the_band(np.random.default_rng(9), 200),
    "dense-toy-hamiltonian": lambda: np.asarray(build_model("toy", 1.0, 0.9, 256).H),
}


@pytest.mark.parametrize("case", sorted(NOT_TRIDIAGONAL_CASES))
def test_blocks_that_are_not_tridiagonal_never_take_the_route(monkeypatch, case):
    # only a band reaches ?stevd: every block of a dense matrix, a
    # tridiagonal one included, goes to ?syevd
    def fail(diagonal, offdiagonal):
        raise AssertionError("a block of a dense matrix reached ?stevd")

    m = NOT_TRIDIAGONAL_CASES[case]()
    assert min(len(c) for c in components(_component_labels(m))) >= linalg._STEVD_MIN_ROWS
    monkeypatch.setattr(linalg, "_DSTEVD", fail)
    spec = eigh(m)
    scale = max(1.0, np.abs(m).max())
    assert np.abs(m @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues).max() <= 1e-12 * scale


def cut_band(rng, dim, k, zeros):
    band = random_band(rng, dim, k)
    off = band.off.copy()
    off[zeros] = 0.0
    return Banded(band.diagonal, off, k)


BAND_CASES = {
    **{f"toy-{n}": (lambda n=n: build_model("toy", 1.0, 0.9, n).H) for n in (2, 3, 64, 65, 128)},
    "toy-2048": lambda: build_model("toy", 1.0, 0.999, 2048).H,
    **{f"lmg-{n}": (lambda n=n: build_model("lmg", 1.0, 1.3, n).H) for n in (1, 4, 20, 400)},
    "toy-g0": lambda: build_model("toy", 1.0, 0.0, 128).H,
    "lmg-g0": lambda: build_model("lmg", 1.0, 0.0, 20).H,
    "toy-x2": lambda: make_fock_ops(300).x2,
    "lmg-sx2": lambda: make_dicke_ops(150).sx2,
    # interior zeros cut chains into pieces above and below _STEVD_MIN_ROWS,
    # and into single rows
    "cut-k2": lambda: cut_band(np.random.default_rng(12), 400, 2, [0, 5, 6, 7, 90, 91, 250]),
    "cut-k1": lambda: cut_band(np.random.default_rng(13), 300, 1, [0, 1, 40, 41, 150, 298]),
    "k1": lambda: random_band(np.random.default_rng(14), 150),
    "k3": lambda: random_band(np.random.default_rng(15), 100, 3),
}


@pytest.mark.parametrize("case", sorted(BAND_CASES))
def test_band_route_returns_the_bits_of_the_dense_route(case):
    band = BAND_CASES[case]()
    routed = eigh(band)
    dense = eigh(np.asarray(band))
    assert np.array_equal(routed.eigenvalues, dense.eigenvalues)
    assert np.array_equal(routed.eigenvectors, dense.eigenvectors)
    assert not routed.eigenvalues.flags.writeable and not routed.eigenvectors.flags.writeable


def test_band_chains_are_the_components_of_the_dense_pattern():
    band = cut_band(np.random.default_rng(16), 40, 2, [0, 3, 5, 20, 21])
    isolated, chains = _band_chains(band)
    found = sorted([[int(i)] for i in isolated] + [idx.tolist() for idx in chains])
    assert found == components(_component_labels(np.asarray(band)))
    assert [idx[0] for idx in chains] == sorted(idx[0] for idx in chains)
    assert isolated.tolist() == [0, 5]  # row 5 lost both links: off[3] and off[5]


def test_band_of_every_isolated_row_needs_no_solve(monkeypatch):
    def fail(*args):
        raise AssertionError("an isolated row reached LAPACK")

    monkeypatch.setattr(linalg, "_DSTEVD", fail)
    monkeypatch.setattr(linalg, "_DSYEVD", fail)
    spec = eigh(build_model("toy", 1.0, 0.0, 256).H)
    assert np.array_equal(spec.eigenvalues, np.arange(256.0))
    assert np.array_equal(spec.eigenvectors, np.eye(256))


def test_band_to_dense_and_shape():
    band = Banded([1.0, 2.0, 3.0, 4.0], [5.0, 6.0], 2)
    want = np.array([[1, 0, 5, 0], [0, 2, 0, 6], [5, 0, 3, 0], [0, 6, 0, 4]], dtype=float)
    assert np.array_equal(np.asarray(band), want)
    assert band.shape == (4, 4) and len(band) == 4
    assert np.asarray(band, dtype=np.float32).dtype == np.float32
    assert not band.diagonal.flags.writeable and not band.off.flags.writeable
    with pytest.raises(ValueError):
        np.asarray(band, copy=False)
    assert np.array_equal(np.asarray(Banded([7.0], [], 2)), [[7.0]])


@pytest.mark.parametrize("diagonal,off,k", [([1.0, 2.0], [1.0, 2.0], 1), ([], [], 1), ([1.0, 2.0], [], 0)])
def test_band_rejects_a_bad_layout(diagonal, off, k):
    with pytest.raises(InvalidMatrix):
        Banded(diagonal, off, k)


@pytest.mark.parametrize("bad", ["diagonal", "off"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_band_with_non_finite_entries_raises_invalid_matrix(bad, value):
    diagonal, off = np.ones(5), np.ones(3)
    {"diagonal": diagonal, "off": off}[bad][1] = value
    with pytest.raises(InvalidMatrix):
        eigh(Banded(diagonal, off, 2))


def test_limit_blas_threads_sets_the_pool_of_numpys_openblas():
    lib = linalg._openblas()
    assert lib is not None, "numpy's bundled OpenBLAS was not found"
    threads = lib.scipy_openblas_get_num_threads64_
    threads.argtypes, threads.restype = [], ctypes.c_int
    before = threads()
    try:
        linalg.limit_blas_threads(1)
        assert threads() == 1
    finally:
        linalg.limit_blas_threads(before)


def test_fidelity_rejects_indefinite():
    with pytest.raises(NotPSD):
        fidelity(np.diag([1.5, -0.5]), np.eye(2) / 2.0)
    with pytest.raises(NotPSD):
        fidelity(np.eye(2) / 2.0, np.diag([1.5, -0.5]))


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 16), rank=st.integers(1, 15), seed=st.integers(0, 2 ** 31))
def test_fidelity_of_projector_state_with_itself_is_one(dim, rank, seed):
    # the dim - rank zero eigenvalues come back as roundoff of either
    # sign, so the state's root columns rely on the clamp
    rank = min(rank, dim - 1)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    state = q[:, :rank] @ q[:, :rank].T / rank
    assert fidelity(state, state) == pytest.approx(1.0, abs=1e-12)


def dense_root_fidelity(rho, sigma):
    """(||sqrt(rho) sqrt(sigma)||_1)^2 with both roots formed from numpy's eigh."""

    def root(m):
        vals, vecs = np.linalg.eigh(m)
        return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T

    return float(np.sum(np.linalg.svd(root(rho) @ root(sigma), compute_uv=False))) ** 2


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 16), seed=st.integers(0, 2 ** 31))
def test_fidelity_matches_the_matrix_root_route(dim, seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, dim)
    sigma = random_density(rng, dim)
    assert fidelity(rho, sigma) == pytest.approx(dense_root_fidelity(rho, sigma), abs=1e-12)


def test_fidelity_self_is_one():
    rng = np.random.default_rng(5)
    rho = random_density(rng, 7)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_orthogonal_pure_states():
    assert fidelity(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == 0.0


def test_fidelity_commuting_value():
    # (sum_k sqrt(p_k q_k))^2 = (sqrt(0.45) + sqrt(0.05))^2 = 0.8 exactly
    got = fidelity(np.diag([0.5, 0.5]), np.diag([0.9, 0.1]))
    assert got == pytest.approx(0.8, rel=1e-12)


def test_fidelity_dim_mismatch():
    with pytest.raises(DimMismatch):
        fidelity(np.eye(2) / 2.0, np.eye(3) / 3.0)


def test_fidelity_rejects_bad_trace():
    with pytest.raises(InvalidMatrix):
        fidelity(np.eye(2), np.eye(2) / 2.0)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 12), seed=st.integers(0, 2 ** 31))
def test_fidelity_symmetric_random(dim, seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, dim)
    sigma = random_density(rng, dim)
    assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 12), seed=st.integers(0, 2 ** 31))
def test_fidelity_commuting_random(dim, seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(dim))
    q = rng.dirichlet(np.ones(dim))
    want = float(np.sum(np.sqrt(p * q))) ** 2
    assert fidelity(np.diag(p), np.diag(q)) == pytest.approx(want, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 12), seed=st.integers(0, 2 ** 31))
def test_fidelity_pure_states_overlap(dim, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim)
    phi = rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    phi /= np.linalg.norm(phi)
    want = float(psi @ phi) ** 2
    got = fidelity(np.outer(psi, psi), np.outer(phi, phi))
    assert got == pytest.approx(want, abs=1e-10)
