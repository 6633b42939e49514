import ctypes

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.csgraph import connected_components
from hypothesis import given, settings, strategies as st

from critfish import linalg
from critfish.errors import DiagonalizationFailed, DimMismatch, InvalidMatrix, NotPSD
from critfish.linalg import Sectors, eigh, fidelity, symmetrize
from critfish.models import build_model
from critfish.operators import make_dicke_ops, make_fock_ops
from critfish.sweep import measurement_observable
from critfish.thermal import density_matrix, gibbs

from spectra import dense_eigenvectors


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
    assert np.allclose(np.abs(dense_eigenvectors(spec)), np.eye(2)[:, ::-1])


def test_eigh_two_level_flip():
    spec = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(spec.eigenvalues, [-1.0, 1.0])
    r = 1.0 / np.sqrt(2.0)
    # sign convention: first of the tied largest-magnitude components positive
    v = dense_eigenvectors(spec)
    assert np.allclose(v[:, 0], [r, -r])
    assert np.allclose(v[:, 1], [r, r])


def test_eigh_reconstruction_seeded():
    rng = np.random.default_rng(7)
    m = random_symmetric(rng, 8)
    spec = eigh(m)
    v = dense_eigenvectors(spec)
    rebuilt = (v * spec.eigenvalues) @ v.T
    tol = 1e-10 * max(1.0, np.abs(m).max())
    assert np.abs(rebuilt - m).max() <= tol


def test_eigh_deterministic():
    rng = np.random.default_rng(3)
    m = random_symmetric(rng, 12)
    a = eigh(m)
    b = eigh(m.copy())
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(dense_eigenvectors(a), dense_eigenvectors(b))


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 64), seed=st.integers(0, 2 ** 31))
def test_eigh_invariants_random(dim, seed):
    rng = np.random.default_rng(seed)
    m = random_symmetric(rng, dim)
    spec = eigh(m)
    assert np.all(np.diff(spec.eigenvalues) >= 0)
    v = dense_eigenvectors(spec)
    assert np.abs(v.T @ v - np.eye(dim)).max() <= 1e-12
    rebuilt = (v * spec.eigenvalues) @ v.T
    assert np.abs(rebuilt - m).max() <= 1e-10 * max(1.0, np.abs(m).max())


def random_chain(rng, dim):
    """(diagonal, off) of a random unreduced tridiagonal chain."""
    off = rng.uniform(0.5, 2.0, dim - 1) * rng.choice([-1.0, 1.0], dim - 1)
    return rng.normal(size=dim), off


def chain_dense(diagonal, off):
    return np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1)


def interleaved_sectors(rng, sizes, singleton_values, chains=False):
    """Sectors whose blocks interleave after a random permutation, and their dense matrix.

    Blocks of size 1 take their value from ``singleton_values`` (so they
    repeat exactly); larger blocks are dense random, or tridiagonal chains
    with ``chains``, and every second one repeats the block before it, so
    their spectra coincide too.  Each block's rows come in random order.
    Returns (sectors, dense matrix, list of row arrays, one per block).
    """
    owner = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    members = [rng.permutation(np.flatnonzero(owner == b)) for b in range(len(sizes))]
    dense = np.zeros((len(owner), len(owner)))
    blocks = []
    previous = None
    for b, idx in enumerate(members):
        if idx.size == 1:
            block = (np.array([singleton_values[b % len(singleton_values)]]), np.empty(0))
        elif previous is not None and len(previous[0]) == idx.size and b % 2:
            block = previous
        elif chains:
            block = random_chain(rng, idx.size)
        else:
            block = random_symmetric(rng, idx.size)
        full = chain_dense(*block) if isinstance(block, tuple) else block
        dense[np.ix_(idx, idx)] = full
        blocks.append(block if chains or idx.size == 1 else full)
        previous = block
    return Sectors(members, blocks), dense, members


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.sampled_from([1, 1, 2, 3, 5, 8]), min_size=1, max_size=8),
    singleton_values=st.lists(st.sampled_from([-2.5, 0.0, 1.0]), min_size=1, max_size=3),
    chains=st.booleans(),
    seed=st.integers(0, 2 ** 31),
)
def test_eigh_blocked_matches_dense(sizes, singleton_values, chains, seed):
    rng = np.random.default_rng(seed)
    sectors, m, members = interleaved_sectors(rng, sizes, singleton_values, chains)
    dim = m.shape[0]
    assert np.array_equal(np.asarray(sectors), m)
    spec = eigh(sectors)
    vals, v = spec.eigenvalues, dense_eigenvectors(spec)
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
    # one block per declared sector: its rows, ascending global levels, and vectors on those rows only
    assert [rows.tolist() for rows, _, _ in spec.blocks] == [idx.tolist() for idx in members]
    assert all(vectors.shape == (rows.size, rows.size) for rows, _, vectors in spec.blocks)
    assert all(np.all(np.diff(levels) > 0) for _, levels, _ in spec.blocks)
    assert np.array_equal(np.sort(np.concatenate([levels for _, levels, _ in spec.blocks])), np.arange(dim))
    assert not vals.flags.writeable
    assert not any(a.flags.writeable for block in spec.blocks for a in block)
    again = eigh(sectors)
    assert np.array_equal(again.eigenvalues, vals)
    assert np.array_equal(dense_eigenvectors(again), v)


def test_dense_input_is_one_block():
    m = np.diag([2.0, 1.0, 3.0])
    m[0, 2] = m[2, 0] = 0.5
    spec = eigh(m)
    assert [(rows.tolist(), levels.tolist()) for rows, levels, _ in spec.blocks] == [([0, 1, 2], [0, 1, 2])]
    v = dense_eigenvectors(spec)
    assert np.abs(m @ v - v * spec.eigenvalues).max() <= 1e-14


def components(matrix):
    """Connected components of the exact nonzero pattern, each as a sorted row list."""
    count, labels = connected_components(np.asarray(matrix) != 0.0, directed=False)
    return sorted(np.flatnonzero(labels == c).tolist() for c in range(count))


def declared(sectors):
    return sorted(sorted(r.tolist()) for r in sectors.rows)


SECTOR_CASES = [
    *[(kind, size, g) for g in (0.5, 0.9) for kind, size in (("toy", 64), ("lmg", 20), ("ising", 6))],
    ("lmg", 20, 1.3),
    ("ising", 6, 1.3),
]


@pytest.mark.parametrize("kind,size,g", SECTOR_CASES)
def test_declared_sectors_are_the_connected_components(kind, size, g):
    model = build_model(kind, 1.0, g, size)
    observable = measurement_observable(kind, size)
    assert declared(model.H) == components(model.H)
    assert declared(model.coupling_term) == declared(model.H)
    assert declared(observable) == components(observable)
    assert len(model.H.rows) == 2


def test_ising_hamiltonian_splits_into_parity_sectors():
    found = components(build_model("ising", 1.0, 0.7, 6).H)
    assert [len(c) for c in found] == [32, 32]
    parity = [np.unique([bin(i).count("1") % 2 for i in c]) for c in found]
    assert [p.tolist() for p in parity] == [[0], [1]]
    assert declared(build_model("ising", 1.0, 0.7, 6).H) == found


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


def chains_mod(diagonal, off, k):
    """Sectors of the matrix with ``diagonal`` and ``off[i]`` coupling rows i and i + k."""
    rows = [np.arange(start, len(diagonal), k) for start in range(min(k, len(diagonal)))]
    return Sectors(rows, [(diagonal[r], off[r[:-1]]) for r in rows])


def random_chains(rng, dim, k=1, zeros=()):
    off = rng.uniform(0.5, 2.0, dim - k) * rng.choice([-1.0, 1.0], dim - k)
    off[list(zeros)] = 0.0
    return chains_mod(rng.normal(size=dim), off, k)


def no_stevd(diagonal, offdiagonal):
    return None  # what the hook returns where numpy's OpenBLAS is not found


TRIDIAGONAL_CASES = {
    **{f"toy-{n}": (lambda n=n: build_model("toy", 1.0, 0.9, n).H) for n in (2, 3, 64, 65, 128)},
    "toy-1024": lambda: build_model("toy", 1.0, 0.999, 1024).H,
    "toy-2048": lambda: build_model("toy", 1.0, 0.999, 2048).H,
    **{f"lmg-{n}": (lambda n=n: build_model("lmg", 1.0, 1.3, n).H) for n in (1, 4, 20)},
    "lmg-400-normal": lambda: build_model("lmg", 1.0, 0.6, 400).H,
    "lmg-400-ordered": lambda: build_model("lmg", 1.0, 1.3, 400).H,
    "toy-g0": lambda: build_model("toy", 1.0, 0.0, 128).H,
    "lmg-g0": lambda: build_model("lmg", 1.0, 0.0, 20).H,
    "toy-x2": lambda: make_fock_ops(300).x2,
    "lmg-sx2": lambda: make_dicke_ops(150).sx2,
    "random-tridiagonal": lambda: random_chains(np.random.default_rng(8), 200),
    # interior zeros split chains into pieces above and below
    # _STEVD_MIN_ROWS, and into single rows
    "cut-k2": lambda: random_chains(np.random.default_rng(12), 400, 2, [0, 5, 6, 7, 90, 91, 250]),
    "cut-k1": lambda: random_chains(np.random.default_rng(13), 300, 1, [0, 1, 40, 41, 150, 298]),
    "k1": lambda: random_chains(np.random.default_rng(14), 150),
    "k3": lambda: random_chains(np.random.default_rng(15), 100, 3),
}


@pytest.mark.parametrize("case", sorted(TRIDIAGONAL_CASES))
def test_tridiagonal_route_returns_the_bits_of_syevd(monkeypatch, case):
    # ?stevd on each chain against ?syevd on the same chain as a dense block
    m = TRIDIAGONAL_CASES[case]()
    solved = []
    stevd = linalg._DSTEVD
    monkeypatch.setattr(linalg, "_DSTEVD", lambda d, e: solved.append(d.size) or stevd(d, e))
    routed = eigh(m)
    assert sorted(solved) == sorted(r.size for r in m.rows if r.size >= linalg._STEVD_MIN_ROWS)
    monkeypatch.setattr(linalg, "_DSTEVD", no_stevd)
    dense = eigh(m)
    v = dense_eigenvectors(routed)
    assert np.array_equal(routed.eigenvalues, dense.eigenvalues)
    assert np.array_equal(v, dense_eigenvectors(dense))
    assert not routed.eigenvalues.flags.writeable
    assert not any(vectors.flags.writeable for _, _, vectors in routed.blocks)
    scale = max(1.0, np.abs(np.asarray(m)).max())
    residual = np.asarray(m) @ v - v * routed.eigenvalues
    assert np.abs(residual).max() <= 1e-12 * scale


def test_tridiagonal_route_is_taken_on_this_platform(monkeypatch):
    # numpy's bundled OpenBLAS is found: no block of a toy Hamiltonian reaches ?syevd
    def fail(a):
        return None, None, 1

    m = build_model("toy", 1.0, 0.9, 512).H
    want = eigh(m)
    monkeypatch.setattr(linalg, "_DSYEVD", fail)
    got = eigh(m)
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    assert np.array_equal(dense_eigenvectors(got), dense_eigenvectors(want))


def test_failing_stevd_raises_diagonalization_failed(monkeypatch):
    monkeypatch.setattr(linalg, "_DSTEVD", lambda d, e: (None, None, 2))
    with pytest.raises(DiagonalizationFailed, match="info=2 on a block of size 64"):
        eigh(build_model("toy", 1.0, 0.5, 128).H)


def beyond_the_band(rng, dim):
    # tridiagonal but for one pair of entries three rows out
    m = chain_dense(*random_chain(rng, dim))
    m[5, 8] = m[8, 5] = 0.75
    return m


NOT_TRIDIAGONAL_CASES = {
    "dense-gibbs-state": lambda: density_matrix(gibbs(eigh(build_model("toy", 1.0, 0.5, 256).H), 0.5)),
    "beyond-the-band": lambda: beyond_the_band(np.random.default_rng(9), 200),
    "dense-toy-hamiltonian": lambda: np.asarray(build_model("toy", 1.0, 0.9, 256).H),
}


@pytest.mark.parametrize("case", sorted(NOT_TRIDIAGONAL_CASES))
def test_blocks_that_are_not_tridiagonal_never_take_the_route(monkeypatch, case):
    # only a chain reaches ?stevd: a dense block, a tridiagonal one
    # included, goes to ?syevd
    def fail(diagonal, offdiagonal):
        raise AssertionError("a dense block reached ?stevd")

    m = NOT_TRIDIAGONAL_CASES[case]()
    blocks = m.blocks if isinstance(m, Sectors) else [m]
    assert min(len(block) for block in blocks) >= linalg._STEVD_MIN_ROWS
    monkeypatch.setattr(linalg, "_DSTEVD", fail)
    spec = eigh(m)
    dense = np.asarray(m)
    scale = max(1.0, np.abs(dense).max())
    v = dense_eigenvectors(spec)
    assert np.abs(dense @ v - v * spec.eigenvalues).max() <= 1e-12 * scale


@pytest.mark.parametrize("stevd", [True, False])
@pytest.mark.parametrize("kind,size", [("toy", 256), ("lmg", 20)])
def test_uncoupled_chains_give_identity_eigenvectors(monkeypatch, stevd, kind, size):
    # at g = 0 every off-diagonal entry is zero: ?stevd and ?syevd both
    # hand back the diagonal, sorted, and exact unit vectors
    if not stevd:
        monkeypatch.setattr(linalg, "_DSTEVD", no_stevd)
    model = build_model(kind, 1.0, 0.0, size)
    spec = eigh(model.H)
    assert np.array_equal(spec.eigenvalues, np.sort(model.dH))
    assert np.array_equal(dense_eigenvectors(spec), np.eye(len(model.H)))


def test_sectors_to_dense_and_shape():
    chain = (np.array([1.0, 3.0]), np.array([5.0]))
    block = np.array([[2.0, 6.0], [6.0, 4.0]])
    m = Sectors([[0, 2], [1, 3]], [chain, block])
    want = np.array([[1, 0, 5, 0], [0, 2, 0, 6], [5, 0, 3, 0], [0, 6, 0, 4]], dtype=float)
    assert np.array_equal(np.asarray(m), want)
    assert m.shape == (4, 4) and len(m) == 4
    assert np.asarray(m, dtype=np.float32).dtype == np.float32
    assert not any(a.flags.writeable for a in (*m.rows, *m.blocks[0], m.blocks[1]))
    assert not np.shares_memory(m.blocks[1], block) and not np.shares_memory(m.blocks[0][0], chain[0])
    with pytest.raises(ValueError):
        np.asarray(m, copy=False)
    assert np.array_equal(np.asarray(Sectors([[0]], [([7.0], [])])), [[7.0]])
    # a dense block is stored exactly symmetrized
    assert np.array_equal(Sectors([[1, 0]], [np.array([[1.0, 2.0], [0.0, 3.0]])]).blocks[0], [[1, 1], [1, 3]])


@pytest.mark.parametrize("rows,blocks", [
    ([[0, 1]], [([1.0, 2.0], [1.0, 2.0])]),           # a chain with too many off-diagonal entries
    ([[0, 1]], [([1.0, 2.0], [])]),                   # a chain with too few off-diagonal entries
    ([[0, 1], [1]], [([1.0, 2.0], [1.0]), ([3.0], [])]),  # a row in two sectors
    ([[0], [2]], [([1.0], []), ([3.0], [])]),          # row 1 in none
    ([[0, 1], []], [([1.0, 2.0], [1.0]), ([], [])]),   # an empty sector
    ([[0, 1]], [np.eye(3)]),                           # a dense block of the wrong size
    ([[0, 1]], [np.ones((2, 3))]),                     # a dense block that is not square
    ([[0, 1]], []),                                    # rows without a block
])
def test_sectors_reject_a_bad_layout(rows, blocks):
    with pytest.raises(InvalidMatrix):
        Sectors(rows, blocks)


@pytest.mark.parametrize("bad", ["diagonal", "off", "dense"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_band_with_non_finite_entries_raises_invalid_matrix(bad, value):
    diagonal, off, dense = np.ones(5), np.ones(4), np.eye(5)
    {"diagonal": diagonal, "off": off, "dense": dense}[bad][1] = value
    with pytest.raises(InvalidMatrix):
        eigh(Sectors([np.arange(5), np.arange(5, 10)], [(diagonal, off), dense]))


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


def test_fidelity_of_sectors_matches_the_matrix_root_route():
    # two states over the same sectors: the nuclear norm is summed block by
    # block; a Sectors against a dense matrix is compared as two dense ones
    model = build_model("lmg", 1.0, 0.7, 8)
    rho = density_matrix(gibbs(eigh(model.H), 2.0))
    sigma = density_matrix(gibbs(eigh(model.at(1.1).H), 2.0))
    assert fidelity(rho, sigma) == pytest.approx(dense_root_fidelity(np.asarray(rho), np.asarray(sigma)), abs=1e-12)
    other = random_density(np.random.default_rng(4), 9)
    want = dense_root_fidelity(np.asarray(rho), other)
    assert fidelity(rho, other) == pytest.approx(want, abs=1e-12)
    assert fidelity(other, rho) == pytest.approx(want, abs=1e-10)


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
