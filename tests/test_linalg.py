import ctypes
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.csgraph import connected_components
from hypothesis import given, settings, strategies as st

from critfish import fisher, linalg
from critfish.errors import DiagonalizationFailed, DimMismatch, InvalidMatrix, NotPSD
from critfish.linalg import Sectors, Spectrum, eigh, fidelity
from critfish.cli import fig2_config
from critfish.models import build_model, gibbs_window
from critfish.operators import make_chain_ops, make_dicke_ops, make_fock_ops
from critfish.thermal import beta_from_gap_ratio, density_matrix, gap, gibbs

from ring import kron_sums, ring_basis, ring_groups
from spectra import dense_eigenvectors


def random_symmetric(rng, dim, scale=5.0):
    a = rng.normal(scale=scale, size=(dim, dim))
    return (a + a.T) / 2.0


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim))
    rho = a @ a.T
    return rho / np.trace(rho)


def symmetrized(entries):
    """The dense block a Sectors of that one block stores: the same ``_symmetric_part`` eigh runs on a dense array."""
    return Sectors([np.arange(len(entries))], [entries]).blocks[0]


def test_symmetrize_is_exact():
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    s = symmetrized(a)
    assert np.array_equal(s, s.T) and np.array_equal(s, [[1.0, 1.0], [1.0, 3.0]])
    assert not np.shares_memory(s, a)
    assert not np.shares_memory(symmetrized(s), s)  # an already symmetric input is copied too
    assert np.array_equal(eigh(a).eigenvalues, eigh(s).eigenvalues)


def test_symmetrize_rejects_bad_input():
    for entries in (np.ones((2, 3)), [[np.nan, 0.0], [0.0, 1.0]], [[np.inf, 0.0], [0.0, 1.0]]):
        with pytest.raises(InvalidMatrix):
            eigh(entries)
        with pytest.raises(InvalidMatrix):
            symmetrized(np.array(entries))


@pytest.mark.filterwarnings("error")
def test_symmetrize_rejects_overflow_without_a_warning():
    # finite entries whose sum overflows, and infinities whose sum is nan
    with pytest.raises(InvalidMatrix):
        eigh(np.full((3, 3), 1.5e308))
    for entries in ([[1.0, 1.5e308], [1.5e308, 1.0]], [[1.0, np.inf], [-np.inf, 1.0]]):
        with pytest.raises(InvalidMatrix):
            eigh(entries)
        with pytest.raises(InvalidMatrix):
            symmetrized(np.array(entries))
    big = np.full((2, 2), 8e307)
    assert np.array_equal(symmetrized(big), big)


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


def in_computational_basis(matrix, size):
    """A ring operator of ``size`` sites, given in its momentum basis, as the 2^N x 2^N computational matrix."""
    u = ring_basis(make_chain_ops(size))
    return u @ np.asarray(matrix) @ u.T


@pytest.mark.parametrize("kind,size,g", SECTOR_CASES)
def test_declared_sectors_are_the_connected_components(kind, size, g):
    model = build_model(kind, 1.0, g, size)
    observable = model.observable
    assert declared(model.coupling_term) == declared(model.H)
    if kind == "ising":
        # the ring's blocks are its (parity, j, twin) row groups, which a
        # further symmetry can split (reflection at j = 0 and N/2), so they
        # are checked against the Kronecker products instead of the nonzero
        # pattern
        sz, sx, xx = kron_sums(size)
        assert declared(model.H) == ring_groups(make_chain_ops(size))
        assert declared(observable) == declared(model.H)
        assert np.abs(in_computational_basis(model.H, size) - (sz - g * xx)).max() <= 1e-14
        assert np.abs(in_computational_basis(observable, size) - (sx / 2.0) @ (sx / 2.0)).max() <= 1e-14
        assert len(model.H.rows) == 2 * size
    else:
        assert declared(model.H) == components(model.H)
        assert declared(observable) == components(observable)
        assert len(model.H.rows) == 2


def test_ising_hamiltonian_splits_into_parity_sectors():
    model = build_model("ising", 1.0, 0.7, 6)
    ops = make_chain_ops(6)
    assert [r.size for r in model.H.rows] == [8, 4, 4, 6, 6, 4, 6, 5, 5, 5, 5, 6]
    assert declared(model.H) == ring_groups(ops)
    # each block's rows lie in one popcount parity, and the even blocks come first
    parity = [np.unique([bin(a).count("1") % 2 for a in ops.representative[r].tolist()]) for r in model.H.rows]
    assert [p.tolist() for p in parity] == [[0]] * 6 + [[1]] * 6
    assert [np.unique(ops.momentum[r]).tolist() for r in model.H.rows] == [[0], [1], [1], [2], [2], [3]] * 2
    # j = 1 and 2 are split into their reflection-even rows and then the twins
    assert [np.unique(ops.twin[r]).tolist() for r in model.H.rows] == [[False], [False], [True], [False], [True], [False]] * 2
    sz, _, xx = kron_sums(6)
    assert np.abs(in_computational_basis(model.H, 6) - (sz - 0.7 * xx)).max() <= 1e-14
    # every block but the even one at k = pi is one connected component; that one splits in two
    found = components(model.H)
    assert len(found) == 13
    assert [r.tolist() in found for r in model.H.rows] == [True] * 5 + [False] + [True] * 6


def exact_floors(matrix):
    """The lowest level of each dense block of a Sectors, -inf for any other block: the tightest floors."""
    return [np.linalg.eigvalsh(block)[0] if isinstance(block, np.ndarray) else -math.inf for block in matrix.blocks]


def counted_syevd(monkeypatch):
    """The blocks handed to ?syevd, recorded while it still solves them."""
    seen = []

    def solve(a):
        seen.append(np.array(a))
        return solve.real(a)

    solve.real = linalg._DSYEVD
    monkeypatch.setattr(linalg, "_DSYEVD", solve)
    return seen


# a window of 100 covers every level of both blocks, so each is solved
@pytest.mark.parametrize("window", [None, 100.0])
def test_an_equal_dense_block_reuses_the_eigenpairs_before_it(monkeypatch, window):
    rng = np.random.default_rng(11)
    a, other = random_symmetric(rng, 6), random_symmetric(rng, 6)
    alone = [eigh(a), eigh(other)]
    seen = counted_syevd(monkeypatch)
    spec = eigh(Sectors([np.arange(6), np.arange(6, 12), np.arange(12, 18)], [a, a.copy(), other]), window)
    assert len(seen) == 2 and np.array_equal(seen[0], a) and np.array_equal(seen[1], other)
    # the bits of solving each block on its own
    for (_, levels, vecs), single in zip(spec.blocks, [alone[0], alone[0], alone[1]]):
        assert np.array_equal(spec.eigenvalues[levels], single.eigenvalues)
        assert np.array_equal(vecs, single.blocks[0][2])


def test_a_twin_pair_past_the_window_is_left_out_unsolved(monkeypatch):
    rng = np.random.default_rng(11)
    a, low = random_symmetric(rng, 6), random_symmetric(rng, 6)
    high = a + (np.linalg.eigvalsh(low)[-1] - np.linalg.eigvalsh(a)[0] + 1.0) * np.eye(6)  # above every level of low
    alone = eigh(low)
    matrix = Sectors([np.arange(6), np.arange(6, 12), np.arange(12, 18)], [high, high.copy(), low])
    floors = exact_floors(matrix)
    seen = counted_syevd(monkeypatch)
    spec = eigh(matrix, 0.5, floors=floors)
    assert len(seen) == 1 and np.array_equal(seen[0], low)
    assert [levels.size for _, levels, _ in spec.blocks] == [0, 0, 6] and not spec.complete
    assert spec.dim == 18 and spec.highest is None and spec.matrix is None
    assert [v.shape for _, _, v in spec.blocks] == [(6, 0), (6, 0), (6, 6)]
    assert np.array_equal(spec.eigenvalues, alone.eigenvalues)
    assert np.array_equal(spec.blocks[2][2], alone.blocks[0][2])


def test_a_dense_block_that_differs_in_one_entry_is_solved_again(monkeypatch):
    rng = np.random.default_rng(12)
    a = random_symmetric(rng, 5)
    b = a.copy()
    b[1, 3] = b[3, 1] = np.nextafter(a[1, 3], np.inf)
    seen = counted_syevd(monkeypatch)
    eigh(Sectors([np.arange(5), np.arange(5, 10)], [a, b]))
    assert len(seen) == 2
    # a chain equal to the dense block before it, or to the chain before it, is not a twin
    seen.clear()
    diagonal, off = np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.25])
    eigh(Sectors([np.arange(3), np.arange(3, 6), np.arange(6, 9)],
                 [linalg._dense(diagonal, off), (diagonal, off), (diagonal, off)]))
    assert len(seen) == 3


@pytest.mark.parametrize("size", [6, 8])
def test_ring_twin_blocks_are_equal_and_solved_once(monkeypatch, size):
    ops = make_chain_ops(size)
    model = build_model("ising", 1.0, 0.8, size)
    twins = [b for b in range(1, len(model.H.rows)) if ops.twin[model.H.rows[b][0]]]
    assert len(twins) == 2 * ((size - 1) // 2)
    seen = counted_syevd(monkeypatch)
    spectrum = eigh(model.H)
    assert len(seen) == len(model.H.rows) - len(twins)
    rho = density_matrix(gibbs(spectrum, 1.5))
    for matrix in (ops.xx_pbc, ops.sx2, model.H, rho, model.observable):
        assert all(np.array_equal(matrix.blocks[b], matrix.blocks[b - 1]) for b in twins)
    assert spectrum.twins == set(twins)  # one shared spectrum per twin pair
    for b in twins:
        assert np.array_equal(spectrum.eigenvalues[spectrum.blocks[b][1]], spectrum.eigenvalues[spectrum.blocks[b - 1][1]])


@pytest.mark.parametrize("size", [6, 8])
def test_spectrum_twins_are_the_kept_twins_of_the_layout(size):
    model = build_model("ising", 1.0, 0.5, size)
    layout_twins = {b for b, kind in enumerate(model.H.layout.kinds) if kind == "twin"}
    full = eigh(model.H)
    assert full.twins == layout_twins
    # rung states solved in their window: at beta * gap 20 some twin pairs are kept and others left out, and
    # at 180 the ground block alone is kept
    kept_twins = []
    for ratio in (20.0, 180.0):
        rung = fisher._thermal_state(model, gibbs(full, beta_from_gap_ratio(ratio, full)), 1.0 + 5e-5).spectrum
        assert len(rung.kept) < len(rung.blocks)
        assert rung.twins == layout_twins & set(rung.kept)
        kept_twins.append(len(rung.twins))
    assert 0 < kept_twins[0] < len(layout_twins) and kept_twins[1] == 0


def test_spectrum_twins_is_empty_where_the_twin_vectors_are_copies():
    model = build_model("ising", 1.0, 0.8, 6)
    spectrum = eigh(model.H)
    copied = Spectrum(spectrum.eigenvalues, tuple((rows, levels, v.copy()) for rows, levels, v in spectrum.blocks))
    assert spectrum.twins and not copied.twins
    # every consumer then takes each block on its own, to the same values
    state, copied_state = gibbs(spectrum, 1.5), gibbs(copied, 1.5)
    rho, copied_rho = density_matrix(state), density_matrix(copied_state)
    assert "twin" in rho.layout.kinds and "twin" not in copied_rho.layout.kinds
    assert np.array_equal(np.asarray(rho), np.asarray(copied_rho))
    assert fidelity(rho, copied_rho) == pytest.approx(1.0, abs=1e-12)
    want = fisher.qfi_spectral(model, state)
    assert fisher.qfi_spectral(model, copied_state).total == pytest.approx(want.total, rel=1e-14, abs=0)


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
    sigma = density_matrix(gibbs(eigh(build_model("lmg", 1.1, 0.7, 8).H), 2.0))
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


WINDOW_CASES = [
    ("toy", 0.999, 1024, math.log(1e20) / 50.0),
    ("toy", 0.999, 2048, math.log(1e20) / 50.0),
    ("toy", 0.5, 2048, 0.0),
    ("lmg", 1.3, 2000, math.log(1e20) / 5.0),  # ordered phase: doublets across the two chains
]


@pytest.mark.parametrize("kind,g,size,window", WINDOW_CASES)
def test_windowed_eigh_holds_the_lowest_eigenpairs_of_the_full_one(kind, g, size, window):
    m = build_model(kind, 1.0, g, size).H
    full, win = eigh(m), eigh(m, window=window)
    count = len(win.eigenvalues)
    scale = full.energy_scale
    assert not win.complete and win.dim == full.dim == size + (kind == "lmg")
    assert win.matrix is m and win.highest == pytest.approx(full.eigenvalues[-1], rel=1e-14)
    assert win.energy_scale == pytest.approx(scale, rel=1e-14)
    assert np.abs(win.eigenvalues - full.eigenvalues[:count]).max() <= 1e-13 * scale
    # every level within the window, then the group of the first level past
    # it, so the spectrum ends on a degenerate-group boundary
    above = np.flatnonzero(win.eigenvalues > win.eigenvalues[0] + window)
    assert above.size and above[0] >= 1
    assert full.eigenvalues[count] - full.eigenvalues[count - 1] > linalg.DEGENERACY_RTOL * scale
    for (rows, levels, v), (full_rows, full_levels, full_v) in zip(win.blocks, full.blocks):
        solved = v.shape[1]
        assert solved < rows.size and np.array_equal(rows, full_rows)
        # the same levels, up to the labels inside a group that spans both chains
        assert np.abs(win.eigenvalues[levels] - full.eigenvalues[full_levels[:solved]]).max() <= 1e-13 * scale
        assert np.abs(v - full_v[:, :solved]).max() <= 1e-10
        assert np.abs(v.T @ v - np.eye(solved)).max() <= 1e-12
        assert not v.flags.writeable


def bisections(monkeypatch):
    """The (diagonal, first, last) of every ?stebz call, and the diagonal of every ?stevd one, in call order."""
    calls = []
    monkeypatch.setattr(linalg, "_DSTEBZ", lambda d, e, first, last, bisect=linalg._DSTEBZ:
                        calls.append((d, first, last)) or bisect(d, e, first, last))
    monkeypatch.setattr(linalg, "_DSTEVD", lambda d, e, solve=linalg._DSTEVD: calls.append((d,)) or solve(d, e))
    return calls


@pytest.mark.parametrize("kind,g,size,window", WINDOW_CASES)
def test_a_windowed_chain_bisects_at_most_one_level_past_those_it_keeps(monkeypatch, kind, g, size, window):
    m = build_model(kind, 1.0, g, size).H
    calls = bisections(monkeypatch)
    win = eigh(m, window=window)
    for (rows, _, v), (diagonal, _) in zip(win.blocks, m.blocks):
        top = (rows.size, rows.size)
        ranges = [call[1:] for call in calls if call[0] is diagonal]
        assert ranges[:2] == [(1, 1), top]  # level 1 and the top level first
        lowest = [ranges[0], *ranges[2:]]
        # each request starts where the one before it ended, so no level is bisected twice
        assert [first for first, _ in lowest] == [1] + [last + 1 for _, last in lowest[:-1]]
        assert lowest[-1][1] <= v.shape[1] + 1


@pytest.mark.parametrize("kind,g,size,window", WINDOW_CASES)
def test_a_count_one_low_costs_a_bisection_not_a_level(monkeypatch, kind, g, size, window):
    m = build_model(kind, 1.0, g, size).H
    want = eigh(m, window=window)
    monkeypatch.setattr(linalg, "_DLARRC", lambda *chain, count=linalg._DLARRC: count(*chain) - 1)
    got = eigh(m, window=window)
    # levels bisected in other batches may differ in their last bits
    assert got.eigenvalues.size == want.eigenvalues.size and got.highest == want.highest and got.matrix is m
    assert np.abs(got.eigenvalues - want.eigenvalues).max() <= 1e-14 * want.energy_scale
    for (_, levels, v), (_, want_levels, w) in zip(got.blocks, want.blocks):
        # the same levels, up to the labels inside a group that spans both chains
        assert levels.size == want_levels.size and np.abs(v - w).max() <= 1e-10
        assert np.abs(got.eigenvalues[levels] - want.eigenvalues[want_levels]).max() <= 1e-14 * want.energy_scale


def test_window_zero_keeps_the_ground_and_the_next_group():
    m = build_model("toy", 1.0, 0.5, 1024).H
    win = eigh(m, window=0.0)
    assert len(win.eigenvalues) == 2 and [v.shape[1] for _, _, v in win.blocks] == [1, 1]


def test_a_wide_window_solves_the_chains_completely(monkeypatch):
    # hot: the window needs more levels than a bisection is worth, so each
    # chain goes to ?stevd once its count at the window's edge is known,
    # and the spectrum is the full one, bit for bit
    m = build_model("toy", 1.0, 0.9, 2048).H
    full = eigh(m)
    calls = bisections(monkeypatch)
    win = eigh(m, window=gibbs_window(0.3))
    for rows, (diagonal, _) in zip(m.rows, m.blocks):
        assert [call[1:] for call in calls if call[0] is diagonal] == [(1, 1), (rows.size, rows.size), ()]
    assert win.complete and win.highest is None and win.matrix is None
    assert np.array_equal(win.eigenvalues, full.eigenvalues)
    assert np.array_equal(dense_eigenvectors(win), dense_eigenvectors(full))


@pytest.mark.parametrize("matrix", [
    lambda: np.asarray(build_model("toy", 1.0, 0.9, 512).H),  # a dense block
    lambda: build_model("toy", 1.0, 0.9, 256).H,  # chains too short to bisect
])
def test_dense_blocks_and_short_chains_ignore_the_window(matrix):
    m = matrix()
    full, win = eigh(m), eigh(m, window=0.0)
    assert win.complete and np.array_equal(win.eigenvalues, full.eigenvalues)
    assert np.array_equal(dense_eigenvectors(win), dense_eigenvectors(full))


def rotated(rng, levels):
    """A dense symmetric block with about these eigenvalues, in a random orthonormal basis."""
    q, _ = np.linalg.qr(rng.normal(size=(len(levels), len(levels))))
    return (q * np.asarray(levels, dtype=float)) @ q.T


def kept_by_rule(full, window, straddle=False):
    """Per block, whether its lowest level in the full spectrum is at most the end of the window's group.

    That group is the one past the window, or with ``straddle`` (a call
    with floors) the one that straddles the window's edge.  Every block is
    kept when the window holds every level (the group has no end).
    """
    end = window_end(full, window, straddle)
    return [end is None or bool(full.eigenvalues[levels[0]] <= end) for _, levels, _ in full.blocks]


def window_end(full, window, straddle=False):
    """The end of the window's group over the full spectrum (``kept_by_rule``), None where the window holds every level."""
    tol = linalg.DEGENERACY_RTOL * full.energy_scale
    return linalg._window_end([full.eigenvalues], full.eigenvalues[0] + window, tol, straddle=straddle)


def assert_kept_blocks_hold_the_full_bits(full, win, kept):
    assert [levels.size > 0 for _, levels, _ in win.blocks] == kept
    for (rows, levels, v), (full_rows, full_levels, full_v), keep in zip(win.blocks, full.blocks, kept):
        assert np.array_equal(rows, full_rows) and v.shape == ((rows.size, rows.size) if keep else (rows.size, 0))
        if keep:
            assert np.array_equal(win.eigenvalues[levels], full.eigenvalues[full_levels])
            assert np.array_equal(v, full_v)


SPLIT_GROUND = [
    # a ground group split across two blocks at 1e-13, then every other block well past it
    ([[0.0, 2.0, 3.0], [1e-13, 2.5, 4.0], [0.8, 1.0, 5.0], [3.0, 4.0, 5.0]], [True, True, False, False]),
    # an exactly degenerate ground pair; the first level past it (0.8), its group (0.8 + 1e-12) and the
    # blocks at 0.9 and 3 hold no Gibbs weight at T = 0, and their floors close the group unsolved
    ([[0.0, 2.0, 3.0], [0.0, 2.5, 4.0], [0.8, 1.0, 5.0], [0.8 + 1e-12, 6.0, 7.0], [0.9, 1.5, 2.0], [3.0, 4.0, 5.0]],
     [True, True, False, False, False, False]),
    # the second block, 1.5e-10 past the ground level and so past the end of the first block's levels, is
    # kept because the third, visited before it for its lower floor, bridges the gap with a level 0.8e-10
    # past the ground (tolerance 1e-10)
    ([[0.0, 0.5, 0.9], [1.5e-10, 0.95, 0.97], [0.8e-10, 0.96, 0.98]], [True, True, True]),
    # the same blocks 0.5 up: levels 0.5 + 0.8e-10 and 0.5 + 1.5e-10 lie within 1e-10 of no level at or
    # below the edge (the ground level 0), so no group straddles it and neither block is solved
    ([[0.0, 0.5, 0.9], [0.5 + 1.5e-10, 0.95, 0.97], [0.5 + 0.8e-10, 0.96, 0.98]], [True, False, False]),
]


@pytest.mark.parametrize("levels,kept", SPLIT_GROUND)
def test_window_zero_keeps_a_split_ground_group_and_no_group_past_it(monkeypatch, levels, kept):
    rng = np.random.default_rng(31)
    # the two ground blocks diagonal, so their ground levels are exact; the rest rotated
    blocks = [np.diag(v) if b < 2 else rotated(rng, v) for b, v in enumerate(levels)]
    rows = [np.arange(3 * b, 3 * b + 3) for b in range(len(blocks))]
    matrix = Sectors(rows, blocks)
    full, floors = eigh(matrix), exact_floors(matrix)
    seen = counted_syevd(monkeypatch)
    win = eigh(matrix, window=0.0, floors=floors)
    assert kept_by_rule(full, 0.0, straddle=True) == kept and len(seen) == sum(kept)
    assert_kept_blocks_hold_the_full_bits(full, win, kept)
    # the scale of the tolerances is that of the solved levels (Spectrum)
    assert gap(win) == gap(full) and win.energy_scale == max(1.0, float(win.eigenvalues[-1]))


def ring_cells(size):
    """(H, full spectrum, window) of every cell of fig2_config("ising", size), T = 0 and the ratio cut, and of a hot cell.

    The hot cell, beta * gap = 10, has a window that holds every level.
    """
    config = fig2_config("ising", size)
    for g in config.g_grid:
        model = build_model("ising", 1.0, g, size)
        full = eigh(model.H)
        for ratio in (*config.temp_grid, 10.0):
            yield model.H, full, gibbs_window(beta_from_gap_ratio(ratio, full))


@pytest.mark.parametrize("size", [6, 8, 10])
def test_windowed_ring_keeps_the_blocks_that_reach_the_window_end_with_their_bits(size):
    left_out = 0
    for matrix, full, window in ring_cells(size):
        win = eigh(matrix, window=window, floors=[-math.inf] * len(matrix.blocks))
        kept = kept_by_rule(full, window, straddle=True)
        assert_kept_blocks_hold_the_full_bits(full, win, kept)
        assert win.highest is None and win.matrix is None and win.dim == full.dim
        # every level up to the end is the full spectrum's, and so is E_1, and the gap, where it lies there
        end = window_end(full, window, straddle=True)
        within = full.eigenvalues.size if end is None else int(np.searchsorted(full.eigenvalues, end, side="right"))
        assert np.array_equal(win.eigenvalues[:within], full.eigenvalues[:within])
        assert within < 2 or gap(win) == gap(full)
        assert win.energy_scale == full.energy_scale
        left_out += kept.count(False)
    assert left_out > 0


@pytest.mark.parametrize("blocks", [
    # the second block reaches past the window, and the end it gives leaves the third out
    [np.diag([0.0, 1.0]), np.diag([0.5, 10.0, 11.0]), np.diag([20.0, 30.0])],
    # the second block lowers the ground level, and with it the window's edge, below the first block's levels
    [np.array([[0.5, -0.5, 0.0], [-0.5, 0.5, 0.0], [0.0, 0.0, 1.95]]), np.array([[0.6, 1.3], [1.3, 0.6]]),
     np.diag([1.92, 1.99])],
])
def test_a_block_solved_in_a_window_without_an_end_can_give_it_one(blocks):
    # blocks are visited in this order (ascending smallest diagonal entry), and
    # the window holds every level of the first
    ends = np.cumsum([0] + [block.shape[0] for block in blocks])
    matrix = Sectors([np.arange(start, end) for start, end in zip(ends[:-1], ends[1:])], blocks)
    full = eigh(matrix)
    assert kept_by_rule(full, 2.0) == [True, True, False]
    assert_kept_blocks_hold_the_full_bits(full, eigh(matrix, window=2.0), [True, True, False])


def assert_same_spectrum(got, want):
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    assert got.highest == want.highest and got.matrix is want.matrix
    for (rows, levels, v), (want_rows, want_levels, w) in zip(got.blocks, want.blocks):
        assert rows is want_rows and np.array_equal(levels, want_levels) and np.array_equal(v, w)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_floors_change_which_dense_blocks_are_solved_never_which_are_kept(data):
    # levels in [-1, 1], so the tolerance is DEGENERACY_RTOL whichever blocks are solved; some levels lie
    # within 1e-10 of a level of another block, some just past it
    anchors = data.draw(st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=4))
    near = st.tuples(st.sampled_from(anchors), st.sampled_from([0.0, 3e-11, 8e-11, 1.2e-10])).map(sum)
    sizes = data.draw(st.lists(st.integers(1, 6), min_size=2, max_size=8))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
    blocks = [rotated(rng, data.draw(st.lists(st.one_of(st.floats(-0.9, 0.9), near), min_size=n, max_size=n)))
              for n in sizes]
    ends = np.cumsum([0, *sizes])
    matrix = Sectors([np.arange(start, end) for start, end in zip(ends[:-1], ends[1:])], blocks)
    window = data.draw(st.sampled_from([0.0, 1e-3, 0.3, 5.0]))
    full = eigh(matrix)
    floors = [full.eigenvalues[levels[0]] - data.draw(st.floats(0.0, 2.0)) if data.draw(st.booleans()) else -math.inf
              for _, levels, _ in full.blocks]
    handed = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_DSYEVD", lambda a, solve=linalg._DSYEVD: handed.append(a) or solve(a))
        win = eigh(matrix, window, floors=floors)
    # with floors the window ends at the group that straddles its edge, without them at the group past it
    assert_kept_blocks_hold_the_full_bits(full, win, kept_by_rule(full, window, straddle=True))
    assert_same_spectrum(eigh(matrix, window, floors=[-math.inf] * len(blocks)), win)
    assert_kept_blocks_hold_the_full_bits(full, eigh(matrix, window), kept_by_rule(full, window))
    # every block solved has its floor within the window's edge, which the end may lie below, or at or below
    # the end plus the tolerance
    tol = linalg.DEGENERACY_RTOL * full.energy_scale
    end = window_end(full, window, straddle=True)
    solved = [next(b for b, block in enumerate(matrix.blocks) if block is a) for a in handed]
    assert end is None or all(floors[b] <= max(full.eigenvalues[0] + window, end + tol) for b in solved)


@pytest.mark.parametrize("kind,g,size", [("toy", 0.999, 1024), ("lmg", 1.3, 1023)])
@pytest.mark.parametrize("window", [0.0, math.log(1e20) / 50.0])
def test_floors_keep_long_chains_whole(kind, g, size, window):
    m = build_model(kind, 1.0, g, size).H
    assert min(rows.size for rows in m.rows) >= 512  # long enough to be bisected without floors
    win = eigh(m, window, floors=[-math.inf] * len(m.blocks))
    assert win.complete
    assert_same_spectrum(win, eigh(m))


def test_a_zero_block_gets_no_eigenpair_and_no_root_column():
    rng = np.random.default_rng(8)
    rho = random_density(rng, 4)
    matrix = Sectors([np.arange(4), np.arange(4, 7), np.arange(7, 9)], [rho, None, None])
    assert np.array_equal(np.asarray(matrix)[4:, :], np.zeros((5, 9)))
    spec = eigh(matrix)
    assert [v.shape for _, _, v in spec.blocks] == [(4, 4), (3, 0), (2, 0)] and len(spec.eigenvalues) == 4
    assert fidelity(matrix, matrix) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(matrix, np.asarray(matrix)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("window", [-1.0, math.nan])
def test_a_negative_window_is_rejected(window):
    with pytest.raises(ValueError, match="window"):
        eigh(build_model("toy", 1.0, 0.5, 512).H, window=window)


class _Without:
    """The library with one symbol hidden, as a build that lacks it would be."""

    def __init__(self, lib, symbol):
        self._lib, self._symbol = lib, symbol

    def __getattr__(self, name):
        if name == self._symbol:
            raise AttributeError(name)
        return getattr(self._lib, name)


@pytest.fixture
def hide_symbol(monkeypatch):
    def hide(name):
        lib = linalg._openblas()
        monkeypatch.setattr(linalg, "_openblas", lambda: _Without(lib, linalg._HOOKS[name][0]))
        linalg._hook.cache_clear()

    yield hide
    linalg._hook.cache_clear()


@pytest.mark.parametrize("name", sorted(linalg._HOOKS))
def test_each_missing_symbol_leaves_the_others_and_the_rows(hide_symbol, name):
    from critfish.fisher import qfi_spectral
    from critfish.sweep import make_config, run_sweep

    config = make_config({"model": "toy", "size": "adaptive", "g_grid": [0.997], "temp_grid": [50.0],
                          "temp_mode": "beta", "estimators": ["qfi_spectral"], "workers": 1})
    want, = run_sweep(config)
    model = build_model("toy", 1.0, 0.997, want.N)
    full = qfi_spectral(model, gibbs(eigh(model.H), 50.0)).total
    assert want.N >= 512  # its chains are long enough to be windowed
    hide_symbol(name)
    assert linalg._hook(name) is None
    assert all(linalg._hook(other) is not None for other in linalg._HOOKS if other != name)
    if name == "set_threads":
        threads = linalg._openblas().scipy_openblas_get_num_threads64_
        threads.argtypes, threads.restype = [], ctypes.c_int
        before = threads()
        linalg.limit_blas_threads(before + 1)  # without the setter this does nothing
        assert threads() == before
    got, = run_sweep(config)
    assert got.status == "ok" and got.N == want.N
    assert got.qfi_spectral_total == pytest.approx(full, rel=1e-10, abs=0)


def test_fidelity_of_cold_ring_rung_densities_matches_the_sqrtm_route():
    # the two rung states of a cold ring cell: most of their blocks hold no solved level
    model = build_model("ising", 1.0, 0.5, 6)
    spectrum = eigh(model.H)
    state = gibbs(spectrum, beta_from_gap_ratio(180.0, spectrum))
    rho, sigma = (density_matrix(fisher._thermal_state(model, state, 1.0 + step)) for step in (-5e-3, 5e-3))
    empty = [block is None for block in rho.blocks]
    assert 0 < sum(empty) < len(empty)
    # an empty block gets no root columns, and a solved one a column per level
    columns, twins = linalg._root_columns(rho)
    assert {b: c.shape for b, c in columns.items()} == {
        b: (rows.size, rows.size) for b, (rows, none) in enumerate(zip(rho.rows, empty)) if not none}
    # a twin of the state's spectrum takes the columns of the block before it
    assert twins == {b for b, kind in enumerate(rho.layout.kinds) if kind == "twin"} & set(columns)
    assert all(columns[b] is columns[b - 1] for b in twins)
    # sqrt F = ||sqrt(rho) sqrt(sigma)||_1 with both roots from scipy's Schur route, on the dense matrices;
    # the states are singular, so sqrtm warns, and its roots err along the kernel, which the norm does not see
    with pytest.warns(scipy.linalg.LinAlgWarning, match="singular"):
        roots = [scipy.linalg.sqrtm(np.asarray(m)) for m in (rho, sigma)]
    want = float(np.sum(scipy.linalg.svdvals(roots[0] @ roots[1]))) ** 2
    assert 0.0 < 1.0 - want < 1e-3
    assert fidelity(rho, sigma) == pytest.approx(want, abs=1e-10)


def numpy_window_end(levels, edge, tol, bound=math.inf, head=None, straddle=False):
    """The window end by one numpy pass over every level seen, sorted into one array: the lazy merge's reference.

    The levels seen are those at or below ``bound`` and below ``head``,
    then ``head`` itself; the end is the last level of the degenerate
    group of the first level past ``edge``, or with ``straddle`` of the
    last level at or below it where one is seen, once the next level is
    seen.
    """
    known = np.sort(np.concatenate(levels))
    known = known[:np.searchsorted(known, bound, side="right")]
    if head is not None:
        known = np.append(known[:np.searchsorted(known, head)], head)
    first = int(np.searchsorted(known, edge, side="right"))
    if straddle and first:
        first -= 1
    gaps = np.flatnonzero(np.diff(known[first:]) > tol)
    return float(known[first + gaps[0]]) if gaps.size else None


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_the_window_end_is_the_numpy_rule_over_the_levels_seen(data):
    # levels on a grid of 1/64, so that sources share levels exactly, and runs of steps at or below the
    # tolerance (degenerate runs) next to steps past it; the edge, the bound and the head (the next
    # floor) fall on levels, between them or outside them
    tol = 1.0 / 64.0
    step = st.sampled_from([0.0, 0.0, 1.0 / 128.0, tol, 3.0 / 64.0, 0.25, 1.0])
    levels = [np.cumsum([data.draw(st.integers(-64, 64)) / 64.0, *data.draw(st.lists(step, max_size=12))])
              for _ in range(data.draw(st.integers(1, 5)))]
    seen = np.concatenate(levels)
    point = st.one_of(st.sampled_from(seen.tolist()), st.floats(-2.0, 8.0))
    edge = data.draw(point)
    bound = data.draw(st.one_of(st.just(math.inf), point))
    head = data.draw(st.one_of(st.none(), point))
    straddle = data.draw(st.booleans())
    assert (linalg._window_end(levels, edge, tol, bound, head, straddle)
            == numpy_window_end(levels, edge, tol, bound, head, straddle))


@pytest.mark.parametrize("kind,g,size,window", [
    ("toy", 0.999, 1024, 0.0),                  # chains bisected a level at a time
    ("toy", 0.6, 512, math.log(1e20) / 50.0),
    ("lmg", 1.3, 1023, math.log(1e20) / 50.0),  # parity doublets
    ("ising", 0.5, 8, 0.0),
    ("ising", 1.3, 8, 0.3),
])
def test_windowed_eigh_picks_the_window_end_of_the_numpy_rule(kind, g, size, window):
    model = build_model(kind, 1.0, g, size)
    full = eigh(model.H)
    floors = [full.eigenvalues[levels[0]] - 1e-3 for _, levels, _ in full.blocks]
    for given_floors in (None, floors):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "_window_end", numpy_window_end)
            want = eigh(model.H, window, floors=given_floors)
        assert_same_spectrum(eigh(model.H, window, floors=given_floors), want)
