import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from critfish import linalg
from critfish.errors import DiagonalizationFailed, DimMismatch, InvalidMatrix, NotPSD
from critfish.linalg import _component_labels, eigh, fidelity, psd_sqrt, symmetrize
from critfish.models import build_model


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


def test_psd_sqrt_basics():
    assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    assert np.allclose(psd_sqrt(np.diag([1.0, 0.0])), np.diag([1.0, 0.0]))


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 6))
    m = a @ a.T
    root = psd_sqrt(m)
    assert np.abs(root @ root - m).max() <= 1e-9 * max(1.0, np.abs(m).max())


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPSD):
        psd_sqrt(np.diag([1.0, -1.0]))


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 16), rank=st.integers(1, 16), seed=st.integers(0, 2 ** 31))
def test_psd_sqrt_fixes_projectors(dim, rank, seed):
    rank = min(rank, dim)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    p = q[:, :rank] @ q[:, :rank].T
    # sqrt of noise-level eigenvalues is sqrt(eps): ~1e-8 is the floor here,
    # while the squared contract R @ R == P holds to ~1e-15
    assert np.abs(psd_sqrt(p) - p).max() <= 1e-7
    root = psd_sqrt(p)
    assert np.abs(root @ root - p).max() <= 1e-9


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
