import numpy as np
import pytest
import scipy.linalg

from critfish.errors import InvalidDimension
from critfish.operators import make_chain_ops, make_dicke_ops, make_fock_ops

from ring import SX, kron_sums, reflect, ring_basis, ring_groups


# ---------------------------------------------------------------- Fock space

def test_fock_number_operator():
    ops = make_fock_ops(12)
    assert np.array_equal(ops.num, np.arange(12.0))
    assert ops.num[5] == 5.0


def test_fock_x2_matrix_elements():
    # ladder algebra: <n|(a+a^dag)^2|n> = 2n+1, <n+2|...|n> = sqrt((n+1)(n+2))
    x2 = np.asarray(make_fock_ops(9).x2)
    for n in range(9):
        assert x2[n, n] == pytest.approx(2 * n + 1)
    for n in range(7):
        assert x2[n + 2, n] == pytest.approx(np.sqrt((n + 1) * (n + 2)))
    assert np.array_equal(x2, x2.T)


def test_fock_x2_smallest_truncation():
    ops = make_fock_ops(2)
    assert np.allclose(ops.x2, np.diag([1.0, 3.0]))


def test_fock_x2_vs_squared_truncated_quadrature():
    # squaring the truncated (a + a^T) loses the ladder traffic through the
    # cut: only the top diagonal entry differs, by exactly n_max
    n_max = 10
    ops = make_fock_ops(n_max)
    a = np.diag(np.sqrt(np.arange(1.0, n_max)), k=1)  # <n-1|a|n> = sqrt(n)
    squared = (a + a.T) @ (a + a.T)
    diff = ops.x2 - squared
    expected = np.zeros((n_max, n_max))
    expected[n_max - 1, n_max - 1] = n_max
    assert np.allclose(diff, expected)


def test_fock_rejects_tiny_truncation():
    with pytest.raises(InvalidDimension):
        make_fock_ops(1)


# ---------------------------------------------------------------- Dicke basis

def test_dicke_single_spin():
    ops = make_dicke_ops(1)
    assert np.allclose(ops.sz, [-0.5, 0.5])
    assert np.array_equal(ops.sx2, np.eye(2) / 4.0)


def test_dicke_two_spins_off_diagonal():
    ops = make_dicke_ops(2)
    # <m+1|Sx|m> = sqrt(2) / 2, so Sx^2 = [[1/2, 0, 1/2], [0, 1, 0], [1/2, 0, 1/2]]
    assert np.asarray(ops.sx2) == pytest.approx(np.array([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]]))


def test_dicke_twenty_spins():
    ops = make_dicke_ops(20)
    assert ops.dim == 21
    assert ops.sz.shape == (21,)
    assert ops.sz.max() == pytest.approx(10.0)


@pytest.mark.parametrize("N", [1, 2, 3, 5, 10, 20, 30])
def test_dicke_casimir_positive(N):
    # j(j+1) I - Sx^2 - Sz^2 equals Sy^2, so it must be PSD
    ops = make_dicke_ops(N)
    j = N / 2.0
    sy2 = j * (j + 1.0) * np.eye(N + 1) - ops.sx2 - np.diag(ops.sz ** 2)
    low = scipy.linalg.eigvalsh((sy2 + sy2.T) / 2.0)[0]
    assert low >= -1e-10 * max(1.0, j * (j + 1.0))


@pytest.mark.parametrize("N", [1, 2, 5, 40])
def test_dicke_sx2_is_the_square_of_sx(N):
    # the closed form and the matrix product agree to one ulp: the product
    # fuses the two diagonal terms into one rounding
    j = N / 2.0
    m = np.arange(N + 1) - j
    sx = np.diag(np.sqrt(j * (j + 1.0) - m[:-1] * (m[:-1] + 1.0)) / 2.0, 1)
    sx += sx.T
    product = sx @ sx
    ops = make_dicke_ops(N)
    assert len(ops.sx2.rows) == 2
    assert np.all(np.abs(np.asarray(ops.sx2) - product) <= np.spacing(np.abs(product)))


def test_dicke_rejects_zero_spins():
    with pytest.raises(InvalidDimension):
        make_dicke_ops(0)


# ---------------------------------------------------------------- Pauli ring

# the momentum basis is not exact in binary, so the rebuilt operators match
# the Kronecker products to this absolute bound instead of bit for bit
BASIS_ATOL = 1e-14


@pytest.mark.parametrize("N", [1, 3, 4, 6, 8, 10])
def test_chain_basis_is_orthogonal_and_keeps_popcount(N):
    ops = make_chain_ops(N)
    u = ring_basis(ops)
    assert np.abs(u.T @ u - np.eye(ops.dim)).max() <= BASIS_ATOL
    popcount = np.array([bin(s).count("1") for s in range(ops.dim)])
    for i in range(ops.dim):
        counts = np.unique(popcount[u[:, i] != 0.0])
        assert counts.size == 1  # each column lies inside one popcount
        assert ops.sz_total[i] == N - 2 * counts[0]  # so sum sigma_z is exactly diagonal


def test_chain_matches_kron_construction():
    for N in (1, 3, 4, 6, 8, 10):
        ops = make_chain_ops(N)
        u = ring_basis(ops)
        sz, sx, xx = kron_sums(N)
        assert np.abs(u @ np.diag(ops.sz_total) @ u.T - sz).max() <= BASIS_ATOL
        assert np.abs(u @ np.asarray(ops.sx2) @ u.T - (sx / 2.0) @ (sx / 2.0)).max() <= BASIS_ATOL
        assert np.abs(u @ np.asarray(ops.xx_pbc) @ u.T - xx).max() <= BASIS_ATOL


@pytest.mark.parametrize("N", [3, 6, 8])
def test_chain_blocks_are_the_parity_momentum_groups(N):
    ops = make_chain_ops(N)
    for matrix in (ops.xx_pbc, ops.sx2):
        assert sorted(r.tolist() for r in matrix.rows) == ring_groups(ops)
        # (parity, j) for j = 0 .. N // 2, each 0 < 2j < N split in two
        assert len(matrix.rows) == 2 * N


def test_chain_eight_sites_block_sizes():
    ops = make_chain_ops(8)
    rows = ops.xx_pbc.rows
    assert [r.size for r in rows] == [20, 14, 14, 17, 17, 14, 14, 18, 16, 16, 16, 16, 16, 16, 16, 16]
    assert all(np.array_equal(r, np.arange(r[0], r[0] + r.size)) for r in rows)  # consecutive
    # each split (parity, j) is an even block and then its twin, on the same orbits
    for even, twin in [(rows[b], rows[b + 1]) for b in (1, 3, 5, 9, 11, 13)]:
        assert not ops.twin[even].any() and ops.twin[twin].all()
        for record in (ops.representative, ops.momentum, ops.partner, ops.sine):
            assert np.array_equal(record[even], record[twin])


@pytest.mark.parametrize("N", [3, 4, 6, 8, 10])
def test_chain_twin_blocks_are_stored_once(N):
    ops = make_chain_ops(N)
    for matrix in (ops.xx_pbc, ops.sx2):
        twins = [b for b in range(1, len(matrix.rows)) if ops.twin[matrix.rows[b][0]]]
        assert len(twins) == 2 * ((N - 1) // 2)
        assert [b for b, kind in enumerate(matrix.layout.kinds) if kind == "twin"] == twins


def test_chain_records_the_reflected_orbit():
    N = 8
    ops = make_chain_ops(N)
    rep = {}
    for state in range(ops.dim):
        orbit, s = [], state
        while s not in orbit:
            orbit.append(s)
            s = (s >> 1) | ((s & 1) << (N - 1))
        rep[state] = min(orbit)
    assert [rep[reflect(N, a)] for a in ops.representative.tolist()] == ops.partner.tolist()
    split = (0 < 2 * ops.momentum) & (2 * ops.momentum < N)
    # a sine row is the second even row of a pair of orbits, listed at its smaller representative
    assert not ops.sine[~split].any()
    assert np.all(ops.partner[ops.sine] > ops.representative[ops.sine])
    assert not ops.twin[~split].any()


def test_chain_two_sites_double_bond():
    with pytest.warns(UserWarning, match="twice"):
        ops = make_chain_ops(2)
    u = ring_basis(ops)
    assert np.abs(u @ np.asarray(ops.xx_pbc) @ u.T - 2.0 * np.kron(SX, SX)).max() <= BASIS_ATOL
    with pytest.warns(UserWarning, match="twice"):  # on every call, built or not
        make_chain_ops(2)


def test_chain_sz_eigenvalues_by_bit_count():
    ops = make_chain_ops(3)
    got = sorted(ops.sz_total)
    # 3 - 2 * popcount over all 3-bit patterns
    want = sorted(3 - 2 * bin(s).count("1") for s in range(8))
    assert got == want


def test_chain_six_sites_bond_count():
    ops = make_chain_ops(6)
    assert ops.dim == 64
    u = ring_basis(ops)
    xx = u @ np.asarray(ops.xx_pbc) @ u.T
    # N distinct two-site flip patterns per state, each bond contributing weight one
    assert np.all(np.sum(np.abs(xx - 1.0) <= BASIS_ATOL, axis=1) == 6)
    assert np.all((np.abs(xx) <= BASIS_ATOL) | (np.abs(xx - 1.0) <= BASIS_ATOL))


def test_chain_arrays_are_read_only():
    ops = make_chain_ops(4)
    for array in (ops.sz_total, ops.representative, ops.momentum, ops.partner, ops.sine, ops.twin,
                  ops.sx2.blocks[0], ops.sx2.blocks[2]):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_chain_dicke_g0_consistency():
    # bare Pauli convention: distinct sz_total values are twice the Sz values
    N = 5
    chain = make_chain_ops(N)
    dicke = make_dicke_ops(N)
    chain_vals = np.unique(chain.sz_total)
    assert np.allclose(chain_vals, 2.0 * dicke.sz)


def test_chain_rejects_out_of_range():
    with pytest.raises(InvalidDimension):
        make_chain_ops(0)
    with pytest.raises(InvalidDimension):
        make_chain_ops(15)


def test_all_operator_matrices_exactly_symmetric():
    fock = make_fock_ops(8)
    dicke = make_dicke_ops(6)
    chain = make_chain_ops(4)
    for m in (fock.x2, dicke.sx2, chain.sx2, chain.xx_pbc):
        m = np.asarray(m)
        assert np.array_equal(m, m.T)
