import numpy as np
import pytest
import scipy.linalg

from critfish.errors import InvalidDimension
from critfish.operators import make_chain_ops, make_dicke_ops, make_fock_ops

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])


def kron_chain(N, ops_by_site):
    out = np.ones((1, 1))
    for site in range(1, N + 1):
        out = np.kron(out, ops_by_site.get(site, np.eye(2)))
    return out


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
    assert np.allclose(ops.sx, [[0.0, 0.5], [0.5, 0.0]])


def test_dicke_two_spins_off_diagonal():
    ops = make_dicke_ops(2)
    assert ops.sx[1, 0] == pytest.approx(np.sqrt(2.0) / 2.0)
    assert ops.sx[2, 1] == pytest.approx(np.sqrt(2.0) / 2.0)


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
def test_dicke_sx2_band_holds_the_bits_of_the_product(N):
    ops = make_dicke_ops(N)
    assert ops.sx2.k == 2
    assert np.array_equal(np.asarray(ops.sx2), ops.sx @ ops.sx)


def test_dicke_rejects_zero_spins():
    with pytest.raises(InvalidDimension):
        make_dicke_ops(0)


# ---------------------------------------------------------------- Pauli ring

def test_chain_matches_kron_construction():
    for N in (1, 3, 4):
        ops = make_chain_ops(N)
        sz = sum(kron_chain(N, {n: SZ}) for n in range(1, N + 1))
        sx = sum(kron_chain(N, {n: SX}) for n in range(1, N + 1))
        xx = np.zeros((2 ** N, 2 ** N))
        for n in range(1, N + 1):
            m = n % N + 1
            if m == n:
                xx += kron_chain(N, {n: SX @ SX})
            else:
                xx += kron_chain(N, {n: SX, m: SX})
        assert np.array_equal(np.diag(ops.sz_total), sz)
        assert np.array_equal(ops.sx_total, sx)
        assert np.array_equal(ops.xx_pbc, xx)


def test_chain_two_sites_double_bond():
    with pytest.warns(UserWarning, match="twice"):
        ops = make_chain_ops(2)
    assert np.array_equal(ops.xx_pbc, 2.0 * np.kron(SX, SX))


def test_chain_sz_eigenvalues_by_bit_count():
    ops = make_chain_ops(3)
    got = sorted(ops.sz_total)
    # 3 - 2 * popcount over all 3-bit patterns
    want = sorted(3 - 2 * bin(s).count("1") for s in range(8))
    assert got == want


def test_chain_six_sites_bond_count():
    ops = make_chain_ops(6)
    assert ops.dim == 64
    # N distinct two-site flip patterns, each bond contributing weight one
    row = ops.xx_pbc[0]
    assert np.count_nonzero(row) == 6
    assert set(np.unique(ops.xx_pbc)) == {0.0, 1.0}


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
    for m in (fock.x2, dicke.sx, dicke.sx2, chain.sx_total, chain.xx_pbc):
        m = np.asarray(m)
        assert np.array_equal(m, m.T)
