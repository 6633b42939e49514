import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from critfish.errors import DimMismatch, GapTooSmall, InvalidDimension, InvalidMatrix, InvalidTemperature
from critfish.linalg import Sectors, Spectrum, eigh
from critfish.models import build_model, toy_converged_truncation
from critfish.analytic import ToyParams
from critfish.thermal import (
    beta_from_gap_ratio,
    density_matrix,
    gap,
    gibbs,
    thermal_expectation,
)

from spectra import dense_eigenvectors, one_block


def spectrum_from_energies(energies):
    return one_block(energies, np.eye(len(energies)))


def test_two_level_weights():
    delta = 2.0
    state = gibbs(spectrum_from_energies([0.0, delta]), math.log(3.0) / delta)
    assert np.allclose(state.probs, [0.75, 0.25], atol=1e-15)


@pytest.mark.parametrize("omega", [1.0, 1e-12, 1e-13])
def test_zero_temperature_unique_ground(omega):
    # the g = 0 lmg N = 20 levels, omega apart: a tolerance of GROUND_DEGENERACY_RTOL times a scale floored at 1
    # took the next levels into the ground group at omega 1e-12 and 1e-13
    state = gibbs(spectrum_from_energies(omega * np.arange(-10.0, 11.0)), math.inf)
    assert state.probs[0] == 1.0 and not state.probs[1:].any()


def test_zero_temperature_degenerate_ground_group():
    state = gibbs(spectrum_from_energies([1.0, 1.0, 3.0]), math.inf)
    assert np.allclose(state.probs, [0.5, 0.5, 0.0])


def test_geometric_weights_for_harmonic_ladder():
    beta, w = 0.7, 0.9
    energies = w * (np.arange(40) + 1.0)
    state = gibbs(spectrum_from_energies(energies), beta)
    q = math.exp(-beta * w)
    want = (1.0 - q) * q ** np.arange(40)
    assert np.allclose(state.probs, want, rtol=1e-12)


def test_weights_sum_to_one_and_decrease():
    model = build_model("ising", 1.0, 0.8, 4)
    state = gibbs(eigh(model.H), 3.0)
    assert abs(state.probs.sum() - 1.0) <= 1e-12
    assert np.all(np.diff(state.probs) <= 1e-15)


def test_extreme_beta_does_not_overflow():
    model = build_model("lmg", 1.0, 0.5, 6)
    state = gibbs(eigh(model.H), 1e6)
    assert np.isfinite(state.probs).all()
    assert abs(state.probs.sum() - 1.0) <= 1e-12


def test_huge_finite_beta_weights_without_a_warning():
    # beta * 10 overflows to -inf, whose weight is exactly 0; beta * 1e-307 = 10 does not
    beta = 1e308
    state = gibbs(spectrum_from_energies([0.0, 1e-307, 10.0]), beta)
    assert state.probs[2] == 0.0
    assert state.probs[1] / state.probs[0] == pytest.approx(math.exp(-beta * 1e-307), rel=1e-15)
    assert state.probs.sum() == pytest.approx(1.0, abs=1e-15)
    # every excited level of a model overflows: the weights are the T = 0 state's
    spectrum = eigh(build_model("lmg", 1.0, 1.0, 4).H)
    assert np.array_equal(gibbs(spectrum, beta).probs, gibbs(spectrum, math.inf).probs)


def test_rejects_bad_temperature():
    spec = spectrum_from_energies([0.0, 1.0])
    with pytest.raises(InvalidTemperature):
        gibbs(spec, 0.0)
    with pytest.raises(InvalidTemperature):
        gibbs(spec, -2.0)


def test_density_matrix_ground_projector():
    model = build_model("lmg", 1.0, 0.4, 5)
    spec = eigh(model.H)
    rho = np.asarray(density_matrix(gibbs(spec, math.inf)))
    ground = dense_eigenvectors(spec)[:, 0]
    assert np.allclose(rho, np.outer(ground, ground), atol=1e-12)
    assert np.array_equal(rho, rho.T)
    assert float(np.trace(rho)) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12


@pytest.mark.parametrize("kind,size", [("toy", 40), ("lmg", 9), ("ising", 5)])
def test_density_matrix_keeps_the_sectors_of_the_spectrum(kind, size):
    spec = eigh(build_model(kind, 1.0, 0.7, size).H)
    state = gibbs(spec, 0.8)
    rho = density_matrix(state)
    assert [r.tolist() for r in rho.rows] == [rows.tolist() for rows, _, _ in spec.blocks]
    assert all(isinstance(block, np.ndarray) for block in rho.blocks)
    v = dense_eigenvectors(spec)
    assert np.abs(np.asarray(rho) - (v * state.probs) @ v.T).max() <= 1e-15
    # one sector of all rows from a spectrum of one block
    plain = density_matrix(gibbs(one_block(spec.eigenvalues, v), 0.8))
    assert [r.tolist() for r in plain.rows] == [list(range(len(v)))]


def test_density_matrix_shares_a_block_only_with_its_true_twin():
    # blocks: a twin pair (one vectors array, equal weights), a block with no level, then a block with
    # the pair's vectors array and weights again, which follows the empty block and is no twin
    v = np.array([[0.6, 0.8], [-0.8, 0.6]])
    v.flags.writeable = False
    rows = [np.arange(2), np.arange(2, 4), np.arange(4, 6), np.arange(6, 8)]
    levels = [np.array([0, 3]), np.array([1, 4]), np.array([], dtype=np.intp), np.array([2, 5])]
    blocks = tuple((r, lv, v if lv.size else np.empty((2, 0))) for r, lv in zip(rows, levels))
    spectrum = Spectrum(eigenvalues=np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0]), blocks=blocks)
    state = gibbs(spectrum, 0.7)
    rho = density_matrix(state)
    assert rho.blocks[1] is rho.blocks[0]
    assert rho.blocks[2] is None
    assert rho.blocks[3] is not rho.blocks[0] and np.array_equal(rho.blocks[3], rho.blocks[0])
    want = np.zeros((8, 8))
    for r, lv, vectors in blocks:
        want[np.ix_(r, r)] = (vectors * state.probs[lv]) @ vectors.T
    assert np.abs(np.asarray(rho) - want).max() <= 1e-16


def test_density_matrix_hot_limit_is_maximally_mixed():
    model = build_model("ising", 1.0, 0.5, 3)
    spec = eigh(model.H)
    scale = np.abs(spec.eigenvalues).max()
    rho = np.asarray(density_matrix(gibbs(spec, 1e-12 / scale)))
    assert np.abs(rho - np.eye(8) / 8.0).max() <= 1e-9


def test_density_matrix_energy_consistency():
    model = build_model("lmg", 1.0, 0.9, 10)
    spec = eigh(model.H)
    state = gibbs(spec, 1.3)
    rho = np.asarray(density_matrix(state))
    assert float(np.trace(rho @ np.asarray(model.H))) == pytest.approx(
        float(np.dot(state.probs, spec.eigenvalues)), abs=1e-10
    )


@settings(max_examples=30, deadline=None)
@given(beta=st.floats(1e-3, 1e3), seed=st.integers(0, 2 ** 31))
def test_density_matrix_always_valid(beta, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(6, 6))
    state = gibbs(eigh((a + a.T) / 2.0), beta)
    rho = np.asarray(density_matrix(state))
    assert np.array_equal(rho, rho.T)
    assert float(np.trace(rho)) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12


def test_gap_values():
    assert gap(spectrum_from_energies([0.0, 1.0, 5.0])) == 1.0
    model = build_model("ising", 1.0, 0.0, 4)
    assert gap(eigh(model.H)) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(InvalidDimension):
        gap(spectrum_from_energies([1.0]))


def test_toy_gap_is_effective_frequency():
    spec = eigh(build_model("toy", 1.0, 0.75, 256).H)
    assert gap(spec) == pytest.approx(0.5, rel=1e-6)


def test_beta_from_gap_ratio_values():
    # the knob is beta in units of the gap: beta = ratio * (E1 - E0)
    unit_gap = spectrum_from_energies([0.0, 1.0, 2.0])
    assert beta_from_gap_ratio(180.0, unit_gap) == pytest.approx(180.0)
    wide = spectrum_from_energies([0.0, 2.0, 4.0])
    assert beta_from_gap_ratio(1.0, wide) == pytest.approx(2.0)
    assert beta_from_gap_ratio(math.inf, unit_gap) == math.inf


def test_beta_from_gap_ratio_errors():
    spec = spectrum_from_energies([0.0, 1.0])
    with pytest.raises(InvalidTemperature):
        beta_from_gap_ratio(0.0, spec)
    degenerate = spectrum_from_energies([0.0, 1e-20, 1.0])
    with pytest.raises(GapTooSmall):
        beta_from_gap_ratio(5.0, degenerate)


def test_thermal_expectation_identity_and_energy():
    model = build_model("lmg", 1.0, 0.7, 8)
    spec = eigh(model.H)
    state = gibbs(spec, 2.0)
    assert thermal_expectation(state, np.eye(9)) == pytest.approx((1.0, 1.0), abs=1e-12)
    want = (float(np.dot(state.probs, spec.eigenvalues)), float(np.dot(state.probs, spec.eigenvalues ** 2)))
    assert thermal_expectation(state, model.H) == pytest.approx(want, abs=1e-10)
    assert thermal_expectation(state, np.asarray(model.H)) == pytest.approx(want, abs=1e-10)
    with pytest.raises(DimMismatch):
        thermal_expectation(state, np.eye(4))


def test_observable_over_other_rows_is_cut_into_the_sectors_or_rejected():
    model = build_model("lmg", 1.0, 0.7, 8)
    state = gibbs(eigh(model.H), 2.0)
    dense = np.asarray(model.coupling_term)
    want = thermal_expectation(state, model.coupling_term)
    # one block over all rows: the same matrix, cut into the spectrum's sectors
    assert thermal_expectation(state, Sectors([np.arange(9)], [dense])) == pytest.approx(want, rel=1e-12)
    # Sx couples the parity sectors, so its moments need entries no sector holds
    sx = np.diag(np.full(8, 0.5), 1) + np.diag(np.full(8, 0.5), -1)
    with pytest.raises(InvalidMatrix, match="block diagonal over the sectors"):
        thermal_expectation(state, sx)


@pytest.mark.parametrize("g", [0.3, 0.6, 0.9])
@pytest.mark.parametrize("beta_eff", [0.1, 1.0, 10.0])
def test_toy_second_moment_matches_closed_form(g, beta_eff):
    params = ToyParams(omega=1.0, g=g, beta=1.0)  # placeholder beta for scales
    beta = beta_eff / params.effective_frequency
    params = ToyParams(omega=1.0, g=g, beta=beta)
    model, spectrum, _ = toy_converged_truncation(1.0, g, beta)
    state = gibbs(spectrum, beta)
    ops_x2 = np.asarray(model.coupling_term) * 4.0
    # <(a + a^dag)^2> = e^(-2 xi) coth(beta f / 2), and its variance is 2 <.>^2
    mean2 = math.exp(-2.0 * params.squeezing) / math.tanh(beta * params.occupation_frequency / 2.0)
    var2 = 2.0 * mean2 ** 2
    got_mean, got_second = thermal_expectation(state, ops_x2)
    got_var = got_second - got_mean ** 2
    assert got_mean == pytest.approx(mean2, rel=1e-6)
    assert got_var == pytest.approx(var2, rel=1e-6)


def test_purity_increases_with_beta():
    model = build_model("lmg", 1.0, 0.8, 10)
    spec = eigh(model.H)
    purities = [float(np.sum(gibbs(spec, b).probs ** 2)) for b in (0.1, 0.5, 1, 3, 10, 100)]
    assert all(b >= a - 1e-15 for a, b in zip(purities, purities[1:]))
