import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from critfish.errors import DimMismatch, GapTooSmall, InvalidDimension, InvalidTemperature
from critfish.linalg import Spectrum, eigh
from critfish.models import build_model, toy_converged_truncation
from critfish.analytic import ToyParams, quadrature_moments
from critfish.thermal import (
    beta_from_gap_ratio,
    density_matrix,
    gap,
    gibbs,
    thermal_expectation,
)


def spectrum_from_energies(energies):
    energies = np.asarray(energies, dtype=float)
    return Spectrum(eigenvalues=energies, eigenvectors=np.eye(len(energies)))


def test_two_level_weights():
    delta = 2.0
    state = gibbs(spectrum_from_energies([0.0, delta]), math.log(3.0) / delta)
    assert np.allclose(state.probs, [0.75, 0.25], atol=1e-15)


def test_zero_temperature_unique_ground():
    state = gibbs(spectrum_from_energies([0.0, 1.0, 2.0]), math.inf)
    assert np.array_equal(state.probs, [1.0, 0.0, 0.0])


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


def test_rejects_bad_temperature():
    spec = spectrum_from_energies([0.0, 1.0])
    with pytest.raises(InvalidTemperature):
        gibbs(spec, 0.0)
    with pytest.raises(InvalidTemperature):
        gibbs(spec, -2.0)


def test_density_matrix_ground_projector():
    model = build_model("lmg", 1.0, 0.4, 5)
    spec = eigh(model.H)
    rho = density_matrix(gibbs(spec, math.inf))
    ground = spec.eigenvectors[:, 0]
    assert np.allclose(rho, np.outer(ground, ground), atol=1e-12)
    assert np.array_equal(rho, rho.T)
    assert float(np.trace(rho)) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12


def test_density_matrix_hot_limit_is_maximally_mixed():
    model = build_model("ising", 1.0, 0.5, 3)
    spec = eigh(model.H)
    scale = np.abs(spec.eigenvalues).max()
    rho = density_matrix(gibbs(spec, 1e-12 / scale))
    assert np.abs(rho - np.eye(8) / 8.0).max() <= 1e-9


def test_density_matrix_energy_consistency():
    model = build_model("lmg", 1.0, 0.9, 10)
    spec = eigh(model.H)
    state = gibbs(spec, 1.3)
    rho = density_matrix(state)
    assert float(np.trace(rho @ model.H)) == pytest.approx(
        float(np.dot(state.probs, spec.eigenvalues)), abs=1e-10
    )


@settings(max_examples=30, deadline=None)
@given(beta=st.floats(1e-3, 1e3), seed=st.integers(0, 2 ** 31))
def test_density_matrix_always_valid(beta, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(6, 6))
    state = gibbs(eigh((a + a.T) / 2.0), beta)
    rho = density_matrix(state)
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
    assert thermal_expectation(state, np.eye(9)) == pytest.approx(1.0, abs=1e-12)
    want = float(np.dot(state.probs, spec.eigenvalues))
    assert thermal_expectation(state, model.H) == pytest.approx(want, abs=1e-10)
    with pytest.raises(DimMismatch):
        thermal_expectation(state, np.eye(4))


@pytest.mark.parametrize("g", [0.3, 0.6, 0.9])
@pytest.mark.parametrize("beta_eff", [0.1, 1.0, 10.0])
def test_toy_second_moment_matches_closed_form(g, beta_eff):
    params = ToyParams(omega=1.0, g=g, beta=1.0)  # placeholder beta for scales
    beta = beta_eff / params.effective_frequency
    params = ToyParams(omega=1.0, g=g, beta=beta)
    model, spectrum = toy_converged_truncation(1.0, g, beta)
    state = gibbs(spectrum, beta)
    ops_x2 = np.asarray(model.coupling_term) * 4.0
    mean2, var2 = quadrature_moments(params)
    got_mean = thermal_expectation(state, ops_x2)
    got_var = thermal_expectation(state, ops_x2 @ ops_x2) - got_mean ** 2
    assert got_mean == pytest.approx(mean2, rel=1e-6)
    assert got_var == pytest.approx(var2, rel=1e-6)


def test_purity_increases_with_beta():
    model = build_model("lmg", 1.0, 0.8, 10)
    spec = eigh(model.H)
    purities = [float(np.sum(gibbs(spec, b).probs ** 2)) for b in (0.1, 0.5, 1, 3, 10, 100)]
    assert all(b >= a - 1e-15 for a, b in zip(purities, purities[1:]))
