import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from critfish import linalg, models, sweep
from critfish.errors import BeyondCriticality, InvalidDimension, TruncationNotConverged
from critfish.fisher import qfi_spectral
from critfish.linalg import eigh
from critfish.models import TRUNCATION_SIZES, ModelKind, build_model, toy_converged_truncation
from critfish.thermal import gap, gibbs

from spectra import dense_eigenvectors


def test_toy_free_oscillator():
    model = build_model("toy", 1.0, 0.0, 32)
    spec = eigh(model.H)
    assert np.allclose(spec.eigenvalues, np.arange(32.0), atol=1e-12)
    assert np.array_equal(model.dH, np.arange(32.0))


def test_lmg_free_spins():
    model = build_model("lmg", 1.0, 0.0, 20)
    spec = eigh(model.H)
    assert np.allclose(spec.eigenvalues, np.arange(21.0) - 10.0, atol=1e-12)
    assert gap(spec) == pytest.approx(1.0, abs=1e-12)


def test_ising_free_spins():
    model = build_model("ising", 1.0, 0.0, 6)
    spec = eigh(model.H)
    assert spec.eigenvalues[0] == pytest.approx(-6.0, abs=1e-12)
    # a single flipped site costs 2 omega
    assert gap(spec) == pytest.approx(2.0, abs=1e-12)


def test_linear_structure_exact():
    for kind, size in (("toy", 16), ("lmg", 8), ("ising", 4)):
        model = build_model(kind, 1.3, 0.4, size)
        rebuilt = np.diag(1.3 * model.dH) - 0.4 * np.asarray(model.coupling_term)
        assert np.array_equal(model.H, rebuilt)


@pytest.mark.parametrize("kind,size", [("toy", 16), ("lmg", 8), ("ising", 4)])
def test_at_forms_the_hamiltonian_build_model_forms(kind, size):
    model = build_model(kind, 1.0, 0.4, size)
    for w in (0.7, 1.0 - 5e-5, 1.0, 2.5):
        moved = model.at(w)
        assert moved.omega == w and moved.g == model.g and moved.size == model.size
        assert np.array_equal(moved.H, build_model(kind, w, 0.4, size).H)


def test_toy_band_build_forms_no_dense_matrix():
    # a dense 2048 x 2048 float64 matrix alone is 32 MB
    tracemalloc.start()
    try:
        model = build_model("toy", 1.0, 0.5, 2048)
        _, built = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        moved = model.at(1.001)
        _, moved_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert built < 2 ** 20 and moved_peak < 2 ** 20
    assert isinstance(model.H, linalg.Sectors) and isinstance(moved.H, linalg.Sectors)
    assert isinstance(model.coupling_term, linalg.Sectors)
    assert isinstance(build_model("lmg", 1.0, 0.5, 8).H, linalg.Sectors)
    assert isinstance(build_model("ising", 1.0, 0.5, 3).H, linalg.Sectors)


def test_at_keeps_the_parameter_checks():
    toy = build_model("toy", 1.0, 0.9, 16)
    with pytest.raises(BeyondCriticality):
        toy.at(0.9)
    with pytest.raises(BeyondCriticality):
        toy.at(0.5)
    with pytest.raises(ValueError):
        build_model("lmg", 1.0, 0.5, 8).at(0.0)


def test_toy_rejects_critical_coupling():
    with pytest.raises(BeyondCriticality):
        build_model("toy", 1.0, 1.0, 64)
    with pytest.raises(BeyondCriticality):
        build_model("toy", 1.0, 1.5, 64)


def test_bad_parameters():
    with pytest.raises(ValueError):
        build_model("lmg", 0.0, 0.5, 8)
    with pytest.raises(ValueError):
        build_model("lmg", 1.0, -0.1, 8)
    with pytest.raises(InvalidDimension):
        build_model("ising", 1.0, 0.5, 15)
    with pytest.raises(ValueError):
        build_model("heisenberg", 1.0, 0.5, 8)


def test_model_kind_accepts_enum_and_string():
    a = build_model(ModelKind.LMG, 1.0, 0.3, 4)
    b = build_model("lmg", 1.0, 0.3, 4)
    assert np.array_equal(a.H, b.H)


@pytest.mark.parametrize(
    "kind,size,levels",
    [("toy", 48, (0, 1, 5)), ("lmg", 8, (0, 2, 6)), ("ising", 4, (0, 3))],
)
def test_hellmann_feynman_matches_finite_differences(kind, size, levels):
    # dE_n/domega from <n|dH|n> against a central difference of eigenvalues
    omega, g, step = 1.3, 0.4, 1e-6
    spec = eigh(build_model(kind, omega, g, size).H)
    model = build_model(kind, omega, g, size)
    plus = eigh(build_model(kind, omega + step / 2, g, size).H).eigenvalues
    minus = eigh(build_model(kind, omega - step / 2, g, size).H).eigenvalues
    fd = (plus - minus) / step
    v = dense_eigenvectors(spec)
    hf = np.einsum("in,in->n", v, np.diag(model.dH) @ v)
    gaps = np.diff(spec.eigenvalues)
    for n in levels:
        # only isolated levels: degenerate ones need the rotated basis
        isolated = (n == 0 or gaps[n - 1] > 1e-6) and (
            n == len(gaps) or gaps[n] > 1e-6
        )
        if isolated:
            assert hf[n] == pytest.approx(fd[n], rel=1e-6, abs=1e-9)


def test_toy_effective_frequency_gap():
    # level spacing approaches omega sqrt(1 - g/omega) for low-lying states
    omega, g = 1.0, 0.75
    spec = eigh(build_model("toy", omega, g, 256).H)
    expected = omega * math.sqrt(1.0 - g / omega)
    spacings = np.diff(spec.eigenvalues[:11])
    assert np.allclose(spacings, expected, rtol=1e-6)


def test_lmg_finite_size_critical_shift():
    # the minimal-gap coupling exceeds omega at finite size
    omega, size = 1.0, 20
    grid = np.linspace(0.8, 1.6, 81)
    gaps = []
    for g in grid:
        spec = eigh(build_model("lmg", omega, g, size).H)
        gaps.append(gap(spec))
    g_min = grid[int(np.argmin(gaps))]
    assert g_min > omega


@settings(max_examples=20, deadline=None)
@given(shift=st.floats(-50.0, 50.0, allow_nan=False))
def test_gibbs_offset_invariance(shift):
    from critfish.linalg import Spectrum

    model = build_model("lmg", 1.0, 0.6, 6)
    spec = eigh(model.H)
    shifted = Spectrum(eigenvalues=spec.eigenvalues + shift, blocks=spec.blocks)
    a = gibbs(spec, 2.5).probs
    b = gibbs(shifted, 2.5).probs
    assert np.allclose(a, b, atol=1e-14)


def test_truncation_free_oscillator_converges_immediately():
    model, _, _ = toy_converged_truncation(1.0, 0.0, 2.0)
    assert model.size == 64


def test_truncation_mild_coupling_cold():
    model, _, _ = toy_converged_truncation(1.0, 0.1, 10.0)
    assert model.size <= 128


def test_truncation_grows_when_hot_and_squeezed():
    hot, _, _ = toy_converged_truncation(1.0, 0.9, 0.3)
    cold, _, _ = toy_converged_truncation(1.0, 0.9, 30.0)
    assert hot.size >= cold.size
    assert hot.size >= 128


def test_truncation_zero_temperature():
    model, _, breakdown = toy_converged_truncation(1.0, 0.5, math.inf)
    assert model.size <= 128
    assert breakdown is None  # the ladder ran on qfi_pure


def test_truncation_rejects_critical():
    with pytest.raises(BeyondCriticality):
        toy_converged_truncation(1.0, 1.0, 1.0)


def test_truncation_hands_over_the_converged_rung():
    model, spectrum, breakdown = toy_converged_truncation(1.0, 0.9, 5.0)
    fresh = build_model("toy", 1.0, 0.9, model.size)
    assert np.array_equal(model.H, fresh.H) and np.array_equal(model.dH, fresh.dH)
    again = eigh(fresh.H)
    assert np.array_equal(spectrum.eigenvalues, again.eigenvalues)
    assert np.array_equal(dense_eigenvectors(spectrum), dense_eigenvectors(again))
    assert breakdown == qfi_spectral(fresh, gibbs(again, 5.0))


def test_adaptive_cell_diagonalizes_each_rung_once(monkeypatch):
    rungs, solved = [], []
    real_build, real_eigh = models.build_model, linalg.eigh

    def counting_build(kind, omega, g, size):
        rungs.append(size)
        return real_build(kind, omega, g, size)

    def counting_eigh(matrix):
        solved.append(len(matrix))
        return real_eigh(matrix)

    # the ladder imports eigh from linalg at call time; the cell holds its own name
    monkeypatch.setattr(models, "build_model", counting_build)
    monkeypatch.setattr(linalg, "eigh", counting_eigh)
    monkeypatch.setattr(sweep, "eigh", counting_eigh)
    config = sweep.make_config({"model": "toy", "size": "adaptive", "g_grid": [0.9], "temp_grid": [5.0],
                          "temp_mode": "beta", "estimators": ["qfi_spectral"], "workers": 1})
    row, = sweep.run_sweep(config)
    assert row.status == "ok"
    assert rungs == list(TRUNCATION_SIZES[:TRUNCATION_SIZES.index(row.N) + 2])
    assert solved == rungs


def test_truncation_cap_carries_both_rung_values(monkeypatch):
    monkeypatch.setattr(models, "TRUNCATION_SIZES", (64, 128))
    g, beta = 0.999, 50.0
    with pytest.raises(TruncationNotConverged) as info:
        toy_converged_truncation(1.0, g, beta)
    want = []
    for size in (64, 128):
        model = build_model("toy", 1.0, g, size)
        want.append(qfi_spectral(model, gibbs(eigh(model.H), beta)).total)
    assert info.value.last_two == tuple(want)
