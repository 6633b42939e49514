import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import event, example, given, reject, settings, strategies as st

from critfish.analytic import ToyParams, fi_errprop_closed, qfi_thermal_classical, qfi_thermal_quantum
from critfish import fisher, linalg, models, selftest
from critfish.cli import fig2_config
from critfish.errors import (
    CritfishError,
    DegenerateLevel,
    DimMismatch,
    IncompleteSpectrum,
    InvalidTemperature,
    NoFDConvergence,
    ZeroVariance,
)
from critfish.fisher import (
    DEGENERACY_RTOL,
    PAIR_WEIGHT_FLOOR,
    PROB_FLOOR,
    _degenerate_groups,
    cfi_projective,
    fi_error_propagation,
    qfi_fidelity_fd,
    qfi_pure,
    qfi_spectral,
    quantum_term_by_offset,
)
from critfish.linalg import Sectors, eigh
from critfish.models import ModelInstance, build_model, gibbs_window, toy_converged_truncation
from critfish.thermal import ThermalState, beta_from_gap_ratio, gap, gibbs, thermal_expectation

from spectra import dense_eigenvectors


def thermal(model, beta):
    return gibbs(eigh(model.H), beta)


def looped_groups(values, tol):
    """The level-by-level loop _degenerate_groups replaced, kept as its reference."""
    groups = []
    start = 0
    n = len(values)
    for i in range(1, n + 1):
        if i == n or values[i] - values[i - 1] > tol:
            groups.append(range(start, i))
            start = i
    return groups


@settings(max_examples=200, deadline=None)
@given(
    gaps=st.lists(st.sampled_from([0.0, 0.125, 0.25, 0.5, 1.0]), max_size=30),
    tol=st.sampled_from([0.0, 0.125, 0.25, 0.5]),
)
@example(gaps=[], tol=0.25)  # no levels
@example(gaps=[0.0], tol=0.25)  # one level
@example(gaps=[0.0, 0.25, 0.25, 0.5, 0.25], tol=0.25)  # gaps exactly at tol stay in the group
def test_degenerate_groups_match_the_level_loop(gaps, tol):
    # dyadic gaps make every difference exact, so a gap can equal tol
    values = np.cumsum(gaps)
    assert _degenerate_groups(values, tol) == looped_groups(values, tol)


# ------------------------------------------------------------- spectral route

@pytest.mark.parametrize(
    "kind,size,beta",
    [("toy", 128, 2.0), ("lmg", 8, 3.0), ("ising", 4, 1.5)],
)
def test_commuting_case_is_pure_probability_information(kind, size, beta):
    # g = 0: dH commutes with H, so the whole Fisher information is
    # beta^2 Var(dH), computed here independently from the weights
    model = build_model(kind, 1.0, 0.0, size)
    state = thermal(model, beta)
    breakdown = qfi_spectral(model, state)
    assert breakdown.quantum_part == 0.0
    spec = eigh(model.H)
    v = dense_eigenvectors(spec)
    slopes = np.einsum("in,in->n", v, np.diag(model.dH) @ v)
    mean = float(np.dot(state.probs, slopes))
    variance = float(np.dot(state.probs, (slopes - mean) ** 2))
    assert breakdown.total == pytest.approx(beta ** 2 * variance, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from([("toy", 2, 200), ("lmg", 1, 30), ("ising", 3, 6)]),
    size_at=st.floats(0.0, 1.0),
    omega=st.floats(0.5, 2.0),
    beta=st.floats(0.05, 20.0),
)
def test_uncoupled_information_is_the_generator_variance(case, size_at, omega, beta):
    # g = 0 for every model: the quantum part is exactly zero and the total
    # is beta^2 Var_p(dH), with the Gibbs weights formed here from dH alone.
    # For toy and lmg every row of the band is isolated.
    kind, low, high = case
    size = low + round(size_at * (high - low))
    model = build_model(kind, omega, 0.0, size)
    breakdown = qfi_spectral(model, thermal(model, beta))
    energies = omega * model.dH
    weights = np.exp(-beta * (energies - energies.min()))
    weights /= weights.sum()
    mean = float(np.dot(weights, model.dH))
    variance = float(np.dot(weights, (model.dH - mean) ** 2))
    assert breakdown.quantum_part == 0.0
    assert breakdown.total == pytest.approx(beta ** 2 * variance, rel=1e-12)


def test_breakdown_sums_and_metadata():
    model = build_model("lmg", 1.0, 0.8, 10)
    breakdown = qfi_spectral(model, thermal(model, 2.0))
    assert breakdown.total == breakdown.classical_part + breakdown.quantum_part
    assert breakdown.classical_part >= 0.0 and breakdown.quantum_part >= 0.0
    assert breakdown.method == "spectral"
    assert breakdown.meta["size"] == 10


def test_spectral_needs_finite_beta_and_matching_dims():
    model = build_model("lmg", 1.0, 0.5, 6)
    with pytest.raises(InvalidTemperature):
        qfi_spectral(model, thermal(model, math.inf))
    other = build_model("lmg", 1.0, 0.5, 8)
    with pytest.raises(DimMismatch):
        qfi_spectral(model, thermal(other, 1.0))


def test_offset_diagnostic_needs_finite_beta_and_matching_dims():
    model = build_model("lmg", 1.0, 0.5, 6)
    with pytest.raises(InvalidTemperature):
        quantum_term_by_offset(model, thermal(model, math.inf))
    other = build_model("lmg", 1.0, 0.5, 8)
    with pytest.raises(DimMismatch, match="state dimension"):
        quantum_term_by_offset(model, thermal(other, 1.0))


@pytest.mark.parametrize("g", [0.3, 0.6, 0.9])
@pytest.mark.parametrize("beta_eff", [0.1, 1.0, 10.0])
def test_toy_thermal_qfi_matches_closed_forms(g, beta_eff):
    scales = ToyParams(omega=1.0, g=g, beta=1.0)
    beta = beta_eff / scales.effective_frequency
    params = ToyParams(omega=1.0, g=g, beta=beta)
    model, spectrum, _ = toy_converged_truncation(1.0, g, beta)
    breakdown = qfi_spectral(model, gibbs(spectrum, beta))
    assert breakdown.quantum_part == pytest.approx(qfi_thermal_quantum(params), rel=1e-6)
    assert breakdown.classical_part == pytest.approx(qfi_thermal_classical(params), rel=1e-6)


def test_spectral_zero_temperature_limit_is_ground_state_information():
    model = build_model("lmg", 1.0, 0.5, 6)
    spec = eigh(model.H)
    beta = 1e6 / gap(spec)
    breakdown = qfi_spectral(model, gibbs(spec, beta))
    assert breakdown.total == pytest.approx(qfi_pure(model, spec, 0), rel=1e-4)


def test_spectral_handles_exact_degeneracies():
    # the periodic ring has exactly degenerate levels; the rotated basis
    # must keep the result consistent with the basis-free fidelity route
    model = build_model("ising", 1.0, 0.6, 4)
    state = thermal(model, 2.0)
    breakdown = qfi_spectral(model, state)
    fd = qfi_fidelity_fd(model, state, delta_omega=1e-3)
    assert fd == pytest.approx(breakdown.total, rel=1e-6)


def test_quantum_mass_sits_two_levels_apart():
    g, beta = 0.6, 2.0
    model, _, _ = toy_converged_truncation(1.0, g, beta)
    state = gibbs(eigh(model.H), beta)  # every level: the ladder's spectrum may be windowed
    offsets = quantum_term_by_offset(model, state)
    total = offsets.sum()
    outside = total - offsets[2]
    assert outside <= 1e-12 * total
    assert total == pytest.approx(qfi_spectral(model, state).quantum_part, rel=1e-12)


def cell(kind, size, g, beta):
    model = build_model(kind, 1.0, g, size)
    return model, thermal(model, beta)


def dense_spectral_reference(model, state):
    """(classical, quantum, offsets) from the full n x n dH in the eigenbasis and every ordered pair.

    Each degenerate group is rotated to diagonalize dH inside each block
    of the spectrum, as the library does: where dH is degenerate within a
    group that spans two blocks, a rotation of the whole group would mix
    them, and the offsets would move between the group's level indices.
    """
    energies, v, probs = state.spectrum.eigenvalues, dense_eigenvectors(state.spectrum), state.probs
    n = len(energies)
    tol = DEGENERACY_RTOL * max(1.0, float(np.max(np.abs(energies))))
    gid = np.concatenate([[0], np.cumsum(np.diff(energies) > tol)])
    block_of = np.empty(n, dtype=int)
    for b, (_, levels, _) in enumerate(state.spectrum.blocks):
        block_of[levels] = b
    m = v.T @ (model.dH[:, None] * v)
    for k in range(gid[-1] + 1):
        for b in np.unique(block_of[gid == k]):
            share = np.flatnonzero((gid == k) & (block_of == b))
            if len(share) > 1:
                restricted = m[np.ix_(share, share)]
                _, u = np.linalg.eigh((restricted + restricted.T) / 2.0)
                m[:, share] = m[:, share] @ u
                m[share, :] = u.T @ m[share, :]
    m = (m + m.T) / 2.0
    slopes = np.diag(m)
    dprobs = -state.beta * probs * (slopes - np.dot(probs, slopes))
    keep = probs > PROB_FLOOR
    classical = float(np.sum(dprobs[keep] ** 2 / probs[keep]))
    weight_sum = probs[:, None] + probs[None, :]
    mask = (weight_sum >= PAIR_WEIGHT_FLOOR) & (gid[:, None] != gid[None, :])
    denom = np.where(mask, weight_sum * (energies[None, :] - energies[:, None]) ** 2, 1.0)
    contrib = np.where(mask, (probs[:, None] - probs[None, :]) ** 2 * m ** 2 / denom, 0.0)
    distance = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    offsets = np.bincount(distance.ravel(), weights=contrib.ravel(), minlength=n)
    return classical, 2.0 * float(contrib.sum()), 2.0 * offsets


def assert_matches_dense_reference(model, state):
    classical, quantum, offsets = dense_spectral_reference(model, state)
    breakdown = qfi_spectral(model, state)
    assert breakdown.classical_part == pytest.approx(classical, rel=1e-12, abs=0.0)
    assert breakdown.quantum_part == pytest.approx(quantum, rel=1e-12, abs=0.0)
    assert breakdown.total == pytest.approx(classical + quantum, rel=1e-12, abs=0.0)
    np.testing.assert_allclose(quantum_term_by_offset(model, state), offsets, rtol=1e-12, atol=1e-12 * quantum)


@pytest.mark.parametrize(
    "kind,size,g,beta",
    [
        ("toy", 2048, 0.999, 50.0),
        ("toy", 256, 0.6, 0.5),
        ("lmg", 40, 1.3, 5.0),     # ordered phase: parity doublets
        ("lmg", 40, 1.3, 200.0),
        ("ising", 6, 0.0, 5.0),    # binomially degenerate groups on both sides of the cut
        ("ising", 6, 0.0, 40.0),
        ("ising", 8, 0.6, 2.0),
    ],
)
def test_weighted_rows_match_the_dense_spectral_sums(kind, size, g, beta):
    assert_matches_dense_reference(*cell(kind, size, g, beta))


def test_group_straddling_the_weight_cut_is_rotated_whole():
    # weights with the cut p >= PAIR_WEIGHT_FLOOR / 2 inside a degenerate
    # group: its light members must still be rotated with the heavy one
    model, state = cell("ising", 6, 0.6, 2.0)
    starts = np.flatnonzero(np.diff(state.spectrum.eigenvalues) > 1e-6) + 1
    j, stop = next((a, b) for a, b in zip(starts, starts[1:]) if a > 4 and b - a > 1)
    probs = state.probs.copy()
    probs[j] = 0.6 * PAIR_WEIGHT_FLOOR
    probs[j + 1:stop] = 0.4 * PAIR_WEIGHT_FLOOR
    probs[stop:] = 1e-3 * PAIR_WEIGHT_FLOOR
    straddling = ThermalState(spectrum=state.spectrum, beta=state.beta, probs=probs)
    assert qfi_spectral(model, straddling).meta["weighted_levels"] == stop
    assert_matches_dense_reference(model, straddling)


def test_crossing_levels_take_their_slopes_from_the_group_block():
    # exactly repeated levels in a random basis: eigh returns an arbitrary
    # basis of each group, in which dH's block is not diagonal
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    energies = np.concatenate([[0.0, 0.3, 0.3, 0.3], np.linspace(1.0, 39.0, 33), [40.0, 40.0, 40.0]])
    h = (q * energies) @ q.T
    model = replace(build_model("lmg", 1.0, 0.5, 39), H=(h + h.T) / 2.0, dH=rng.standard_normal(40))
    state = thermal(model, 1.0)
    assert qfi_spectral(model, state).meta["weighted_levels"] < 37  # the top group is light
    assert_matches_dense_reference(model, state)


def test_weighted_levels_count_only_levels_with_gibbs_weight():
    cold = qfi_spectral(*cell("toy", 2048, 0.999, 50.0))
    hot = qfi_spectral(*cell("toy", 256, 0.6, 0.5))
    assert cold.meta["weighted_levels"] <= 64 < hot.meta["weighted_levels"]


# ------------------------------------------------------------ pure eigenstates

def test_pure_state_values():
    model = build_model("toy", 1.0, 0.5, 128)
    spec = eigh(model.H)
    assert qfi_pure(model, spec, 0) == pytest.approx(0.125, rel=1e-10)
    assert qfi_pure(model, spec, 1) == pytest.approx(0.375, rel=1e-10)


def test_pure_state_free_models_are_insensitive():
    for kind, size in (("toy", 32), ("lmg", 8), ("ising", 3)):
        model = build_model(kind, 1.0, 0.0, size)
        spec = eigh(model.H)
        assert qfi_pure(model, spec, 0) == pytest.approx(0.0, abs=1e-18)


def test_pure_state_rejects_degenerate_level():
    model = build_model("ising", 1.0, 0.0, 3)
    spec = eigh(model.H)  # levels 1..3 share E = -1
    with pytest.raises(DegenerateLevel):
        qfi_pure(model, spec, 1)
    with pytest.raises(ValueError):
        qfi_pure(model, spec, 99)


@pytest.mark.parametrize("kind,g,size,level,window", [
    ("toy", 0.999, 2048, 0, gibbs_window(math.inf)),
    ("ising", 1.0, 8, 0, None),
    ("lmg", 1.0, 20, 1, None),
])
def test_pure_state_matches_a_dense_eigenvector_sum(kind, g, size, level, window):
    # the reference: 4 sum_m |<m|dH|n>|^2 / (E_n - E_m)^2 over the columns of
    # the full spectrum's n x n eigenvector matrix, no block or window in sight
    model = build_model(kind, 1.0, g, size)
    full = eigh(model.H)
    v = dense_eigenvectors(full)
    energies = full.eigenvalues
    column = v.T @ (model.dH * v[:, level])
    others = np.arange(len(energies)) != level
    want = 4.0 * float(np.sum(column[others] ** 2 / (energies[level] - energies[others]) ** 2))
    spectrum = full if window is None else eigh(model.H, window=window)
    assert spectrum.complete == (window is None)
    assert qfi_pure(model, spectrum, level) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("kind,g,size", [("ising", 0.5, 8), ("ising", 1.3, 8), ("lmg", 0.7, 20), ("lmg", 1.3, 20)])
def test_pure_state_matches_a_dense_diagonalization_level_by_level(kind, g, size):
    # the reference diagonalizes the dense H as one matrix, no sector in sight, and sums over every other level
    model = build_model(kind, 1.0, g, size)
    energies, v = np.linalg.eigh(np.asarray(model.H))
    spectrum = eigh(model.H)
    tol = DEGENERACY_RTOL * spectrum.energy_scale
    lone = [n for n in range(len(energies)) if np.all(np.abs(np.delete(energies, n) - energies[n]) > tol)]
    assert len(lone) >= 4
    for level in lone[:3] + lone[-1:]:
        column = v.T @ (model.dH * v[:, level])
        others = np.arange(len(energies)) != level
        want = 4.0 * float(np.sum(column[others] ** 2 / (energies[level] - energies[others]) ** 2))
        assert qfi_pure(model, spectrum, level) == pytest.approx(want, rel=1e-10)


def test_pure_state_reads_only_the_block_of_its_level():
    # every other block weighs nothing: no element rows, no rotation, slopes 0.0
    model = build_model("ising", 1.0, 0.5, 8)
    spectrum = eigh(model.H)
    probs = np.zeros(len(spectrum.eigenvalues))
    probs[0] = 1.0
    quantum, slopes, weighted = fisher._spectral_sums(
        spectrum, model.dH, DEGENERACY_RTOL * spectrum.energy_scale, probs)
    levels, = [levels for _, levels, _ in spectrum.blocks if 0 in levels.tolist()]
    assert weighted == 1 and quantum == qfi_pure(model, spectrum, 0)
    assert slopes[levels].all() and not np.delete(slopes, levels).any()


# ------------------------------------------------------------- fidelity route

def test_fidelity_route_matches_spectral():
    model = build_model("lmg", 1.0, 0.5, 8)
    state = thermal(model, 5.0)
    breakdown = qfi_spectral(model, state)
    fd = qfi_fidelity_fd(model, state, delta_omega=1e-3)
    assert fd == pytest.approx(breakdown.total, rel=1e-4)


def test_fidelity_route_zero_temperature_toy():
    model, spectrum, _ = toy_converged_truncation(1.0, 0.5, math.inf)
    fd = qfi_fidelity_fd(model, gibbs(spectrum, math.inf), delta_omega=1e-2)
    assert fd == pytest.approx(0.125, rel=1e-4)


def test_fidelity_route_identical_states_is_zero():
    # g = 0 at T = 0: H moves with omega, but its ground state, an eigenstate of dH, does not, and
    # both evaluations see the same state
    for kind, size in (("lmg", 6), ("lmg", 20), ("ising", 6)):
        model = build_model(kind, 1.0, 0.0, size)
        fd = qfi_fidelity_fd(model, thermal(model, math.inf))
        assert fd == 0.0


def test_fidelity_ladder_on_a_step_that_moves_no_entry_of_h_raises():
    base = build_model("lmg", 1.0, 0.4, 6)

    class Frozen(ModelInstance):
        # H does not move with omega: both evaluations see the same state, and no step resolves a move
        def hamiltonian(self, w):
            return self.H

    frozen = Frozen(**{field.name: getattr(base, field.name) for field in fields(base)})
    with pytest.raises(NoFDConvergence) as info:
        qfi_fidelity_fd(frozen, thermal(frozen, 2.0))
    assert info.value.estimates == (0.0,)


def test_fidelity_route_reports_no_convergence():
    rng = np.random.default_rng(0)
    base = build_model("lmg", 1.0, 0.5, 6)

    class Noisy(ModelInstance):
        # every move along omega lands on a freshly jittered Hamiltonian
        def hamiltonian(self, w):
            h = build_model("lmg", w, 0.5, 6).H
            jittered = [(d + rng.normal(scale=1e-4, size=d.size), off) for d, off in h.blocks]
            return Sectors(h.rows, jittered)

    noisy = Noisy(**{field.name: getattr(base, field.name) for field in fields(base)})
    with pytest.raises(NoFDConvergence) as info:
        qfi_fidelity_fd(noisy, thermal(base, 2.0), delta_omega=1e-4)
    assert len(info.value.estimates) == 2


def test_fidelity_ladder_ends_at_a_floored_rung_below_a_nonzero_one():
    # beta * gap = 0.01: the first rung's infidelity sits just over the roundoff
    # floor and the halved rung's under it, where every smaller step stays
    model = build_model("ising", 1.0, 0.55, 8)
    spectrum = eigh(model.H)
    state = gibbs(spectrum, beta_from_gap_ratio(0.01, spectrum))
    want = qfi_spectral(model, state).total
    with pytest.raises(NoFDConvergence) as info:
        qfi_fidelity_fd(model, state)
    coarse, fine = info.value.estimates
    assert coarse == pytest.approx(want, rel=1e-3) and fine == 0.0
    assert qfi_fidelity_fd(model, state, delta_omega=1e-3) == pytest.approx(want, rel=1e-4)


@pytest.mark.parametrize("omega,delta_omega", [(1e-300, None), (1.0, 1e-300), (1.0, 0.0)])
def test_ladders_with_no_step_to_resolve_raise_at_once(monkeypatch, omega, delta_omega):
    # a first step of 0.0, or one whose square underflows, can resolve no estimate
    model = build_model("lmg", omega, 0.5, 20)
    state = thermal(model, 1.0)
    rung_state = fisher._thermal_state
    rungs = []

    def counted(model, state, at_omega):
        rungs.append(at_omega)
        return rung_state(model, state, at_omega)

    monkeypatch.setattr(fisher, "_thermal_state", counted)
    with pytest.raises(NoFDConvergence) as info:
        qfi_fidelity_fd(model, state, delta_omega)
    assert info.value.estimates == () and rungs == []
    for estimator in (cfi_projective, fi_error_propagation):
        with pytest.raises(NoFDConvergence):
            estimator(model, state, model.observable, delta_omega)
        assert rungs == [omega]  # the centre state alone
        rungs.clear()


def test_fidelity_ladder_at_a_huge_omega_reads_zero_like_the_spectral_sum():
    # the step's square overflows, but every rung floors before it is formed
    model = build_model("lmg", 1e300, 0.5, 20)
    assert qfi_fidelity_fd(model, thermal(model, 1.0)) == 0.0


def test_fidelity_ladder_floored_from_its_first_rung_on_moving_states_raises():
    # g >> omega: the first step, 1e-4 omega, moves the state by far less than
    # the fidelity's roundoff floor can see, yet the two density matrices differ
    model = build_model("lmg", 1e-6, 0.5, 20)
    state = thermal(model, 1.0)
    assert qfi_spectral(model, state).total > 20.0
    with pytest.raises(NoFDConvergence) as info:
        qfi_fidelity_fd(model, state)
    assert info.value.estimates == (0.0,)


@pytest.mark.parametrize("omega", [1e-9, 1e-10, 1e-11, 1e-12, 1e-14, 1e-20])
def test_fidelity_ladder_floored_from_its_first_rung_below_roundoff_raises(omega):
    # the first step, 1e-4 omega, moves the density matrices by no more than their roundoff (down to
    # 1e-14), or moves no entry of H at all (1e-20): no step of the ladder resolves the move
    model = build_model("lmg", omega, 0.5, 20)
    state = thermal(model, 1.0)
    assert qfi_spectral(model, state).total > 20.0
    with pytest.raises(NoFDConvergence) as info:
        qfi_fidelity_fd(model, state)
    assert info.value.estimates == (0.0,)


def test_spectral_sum_at_a_huge_energy_scale_reads_zero_without_a_warning():
    # the pairs' denominators overflow to inf, and their terms go to 0
    model = build_model("lmg", 1e300, 0.5, 20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert qfi_spectral(model, thermal(model, 1.0)).total == 0.0


# ------------------------------------------------- measurement-based estimators

@pytest.mark.parametrize("kind,g,size", [("toy", 0.5, 64), ("lmg", 1.0, 20), ("ising", 0.5, 6)])
@pytest.mark.parametrize("ratio", [1.0, 180.0])
def test_eigenbasis_and_sld_measurements_give_the_spectral_parts(kind, g, size, ratio):
    # measuring H's eigenbasis, each level its own outcome, gives the classical part; measuring the
    # symmetric logarithmic derivative L_nm = 2 drho_nm / (p_n + p_m) gives the whole QFI
    model = build_model(kind, 1.0, g, size)
    spectrum = eigh(model.H)
    state = gibbs(spectrum, beta_from_gap_ratio(ratio, spectrum))
    breakdown = qfi_spectral(model, state)
    classical, total = selftest._measured_parts(model, state)
    assert abs(classical - breakdown.classical_part) <= 1e-8 * breakdown.total
    assert abs(total - breakdown.total) <= 1e-8 * breakdown.total


def test_energy_measurement_extracts_probability_information():
    model = build_model("lmg", 1.0, 0.7, 6)
    state = thermal(model, 2.0)
    breakdown = qfi_spectral(model, state)
    got = cfi_projective(model, state, model.H, delta_omega=1e-3)
    assert got == pytest.approx(breakdown.classical_part, rel=1e-4)


def test_measurement_rejects_mismatched_observable():
    observable = build_model("lmg", 1.0, 0.5, 6).observable
    model = build_model("lmg", 1.0, 0.5, 8)
    with pytest.raises(DimMismatch, match="observable shape"):
        cfi_projective(model, thermal(model, 2.0), observable)


def test_identity_measurement_carries_nothing():
    model = build_model("lmg", 1.0, 0.7, 6)
    got = cfi_projective(model, thermal(model, 2.0), np.eye(7))
    assert got == 0.0


def test_single_outcome_measurement_still_checks_the_shape():
    # the identity has one outcome; a wrong size must not pass as "carries nothing"
    model = build_model("lmg", 1.0, 0.7, 6)
    with pytest.raises(DimMismatch, match="observable shape"):
        cfi_projective(model, thermal(model, 2.0), np.eye(5))


def test_finite_difference_routes_reject_a_state_over_other_rows():
    # the rung states take their floors block by block from the state's spectrum
    model = build_model("lmg", 1.0, 0.7, 6)
    dense = gibbs(eigh(np.asarray(model.H)), 2.0)
    observable = model.observable
    for estimate in (lambda: qfi_fidelity_fd(model, dense), lambda: cfi_projective(model, dense, observable),
                     lambda: fi_error_propagation(model, dense, observable)):
        with pytest.raises(DimMismatch, match="rows"):
            estimate()


def test_an_observable_with_a_zero_block_measures_as_its_dense_matrix():
    # the rows of a zero block are an outcome 0 of the measurement, not rows without one
    model = build_model("lmg", 1.0, 0.8, 6)
    state = thermal(model, 2.0)
    square = model.observable
    observable = Sectors(square.rows, [square.blocks[0], None])
    dense = np.asarray(observable)
    assert thermal_expectation(state, observable) == thermal_expectation(state, dense)
    assert cfi_projective(model, state, observable) == cfi_projective(model, state, dense)
    assert fi_error_propagation(model, state, observable) == fi_error_propagation(model, state, dense)


def test_squared_spin_outcomes_are_merged():
    # measuring Sx^2 must group +-m into one outcome: for N spins that is
    # ceil((N+1)/2) distinct outcomes, not N+1
    from critfish.fisher import _outcome_projectors

    N = 6
    _, groups = _outcome_projectors(build_model("lmg", 1.0, 0.5, N).observable)
    assert len(groups) == (N + 2) // 2


def test_error_propagation_matches_closed_form():
    g, beta = 0.6, 2.0
    model, _, _ = toy_converged_truncation(1.0, g, beta)
    got = fi_error_propagation(model, thermal(model, beta), model.observable, delta_omega=1e-3)
    want = fi_errprop_closed(ToyParams(omega=1.0, g=g, beta=beta))
    assert got == pytest.approx(want, rel=1e-5)


def test_error_propagation_free_oscillator():
    # g = 0 limit of the closed form: beta^2 csch^2(beta omega) / 2
    beta, n_max = 1.5, 96
    model = build_model("toy", 1.0, 0.0, n_max)
    got = fi_error_propagation(model, thermal(model, beta), model.observable, delta_omega=1e-3)
    want = beta ** 2 / (2.0 * math.sinh(beta) ** 2)
    assert got == pytest.approx(want, rel=1e-5)


def test_error_propagation_is_zero_where_the_mean_does_not_move():
    # at g = 0 the ring's Gibbs states are diagonal, so <(Sx/2)^2> = N/4 for
    # every omega: the differences are roundoff and the slope is exactly 0
    model = build_model("ising", 1.0, 0.0, 6)
    assert fi_error_propagation(model, thermal(model, 1.74), model.observable) == 0.0


def test_error_propagation_rejects_zero_variance():
    model = build_model("lmg", 1.0, 0.5, 6)
    with pytest.raises(ZeroVariance):
        fi_error_propagation(model, thermal(model, 2.0), np.eye(7))


@pytest.mark.parametrize("kind,size", [("lmg", 8), ("ising", 4)])
@pytest.mark.parametrize("g,beta", [(0.5, 1.0), (0.9, 3.0), (1.1, 5.0)])
def test_estimator_ordering(kind, size, g, beta):
    model = build_model(kind, 1.0, g, size)
    obs = model.observable
    state = thermal(model, beta)
    qfi = qfi_spectral(model, state).total
    cfi = cfi_projective(model, state, obs, delta_omega=1e-3, fd_rtol=1e-6)
    errprop = fi_error_propagation(model, state, obs, delta_omega=1e-3, fd_rtol=1e-6)
    slack = 1e-6
    assert errprop <= cfi + slack
    assert cfi <= qfi + slack


@settings(max_examples=100, deadline=None)
@given(
    case=st.one_of(
        st.tuples(st.just("lmg"), st.integers(4, 12)),
        st.tuples(st.just("ising"), st.sampled_from([4, 6])),
    ),
    g=st.floats(0.0, 1.5),
    beta=st.floats(0.2, 10.0),
)
@example(case=("lmg", 8), g=0.0, beta=9.6)  # errprop and cfi agree to ~1e-14 here
def test_estimator_ordering_property(case, g, beta):
    kind, size = case
    model = build_model(kind, 1.0, g, size)
    obs = model.observable
    try:
        state = thermal(model, beta)
        qfi = qfi_spectral(model, state).total
        cfi = cfi_projective(model, state, obs, fd_rtol=1e-6)
        errprop = fi_error_propagation(model, state, obs, fd_rtol=1e-6)
    except CritfishError as exc:
        # --hypothesis-show-statistics reports how often this happens
        event(f"rejected: {type(exc).__name__}")
        reject()
    slack = 1e-6
    assert errprop <= cfi + slack
    assert cfi <= qfi + slack


def test_quantum_part_grows_with_temperature_toward_twice_ground():
    g = 0.9
    params = ToyParams(omega=1.0, g=g, beta=1.0)
    w_eff = params.effective_frequency
    betas = [b / w_eff for b in (10.0, 3.0, 1.0, 0.3, 0.1)]
    model, spec, _ = toy_converged_truncation(1.0, g, betas[-1])
    values = [qfi_spectral(model, gibbs(spec, b)).quantum_part for b in betas]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    ground = qfi_pure(model, spec, 0)
    assert values[-1] == pytest.approx(2.0 * ground, rel=5e-3)


WINDOWED_CELLS = [
    *[("toy", g, n, 50.0) for g in (0.5, 0.978, 0.999) for n in (1024, 2048)],
    ("toy", 0.9, 2048, 3.0),
    # so cold that the window stops short of the level two above the ground,
    # which carries its quantum mass: only the resolvent reaches it
    ("toy", 0.5, 1024, 1000.0),
    ("toy", 0.999, 2048, 1000.0),
    ("lmg", 1.3, 2000, 5.0),  # ordered phase: degenerate doublets across the two chains
    ("lmg", 0.6, 1600, 2.0),
]


@pytest.mark.parametrize("kind,g,size,beta", WINDOWED_CELLS)
def test_windowed_spectrum_gives_the_full_route_qfi(kind, g, size, beta):
    model = build_model(kind, 1.0, g, size)
    full = qfi_spectral(model, thermal(model, beta))
    spectrum = eigh(model.H, window=gibbs_window(beta))
    assert not spectrum.complete
    got = qfi_spectral(model, gibbs(spectrum, beta))
    for part in ("total", "classical_part", "quantum_part"):
        assert abs(getattr(got, part) - getattr(full, part)) <= 1e-10 * full.total
    assert got.meta["weighted_levels"] == full.meta["weighted_levels"]
    assert got.meta["degeneracy_tol"] == pytest.approx(full.meta["degeneracy_tol"], rel=1e-14)


@pytest.mark.parametrize("g,size", [(0.5, 1024), (0.999, 2048)])
def test_pure_state_information_reaches_unsolved_levels_through_the_resolvent(g, size):
    model = build_model("toy", 1.0, g, size)
    spectrum = eigh(model.H, window=0.0)
    assert len(spectrum.eigenvalues) == 2
    assert qfi_pure(model, spectrum, 0) == pytest.approx(qfi_pure(model, eigh(model.H), 0), rel=1e-10)
    with pytest.raises(ValueError, match="out of range"):
        qfi_pure(model, spectrum, 2)


def test_mass_by_distance_rejects_a_windowed_spectrum():
    model = build_model("toy", 1.0, 0.999, 1024)
    state = gibbs(eigh(model.H, window=gibbs_window(50.0)), 50.0)
    with pytest.raises(IncompleteSpectrum):
        quantum_term_by_offset(model, state)


def full_route_ladder(monkeypatch, g, beta):
    """toy_converged_truncation with every rung diagonalized completely."""
    with monkeypatch.context() as patch:
        solve = linalg.eigh
        patch.setattr(linalg, "eigh", lambda matrix, window=None: solve(matrix))
        return toy_converged_truncation(1.0, g, beta)


LADDERS = [
    *[(g, beta_eff / ToyParams(1.0, g, 1.0).effective_frequency) for g in (0.3, 0.6, 0.9) for beta_eff in (0.1, 1.0, 10.0)],
    *[(g, 50.0) for g in (0.5, 0.95, 0.997, 0.999)],
    (0.999, math.inf),
]


@pytest.mark.parametrize("g,beta", LADDERS)
def test_windowed_ladder_accepts_the_rung_of_the_full_route(monkeypatch, g, beta):
    model, spectrum, breakdown = toy_converged_truncation(1.0, g, beta)
    full_model, _, full_breakdown = full_route_ladder(monkeypatch, g, beta)
    assert model.size == full_model.size
    if breakdown is None:  # T = 0: the ladder ran on qfi_pure
        assert full_breakdown is None and math.isinf(beta)
        return
    assert breakdown.total == pytest.approx(full_breakdown.total, rel=1e-10, abs=0)


@pytest.mark.parametrize("kind,g,size,beta", [("toy", 0.999, 1024, 50.0), ("lmg", 1.3, 600, 5.0), ("lmg", 0.9, 600, 50.0)])
def test_rung_states_of_chains_stay_complete(kind, g, size, beta):
    # the rungs solve their chains whole, to the bits of an unwindowed solve
    model = build_model(kind, 1.0, g, size)
    centre = thermal(model, beta)
    for omega in (1.0 - 5e-5, 1.0, 1.0 + 5e-5):
        state = fisher._thermal_state(model, centre, omega)
        full = eigh(build_model(kind, omega, g, size).H)
        assert state.spectrum.complete and state.spectrum.highest is None
        assert np.array_equal(state.spectrum.eigenvalues, full.eigenvalues)
        assert all(np.array_equal(v, w) for (_, _, v), (_, _, w) in zip(state.spectrum.blocks, full.blocks))


def ring_rung_cells(size):
    """(model, its Gibbs state) of every coupling of fig2_config("ising", size) at T = 0, its finite ratio and ratio 10."""
    config = fig2_config("ising", size)
    for g in config.g_grid:
        model = build_model("ising", 1.0, g, size)
        spectrum = eigh(model.H)
        for ratio in (*config.temp_grid, 10.0):
            yield model, gibbs(spectrum, beta_from_gap_ratio(ratio, spectrum))


@pytest.mark.parametrize("size", [6, 8, 10])
def test_rung_states_from_floors_equal_the_rung_states_without_them(size):
    delta = fig2_config("ising", size).delta_omega
    for k, (model, centre) in enumerate(ring_rung_cells(size)):
        window = gibbs_window(centre.beta)
        # rungs on one side of the centre, the side changing from cell to cell
        for omega in model.omega + (-1) ** k * np.array([delta / 4, delta / 2, 0.3]):
            state = fisher._thermal_state(model, centre, omega)
            H = build_model("ising", omega, model.g, size).H
            want = gibbs(eigh(H, window, floors=[-math.inf] * len(H.blocks)), centre.beta)
            assert np.array_equal(state.spectrum.eigenvalues, want.spectrum.eigenvalues)
            assert np.array_equal(state.probs, want.probs)
            for (_, levels, v), (_, want_levels, w) in zip(state.spectrum.blocks, want.spectrum.blocks):
                assert np.array_equal(levels, want_levels) and np.array_equal(v, w)


@pytest.mark.parametrize("size", [6, 8, 10])
def test_rung_states_formed_block_by_block_equal_those_of_the_formed_rung_h(size):
    # the rung's H forms its blocks as eigh solves them; the same eigh on the H build_model forms whole gives the
    # same bits
    delta = fig2_config("ising", size).delta_omega
    for model, centre in ring_rung_cells(size):
        for omega in model.omega + np.array([-delta / 2, delta / 2]):
            state = fisher._thermal_state(model, centre, omega)
            floors = centre.spectrum.lows - abs(omega - model.omega) * model.generator_bounds
            want = eigh(build_model("ising", omega, model.g, size).H, gibbs_window(centre.beta), floors=floors)
            assert np.array_equal(state.spectrum.eigenvalues, want.eigenvalues)
            assert state.spectrum.kept == want.kept
            for (_, levels, v), (_, want_levels, w) in zip(state.spectrum.blocks, want.blocks):
                assert np.array_equal(levels, want_levels) and np.array_equal(v, w)


def test_cold_rung_forms_only_the_blocks_it_solves(monkeypatch):
    model = build_model("ising", 1.0, 0.5, 8)
    spectrum = eigh(model.H)
    centre = gibbs(spectrum, beta_from_gap_ratio(180.0, spectrum))
    H = build_model("ising", 1.0 + 5e-5, 0.5, 8).H
    formed, solved = [], []
    block, solve = models._block, linalg._DSYEVD
    monkeypatch.setattr(models, "_block", lambda omega, parts, b: formed.append(b) or block(omega, parts, b))
    monkeypatch.setattr(linalg, "_DSYEVD", lambda a: solved.append(a) or solve(a))
    state = fisher._thermal_state(model, centre, 1.0 + 5e-5)
    # each block formed is solved once, and a kept twin is neither formed nor solved again; the ground block
    # alone holds Gibbs weight, and the floor of the block of E_1 closes the ground group unsolved
    assert len(formed) == len(set(formed)) == len(solved) == 1
    assert all(np.array_equal(a, H.blocks[b]) for a, b in zip(solved, formed))
    assert set(formed) == set(state.spectrum.kept) - state.spectrum.twins
    assert len(model.H.layout.dense) == 10


@pytest.mark.parametrize("size", [6, 8, 10])
def test_rung_states_keep_the_unwindowed_bits_and_drop_only_levels_without_weight(size):
    delta = fig2_config("ising", size).delta_omega
    left_out = 0
    for model, centre in ring_rung_cells(size):
        if centre.beta < beta_from_gap_ratio(180.0, centre.spectrum):
            continue  # T = 0 and beta * gap 180 only
        for omega in model.omega + np.array([-delta / 2, delta / 2]):
            state = fisher._thermal_state(model, centre, omega)
            full = gibbs(eigh(build_model("ising", omega, model.g, size).H), centre.beta)
            for b, ((_, levels, v), (_, full_levels, w)) in enumerate(zip(state.spectrum.blocks, full.spectrum.blocks)):
                if levels.size:
                    # a kept block holds the unwindowed levels, vectors and Gibbs weights, bit for bit
                    assert np.array_equal(state.spectrum.eigenvalues[levels], full.spectrum.eigenvalues[full_levels])
                    assert np.array_equal(v, w) and np.array_equal(state.probs[levels], full.probs[full_levels])
                else:
                    # a block left out weighs below the window's weight on every level
                    assert (full.probs[full_levels] < models.WINDOW_WEIGHT).all()
                    left_out += 1
    assert left_out > 0


@pytest.mark.parametrize("size,g,kept", [
    # the ordered phase's ground doublet 0.024 (N = 10) and 0.013 (N = 12) apart, far past the degeneracy
    # tolerance of about 2e-9: at T = 0 its upper level holds no weight, and its block is left out
    (10, 1.3, 1), (12, 1.3, 1),
    # deep in the ordered phase the doublet's splitting, 3.7e-10 and 9.2e-10, lies within the tolerance
    # (1e-8 and 7e-9): the ground group spans two blocks and keeps both
    (10, 10.0, 2), (12, 6.0, 2),
])
def test_a_cold_rung_keeps_both_blocks_of_a_degenerate_ground_doublet(size, g, kept):
    model = build_model("ising", 1.0, g, size)
    centre = thermal(model, math.inf)
    doublet = [b for b, (_, levels, _) in enumerate(centre.spectrum.blocks) if levels.size and levels[0] < 2]
    assert len(doublet) == 2  # E_0 and E_1 lie in two blocks
    for omega in (1.0 - 5e-4, 1.0, 1.0 + 5e-4):
        rung = fisher._thermal_state(model, centre, omega).spectrum
        assert rung.kept == tuple(doublet[:kept])


@pytest.mark.parametrize("size", [6, 8, 10])
def test_tight_floors_solve_each_kept_block_once(monkeypatch, size):
    solves = []
    solve = linalg._DSYEVD
    monkeypatch.setattr(linalg, "_DSYEVD", lambda a: solves.append(a) or solve(a))
    left_out = 0
    for model, centre in ring_rung_cells(size):
        solves.clear()
        # at the centre each floor is its block's lowest level
        spectrum = fisher._thermal_state(model, centre, model.omega).spectrum
        # a kept twin holds the vectors of the block before it, solved once
        assert len(solves) == len(spectrum.kept) - len(spectrum.twins)
        left_out += len(spectrum.blocks) - len(spectrum.kept)
    assert left_out > 0


def ring_cold_cells(size):
    """(model, beta) of fig2_config("ising", size)'s couplings at its finite ratio, every third one."""
    config = fig2_config("ising", size)
    ratio = [r for r in config.temp_grid if math.isfinite(r)][0]
    for g in config.g_grid[::3]:
        model = build_model("ising", 1.0, g, size)
        yield model, beta_from_gap_ratio(ratio, eigh(model.H))


@pytest.mark.parametrize("size", [6, 8, 10])
def test_windowed_ring_spectrum_gives_the_full_qfi(size):
    left_out = 0
    for model, beta in ring_cold_cells(size):
        full = qfi_spectral(model, thermal(model, beta))
        spectrum = eigh(model.H, window=gibbs_window(beta), floors=[-math.inf] * len(model.H.blocks))
        got = qfi_spectral(model, gibbs(spectrum, beta))
        for part in ("total", "classical_part", "quantum_part"):
            assert abs(getattr(got, part) - getattr(full, part)) <= 1e-12 * full.total
        left_out += sum(levels.size == 0 for _, levels, _ in spectrum.blocks)
    assert left_out > 0


@pytest.mark.parametrize("beta_of", [lambda beta: beta, lambda beta: math.inf])
def test_fd_estimators_on_windowed_ring_rungs_match_full_rungs(monkeypatch, beta_of):
    model, beta = next(ring_cold_cells(8))
    state = thermal(model, beta_of(beta))
    observable = model.observable
    estimators = (
        lambda: qfi_fidelity_fd(model, state, delta_omega=1e-3),
        lambda: cfi_projective(model, state, observable, delta_omega=1e-3, fd_rtol=1e-5),
        lambda: fi_error_propagation(model, state, observable, delta_omega=1e-3, fd_rtol=1e-5),
    )
    windowed = [estimate() for estimate in estimators]
    monkeypatch.setattr(fisher, "_thermal_state",
                        lambda m, s, omega: gibbs(eigh(build_model(m.kind, omega, m.g, m.size).H), s.beta))
    full = [estimate() for estimate in estimators]
    assert windowed == pytest.approx(full, rel=1e-12, abs=0)


def test_lmg_approaches_the_oscillator_closed_form():
    # Holstein-Primakoff: Sz = -N/2 + a^dag a and Sx^2 / N -> (a + a^dag)^2 / 4,
    # so lmg's QFI tends to the toy closed form with corrections in 1/N
    # (Dusuel & Vidal, PRL 93, 237204, 2004); two Richardson levels remove
    # the 1/N and 1/N^2 terms
    g, beta = 0.6, 2.0
    qfi = {}
    for size in (400, 800, 1600):
        model = build_model("lmg", 1.0, g, size)
        qfi[size] = qfi_spectral(model, thermal(model, beta)).total
    coarse, fine = 2.0 * qfi[800] - qfi[400], 2.0 * qfi[1600] - qfi[800]
    extrapolated = (4.0 * fine - coarse) / 3.0
    params = ToyParams(omega=1.0, g=g, beta=beta)
    exact = qfi_thermal_quantum(params) + qfi_thermal_classical(params)
    assert abs(qfi[1600] - exact) > 1e-3 * exact  # the raw value alone is far off
    assert extrapolated == pytest.approx(exact, rel=1e-4)
