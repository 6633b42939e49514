import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, example, given, reject, settings, strategies as st

from critfish.analytic import ToyParams, fi_errprop_closed, qfi_thermal_classical, qfi_thermal_quantum
from critfish.errors import (
    CritfishError,
    DegenerateLevel,
    DimMismatch,
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
from critfish.linalg import eigh, symmetrize
from critfish.models import build_model, toy_converged_truncation
from critfish.sweep import measurement_observable
from critfish.thermal import ThermalState, gap, gibbs

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
    breakdown = qfi_spectral(model, thermal(model, 2.0))
    fd = qfi_fidelity_fd(model, 2.0, delta_omega=1e-3)
    assert fd == pytest.approx(breakdown.total, rel=1e-6)


def test_quantum_mass_sits_two_levels_apart():
    g, beta = 0.6, 2.0
    model, spectrum, _ = toy_converged_truncation(1.0, g, beta)
    state = gibbs(spectrum, beta)
    offsets = quantum_term_by_offset(model, state)
    total = offsets.sum()
    outside = total - offsets[2]
    assert outside <= 1e-12 * total
    assert total == pytest.approx(qfi_spectral(model, state).quantum_part, rel=1e-12)


def cell(kind, size, g, beta):
    model = build_model(kind, 1.0, g, size)
    return model, thermal(model, beta)


def dense_spectral_reference(model, state):
    """(classical, quantum, offsets) from the full n x n rotation of dH and every ordered pair."""
    energies, v, probs = state.spectrum.eigenvalues, dense_eigenvectors(state.spectrum), state.probs
    n = len(energies)
    tol = DEGENERACY_RTOL * max(1.0, float(np.max(np.abs(energies))))
    gid = np.concatenate([[0], np.cumsum(np.diff(energies) > tol)])
    m = v.T @ (model.dH[:, None] * v)
    for k in range(gid[-1] + 1):
        members = np.flatnonzero(gid == k)
        if len(members) > 1:
            sl = slice(members[0], members[-1] + 1)
            _, u = np.linalg.eigh((m[sl, sl] + m[sl, sl].T) / 2.0)
            m[:, sl] = m[:, sl] @ u
            m[sl, :] = u.T @ m[sl, :]
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
    model = replace(build_model("lmg", 1.0, 0.5, 39), H=symmetrize((q * energies) @ q.T),
                    dH=rng.standard_normal(40))
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


# ------------------------------------------------------------- fidelity route

def test_fidelity_route_matches_spectral():
    model = build_model("lmg", 1.0, 0.5, 8)
    breakdown = qfi_spectral(model, thermal(model, 5.0))
    fd = qfi_fidelity_fd(model, 5.0, delta_omega=1e-3)
    assert fd == pytest.approx(breakdown.total, rel=1e-4)


def test_fidelity_route_zero_temperature_toy():
    model, _, _ = toy_converged_truncation(1.0, 0.5, math.inf)
    fd = qfi_fidelity_fd(model, math.inf, delta_omega=1e-2)
    assert fd == pytest.approx(0.125, rel=1e-4)


def test_fidelity_route_identical_states_is_zero():
    # with dH = 0, H does not depend on omega: both evaluations see the same state
    model = build_model("lmg", 1.0, 0.4, 6)
    fd = qfi_fidelity_fd(replace(model, dH=np.zeros_like(model.dH)), 2.0)
    assert fd == 0.0


def test_fidelity_route_reports_no_convergence():
    rng = np.random.default_rng(0)
    base = build_model("lmg", 1.0, 0.5, 6)

    class Noisy:
        # every move along omega lands on a freshly jittered Hamiltonian
        omega = 1.0

        def at(self, w):
            jitter = rng.normal(scale=1e-4, size=base.H.shape)
            return replace(base.at(w), H=base.H + (jitter + jitter.T) / 2.0)

    with pytest.raises(NoFDConvergence) as info:
        qfi_fidelity_fd(Noisy(), 2.0, delta_omega=1e-4)
    assert len(info.value.estimates) == 2


# ------------------------------------------------- measurement-based estimators

def test_energy_measurement_extracts_probability_information():
    model = build_model("lmg", 1.0, 0.7, 6)
    breakdown = qfi_spectral(model, thermal(model, 2.0))
    got = cfi_projective(model, 2.0, model.H, delta_omega=1e-3)
    assert got == pytest.approx(breakdown.classical_part, rel=1e-4)


def test_measurement_rejects_mismatched_observable():
    observable = measurement_observable("lmg", 6)
    with pytest.raises(DimMismatch, match="observable shape"):
        cfi_projective(build_model("lmg", 1.0, 0.5, 8), 2.0, observable)


def test_identity_measurement_carries_nothing():
    got = cfi_projective(build_model("lmg", 1.0, 0.7, 6), 2.0, np.eye(7))
    assert got == 0.0


def test_single_outcome_measurement_still_checks_the_shape():
    # the identity has one outcome; a wrong size must not pass as "carries nothing"
    with pytest.raises(DimMismatch, match="observable shape"):
        cfi_projective(build_model("lmg", 1.0, 0.7, 6), 2.0, np.eye(5))


def test_squared_spin_outcomes_are_merged():
    # measuring Sx^2 must group +-m into one outcome: for N spins that is
    # ceil((N+1)/2) distinct outcomes, not N+1
    from critfish.fisher import _outcome_projectors

    N = 6
    _, groups = _outcome_projectors(measurement_observable("lmg", N))
    assert len(groups) == (N + 2) // 2


def test_error_propagation_matches_closed_form():
    g, beta = 0.6, 2.0
    model, _, _ = toy_converged_truncation(1.0, g, beta)
    obs = measurement_observable("toy", model.size)
    got = fi_error_propagation(model, beta, obs, delta_omega=1e-3)
    want = fi_errprop_closed(ToyParams(omega=1.0, g=g, beta=beta))
    assert got == pytest.approx(want, rel=1e-5)


def test_error_propagation_free_oscillator():
    # g = 0 limit of the closed form: beta^2 csch^2(beta omega) / 2
    beta, n_max = 1.5, 96
    obs = measurement_observable("toy", n_max)
    got = fi_error_propagation(build_model("toy", 1.0, 0.0, n_max), beta, obs, delta_omega=1e-3)
    want = beta ** 2 / (2.0 * math.sinh(beta) ** 2)
    assert got == pytest.approx(want, rel=1e-5)


def test_error_propagation_is_zero_where_the_mean_does_not_move():
    # at g = 0 the ring's Gibbs states are diagonal, so <(Sx/2)^2> = N/4 for
    # every omega: the differences are roundoff and the slope is exactly 0
    model = build_model("ising", 1.0, 0.0, 6)
    assert fi_error_propagation(model, 1.74, measurement_observable("ising", 6)) == 0.0


def test_error_propagation_rejects_zero_variance():
    with pytest.raises(ZeroVariance):
        fi_error_propagation(build_model("lmg", 1.0, 0.5, 6), 2.0, np.eye(7))


@pytest.mark.parametrize("kind,size", [("lmg", 8), ("ising", 4)])
@pytest.mark.parametrize("g,beta", [(0.5, 1.0), (0.9, 3.0), (1.1, 5.0)])
def test_estimator_ordering(kind, size, g, beta):
    model = build_model(kind, 1.0, g, size)
    obs = measurement_observable(kind, size)
    qfi = qfi_spectral(model, thermal(model, beta)).total
    cfi = cfi_projective(model, beta, obs, delta_omega=1e-3, fd_rtol=1e-6)
    errprop = fi_error_propagation(model, beta, obs, delta_omega=1e-3, fd_rtol=1e-6)
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
    obs = measurement_observable(kind, size)
    try:
        qfi = qfi_spectral(model, thermal(model, beta)).total
        cfi = cfi_projective(model, beta, obs, fd_rtol=1e-6)
        errprop = fi_error_propagation(model, beta, obs, fd_rtol=1e-6)
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
