import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from critfish.analytic import (
    Prep,
    ToyParams,
    fi_errprop_closed,
    ising_ground_qfi,
    qfi_eigenstate,
    qfi_thermal_classical,
    qfi_thermal_quantum,
)
from critfish.errors import BeyondCriticality, InvalidTemperature, UndefinedForZeroCoupling
from critfish.fisher import qfi_pure
from critfish.linalg import eigh
from critfish.models import build_model

# frozen with mpmath (30 digits): 2 (1/4)^2 tanh(sqrt(.5)) / tanh(sqrt(.5)/2)
QUANTUM_AT_HALF_COUPLING_BETA_ONE = 0.22415977271829836
# beta^2 (3/2)^2 csch^2(sqrt(.5)/2) / 8 at omega=1, g=.5, beta=1
CLASSICAL_AT_HALF_COUPLING_BETA_ONE = 2.1585480478161556

params_strategy = st.builds(
    ToyParams,
    omega=st.floats(0.5, 3.0),
    g=st.floats(0.0, 0.95).map(lambda f: f * 0.5),  # keep well under omega
    beta=st.floats(0.01, 50.0),
)


def test_derived_quantities():
    p = ToyParams(omega=1.0, g=0.5, beta=1.0)
    assert p.squeezing == pytest.approx(0.25 * math.log(0.5))
    assert p.squeezing_slope == pytest.approx(0.25)
    assert p.effective_frequency == pytest.approx(math.sqrt(0.5))


def test_parameter_validation():
    with pytest.raises(BeyondCriticality):
        ToyParams(omega=1.0, g=1.0, beta=1.0)
    with pytest.raises(BeyondCriticality):
        ToyParams(omega=1.0, g=-0.1, beta=1.0)
    with pytest.raises(InvalidTemperature):
        ToyParams(omega=1.0, g=0.5, beta=0.0)
    with pytest.raises(ValueError):
        ToyParams(omega=0.0, g=0.0, beta=1.0)


def test_eigenstate_values():
    p = ToyParams(omega=1.0, g=0.5, beta=1.0)
    assert qfi_eigenstate(p, 0) == pytest.approx(0.125)
    assert qfi_eigenstate(p, 1) == pytest.approx(0.375)
    free = ToyParams(omega=1.0, g=0.0, beta=1.0)
    assert qfi_eigenstate(free, 3) == 0.0


def test_quantum_term_values_and_limits():
    p = ToyParams(omega=1.0, g=0.5, beta=1.0)
    assert qfi_thermal_quantum(p) == pytest.approx(QUANTUM_AT_HALF_COUPLING_BETA_ONE, rel=1e-14)
    cold = ToyParams(omega=1.0, g=0.5, beta=math.inf)
    assert qfi_thermal_quantum(cold) == qfi_eigenstate(cold, 0)
    # the hot limit, twice the ground value
    hot = ToyParams(omega=1.0, g=0.5, beta=1e-9)
    assert qfi_thermal_quantum(hot) == pytest.approx(4.0 * 0.25 ** 2, rel=1e-9)


def test_quantum_term_monotone_in_temperature():
    values = [
        qfi_thermal_quantum(ToyParams(omega=1.0, g=0.9, beta=beta))
        for beta in (math.inf, 100.0, 10.0, 3.0, 1.0, 0.3, 0.1, 0.01)
    ]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
    ground = values[0]
    assert values[-1] <= 2.0 * ground * (1.0 + 1e-9)
    assert values[-1] >= 1.99 * ground


def test_classical_term_values_and_limits():
    p = ToyParams(omega=1.0, g=0.5, beta=1.0)
    assert qfi_thermal_classical(p) == pytest.approx(CLASSICAL_AT_HALF_COUPLING_BETA_ONE, rel=1e-14)
    # the hot limit (2 - r)^2 / (4 omega^2 (1 - r)^2)
    hot = ToyParams(omega=1.0, g=0.5, beta=1e-6)
    assert qfi_thermal_classical(hot) == pytest.approx(2.25, rel=1e-9)
    cold = ToyParams(omega=1.0, g=0.5, beta=math.inf)
    assert qfi_thermal_classical(cold) == 0.0


def test_classical_term_free_oscillator_is_number_variance():
    # at g = 0 the probability term is beta^2 Var(n) of the geometric weights
    omega, beta = 1.3, 0.8
    p = ToyParams(omega=omega, g=0.0, beta=beta)
    q = math.exp(-beta * omega)
    var_n = q / (1.0 - q) ** 2
    assert qfi_thermal_classical(p) == pytest.approx(beta ** 2 * var_n, rel=1e-12)


def test_adiabatic_substitutions():
    # occupations frozen from g = 0: bare frequency in the thermal factors,
    # coupling removed from the probability prefactor
    direct_free = ToyParams(omega=1.0, g=0.0, beta=2.0, prep=Prep.DIRECT)
    ramped = ToyParams(omega=1.0, g=0.7, beta=2.0, prep=Prep.ADIABATIC)
    assert qfi_thermal_classical(ramped) == pytest.approx(qfi_thermal_classical(direct_free), rel=1e-12)
    x = 2.0 * 1.0
    want_q = 2.0 * ramped.squeezing_slope ** 2 * math.tanh(x) / math.tanh(x / 2.0)
    assert qfi_thermal_quantum(ramped) == pytest.approx(want_q, rel=1e-12)
    # the hot limit with r = 0 and the bare frequency: 1 / omega^2
    hot_ramped = ToyParams(omega=1.0, g=0.7, beta=1e-6, prep=Prep.ADIABATIC)
    assert qfi_thermal_classical(hot_ramped) == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("beta", [1e154, 1.3e154, 1e308, sys.float_info.max])
@pytest.mark.parametrize("g", [0.5, 0.999])
@pytest.mark.parametrize("prep", list(Prep))
def test_closed_forms_at_a_huge_beta_equal_their_zero_temperature_values(beta, g, prep):
    # beta^2 and 2 beta f overflow here, while the factors they scale underflow to 0
    p = ToyParams(omega=1.0, g=g, beta=beta, prep=prep)
    cold = ToyParams(omega=1.0, g=g, beta=math.inf, prep=prep)
    assert qfi_thermal_quantum(p) == qfi_thermal_quantum(cold)
    assert qfi_thermal_classical(p) == 0.0
    if prep is Prep.DIRECT:
        assert fi_errprop_closed(p) == fi_errprop_closed(cold)


@pytest.mark.parametrize("beta", [1e-152, 1e-155, 1e-300, 5e-324])
@pytest.mark.parametrize("g", [0.0, 0.5, 0.9, 0.999, 0.999999])
def test_closed_forms_at_a_tiny_beta_equal_their_hot_limits(beta, g):
    # csch^2, tanh(x / 2) and beta^2 underflow here, while the forms have reached their limits
    p = ToyParams(omega=1.0, g=g, beta=beta)
    slope, f = p.squeezing_slope, p.occupation_frequency
    assert qfi_thermal_quantum(p) == 4.0 * slope ** 2
    assert qfi_thermal_classical(p) == (2.0 - g) ** 2 / (4.0 * f ** 2 * (1.0 - g))
    assert qfi_thermal_classical(ToyParams(omega=1.0, g=g, beta=beta, prep=Prep.ADIABATIC)) == 1.0
    if g > 0:
        coupling_free = (2.0 - g) / (4.0 * (1.0 - g))
        assert fi_errprop_closed(p) == 2.0 * (coupling_free + slope) ** 2


@pytest.mark.parametrize("g", [0.0, 0.5, 0.9, 0.999, 0.999999])
def test_closed_forms_meet_their_hot_limits_on_both_sides_of_the_switch(g):
    # the exact forms just above the switch to the hot limits agree with them to roundoff
    hot = ToyParams(omega=1.0, g=g, beta=1e-160)
    for beta in (1e-140, 1e-149):
        p = ToyParams(omega=1.0, g=g, beta=beta)
        assert qfi_thermal_quantum(p) == pytest.approx(qfi_thermal_quantum(hot), rel=1e-15)
        assert qfi_thermal_classical(p) == pytest.approx(qfi_thermal_classical(hot), rel=1e-15)
        if g > 0:
            assert fi_errprop_closed(p) == pytest.approx(fi_errprop_closed(hot), rel=1e-15)


def test_errprop_closed_zero_temperature_equals_ground():
    p = ToyParams(omega=1.0, g=0.5, beta=math.inf)
    assert fi_errprop_closed(p) == pytest.approx(qfi_eigenstate(p, 0), rel=1e-12)


def test_errprop_closed_hot_limit():
    # bracket -> 2 omega / g as beta -> 0; frozen value for omega=1, g=0.6
    p = ToyParams(omega=1.0, g=0.6, beta=1e-12)
    assert fi_errprop_closed(p) == pytest.approx(3.125, rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(params=params_strategy)
def test_errprop_closed_never_below_ground_value(params):
    if params.g == 0.0:
        return
    assert fi_errprop_closed(params) >= qfi_eigenstate(params, 0) * (1.0 - 1e-12)


def test_errprop_closed_rejections():
    with pytest.raises(UndefinedForZeroCoupling):
        fi_errprop_closed(ToyParams(omega=1.0, g=0.0, beta=1.0))
    with pytest.raises(ValueError):
        fi_errprop_closed(ToyParams(omega=1.0, g=0.5, beta=1.0, prep=Prep.ADIABATIC))


@settings(max_examples=60, deadline=None)
@given(params=params_strategy)
def test_thermal_forms_reduce_to_ground_state_at_zero_temperature(params):
    cold = ToyParams(omega=params.omega, g=params.g, beta=math.inf, prep=params.prep)
    ground = qfi_eigenstate(cold, 0)
    assert qfi_thermal_quantum(cold) == pytest.approx(ground, rel=1e-12, abs=1e-300)
    assert qfi_thermal_classical(cold) == 0.0


# ---------------------------------------------------------------- Pauli ring

@pytest.mark.parametrize("g", [0.3, 0.9, 1.0, 1.5])
@pytest.mark.parametrize("N", [4, 6, 8, 10, 12, 14])
def test_ising_ground_qfi_matches_exact_diagonalization(N, g):
    # the free-fermion closed form against the ground level of the
    # diagonalized ring, on both sides of the critical coupling
    model = build_model("ising", 1.0, g, N)
    assert qfi_pure(model, eigh(model.H), level=0) == pytest.approx(ising_ground_qfi(1.0, g, N), rel=1e-12)


def test_ising_ground_qfi_limits_and_rejections():
    assert ising_ground_qfi(1.0, 0.0, 8) == 0.0  # the uncoupled ground state does not move
    # deep in the paramagnet each mode's angle is g sin k / 2 omega to first order
    small = 1e-4
    assert ising_ground_qfi(1.0, small, 8) == pytest.approx(small ** 2 * 8 / 4.0, rel=1e-3)
    for omega, g, N in ((1.0, 0.5, 5), (1.0, 0.5, 0), (0.0, 0.5, 4), (1.0, -0.1, 4)):
        with pytest.raises(ValueError):
            ising_ground_qfi(omega, g, N)
