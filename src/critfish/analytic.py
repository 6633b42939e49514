"""Closed forms for the squeezing-oscillator model, and the ring's ground state.

Exact in the untruncated Hilbert space for coupling below the critical
value, these expressions are the oracles against which the numerical
estimators are validated.  The ``prep`` switch distinguishes two routes
to the working point:

* DIRECT    -- the system thermalizes at the final coupling, so level
               occupations follow the interacting gap scale,
* ADIABATIC -- the coupling is ramped slowly from zero, which freezes
               the g = 0 occupations; the frequency entering every
               temperature-dependent factor is then the bare one, and
               the probability contribution loses its g-dependent
               prefactor (literally, g -> 0 there).

Only exact forms are given; their hot limits are beta -> 0 of the same
expressions.  Each stays finite from the smallest positive float beta,
where it equals its hot limit, up to the largest, where it equals its
T = 0 value.

The transverse-field ring maps onto free fermions, which gives its
ground-state Fisher information at any even N (``ising_ground_qfi``),
the one oracle of that model that is not a cross-check between methods.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .errors import (
    BeyondCriticality,
    InvalidTemperature,
    UndefinedForZeroCoupling,
)


# below this beta times a frequency every closed form equals its hot limit
# to roundoff, and further down its factors (csch^2, tanh(x / 2), beta^2)
# under- or overflow, so the forms return the limit itself
_HOT_X = 1e-150


class Prep(str, Enum):
    DIRECT = "direct"
    ADIABATIC = "adiabatic"


@dataclass(frozen=True)
class ToyParams:
    omega: float
    g: float
    beta: float
    prep: Prep = Prep.DIRECT

    def __post_init__(self):
        if not self.omega > 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if not 0 <= self.g < self.omega:
            raise BeyondCriticality(
                f"need 0 <= g < omega, got g={self.g}, omega={self.omega}"
            )
        if not self.beta > 0:
            raise InvalidTemperature(f"beta must be > 0, got {self.beta}")

    @property
    def squeezing(self):
        """Squeeze exponent relating the eigenstates to bare Fock states."""
        return 0.25 * math.log(1.0 - self.g / self.omega)

    @property
    def squeezing_slope(self):
        """d(squeezing)/d(omega) = g / (4 omega^2 (1 - g/omega))."""
        return self.g / (4.0 * self.omega ** 2 * (1.0 - self.g / self.omega))

    @property
    def effective_frequency(self):
        """Level spacing of the interacting oscillator, omega sqrt(1 - g/omega)."""
        return self.omega * math.sqrt(1.0 - self.g / self.omega)

    @property
    def occupation_frequency(self):
        """Frequency governing the Boltzmann occupations (prep-dependent)."""
        if self.prep is Prep.ADIABATIC:
            return self.omega
        return self.effective_frequency


def _csch2(x):
    # 1/sinh^2 for x > 0 without overflow (large x) or cancellation (small x)
    return 4.0 * math.exp(-2.0 * x) / math.expm1(-2.0 * x) ** 2


def qfi_eigenstate(params, n):
    """Fisher information of the n-th eigenstate: 2 slope^2 (n^2 + n + 1)."""
    if n < 0:
        raise ValueError(f"level index must be >= 0, got {n}")
    return 2.0 * params.squeezing_slope ** 2 * (n * n + n + 1)


def qfi_thermal_quantum(params):
    """Eigenvector (quantum) contribution for the thermal mixture.

    Exact form 2 slope^2 tanh(beta f) / tanh(beta f / 2) with f the
    occupation frequency; grows from the ground-state value at T = 0 to
    twice that, 4 slope^2, in the hot limit.
    """
    slope = params.squeezing_slope
    if math.isinf(params.beta):
        return 2.0 * slope ** 2
    x = params.beta * params.occupation_frequency
    if x < _HOT_X:
        return 4.0 * slope ** 2
    return 2.0 * slope ** 2 * math.tanh(x) / math.tanh(x / 2.0)


def qfi_thermal_classical(params):
    """Probability contribution for the thermal mixture.

    Exact form beta^2 (2 - r)^2 csch^2(beta f / 2) / (16 (1 - r)) with
    r = g/omega (r = 0 for adiabatic preparation) and f the occupation
    frequency.  Vanishes at T = 0; its hot limit is
    (2 - r)^2 / (4 f^2 (1 - r)).
    """
    r = 0.0 if params.prep is Prep.ADIABATIC else params.g / params.omega
    if math.isinf(params.beta):
        return 0.0
    f = params.occupation_frequency
    if params.beta * f < _HOT_X:
        return (2.0 - r) ** 2 / (4.0 * f ** 2 * (1.0 - r))
    csch2 = _csch2(params.beta * f / 2.0)  # 0 long before beta^2 overflows
    return params.beta ** 2 * (2.0 - r) ** 2 * csch2 / (16.0 * (1.0 - r)) if csch2 else 0.0


def fi_errprop_closed(params):
    """Error-propagation Fisher information for measuring (a + a^dag)^2.

    2 slope^2 [beta w (2 omega/g - 1) csch(beta w) + 1]^2 with w the
    effective frequency; defined for the directly thermalized state and
    g > 0 (the bracket carries a 1/g).  The bracket is >= 1 below the
    critical coupling, so this never drops under the T = 0 Fisher
    information of the ground state, and equals it at beta = inf.
    """
    if params.prep is not Prep.DIRECT:
        raise ValueError("closed form is defined for direct thermalization only")
    if params.g == 0:
        raise UndefinedForZeroCoupling("the closed form contains 2 omega / g")
    slope = params.squeezing_slope
    if math.isinf(params.beta):
        return 2.0 * slope ** 2
    x = params.beta * params.effective_frequency
    if x < _HOT_X:
        x_csch = 1.0
    else:
        # x csch(x) = 2 x e^(-x) / (1 - e^(-2x)), overflow-free for large x, and 0 once e^(-x) underflows
        decay = math.exp(-x)
        x_csch = 2.0 * x * decay / -math.expm1(-2.0 * x) if decay else 0.0
    # slope * (2 omega/g - 1) has the 1/g cancel analytically; multiplying
    # it out keeps tiny couplings from overflowing the bracket
    coupling_free = (2.0 * params.omega - params.g) / (
        4.0 * params.omega ** 2 * (1.0 - params.g / params.omega)
    )
    amplitude = coupling_free * x_csch + slope
    return 2.0 * amplitude ** 2


def ising_ground_qfi(omega, g, N):
    """Ground-state Fisher information in omega of H = omega sum sigma_z - g sum sigma_x sigma_x on an even ring.

    The ground state is a product over the antiperiodic momenta
    k = (2n - 1) pi / N, n = 1 .. N/2, of Bogoliubov pairs at angle
    theta_k = atan2(g sin k, -omega - g cos k) / 2, so the Fisher
    information is 4 sum_k (d theta_k / d omega)^2 =
    sum_k g^2 sin^2 k / ((omega + g cos k)^2 + g^2 sin^2 k)^2
    (Damski, PRE 87, 052131, 2013).  It holds on both sides of g = omega.
    """
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if g < 0:
        raise ValueError(f"coupling must be non-negative, got {g}")
    if N < 2 or N % 2:
        raise ValueError(f"the closed form needs an even ring of N >= 2 sites, got N={N}")
    total = 0.0
    for n in range(1, N // 2 + 1):
        k = (2 * n - 1) * math.pi / N
        along, across = omega + g * math.cos(k), g * math.sin(k)
        total += across ** 2 / (along ** 2 + across ** 2) ** 2
    return total
