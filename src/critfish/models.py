"""Hamiltonians H(omega, g) and their omega-derivative generators.

Three families share the linear structure H = omega * dH - g * W:

* ``toy``   -- single bosonic mode, H = omega a^dag a - (g/4)(a + a^dag)^2,
               normal phase only (g < omega; past that the truncated
               problem is unbounded below),
* ``lmg``   -- collective spin, H = omega Sz - (g/N) Sx^2,
* ``ising`` -- Pauli ring, H = omega sum sigma_z - g sum sigma_x sigma_x.

dH = dH/domega is exact, analytic and diagonal (the number operator,
Sz, or the total sigma_z), so it is held as its diagonal; finite
differences are reserved for cross-checks and for derivatives of the
thermal state itself.  Energy offsets are never
normalized away: Gibbs weights and every Fisher quantity here are
offset-invariant.
"""

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import BeyondCriticality, TruncationNotConverged
from .operators import make_chain_ops, make_dicke_ops, make_fock_ops

# doubling ladder for the adaptive Fock truncation
TRUNCATION_SIZES = (64, 128, 256, 512, 1024, 2048, 4096)
TRUNCATION_RTOL = 1e-8


class ModelKind(str, Enum):
    TOY = "toy"
    LMG = "lmg"
    ISING = "ising"


@dataclass(frozen=True)
class ModelInstance:
    """A built Hamiltonian with its parameter-derivative generator.

    ``size`` is the truncation n_max for the oscillator and the spin
    count N otherwise.  ``dH`` holds the generator's diagonal and
    ``coupling_term`` the normalized interaction W, so
    H == np.diag(omega * dH) - g * coupling_term holds exactly.
    """

    kind: ModelKind
    omega: float
    g: float
    size: int
    H: np.ndarray
    dH: np.ndarray
    coupling_term: np.ndarray

    def at(self, omega):
        """The same model at another omega, with H formed exactly as build_model forms it."""
        _check_parameters(self.kind, omega, self.g)
        return replace(self, omega=float(omega), H=np.diag(omega * self.dH) - self.g * self.coupling_term)


def _check_parameters(kind, omega, g):
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if g < 0:
        raise ValueError(f"coupling must be non-negative, got {g}")
    if kind is ModelKind.TOY and g >= omega:
        raise BeyondCriticality(
            f"oscillator model needs g < omega (critical coupling), got g={g}, omega={omega}"
        )


def build_model(kind, omega, g, size):
    kind = ModelKind(kind)
    _check_parameters(kind, omega, g)
    if kind is ModelKind.TOY:
        ops = make_fock_ops(size)
        generator = ops.num
        coupling = ops.x2 / 4.0
    elif kind is ModelKind.LMG:
        ops = make_dicke_ops(size)
        generator = ops.sz
        coupling = ops.sx2 / float(size)
    else:
        ops = make_chain_ops(size)
        generator = ops.sz_total
        coupling = ops.xx_pbc
    h = np.diag(omega * generator) - g * coupling
    return ModelInstance(
        kind=kind,
        omega=float(omega),
        g=float(g),
        size=int(size),
        H=h,
        dH=generator,
        coupling_term=coupling,
    )


def toy_converged_truncation(omega, g, beta, rtol=TRUNCATION_RTOL):
    """Smallest doubling-ladder model at which the thermal Fisher total settles.

    Runs the spectral estimator at consecutive sizes 64, 128, ... and
    returns ``(model, spectrum)`` of the first size whose value agrees
    with the next one to ``rtol`` relative; only that previous rung is
    kept while the next is solved.  At beta = inf the ground-state Fisher
    information is the convergence functional instead.  Raises
    TruncationNotConverged (carrying the last two values) at the 4096 cap.
    """
    # local imports: fisher/thermal import this module for ModelInstance
    from .fisher import qfi_pure, qfi_spectral
    from .linalg import eigh
    from .thermal import gibbs

    _check_parameters(ModelKind.TOY, omega, g)
    values = []
    previous = None
    for n_max in TRUNCATION_SIZES:
        model = build_model(ModelKind.TOY, omega, g, n_max)
        spectrum = eigh(model.H)
        if math.isinf(beta):
            value = qfi_pure(model, spectrum, level=0)
        else:
            value = qfi_spectral(model, gibbs(spectrum, beta)).total
        if values and abs(value - values[-1]) <= rtol * max(abs(value), 1e-300):
            return previous
        values.append(value)
        previous = model, spectrum
    raise TruncationNotConverged(
        f"no convergence up to n_max={TRUNCATION_SIZES[-1]} "
        f"(omega={omega}, g={g}, beta={beta})",
        last_two=tuple(values[-2:]),
    )
