"""Hamiltonians H(omega, g) and their omega-derivative generators.

Three families share the linear structure H = omega * dH - g * W:

* ``toy``   -- single bosonic mode, H = omega a^dag a - (g/4)(a + a^dag)^2,
               normal phase only (g < omega; past that the truncated
               problem is unbounded below),
* ``lmg``   -- collective spin, H = omega Sz - (g/N) Sx^2,
* ``ising`` -- Pauli ring, H = omega sum sigma_z - g sum sigma_x sigma_x.

dH = dH/domega is exact, analytic and diagonal (the number operator,
Sz, or the total sigma_z), so it is held as its diagonal.  W and H are
``linalg.Sectors`` over the two parity sectors that dH respects: even
and odd index chains for the oscillator and the collective spin, dense
blocks over the even and odd popcount states for the ring.  H is formed
block by block, and no n x n matrix is (``np.asarray(model.H)`` gives
it on request).  Finite differences are reserved for cross-checks and
for derivatives of the thermal state itself.  Energy offsets are never
normalized away: Gibbs weights and every Fisher quantity here are
offset-invariant.  The adaptive oscillator truncation doubles its size
until the Fisher total moves by less than TRUNCATION_RTOL (1e-8).
"""

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import BeyondCriticality, TruncationNotConverged
from .linalg import Sectors
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
    np.asarray(H) == np.diag(omega * dH) - g * np.asarray(coupling_term)
    holds exactly.  H and W are Sectors over the same rows.
    """

    kind: ModelKind
    omega: float
    g: float
    size: int
    H: object
    dH: np.ndarray
    coupling_term: object

    def at(self, omega):
        """The same model at another omega, with H formed exactly as build_model forms it."""
        _check_parameters(self.kind, omega, self.g)
        return replace(self, omega=float(omega), H=_hamiltonian(omega, self.g, self.dH, self.coupling_term))


def _hamiltonian(omega, g, generator, coupling):
    """H = omega * dH[rows] - g * W, block by block over W's sectors."""
    blocks = [
        (omega * generator[rows] - g * w[0], -g * w[1]) if isinstance(w, tuple)
        else np.diag(omega * generator[rows]) - g * w
        for rows, w in zip(coupling.rows, coupling.blocks)
    ]
    return Sectors(coupling.rows, blocks)


def _scaled(chains, factor):
    """The chains of a Sectors, every entry divided by ``factor``."""
    return Sectors(chains.rows, [(diagonal / factor, off / factor) for diagonal, off in chains.blocks])


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
        coupling = _scaled(ops.x2, 4.0)
    elif kind is ModelKind.LMG:
        ops = make_dicke_ops(size)
        generator = ops.sz
        coupling = _scaled(ops.sx2, float(size))
    else:
        ops = make_chain_ops(size)
        generator = ops.sz_total
        coupling = ops.xx_pbc
    return ModelInstance(
        kind=kind,
        omega=float(omega),
        g=float(g),
        size=int(size),
        H=_hamiltonian(omega, g, generator, coupling),
        dH=generator,
        coupling_term=coupling,
    )


def toy_converged_truncation(omega, g, beta):
    """Smallest doubling-ladder model at which the thermal Fisher total settles.

    Runs the spectral estimator at consecutive sizes 64, 128, ... and
    returns ``(model, spectrum, breakdown)`` of the first size whose value
    agrees with the next one to TRUNCATION_RTOL relative, ``breakdown``
    being that rung's ``qfi_spectral`` result; only that previous rung is
    kept while the next is solved.  At beta = inf the ground-state Fisher
    information is the convergence functional instead, and ``breakdown``
    is None.  Raises TruncationNotConverged (carrying the last two values)
    at the 4096 cap.
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
        breakdown = None if math.isinf(beta) else qfi_spectral(model, gibbs(spectrum, beta))
        value = qfi_pure(model, spectrum, level=0) if breakdown is None else breakdown.total
        if values and abs(value - values[-1]) <= TRUNCATION_RTOL * max(abs(value), 1e-300):
            return previous
        values.append(value)
        previous = model, spectrum, breakdown
    raise TruncationNotConverged(
        f"no convergence up to n_max={TRUNCATION_SIZES[-1]} "
        f"(omega={omega}, g={g}, beta={beta})",
        last_two=tuple(values[-2:]),
    )
