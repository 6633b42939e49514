"""Hamiltonians H(omega, g) and their omega-derivative generators.

Three families share the linear structure H = omega * dH - g * W:

* ``toy``   -- single bosonic mode, H = omega a^dag a - (g/4)(a + a^dag)^2,
               normal phase only (g < omega; past that the truncated
               problem is unbounded below),
* ``lmg``   -- collective spin, H = omega Sz - (g/N) Sx^2,
* ``ising`` -- Pauli ring, H = omega sum sigma_z - g sum sigma_x sigma_x.

dH = dH/domega is exact, analytic and diagonal (the number operator,
Sz, or the total sigma_z), so it is held as its diagonal.  W and H are
``linalg.Sectors`` over sectors that dH respects: the even and odd
index chains for the oscillator and the collective spin, and for the
ring one dense block per (popcount parity, lattice momentum) pair, in
the real translation-adapted basis of ``operators.ChainOps`` (sum
sigma_z is diagonal there too); where k and -k differ that pair is two
twin blocks, reflection-even rows and their images, with equal
entries, so H's twin blocks are equal too and ``eigh`` solves one of
each.  H is formed block by block, and no n x n matrix is
(``np.asarray(model.H)`` gives it on request, in that basis).
``build_model`` is the one place a model's operators are built: dH, W,
H's omega-free parts and the measured observable (the squared
quadrature or the squared collective x spin, over W's row arrays) come
from one operator build and stay with the model.  Finite differences
are reserved for cross-checks and for derivatives of the thermal state
itself.  Energy offsets are never normalized away: Gibbs weights and
every Fisher quantity here are offset-invariant.  The adaptive
oscillator truncation doubles its size until the Fisher total moves by
less than TRUNCATION_RTOL (1e-8), and solves each rung only in the
energy window that holds its Gibbs weight.
"""

import functools
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import BeyondCriticality, InvalidMatrix, InvalidTemperature, TruncationNotConverged
from .linalg import Sectors
from .operators import make_chain_ops, make_dicke_ops, make_fock_ops

# doubling ladder for the adaptive Fock truncation
TRUNCATION_SIZES = (64, 128, 256, 512, 1024, 2048, 4096)
TRUNCATION_RTOL = 1e-8
# each rung solves the levels with Gibbs weight exp(-beta (E - E_0)) above
# this: the dropped weight, below 4096 * 1e-20, stays under 2^-53 of Z >= 1
WINDOW_WEIGHT = 1e-20


def gibbs_window(beta):
    """ln(1 / WINDOW_WEIGHT) / beta: the energy above E_0 within which a level's Gibbs weight passes WINDOW_WEIGHT.

    It is 0 at beta = inf, and a beta that is not > 0 raises InvalidTemperature.
    """
    if not beta > 0:
        raise InvalidTemperature(f"beta must be > 0, got {beta}")
    return 0.0 if math.isinf(beta) else math.log(1.0 / WINDOW_WEIGHT) / beta


class ModelKind(str, Enum):
    TOY = "toy"
    LMG = "lmg"
    ISING = "ising"


@dataclass(frozen=True)
class ModelInstance:
    """A built Hamiltonian with its parameter-derivative generator and measured observable.

    ``size`` is the truncation n_max for the oscillator and the spin
    count N otherwise.  ``dH`` holds the generator's diagonal and
    ``coupling_term`` the normalized interaction W, so
    np.asarray(H) == np.diag(omega * dH) - g * np.asarray(coupling_term)
    holds exactly.  H, W and ``observable``, the read-only square each
    model is measured with ((a + a^dag)^2 for the oscillator, (Sx/2)^2
    for the spins), are Sectors over the same row arrays.  ``parts``
    holds H's omega-free parts per block of W (``_omega_free_parts``).
    All of these come from one build_model; ``at`` passes them on.
    """

    kind: ModelKind
    omega: float
    g: float
    size: int
    H: object
    dH: np.ndarray
    coupling_term: object
    observable: object
    parts: tuple

    def at(self, omega):
        """The same model at another omega, with H formed exactly as build_model forms it.

        H is formed from ``parts`` (``_hamiltonian``) and is not checked
        again: build_model checked the H it formed from the same parts.
        """
        _check_parameters(self.kind, omega, self.g)
        return replace(self, omega=float(omega), H=_hamiltonian(omega, self.parts, self.coupling_term.rows))

    @functools.cached_property
    def generator_bounds(self):
        """max |dH| on the rows of each block of H: no level of the block moves faster than that along omega.

        H(omega') - H(omega) = (omega' - omega) dH, so by Weyl's inequality
        (Weyl, Math. Ann. 71, 441, 1912) each level of a block moves by at
        most |omega' - omega| times its bound.
        """
        return [float(np.abs(self.dH[rows]).max()) for rows in self.H.rows]


def _omega_free_parts(g, generator, coupling):
    """Per block of W: (dH on its rows, g W's diagonal, its other entries negated, twin).

    A chain's other entries are its off-diagonal -g * w, which is H's own;
    a dense block's are the matrix 0.0 - g W, whose diagonal H overwrites.
    Both are signed as H = omega dH - g W signs them, with +0.0 where W
    holds a zero.  A twin is the same array of W as the block before it,
    over rows of equal dH, and gives H the same array too.
    """
    parts = []
    for b, (rows, w) in enumerate(zip(coupling.rows, coupling.blocks)):
        dh = generator[rows]
        twin = bool(b) and w is coupling.blocks[b - 1] and np.array_equal(dh, parts[-1][0])
        if isinstance(w, tuple):
            diagonal, rest = g * w[0], -g * w[1]
        else:
            gw = g * w
            diagonal, rest = gw.diagonal().copy(), 0.0 - gw
        rest.flags.writeable = False
        parts.append((dh, diagonal, rest, twin))
    return tuple(parts)


def _hamiltonian(omega, parts, rows):
    """H = omega * dH[rows] - g * W, block by block from the parts of ``_omega_free_parts`` over W's rows.

    Each block is exactly symmetric because W's is, and a twin takes the
    block before it, so H is a Sectors over W's checked rows that nothing
    checks again.  build_model checks the H it forms; ``at`` trusts it
    for an omega that passed ``_check_parameters``.
    """
    blocks = []
    for dh, gw_diagonal, rest, twin in parts:
        if twin:
            blocks.append(blocks[-1])
            continue
        if rest.ndim == 1:  # a chain, whose off-diagonal does not depend on omega
            diagonal = omega * dh - gw_diagonal
            diagonal.setflags(write=False)
            blocks.append((diagonal, rest))
            continue
        # the copy's diagonal is formed in place, through a view of its entries (i, i) at i * (m + 1)
        block = rest.copy()
        diagonal = block.reshape(-1)[:: block.shape[0] + 1]
        np.multiply(omega, dh, out=diagonal)
        diagonal -= gw_diagonal
        block.setflags(write=False)
        blocks.append(block)
    return Sectors._checked(rows, blocks)


def _scaled(chains, factor):
    """The chains of a Sectors, every entry divided by ``factor``."""
    return Sectors(chains.rows, [(diagonal / factor, off / factor) for diagonal, off in chains.blocks])


def _check_parameters(kind, omega, g):
    if not (math.isfinite(omega) and math.isfinite(g)):
        raise ValueError(f"omega and the coupling must be finite, got omega={omega}, g={g}")
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
        generator, observable = ops.num, ops.x2
        coupling = _scaled(ops.x2, 4.0)
    elif kind is ModelKind.LMG:
        ops = make_dicke_ops(size)
        generator, observable = ops.sz, ops.sx2
        coupling = _scaled(ops.sx2, float(size))
    else:
        ops = make_chain_ops(size)
        generator, observable = ops.sz_total, ops.sx2
        coupling = ops.xx_pbc
    with np.errstate(over="ignore", invalid="ignore"):  # a coupling that overflows H is caught below
        parts = _omega_free_parts(g, generator, coupling)
        H = _hamiltonian(omega, parts, coupling.rows)
    # H is exactly symmetric and over W's rows by construction; only its entries are checked, here, not in ``at``
    arrays = [array for block in H.blocks for array in (block if isinstance(block, tuple) else (block,))]
    if not all(np.isfinite(array).all() for array in arrays):
        raise InvalidMatrix(f"H has non-finite entries at omega={omega}, g={g}")
    return ModelInstance(
        kind=kind,
        omega=float(omega),
        g=float(g),
        size=int(size),
        H=H,
        dH=generator,
        coupling_term=coupling,
        observable=observable,
        parts=parts,
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

    Each rung is solved in the window ``gibbs_window(beta)`` above its
    ground level (only the ground group, and the group above it, at
    beta = inf), so ``spectrum`` holds the Gibbs-weighted levels of a
    large rung and not all of them; ``eigh(model.H)`` gives every level.
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
        spectrum = eigh(model.H, window=gibbs_window(beta))
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
