"""Gibbs states over a fixed spectrum, gaps, and the gap-ratio temperature axis.

Weights are computed after shifting all energies by E_0, so beta up to
1e6 and beyond cannot overflow.  beta = math.inf is a first-class value
(the exact T = 0 reference), with degenerate ground groups weighted
uniformly -- the continuous limit of the finite-beta weights.  A Gibbs
state keeps the parity sectors of its spectrum: its density matrix is
one dense block per sector.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, GapTooSmall, InvalidDimension, InvalidTemperature
from .linalg import Sectors, Spectrum

GROUND_DEGENERACY_RTOL = 1e-12
GAP_FLOOR_RTOL = 1e-14


@dataclass(frozen=True)
class ThermalState:
    """Gibbs weights over an eigendecomposition at inverse temperature beta.

    probs[n] = exp(-beta (E_n - E_0)) / sum_m exp(-beta (E_m - E_0));
    non-increasing because the eigenvalues ascend.
    """

    spectrum: Spectrum
    beta: float
    probs: np.ndarray

    @property
    def dim(self):
        return self.spectrum.dim


def gibbs(spectrum, beta):
    if not beta > 0:
        raise InvalidTemperature(f"beta must be > 0, got {beta}")
    energies = spectrum.eigenvalues
    if math.isinf(beta):
        scale = max(1.0, float(np.max(np.abs(energies))))
        ground = energies <= energies[0] + GROUND_DEGENERACY_RTOL * scale
        probs = np.where(ground, 1.0 / int(np.count_nonzero(ground)), 0.0)
        return ThermalState(spectrum=spectrum, beta=beta, probs=probs)
    weights = np.exp(-beta * (energies - energies[0]))
    return ThermalState(spectrum=spectrum, beta=float(beta), probs=weights / float(np.sum(weights)))


def density_matrix(state):
    """rho = V diag(p) V^T, a block (V[r] diag(p)) V[r]^T per sector r: symmetric, PSD, unit trace."""
    v = state.spectrum.eigenvectors
    sectors = state.spectrum.sectors
    return Sectors(sectors, [(v[r] * state.probs) @ v[r].T for r in sectors])


def gap(spectrum):
    """E_1 - E_0, taken literally (no skipping of degenerate levels)."""
    if spectrum.dim < 2:
        raise InvalidDimension("gap needs at least two levels")
    e = spectrum.eigenvalues
    return float(e[1] - e[0])


def beta_from_gap_ratio(ratio, spectrum):
    """beta from the inverse-temperature-to-gap knob: beta = ratio * (E_1 - E_0).

    ``ratio`` is beta measured in units of the local gap's inverse energy
    scale, i.e. beta / (E_1 - E_0) in the natural units where the gap of
    the non-interacting problem is one.  The gap is recomputed from the
    spectrum at hand, so sweeping a grid keeps the ratio fixed while beta
    tracks the closing gap: the same ratio that means deep freeze far
    from criticality allows real thermal mixing where the gap collapses,
    which is precisely where the temperature enhancement lives.
    ratio = math.inf selects the exact T = 0 curve.  Near-degenerate
    ground states raise GapTooSmall rather than guess a temperature from
    a vanishing scale.
    """
    if not ratio > 0:
        raise InvalidTemperature(f"beta-gap ratio must be > 0, got {ratio}")
    delta = gap(spectrum)
    scale = max(1.0, float(np.max(np.abs(spectrum.eigenvalues))))
    if delta < GAP_FLOOR_RTOL * scale:
        raise GapTooSmall(f"E_1 - E_0 = {delta:.3e} is too close to degeneracy")
    if math.isinf(ratio):
        return math.inf
    return float(ratio) * delta


def thermal_expectation(state, observable):
    """tr(rho A), evaluated in the eigenbasis of the state."""
    a = np.asarray(observable, dtype=float)
    if a.shape != (state.dim, state.dim):
        raise DimMismatch(
            f"observable shape {a.shape} does not match state dimension {state.dim}"
        )
    v = state.spectrum.eigenvectors
    diag = np.einsum("in,in->n", v, a @ v)
    return float(np.dot(state.probs, diag))
