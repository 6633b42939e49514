"""Gibbs states over a fixed spectrum, gaps, and the gap-ratio temperature axis.

Weights are computed after shifting all energies by E_0, so beta up to
1e6 and beyond cannot overflow.  beta = math.inf is a first-class value
(the exact T = 0 reference), with degenerate ground groups weighted
uniformly -- the continuous limit of the finite-beta weights.  A Gibbs
state keeps the blocks of its spectrum: its density matrix is one dense
block per sector, and the moments of an observable are summed block by
block.  An observable is brought onto those blocks in one place,
``_checked_observable``, for this module and for ``fisher``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, GapTooSmall, InvalidDimension, InvalidMatrix, InvalidTemperature
from .linalg import Sectors, Spectrum, _dense, _same_rows

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
    """rho = V diag(p) V^T, a dense block (V_b diag(p)) V_b^T per spectrum block: symmetric, PSD, unit trace."""
    blocks = state.spectrum.blocks
    return Sectors([rows for rows, _, _ in blocks], [(v * state.probs[levels]) @ v.T for _, levels, v in blocks])


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


def _checked_observable(observable, rows):
    """The observable as a Sectors over ``rows``, the row sets of the spectra it meets.

    A Sectors over those rows is returned as it is.  Any other matrix (a
    dense array, or a Sectors over other rows) is cut into its blocks
    over ``rows``; an entry that couples two of them raises
    InvalidMatrix, and the wrong size raises DimMismatch.
    """
    if _same_rows(observable, rows):
        return observable
    a = np.asarray(observable, dtype=float)
    if a.shape != (sum(r.size for r in rows),) * 2:
        raise DimMismatch(f"observable shape {a.shape} does not match the rows of the spectrum")
    cut = Sectors(rows, [a[np.ix_(r, r)] for r in rows])
    if not np.array_equal(np.asarray(cut), a):
        raise InvalidMatrix("the observable is not symmetric and block diagonal over the sectors")
    return cut


def thermal_expectation(state, observable):
    """(tr(rho A), tr(rho A^2)), block by block in the eigenbasis of the state.

    With W = A V_b on block b, <n|A|n> = (V_b^T W)_nn and
    <n|A^2|n> = |W e_n|^2, so both moments come from the one product
    and A^2 is never formed.
    """
    obs = _checked_observable(observable, [rows for rows, _, _ in state.spectrum.blocks])
    mean = second = 0.0
    for (_, levels, v), block in zip(state.spectrum.blocks, obs.blocks):
        w = (_dense(*block) if isinstance(block, tuple) else block) @ v
        mean += float(state.probs[levels] @ np.einsum("in,in->n", v, w))
        second += float(state.probs[levels] @ np.einsum("in,in->n", w, w))
    return mean, second
