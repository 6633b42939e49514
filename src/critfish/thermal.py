"""Gibbs states over a fixed spectrum, gaps, and the gap-ratio temperature axis.

Weights are computed after shifting all energies by E_0, so no weight
exceeds 1; where beta (E_n - E_0) overflows at a huge finite beta, the
exponent is -inf and the weight the exact exp(-inf) = 0, without a
warning.  beta = math.inf is a first-class value
(the exact T = 0 reference), with degenerate ground groups weighted
uniformly -- the continuous limit of the finite-beta weights.  A Gibbs
state keeps the blocks of its spectrum: its density matrix is one dense
block per sector, and the moments of an observable are summed block by
block.  An observable is brought onto those blocks in one place,
``_checked_observable``, for this module and for ``fisher``; a zero
block of it becomes an explicit block of zeros there.  Over a
spectrum solved in an energy window the weights are normalized over the
solved levels; the window is chosen so that the rest carry a negligible
share of Z (``models.WINDOW_WEIGHT``).  The oscillator's truncation
ladder and the Gibbs states of the finite-difference rungs (``fisher``)
are solved in that window; a block it left with no solved level holds
no weight, and ``density_matrix`` gives it a zero block.
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
        # scaled by the spectrum's own largest |E|, not by energy_scale, whose floor of 1 would make one ground
        # group of distinct levels at tiny omega
        top = energies[-1] if spectrum.highest is None else spectrum.highest
        ground = energies <= energies[0] + GROUND_DEGENERACY_RTOL * max(abs(float(energies[0])), abs(float(top)))
        probs = np.where(ground, 1.0 / int(np.count_nonzero(ground)), 0.0)
        return ThermalState(spectrum=spectrum, beta=beta, probs=probs)
    with np.errstate(over="ignore"):  # an overflowing exponent is -inf, whose weight is 0
        weights = np.exp(-beta * (energies - energies[0]))
    return ThermalState(spectrum=spectrum, beta=float(beta), probs=weights / float(weights.sum()))


def density_matrix(state):
    """rho = V diag(p) V^T, a dense block (V_b diag(p)) V_b^T per spectrum block: symmetric, PSD, unit trace.

    Each block is made exactly symmetric, as ``Sectors`` stores a dense
    block.  A block with no solved level is a zero block (None), and a
    twin of the spectrum (``Spectrum.twins``) with the weights of the
    block before it is the same array as that block.
    """
    spectrum = state.spectrum
    blocks = [None] * len(spectrum.blocks)
    for b in spectrum.kept:
        _, levels, v = spectrum.blocks[b]
        weights = state.probs[levels]
        # the weights are compared, not assumed equal: a ThermalState takes any probs
        if b in spectrum.twins and np.array_equal(weights, state.probs[spectrum.blocks[b - 1][1]]):
            blocks[b] = blocks[b - 1]
            continue
        rho = (v * weights) @ v.T
        block = rho + rho.T
        block /= 2.0
        block.setflags(write=False)
        blocks[b] = block
    return Sectors._checked(tuple(rows for rows, _, _ in spectrum.blocks), blocks)


def gap(spectrum):
    """E_1 - E_0, taken literally (no skipping of degenerate levels)."""
    if spectrum.dim < 2:
        raise InvalidDimension("gap needs at least two levels")
    e = spectrum.eigenvalues
    return float(e[1] - e[0])


def gap_resolved(delta, spectrum):
    """Whether the gap ``delta`` of ``spectrum`` sets a temperature scale: it is at least GAP_FLOOR_RTOL * energy scale.

    Both temperature modes share this floor: below it a gap ratio has no
    beta (``beta_from_gap_ratio``) and a beta has no gap ratio (the sweep).
    """
    return delta >= GAP_FLOOR_RTOL * spectrum.energy_scale


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
    a vanishing scale, and a finite ratio whose beta overflows raises
    InvalidTemperature rather than select that curve.
    """
    if not ratio > 0:
        raise InvalidTemperature(f"beta-gap ratio must be > 0, got {ratio}")
    delta = gap(spectrum)
    if not gap_resolved(delta, spectrum):
        raise GapTooSmall(f"E_1 - E_0 = {delta:.3e} is too close to degeneracy")
    if math.isinf(ratio):
        return math.inf
    beta = float(ratio) * delta
    if math.isinf(beta):
        raise InvalidTemperature(f"beta = {ratio!r} * {delta:.3e} overflows")
    return beta


def _checked_observable(observable, rows):
    """The observable as a Sectors over ``rows``, the row sets of the spectra it meets, with no zero block.

    A Sectors over those rows is returned as it is, except that a zero
    block (None) becomes an explicit block of zeros: it is a part of the
    observable, whose rows measure 0, not a block with nothing in it.
    Any other matrix (a dense array, or a Sectors over other rows) is cut
    into its blocks over ``rows``; an entry that couples two of them
    raises InvalidMatrix, and the wrong size raises DimMismatch.
    """
    if _same_rows(observable, rows):
        if all(block is not None for block in observable.blocks):
            return observable
        return Sectors(observable.rows, [np.zeros((r.size, r.size)) if block is None else block
                                         for r, block in zip(observable.rows, observable.blocks)])
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
    and A^2 is never formed.  A block with no solved level is skipped.
    """
    obs = _checked_observable(observable, [rows for rows, _, _ in state.spectrum.blocks])
    mean = second = 0.0
    for b in state.spectrum.kept:  # a block with no solved level would give 0, at about 8 us a block
        (_, levels, v), block = state.spectrum.blocks[b], obs.blocks[b]
        w = (_dense(*block) if isinstance(block, tuple) else block) @ v
        mean += float(state.probs[levels] @ np.einsum("in,in->n", v, w))
        second += float(state.probs[levels] @ np.einsum("in,in->n", w, w))
    return mean, second
