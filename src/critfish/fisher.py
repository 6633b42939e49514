"""Fisher-information estimators for omega-parametrized thermal states.

Several routes to the same quantity, kept deliberately independent so
they can cross-check each other:

* ``qfi_spectral``       -- exact decomposition of the quantum Fisher
  information of a Gibbs state into the probability (classical) and
  eigenvector-rotation (quantum) pieces, with eigenstate derivatives
  from first-order perturbation theory in the analytic generator dH.
* ``qfi_fidelity_fd``    -- second-order finite difference of the
  Uhlmann fidelity between neighbouring thermal states.
* ``qfi_pure``           -- Fisher information of a single eigenstate.
* ``cfi_projective``     -- classical Fisher information of one fixed
  projective measurement.
* ``fi_error_propagation`` -- the two-moment (signal slope over noise)
  lower bound for the same observable.

Eigenvector derivatives are never taken numerically: perturbation
theory on dH avoids sign and rotation instabilities entirely.  Inside
degenerate subspaces the eigenbasis is first rotated to diagonalize dH,
which makes level derivatives well-defined and removes intra-subspace
couplings by construction.

The spectral sums rotate only the rows of the weighted levels K, those
with p_n >= PAIR_WEIGHT_FLOOR / 2 extended to whole degenerate groups.
That is exact: a pair with both levels below the cut has p_n + p_m
under the pair-weight floor and is skipped anyway, and the classical
part needs only each level's slope.  In a cold state near criticality
a few dozen of thousands of levels carry weight, so the rotation costs
|K| n^2 instead of n^3.

Every sum runs over the blocks of the spectrum (``Spectrum.blocks``).
dH is diagonal, and each block's eigenvectors vanish off its rows, so
<m|dH|n> is zero between two blocks and no pair across blocks
contributes.  Level indices, degenerate groups and the weighted prefix
K stay global; a degenerate group that spans two blocks is rotated
inside each of them, which only relabels its levels.

Every estimator takes the built model.  The finite-difference routes
move it along omega with ``ModelInstance.at``, which re-forms
H = omega * dH - g * W from the parts the model already holds, so no
operator is rebuilt on a ladder rung.

The tolerances below are module constants, not parameters: only the
ladder's relative agreement ``fd_rtol`` and its first step
``delta_omega`` are arguments of the finite-difference estimators.

All estimators are pure functions of their arguments; grid points of a
parameter sweep can run in parallel without coordination.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateLevel,
    DiagonalizationFailed,
    DimMismatch,
    InvalidTemperature,
    NegativeFisherPart,
    NoFDConvergence,
    ZeroVariance,
)
from .linalg import eigh, fidelity
from .thermal import _checked_observable, density_matrix, gibbs, thermal_expectation

DEGENERACY_RTOL = 1e-10        # |E_i - E_j| below this * ||H|| counts as degenerate
PAIR_WEIGHT_FLOOR = 1e-15      # skip quantum terms with p_n + p_m below this
PROB_FLOOR = 1e-300            # skip classical terms with p_n below this
OUTCOME_GROUP_RTOL = 1e-10     # merge observable eigenvalues within this * scale
OUTCOME_PROB_FLOOR = 1e-12     # skip measurement outcomes below this probability
FD_RTOL = 1e-3                 # ladder acceptance: consecutive estimates agree to this
FD_ATOL = 1e-10                # absolute slack for near-zero estimates
ERRPROP_FD_ATOL = 1e-12        # the same slack for the error-propagation slope
FD_DELTA_FACTOR = 1e-4         # default starting step, in units of omega
FD_DELTA_MIN_FACTOR = 1e-8     # smallest step the ladder will try, in units of omega
VARIANCE_FLOOR_RTOL = 1e-14    # ZeroVariance below this * scale^2
_CHUNK = 512                   # row blocking for the pair sums


@dataclass(frozen=True)
class FisherBreakdown:
    """Total Fisher information with its classical/quantum split.

    total == classical_part + quantum_part by construction; both parts
    are sums of squares and therefore non-negative.  ``meta`` records
    the tolerances and truncation that produced the numbers.
    """

    total: float
    classical_part: float
    quantum_part: float
    method: str
    meta: dict


def _degenerate_groups(values, tol):
    """Split ascending values into runs whose consecutive gaps stay <= tol."""
    if len(values) == 0:
        return []
    edges = [0, *(np.flatnonzero(np.diff(values) > tol) + 1).tolist(), len(values)]
    return [range(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


def _rotated_generator(spectrum, generator, tol, probs):
    """Weighted rows of <n|dH|m> in a degeneracy-adapted eigenbasis, block by block.

    ``generator`` is dH's diagonal.  dH is diagonal, so it has no element
    between two blocks of the spectrum, and every element lives inside
    one block.  Within each group of numerically equal eigenvalues the
    basis is rotated to diagonalize dH restricted to the group, so the
    level slopes become the proper Hellmann-Feynman derivatives and
    intra-group couplings vanish by construction.  A group that spans
    two blocks is rotated inside each of them.

    Only the rows of the weighted levels K are formed: the shortest
    prefix of the spectrum that holds every level with
    p_n >= PAIR_WEIGHT_FLOOR / 2 and ends on a group boundary.  Every
    pair that passes the pair-weight floor has a level in K, so these
    rows hold every element the quantum sum reads.  A block's levels
    ascend, so its share of K is a prefix of its columns.  The classical
    part needs only the slopes: sum_i dH_i V_in^2 for a lone level, and
    the eigenvalues of its group's own block of dH for a degenerate one.

    Returns (one (levels, rows of the block's elements) per block,
    slope per level, group id per level); levels and group ids are global.
    """
    groups = _degenerate_groups(spectrum.eigenvalues, tol)
    gid = np.repeat(np.arange(len(groups)), [len(group) for group in groups])
    last_heavy = np.flatnonzero(probs >= PAIR_WEIGHT_FLOOR / 2.0)[-1]  # the weights sum to 1
    weighted = groups[gid[last_heavy]].stop
    slopes = np.empty(spectrum.dim)
    parts = []
    for rows, levels, v in spectrum.blocks:
        dh = generator[rows]
        heavy = int(np.searchsorted(levels, weighted))
        m = (dh[:, None] * v[:, :heavy]).T @ v
        slopes[levels] = np.einsum("in,in,i->n", v, v, dh)
        for group in _degenerate_groups(gid[levels], 0.5):  # the block's share of each group
            if len(group) > 1:
                sl = slice(group.start, group.stop)
                inside = group.start < heavy
                block = m[sl, sl] if inside else (dh[:, None] * v[:, sl]).T @ v[:, sl]
                try:
                    slopes[levels[sl]], u = np.linalg.eigh((block + block.T) / 2.0)
                except np.linalg.LinAlgError as exc:
                    raise DiagonalizationFailed(f"rotating a degenerate group of {len(group)} levels: {exc}") from exc
                m[:, sl] = m[:, sl] @ u
                if inside:
                    m[sl, :] = u.T @ m[sl, :]
        m[:, :heavy] = (m[:, :heavy] + m[:, :heavy].T) / 2.0
        parts.append((levels, m))
    return parts, slopes, gid


def _quantum_pair_sum(energies, probs, gid, parts, offsets=None):
    """2 sum_{n,m} (p_n - p_m)^2/(p_n + p_m) |<n|dH|m>|^2 / (E_m - E_n)^2.

    Only pairs inside one block of the spectrum couple, so the sum runs
    block by block over ``parts``, the (levels, elements) pairs of
    _rotated_generator.  Ordered pairs inside one degenerate group are
    skipped (their couplings are zero after the basis rotation anyway),
    as are pairs whose combined weight is negligible.  A block's elements
    hold the rows of its weighted levels K; every pair that passes the
    floor has a level in K, so the block's sum is its K x K part plus
    twice its K x light part.  When ``offsets`` is given, the mass is
    also added into it by the level-index distance |n - m|.
    """
    total = 0.0
    for levels, elements in parts:
        e, p, group = energies[levels], probs[levels], gid[levels]
        weighted = len(elements)
        for lo in range(0, weighted, _CHUNK):
            hi = min(lo + _CHUNK, weighted)
            p_rows = p[lo:hi, None]
            weight_sum = p_rows + p[None, :]
            e_diff = e[None, :] - e[lo:hi, None]
            mask = (weight_sum >= PAIR_WEIGHT_FLOOR) & (group[lo:hi, None] != group[None, :])
            denom = np.where(mask, weight_sum * e_diff * e_diff, 1.0)
            contrib = np.where(
                mask,
                (p_rows - p[None, :]) ** 2 * elements[lo:hi, :] ** 2 / denom,
                0.0,
            )
            contrib[:, weighted:] *= 2.0  # each light pair stands for (n, m) and (m, n)
            total += float(contrib.sum())
            if offsets is not None:
                distance = np.abs(levels[lo:hi, None] - levels[None, :])
                offsets += 2.0 * np.bincount(distance.ravel(), weights=contrib.ravel(), minlength=offsets.size)
    return 2.0 * total


def _clamp_part(value):
    # parts are sums of squares; tiny negatives would be a bug, not roundoff
    if value < -1e-12:
        raise NegativeFisherPart(f"negative Fisher contribution {value}")
    return max(value, 0.0)


def _spectral_terms(model, state):
    """Checked inputs of the spectral sums: (energies, probs, tol, parts, slopes, gid)."""
    if state.dim != model.H.shape[0]:
        raise DimMismatch(
            f"state dimension {state.dim} does not match model dimension {model.H.shape[0]}"
        )
    if math.isinf(state.beta):
        raise InvalidTemperature(
            "spectral decomposition needs finite beta; at T = 0 use qfi_pure or qfi_fidelity_fd"
        )
    energies = state.spectrum.eigenvalues
    tol = DEGENERACY_RTOL * max(1.0, float(np.max(np.abs(energies))))
    parts, slopes, gid = _rotated_generator(state.spectrum, model.dH, tol, state.probs)
    return energies, state.probs, tol, parts, slopes, gid


def qfi_spectral(model, state):
    """Quantum Fisher information of a finite-temperature Gibbs state.

    classical_part = sum_n (dp_n/domega)^2 / p_n with Hellmann-Feynman
    level derivatives; quantum_part couples eigenpairs through
    <n|dH|m> / (E_m - E_n).  Requires finite beta (use qfi_pure or
    qfi_fidelity_fd for the T = 0 curve).
    """
    energies, probs, tol, parts, level_slopes, gid = _spectral_terms(model, state)

    mean_slope = float(np.dot(probs, level_slopes))
    dprobs = -state.beta * probs * (level_slopes - mean_slope)
    keep = probs > PROB_FLOOR
    classical = float(np.sum(dprobs[keep] ** 2 / probs[keep]))

    quantum = _quantum_pair_sum(energies, probs, gid, parts)

    classical = _clamp_part(classical)
    quantum = _clamp_part(quantum)
    return FisherBreakdown(
        total=classical + quantum,
        classical_part=classical,
        quantum_part=quantum,
        method="spectral",
        meta={
            "degeneracy_tol": tol,
            "pair_weight_floor": PAIR_WEIGHT_FLOOR,
            "prob_floor": PROB_FLOOR,
            "size": model.size,
            "weighted_levels": sum(len(elements) for _, elements in parts),
        },
    )


def quantum_term_by_offset(model, state):
    """Quantum-term mass of qfi_spectral, resolved by level distance |n - m|.

    Diagnostic companion to qfi_spectral: returns an array whose k-th
    entry is the mass carried by eigenpairs k levels apart (entry 0 is
    always zero).  For the oscillator model essentially all mass sits at
    distance 2.
    """
    energies, probs, _, parts, _, gid = _spectral_terms(model, state)
    offsets = np.zeros(state.dim)
    _quantum_pair_sum(energies, probs, gid, parts, offsets)
    return offsets


def qfi_pure(model, spectrum, level=0):
    """Fisher information of one eigenstate: 4 sum_{m!=n} |<m|dH|n>|^2/(E_n-E_m)^2."""
    energies = spectrum.eigenvalues
    d = spectrum.dim
    if not 0 <= level < d:
        raise ValueError(f"level {level} out of range for dimension {d}")
    tol = DEGENERACY_RTOL * max(1.0, float(np.max(np.abs(energies))))
    if (level > 0 and energies[level] - energies[level - 1] <= tol) or (
        level < d - 1 and energies[level + 1] - energies[level] <= tol
    ):
        raise DegenerateLevel(f"level {level} is degenerate within tolerance {tol:.3e}")
    # only the levels of the level's own block couple to it through the diagonal dH
    rows, levels, v = next(block for block in spectrum.blocks if level in block[1])
    others = levels != level
    column = v[:, others].T @ (model.dH[rows] * v[:, ~others].ravel())
    return 4.0 * float(np.sum(column ** 2 / (energies[level] - energies[levels[others]]) ** 2))


def _fd_ladder(estimate, omega, delta_omega, rtol, atol):
    """Halve the step until two consecutive estimates agree.

    The first step is ``delta_omega``, or FD_DELTA_FACTOR * omega when
    None.  Near criticality no single step is safe, so convergence is
    judged by agreement of neighbouring rungs; failure to settle by
    FD_DELTA_MIN_FACTOR * omega raises NoFDConvergence carrying the last
    two estimates.  All estimates here are even-order in the step, so the
    accepted pair is returned step-doubling extrapolated,
    (4 fine - coarse) / 3, which squares the relative accuracy without
    extra rungs.
    """
    delta0 = FD_DELTA_FACTOR * omega if delta_omega is None else delta_omega
    history = [(delta0, estimate(delta0))]
    delta = delta0 / 2.0
    while delta >= FD_DELTA_MIN_FACTOR * omega:
        value = estimate(delta)
        previous = history[-1][1]
        if abs(value - previous) <= rtol * max(abs(value), abs(previous)) + atol:
            return (4.0 * value - previous) / 3.0, delta
        history.append((delta, value))
        delta /= 2.0
    raise NoFDConvergence(
        f"finite-difference estimates did not settle before delta = {delta * 2.0:.3e}",
        estimates=tuple(v for _, v in history[-2:]),
    )


def _thermal_state(model, omega, beta):
    return gibbs(eigh(model.at(omega).H), beta)


def qfi_fidelity_fd(model, beta, delta_omega=None, fd_rtol=FD_RTOL):
    """Quantum Fisher information from the fidelity between neighbours:

        8 * (1 - sqrt(F[rho(omega - d/2), rho(omega + d/2)])) / d^2

    with the step halved until two consecutive estimates agree to
    ``fd_rtol`` (plus FD_ATOL absolute).  The square root matters:
    1 - F itself shrinks like QFI * d^2 / 4, so feeding the squared
    fidelity into the /8 form would return twice the Fisher information
    (pure states make this obvious: F = |<psi|psi'>|^2 = 1 - QFI d^2/4).
    ``beta`` is held fixed across the two evaluations; resolve any
    gap-ratio parametrization before calling.  Root infidelities below
    the roundoff scale of the fidelity count as exact zero, so identical
    states give 0 instead of amplified noise.  The derivative is taken at
    ``model.omega``.
    """
    omega = model.omega

    def estimate(step):
        rho = density_matrix(_thermal_state(model, omega - step / 2.0, beta))
        sigma = density_matrix(_thermal_state(model, omega + step / 2.0, beta))
        infidelity = 1.0 - math.sqrt(fidelity(rho, sigma))
        floor = 8.0 * rho.shape[0] * np.finfo(float).eps
        if infidelity < floor:
            infidelity = 0.0
        return 8.0 * infidelity / step ** 2

    value, _ = _fd_ladder(estimate, omega, delta_omega, fd_rtol, FD_ATOL)
    return max(value, 0.0)


def _outcome_projectors(observable):
    """Eigendecomposition of the observable with degenerate eigenvalues merged.

    Returns (its Spectrum, list of level ranges), one range per distinct
    outcome.  Merging matters: measuring a squared spin component must
    not distinguish +m from -m.
    """
    spec = eigh(observable)
    scale = max(1.0, float(np.max(np.abs(spec.eigenvalues))))
    return spec, _degenerate_groups(spec.eigenvalues, OUTCOME_GROUP_RTOL * scale)


def cfi_projective(model, beta, observable, delta_omega=None, fd_rtol=FD_RTOL):
    """Classical Fisher information of projectively measuring an observable.

    Outcome probabilities tr(rho Pi_k) = sum_n p_n |<k|n>|^2 over the
    observable's merged eigenprojectors (fixed across the differentiation)
    are read off the Gibbs eigenpairs, block by block: the observable is
    taken over the model's sectors, so <k|n> vanishes between blocks.
    Their derivatives come from the same central-difference ladder as
    qfi_fidelity_fd.  Outcomes with probability below 1e-12 at the centre
    are skipped.
    """
    obs = _checked_observable(observable, model.H.rows)
    omega = model.omega
    basis, groups = _outcome_projectors(obs)
    if len(groups) == 1:
        return 0.0  # one outcome: the distribution cannot move

    def outcome_probs(at_omega):
        state = _thermal_state(model, at_omega, beta)
        overlap = np.empty(state.dim)
        for (_, levels, v), (_, outcomes, u) in zip(state.spectrum.blocks, basis.blocks):
            overlap[outcomes] = np.square(u.T @ v) @ state.probs[levels]
        return np.add.reduceat(overlap, [g.start for g in groups])

    center = outcome_probs(omega)
    keep = center > OUTCOME_PROB_FLOOR

    def estimate(step):
        plus = outcome_probs(omega + step / 2.0)
        minus = outcome_probs(omega - step / 2.0)
        slopes = (plus - minus) / step
        return float(np.sum(slopes[keep] ** 2 / center[keep]))

    value, _ = _fd_ladder(estimate, omega, delta_omega, fd_rtol, FD_ATOL)
    return max(value, 0.0)


def fi_error_propagation(model, beta, observable, delta_omega=None, fd_rtol=FD_RTOL):
    """Two-moment Fisher information (d<A>/domega)^2 / Var(A).

    The weakest of the three estimators but the cheapest experimentally:
    only the mean and variance of one observable enter, both read off
    the centre state by ``thermal_expectation``.  Raises ZeroVariance
    when the observable does not fluctuate in the state.
    """
    obs = _checked_observable(observable, model.H.rows)
    omega = model.omega
    center = _thermal_state(model, omega, beta)
    mean, second = thermal_expectation(center, obs)
    variance = second - mean ** 2
    stored = [a for block in obs.blocks for a in (block if isinstance(block, tuple) else (block,))]
    scale = max(1.0, *(float(np.max(np.abs(a), initial=0.0)) for a in stored))
    if variance <= VARIANCE_FLOOR_RTOL * scale ** 2:
        raise ZeroVariance(f"Var(A) = {variance:.3e} is numerically zero")
    # differences down at the roundoff of <A> are a constant <A>, not a slope
    floor = center.dim * np.finfo(float).eps * abs(mean)

    def estimate(step):
        plus, _ = thermal_expectation(_thermal_state(model, omega + step / 2.0, beta), obs)
        minus, _ = thermal_expectation(_thermal_state(model, omega - step / 2.0, beta), obs)
        return 0.0 if abs(plus - minus) <= floor else (plus - minus) / step

    slope, _ = _fd_ladder(estimate, omega, delta_omega, fd_rtol, ERRPROP_FD_ATOL)
    return slope ** 2 / variance
