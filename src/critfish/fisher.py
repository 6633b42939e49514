"""Fisher-information estimators for omega-parametrized thermal states.

Several routes to the same quantity, kept deliberately independent so
they can cross-check each other:

* ``qfi_spectral``       -- exact decomposition of the quantum Fisher
  information of a Gibbs state into the probability (classical) and
  eigenvector-rotation (quantum) pieces, with eigenstate derivatives
  from first-order perturbation theory in the analytic generator dH.
* ``qfi_fidelity_fd``    -- second-order finite difference of the
  Uhlmann fidelity between neighbouring thermal states.
* ``qfi_pure``           -- the same quantum pair sum over one eigenstate.
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

On a spectrum solved in an energy window (``eigh(H, window)``) the
levels a chain left unsolved carry no Gibbs weight, and enter only
through their elements with the weighted levels.  Those are summed per
weighted level by one tridiagonal resolvent solve (``_unsolved_mass``),
so the sums equal the full spectrum's to roundoff.

Every sum runs over the blocks of the spectrum (``Spectrum.blocks``).
dH is diagonal, and each block's eigenvectors vanish off its rows, so
<m|dH|n> is zero between two blocks and no pair across blocks
contributes.  Level indices, degenerate groups and the weighted prefix
K stay global; a degenerate group that spans two blocks is rotated
inside each of them, which only relabels its levels.  One pass visits
each block once (``_spectral_sums``): it rotates the block's groups,
writes its level slopes and adds its pairs to the quantum sum, and
keeps none of the block's rows for the next; a twin of the spectrum
(``Spectrum.twins``) with the dH and weights of the block before it
takes that block's slopes and adds its terms again.

Every thermal estimator takes the built model and its Gibbs state,
``gibbs(eigh(model.H), beta)`` (``qfi_pure`` takes a spectrum and a
level); the finite-difference routes hold the state's beta fixed along
their ladders.  They move the model along
omega with ``ModelInstance.hamiltonian``, which forms H = omega * dH - g * W
from the parts the model already holds, block by block as ``eigh``
solves it, so no operator is rebuilt or checked again on a ladder rung,
and no block the rung leaves out is formed.  Each rung's Gibbs state, and the
centre state of ``cfi_projective`` and ``fi_error_propagation``, is
solved in its Gibbs window (``models.gibbs_window``), which ends with
the degenerate group that straddles its edge, not at the first level
past it: a dense block whose levels all lie past that group is left
out, every other block is solved completely, and a block left out adds
nothing to any sum here.  So a cold rung keeps its ground block alone
where E_1 lies in another block.  Its levels' weights, below
``models.WINDOW_WEIGHT``, are all the estimates lose, so they move
only at roundoff.  The state at the centre
bounds each block's lowest level on a rung from below (a floor,
``_thermal_state``), so ``eigh`` leaves the blocks past the window
unsolved, not only out, and solves every chain whole.

The three finite-difference estimators share one ladder
(``_fd_ladder``) that halves the step until two rungs agree.  An
estimate under its roundoff floor reads exactly 0.0; the ladder accepts
it only from a rung that agrees with it, and ends in NoFDConvergence at
a floored rung below a nonzero one, or at once on a first step that no
estimate can resolve.  A fidelity ladder whose first rung floors ends in
NoFDConvergence too where its two density matrices differ in any entry,
or where its step moves no entry of H: every smaller step floors as
well.  It reads 0.0 only where H moves and the state does not.

The tolerances below are module constants, not parameters: the
finite-difference estimators take their first step ``delta_omega``, and
only the two measurement ones their ladder's agreement ``fd_rtol`` too.

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
    IncompleteSpectrum,
    InvalidTemperature,
    NegativeFisherPart,
    NoFDConvergence,
    ZeroVariance,
)
from .linalg import DEGENERACY_RTOL, _DGTSV, _same_rows, eigh, fidelity
from .models import gibbs_window
from .thermal import _checked_observable, density_matrix, gibbs, thermal_expectation

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


def _unsolved_mass(chain, dh, solved, columns, energies):
    """sum_m |<m|dH|x>|^2 / (E_m - E)^2 over a chain's unsolved levels m, per column x at level E.

    That is ||Q (T - E)^{-1} Q dH x||^2 for the chain T, where
    Q = 1 - V V^T projects out the block's solved vectors V: on the range
    of Q, (T - E)^{-1} is sum_m |m><m| / (E_m - E), a Sternheimer
    resolvent (Baroni, de Gironcoli, Dal Corso & Giannozzi, RMP 73, 515,
    2001).  Each column costs one tridiagonal solve (?gtsv).  T - E is
    nearly singular along the level's own vector, so the solve leaves
    roundoff there, and Q is applied again after it to drop it.
    """
    rhs = dh[:, None] * columns
    rhs -= solved @ (solved.T @ rhs)
    x = np.empty_like(rhs)
    for k, energy in enumerate(energies):
        x[:, k], info = _DGTSV(*chain, energy, rhs[:, k])
        if info != 0:
            raise DiagonalizationFailed(f"resolvent solve at level {energy!r} hit a zero pivot (info={info})")
    x -= solved @ (solved.T @ x)
    return np.einsum("in,in->n", x, x)


def _clamp_part(value):
    # parts are sums of squares; tiny negatives would be a bug, not roundoff
    if value < -1e-12:
        raise NegativeFisherPart(f"negative Fisher contribution {value}")
    return max(value, 0.0)


def _spectral_sums(spectrum, generator, tol, probs, offsets=None):
    """The quantum pair sum and the level slopes, in one visit to each block of the spectrum.

    The quantum part is
    2 sum_{n,m} (p_n - p_m)^2/(p_n + p_m) |<n|dH|m>|^2 / (E_m - E_n)^2,
    with ``generator`` dH's diagonal.  dH is diagonal, so it has no
    element between two blocks, and each block's pairs are summed in its
    own visit.  Within each group of numerically equal eigenvalues the
    basis is first rotated to diagonalize dH restricted to the group, so
    the level slopes become the proper Hellmann-Feynman derivatives and
    intra-group couplings vanish by construction; pairs inside one group
    are skipped, as are pairs whose combined weight is under the floor.
    A group that spans two blocks is rotated inside each of them, and a
    block's groups of one size are rotated by one stacked ``eigh`` call.

    Only the rows of the weighted levels K are formed: the shortest
    prefix of the spectrum that holds every level with
    p_n >= PAIR_WEIGHT_FLOOR / 2 and ends on a group boundary.  Every
    pair that passes the floor has a level in K, so a block's sum is its
    K x K part plus twice its K x light part.  A block's levels ascend,
    so its share of K is a prefix of its columns.  The slopes are
    sum_i dH_i V_in^2 for a lone level, and the eigenvalues of its
    group's own block of dH for a degenerate one.

    A chain of a windowed spectrum lacks its upper levels, which carry
    no weight (``gibbs`` normalizes over the solved levels): their pair
    weight with a level n of K is p_n, and their elements with n are
    summed by ``_unsolved_mass``.  A block whose solved levels all weigh
    exactly 0.0, or that holds none, adds nothing and is skipped, with
    slopes of 0.0 that every sum multiplies by their weight 0.0
    (``qfi_pure`` weighs one level, so it reads one block).  When
    ``offsets`` is given, the pair sum is also added into it by the
    level-index distance |n - m|.

    Returns (quantum part, slope per solved level, size of K).
    """
    energies = spectrum.eigenvalues
    # the group of each level counts the gaps over tol below it
    gid = np.zeros(len(probs), dtype=np.intp)
    np.cumsum(np.diff(energies) > tol, out=gid[1:])
    last_heavy = np.flatnonzero(probs >= PAIR_WEIGHT_FLOOR / 2.0)[-1]  # the weights sum to 1
    weighted = int(gid.searchsorted(gid[last_heavy], side="right"))
    slopes = np.zeros(len(probs))
    total, terms = 0.0, []  # the terms of the sum of the block summed last
    for b, (rows, levels, v) in enumerate(spectrum.blocks):
        p = probs[levels]
        if not p.any():
            continue
        dh = generator[rows]
        # a twin (``Spectrum.twins``) with the dH and weights of the block before it, summed last, takes that
        # block's slopes and terms; both are compared, as dH is the model's and a ThermalState takes any probs
        if offsets is None and b in spectrum.twins:
            before_rows, before_levels, _ = spectrum.blocks[b - 1]
            if np.array_equal(dh, generator[before_rows]) and np.array_equal(p, probs[before_levels]):
                slopes[levels] = slopes[before_levels]
                for term in terms:
                    total += term
                continue
        terms = []
        heavy = int(np.searchsorted(levels, weighted))
        complete = v.shape[1] == rows.size
        rotated = None if complete else v[:, :heavy].copy()
        m = (dh[:, None] * v[:, :heavy]).T @ v
        slopes[levels] = np.einsum("in,in,i->n", v, v, dh)
        # the block's share of each degenerate group, and dH restricted to it
        shares = [slice(g.start, g.stop) for g in _degenerate_groups(gid[levels], 0.5) if len(g) > 1]
        restricted = [m[sl, sl] if sl.start < heavy else (dh[:, None] * v[:, sl]).T @ v[:, sl] for sl in shares]
        rotations = [None] * len(shares)
        for size in sorted({len(block) for block in restricted}):
            members = [k for k, block in enumerate(restricted) if len(block) == size]
            stack = np.stack([restricted[k] for k in members])
            try:
                values, vectors = np.linalg.eigh((stack + stack.transpose(0, 2, 1)) / 2.0)
            except np.linalg.LinAlgError as exc:
                raise DiagonalizationFailed(f"rotating degenerate groups of {size} levels: {exc}") from exc
            for k, value, u in zip(members, values, vectors):
                rotations[k] = value, u
        for sl, (value, u) in zip(shares, rotations):
            slopes[levels[sl]] = value
            m[:, sl] = m[:, sl] @ u
            if sl.start < heavy:
                m[sl, :] = u.T @ m[sl, :]
                if rotated is not None:
                    rotated[:, sl] = rotated[:, sl] @ u
        m[:, :heavy] = (m[:, :heavy] + m[:, :heavy].T) / 2.0
        e, group = energies[levels], gid[levels]
        if not complete:
            light = _unsolved_mass(spectrum.matrix.blocks[b], dh, v, rotated, e[:heavy])
            terms.append(2.0 * float(p[:heavy] @ light))  # twice, as for every light pair
        for lo in range(0, heavy, _CHUNK):
            hi = min(lo + _CHUNK, heavy)
            p_rows = p[lo:hi, None]
            weight_sum = p_rows + p[None, :]
            mask = (weight_sum >= PAIR_WEIGHT_FLOOR) & (group[lo:hi, None] != group[None, :])
            with np.errstate(over="ignore"):  # at a huge energy scale a pair's denominator is inf, its term 0
                e_diff = e[None, :] - e[lo:hi, None]
                denom = np.where(mask, weight_sum * e_diff * e_diff, 1.0)
            contrib = np.where(mask, (p_rows - p[None, :]) ** 2 * m[lo:hi, :] ** 2 / denom, 0.0)
            contrib[:, heavy:] *= 2.0  # each light pair stands for (n, m) and (m, n)
            terms.append(float(contrib.sum()))
            if offsets is not None:
                distance = np.abs(levels[lo:hi, None] - levels[None, :])
                offsets += 2.0 * np.bincount(distance.ravel(), weights=contrib.ravel(), minlength=offsets.size)
        for term in terms:
            total += term
    return 2.0 * total, slopes, weighted


def _checked_gibbs(model, state):
    """Raise unless ``state`` is a finite-beta state over the model's dimension."""
    if state.dim != model.H.shape[0]:
        raise DimMismatch(
            f"state dimension {state.dim} does not match model dimension {model.H.shape[0]}"
        )
    if math.isinf(state.beta):
        raise InvalidTemperature(
            "spectral decomposition needs finite beta; at T = 0 use qfi_pure or qfi_fidelity_fd"
        )


def qfi_spectral(model, state):
    """Quantum Fisher information of a finite-temperature Gibbs state.

    classical_part = sum_n (dp_n/domega)^2 / p_n with Hellmann-Feynman
    level derivatives; quantum_part couples eigenpairs through
    <n|dH|m> / (E_m - E_n).  Requires finite beta (use qfi_pure or
    qfi_fidelity_fd for the T = 0 curve).
    """
    _checked_gibbs(model, state)
    probs = state.probs
    tol = DEGENERACY_RTOL * state.spectrum.energy_scale
    quantum, level_slopes, weighted = _spectral_sums(state.spectrum, model.dH, tol, probs)

    mean_slope = float(np.dot(probs, level_slopes))
    dprobs = -state.beta * probs * (level_slopes - mean_slope)
    keep = probs > PROB_FLOOR
    classical = float(np.sum(dprobs[keep] ** 2 / probs[keep]))

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
            "weighted_levels": weighted,
        },
    )


def quantum_term_by_offset(model, state):
    """Quantum-term mass of qfi_spectral, resolved by level distance |n - m|.

    Diagnostic companion to qfi_spectral: returns an array whose k-th
    entry is the mass carried by eigenpairs k levels apart (entry 0 is
    always zero).  For the oscillator model essentially all mass sits at
    distance 2.  Raises IncompleteSpectrum on a windowed spectrum, whose
    unsolved levels have no index.

    The split is defined up to the order of levels inside a degenerate
    group on which dH is degenerate too (the k and -k levels of the
    ring, which always span two twin blocks, one level in each): any
    rotation of such a group keeps the total and moves mass between its
    level indices.  The basis is the one ``qfi_spectral`` uses, each
    group rotated to diagonalize dH inside each block of the spectrum,
    never across two.
    """
    if not state.spectrum.complete:
        raise IncompleteSpectrum("the mass by level distance needs every level; diagonalize without a window")
    _checked_gibbs(model, state)
    offsets = np.zeros(state.dim)
    _spectral_sums(state.spectrum, model.dH, DEGENERACY_RTOL * state.spectrum.energy_scale, state.probs, offsets)
    return offsets


def qfi_pure(model, spectrum, level=0):
    """Fisher information of one eigenstate: 4 sum_{m!=n} |<m|dH|n>|^2/(E_n-E_m)^2.

    It is the quantum pair sum of ``qfi_spectral`` over the level's weight
    alone (p_n = 1), so on a windowed spectrum the unsolved levels of its
    block enter through the same resolvent (``_unsolved_mass``).
    """
    energies = spectrum.eigenvalues
    d = len(energies)
    if not 0 <= level < d:
        raise ValueError(f"level {level} out of range for the {d} solved levels")
    tol = DEGENERACY_RTOL * spectrum.energy_scale
    if (level > 0 and energies[level] - energies[level - 1] <= tol) or (
        level < d - 1 and energies[level + 1] - energies[level] <= tol
    ):
        raise DegenerateLevel(f"level {level} is degenerate within tolerance {tol:.3e}")
    probs = np.zeros(d)
    probs[level] = 1.0
    return _spectral_sums(spectrum, model.dH, tol, probs)[0]


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

    An estimate of exactly 0.0 is one its roundoff floor took.  A ladder
    floored from its first rung returns 0.0; a floored rung that does
    not agree with the nonzero estimate before it raises NoFDConvergence
    with those two, since every smaller step floors too and two floored
    zeros would agree on nothing.  A first step that is not positive and
    finite, or whose square underflows to 0.0, raises at once: no
    estimate can resolve such a step.
    """
    delta = FD_DELTA_FACTOR * omega if delta_omega is None else delta_omega
    if not (0.0 < delta < math.inf and delta * delta > 0.0):
        raise NoFDConvergence(f"no step to start from: delta = {delta!r}", estimates=())
    history = [(delta, estimate(delta))]
    delta /= 2.0
    while delta >= FD_DELTA_MIN_FACTOR * omega and delta > 0.0:
        value = estimate(delta)
        previous = history[-1][1]
        if abs(value - previous) <= rtol * max(abs(value), abs(previous)) + atol:
            return (4.0 * value - previous) / 3.0, delta
        history.append((delta, value))
        if value == 0.0:
            break
        delta /= 2.0
    raise NoFDConvergence(
        f"finite-difference estimates did not settle by delta = {history[-1][0]:.3e}",
        estimates=tuple(v for _, v in history[-2:]),
    )


def _checked_state(model, state):
    """Raise DimMismatch unless the state's blocks are over the rows of the model's H, block for block."""
    if not _same_rows(model.H, [rows for rows, _, _ in state.spectrum.blocks]):
        raise DimMismatch("the state's blocks are not over the rows of the model's blocks")


def _thermal_state(model, state, omega):
    """Gibbs state of the model at another omega and ``state.beta``, solved in its Gibbs window.

    ``state`` is the model's Gibbs state at model.omega.  The floor of
    each block is its lowest level there (``Spectrum.lows``, -inf where
    ``state`` holds no level of it), minus the most it can move on the
    way to ``omega`` (``ModelInstance.generator_bounds``), in one array
    operation.  Given floors, ``eigh`` solves every chain whole and no
    block whose floor lies past the window's end, the degenerate group
    that straddles its edge (a cold rung's ground group); the rung's H
    (``ModelInstance.hamiltonian``) forms only the blocks it solves.
    """
    H = model.hamiltonian(omega)
    floors = state.spectrum.lows - abs(omega - model.omega) * model.generator_bounds
    return gibbs(eigh(H, window=gibbs_window(state.beta), floors=floors), state.beta)


def qfi_fidelity_fd(model, state, delta_omega=None):
    """Quantum Fisher information from the fidelity between neighbours:

        8 * (1 - sqrt(F[rho(omega - d/2), rho(omega + d/2)])) / d^2

    with the step halved until two consecutive estimates agree to
    FD_RTOL (plus FD_ATOL absolute).  The square root matters:
    1 - F itself shrinks like QFI * d^2 / 4, so feeding the squared
    fidelity into the /8 form would return twice the Fisher information
    (pure states make this obvious: F = |<psi|psi'>|^2 = 1 - QFI d^2/4).
    ``state`` is the model's Gibbs state (``gibbs(eigh(model.H), beta)``);
    its beta is held fixed across the two evaluations, so resolve any
    gap-ratio parametrization before building it.  Root infidelities below
    the roundoff scale of the fidelity count as exact zero, so identical
    states give 0 instead of amplified noise.  A first rung below that
    floor raises NoFDConvergence where its two density matrices differ in
    any entry, or where its two Hamiltonians (``ModelInstance.hamiltonian``)
    are equal: the step resolves no move of a state that moves, nor does
    any smaller one.  The derivative is taken at ``model.omega``.
    """
    _checked_state(model, state)
    omega = model.omega
    rungs = []

    def estimate(step):
        rho = density_matrix(_thermal_state(model, state, omega - step / 2.0))
        sigma = density_matrix(_thermal_state(model, state, omega + step / 2.0))
        infidelity = 1.0 - math.sqrt(fidelity(rho, sigma))
        rungs.append(step)
        if infidelity >= 8.0 * rho.shape[0] * np.finfo(float).eps:
            return 8.0 * infidelity / step / step
        # a first rung that floors on states that differ, or on a step that moves no entry of H: every
        # smaller step floors too
        if len(rungs) == 1 and (_differ(rho, sigma) or not _differ(*(model.hamiltonian(omega + side * step / 2.0)
                                                                      for side in (-1.0, 1.0)))):
            raise NoFDConvergence(f"the root infidelity floors at the first step {step:.3e}, which resolves no move "
                                  "of the state", estimates=(0.0,))
        return 0.0

    value, _ = _fd_ladder(estimate, omega, delta_omega, FD_RTOL, FD_ATOL)
    return max(value, 0.0)


def _differ(a, b):
    """Whether two Sectors over the same rows and layout differ in any entry, a zero block (None) reading as zeros."""
    for x, y in zip(a.blocks, b.blocks):
        if x is not y:
            x, y = (np.zeros(0) if z is None else np.concatenate(z) if isinstance(z, tuple) else z.ravel()
                    for z in (x, y))
            if not np.array_equal(x, y) if x.size == y.size else np.any(x if x.size else y):
                return True
    return False


def _outcome_projectors(observable):
    """Eigendecomposition of the observable with degenerate eigenvalues merged.

    Returns (its Spectrum, list of level ranges), one range per distinct
    outcome.  Merging matters: measuring a squared spin component must
    not distinguish +m from -m.
    """
    spec = eigh(observable)
    scale = max(1.0, float(np.max(np.abs(spec.eigenvalues))))
    return spec, _degenerate_groups(spec.eigenvalues, OUTCOME_GROUP_RTOL * scale)


def cfi_projective(model, state, observable, delta_omega=None, fd_rtol=FD_RTOL):
    """Classical Fisher information of projectively measuring an observable.

    Outcome probabilities tr(rho Pi_k) = sum_n p_n |<k|n>|^2 over the
    observable's merged eigenprojectors (fixed across the differentiation)
    are read off the Gibbs eigenpairs, block by block: the observable is
    taken over the model's sectors, so <k|n> vanishes between blocks.
    Their derivatives come from the same central-difference ladder as
    qfi_fidelity_fd, at ``state``'s beta.  Outcomes with probability
    below 1e-12 at the centre are skipped.
    """
    _checked_state(model, state)
    obs = _checked_observable(observable, model.H.rows)
    omega = model.omega
    basis, groups = _outcome_projectors(obs)
    if len(groups) == 1:
        return 0.0  # one outcome: the distribution cannot move

    def outcome_probs(at_omega):
        rung = _thermal_state(model, state, at_omega)
        overlap = np.zeros(basis.eigenvalues.size)
        for b in rung.spectrum.kept:  # a block with no solved level adds nothing
            (_, levels, v), (_, outcomes, u) = rung.spectrum.blocks[b], basis.blocks[b]
            overlap[outcomes] = np.square(u.T @ v) @ rung.probs[levels]
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


def fi_error_propagation(model, state, observable, delta_omega=None, fd_rtol=FD_RTOL):
    """Two-moment Fisher information (d<A>/domega)^2 / Var(A).

    The weakest of the three estimators but the cheapest experimentally:
    only the mean and variance of one observable enter, both read off
    the centre state by ``thermal_expectation``; the slope comes from
    the same ladder as qfi_fidelity_fd, at ``state``'s beta.  Raises
    ZeroVariance when the observable does not fluctuate in the state.
    """
    _checked_state(model, state)
    obs = _checked_observable(observable, model.H.rows)
    omega = model.omega
    center = _thermal_state(model, state, omega)
    mean, second = thermal_expectation(center, obs)
    variance = second - mean ** 2
    stored = [a for block in obs.blocks for a in (block if isinstance(block, tuple) else (block,))]
    scale = max(1.0, *(float(np.max(np.abs(a), initial=0.0)) for a in stored))
    if variance <= VARIANCE_FLOOR_RTOL * scale ** 2:
        raise ZeroVariance(f"Var(A) = {variance:.3e} is numerically zero")
    # differences down at the roundoff of <A> are a constant <A>, not a slope
    floor = center.dim * np.finfo(float).eps * abs(mean)

    def estimate(step):
        plus, _ = thermal_expectation(_thermal_state(model, state, omega + step / 2.0), obs)
        minus, _ = thermal_expectation(_thermal_state(model, state, omega - step / 2.0), obs)
        return 0.0 if abs(plus - minus) <= floor else (plus - minus) / step

    slope, _ = _fd_ladder(estimate, omega, delta_omega, fd_rtol, ERRPROP_FD_ATOL)
    return slope ** 2 / variance
