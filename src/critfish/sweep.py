"""Configuration-driven sweeps over (coupling, temperature) grids.

A sweep is a flat list of independent cells, one per (g, temperature)
pair.  Every cell is a pure function of the configuration, so the
worker pool may evaluate them in any order and the assembled table is
identical for serial and parallel runs (within the limit run_sweep
states for BLAS threads).  Failed cells carry a status string instead
of aborting the sweep; numeric columns are either finite (inf allowed
for the T = 0 rows) or None.

``make_config`` is the one gate into a sweep.  Each configuration value
passes one rule for its kind: ``_number`` (finite, optionally > 0),
``_count`` (an integer >= 1), ``_items`` (a non-empty list),
``_choice``, and ``_temperature``, the only place an infinite value is
read (as the T = 0 row).  A value the cells could not survive, such as a
step that moves omega to zero, is rejected there with its field.  The
tolerances no configuration sets are module constants:
``fisher.FD_RTOL`` (the default of ``fd_rtol``), ``MEASUREMENT_FD_RTOL``
and ``models.TRUNCATION_RTOL``.
"""

import functools
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, fields

import numpy as np

from .analytic import Prep, ToyParams, fi_errprop_closed, qfi_thermal_classical, qfi_thermal_quantum
from .errors import ConfigError, CritfishError, WorkerDied
from .fisher import FD_RTOL, cfi_projective, fi_error_propagation, qfi_fidelity_fd, qfi_spectral
from .linalg import eigh, limit_blas_threads
from .models import ModelKind, build_model, toy_converged_truncation
from .operators import make_chain_ops, make_dicke_ops, make_fock_ops
from .thermal import beta_from_gap_ratio, gap, gibbs

ESTIMATOR_NAMES = ("qfi_spectral", "qfi_fidelity", "cfi_sx2", "fi_errprop", "toy_analytic")
TEMP_MODES = ("beta_gap_ratio", "beta")
SPACINGS = ("linear", "log-approach-to-critical")
MODELS = tuple(kind.value for kind in ModelKind)
ADAPTIVE = "adaptive"
# p_k and <A> slopes are far less noise-limited than the fidelity, so
# the measurement estimators can afford a much tighter ladder
MEASUREMENT_FD_RTOL = 1e-5


@dataclass(frozen=True)
class SweepConfig:
    """Fully resolved sweep description; every field is concrete and picklable.

    ``size`` is a spin count / Fock truncation, or "adaptive" (oscillator
    only, explicit betas only) to let each cell pick its own converged
    truncation.
    ``temp_grid`` entries are beta-gap ratios or explicit betas depending
    on ``temp_mode``; math.inf marks the T = 0 row.
    """

    model: str
    size: object
    g_grid: tuple
    temp_grid: tuple
    temp_mode: str = "beta_gap_ratio"
    omega: float = 1.0
    estimators: tuple = ("qfi_spectral", "qfi_fidelity")
    delta_omega: float = None
    fd_rtol: float = FD_RTOL
    workers: int = None


@dataclass
class SweepRow:
    """One evaluated grid cell; None cells are explained by ``status``."""

    model: str
    N: int
    omega: float
    g: float
    beta: float = None
    beta_gap_ratio: float = None
    gap: float = None
    qfi_fidelity: float = None
    qfi_spectral_total: float = None
    qfi_classical_part: float = None
    qfi_quantum_part: float = None
    cfi_sx2: float = None
    fi_errprop: float = None
    analytic_total: float = None
    analytic_quantum_part: float = None
    analytic_classical_part: float = None
    analytic_errprop: float = None
    status: str = "ok"


COLUMNS = tuple(f.name for f in fields(SweepRow))
_FLOAT_COLUMNS = frozenset(COLUMNS) - {"model", "N", "status"}


def _number(value, field, positive=False):
    """A finite JSON number, never a bool, as a float; ``positive`` also demands > 0."""
    # the range test also turns away NaN and an integer too large for a float
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"must be a finite number, got {value!r}", field=field)
    if positive and not value > 0:
        raise ConfigError(f"must be > 0, got {value!r}", field=field)
    return float(value)


def _count(value, field):
    """An int, never a bool, >= 1."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"must be an integer >= 1, got {value!r}", field=field)
    return value


def _items(value, field):
    """A non-empty list (or tuple); a string or a mapping is rejected, not iterated."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"must be a non-empty list, got {value!r}", field=field)
    return value


def _choice(value, options, field):
    if value not in options:
        raise ConfigError(f"must be one of {list(options)}, got {value!r}", field=field)
    return value


def _temperature(value, field):
    """A beta or gap ratio > 0, as a number or as text; infinity is the T = 0 row."""
    if isinstance(value, str):
        try:
            value = float(value)  # reads "inf" and "infinity" in any case
        except ValueError:
            raise ConfigError(f"not a number: {value!r}", field=field) from None
    return math.inf if value == math.inf else _number(value, field, positive=True)


def _g_grid(raw, omega, model, enforce_critical):
    if isinstance(raw, dict):
        unknown = set(raw) - {"min", "max", "count", "spacing"}
        if unknown:
            raise ConfigError(f"unknown keys {sorted(unknown)}", field="g_grid")
        count = _count(raw.get("count"), "g_grid")
        lo, hi = _number(raw.get("min"), "g_grid"), _number(raw.get("max"), "g_grid")
        spacing = _choice(raw.get("spacing", "linear"), SPACINGS, "g_grid.spacing")
        if hi < lo:
            raise ConfigError("need max >= min", field="g_grid")
        if spacing == "linear":
            values = np.linspace(lo, hi, count)
        else:
            # g = g_c (1 - 10^-k): resolves the decades of growth next to g_c
            g_c = omega
            if not 0 <= lo <= hi < g_c:
                raise ConfigError(
                    "log-approach spacing needs 0 <= min <= max < omega", field="g_grid"
                )
            k_lo = -math.log10(1.0 - lo / g_c) if lo > 0 else 0.0
            k_hi = -math.log10(1.0 - hi / g_c)
            values = g_c * (1.0 - 10.0 ** -np.linspace(k_lo, k_hi, count))
        grid = tuple(float(v) for v in values)
    else:
        grid = tuple(_number(v, f"g_grid[{i}]") for i, v in enumerate(_items(raw, "g_grid")))
    for i, value in enumerate(grid):
        if value < 0:
            raise ConfigError(f"negative coupling {value}", field=f"g_grid[{i}]")
        if enforce_critical and model == "toy" and value >= omega:
            raise ConfigError(
                f"coupling {value} at or past the critical value omega={omega}",
                field=f"g_grid[{i}]",
            )
    return grid


def make_config(raw, enforce_critical=True):
    """Build a validated SweepConfig from a plain mapping (parsed JSON).

    Every field goes through one rule for its kind of value: _number,
    _count, _items, _choice, or _temperature for the temperature grid.
    ``enforce_critical=False`` defers the toy-model g < omega check to
    the model builder, so single-point runs surface BeyondCriticality as
    a numerical failure instead of a configuration error.
    """
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object", field="")
    unknown = set(raw) - {f.name for f in fields(SweepConfig)} - {"output"}
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)}", field="")
    model = ModelKind(_choice(raw.get("model"), MODELS, "model")).value
    omega = _number(raw.get("omega", 1.0), "omega", positive=True)
    delta_omega = raw.get("delta_omega")
    if delta_omega is not None:
        delta_omega = _number(delta_omega, "delta_omega", positive=True)
        if delta_omega >= 2.0 * omega:
            # the ladder's first rung sits at omega - delta_omega / 2
            raise ConfigError(f"must be below 2 * omega = {2.0 * omega}", field="delta_omega")
    size = raw.get("size")
    if size == ADAPTIVE:
        if model != "toy":
            raise ConfigError("adaptive truncation applies to the toy model only", field="size")
    else:
        _count(size, "size")
    temp_mode = _choice(raw.get("temp_mode", "beta_gap_ratio"), TEMP_MODES, "temp_mode")
    if size == ADAPTIVE and temp_mode != "beta":
        # the truncation depends on beta, and a gap ratio needs the truncated gap
        raise ConfigError("adaptive truncation needs explicit betas (temp_mode 'beta')", field="temp_mode")
    estimators = _items(raw.get("estimators", SweepConfig.estimators), "estimators")
    for i, name in enumerate(estimators):
        _choice(name, ESTIMATOR_NAMES, f"estimators[{i}]")
    if "toy_analytic" in estimators and model != "toy":
        raise ConfigError("toy_analytic applies to the toy model only", field="estimators")
    temp_grid = _items(raw.get("temp_grid"), "temp_grid")
    workers = raw.get("workers")
    return SweepConfig(
        model=model,
        size=size,
        g_grid=_g_grid(raw.get("g_grid"), omega, model, enforce_critical),
        temp_grid=tuple(_temperature(v, f"temp_grid[{i}]") for i, v in enumerate(temp_grid)),
        temp_mode=temp_mode,
        omega=omega,
        estimators=tuple(estimators),
        delta_omega=delta_omega,
        fd_rtol=_number(raw.get("fd_rtol", FD_RTOL), "fd_rtol", positive=True),
        workers=None if workers is None else _count(workers, "workers"),
    )


def measurement_observable(model_kind, size):
    """The second-moment observable each model is measured with (read-only).

    Oscillator: the squared quadrature (a + a^dag)^2.  Spins: the square
    of the collective x spin (Pauli sums carry the factor 1/2 per site).
    It does not depend on the coupling, so the last one built is kept
    and every cell of a fixed-size sweep shares it.
    """
    return _observable(ModelKind(model_kind), size)


@functools.lru_cache(maxsize=1)
def _observable(kind, size):
    if kind is ModelKind.TOY:
        return make_fock_ops(size).x2  # Sectors are read-only
    if kind is ModelKind.LMG:
        return make_dicke_ops(size).sx2
    return make_chain_ops(size).sx2


def _evaluate_cell(task):
    config, g, temp = task
    row = SweepRow(model=config.model, N=0, omega=config.omega, g=g)
    failures = []

    try:
        if config.size == ADAPTIVE:
            # the ladder hands over the qfi_spectral breakdown of the rung it accepted
            model, spectrum, breakdown = toy_converged_truncation(config.omega, g, temp)
        else:
            model = build_model(config.model, config.omega, g, config.size)
            spectrum, breakdown = eigh(model.H), None
        gap_value = gap(spectrum)
        if config.temp_mode == "beta_gap_ratio":
            row.beta_gap_ratio = temp
            beta = beta_from_gap_ratio(temp, spectrum)
        else:
            beta = temp
            row.beta_gap_ratio = beta / gap_value
    except CritfishError as exc:
        row.status = f"cell:{type(exc).__name__}"
        return row
    row.N = model.size
    row.gap = gap_value
    row.beta = beta

    fd_kwargs = dict(delta_omega=config.delta_omega, fd_rtol=config.fd_rtol)
    measure_kwargs = dict(delta_omega=config.delta_omega, fd_rtol=MEASUREMENT_FD_RTOL)
    wanted = set(config.estimators)

    if "qfi_spectral" in wanted:
        try:
            if breakdown is None:
                breakdown = qfi_spectral(model, gibbs(spectrum, beta))
            row.qfi_spectral_total = breakdown.total
            row.qfi_classical_part = breakdown.classical_part
            row.qfi_quantum_part = breakdown.quantum_part
        except CritfishError as exc:
            failures.append(f"qfi_spectral:{type(exc).__name__}")
    if "qfi_fidelity" in wanted:
        try:
            row.qfi_fidelity = qfi_fidelity_fd(model, beta, **fd_kwargs)
        except CritfishError as exc:
            failures.append(f"qfi_fidelity:{type(exc).__name__}")
    if "cfi_sx2" in wanted or "fi_errprop" in wanted:
        observable = measurement_observable(config.model, model.size)
        if "cfi_sx2" in wanted:
            try:
                row.cfi_sx2 = cfi_projective(model, beta, observable, **measure_kwargs)
            except CritfishError as exc:
                failures.append(f"cfi_sx2:{type(exc).__name__}")
        if "fi_errprop" in wanted:
            try:
                row.fi_errprop = fi_error_propagation(model, beta, observable, **measure_kwargs)
            except CritfishError as exc:
                failures.append(f"fi_errprop:{type(exc).__name__}")
    if "toy_analytic" in wanted:
        try:
            params = ToyParams(omega=config.omega, g=g, beta=beta, prep=Prep.DIRECT)
            row.analytic_quantum_part = qfi_thermal_quantum(params)
            row.analytic_classical_part = qfi_thermal_classical(params)
            row.analytic_total = row.analytic_quantum_part + row.analytic_classical_part
        except CritfishError as exc:
            failures.append(f"toy_analytic:{type(exc).__name__}")
        else:
            try:
                row.analytic_errprop = fi_errprop_closed(params)
            except CritfishError as exc:
                failures.append(f"analytic_errprop:{type(exc).__name__}")

    if failures:
        row.status = ";".join(failures)
    return row


def _worker_count(config):
    count = config.workers if config.workers else (os.cpu_count() or 1)
    limit = os.environ.get("CRITFISH_THREADS")
    if limit:
        try:
            cap = int(limit)
        except ValueError:
            cap = 0
        if cap < 1:
            raise ConfigError(f"must be a positive integer, got {limit!r}", field="CRITFISH_THREADS")
        count = min(count, cap)
    return max(count, 1)


def run_sweep(config):
    """Evaluate every (g, temperature) cell; rows come back in grid order.

    Each pool worker caps its BLAS threads at its share of the cores, so
    processes times BLAS threads never exceed them: otherwise every
    worker's OpenBLAS starts one spinning thread per core and they
    contend for the same cores.  Pooled rows equal serial rows at equal
    BLAS thread counts.  A serial call at the default count may differ in
    the last bits: OpenBLAS 0.3.31 rounds 300- and 401-row products
    differently on one thread and on two.
    """
    tasks = [(config, g, temp) for g in config.g_grid for temp in config.temp_grid]
    # a fork pool starts every worker up front, so it is never larger than the sweep
    workers = min(_worker_count(config), len(tasks))
    if workers == 1:
        return [_evaluate_cell(task) for task in tasks]
    blas_threads = max(1, (os.cpu_count() or 1) // workers)
    try:
        with ProcessPoolExecutor(max_workers=workers, initializer=limit_blas_threads,
                                 initargs=(blas_threads,)) as pool:
            chunk = max(1, len(tasks) // (4 * workers))
            return list(pool.map(_evaluate_cell, tasks, chunksize=chunk))
    except BrokenProcessPool as exc:
        raise WorkerDied(f"a sweep worker process died before its cells finished ({exc})") from exc


def _format_value(name, value):
    if value is None:
        return ""
    if name in ("model", "status"):
        return str(value)
    if name == "N":
        return str(int(value))
    return format(float(value), ".17g")


def rows_to_csv(rows, handle):
    """17-significant-digit CSV, LF endings, empty cells for None (never NaN)."""
    handle.write(",".join(COLUMNS) + "\n")
    for row in rows:
        record = asdict(row)
        handle.write(",".join(_format_value(c, record[c]) for c in COLUMNS) + "\n")


def rows_from_csv(handle):
    """Parse a CSV produced by rows_to_csv back into SweepRow objects."""
    header = handle.readline().rstrip("\n").split(",")
    if tuple(header) != COLUMNS:
        raise ValueError(f"unexpected CSV header {header}")
    rows = []
    for line in handle:
        parts = line.rstrip("\n").split(",")
        record = {}
        for name, text in zip(COLUMNS, parts):
            if name in ("model", "status"):
                record[name] = text
            elif text == "":
                record[name] = None
            elif name == "N":
                record[name] = int(text)
            else:
                record[name] = float(text)
        rows.append(SweepRow(**record))
    return rows


def rows_to_json_objects(rows):
    """Row dicts with JSON-safe values (infinities become the string "inf")."""
    objects = []
    for row in rows:
        record = asdict(row)
        for name in _FLOAT_COLUMNS:
            value = record[name]
            if value is not None and math.isinf(value):
                record[name] = "inf" if value > 0 else "-inf"
        objects.append(record)
    return objects
