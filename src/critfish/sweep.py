"""Configuration-driven sweeps over (coupling, temperature) grids.

A sweep is a flat list of independent cells, one per (g, temperature)
pair.  Every cell is a pure function of the configuration, so the
worker pool may evaluate them in any order and the assembled table is
identical for serial and parallel runs.  Failed cells carry a status
string instead of aborting the sweep; numeric columns are either finite
(inf allowed for the T = 0 rows) or None.
"""

import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, fields

import numpy as np

from .analytic import Prep, ToyParams, fi_errprop_closed, qfi_thermal_classical, qfi_thermal_quantum
from .errors import ConfigError, CritfishError, WorkerDied
from .fisher import cfi_projective, fi_error_propagation, qfi_fidelity_fd, qfi_spectral
from .linalg import eigh
from .models import ModelKind, build_model, toy_converged_truncation
from .operators import make_chain_ops, make_dicke_ops, make_fock_ops
from .thermal import beta_from_gap_ratio, gap, gibbs

ESTIMATOR_NAMES = ("qfi_spectral", "qfi_fidelity", "cfi_sx2", "fi_errprop", "toy_analytic")
TEMP_MODES = ("beta_gap_ratio", "beta")
SPACINGS = ("linear", "log-approach-to-critical")
ADAPTIVE = "adaptive"
# config fields that must be positive numbers; a None default also admits null
_POSITIVE_NUMBERS = ("omega", "delta_omega", "fd_rtol", "measurement_fd_rtol", "truncation_rtol")


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
    fd_rtol: float = 1e-3
    measurement_fd_rtol: float = 1e-5
    truncation_rtol: float = 1e-8
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


def _expand_g_grid(raw, omega, model, enforce_critical=True):
    if isinstance(raw, dict):
        unknown = set(raw) - {"min", "max", "count", "spacing"}
        if unknown:
            raise ConfigError(f"unknown keys {sorted(unknown)}", field="g_grid")
        count = raw.get("count")
        if isinstance(count, bool) or not isinstance(count, int):
            raise ConfigError(f"count must be an integer, got {count!r}", field="g_grid")
        if isinstance(raw.get("min"), bool) or isinstance(raw.get("max"), bool):
            raise ConfigError("min and max must be numbers, not booleans", field="g_grid")
        try:
            lo, hi = float(raw["min"]), float(raw["max"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"need numeric min/max ({exc})", field="g_grid")
        spacing = raw.get("spacing", "linear")
        if spacing not in SPACINGS:
            raise ConfigError(f"spacing must be one of {SPACINGS}", field="g_grid.spacing")
        if count < 1 or hi < lo:
            raise ConfigError("need count >= 1 and max >= min", field="g_grid")
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
        try:
            raw = list(raw)
            grid = tuple(float(v) for v in raw)
        except (TypeError, ValueError):
            raise ConfigError("must be a list of numbers or a {min,max,count} mapping", field="g_grid")
        for i, value in enumerate(raw):
            if isinstance(value, bool):
                raise ConfigError(f"must be a number, got {value!r}", field=f"g_grid[{i}]")
    if not grid:
        raise ConfigError("must not be empty", field="g_grid")
    for i, value in enumerate(grid):
        if value < 0:
            raise ConfigError(f"negative coupling {value}", field=f"g_grid[{i}]")
        if enforce_critical and model == "toy" and value >= omega:
            raise ConfigError(
                f"coupling {value} at or past the critical value omega={omega}",
                field=f"g_grid[{i}]",
            )
    return grid


def _expand_temp_grid(raw):
    try:
        items = list(raw)
    except TypeError:
        raise ConfigError("must be a list", field="temp_grid")
    if not items:
        raise ConfigError("must not be empty", field="temp_grid")
    grid = []
    for i, value in enumerate(items):
        if isinstance(value, bool):
            raise ConfigError(f"must be a number, got {value!r}", field=f"temp_grid[{i}]")
        if isinstance(value, str):
            if value.lower() in ("inf", "infinity"):
                grid.append(math.inf)
                continue
            try:
                value = float(value)
            except ValueError:
                raise ConfigError(f"not a number: {value!r}", field=f"temp_grid[{i}]")
        value = float(value)
        if not value > 0:
            raise ConfigError(f"must be > 0, got {value}", field=f"temp_grid[{i}]")
        grid.append(value)
    return tuple(grid)


def make_config(raw, enforce_critical=True):
    """Build a validated SweepConfig from a plain mapping (parsed JSON).

    ``enforce_critical=False`` defers the toy-model g < omega check to
    the model builder, so single-point runs surface BeyondCriticality as
    a numerical failure instead of a configuration error.
    """
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object", field="")
    known = {f.name for f in fields(SweepConfig)} | {"output"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)}", field="")
    try:
        model = ModelKind(raw.get("model")).value
    except ValueError:
        raise ConfigError(
            f"must be one of {[k.value for k in ModelKind]}, got {raw.get('model')!r}",
            field="model",
        )
    numbers = {}
    for f in fields(SweepConfig):
        value = raw.get(f.name, f.default)
        if f.name not in _POSITIVE_NUMBERS or (value is None and f.default is None):
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not value > 0:
            raise ConfigError(f"must be a positive number, got {value!r}", field=f.name)
        numbers[f.name] = float(value)
    size = raw.get("size")
    if size == ADAPTIVE:
        if model != "toy":
            raise ConfigError("adaptive truncation applies to the toy model only", field="size")
    elif not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise ConfigError(f"must be a positive integer or 'adaptive', got {size!r}", field="size")
    temp_mode = raw.get("temp_mode", "beta_gap_ratio")
    if temp_mode not in TEMP_MODES:
        raise ConfigError(f"must be one of {TEMP_MODES}", field="temp_mode")
    if size == ADAPTIVE and temp_mode != "beta":
        # the truncation depends on beta, and a gap ratio needs the truncated gap
        raise ConfigError("adaptive truncation needs explicit betas (temp_mode 'beta')", field="temp_mode")
    estimators = tuple(raw.get("estimators", ("qfi_spectral", "qfi_fidelity")))
    if not estimators:
        raise ConfigError("need at least one estimator", field="estimators")
    for i, name in enumerate(estimators):
        if name not in ESTIMATOR_NAMES:
            raise ConfigError(
                f"unknown estimator {name!r}; choose from {ESTIMATOR_NAMES}",
                field=f"estimators[{i}]",
            )
    if "toy_analytic" in estimators and model != "toy":
        raise ConfigError("toy_analytic applies to the toy model only", field="estimators")
    workers = raw.get("workers")
    if workers is not None and (not isinstance(workers, int) or isinstance(workers, bool) or workers < 1):
        raise ConfigError(f"must be a positive integer or null, got {workers!r}", field="workers")
    return SweepConfig(
        model=model,
        size=size,
        g_grid=_expand_g_grid(raw.get("g_grid"), numbers["omega"], model, enforce_critical),
        temp_grid=_expand_temp_grid(raw.get("temp_grid")),
        temp_mode=temp_mode,
        estimators=estimators,
        workers=workers,
        **numbers,
    )


def measurement_observable(model_kind, size):
    """The second-moment observable each model is measured with.

    Oscillator: the squared quadrature (a + a^dag)^2.  Spins: the square
    of the collective x spin (Pauli sums carry the factor 1/2 per site).
    """
    kind = ModelKind(model_kind)
    if kind is ModelKind.TOY:
        return make_fock_ops(size).x2
    if kind is ModelKind.LMG:
        return make_dicke_ops(size).sx2
    half_sx = make_chain_ops(size).sx_total / 2.0
    return half_sx @ half_sx


def _evaluate_cell(task):
    config, g, temp = task
    row = SweepRow(model=config.model, N=0, omega=config.omega, g=g)
    failures = []

    try:
        if config.size == ADAPTIVE:
            model, spectrum = toy_converged_truncation(config.omega, g, temp, rtol=config.truncation_rtol)
        else:
            model = build_model(config.model, config.omega, g, config.size)
            spectrum = eigh(model.H)
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
    # p_k and <A> slopes are far less noise-limited than the fidelity, so
    # the measurement estimators can afford a much tighter ladder
    measure_kwargs = dict(delta_omega=config.delta_omega, fd_rtol=config.measurement_fd_rtol)
    wanted = set(config.estimators)

    if "qfi_spectral" in wanted:
        try:
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
    """Evaluate every (g, temperature) cell; rows come back in grid order."""
    tasks = [(config, g, temp) for g in config.g_grid for temp in config.temp_grid]
    workers = _worker_count(config)
    if workers == 1 or len(tasks) == 1:
        return [_evaluate_cell(task) for task in tasks]
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
