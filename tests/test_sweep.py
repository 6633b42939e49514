import ctypes
import io
import json
import math
import os
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from critfish import fisher, linalg
from critfish.cli import FIG_DELTA_OMEGA, fig2_config
from critfish.errors import ConfigError
from critfish.sweep import (
    COLUMNS,
    SweepConfig,
    SweepRow,
    make_config,
    rows_from_csv,
    rows_to_csv,
    rows_to_json_objects,
    run_sweep,
)

BASE = {
    "model": "toy",
    "size": 96,
    "g_grid": [0.3, 0.5],
    "temp_grid": [1.0, "inf"],
    "temp_mode": "beta",
    "estimators": ["qfi_spectral", "qfi_fidelity", "toy_analytic"],
    "delta_omega": 1e-3,
}

# a model with no critical coupling inside any test grid
LMG8 = {"model": "lmg", "size": 8, "estimators": ["qfi_spectral"]}


def config(**overrides):
    raw = dict(BASE)
    raw.update(overrides)
    return make_config(raw)


# ------------------------------------------------------------- configuration

def test_config_defaults_and_grids():
    cfg = config()
    assert cfg.omega == 1.0
    assert cfg.g_grid == (0.3, 0.5)
    assert cfg.temp_grid == (1.0, math.inf)
    assert cfg.fd_rtol == 1e-3


def test_config_grid_from_linear_spec():
    cfg = config(model="lmg", size=8, estimators=["qfi_spectral"],
                 g_grid={"min": 0.0, "max": 1.0, "count": 5})
    assert cfg.g_grid == (0.0, 0.25, 0.5, 0.75, 1.0)


def test_config_grid_log_approach_to_critical():
    cfg = config(g_grid={"min": 0.9, "max": 0.999, "count": 4,
                         "spacing": "log-approach-to-critical"})
    got = np.array(cfg.g_grid)
    want = 1.0 - 10.0 ** -np.linspace(1.0, 3.0, 4)
    assert np.allclose(got, want, rtol=1e-12)
    assert np.all(np.diff(got) > 0)


@pytest.mark.parametrize(
    "overrides,field",
    [
        ({"model": "xy"}, "model"),
        ({"size": 0}, "size"),
        ({"size": "adaptive", "model": "lmg"}, "size"),
        ({"g_grid": []}, "g_grid"),
        ({"g_grid": [-0.1]}, "g_grid[0]"),
        ({"g_grid": [1.5]}, "g_grid[0]"),
        ({"g_grid": {"min": 0, "max": 1, "count": 0}}, "g_grid"),
        ({"temp_grid": []}, "temp_grid"),
        ({"temp_grid": [0.0]}, "temp_grid[0]"),
        ({"temp_grid": ["soon"]}, "temp_grid[0]"),
        ({"temp_mode": "kelvin"}, "temp_mode"),
        ({"estimators": []}, "estimators"),
        ({"estimators": ["qfi_exact"]}, "estimators[0]"),
        ({"estimators": ["toy_analytic"], "model": "lmg", "size": 8}, "estimators"),
        ({"omega": -1.0}, "omega"),
        ({"delta_omega": 0.0}, "delta_omega"),
        ({"fd_rtol": -1.0}, "fd_rtol"),
        ({"workers": 0}, "workers"),
        ({"surprise": 1}, ""),
        ({"fd_rtol": True}, "fd_rtol"),
        ({"measurement_fd_rtol": 0.0}, ""),
        ({"truncation_rtol": "tight"}, ""),
        ({"workers": True}, "workers"),
        ({"size": "adaptive", "temp_mode": "beta_gap_ratio"}, "temp_mode"),
        ({"g_grid": {"min": 0.1, "max": 0.5, "count": 2.7}}, "g_grid"),
        ({"g_grid": {"min": 0.1, "max": 0.5, "count": True}}, "g_grid"),
        ({"g_grid": [True], "model": "lmg", "size": 8, "estimators": ["qfi_spectral"]}, "g_grid[0]"),
        ({"temp_grid": [True]}, "temp_grid[0]"),
        ({"g_grid": "123", "model": "lmg", "size": 8, "estimators": ["qfi_spectral"]}, "g_grid"),
        ({"temp_grid": "55"}, "temp_grid"),
        # Python's json reads NaN and Infinity; only a temperature may be infinite
        (dict(json.loads('{"g_grid": [NaN]}'), **LMG8), "g_grid[0]"),
        (dict(json.loads('{"g_grid": [Infinity]}'), **LMG8), "g_grid[0]"),
        (json.loads('{"g_grid": {"min": NaN, "max": 0.5, "count": 2}}'), "g_grid"),
        (json.loads('{"omega": Infinity}'), "omega"),
        (json.loads('{"fd_rtol": Infinity}'), "fd_rtol"),
        ({"omega": 10 ** 400}, "omega"),
        # the ladder's first rung, omega - delta_omega / 2, must stay above zero
        ({"delta_omega": 2.0}, "delta_omega"),
        ({"delta_omega": 3.0, "omega": 1.4}, "delta_omega"),
        ({"g_grid": ["0.5"]}, "g_grid[0]"),
        ({"g_grid": {"min": "0.1", "max": 0.5, "count": 2}}, "g_grid"),
        ({"estimators": "qfi_spectral"}, "estimators"),
        ({"g_grid": [0.3], "temp_grid": ["-inf"]}, "temp_grid[0]"),
    ],
)
def test_config_rejections_carry_field_paths(overrides, field):
    with pytest.raises(ConfigError) as info:
        config(**overrides)
    assert info.value.field == field


def test_infinite_temperatures_are_the_zero_temperature_row():
    cfg = config(temp_grid=json.loads('[Infinity, "INFINITY", "inf", 2, "0.5"]'))
    assert cfg.temp_grid == (math.inf, math.inf, math.inf, 2.0, 0.5)


@pytest.mark.parametrize("preset", [
    lambda: config(delta_omega=None, estimators=("qfi_spectral",)),
    lambda: config(size="adaptive", g_grid={"min": 0.5, "max": 0.999, "count": 3,
                                            "spacing": "log-approach-to-critical"}),
    lambda: fig2_config("ising", 4, g_count=2),
], ids=["no-step", "adaptive", "fig2-ising"])
def test_config_round_trips_through_asdict(preset):
    cfg = preset()
    assert make_config(asdict(cfg)) == cfg


def test_readme_schema_is_a_valid_config():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("## Sweep config schema", 1)[1]
    block = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    make_config(block)
    assert set(block) == {f.name for f in fields(SweepConfig)} | {"output"}


def test_readme_library_snippet_runs():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    namespace = {}
    exec(section.split("```python", 1)[1].split("```", 1)[0], namespace)
    assert namespace["fd"] == pytest.approx(namespace["breakdown"].total, rel=1e-3)


def test_ladder_rungs_past_the_critical_coupling_keep_their_statuses():
    # at g = 0.9999 the ladder's lower point omega - delta/2 crosses g for the oscillator
    rows = run_sweep(config(size=64, g_grid=[0.9999], temp_grid=[5.0], workers=1,
                            estimators=["qfi_spectral", "qfi_fidelity", "cfi_sx2", "fi_errprop"]))
    assert rows[0].status == (
        "qfi_fidelity:BeyondCriticality;cfi_sx2:BeyondCriticality;fi_errprop:BeyondCriticality"
    )
    assert rows[0].qfi_spectral_total is not None


def test_config_beyond_critical_escape_hatch():
    cfg = make_config(dict(BASE, g_grid=[1.5]), enforce_critical=False)
    rows = run_sweep(cfg)
    assert rows[0].status == "cell:BeyondCriticality"
    assert rows[0].qfi_fidelity is None


def test_failed_truncation_ladder_leaves_the_row_empty(monkeypatch):
    from critfish import sweep
    from critfish.errors import TruncationNotConverged

    def no_convergence(omega, g, beta):
        raise TruncationNotConverged("cap hit", last_two=(1.0, 2.0))

    monkeypatch.setattr(sweep, "toy_converged_truncation", no_convergence)
    rows = run_sweep(config(size="adaptive", g_grid=[0.5], temp_grid=[50.0], workers=1))
    assert rows[0].status == "cell:TruncationNotConverged"
    assert (rows[0].N, rows[0].beta, rows[0].gap, rows[0].beta_gap_ratio) == (0, None, None, None)


# ------------------------------------------------------------------- running

def test_rows_in_grid_order_and_all_ok():
    rows = run_sweep(config())
    assert [(r.g, r.beta) for r in rows] == [
        (0.3, 1.0), (0.3, math.inf), (0.5, 1.0), (0.5, math.inf)]
    finite = [r for r in rows if not math.isinf(r.beta)]
    assert all(r.status == "ok" for r in finite)


def test_zero_temperature_rows_flag_spectral_estimator():
    rows = run_sweep(config())
    cold = [r for r in rows if math.isinf(r.beta)]
    assert cold
    for row in cold:
        assert row.qfi_spectral_total is None
        assert "qfi_spectral:InvalidTemperature" in row.status
        assert row.qfi_fidelity is not None  # the T = 0 reference column


def test_numeric_and_analytic_columns_agree():
    rows = run_sweep(config())
    for row in rows:
        if math.isinf(row.beta):
            continue
        assert row.qfi_spectral_total == pytest.approx(row.analytic_total, rel=1e-5)
        assert row.qfi_fidelity == pytest.approx(row.analytic_total, rel=1e-3)
        assert row.qfi_quantum_part == pytest.approx(row.analytic_quantum_part, rel=1e-5)


def test_adaptive_truncation_column():
    cfg = config(size="adaptive", g_grid=[0.5], temp_grid=[2.0])
    rows = run_sweep(cfg)
    assert rows[0].N >= 64
    assert rows[0].status == "ok"


def test_beta_gap_ratio_mode():
    cfg = config(model="lmg", size=8, g_grid=[0.5], temp_grid=[10.0, "inf"],
                 temp_mode="beta_gap_ratio", estimators=["qfi_fidelity"])
    rows = run_sweep(cfg)
    warm, cold = rows
    assert warm.beta == pytest.approx(10.0 * warm.gap)
    assert warm.beta_gap_ratio == 10.0
    assert cold.beta == math.inf


@pytest.mark.parametrize("size", [96, "adaptive"])
def test_gap_ratio_recorded_in_explicit_beta_mode(size):
    # the ratio is beta over the gap of the row's own truncation
    rows = run_sweep(config(size=size, g_grid=[0.999], temp_grid=[50.0],
                            estimators=["qfi_spectral"], workers=1))
    row = rows[0]
    assert row.status == "ok"
    assert row.beta_gap_ratio == row.beta / row.gap


def test_parallel_matches_serial():
    serial = run_sweep(config(workers=1))
    parallel = run_sweep(config(workers=2))
    assert serial == parallel


def test_pooled_rows_equal_serial_rows_at_equal_blas_thread_counts(monkeypatch):
    # lmg N=400 multiplies 401-row matrices, a size where OpenBLAS rounds
    # differently on one thread and on two, so serial rows at the default
    # thread count may differ from pooled ones in the last bits
    monkeypatch.delenv("CRITFISH_THREADS", raising=False)
    cfg = make_config({
        "model": "lmg", "size": 400, "g_grid": [1.0333333333333332], "temp_grid": ["inf", 180],
        "temp_mode": "beta_gap_ratio", "estimators": ["qfi_spectral", "qfi_fidelity", "cfi_sx2", "fi_errprop"],
        "delta_omega": FIG_DELTA_OMEGA, "workers": 2,
    })
    pooled = run_sweep(cfg)
    lib = linalg._openblas()
    before = None
    if lib is not None:
        threads = lib.scipy_openblas_get_num_threads64_
        threads.argtypes, threads.restype = [], ctypes.c_int
        before = threads()
    linalg.limit_blas_threads(max(1, (os.cpu_count() or 1) // 2))  # each worker's share
    try:
        serial = run_sweep(replace(cfg, workers=1))
    finally:
        if before is not None:
            linalg.limit_blas_threads(before)
    assert serial[1].status == "ok" and serial[0].qfi_fidelity is not None
    assert pooled == serial


@pytest.mark.parametrize("kind,size,temp_mode,temps", [
    ("toy", "adaptive", "beta", [2.0, math.inf]),
    ("lmg", 6, "beta_gap_ratio", [5.0, math.inf]),
    ("ising", 4, "beta_gap_ratio", [5.0, math.inf]),
])
def test_every_eigh_on_the_row_path_gets_sectors(monkeypatch, kind, size, temp_mode, temps):
    # every matrix is built in its sectors: no diagonalization on the
    # way to a row is handed a plain array, and every spectrum comes
    # back in its blocks, with no n x n eigenvector matrix
    from critfish import sweep

    seen = []
    eigh = linalg.eigh

    def spy(matrix):
        seen.append(type(matrix).__name__)
        spectrum = eigh(matrix)
        assert not hasattr(spectrum, "eigenvectors")
        for rows, levels, vectors in spectrum.blocks:
            assert vectors.shape == (rows.size, levels.size) == (rows.size, rows.size)
        levels = np.concatenate([levels for _, levels, _ in spectrum.blocks])
        assert np.array_equal(np.sort(levels), np.arange(len(matrix)))
        return spectrum

    def no_dense(self, dtype=None, copy=None):
        raise AssertionError("a Sectors was made an n x n array on the row path")

    for module in (linalg, fisher, sweep):
        monkeypatch.setattr(module, "eigh", spy)
    monkeypatch.setattr(linalg.Sectors, "__array__", no_dense)
    estimators = ["qfi_spectral", "qfi_fidelity", "cfi_sx2", "fi_errprop"]
    config = make_config({"model": kind, "size": size, "g_grid": [0.7], "temp_grid": temps,
                          "temp_mode": temp_mode, "estimators": estimators, "delta_omega": 1e-3, "workers": 1})
    rows = run_sweep(config)
    assert all(row.qfi_fidelity is not None for row in rows)
    assert seen and set(seen) == {"Sectors"}


def test_adaptive_cell_reuses_the_breakdown_of_the_accepted_rung(monkeypatch):
    # the ladder's own qfi_spectral of the rung it hands over is the row's:
    # on this grid (the toy-adaptive benchmark preset) 3 cells climb 11 rungs
    from critfish import sweep

    calls = []
    spectral = fisher.qfi_spectral

    def counting(model, state):
        calls.append(model.size)
        return spectral(model, state)

    grid = {"min": 0.5, "max": 0.999, "count": 3, "spacing": "log-approach-to-critical"}
    cfg = config(size="adaptive", g_grid=grid, temp_grid=[50.0], workers=1)
    want = run_sweep(cfg)
    # the ladder imports qfi_spectral from fisher at call time; the cell holds its own name
    monkeypatch.setattr(fisher, "qfi_spectral", counting)
    monkeypatch.setattr(sweep, "qfi_spectral", counting)
    assert run_sweep(cfg) == want
    assert len(calls) == 11
    cold, = run_sweep(config(size="adaptive", g_grid=[0.5], temp_grid=["inf"], workers=1))
    assert "qfi_spectral:InvalidTemperature" in cold.status


def test_measurement_observable_is_shared_and_read_only():
    from critfish.sweep import measurement_observable

    first = measurement_observable("ising", 4)
    assert measurement_observable("ising", 4) is first
    states = np.arange(16)
    half_sx = np.zeros((16, 16))
    for site in range(4):
        half_sx[states, states ^ (1 << site)] += 0.5
    assert np.array_equal(first, half_sx @ half_sx)
    with pytest.raises(ValueError, match="read-only"):
        first.blocks[0][0, 0] = 1.0
    assert measurement_observable("lmg", 4).shape == (5, 5)


def test_pool_is_never_larger_than_the_sweep(monkeypatch):
    from critfish import sweep

    pools = []

    class SerialPool:
        def __init__(self, max_workers, initializer, initargs):
            pools.append((max_workers, initargs))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.delenv("CRITFISH_THREADS", raising=False)
    monkeypatch.setattr(sweep, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 4)
    two_cells = dict(temp_grid=[1.0], estimators=["qfi_spectral"])
    rows = run_sweep(config(workers=3, **two_cells))
    assert pools == [(2, (2,))]  # two workers for two cells, each with half the cores
    assert rows == run_sweep(config(workers=1, **two_cells))
    run_sweep(config(workers=3, g_grid=[0.3], temp_grid=[1.0]))
    assert len(pools) == 1  # one cell runs in this process


def test_thread_env_var_caps_workers(monkeypatch):
    from critfish.sweep import _worker_count

    monkeypatch.setenv("CRITFISH_THREADS", "2")
    assert _worker_count(config(workers=8)) == 2
    assert _worker_count(config(workers=1)) == 1
    monkeypatch.setenv("CRITFISH_THREADS", "")
    assert _worker_count(config(workers=3)) == 3
    monkeypatch.delenv("CRITFISH_THREADS")
    assert _worker_count(config(workers=5)) == 5


@pytest.mark.parametrize("value", ["two", "2.5", "0", "-1"])
def test_thread_env_var_rejects_non_positive_integers(monkeypatch, value):
    from critfish.sweep import _worker_count

    monkeypatch.setenv("CRITFISH_THREADS", value)
    with pytest.raises(ConfigError, match="CRITFISH_THREADS") as info:
        _worker_count(config(workers=2))
    assert repr(value) in str(info.value)
    assert info.value.field == "CRITFISH_THREADS"


def test_failed_diagonalization_becomes_a_cell_status(monkeypatch):
    # the first block solve fails, whichever of ?syevd and ?stevd it reaches
    calls = []

    def fail_first(solve):
        def solver(*args):
            calls.append(1)
            if len(calls) == 1:
                return None, None, 1
            return solve(*args)

        return solver

    monkeypatch.setattr(linalg, "_DSYEVD", fail_first(linalg._DSYEVD))
    monkeypatch.setattr(linalg, "_DSTEVD", fail_first(linalg._DSTEVD))
    rows = run_sweep(config(workers=1))
    assert rows[0].status == "cell:DiagonalizationFailed"
    assert rows[0].qfi_fidelity is None
    assert [row.status for row in rows[1:]] == [
        "qfi_spectral:InvalidTemperature", "ok", "qfi_spectral:InvalidTemperature"
    ]
    assert all(row.qfi_fidelity is not None for row in rows[1:])


def test_failed_group_rotation_becomes_an_estimator_status(monkeypatch):
    solve = np.linalg.eigh
    calls = []

    def fail_first_rotation(a):
        # only the degenerate-group rotation in fisher is made to fail
        if sys._getframe(1).f_code.co_name == "_rotated_generator":
            calls.append(1)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return solve(a)

    monkeypatch.setattr(np.linalg, "eigh", fail_first_rotation)
    rows = run_sweep(config(model="ising", size=4, g_grid=[0.5, 1.3], temp_grid=[1.0],
                            estimators=["qfi_spectral", "qfi_fidelity"], workers=1))
    assert len(calls) > 1  # the second cell rotated its degenerate groups as well
    assert rows[0].status == "qfi_spectral:DiagonalizationFailed"
    assert rows[0].qfi_spectral_total is None and rows[0].qfi_fidelity is not None
    assert rows[1].status == "ok" and rows[1].qfi_spectral_total is not None


def test_failed_fidelity_svd_becomes_an_estimator_status(monkeypatch):
    svd = np.linalg.svd
    calls = []

    def fail_first(a, compute_uv=True):
        calls.append(1)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, compute_uv=compute_uv)

    monkeypatch.setattr(np.linalg, "svd", fail_first)
    rows = run_sweep(config(workers=1))
    first = rows[0]
    assert first.status == "qfi_fidelity:DiagonalizationFailed"
    assert first.qfi_fidelity is None
    assert first.qfi_spectral_total is not None and first.analytic_total is not None
    assert len(rows) == 4
    assert all(row.qfi_fidelity is not None for row in rows[1:])


def test_negative_fisher_part_becomes_an_estimator_status(monkeypatch):
    pair_sum = fisher._quantum_pair_sum
    calls = []

    def negative_first(*args, **kwargs):
        calls.append(1)
        total = pair_sum(*args, **kwargs)
        return -1.0 if len(calls) == 1 else total

    monkeypatch.setattr(fisher, "_quantum_pair_sum", negative_first)
    rows = run_sweep(config(workers=1))
    first = rows[0]
    assert first.status == "qfi_spectral:NegativeFisherPart"
    assert first.qfi_spectral_total is None
    assert first.qfi_fidelity is not None and first.analytic_total is not None
    assert len(rows) == 4
    assert rows[2].status == "ok" and rows[2].qfi_spectral_total is not None


def test_determinism():
    a = run_sweep(config())
    b = run_sweep(config())
    assert a == b


# -------------------------------------------------------------------- tables

def test_csv_roundtrip_is_bit_exact():
    rows = run_sweep(config())
    buffer = io.StringIO()
    rows_to_csv(rows, buffer)
    text = buffer.getvalue()
    assert "\r" not in text and "NaN" not in text and "nan" not in text
    assert text.splitlines()[0] == ",".join(COLUMNS)
    back = rows_from_csv(io.StringIO(text))
    assert back == rows  # float equality: 17 significant digits round-trip


def test_csv_serializes_infinities_not_nan():
    rows = run_sweep(config())
    buffer = io.StringIO()
    rows_to_csv(rows, buffer)
    assert ",inf," in buffer.getvalue()


def test_csv_rejects_foreign_header():
    with pytest.raises(ValueError):
        rows_from_csv(io.StringIO("a,b,c\n1,2,3\n"))


def test_json_objects_are_json_safe():
    rows = run_sweep(config())
    objects = rows_to_json_objects(rows)
    text = json.dumps(objects)  # would raise on actual infinities with allow_nan=False
    parsed = json.loads(text)
    assert parsed[1]["beta"] == "inf"
    assert parsed[0]["qfi_spectral_total"] == pytest.approx(rows[0].qfi_spectral_total)
    assert set(parsed[0]) == set(COLUMNS)


def test_row_dataclass_columns_stable():
    # the CSV contract: exactly these columns, in this order
    assert COLUMNS == (
        "model", "N", "omega", "g", "beta", "beta_gap_ratio", "gap",
        "qfi_fidelity", "qfi_spectral_total", "qfi_classical_part",
        "qfi_quantum_part", "cfi_sx2", "fi_errprop", "analytic_total",
        "analytic_quantum_part", "analytic_classical_part",
        "analytic_errprop", "status",
    )
    row = SweepRow(model="toy", N=4, omega=1.0, g=0.1)
    assert row.status == "ok"
