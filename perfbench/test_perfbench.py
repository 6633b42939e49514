"""Self-tests of the benchmark: row checks, self time, seeded workloads, declared metrics.

    python3 -m pytest -q perfbench
"""

import json
import math
from dataclasses import replace

import pytest

import checks
import tracer
import workloads

critfish = workloads.import_critfish()
from critfish import cli  # noqa: E402

ALL_ESTIMATORS = ("qfi_spectral", "qfi_fidelity", "cfi_sx2", "fi_errprop")


@pytest.fixture(scope="module")
def lmg_rows():
    """A T = 0 row and a finite-T row with all four estimators, both passing."""
    config = critfish.make_config(
        {
            "model": "lmg",
            "size": 4,
            "g_grid": [0.8],
            "temp_grid": ["inf", 2.0],
            "temp_mode": "beta",
            "estimators": list(ALL_ESTIMATORS),
            "delta_omega": 1e-3,
            "workers": 1,
        }
    )
    return config, critfish.run_sweep(config)


def failed_count(rows, cells=None, reference=None):
    checker = checks.Checker(ALL_ESTIMATORS)
    checker.check(rows, len(rows) if cells is None else cells, reference)
    return checker.failed


def test_clean_rows_pass(lmg_rows):
    _, (cold, warm) = lmg_rows
    assert cold.status == checks.T0_STATUS and warm.status == "ok"
    assert failed_count([cold, warm]) == 0


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: replace(r, status="cfi_sx2:NoFDConvergence"),
        lambda r: replace(r, qfi_fidelity=r.qfi_fidelity * (1 + 1e-3)),
        lambda r: replace(r, qfi_fidelity=math.nan),
        lambda r: replace(r, fi_errprop=None),
        lambda r: replace(r, cfi_sx2=r.qfi_spectral_total + 1e-3),
        lambda r: replace(r, fi_errprop=r.cfi_sx2 + 1e-3),
    ],
)
def test_corrupted_warm_row_fails(lmg_rows, corrupt):
    _, (cold, warm) = lmg_rows
    assert failed_count([cold, corrupt(warm)]) == 1


def test_cold_row_may_only_lack_the_spectral_estimator(lmg_rows):
    _, (cold, warm) = lmg_rows
    bad = replace(cold, status=checks.T0_STATUS + ";qfi_fidelity:NoFDConvergence")
    assert failed_count([bad, warm]) == 1
    assert failed_count([replace(warm, status=checks.T0_STATUS)]) == 1


def test_oscillator_row_off_its_closed_form_fails():
    row = critfish.SweepRow(
        model="toy", N=64, omega=1.0, g=0.5, beta=2.0,
        qfi_spectral_total=1.0, analytic_total=1.0 + 1e-5,
    )
    checker = checks.Checker(("qfi_spectral", "toy_analytic"))
    checker.check([row, replace(row, analytic_total=1.0 + 1e-8)], 2)
    assert checker.failed == 1
    assert checker.oracle_max_rel_err == pytest.approx(1e-8, rel=1e-3)


def test_missing_and_non_identical_rows_fail(lmg_rows):
    _, (cold, warm) = lmg_rows
    assert failed_count([cold], cells=2) == 1
    moved = replace(warm, qfi_fidelity=math.nextafter(warm.qfi_fidelity, 0.0))
    assert failed_count([cold, moved], reference=[cold, warm]) == 1


def span(name, start, end, parent=-1, size=None):
    return tracer.Span(name, start, end, parent, size)


def test_self_time_on_nested_spans():
    # fidelity [0, 10] holds psd_sqrt [1, 5] and [6, 9]; each holds one eigh
    spans = [
        span("fisher.qfi_fidelity_fd", 0.0, 11.0),
        span("linalg.fidelity", 0.0, 10.0, 0),
        span("linalg.psd_sqrt", 1.0, 5.0, 1),
        span("linalg.eigh", 2.0, 4.0, 2, size=3),
        span("linalg.psd_sqrt", 6.0, 9.0, 1),
        span("linalg.eigh", 7.0, 8.5, 4, size=4),
    ]
    assert tracer.self_times(spans) == pytest.approx([1.0, 3.0, 2.0, 2.0, 1.5, 1.5])
    metrics = tracer.layer_metrics(spans, cells=2)
    assert metrics["linalg.fidelity.self_s"][0] == pytest.approx(3.0)
    assert metrics["linalg.psd_sqrt.self_s"][0] == pytest.approx(3.5)
    assert metrics["linalg.eigh.self_s"][0] == pytest.approx(3.5)
    assert metrics["linalg.eigh.per_cell"][0] == 1.0
    assert metrics["fisher.qfi_fidelity_fd.eigh_per_call"][0] == 2.0
    assert metrics["linalg.eigh.n3_sum"][0] == 27 + 64
    assert metrics["linalg.eigh.max_dim"][0] == 4


def test_tracer_sees_calls_inside_the_package_and_restores_it(lmg_rows):
    config, rows = lmg_rows
    original = critfish.fisher.eigh
    recorder = tracer.Tracer()
    with recorder.installed():
        assert critfish.fisher.eigh is not original
        traced = critfish.sweep.run_sweep(config)
    assert critfish.fisher.eigh is original and critfish.linalg.eigh is original
    assert [checks.row_key(r) for r in traced] == [checks.row_key(r) for r in rows]
    metrics = tracer.layer_metrics(recorder.spans, cells=len(rows))
    assert metrics["linalg.eigh.per_cell"][0] == 20.0
    assert metrics["fisher.qfi_fidelity_fd.eigh_per_call"][0] == 8.0
    assert metrics["linalg.eigh.max_dim"][0] == 5


def test_seed_zero_reproduces_the_presets():
    fig2 = cli.fig2_config("ising", 8, g_count=workloads.FIG2_ISING_G_COUNT)
    assert workloads.config("fig2-ising", 0) == replace(fig2, workers=1)
    toy = workloads.config("toy-adaptive", 0)
    assert toy.g_grid == workloads.preset("toy-adaptive").g_grid
    assert toy.temp_grid == workloads.TOY_BETAS


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_other_seeds_move_interior_couplings_within_the_range(name):
    base = workloads.config(name, 0).g_grid
    for seed in (1, 7, 12345):
        grid = workloads.config(name, seed).g_grid
        assert grid == workloads.config(name, seed).g_grid
        assert grid[0] == base[0] and grid[-1] == base[-1]
        assert grid[1:-1] != base[1:-1]
        assert all(a < b for a, b in zip(grid, grid[1:]))
    assert max(workloads.config("toy-adaptive", 3).g_grid) <= 0.999


def test_declared_metrics_match_benchmark_json():
    with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    measured = tracer.layer_metrics([span("sweep.run_sweep", 0.0, 1.0)], cells=1)
    names = list(measured) + [
        "sweep.csv_bytes",
        "sweep.pool.efficiency",
        "trace.overhead_ratio",
        "check.oracle_max_rel_err",
        "check.cross_max_rel_err",
    ]
    assert [m["name"] for m in declared["per_layer"]] == names
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert {name: unit for name, (_, unit) in measured.items()} == {n: units[n] for n in measured}


def test_layer_map_names_declared_metrics():
    with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = {m["name"] for m in json.load(handle)["per_layer"]}
    with open(workloads.ROOT / "perfbench" / "layers.json", encoding="utf-8") as handle:
        layers = json.load(handle)
    mapped = [name for entry in layers["layers"] for name in entry["metrics"]]
    assert sorted(mapped) == sorted(declared)
    for counts in layers["exact_counts_at_seed_commit"].values():
        assert set(counts) <= declared
