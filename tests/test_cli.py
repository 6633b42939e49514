import json
import math
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import critfish
from critfish import cli
from critfish.cli import fig1_config, fig2_config, main
from critfish.sweep import _evaluate_cell as EVALUATE_CELL, rows_from_csv

# child interpreters import the same critfish as this one, installed or not
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(critfish.__file__).resolve().parent.parent))


def test_selftest_green(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") == 11


def test_bad_thread_env_var_exits_one(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("CRITFISH_THREADS", "two")
    out = tmp_path / "rows.csv"
    code = main(["fig2", "--model", "ising", "-N", "4", "--g-count", "2", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error" in err and "CRITFISH_THREADS" in err and "'two'" in err
    assert not out.exists()


def test_point_prints_row_json(capsys):
    code = main([
        "point", "--model", "lmg", "-N", "6", "--omega", "1.0",
        "-g", "0.8", "--beta-gap", "10", "--estimators", "qfi_spectral,cfi_sx2",
    ])
    assert code == 0
    row = json.loads(capsys.readouterr().out)
    assert row["model"] == "lmg" and row["N"] == 6
    assert row["status"] == "ok"
    assert row["qfi_spectral_total"] > 0
    assert row["cfi_sx2"] > 0
    assert row["qfi_fidelity"] is None  # not requested


def test_point_zero_temperature(capsys):
    code = main([
        "point", "--model", "lmg", "-N", "4", "-g", "0.5",
        "--beta", "inf", "--estimators", "qfi_fidelity",
    ])
    assert code == 0
    row = json.loads(capsys.readouterr().out)
    assert row["beta"] == "inf"
    assert row["qfi_fidelity"] > 0


def test_point_beyond_criticality_exits_two(capsys):
    code = main(["point", "--model", "toy", "-N", "64", "-g", "1.2", "--beta", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert "BeyondCriticality" in captured.err
    assert json.loads(captured.out)["status"] == "cell:BeyondCriticality"


@pytest.mark.parametrize("flags", [["--delta-omega", "3"], ["--beta", "soon"]], ids=["step", "beta"])
def test_point_bad_values_are_one_config_error(flags, capsys):
    # a step of 3 would put the ladder's first rung at omega = -0.5
    args = ["point", "--model", "lmg", "-N", "4", "-g", "0.5", "--beta", "1", *flags]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("configuration error: ")


def _finite(row):
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")
    return json.loads(row, parse_constant=reject)


@pytest.mark.parametrize("flags,code,status", [
    ("--model ising -N 8 -g 0.55 --beta-gap 0.01 --estimators qfi_spectral,qfi_fidelity", 2,
     "qfi_fidelity:NoFDConvergence"),
    ("--model lmg -N 20 -g 0.5 --omega 1e300 --beta 1 --estimators qfi_fidelity", 0, "ok"),
    ("--model lmg -N 20 -g 0.5 --omega 1e300 --beta 1 --estimators qfi_spectral", 0, "ok"),
    ("--model lmg -N 20 -g 0.5 --omega 1e-6 --beta 1 --estimators qfi_spectral,qfi_fidelity", 2,
     "beta_gap_ratio:GapTooSmall;qfi_fidelity:NoFDConvergence"),
    ("--model lmg -N 20 -g 0.5 --omega 1e-9 --beta 1 --estimators qfi_spectral,qfi_fidelity", 2,
     "beta_gap_ratio:GapTooSmall;qfi_fidelity:NoFDConvergence"),
    ("--model lmg -N 20 -g 0.5 --omega 1e-12 --beta 1 --estimators qfi_spectral,qfi_fidelity", 2,
     "beta_gap_ratio:GapTooSmall;qfi_fidelity:NoFDConvergence"),
    ("--model lmg -N 20 -g 0.5 --omega 1e-20 --beta 1 --estimators qfi_spectral,qfi_fidelity", 2,
     "beta_gap_ratio:GapTooSmall;qfi_fidelity:NoFDConvergence"),
    # a ground state that does not move, also where its levels lie omega 1e-12 and 1e-13 apart
    ("--model lmg -N 20 -g 0 --beta inf --estimators qfi_fidelity", 0, {"status": "ok", "qfi_fidelity": 0.0}),
    ("--model lmg -N 20 -g 0 --omega 1e-12 --beta inf --estimators qfi_fidelity", 0,
     {"status": "ok", "qfi_fidelity": 0.0}),
    ("--model lmg -N 20 -g 0 --omega 1e-13 --beta inf --estimators qfi_fidelity", 0,
     {"status": "ok", "qfi_fidelity": 0.0}),
    ("--model lmg -N 20 -g 0.5 --omega 1e-300 --beta 1 --estimators qfi_fidelity", 2,
     "beta_gap_ratio:GapTooSmall;qfi_fidelity:NoFDConvergence"),
    ("--model toy -N 64 -g 0.5 --beta 1 --delta-omega 1e-300 --estimators qfi_fidelity", 2,
     "qfi_fidelity:NoFDConvergence"),
    ("--model toy -N 64 -g 0.5 --beta 1e-155 --estimators toy_analytic", 0, "ok"),
    ("--model toy -N 64 -g 0.5 --beta 1e-300 --estimators toy_analytic", 0, "ok"),
    ("--model toy -N 64 -g 0.9 --beta 5e-324 --estimators toy_analytic", 0, "ok"),
])
def test_point_edge_cells_end_in_defined_rows(flags, code, status, capsys):
    # ``status`` is the row's status, or the fields the row must hold
    want = {"status": status} if isinstance(status, str) else status
    assert main(["point", *flags.split()]) == code
    row = _finite(capsys.readouterr().out)
    assert {field: row[field] for field in want} == want


def test_measurement_ladder_with_no_step_ends_at_once():
    # at omega = 5e-324 the first step, 1e-4 omega, is 0.0: the ladder once halved it forever
    proc = subprocess.run(
        [sys.executable, "-m", "critfish", "point", "--model", "lmg", "-N", "20", "-g", "0.5",
         "--omega", "5e-324", "--beta", "1", "--estimators", "cfi_sx2"],
        capture_output=True, text=True, timeout=60, env=CHILD_ENV,
    )
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert _finite(proc.stdout)["status"] == "beta_gap_ratio:GapTooSmall;cfi_sx2:NoFDConvergence"


def test_unknown_flags_exit_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["point", "--model", "lmg", "--frequency", "2"])
    assert info.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_fd_rtol_is_no_longer_a_flag(capsys):
    # the fidelity ladder's agreement is fisher.FD_RTOL, 1e-3, everywhere
    with pytest.raises(SystemExit) as info:
        main(["point", "--model", "lmg", "-N", "4", "-g", "0.5", "--beta", "1", "--fd-rtol", "1e-3"])
    assert info.value.code == 1
    assert "unrecognized arguments: --fd-rtol" in capsys.readouterr().err


def test_bad_estimator_is_config_error(capsys):
    code = main(["point", "--model", "lmg", "-N", "4", "-g", "0.5",
                 "--beta", "1", "--estimators", "qfi_magic"])
    assert code == 1
    assert "configuration error" in capsys.readouterr().err


def test_sweep_subcommand_runs_config_file(tmp_path, capsys):
    config_path = tmp_path / "sweep.json"
    out_path = tmp_path / "rows.csv"
    config_path.write_text(json.dumps({
        "model": "lmg",
        "size": 4,
        "g_grid": [0.4, 0.8],
        "temp_grid": [2.0],
        "temp_mode": "beta",
        "estimators": ["qfi_spectral"],
        "output": {"path": str(out_path), "format": "csv"},
    }))
    assert main(["sweep", "--config", str(config_path)]) == 0
    with open(out_path, encoding="utf-8") as handle:
        rows = rows_from_csv(handle)
    assert len(rows) == 2
    assert all(r.status == "ok" for r in rows)


def test_sweep_flags_override_config(tmp_path):
    config_path = tmp_path / "sweep.json"
    out_path = tmp_path / "rows.json"
    config_path.write_text(json.dumps({
        "model": "lmg", "size": 4, "g_grid": [0.4], "temp_grid": [2.0],
        "temp_mode": "beta", "estimators": ["qfi_spectral"],
        "output": {"path": "ignored.csv"},
    }))
    assert main(["sweep", "--config", str(config_path), "--out", str(out_path),
                 "--format", "json"]) == 0
    rows = json.loads(out_path.read_text())
    assert len(rows) == 1 and rows[0]["model"] == "lmg"


def test_sweep_missing_config_file(capsys):
    assert main(["sweep", "--config", "/nonexistent.json"]) == 1


def test_sweep_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["sweep", "--config", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_sweep_config_error_exit(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"model": "lmg", "size": 4, "g_grid": [],
                                "temp_grid": [1.0], "output": {"path": "x.csv"}}))
    assert main(["sweep", "--config", str(path)]) == 1
    assert "g_grid" in capsys.readouterr().err


@pytest.mark.parametrize("raw, flags", [([1, 2], []), ("lmg", []), ([], ["--workers", "1"])],
                         ids=["array", "string", "array-with-workers"])
def test_sweep_config_that_is_not_an_object_exits_one(tmp_path, capsys, raw, flags):
    path = tmp_path / "array.json"
    path.write_text(json.dumps(raw))
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "rows.csv"), *flags]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "configuration must be a JSON object" in err


def test_directory_paths_exit_one(tmp_path, capsys, monkeypatch):
    # the output is opened before the sweep, so no cell is computed
    def never(config):
        raise AssertionError("run_sweep reached with an output that cannot be written")

    monkeypatch.setattr(cli, "run_sweep", never)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": "lmg", "size": 4, "g_grid": [0.5], "temp_grid": [1.0]}))
    commands = [
        ["fig2", "--model", "lmg", "-N", "4", "--g-count", "2", "--out", str(tmp_path)],
        ["fig1", "--model", "lmg", "-N", "4", "--g-count", "2", "--out", str(tmp_path)],
        ["sweep", "--config", str(config), "--out", str(tmp_path)],
        ["sweep", "--config", str(tmp_path)],
    ]
    for args in commands:
        assert main(args) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 4 and err.count("Is a directory") == 4


def test_failed_sweep_leaves_the_output_as_it_was(tmp_path, monkeypatch):
    def fail(config):
        raise cli.ConfigError("no workers")

    monkeypatch.setattr(cli, "run_sweep", fail)
    kept, new = tmp_path / "kept.csv", tmp_path / "new.csv"
    kept.write_text("earlier rows\n")
    for out in (kept, new):
        assert main(["fig2", "--model", "lmg", "-N", "4", "--g-count", "2", "--out", str(out)]) == 1
    assert kept.read_text() == "earlier rows\n" and not new.exists()


def test_sweep_replaces_an_existing_output(tmp_path):
    out = tmp_path / "rows.csv"
    out.write_text("x" * 100000)
    assert main(["fig2", "--model", "lmg", "-N", "4", "--g-count", "2", "--out", str(out)]) == 0
    with open(out, encoding="utf-8") as handle:
        assert len(rows_from_csv(handle)) == 4


def test_fig_presets_shapes():
    cfg1 = fig1_config("lmg", 20)
    assert len(cfg1.g_grid) == 60
    assert math.inf in cfg1.temp_grid and 180.0 in cfg1.temp_grid
    assert len(cfg1.temp_grid) == 23
    cfg2 = fig2_config("ising", 6, 180.0)
    assert cfg2.temp_grid == (math.inf, 180.0)
    assert set(cfg2.estimators) == {"qfi_spectral", "qfi_fidelity", "cfi_sx2", "fi_errprop"}


def test_fig1_writes_csv(tmp_path):
    out = tmp_path / "fig1.csv"
    assert main(["fig1", "--model", "lmg", "-N", "6", "--out", str(out),
                 "--g-count", "4", "--temp-count", "3"]) == 0
    with open(out, encoding="utf-8") as handle:
        rows = rows_from_csv(handle)
    assert len(rows) == 4 * 5  # g-count x (temp-count + inf + 180)


def test_fig1_negative_temp_count_is_one_config_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["fig1", "--model", "lmg", "-N", "4", "--out", str(out), "--temp-count", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("configuration error: temp_count: ")
    assert not out.exists()
    # no count gives only the T = 0 and ratio-180 cuts
    assert fig1_config("lmg", 4, temp_count=0).temp_grid == (math.inf, 180.0)


def test_fig2_writes_stdout(capsys):
    assert main(["fig2", "--model", "lmg", "-N", "4", "--out", "-",
                 "--g-count", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("model,")
    assert len(out.strip().splitlines()) == 1 + 3 * 2


def test_json_format_inferred_from_extension(tmp_path):
    out = tmp_path / "fig2.json"
    assert main(["fig2", "--model", "lmg", "-N", "4", "--out", str(out),
                 "--g-count", "2"]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 4


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "critfish", "point", "--model", "lmg", "-N", "4",
         "-g", "0.3", "--beta", "2", "--estimators", "qfi_spectral"],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "ok"


def _dies_at_g_one(task):
    # module level, so the pool pickles it by name and a worker can import it
    _, g, _ = task
    if g == 1.0:
        os._exit(3)
    return EVALUATE_CELL(task)


def test_dead_worker_is_one_clear_error(monkeypatch, tmp_path, capsys):
    from critfish import sweep
    from critfish.errors import WorkerDied

    monkeypatch.delenv("CRITFISH_THREADS", raising=False)
    monkeypatch.setattr(sweep, "_evaluate_cell", _dies_at_g_one)
    raw = {"model": "lmg", "size": 4, "g_grid": [0.5, 1.0], "temp_grid": [1.0],
           "temp_mode": "beta", "estimators": ["qfi_spectral"], "workers": 2}
    with pytest.raises(WorkerDied) as info:
        sweep.run_sweep(sweep.make_config(raw))
    assert isinstance(info.value.__cause__, BrokenProcessPool)
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "worker process died" in err
    assert not out.exists()


def test_serial_sweep_never_loads_the_pool_or_the_selftest():
    # the pool stack and the selftest load on demand, in a pooled call and
    # in `critfish selftest`; a fresh interpreter shows what a serial run loads
    code = (
        "import sys\n"
        "import critfish.cli\n"
        "from critfish.sweep import make_config, run_sweep\n"
        "rows = run_sweep(make_config({'model': 'lmg', 'size': 4, 'g_grid': [0.5, 0.9],\n"
        "    'temp_grid': [2.0], 'temp_mode': 'beta', 'workers': 1}))\n"
        "assert [row.status for row in rows] == ['ok', 'ok'], rows\n"
        "print(sorted(name for name in ('concurrent.futures.process', 'multiprocessing',\n"
        "    'critfish.selftest') if name in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_never_imports_scipy():
    # numpy and scipy each bundle an OpenBLAS with its own thread pool;
    # the package keeps to numpy's so the two never contend for cores
    code = (
        "import sys\n"
        "import critfish, critfish.cli\n"
        "from critfish.sweep import make_config, run_sweep\n"
        "rows = run_sweep(make_config({'model': 'lmg', 'size': 4, 'g_grid': [0.5],\n"
        "    'temp_grid': [2.0], 'temp_mode': 'beta', 'workers': 1,\n"
        "    'estimators': ['qfi_spectral', 'qfi_fidelity', 'cfi_sx2', 'fi_errprop']}))\n"
        "assert [row.status for row in rows] == ['ok'], rows\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
