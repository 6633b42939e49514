#!/usr/bin/env python3
"""critfish benchmark: seeded sweep workloads, timed end to end or traced per layer.

    python3 perfbench/run.py --workload fig2-ising --seed 0 --seconds 60 --trace 0

The benchmark drives critfish in-process through its public API
(workloads.py builds the config; sweep.run_sweep evaluates it) and
checks every row it gets back (checks.py).

--trace 0  calls run_sweep on the workload's config again and again
           (at least once, then while a typical call still ends within
           --seconds) and reports the end-to-end metrics: cells per
           wall-second of one call (median over calls), set-up time of a
           fresh interpreter (median of SETUP_PROBES), peak RSS up to the
           end of the first call, and the share of cells that pass the
           checks.
--trace 1  makes one untraced call, one traced call and one call on a
           worker pool of POOL_WORKERS (its rows compared bit for bit with
           the serial rows), and reports the per-layer metrics of
           tracer.py and the pool's efficiency.

Human-readable lines, the machine record among them, go to stdout; the
last line is one JSON object with the keys correct, attempted, failed
and metrics.  The full record, and the spans of a traced run, are
written under perfbench/results/.  No BLAS thread variable is set.
"""

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SETUP_PROBES = 5
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CRITFISH_THREADS")


def machine_record():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (workloads.ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "-C", str(workloads.ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
        commit = probe.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": blas,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def setup_seconds(name, seed):
    """Wall time of fresh interpreters that import critfish and build the config."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        # no timeout: with one, subprocess polls for the exit in steps of up to 50 ms
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            cwd=workloads.ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - start)
    return samples


def peak_rss_mb():
    """Largest resident set of this process or of any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def cell_count(config):
    return len(config.g_grid) * len(config.temp_grid)


def timed_call(config):
    # looked up at call time, so a traced call goes through the tracer's wrapper
    from critfish import sweep

    start = time.perf_counter()
    rows = sweep.run_sweep(config)
    return rows, time.perf_counter() - start


def warm_up(config):
    """One cell, so lazy set-up inside the libraries is not timed."""
    timed_call(replace(config, g_grid=config.g_grid[:1], temp_grid=config.temp_grid[-1:]))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def end_to_end(name, seed, config, seconds, checker, record):
    cells = cell_count(config)
    warm_up(config)
    walls, reference, rss = [], None, None
    start = time.perf_counter()
    while True:
        rows, wall = timed_call(config)
        checker.check(rows, cells, reference, label=f"call {len(walls) + 1}")
        reference = reference or rows
        walls.append(wall)
        # later calls repeat the same work, so the peak is read after the first:
        # it must not depend on how many calls fit into the budget
        rss = rss or peak_rss_mb()
        # start another call only if a typical call would still end within the budget
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    rates = [cells / wall for wall in walls]
    setups = setup_seconds(name, seed)
    q1, median, q3 = quartiles(rates)
    print(f"cells_per_s median {median:.4f} (q1 {q1:.4f}, q3 {q3:.4f}) cells/s "
          f"over {len(rates)} run_sweep calls of {cells} cells")
    print(f"setup_s median {statistics.median(setups):.4f} s over {len(setups)} fresh interpreters")
    print(f"cell_fail_ratio {checker.fail_ratio:.6g} ({checker.failed} of {checker.attempted} cells)")
    record.update(call_walls_s=walls, setup_samples_s=setups)
    return {
        "cells_per_s": (median, "cells/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
        "cell_ok_ratio": (1.0 - checker.fail_ratio, "ratio"),
    }


def per_layer(name, seed, config, checker, record):
    from critfish import sweep

    cells = cell_count(config)
    warm_up(config)
    plain, plain_wall = timed_call(config)
    checker.check(plain, cells, label="untraced call")
    spans = tracer.Tracer()
    with spans.installed():
        traced, traced_wall = timed_call(config)
        csv_text = io.StringIO()
        sweep.rows_to_csv(traced, csv_text)
    checker.check(traced, cells, plain, label="traced call")
    metrics = tracer.layer_metrics(spans.spans, cells)
    pooled_config = replace(config, workers=workloads.POOL_WORKERS)
    # the count run_sweep really uses: CRITFISH_THREADS may cap it, down to a serial call
    workers = sweep._worker_count(pooled_config)
    pooled, pool_wall = timed_call(pooled_config)
    checker.check(pooled, cells, plain, label="pooled call")
    print(f"pooled call: {workers} workers, {pool_wall:.3f} s against {plain_wall:.3f} s serial")
    metrics.update({
        "sweep.csv_bytes": (len(csv_text.getvalue().encode()), "B"),
        "sweep.pool.efficiency": (plain_wall / pool_wall / workers, "ratio"),
        "trace.overhead_ratio": (traced_wall / plain_wall, "ratio"),
        "check.oracle_max_rel_err": (checker.oracle_max_rel_err, "rel"),
        "check.cross_max_rel_err": (checker.cross_max_rel_err, "rel"),
    })
    record.update(untraced_wall_s=plain_wall, traced_wall_s=traced_wall,
                  pool_workers=workers, pool_wall_s=pool_wall)
    with open(RESULTS / f"{name}-seed{seed}-spans.jsonl", "w", encoding="utf-8") as handle:
        for span in spans.spans:
            handle.write(json.dumps([span.name, span.start, span.end, span.parent, span.size]) + "\n")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    workloads.import_critfish()
    config = workloads.config(args.workload, args.seed)
    checker = checks.Checker(config.estimators)
    machine = machine_record()
    RESULTS.mkdir(exist_ok=True)
    print(f"workload {args.workload} seed {args.seed}: {workloads.WORKLOADS[args.workload].why}")
    print("machine " + json.dumps(machine))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine}
    if args.trace:
        metrics = per_layer(args.workload, args.seed, config, checker, record)
    else:
        metrics = end_to_end(args.workload, args.seed, config, args.seconds, checker, record)
    for example in checker.examples:
        print(f"failed: {example}")
    for metric, (value, unit) in metrics.items():
        print(f"{metric} = {value!r} {unit}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }
    record.update(config=asdict(config), result=result, failures=checker.examples)
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
