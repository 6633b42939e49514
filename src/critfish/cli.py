"""Command line: single points, config-file sweeps, figure presets, selftest.

Units everywhere: hbar = k_B = 1, omega is the unit of energy, Fisher
values are reported in 1/omega^2.  Exit codes: 0 success, 1 bad
configuration or usage, 2 numerical failure in a ``point`` run.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import selftest as selftest_module
from .errors import ConfigError, CritfishError
from .fisher import FD_RTOL
from .sweep import (
    ESTIMATOR_NAMES,
    make_config,
    rows_to_csv,
    rows_to_json_objects,
    run_sweep,
)

FIG_G_RANGE = (0.5, 1.3)      # read off the reference figures' axes
FIG_G_COUNT = 60
FIG_TEMP_DECADES = (-1.0, 3.0)  # beta-gap ratios 0.1 .. 1000
FIG_TEMP_COUNT = 21
FIG_RATIO_CUT = 180.0
FIG_DELTA_OMEGA = 1e-3        # keeps 1 - F well above fidelity roundoff


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _size_value(text):
    return text if text == "adaptive" else int(text)


def fig1_config(model, size, g_count=FIG_G_COUNT, temp_count=FIG_TEMP_COUNT):
    """Coupling-temperature grid with the T = 0 and ratio-180 cuts included."""
    ratios = [math.inf, FIG_RATIO_CUT]
    ratios += [float(r) for r in np.logspace(FIG_TEMP_DECADES[1], FIG_TEMP_DECADES[0], temp_count)]
    return make_config(
        {
            "model": model,
            "size": size,
            "g_grid": {"min": FIG_G_RANGE[0], "max": FIG_G_RANGE[1], "count": g_count, "spacing": "linear"},
            "temp_grid": ratios,
            "temp_mode": "beta_gap_ratio",
            "estimators": ["qfi_spectral", "qfi_fidelity"],
            "delta_omega": FIG_DELTA_OMEGA,
        }
    )


def fig2_config(model, size, beta_gap_ratio=FIG_RATIO_CUT, g_count=FIG_G_COUNT):
    """Fixed-temperature cut comparing the quantum bound with one measurement."""
    return make_config(
        {
            "model": model,
            "size": size,
            "g_grid": {"min": FIG_G_RANGE[0], "max": FIG_G_RANGE[1], "count": g_count, "spacing": "linear"},
            "temp_grid": [math.inf, beta_gap_ratio],
            "temp_mode": "beta_gap_ratio",
            "estimators": ["qfi_spectral", "qfi_fidelity", "cfi_sx2", "fi_errprop"],
            "delta_omega": FIG_DELTA_OMEGA,
        }
    )


def _write_rows(rows, handle, fmt):
    if fmt == "json":
        json.dump(rows_to_json_objects(rows), handle, indent=1)
        handle.write("\n")
    else:
        rows_to_csv(rows, handle)


def _sweep_to(config, out, fmt):
    """Run the sweep and write its rows to ``out`` ("-" for stdout).

    A file is opened (for appending) before any cell runs, so a bad path
    fails at once, and emptied once the rows are in: a failed sweep leaves
    an existing file as it was and removes one it created.
    """
    if out == "-":
        _write_rows(run_sweep(config), sys.stdout, fmt)
        return
    existed = os.path.exists(out)
    try:
        with open(out, "a", encoding="utf-8", newline="") as handle:
            rows = run_sweep(config)
            handle.truncate(0)
            _write_rows(rows, handle, fmt)
    except BaseException:
        if not existed and os.path.isfile(out):
            os.remove(out)
        raise


def _resolve_format(fmt, out):
    if fmt:
        return fmt
    if out != "-" and out.endswith(".json"):
        return "json"
    return "csv"


def _build_parser():
    parser = _Parser(
        prog="critfish",
        description=(
            "Fisher information of thermal states near criticality "
            "(hbar = k_B = 1; omega is the energy unit, Fisher values in 1/omega^2)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    point = sub.add_parser("point", parents=[], help="evaluate one grid cell, print it as JSON")
    point.add_argument("--model", required=True, choices=["toy", "lmg", "ising"])
    point.add_argument("-N", "--size", required=True, type=_size_value,
                       help="spin count / Fock truncation, or 'adaptive' (toy, with --beta)")
    point.add_argument("--omega", type=float, default=1.0)
    point.add_argument("-g", "--coupling", required=True, type=float)
    group = point.add_mutually_exclusive_group(required=True)
    group.add_argument("--beta-gap", help="beta as a multiple of the gap; 'inf' for T = 0")
    group.add_argument("--beta", help="explicit inverse temperature; 'inf' for T = 0")
    point.add_argument("--estimators", default="qfi_spectral,qfi_fidelity",
                       help="comma list from: " + ",".join(ESTIMATOR_NAMES))
    point.add_argument("--delta-omega", type=float, default=None)
    point.add_argument("--fd-rtol", type=float, default=FD_RTOL)

    swp = sub.add_parser("sweep", help="run a JSON config file")
    swp.add_argument("--config", required=True)
    swp.add_argument("--out", default=None, help="output path ('-' for stdout); overrides the config")
    swp.add_argument("--format", choices=["csv", "json"], default=None)
    swp.add_argument("--workers", type=int, default=None)

    fig1 = sub.add_parser("fig1", help="coupling/temperature grid with T=0 and ratio-180 cuts")
    fig1.add_argument("--model", required=True, choices=["lmg", "ising"])
    fig1.add_argument("-N", "--size", required=True, type=int)
    fig1.add_argument("--out", required=True)
    fig1.add_argument("--format", choices=["csv", "json"], default=None)
    fig1.add_argument("--g-count", type=int, default=FIG_G_COUNT)
    fig1.add_argument("--temp-count", type=int, default=FIG_TEMP_COUNT)

    fig2 = sub.add_parser("fig2", help="fixed-temperature cut: quantum bound vs one measurement")
    fig2.add_argument("--model", required=True, choices=["lmg", "ising"])
    fig2.add_argument("-N", "--size", required=True, type=int)
    fig2.add_argument("--beta-gap", type=float, default=FIG_RATIO_CUT)
    fig2.add_argument("--out", required=True)
    fig2.add_argument("--format", choices=["csv", "json"], default=None)
    fig2.add_argument("--g-count", type=int, default=FIG_G_COUNT)

    sub.add_parser("selftest", help="run the oracle-agreement suite; exit 0 when green")
    return parser


def _run_point(args):
    estimators = tuple(name for name in args.estimators.split(",") if name)
    temp_mode = "beta" if args.beta is not None else "beta_gap_ratio"
    temp = args.beta if args.beta is not None else args.beta_gap
    config = make_config(
        {
            "model": args.model,
            "size": args.size,
            "omega": args.omega,
            "g_grid": [args.coupling],
            "temp_grid": [temp],
            "temp_mode": temp_mode,
            "estimators": list(estimators),
            "delta_omega": args.delta_omega,
            "fd_rtol": args.fd_rtol,
        },
        # physics preconditions (g past criticality) are a numerical
        # failure for a single point, not a config error
        enforce_critical=False,
    )
    row = run_sweep(config)[0]
    json.dump(rows_to_json_objects([row])[0], sys.stdout, indent=1)
    sys.stdout.write("\n")
    if row.status != "ok":
        sys.stderr.write(f"numerical failure: {row.status}\n")
        return 2
    return 0


def _run_sweep(args):
    with open(args.config, encoding="utf-8") as handle:
        raw = json.load(handle)
    if args.workers is not None and isinstance(raw, dict):
        raw = dict(raw, workers=args.workers)
    config = make_config(raw)  # first, so that anything but a JSON object is a config error
    output = raw.get("output", {}) or {}
    if not isinstance(output, dict):
        raise ConfigError("must be a mapping with path/format", field="output")
    out = args.out or output.get("path")
    if not out:
        raise ConfigError("no output path (config output.path or --out)", field="output.path")
    fmt = args.format or output.get("format")
    if fmt not in (None, "csv", "json"):
        raise ConfigError(f"must be csv or json, got {fmt!r}", field="output.format")
    _sweep_to(config, out, _resolve_format(fmt, out))
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "point":
            return _run_point(args)
        if args.command == "sweep":
            return _run_sweep(args)
        if args.command == "fig1":
            config = fig1_config(args.model, args.size, args.g_count, args.temp_count)
            _sweep_to(config, args.out, _resolve_format(args.format, args.out))
            return 0
        if args.command == "fig2":
            config = fig2_config(args.model, args.size, args.beta_gap, args.g_count)
            _sweep_to(config, args.out, _resolve_format(args.format, args.out))
            return 0
        if args.command == "selftest":
            return selftest_module.run(sys.stdout)
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 1
    except OSError as exc:  # a missing, unreadable or unwritable path, or a directory
        sys.stderr.write(f"{exc}\n")
        return 1
    except json.JSONDecodeError as exc:
        sys.stderr.write(f"configuration is not valid JSON: {exc}\n")
        return 1
    except CritfishError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
