"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines; every
tolerance is pinned here, not deferred.  The heavier grids are shared
through module-scoped fixtures so the stated runtime budgets hold.
"""

import io
import math
import time

import numpy as np
import pytest

from critfish.analytic import (
    ToyParams,
    fi_errprop_closed,
    qfi_eigenstate,
    qfi_thermal_classical,
    qfi_thermal_quantum,
)
from critfish.cli import fig1_config, fig2_config, main as cli_main
from critfish.fisher import (
    cfi_projective,
    fi_error_propagation,
    qfi_fidelity_fd,
    qfi_spectral,
    quantum_term_by_offset,
)
from critfish.linalg import eigh
from critfish.models import build_model, toy_converged_truncation
from critfish.sweep import make_config, measurement_observable, rows_from_csv, rows_to_csv, run_sweep
from critfish.thermal import gibbs

from spectra import dense_eigenvectors

# criterion 3's documented grid, reused verbatim by criterion 5
CROSS_METHOD_MODELS = (("lmg", 4), ("lmg", 8), ("ising", 4), ("ising", 6))
CROSS_METHOD_G = (0.2, 0.5, 0.8, 1.0, 1.2)
CROSS_METHOD_BETA = (0.5, 1.0, 2.0, 5.0, 10.0)
FIG_RATIO = 180.0


def report(number, name, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def relerr(value, reference):
    return abs(value - reference) / max(abs(reference), 1e-300)


@pytest.fixture(scope="module")
def fig1_rows():
    start = time.monotonic()
    rows = run_sweep(fig1_config("lmg", 20))
    return rows, time.monotonic() - start


@pytest.fixture(scope="module")
def fig2_rows():
    start = time.monotonic()
    rows = {
        ("lmg", 20): run_sweep(fig2_config("lmg", 20, FIG_RATIO)),
        ("ising", 6): run_sweep(fig2_config("ising", 6, FIG_RATIO)),
    }
    return rows, time.monotonic() - start


def test_criterion_1_toy_oracle_agreement():
    start = time.monotonic()
    worst = 0.0
    for g in (0.3, 0.6, 0.9):
        scales = ToyParams(omega=1.0, g=g, beta=1.0)
        for beta_eff in (0.1, 1.0, 10.0):
            beta = beta_eff / scales.effective_frequency
            params = ToyParams(omega=1.0, g=g, beta=beta)
            model, spectrum, _ = toy_converged_truncation(1.0, g, beta)
            numeric = qfi_spectral(model, gibbs(spectrum, beta)).total
            exact = qfi_thermal_quantum(params) + qfi_thermal_classical(params)
            worst = max(worst, relerr(numeric, exact))
    elapsed = time.monotonic() - start
    report(
        1,
        "toy closed forms vs adaptively truncated spectral estimator",
        worst <= 1e-6 and elapsed < 30.0,
        f"worst relative error {worst:.2e} over the 3x3 grid in {elapsed:.1f}s",
    )


def test_criterion_2_zero_temperature_limits():
    cold = ToyParams(omega=1.0, g=0.5, beta=math.inf)
    ground = qfi_eigenstate(cold, 0)
    exact_identity = qfi_thermal_quantum(cold) == ground
    errprop_err = relerr(fi_errprop_closed(cold), ground)
    model, _, _ = toy_converged_truncation(1.0, 0.5, math.inf)
    fd = qfi_fidelity_fd(model, math.inf, delta_omega=1e-2)
    fd_err = relerr(fd, 0.125)
    report(
        2,
        "zero-temperature limits",
        exact_identity and errprop_err <= 1e-12 and fd_err <= 1e-4,
        f"closed-form identity {exact_identity}, error-propagation off by "
        f"{errprop_err:.1e}, fidelity route {fd:.8f} vs 0.125 ({fd_err:.1e} rel)",
    )


def test_criterion_3_cross_method_agreement():
    start = time.monotonic()
    worst = (0.0, None)
    for kind, size in CROSS_METHOD_MODELS:
        for g in CROSS_METHOD_G:
            model = build_model(kind, 1.0, g, size)
            spectrum = eigh(model.H)
            for beta in CROSS_METHOD_BETA:
                spectral = qfi_spectral(model, gibbs(spectrum, beta)).total
                fd = qfi_fidelity_fd(model, beta, delta_omega=1e-3)
                err = relerr(fd, spectral)
                if err > worst[0]:
                    worst = (err, (kind, size, g, beta))
    elapsed = time.monotonic() - start
    report(
        3,
        "spectral vs fidelity agreement on the 5x5 grids",
        worst[0] <= 1e-4 and elapsed < 60.0,
        f"worst relative difference {worst[0]:.2e} at {worst[1]} in {elapsed:.1f}s",
    )


def test_criterion_4_commuting_case():
    worst = 0.0
    quantum_ok = True
    for kind, size, beta in (("toy", 128, 2.0), ("lmg", 8, 3.0), ("ising", 4, 1.5)):
        model = build_model(kind, 1.0, 0.0, size)
        spectrum = eigh(model.H)
        state = gibbs(spectrum, beta)
        breakdown = qfi_spectral(model, state)
        quantum_ok = quantum_ok and breakdown.quantum_part == 0.0
        v = dense_eigenvectors(spectrum)
        slopes = np.einsum("in,in->n", v, np.diag(model.dH) @ v)
        mean = float(np.dot(state.probs, slopes))
        variance = float(np.dot(state.probs, (slopes - mean) ** 2))
        worst = max(worst, relerr(breakdown.total, beta ** 2 * variance))
    report(
        4,
        "g = 0 commuting case",
        quantum_ok and worst <= 1e-10,
        f"quantum parts exactly zero: {quantum_ok}, total vs beta^2 Var(dH) "
        f"worst relative error {worst:.2e}",
    )


def test_criterion_5_estimator_ordering():
    slack = 1e-6
    worst_pair = -math.inf
    worst_bound = -math.inf
    for kind, size in CROSS_METHOD_MODELS:
        observable = measurement_observable(kind, size)
        for g in CROSS_METHOD_G:
            model = build_model(kind, 1.0, g, size)
            spectrum = eigh(model.H)
            for beta in CROSS_METHOD_BETA:
                qfi = qfi_spectral(model, gibbs(spectrum, beta)).total
                cfi = cfi_projective(model, beta, observable, delta_omega=1e-3, fd_rtol=1e-6)
                errprop = fi_error_propagation(model, beta, observable, delta_omega=1e-3, fd_rtol=1e-6)
                worst_pair = max(worst_pair, errprop - cfi)
                worst_bound = max(worst_bound, cfi - qfi)
    report(
        5,
        "error propagation <= projective information <= quantum bound",
        worst_pair <= slack and worst_bound <= slack,
        f"max(errprop - cfi) = {worst_pair:.2e}, max(cfi - qfi) = {worst_bound:.2e}, "
        f"slack {slack:g}",
    )


def test_criterion_6_fig1_temperature_enhancement(fig1_rows):
    rows, elapsed = fig1_rows
    cold = {r.g: r.qfi_fidelity for r in rows if r.beta_gap_ratio == math.inf}
    warm = {r.g: r.qfi_fidelity for r in rows if r.beta_gap_ratio == FIG_RATIO}
    ratios = {
        g: warm[g] / cold[g]
        for g in cold
        if warm.get(g) and cold.get(g)
    }
    g_star, best = max(ratios.items(), key=lambda item: item[1])

    # temperature profile at the most-enhanced coupling: ordered cold to hot
    profile = sorted(
        ((r.beta_gap_ratio, r.qfi_fidelity) for r in rows if r.g == g_star),
        key=lambda item: -item[0],
    )
    values = [v for _, v in profile if v is not None]
    peak = int(np.argmax(values))
    interior_max = 0 < peak < len(values) - 1
    rises_then_falls = values[peak] > values[0] and values[peak] > values[-1]

    report(
        6,
        "collective-spin grid: warmth helps near criticality, then hurts",
        best >= 1.5 and 1.0 < g_star <= 1.3 and interior_max and rises_then_falls
        and elapsed < 300.0,
        f"ratio-{FIG_RATIO:g} vs T=0 enhancement {best:.2f}x at g={g_star:.3f}; "
        f"temperature profile peaks at index {peak}/{len(values) - 1} "
        f"({values[0]:.3g} -> {values[peak]:.3g} -> {values[-1]:.3g}); "
        f"grid took {elapsed:.1f}s",
    )


def test_criterion_7_fig2_measurement_beats_cold_bound(fig2_rows):
    tables, elapsed = fig2_rows
    ok = True
    details = []
    for (kind, size), rows in tables.items():
        cold = {r.g: r.qfi_fidelity for r in rows if r.beta_gap_ratio == math.inf}
        warm = {r.g: r for r in rows if r.beta_gap_ratio == FIG_RATIO}
        exceed = [
            g for g, row in warm.items()
            if row.cfi_sx2 is not None and cold.get(g) is not None
            and row.cfi_sx2 > cold[g]
        ]
        bound_ok = all(
            row.cfi_sx2 <= row.qfi_spectral_total + 1e-6
            for row in warm.values()
            if row.cfi_sx2 is not None and row.qfi_spectral_total is not None
        )
        margin = max(
            (warm[g].cfi_sx2 / cold[g] for g in exceed), default=0.0
        )
        ok = ok and bool(exceed) and bound_ok
        details.append(
            f"{kind} N={size}: measured information beats the T=0 bound on "
            f"{len(exceed)}/{len(warm)} points (best {margin:.2f}x), "
            f"cfi <= qfi at same T: {bound_ok}"
        )
    report(7, "one simple measurement outperforms the T=0 quantum bound",
           ok and elapsed < 300.0, "; ".join(details) + f"; took {elapsed:.1f}s")


def test_criterion_8_two_excitation_selection_rule():
    g, beta_eff = 0.6, 1.0
    beta = beta_eff / ToyParams(omega=1.0, g=g, beta=1.0).effective_frequency
    model, spectrum, _ = toy_converged_truncation(1.0, g, beta)
    offsets = quantum_term_by_offset(model, gibbs(spectrum, beta))
    total = float(offsets.sum())
    outside = float(total - offsets[2])
    report(
        8,
        "eigenvector information rides on level pairs two apart",
        outside <= 1e-12 * total,
        f"mass outside |n - m| = 2 is {outside / total:.2e} of the total "
        f"(n_max={model.size})",
    )


def test_criterion_9_infrastructure(capsys):
    config = make_config({
        "model": "toy", "size": 96, "g_grid": [0.3, 0.5], "temp_grid": [1.0, "inf"],
        "temp_mode": "beta",
        "estimators": ["qfi_spectral", "qfi_fidelity", "toy_analytic"],
        "delta_omega": 1e-3,
    })
    serial = run_sweep(make_config({
        "model": "toy", "size": 96, "g_grid": [0.3, 0.5], "temp_grid": [1.0, "inf"],
        "temp_mode": "beta",
        "estimators": ["qfi_spectral", "qfi_fidelity", "toy_analytic"],
        "delta_omega": 1e-3, "workers": 1,
    }))
    parallel = run_sweep(make_config({
        "model": "toy", "size": 96, "g_grid": [0.3, 0.5], "temp_grid": [1.0, "inf"],
        "temp_mode": "beta",
        "estimators": ["qfi_spectral", "qfi_fidelity", "toy_analytic"],
        "delta_omega": 1e-3, "workers": 2,
    }))
    rows = run_sweep(config)
    buffer = io.StringIO()
    rows_to_csv(rows, buffer)
    buffer.seek(0)
    roundtrip_ok = rows_from_csv(buffer) == rows
    parallel_ok = serial == parallel

    selftest_code = cli_main(["selftest"])
    out = capsys.readouterr().out
    with capsys.disabled():
        report(
            9,
            "table round-trip, parallel determinism, selftest",
            roundtrip_ok and parallel_ok and selftest_code == 0,
            f"CSV round-trip exact: {roundtrip_ok}, serial == parallel: {parallel_ok}, "
            f"selftest exit {selftest_code} ({out.count('PASS')} checks)",
        )
