"""Built-in oracle-agreement suite, runnable without pytest.

Re-derives a handful of closed-form values and cross-method identities
and checks the numerical stack against them.  One PASS/FAIL line per
check; returns 0 when everything is green.
"""

import io
import math
from dataclasses import replace

import numpy as np

from .analytic import ToyParams, fi_errprop_closed, qfi_eigenstate, qfi_thermal_classical, qfi_thermal_quantum
from .fisher import (
    FD_ATOL,
    FD_RTOL,
    _fd_ladder,
    cfi_projective,
    fi_error_propagation,
    qfi_fidelity_fd,
    qfi_spectral,
)
from .linalg import Sectors, Spectrum, eigh
from .models import build_model, toy_converged_truncation
from .sweep import make_config, measurement_observable, rows_from_csv, rows_to_csv, run_sweep
from .thermal import density_matrix, gibbs


def _rel_err(value, reference):
    return abs(value - reference) / max(abs(reference), 1e-300)


def _check_toy_oracle():
    params = ToyParams(omega=1.0, g=0.6, beta=1.0 / ToyParams(1.0, 0.6, 1.0).effective_frequency)
    model, _, breakdown = toy_converged_truncation(params.omega, params.g, params.beta)
    numeric = breakdown.total
    exact = qfi_thermal_quantum(params) + qfi_thermal_classical(params)
    err = _rel_err(numeric, exact)
    return err <= 1e-6, f"relative error {err:.2e} (n_max={model.size})"


def _check_zero_temperature_limits():
    params = ToyParams(omega=1.0, g=0.5, beta=math.inf)
    ground = qfi_eigenstate(params, 0)
    if qfi_thermal_quantum(params) != ground:
        return False, "thermal quantum term at beta=inf is not the ground-state value"
    err_closed = _rel_err(fi_errprop_closed(params), ground)
    if err_closed > 1e-12:
        return False, f"error-propagation closed form off by {err_closed:.2e} at T=0"
    model, _, _ = toy_converged_truncation(1.0, 0.5, math.inf)
    numeric = qfi_fidelity_fd(model, math.inf, delta_omega=1e-2)
    err_fd = _rel_err(numeric, ground)
    return err_fd <= 1e-4, f"fidelity route off by {err_fd:.2e} from {ground}"


def _check_commuting_case():
    beta, size = 2.0, 8
    model = build_model("lmg", 1.0, 0.0, size)
    state = gibbs(eigh(model.H), beta)
    breakdown = qfi_spectral(model, state)
    levels = np.arange(size + 1) - size / 2.0
    mean = float(np.dot(state.probs, levels))
    variance = float(np.dot(state.probs, (levels - mean) ** 2))
    if breakdown.quantum_part != 0.0:
        return False, f"quantum part {breakdown.quantum_part} is not exactly zero"
    err = _rel_err(breakdown.total, beta ** 2 * variance)
    return err <= 1e-10, f"total vs beta^2 Var relative error {err:.2e}"


def _check_cross_method():
    model_kind, size, g, beta = "lmg", 8, 0.7, 3.0
    model = build_model(model_kind, 1.0, g, size)
    spectral = qfi_spectral(model, gibbs(eigh(model.H), beta)).total
    fd = qfi_fidelity_fd(model, beta, delta_omega=1e-3)
    err = _rel_err(fd, spectral)
    return err <= 1e-4, f"spectral vs fidelity relative error {err:.2e}"


def _check_estimator_ordering():
    model_kind, size, g, beta = "lmg", 8, 0.9, 3.0
    model = build_model(model_kind, 1.0, g, size)
    observable = measurement_observable(model_kind, size)
    qfi = qfi_spectral(model, gibbs(eigh(model.H), beta)).total
    cfi = cfi_projective(model, beta, observable, delta_omega=1e-3)
    errprop = fi_error_propagation(model, beta, observable, delta_omega=1e-3)
    slack = 1e-6
    ok = errprop <= cfi + slack and cfi <= qfi + slack
    return ok, f"errprop={errprop:.6g}, cfi={cfi:.6g}, qfi={qfi:.6g}"


def _dense_spectrum(matrix):
    # one solve of the whole matrix as one block: skipping the block
    # split is what makes this independent of linalg.eigh
    vals, vecs = np.linalg.eigh(matrix)
    return Spectrum(eigenvalues=vals, blocks=((np.arange(len(vals)), np.arange(len(vals)), vecs),))


def _dense_qfi_fidelity(g, size, beta, delta_omega):
    """qfi_fidelity_fd's ladder with every diagonalization done densely."""

    def density(at_omega):
        return density_matrix(gibbs(_dense_spectrum(build_model("ising", at_omega, g, size).H), beta))

    def root(rho):
        vals, vecs = np.linalg.eigh(rho)
        return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T

    def estimate(step):
        rho, sigma = density(1.0 - step / 2.0), density(1.0 + step / 2.0)
        root_fidelity = float(np.sum(np.linalg.svd(root(rho) @ root(sigma), compute_uv=False)))
        return 8.0 * (1.0 - root_fidelity) / step ** 2

    value, _ = _fd_ladder(estimate, 1.0, delta_omega, FD_RTOL, FD_ATOL)
    return value


def _check_blocked_vs_dense():
    size, beta, delta_omega = 6, 2.0, 1e-3
    worst = {"qfi_spectral": 0.0, "qfi_fidelity": 0.0}
    for g in (0.5, 1.3):
        model = build_model("ising", 1.0, g, size)
        blocked = qfi_spectral(model, gibbs(eigh(model.H), beta)).total
        dense = qfi_spectral(model, gibbs(_dense_spectrum(model.H), beta)).total
        worst["qfi_spectral"] = max(worst["qfi_spectral"], _rel_err(blocked, dense))
        blocked = qfi_fidelity_fd(model, beta, delta_omega=delta_omega)
        dense = _dense_qfi_fidelity(g, size, beta, delta_omega)
        worst["qfi_fidelity"] = max(worst["qfi_fidelity"], _rel_err(blocked, dense))
    ok = worst["qfi_spectral"] <= 1e-10 and worst["qfi_fidelity"] <= 1e-6
    return ok, ", ".join(f"{name} relative error {err:.2e}" for name, err in worst.items())


def _check_chains_vs_dense_blocks():
    for kind, size, g, beta in (("toy", 1024, 0.999, 50.0), ("lmg", 40, 1.3, 5.0)):
        model = build_model(kind, 1.0, g, size)
        # the same sectors with every chain handed over as a dense block, so ?syevd solves it
        blocks = [np.diag(d) + np.diag(off, 1) + np.diag(off, -1) for d, off in model.H.blocks]
        chains = qfi_spectral(model, gibbs(eigh(model.H), beta))
        dense = qfi_spectral(model, gibbs(eigh(Sectors(model.H.rows, blocks)), beta))
        if chains != dense:
            return False, f"{kind} N={size}: chain route {chains.total!r} != dense-block route {dense.total!r}"
    return True, "toy 1024 and lmg 40: qfi_spectral identical on both routes"


def _check_table_roundtrip():
    config = make_config(
        {
            "model": "toy",
            "size": 96,
            "g_grid": [0.3, 0.5],
            "temp_grid": [1.0, "inf"],
            "temp_mode": "beta",
            "estimators": ["qfi_spectral", "qfi_fidelity", "toy_analytic"],
            "delta_omega": 1e-3,
            "workers": 1,
        }
    )
    serial = run_sweep(config)
    parallel = run_sweep(replace(config, workers=2))
    if serial != parallel:
        return False, "parallel run differs from serial run"
    buffer = io.StringIO()
    rows_to_csv(serial, buffer)
    buffer.seek(0)
    if rows_from_csv(buffer) != serial:
        return False, "CSV round-trip altered the table"
    return True, f"{len(serial)} rows, serial == parallel, CSV round-trip exact"


CHECKS = (
    ("toy closed forms vs spectral estimator", _check_toy_oracle),
    ("zero-temperature identities", _check_zero_temperature_limits),
    ("commuting case (g = 0)", _check_commuting_case),
    ("spectral vs fidelity cross-method", _check_cross_method),
    ("estimator ordering", _check_estimator_ordering),
    ("blocked vs dense diagonalization", _check_blocked_vs_dense),
    ("table round-trip and parallel determinism", _check_table_roundtrip),
    ("tridiagonal chains vs dense blocks", _check_chains_vs_dense_blocks),
)


def run(stream):
    failures = 0
    for name, check in CHECKS:
        try:
            ok, detail = check()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        stream.write(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}\n")
        failures += 0 if ok else 1
    stream.write(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed\n")
    return 0 if failures == 0 else 1
