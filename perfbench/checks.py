"""Output checks: which sweep rows count as failed cells.

The tolerances are those of the repository's acceptance gate
(tests/test_acceptance.py).  A row fails when

* its status names any failure other than ``qfi_spectral:InvalidTemperature``
  on a T = 0 row, where the spectral estimator is undefined by construction;
* a requested estimator column is missing or not finite;
* on the oscillator, qfi_spectral_total is off the closed form analytic_total
  by more than ORACLE_RTOL relative;
* at finite T, qfi_fidelity is off qfi_spectral_total by more than CROSS_RTOL
  relative;
* fi_errprop <= cfi_sx2 <= qfi_spectral_total is violated by more than
  ORDER_SLACK.
"""

import math
from dataclasses import astuple

ORACLE_RTOL = 1e-6
CROSS_RTOL = 1e-4
ORDER_SLACK = 1e-6
T0_STATUS = "qfi_spectral:InvalidTemperature"

# estimator name -> the row column it fills
ESTIMATOR_COLUMNS = {
    "qfi_spectral": "qfi_spectral_total",
    "qfi_fidelity": "qfi_fidelity",
    "cfi_sx2": "cfi_sx2",
    "fi_errprop": "fi_errprop",
    "toy_analytic": "analytic_total",
}


def relerr(value, reference):
    return abs(value - reference) / max(abs(reference), 1e-300)


def row_failures(row, estimators):
    """Reasons one row fails the checks; empty when it passes."""
    cold = row.beta is not None and math.isinf(row.beta)
    reasons = []
    if row.status != "ok":
        bad = [s for s in row.status.split(";") if not (cold and s == T0_STATUS)]
        if bad:
            reasons.append(f"status {';'.join(bad)}")
    for name in estimators:
        if cold and name == "qfi_spectral":
            continue
        value = getattr(row, ESTIMATOR_COLUMNS[name])
        if value is None or not math.isfinite(value):
            reasons.append(f"{ESTIMATOR_COLUMNS[name]} = {value}")
    if reasons:
        return reasons
    qfi, fid, analytic = row.qfi_spectral_total, row.qfi_fidelity, row.analytic_total
    if qfi is not None and analytic is not None and relerr(qfi, analytic) > ORACLE_RTOL:
        reasons.append(f"qfi_spectral_total {qfi!r} vs analytic_total {analytic!r}")
    if qfi is not None and fid is not None and relerr(fid, qfi) > CROSS_RTOL:
        reasons.append(f"qfi_fidelity {fid!r} vs qfi_spectral_total {qfi!r}")
    cfi, errprop = row.cfi_sx2, row.fi_errprop
    if cfi is not None and errprop is not None and errprop > cfi + ORDER_SLACK:
        reasons.append(f"fi_errprop {errprop!r} > cfi_sx2 {cfi!r}")
    if cfi is not None and qfi is not None and cfi > qfi + ORDER_SLACK:
        reasons.append(f"cfi_sx2 {cfi!r} > qfi_spectral_total {qfi!r}")
    return reasons


def row_key(row):
    """Exact identity of a row: repr of floats round-trips every bit."""
    return repr(astuple(row))


class Checker:
    """Counts checked and failed cells, and the largest agreement errors seen."""

    def __init__(self, estimators):
        self.estimators = tuple(estimators)
        self.attempted = 0
        self.failed = 0
        self.examples = []
        self.oracle_max_rel_err = 0.0
        self.cross_max_rel_err = 0.0

    def check(self, rows, cells, reference=None, label="run"):
        """Check one sweep's rows against the number of cells it was given.

        Missing rows count as failed cells.  With a reference run, a row
        that is not bit-identical to its counterpart there fails too.
        """
        missing = max(cells - len(rows), 0)
        self.attempted += missing
        self.failed += missing
        if missing:
            self.examples.append(f"{label}: {len(rows)} rows for {cells} cells")
        for i, row in enumerate(rows):
            self.attempted += 1
            reasons = row_failures(row, self.estimators)
            if i >= cells:
                reasons.append(f"{label} returned a row beyond its {cells} cells")
            if reference is not None and (
                i >= len(reference) or row_key(row) != row_key(reference[i])
            ):
                reasons.append(f"{label} is not bit-identical to the reference run")
            if reasons:
                self.failed += 1
                if len(self.examples) < 5:
                    self.examples.append(f"g={row.g!r} beta={row.beta!r}: {'; '.join(reasons)}")
                continue
            if row.qfi_spectral_total is not None and row.analytic_total is not None:
                err = relerr(row.qfi_spectral_total, row.analytic_total)
                self.oracle_max_rel_err = max(self.oracle_max_rel_err, err)
            if row.qfi_spectral_total is not None and row.qfi_fidelity is not None:
                err = relerr(row.qfi_fidelity, row.qfi_spectral_total)
                self.cross_max_rel_err = max(self.cross_max_rel_err, err)

    @property
    def fail_ratio(self):
        return self.failed / max(self.attempted, 1)
