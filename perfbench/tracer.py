"""Span tracer for critfish, applied from outside the package.

``Tracer.installed()`` wraps every public function defined in the traced
modules and rebinds the wrapper under each name that holds the original
in any loaded critfish module: the defining module (so calls inside it,
such as psd_sqrt -> eigh, are seen), the package namespace, and every
module that imported the function by name (fisher holds eigh, fidelity,
gibbs, density_matrix and thermal_expectation; sweep holds eigh,
build_model, toy_converged_truncation, gibbs and the four estimators;
models holds the operator constructors and imports eigh, qfi_spectral and
gibbs locally, at call time).  The originals are restored on exit.

A span records (name, start, end, parent, size); spans stay in memory and
are written out by the caller.  ``size`` is the matrix dimension of an
eigh call and the size argument of build_model.
"""

import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

TRACED_MODULES = ("operators", "models", "linalg", "thermal", "fisher", "sweep")
OPERATORS = ("operators.make_fock_ops", "operators.make_dicke_ops", "operators.make_chain_ops")
ESTIMATORS = ("fisher.qfi_fidelity_fd", "fisher.cfi_projective", "fisher.fi_error_propagation")


def _arg(args, kwargs, position, keyword):
    return args[position] if len(args) > position else kwargs[keyword]


SIZE_OF = {
    "linalg.eigh": lambda args, kwargs: len(_arg(args, kwargs, 0, "matrix")),
    "models.build_model": lambda args, kwargs: int(_arg(args, kwargs, 3, "size")),
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    size: int = None


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack, size_of = self.spans, self._stack, SIZE_OF.get(name)

        def traced(*args, **kwargs):
            size = size_of(args, kwargs) if size_of else None
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, size)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        wrappers = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"critfish.{short}")
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    wrappers[value] = self._wrap(f"{short}.{attr}", value)
        saved = []
        for module_name, module in list(sys.modules.items()):
            if module_name != "critfish" and not module_name.startswith("critfish."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        try:
            yield self
        finally:
            for module, attr, value in saved:
                setattr(module, attr, value)


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children[index]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.end - span.start - covered)
    return result


def layer_metrics(spans, cells):
    """Per-layer metrics of one traced sweep call of `cells` cells.

    Returns {name: (value, unit)}.
    """
    own = self_times(spans)
    index = defaultdict(list)
    for i, span in enumerate(spans):
        index[span.name].append(i)

    def count(*names):
        return sum(len(index[n]) for n in names)

    def self_s(*names):
        return sum(own[i] for n in names for i in index[n])

    def ancestors(i):
        names = set()
        while spans[i].parent >= 0:
            i = spans[i].parent
            names.add(spans[i].name)
        return names

    eigh_under = defaultdict(int)
    for i in index["linalg.eigh"]:
        for name in ancestors(i) & set(ESTIMATORS):
            eigh_under[name] += 1
    rung_sizes = [
        spans[i].size for i in index["models.build_model"]
        if "models.toy_converged_truncation" in ancestors(i)
    ]
    eigh_dims = [spans[i].size for i in index["linalg.eigh"]]

    def per_estimator_call(name):
        return eigh_under[name] / max(len(index[name]), 1)

    return {
        "operators.calls": (count(*OPERATORS), "count"),
        "operators.self_s": (self_s(*OPERATORS), "s"),
        "models.build_model.calls": (count("models.build_model"), "count"),
        "models.build_model.self_s": (self_s("models.build_model"), "s"),
        "models.toy_converged_truncation.self_s": (self_s("models.toy_converged_truncation"), "s"),
        "models.truncation.rungs_per_cell": (len(rung_sizes) / cells, "1/cell"),
        "models.truncation.max_n": (max(rung_sizes, default=0), "dim"),
        "linalg.eigh.calls": (count("linalg.eigh"), "count"),
        "linalg.eigh.per_cell": (count("linalg.eigh") / cells, "1/cell"),
        "linalg.eigh.self_s": (self_s("linalg.eigh"), "s"),
        "linalg.eigh.n3_sum": (sum(d ** 3 for d in eigh_dims), "dim3_computed"),
        "linalg.eigh.max_dim": (max(eigh_dims, default=0), "dim"),
        "linalg.psd_sqrt.calls": (count("linalg.psd_sqrt"), "count"),
        "linalg.psd_sqrt.self_s": (self_s("linalg.psd_sqrt"), "s"),
        "linalg.fidelity.calls": (count("linalg.fidelity"), "count"),
        "linalg.fidelity.self_s": (self_s("linalg.fidelity"), "s"),
        "thermal.gibbs.self_s": (self_s("thermal.gibbs"), "s"),
        "thermal.density_matrix.calls": (count("thermal.density_matrix"), "count"),
        "thermal.density_matrix.self_s": (self_s("thermal.density_matrix"), "s"),
        "thermal.thermal_expectation.self_s": (self_s("thermal.thermal_expectation"), "s"),
        "fisher.qfi_spectral.self_s": (self_s("fisher.qfi_spectral"), "s"),
        "fisher.qfi_fidelity_fd.self_s": (self_s("fisher.qfi_fidelity_fd"), "s"),
        "fisher.qfi_fidelity_fd.eigh_per_call": (per_estimator_call("fisher.qfi_fidelity_fd"), "1/call"),
        "fisher.cfi_projective.self_s": (self_s("fisher.cfi_projective"), "s"),
        "fisher.cfi_projective.eigh_per_call": (per_estimator_call("fisher.cfi_projective"), "1/call"),
        "fisher.fi_error_propagation.self_s": (self_s("fisher.fi_error_propagation"), "s"),
        "fisher.fi_error_propagation.eigh_per_call": (
            per_estimator_call("fisher.fi_error_propagation"), "1/call"
        ),
        "sweep.run_sweep.self_s": (self_s("sweep.run_sweep"), "s"),
        "sweep.measurement_observable.calls": (count("sweep.measurement_observable"), "count"),
        "sweep.measurement_observable.self_s": (self_s("sweep.measurement_observable"), "s"),
        "sweep.rows_to_csv.self_s": (self_s("sweep.rows_to_csv"), "s"),
    }
