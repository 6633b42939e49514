"""Fisher information of thermal states near criticality.

Dense exact-diagonalization toolkit for quantifying how finite
temperature changes the achievable precision of frequency estimation in
critical models: a squeezing oscillator, a collective-spin model, and a
transverse-field Pauli ring.  hbar = k_B = 1 throughout; omega is the
unit of energy and every Fisher value is in 1/omega^2.
"""

from .analytic import (
    Prep,
    ToyParams,
    fi_errprop_closed,
    ising_ground_qfi,
    qfi_eigenstate,
    qfi_thermal_classical,
    qfi_thermal_quantum,
)
from .fisher import (
    FisherBreakdown,
    cfi_projective,
    fi_error_propagation,
    qfi_fidelity_fd,
    qfi_pure,
    qfi_spectral,
    quantum_term_by_offset,
)
from .linalg import Sectors, Spectrum, eigh, fidelity
from .models import ModelInstance, ModelKind, build_model, toy_converged_truncation
from .operators import make_chain_ops, make_dicke_ops, make_fock_ops
from .sweep import SweepConfig, SweepRow, make_config, run_sweep
from .thermal import ThermalState, beta_from_gap_ratio, density_matrix, gap, gibbs, thermal_expectation

__version__ = "0.1.0"

__all__ = [
    "FisherBreakdown",
    "ModelInstance",
    "ModelKind",
    "Prep",
    "Sectors",
    "Spectrum",
    "SweepConfig",
    "SweepRow",
    "ThermalState",
    "ToyParams",
    "beta_from_gap_ratio",
    "build_model",
    "cfi_projective",
    "density_matrix",
    "eigh",
    "fi_errprop_closed",
    "fi_error_propagation",
    "fidelity",
    "gap",
    "gibbs",
    "ising_ground_qfi",
    "make_chain_ops",
    "make_config",
    "make_dicke_ops",
    "make_fock_ops",
    "qfi_eigenstate",
    "qfi_fidelity_fd",
    "qfi_pure",
    "qfi_spectral",
    "qfi_thermal_classical",
    "qfi_thermal_quantum",
    "quantum_term_by_offset",
    "run_sweep",
    "thermal_expectation",
    "toy_converged_truncation",
]
