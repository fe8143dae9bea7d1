"""Exact counterdiabatic driving for finite 1D tight-binding chains.

Closed-form eigenstates of open crystalline chains (SSH closed forms
included), rate-free counterdiabatic generator matrices built from analytic
derivatives, a midpoint-exponential propagator for edge-state transfer, and
dense spectral diagnostics. The ``cdlattice`` CLI exposes each experiment as
a CSV-emitting subcommand.
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    DomainError,
    InvalidSpecError,
    NotHermitianError,
    SingularityError,
    UnsupportedPathError,
)
from .lattice import LatticeSpec, build_hamiltonian, hermiticity_residual, hermitize, ssh_spec
from .states import (
    BlochPair,
    EigenStateRecord,
    assemble_state,
    basis_and_derivatives,
    bulk_quasimomenta,
    d_norm,
    edge_alpha,
    eigen_residual,
    extended_amplitude,
    full_basis,
    generic_bloch,
    in_gap_record,
    quantization_residual,
    ssh_bloch,
    ssh_dalpha,
    ssh_dbloch,
    ssh_energy,
    ssh_lambda_of,
    zero_mode_internal_alpha,
)
from .cd import GaugePotentialMatrix, full_cd, targeted_cd
from .dynamics import (
    EvolutionResult,
    Protocol,
    band_limit,
    convergence_sweep,
    default_dt,
    fidelity,
    propagate,
)
from .spectral import (
    SpectrumTable,
    diagonal_norm_ratio,
    eigh,
    frobenius_norm,
    gap_to_zero_mode,
    spectrum_sweep,
    ssh_gap_formula,
)

__all__ = [
    "BlochPair",
    "ConvergenceError",
    "DomainError",
    "EigenStateRecord",
    "EvolutionResult",
    "GaugePotentialMatrix",
    "InvalidSpecError",
    "LatticeSpec",
    "NotHermitianError",
    "Protocol",
    "SingularityError",
    "SpectrumTable",
    "UnsupportedPathError",
    "assemble_state",
    "band_limit",
    "basis_and_derivatives",
    "build_hamiltonian",
    "bulk_quasimomenta",
    "convergence_sweep",
    "d_norm",
    "default_dt",
    "diagonal_norm_ratio",
    "edge_alpha",
    "eigen_residual",
    "eigh",
    "extended_amplitude",
    "fidelity",
    "frobenius_norm",
    "full_basis",
    "full_cd",
    "gap_to_zero_mode",
    "generic_bloch",
    "hermiticity_residual",
    "hermitize",
    "in_gap_record",
    "propagate",
    "quantization_residual",
    "spectrum_sweep",
    "ssh_bloch",
    "ssh_dalpha",
    "ssh_dbloch",
    "ssh_energy",
    "ssh_gap_formula",
    "ssh_lambda_of",
    "ssh_spec",
    "targeted_cd",
    "zero_mode_internal_alpha",
]
