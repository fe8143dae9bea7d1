"""Exact counterdiabatic driving for finite 1D tight-binding chains.

Closed-form eigenstates of the open SSH chain, rate-free counterdiabatic
generator matrices built from analytic derivatives, a midpoint-exponential
propagator for edge-state transfer, and dense spectral diagnostics. The
``cdlattice`` CLI exposes each experiment as a CSV-emitting subcommand. The
package namespace re-exports what the CLI and the acceptance gate use; the
rest lives in the submodules.
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    DomainError,
    InvalidSpecError,
    NotHermitianError,
    UnsupportedPathError,
)
from .lattice import build_hamiltonian, hermiticity_residual, ssh_spec
from .states import (
    basis_and_derivatives,
    d_norm,
    edge_alpha,
    eigen_residual,
    full_basis,
    in_gap_record,
    ssh_bloch,
    ssh_dalpha,
    ssh_dbloch,
    ssh_energy,
)
from .cd import full_cd, targeted_cd
from .dynamics import Protocol, band_limit, convergence_sweep, default_dt, propagate
from .spectral import (
    diagonal_norm_ratios,
    eigh,
    frobenius_norm,
    gap_to_zero_mode,
    spectrum_sweep,
    ssh_gap_formula,
)

__all__ = [
    "ConvergenceError",
    "DomainError",
    "InvalidSpecError",
    "NotHermitianError",
    "Protocol",
    "UnsupportedPathError",
    "band_limit",
    "basis_and_derivatives",
    "build_hamiltonian",
    "convergence_sweep",
    "d_norm",
    "default_dt",
    "diagonal_norm_ratios",
    "edge_alpha",
    "eigen_residual",
    "eigh",
    "frobenius_norm",
    "full_basis",
    "full_cd",
    "gap_to_zero_mode",
    "hermiticity_residual",
    "in_gap_record",
    "propagate",
    "spectrum_sweep",
    "ssh_bloch",
    "ssh_dalpha",
    "ssh_dbloch",
    "ssh_energy",
    "ssh_gap_formula",
    "ssh_spec",
    "targeted_cd",
]
