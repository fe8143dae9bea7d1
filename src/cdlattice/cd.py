"""Exact counterdiabatic generator matrices for the SSH chain.

The rate-free generator is

    A = i * sum_alpha |d_lambda psi_alpha><psi_alpha|

assembled from the closed-form states and derivatives of ``states``; the
propagator multiplies it by the instantaneous ramp rate. Every state
derivative is taken in the parallel-transport gauge (<psi | d psi> = 0),
which makes the generator's diagonal vanish identically and keeps it
Hermitian by basis completeness. The full generator sums all M states; the
targeted generator keeps only the in-gap edge state, explicitly Hermitized
as i(theta - theta^dagger).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularityError
from .lattice import LatticeSpec, hermiticity_residual, hermitize
from .states import _zero_mode_and_derivative, basis_and_derivatives

_STRUCTURE_TOL = 1e-10


@dataclass(frozen=True)
class GaugePotentialMatrix:
    """Dense Hermitian CD generator with its assembly metadata."""

    matrix: np.ndarray
    mode: str
    lam: float

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex).copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if self.mode not in ("full", "targeted"):
            raise SingularityError(f"unknown CD mode {self.mode!r}")


def _finalize_generator(raw: np.ndarray, mode: str, lam: float) -> GaugePotentialMatrix:
    scale = float(np.max(np.abs(raw))) or 1.0
    residual = hermiticity_residual(raw)
    if residual > _STRUCTURE_TOL * scale:
        raise ArithmeticError(
            f"anti-Hermitian residual {residual:.3e} exceeds {_STRUCTURE_TOL} x {scale:.3e}"
        )
    matrix = hermitize(raw)
    diag_max = float(np.max(np.abs(np.diag(matrix))))
    if diag_max > _STRUCTURE_TOL * scale:
        raise ArithmeticError(
            f"generator diagonal {diag_max:.3e} exceeds {_STRUCTURE_TOL} x {scale:.3e}"
        )
    np.fill_diagonal(matrix, 0.0)
    if not np.all(np.isfinite(matrix)):
        raise SingularityError(f"non-finite generator entries at lambda={lam}")
    return GaugePotentialMatrix(matrix=matrix, mode=mode, lam=lam)


def _basis_and_derivatives(spec: LatticeSpec, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """State and derivative rows of the snapshot (also timed by benchmarks/reference.py)."""
    _, states, derivatives, _ = basis_and_derivatives(spec, lam)
    return states, derivatives


def full_cd(spec: LatticeSpec, lam: float) -> GaugePotentialMatrix:
    """Rate-free CD generator countering transitions between all M states."""
    states, derivatives = _basis_and_derivatives(spec, lam)
    raw = 1j * (derivatives.T @ states.conj())
    return _finalize_generator(raw, "full", lam)


def targeted_cd(spec: LatticeSpec, lam: float) -> GaugePotentialMatrix:
    """Rate-free CD generator countering transitions out of the in-gap state.

    i(theta - theta^dagger) for the single targeted state: exactly Hermitian
    by construction and of rank at most 2.
    """
    psi, dpsi = _zero_mode_and_derivative(spec, lam)
    theta = np.outer(dpsi, psi.conj())
    raw = 1j * (theta - theta.conj().T)
    return _finalize_generator(raw, "targeted", lam)
