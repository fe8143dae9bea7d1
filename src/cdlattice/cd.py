"""Exact counterdiabatic generators for the SSH chain, stored as real blocks.

The rate-free generator A = i * sum_n |d_lambda psi_n><psi_n| is built from
the closed forms of ``states``; the propagator multiplies it by the ramp
rate. The band states are real standing waves in the parallel-transport
gauge whose derivatives live on the zero-mode sublattice (rows ``::2``), and
band 1 is band 0 with its odd sites negated, so the two bands cancel in every
column off that sublattice. The zero mode z lives there too, with the phase
i^x, so d z z^dagger is real. Hence A = i K, with K real and antisymmetric on
the (M+1)/2 zero-mode sites: K is all a generator stores. The full generator
sums all M states into K; the targeted one keeps the in-gap state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularityError
from .lattice import LatticeSpec
from .states import _band_phases, _zero_mode_and_derivative

_STRUCTURE_TOL = 1e-10


@dataclass(frozen=True)
class GaugePotentialMatrix:
    """CD generator A = i K, stored only as the read-only real block K on rows and
    columns ``::2``; ``matrix`` builds the dense M x M matrix i K on every read."""

    block: np.ndarray

    @property
    def matrix(self) -> np.ndarray:
        n_sites = 2 * len(self.block) - 1
        matrix = np.zeros((n_sites, n_sites), dtype=complex)
        matrix.imag[::2, ::2] = self.block
        return matrix


def _generator(block: np.ndarray, lam: float) -> GaugePotentialMatrix:
    """Check that K is finite and store it read-only."""
    if not np.all(np.isfinite(block)):
        raise SingularityError(f"non-finite generator entries at lambda={lam}")
    block.setflags(write=False)
    return GaugePotentialMatrix(block)


def _zero_mode_block(spec: LatticeSpec, lam: float) -> np.ndarray:
    """theta = Re(dz z*^T) of the zero mode z on its sublattice."""
    psi, dpsi = _zero_mode_and_derivative(spec, lam)
    return np.outer(dpsi[::2], psi[::2].conj()).real


def full_cd(spec: LatticeSpec, lam: float) -> GaugePotentialMatrix:
    """Rate-free CD generator countering transitions between all M states."""
    zero_block = _zero_mode_block(spec, lam)  # guards the spec before any band work
    # a band pair adds 2 (-phi_k') cos(theta - phi_k) sin(theta - phi_k)^T / ((L-x0)/2)
    _, sin_shift, cos_shift, d_phi = _band_phases(spec, lam)
    block = ((-4.0 / (spec.L - spec.x0)) * d_phi * cos_shift).T @ sin_shift + zero_block
    # a non-finite K has an inf or NaN scale, so it passes here and _generator rejects it
    scale = float(np.max(np.abs(block))) or 1.0
    residual = float(np.max(np.abs(block + block.T)))
    if residual > _STRUCTURE_TOL * scale:
        raise ArithmeticError(
            f"anti-Hermitian residual {residual:.3e} exceeds {_STRUCTURE_TOL} x {scale:.3e}"
        )
    return _generator((block - block.T) / 2, lam)


def targeted_cd(spec: LatticeSpec, lam: float) -> GaugePotentialMatrix:
    """Rate-free CD generator countering transitions out of the in-gap state (rank <= 2)."""
    # theta - theta^T is exactly antisymmetric in IEEE arithmetic: only finiteness is checked
    theta = _zero_mode_block(spec, lam)
    return _generator(theta - theta.T, lam)
