"""Lattice data model and dense Hamiltonians for open 1D tight-binding chains.

A chain lives between two hard walls at sites ``x0`` and ``L`` where the wave
function vanishes; the physical sites are x = x0+1 .. L-1. Hoppings are stored
as the literal coefficient of the creation-at-x / annihilation-at-(x+1) term,
so the SSH constructor reproduces alternating bonds 1 - lambda*(-1)^x.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError


@dataclass(frozen=True)
class LatticeSpec:
    """Open-boundary chain between hard walls at ``x0`` and ``L``.

    Parameters
    ----------
    x0, L : int
        Wall sites. Physical sites are x0+1 .. L-1, so M = L - x0 - 1.
    t : array_like of complex, shape (M-1,)
        ``t[i]`` couples site x0+1+i to x0+2+i (upper off-diagonal entry).
    mu : array_like of float, shape (M,)
        On-site energies for sites x0+1 .. L-1.
    tau : int
        Unit-cell period of the crystalline pattern.
    """

    x0: int
    L: int
    t: np.ndarray
    mu: np.ndarray
    tau: int = 1

    def __post_init__(self):
        m = self.L - self.x0 - 1
        if m < 2:
            raise InvalidSpecError(f"need at least 2 sites, got M={m}")
        t = np.asarray(self.t, dtype=complex).copy()
        mu = np.asarray(self.mu, dtype=float).copy()
        if t.shape != (m - 1,):
            raise InvalidSpecError(f"expected {m - 1} bonds, got shape {t.shape}")
        if mu.shape != (m,):
            raise InvalidSpecError(f"expected {m} on-site energies, got shape {mu.shape}")
        if self.tau < 1:
            raise InvalidSpecError("unit-cell period must be a positive integer")
        t.setflags(write=False)
        mu.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "mu", mu)

    @property
    def n_sites(self) -> int:
        return self.L - self.x0 - 1

    def sites(self) -> np.ndarray:
        """Site labels x0+1 .. L-1 in matrix-row order."""
        return np.arange(self.x0 + 1, self.L)

    @property
    def is_commensurate(self) -> bool:
        """Whole number of unit cells between the walls, so the Bloch
        functions repeat: phi(L) = phi(x0)."""
        return (self.L - self.x0) % self.tau == 0


def ssh_spec(L: int, x0: int, lam: float) -> LatticeSpec:
    """SSH chain: alternating bonds t_x = 1 - lam*(-1)^x, no on-site term.

    ``2*lam`` is the difference between the two alternating bond strengths.
    |lam| >= 1 collapses one bond and is allowed but flagged; the in-gap
    solvers reject it downstream.
    """
    m = L - x0 - 1
    if m < 2:
        raise InvalidSpecError(f"need at least 2 sites, got M={m}")
    if abs(lam) >= 1:
        warnings.warn(
            f"|lambda|={abs(lam)} >= 1: a bond vanishes or flips sign; "
            "the two-band model is not gapped here",
            stacklevel=2,
        )
    bonds = np.arange(x0 + 1, L - 1)
    t = 1.0 - lam * np.where(bonds % 2 == 0, 1.0, -1.0)
    return LatticeSpec(x0=x0, L=L, t=t.astype(complex), mu=np.zeros(m), tau=2)


def build_hamiltonian(spec: LatticeSpec) -> np.ndarray:
    """Dense tridiagonal Hamiltonian; walls excluded (psi(x0)=psi(L)=0)."""
    m = spec.n_sites
    h = np.zeros((m, m), dtype=complex)
    h[np.arange(m), np.arange(m)] = spec.mu
    rows = np.arange(m - 1)
    h[rows, rows + 1] = spec.t
    h[rows + 1, rows] = np.conj(spec.t)
    return h


def hermiticity_residual(m: np.ndarray) -> float:
    """Max-norm of m - m^dagger."""
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
