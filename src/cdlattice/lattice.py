"""The open SSH chain and its dense Hamiltonian.

A chain lives between two hard walls at sites ``x0`` and ``L`` where the wave
function vanishes; the physical sites are x = x0+1 .. L-1. The chain is the
three numbers (L, x0, lambda): its bonds 1 - lambda*(-1)^x, the literal
coefficient of the creation-at-x / annihilation-at-(x+1) term, and its zero
on-site energies are built on read. lambda may be an array of couplings, one
row of bonds each. The closed forms downstream broadcast the same way, with
numpy ufuncs alone: these round one value as each entry of an array, so a
ramp's row is bit-identical to its single-lambda call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError


def _col(x):
    """An array of per-lambda values with a trailing axis, so it broadcasts against a
    per-site row; a single value already does."""
    return x[..., None] if getattr(x, "ndim", 0) else x


def _first_false(ok):
    """Index of the first False entry of ``ok``, a bool or a bool array, or None."""
    if getattr(ok, "ndim", 0):
        return None if ok.all() else int(ok.argmin())
    return None if ok else 0


@dataclass(frozen=True)
class LatticeSpec:
    """SSH chain between hard walls at ``x0`` and ``L`` at coupling ``lam``.

    Physical sites are x0+1 .. L-1, so M = L - x0 - 1.
    """

    x0: int
    L: int
    lam: float

    @property
    def n_sites(self) -> int:
        return self.L - self.x0 - 1

    def sites(self) -> np.ndarray:
        """Site labels x0+1 .. L-1 in matrix-row order."""
        return np.arange(self.x0 + 1, self.L)

    @property
    def t(self) -> np.ndarray:
        """Real bonds, shape (M-1,): ``t[i]`` couples site x0+1+i to x0+2+i.

        With an array of couplings in ``lam`` there is one row of bonds per
        coupling, shape (len(lam), M-1).
        """
        bonds = np.arange(self.x0 + 1, self.L - 1)
        return 1.0 - _col(self.lam) * np.where(bonds % 2 == 0, 1.0, -1.0)

    @property
    def mu(self) -> np.ndarray:
        """On-site energies, shape (M,): the SSH chain has none."""
        return np.zeros(self.n_sites)


def ssh_spec(L: int, x0: int, lam: float) -> LatticeSpec:
    """SSH chain: alternating bonds t_x = 1 - lam*(-1)^x, no on-site term.

    ``2*lam`` is the difference between the two alternating bond strengths.
    |lam| >= 1 collapses one bond; the in-gap solvers reject it downstream.
    """
    if L - x0 - 1 < 2:
        raise InvalidSpecError(f"need at least 2 sites, got M={L - x0 - 1}")
    return LatticeSpec(x0=x0, L=L, lam=lam)


def build_hamiltonian(spec: LatticeSpec) -> np.ndarray:
    """Dense tridiagonal Hamiltonian; walls excluded (psi(x0)=psi(L)=0)."""
    m = spec.n_sites
    h = np.zeros((m, m), dtype=complex)
    rows = np.arange(m - 1)
    h[rows, rows + 1] = h[rows + 1, rows] = spec.t
    return h


def hermiticity_residual(m: np.ndarray) -> float:
    """Max-norm of m - m^dagger."""
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
