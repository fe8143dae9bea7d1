"""Dense Hermitian eigensolving, gap measures, and CD-matrix diagnostics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cd import full_cd, targeted_cd
from .dynamics import band_limit
from .errors import InvalidSpecError, NotHermitianError
from .lattice import build_hamiltonian, hermiticity_residual, ssh_spec


@dataclass(frozen=True)
class SpectrumTable:
    """Sorted eigenvalues per ramp value; rows of NaN mark skipped points."""

    lambdas: np.ndarray
    eigenvalues: np.ndarray
    mode: str
    flags: list = field(default_factory=list)


def eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a residual-checked Hermitian matrix.

    Ascending eigenvalues, orthonormal eigenvector columns.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidSpecError(f"expected a square matrix, got {m.shape}")
    scale = float(np.max(np.abs(m))) or 1.0
    residual = hermiticity_residual(m)
    if residual > 1e-12 * scale:
        raise NotHermitianError(
            f"Hermiticity residual {residual:.3e} exceeds 1e-12 x {scale:.3e}"
        )
    return np.linalg.eigh(m)


def gap_to_zero_mode(eigenvalues: np.ndarray) -> float:
    """Distance from the eigenvalue nearest zero to its nearest neighbour."""
    w = np.asarray(eigenvalues, dtype=float)
    if w.size < 2:
        raise InvalidSpecError("need at least two eigenvalues to measure a gap")
    idx = int(np.argmin(np.abs(w)))
    others = np.delete(w, idx)
    return float(np.min(np.abs(others - w[idx])))


def ssh_gap_formula(lam: float, L: int) -> float:
    """Closed-form bare gap of the commensurate chain with walls at -1 and L."""
    c = math.cos((L - 1) * math.pi / (L + 1))
    return math.sqrt(2.0) * math.sqrt(1.0 + lam**2 + (1.0 - lam**2) * c)


def frobenius_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(m)))


def diagonal_norm_ratio(m: np.ndarray, d: int) -> float:
    """Fraction of the Frobenius norm kept when band-limiting to ``d`` diagonals."""
    total = frobenius_norm(m)
    if total == 0.0:
        return 1.0
    return frobenius_norm(band_limit(m, d)) / total


def spectrum_sweep(
    L: int,
    x0: int,
    lambdas: np.ndarray,
    mode: str = "bare",
    drive_rate: float = -1.8,
) -> SpectrumTable:
    """Sorted spectra of H(lambda), optionally with the rate-scaled CD term.

    CD modes use H + drive_rate * generator, matching a linear ramp at that
    constant rate. Grid points where the CD assembly is singular are skipped
    and flagged; grids containing 0 or +-1 exactly are rejected for CD modes.
    """
    if mode not in ("bare", "full-cd", "targeted-cd"):
        raise InvalidSpecError(f"unknown sweep mode {mode!r}")
    lambdas = np.asarray(lambdas, dtype=float)
    if mode != "bare":
        forbidden = np.isin(lambdas, (0.0, 1.0, -1.0))
        if np.any(forbidden):
            raise InvalidSpecError(
                "CD sweeps must avoid lambda in {0, +1, -1} exactly; "
                f"offending grid points at indices {np.flatnonzero(forbidden).tolist()}"
            )
    m_sites = L - x0 - 1
    rows = np.full((len(lambdas), m_sites), np.nan)
    flags: list[str | None] = [None] * len(lambdas)
    for i, lam in enumerate(lambdas):
        spec = ssh_spec(L, x0, float(lam))
        h = build_hamiltonian(spec)
        try:
            if mode == "full-cd":
                h = h + drive_rate * full_cd(spec, float(lam)).matrix
            elif mode == "targeted-cd":
                h = h + drive_rate * targeted_cd(spec, float(lam)).matrix
            rows[i] = np.linalg.eigvalsh(h)
        except ArithmeticError as exc:
            flags[i] = str(exc)
    return SpectrumTable(lambdas=lambdas, eigenvalues=rows, mode=mode, flags=flags)
