"""Dense Hermitian eigensolving, gap measures, CD-matrix diagnostics, and the
targeted CD spectrum from a secular equation, with no eigensolver."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import cd, dynamics
from .errors import InvalidSpecError, NotHermitianError, SingularityError
from .lattice import _first_false, build_hamiltonian, hermiticity_residual, ssh_spec
from .states import _band_phases, _geometry, _require_zero_mode, _zero_mode

_ROUNDOFF = 8 * np.finfo(float).eps


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


def ssh_gap_formula(lam: float, m_sites: int) -> float:
    """Closed-form bare gap of the odd commensurate chain of ``m_sites`` sites, at any wall."""
    c = math.cos((m_sites - 1) * math.pi / (m_sites + 1))
    return math.sqrt(2.0) * math.sqrt(1.0 + lam**2 + (1.0 - lam**2) * c)


def frobenius_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(m)))


def diagonal_norm_ratios(m: np.ndarray) -> np.ndarray:
    """Fraction of the Frobenius norm kept by band-limiting ``m`` to d diagonals, d = 0..M-1.

    |m|^2 is binned by diagonal distance |i - j| in one pass; a zero matrix
    keeps all of its norm.
    """
    m = np.asarray(m)
    i, j = np.indices(m.shape, sparse=True)
    weights = np.bincount(np.abs(i - j).ravel(), weights=(np.abs(m) ** 2).ravel(),
                          minlength=m.shape[0])
    kept = np.sqrt(np.cumsum(weights))
    return kept / kept[-1] if kept[-1] > 0 else np.ones_like(kept)


def _secular_roots(d: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Eigenvalues of diag(d) + |v><v| for ascending d > 0 and z = v^2, one row each: the roots
    of f(u) = 1 + sum_k z_k / (d_k - u), all at once, by R.-C. Li's fixed-weight "middle way"
    (LAPACK Working Note 89, as in ``dlaed4``). Poles within roundoff pool their weights, and
    a weight below roundoff deflates: its d_k is a root."""
    n, total = d.shape[-1], z.sum(-1, keepdims=True)
    tol = _ROUNDOFF * np.maximum(d[:, -1:], total)
    start = np.diff(d, axis=-1, prepend=-np.inf) > tol
    run = np.cumsum(start, -1) + (n + 1) * np.arange(len(d))[:, None]
    z = np.where(np.roll(start, -1, -1), np.bincount(run.ravel(), z.ravel())[run], 0.0)
    keep = np.sqrt(z * total) > tol
    order, live = np.argsort(~keep, -1, kind="stable"), keep.sum(-1, keepdims=True)
    above = d[:, -1:] + 2 * total  # above every root
    d, z = np.take_along_axis(d, order, -1), np.take_along_axis(np.where(keep, z, 0.0), order, -1)
    # root i lies in (pole_i, pole_{i+1}): the kept poles, then weightless ones above the roots
    slot = np.arange(n + 1)
    poles = np.where(slot < live, np.pad(d, ((0, 0), (0, 1))), above * (1 + slot - live))
    weights = np.pad(z, ((0, 0), (0, 1)))[:, None, :]
    i, half = slot[:n], 0.5 * (poles[:, 1:] - poles[:, :n])
    # tau is measured from the nearer pole, which the sign of f at the midpoint picks
    left = (weights / (poles[:, None, :] - (poles[:, :n] + half)[..., None])).sum(-1) >= -1
    origin = np.where(left, poles[:, :n], poles[:, 1:])
    offsets = poles[:, None, :] - origin[..., None]
    tau, lo, hi = np.where(left, half, -half), np.where(left, 0.0, -half), np.where(left, half, 0.0)
    active = i < live
    for _ in range(100):  # bisection alone would reach roundoff in about 55
        delta = offsets - tau[..., None]  # d_k - u
        terms = weights / delta
        f = 1 + terms.sum(-1)
        active &= np.abs(f) > _ROUNDOFF * (1 + np.abs(terms).sum(-1))  # frozen once converged
        if not active.any():
            break
        lo, hi = np.where(active & (f < 0), tau, lo), np.where(active & (f > 0), tau, hi)
        # the model c + s/(d_i - x) + S/(d_j - x) matches f and the slopes of the sums over the
        # poles up to i and above it; its root x = u + eta solves c eta^2 - a eta + b = 0
        slopes = terms / delta
        d_psi = np.where(slot <= i[:, None], slopes, 0.0).sum(-1)
        d_phi, d_i, d_j = slopes.sum(-1) - d_psi, delta[:, i, i], delta[:, i, i + 1]
        c = f - d_i * d_psi - d_j * d_phi
        a, b = (d_i + d_j) * f - d_i * d_j * (d_psi + d_phi), d_i * d_j * f
        step = tau + 2 * b / (a + np.copysign(np.sqrt(np.abs(a * a - 4 * b * c)), a))
        step = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))  # else bisect
        tau = np.where(active, step, tau)
    return np.where(i < live, origin + tau, d)


def bare_spectra(L: int, x0: int, lambdas: np.ndarray) -> np.ndarray:
    """Sorted spectra of H, one row per coupling: -sigma(T), |A| - |B| zeros and sigma(T).

    H couples A = ``::2`` only to B = ``1::2``, through the real bond map T with
    (T w)_a = t_2a w_a + t_(2a-1) w_(a-1), so its spectrum is +- the singular values of T
    and each row is exactly symmetric. Chunks keep T within ``dynamics._CHUNK_BYTES``.
    """
    lambdas, n_a, n_b = np.asarray(lambdas, dtype=float), (L - x0) // 2, (L - x0 - 1) // 2
    rows, b = np.zeros((len(lambdas), n_a + n_b)), np.arange(n_b)
    chunk = max(1, dynamics._CHUNK_BYTES // (8 * n_a * max(n_b, 1)))  # ssh_spec rejects M < 2
    for start in range(0, len(lambdas), chunk):
        t = ssh_spec(L, x0, lambdas[start:start + chunk]).t
        bond_map = np.zeros((len(t), n_a, n_b))
        bond_map[:, b, b] = t[:, ::2]
        bond_map[:, b[:n_a - 1] + 1, b[:n_a - 1]] = t[:, 1::2]
        sigma = np.linalg.svd(bond_map, compute_uv=False)  # descending
        rows[start:start + chunk, :n_b] = 0.0 - sigma  # a zero sigma gives +0.0, not -0.0
        rows[start:start + chunk, n_a:] = sigma[:, ::-1]
    return rows


def targeted_spectra(L: int, x0: int, lambdas: np.ndarray, rate: float) -> np.ndarray:
    """Sorted spectra of H + rate * A_targeted, one row per coupling, each past the zero-mode guard.

    A_targeted = i(|dz><z| - |z><dz|) and <z|dz> = 0, so the spectrum is 0 and +-sqrt(u), u the
    eigenvalues of diag(E_k^2) + 2 rate^2 |w><w| with w_k = <k|dz> for k < pi/2, checked by
    Parseval: 2 sum_k |w_k|^2 = |dz|^2. Chunks of couplings keep the solver's
    (points x n_k x n_k) temporaries within ``dynamics._CHUNK_BYTES``.
    """
    geo = _geometry(L, x0)
    n_k = len(geo.alpha)
    rows = np.empty((len(lambdas), 2 * n_k + 1))
    chunk = max(1, dynamics._CHUNK_BYTES // (8 * n_k * n_k))
    for start in range(0, len(lambdas), chunk):
        lam = lambdas[start:start + chunk]
        _, p, *_ = _zero_mode(spec := ssh_spec(L, x0, lam), lam)
        energy, cos_phi, sin_phi, _ = (a[..., 0] for a in _band_phases(spec, lam[:, None, None]))
        p = p[:, None, :]  # a dot product per (coupling, k): rows do not depend on the chunk
        w = cos_phi * np.vecdot(p, geo.sin_theta[:, ::2]) - sin_phi * np.vecdot(p, geo.cos_theta)
        weight, norm2 = w * w * (2.0 / (L - x0)), np.vecdot(p, p)[:, 0]
        residual = np.abs(2 * weight.sum(-1) - norm2)
        if (j := _first_false(~(residual > cd._STRUCTURE_TOL * norm2))) is not None:
            raise ArithmeticError(f"Parseval residual {residual[j]:.3e} exceeds {cd._STRUCTURE_TOL}"
                                  f" x |dz|^2 = {norm2[j]:.3e} at lambda={lam[j]}")
        u = _secular_roots((energy * energy)[:, ::-1], 2 * rate * rate * weight[:, ::-1])
        roots, zero = np.sqrt(np.sort(u, -1)), np.zeros((len(lam), 1))
        rows[start:start + chunk] = np.concatenate((-roots[:, ::-1], zero, roots), -1)
    return rows


def spectrum_sweep(
    L: int,
    x0: int,
    lambdas: np.ndarray,
    mode: str = "bare",
    drive_rate: float = -1.8,
) -> SpectrumTable:
    """Sorted spectra of H(lambda), optionally with the rate-scaled CD term.

    The bare mode is ``bare_spectra``. CD modes use H + drive_rate * generator,
    matching a linear ramp at that constant rate; the targeted mode solves every
    regular point at once with ``targeted_spectra``, the full mode stays dense. Grid
    points that fail the zero-mode guard (|lambda| >= 1, where a bond has vanished) are
    skipped and flagged; lambda = 0 is a regular point and is computed. A failed structure
    check aborts the sweep.
    """
    if mode not in ("bare", "full-cd", "targeted-cd"):
        raise InvalidSpecError(f"unknown sweep mode {mode!r}")
    lambdas = np.asarray(lambdas, dtype=float)
    flags: list[str | None] = [None] * len(lambdas)
    if mode == "bare":  # the bare spectrum has no singular point
        return SpectrumTable(lambdas, bare_spectra(L, x0, lambdas), mode, flags)
    rows = np.full((len(lambdas), L - x0 - 1), np.nan)
    for i, lam in enumerate(map(float, lambdas)):
        spec = ssh_spec(L, x0, lam)
        try:
            if mode == "targeted-cd":  # the regular points are solved together below
                _require_zero_mode(spec, lam)
                continue
            h = build_hamiltonian(spec) + drive_rate * cd.full_cd(spec, lam).matrix
            rows[i] = np.linalg.eigvalsh(h)
        except SingularityError as exc:
            flags[i] = str(exc)
    if mode == "targeted-cd":
        regular = np.array([flag is None for flag in flags], dtype=bool)
        rows[regular] = targeted_spectra(L, x0, lambdas[regular], drive_rate)
    return SpectrumTable(lambdas=lambdas, eigenvalues=rows, mode=mode, flags=flags)
