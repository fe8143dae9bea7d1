"""Exact counterdiabatic generators for the SSH chain, stored as three real vectors.

The band states of A = i sum_n |d_lambda psi_n><psi_n| are real standing waves
whose derivatives live, like the zero mode z (phase i^x), on the zero-mode
sublattice ``::2``. So A = i K with K real and antisymmetric on its n sites,

    K_ab = -1/2 sign(a - b) t[|a - b|] + 1/2 (p_a q_b - q_a p_b),

where q is the zero mode's real profile on that sublattice (z = i^(x0+1) q) and
p its projected lambda-derivative, and the wall images of the band pairs sum to

    t[m] = sigma (2 / (1 - lambda^2)) [(-r)^m - (-r)^(N-m)] / (1 - r^N),

log r = -|log alpha^2| = log((1 - |lambda|)/(1 + |lambda|)), N = L - x0 and sigma
the zero-mode sublattice sign; at lambda = 0 it is 2 sigma (-1)^m (1 - 2m/N). q, p
and log alpha^2 come from one evaluation, ``states._zero_mode``. The full CD term
thus decays by r every two sites. The targeted generator has t = 0 and p
doubled. No band state of ``states`` is read here, so they stay an independent
check.

Each closed form broadcasts over an array of lambda, one row per entry, bit
for bit as the single-lambda call: ``generator_blocks`` builds the blocks K of
a ramp's chunk of midpoints in one pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularityError
from .lattice import LatticeSpec, _col, _first_false
from .states import _zero_mode, zero_mode_sublattice_sign

_STRUCTURE_TOL = 1e-10


def _kernel(t: np.ndarray) -> np.ndarray:
    """The Toeplitz part of K at a - b = -(n-1) .. n-1, one row per row of t."""
    zero = np.zeros(t.shape[:-1] + (1,))
    return 0.5 * np.concatenate((t[..., :0:-1], zero, -t[..., 1:]), axis=-1)


@functools.lru_cache(maxsize=16)
def _toeplitz_index(n: int) -> np.ndarray:
    """Index a - b + n - 1 of the kernel entry at row a, column b of K, read-only."""
    a = np.arange(n)
    index = a[:, None] - a + (n - 1)
    index.setflags(write=False)
    return index


def _block(t: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """K from its vectors, one n x n block per row of (t, p, q)."""
    half = p[..., None] * (0.5 * q[..., None, :])
    block = half - half.mT
    del half  # a ramp's chunk of blocks then holds at most two blocks per lambda at once
    if t.any():  # the targeted generator has no Toeplitz part
        block += _kernel(t)[..., _toeplitz_index(q.shape[-1])]
    return block


@dataclass(frozen=True)
class GaugePotentialMatrix:
    """CD generator A = i K, stored as the read-only vectors (t, p, q) of K;
    ``block`` builds K and ``matrix`` the dense M x M matrix i K on every read."""

    t: np.ndarray
    p: np.ndarray
    q: np.ndarray

    @property
    def block(self) -> np.ndarray:
        return _block(self.t, self.p, self.q)

    @property
    def matrix(self) -> np.ndarray:
        n_sites = 2 * len(self.q) - 1
        matrix = np.zeros((n_sites, n_sites), dtype=complex)
        matrix.imag[::2, ::2] = self.block
        return matrix

    @property
    def frobenius(self) -> float:
        """||A||_F = ||K||_F from the Toeplitz and rank-2 parts and their overlap."""
        t, p, q, n = self.t[1:], self.p, self.q, len(self.q)
        lags = np.correlate(p, q, "full")  # lags[n - 1 + d] = sum_a p[a + d] q[a]
        return math.sqrt(0.5 * np.dot(np.arange(n - 1, 0, -1), t * t)
                         + np.dot(t, lags[n - 2::-1] - lags[n:])
                         + 0.5 * (np.dot(p, p) * np.dot(q, q) - np.dot(p, q) ** 2))


@functools.lru_cache(maxsize=16)
def _toeplitz_geometry(n: int, n_walls: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """lambda-independent parts of t: m, N - 2m and the lambda = 0 ratio 1 - 2m/N, read-only."""
    m = np.arange(n)
    parts = (m, n_walls - 2 * m, 1.0 - 2.0 * m / n_walls)
    for part in parts:
        part.setflags(write=False)
    return parts


def _toeplitz(spec: LatticeSpec, lam, log_a2) -> np.ndarray:
    """t of the module docstring from log alpha^2, one row per entry of an array ``lam``."""
    n_walls = spec.L - spec.x0
    m, span, limit = _toeplitz_geometry((spec.n_sites + 1) // 2, n_walls)
    log_r = -abs(log_a2)
    # t[m] = scale (-r)^m (1 - r^(N-2m)) / (1 - r^N) for even N, accurate as lambda -> 0
    ratio = np.empty(getattr(lam, "shape", ()) + m.shape)
    ratio[...] = limit
    np.divide(np.expm1(span * _col(log_r)), _col(np.expm1(n_walls * log_r)),
              out=ratio, where=_col(lam != 0.0))
    scale = 2.0 * zero_mode_sublattice_sign(spec) / (1.0 - lam * lam)
    return _col(scale) * np.power(-_col(np.exp(log_r)), m) * ratio


def _targeted(p: np.ndarray, q: np.ndarray) -> tuple:
    """(t, p, q) of the targeted generator: no Toeplitz part and p doubled."""
    return np.zeros_like(q), 2.0 * p, q


def _vectors(spec: LatticeSpec, lam, mode: str) -> tuple:
    """(t, p, q) of the full or targeted generator, one row per entry of an array ``lam``,
    each checked to be finite."""
    q, p, _, log_a2, _ = _zero_mode(spec, lam)  # guards the spec first
    t, p, q = (_toeplitz(spec, lam, log_a2), p, q) if mode == "full" else _targeted(p, q)
    # a non-finite entry leaves its dot product non-finite, which fails |x| < inf
    if (i := _first_false(abs(np.vecdot(t, t) + np.vecdot(p, q)) < math.inf)) is not None:
        raise SingularityError(f"non-finite generator entries at lambda={np.ravel(lam)[i]}")
    return t, p, q


def _check_action(action: np.ndarray, p: np.ndarray) -> None:
    """K q = p, the sublattice form of A|z> = i|dz>, given the action K q; one row per row of p."""
    residual, size = np.abs(action - p).max(axis=-1), np.abs(p).max(axis=-1)
    if (i := _first_false(~(residual > _STRUCTURE_TOL * size))) is not None:
        raise ArithmeticError(f"zero-mode action residual |K z - dz| = {np.ravel(residual)[i]:.3e} "
                              f"exceeds {_STRUCTURE_TOL} x {np.ravel(size)[i]:.3e}")


def _stored(t: np.ndarray, p: np.ndarray, q: np.ndarray) -> GaugePotentialMatrix:
    for vector in (t, p, q):
        vector.setflags(write=False)
    return GaugePotentialMatrix(t, p, q)


def full_cd(spec: LatticeSpec, lam: float) -> GaugePotentialMatrix:
    """Rate-free CD generator countering transitions between all M states."""
    t, p, q = _vectors(spec, lam, "full")
    _check_action(np.convolve(_kernel(t), q, "valid")
                  + 0.5 * (p * np.dot(q, q) - q * np.dot(p, q)), p)
    return _stored(t, p, q)


def targeted_cd(spec: LatticeSpec, lam: float) -> GaugePotentialMatrix:
    """Rate-free CD generator countering transitions out of the in-gap state (rank <= 2)."""
    return _stored(*_vectors(spec, lam, "targeted"))


def full_and_targeted_cd(spec: LatticeSpec, lam: float) -> tuple[GaugePotentialMatrix, ...]:
    """The full and the targeted generator at one lambda from a single zero-mode evaluation."""
    full = full_cd(spec, lam)
    return full, _stored(*_targeted(full.p, full.q))


def generator_blocks(spec: LatticeSpec, lam: np.ndarray, mode: str) -> np.ndarray:
    """K of the full or targeted generator at each entry of the 1-D array ``lam``.

    ``spec`` is the chain built on the same array. Shape (len(lam), n, n);
    each block is bit-identical to ``.block`` of the single-lambda call, and
    every check of ``full_cd`` and ``targeted_cd`` runs on every row.
    """
    t, p, q = _vectors(spec, lam, mode)
    block = _block(t, p, q)
    if mode == "full":  # the blocks are built anyway, so K q comes from them
        _check_action(np.matmul(block, q[..., None])[..., 0], p)
    return block
