"""Exact counterdiabatic generators for the SSH chain, stored as three real vectors.

The band states of A = i sum_n |d_lambda psi_n><psi_n| are real standing waves
whose derivatives live, like the zero mode z (phase i^x), on the zero-mode
sublattice ``::2``. So A = i K with K real and antisymmetric on its n sites,

    K_ab = -1/2 sign(a - b) t[|a - b|] + 1/2 (p_a q_b - q_a p_b),

where q and p are z and its projected derivative dz with the first site's phase
i^(x0+1) divided out, and the wall images of the band pairs sum to

    t[m] = sigma (2 / (1 - lambda^2)) [(-r)^m - (-r)^(N-m)] / (1 - r^N),

r = (1 - |lambda|)/(1 + |lambda|), N = L - x0 and sigma the zero-mode sublattice
sign; at lambda = 0 it is 2 sigma (-1)^m (1 - 2m/N). The full CD term thus decays
by r every two sites. The targeted generator has t = 0 and p doubled. No band
state of ``states`` is read here, so they stay an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularityError
from .lattice import LatticeSpec
from .states import _zero_mode_factors, zero_mode_sublattice_sign

_STRUCTURE_TOL = 1e-10


@dataclass(frozen=True)
class GaugePotentialMatrix:
    """CD generator A = i K, stored as the read-only vectors (t, p, q) of K;
    ``block`` builds K and ``matrix`` the dense M x M matrix i K on every read."""

    t: np.ndarray
    p: np.ndarray
    q: np.ndarray

    def _kernel(self) -> np.ndarray:
        """The Toeplitz part of K at a - b = -(n-1) .. n-1."""
        return 0.5 * np.concatenate((self.t[:0:-1], (0.0,), -self.t[1:]))

    @property
    def block(self) -> np.ndarray:
        half = self.p[:, None] * (0.5 * self.q)
        block = half - half.T
        if self.t.any():  # the targeted generator has no Toeplitz part
            a = np.arange(len(self.q))
            block += self._kernel()[a[:, None] - a + (len(a) - 1)]
        return block

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


def _generator(t: np.ndarray, p: np.ndarray, q: np.ndarray, lam: float) -> GaugePotentialMatrix:
    """Check that (t, p, q) are finite and store them read-only."""
    # a non-finite entry leaves its dot product non-finite
    if not math.isfinite(np.dot(t, t) + np.dot(p, q)):
        raise SingularityError(f"non-finite generator entries at lambda={lam}")
    for vector in (t, p, q):
        vector.setflags(write=False)
    return GaugePotentialMatrix(t, p, q)


def full_cd(spec: LatticeSpec, lam: float) -> GaugePotentialMatrix:
    """Rate-free CD generator countering transitions between all M states."""
    _, dz, z = _zero_mode_factors(spec, lam)  # guards the spec first
    m = np.arange(len(z))
    n_walls = spec.L - spec.x0
    log_r = math.log1p(-abs(lam)) - math.log1p(abs(lam))
    # t[m] = scale (-r)^m (1 - r^(N-2m)) / (1 - r^N) for even N, accurate as lambda -> 0
    ratio = (1.0 - 2.0 * m / n_walls if lam == 0.0
             else np.expm1((n_walls - 2 * m) * log_r) / math.expm1(n_walls * log_r))
    scale = 2.0 * zero_mode_sublattice_sign(spec) / (1.0 - lam * lam)
    gen = _generator(scale * np.power(-math.exp(log_r), m) * ratio, dz, z, lam)
    # checked by K z = dz, the sublattice form of A|z> = i|dz>
    action = np.convolve(gen._kernel(), z, "valid") + 0.5 * (dz * np.dot(z, z) - z * np.dot(dz, z))
    residual, size = float(np.max(np.abs(action - dz))), float(np.max(np.abs(dz)))
    if residual > _STRUCTURE_TOL * size:
        raise ArithmeticError(f"zero-mode action residual |K z - dz| = {residual:.3e} exceeds "
                              f"{_STRUCTURE_TOL} x {size:.3e}")
    return gen


def targeted_cd(spec: LatticeSpec, lam: float) -> GaugePotentialMatrix:
    """Rate-free CD generator countering transitions out of the in-gap state (rank <= 2)."""
    _, dz, z = _zero_mode_factors(spec, lam)
    return _generator(np.zeros_like(z), 2.0 * dz, z, lam)
