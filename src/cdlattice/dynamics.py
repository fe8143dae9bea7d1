"""Time evolution under the driven chain, with optional CD terms.

The propagator walks a linear ramp lambda(t) with the midpoint rule: each
step applies exp(-i h dt) to the state, h = H + rate * A being the
Hamiltonian frozen at the interval midpoint. The exponential acts through a
truncated Taylor series built from matrix-vector products alone (Al-Mohy &
Higham, SIAM J. Sci. Comput. 33, 2011): with theta = ||h||_2 dt bounded
from the matrix entries, the step is split into s = ceil(theta) substeps
and each keeps the fewest terms whose remainder bound
(theta/s)^(K+1)/(K+1)! e^(theta/s) is below the unit roundoff 2^-53.
Generators are rebuilt at every midpoint because the CD term varies sharply
near the gap closing.
State-transfer fidelity is measured against the analytic in-gap state at the
final ramp value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cd import full_cd, targeted_cd
from .errors import ConvergenceError, InvalidSpecError, SingularityError
from .lattice import LatticeSpec
from .states import in_gap_record

SpecBuilder = Callable[[float], LatticeSpec]

_UNIT_ROUNDOFF = 2.0**-53
# Largest theta = ||h|| * dt accepted for one step. Documented runs stay below
# 4; a step costs ceil(theta) substeps, so a mistyped --dt far above this
# would run for hours instead of failing.
_MAX_STEP_THETA = 1e3


@dataclass(frozen=True)
class Protocol:
    """Linear ramp lambda0 -> lambdaf over total_time, with CD options.

    ``band_limit`` keeps only generator entries within that many diagonals of
    the main one, modelling finite-range control.
    """

    lambda0: float
    lambdaf: float
    total_time: float
    cd_mode: str = "none"
    band_limit: int | None = None

    def __post_init__(self):
        if self.total_time <= 0:
            raise InvalidSpecError("total_time must be positive")
        if self.cd_mode not in ("none", "full", "targeted"):
            raise InvalidSpecError(f"unknown cd_mode {self.cd_mode!r}")

    def lam(self, t: float) -> float:
        s = t / self.total_time
        return self.lambda0 * (1.0 - s) + self.lambdaf * s

    @property
    def rate(self) -> float:
        return (self.lambdaf - self.lambda0) / self.total_time


@dataclass(frozen=True)
class EvolutionResult:
    final_state: np.ndarray
    fidelity: float
    norm_drift: float
    steps: int
    trace: list = field(default_factory=list)


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Squared overlap |<a, b>|^2 of two normalized states."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < 1e-12 or nb < 1e-12:
        raise InvalidSpecError("fidelity of a zero vector is undefined")
    # clamp the roundoff overshoot above 1 for normalized inputs
    return float(min(abs(np.vdot(a, b)) ** 2, 1.0))


def band_limit(m: np.ndarray, d: int) -> np.ndarray:
    """Zero all entries farther than ``d`` diagonals from the main one."""
    m = np.asarray(m)
    n = m.shape[0]
    if not 0 <= d <= n - 1:
        raise InvalidSpecError(f"band limit {d} outside 0..{n - 1}")
    i, j = np.indices(m.shape, sparse=True)
    return np.where(np.abs(i - j) <= d, m, 0.0)


def _bond_apply(bonds: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Product of the zero-diagonal tridiagonal matrix with both off-diagonals ``bonds`` and v."""
    w = np.zeros_like(v)
    w[:-1] = bonds * v[1:]
    w[1:] += bonds * v[:-1]
    return w


def _series_length(x: float) -> int:
    """Fewest Taylor terms k with remainder bound x^(k+1)/(k+1)! e^x <= 2^-53."""
    bound = math.exp(x)
    k = 0
    while True:
        bound *= x / (k + 1)
        if bound <= _UNIT_ROUNDOFF:
            return k
        k += 1


def _expm_apply(apply, psi: np.ndarray, theta: float) -> np.ndarray:
    """exp(op) psi by the scaled Taylor series, for ``apply`` the action of op.

    ``theta`` bounds the 2-norm of op. The step is split into s = ceil(theta)
    substeps exp(op/s), each of norm at most 1 and summed to the unit roundoff.
    """
    substeps = max(1, math.ceil(theta))
    terms = _series_length(theta / substeps)
    psi = psi.copy()
    for _ in range(substeps):
        term = psi
        for k in range(1, terms + 1):
            term = apply(term)
            term *= 1.0 / (k * substeps)
            psi += term
    return psi


def _step_operator(spec: LatticeSpec, gen: np.ndarray | None, rate: float, phase: complex):
    """Action of phase * h for h = H + rate * gen, and a bound on ||h||_2.

    Without a generator, H acts as its zero-diagonal stencil of the real
    bonds: O(M) and no BLAS call. With one, gen is scaled by rate and the
    bonds are added to both its off-diagonals in place (each step builds its
    own gen), so each series term costs one matvec; h is Hermitian, so its
    2-norm is at most its largest column abs-sum.
    """
    t = spec.t
    if gen is None:
        bonds = phase * t
        return (lambda v: _bond_apply(bonds, v)), float(2.0 * np.abs(t).max())
    h = np.multiply(gen, rate, out=gen)  # gen is C-ordered: the flat view below writes into h
    flat, m = h.reshape(-1), spec.n_sites
    flat[1 :: m + 1] += t
    flat[m :: m + 1] += t
    bound = np.abs(h).sum(axis=0).max()
    h *= phase
    return (lambda v: h @ v), float(bound)


def propagate(
    spec_builder: SpecBuilder,
    protocol: Protocol,
    dt: float,
    trace_every: int = 0,
) -> EvolutionResult:
    """Drive the in-gap state along the ramp and report the transfer fidelity.

    The ramp takes ceil(total_time / dt) equal steps; a midpoint may land on
    lambda = 0, a regular point of the odd chain. ``trace_every`` > 0
    records (t, lambda, fidelity to the instantaneous in-gap state, norm,
    energy expectation) every that many steps.
    """
    if dt <= 0:
        raise InvalidSpecError("dt must be positive")
    steps = math.ceil(protocol.total_time / dt)
    dt_eff = protocol.total_time / steps
    phase = -1j * dt_eff
    psi = in_gap_record(spec_builder(protocol.lambda0), protocol.lambda0).coeffs.copy()
    target = in_gap_record(spec_builder(protocol.lambdaf), protocol.lambdaf).coeffs
    trace = []
    for j in range(steps):
        s_mid = (j + 0.5) / steps
        lam_mid = protocol.lambda0 * (1.0 - s_mid) + protocol.lambdaf * s_mid
        spec_mid = spec_builder(lam_mid)
        gen = None
        if protocol.cd_mode != "none":
            make = full_cd if protocol.cd_mode == "full" else targeted_cd
            try:
                gen = make(spec_mid, lam_mid).matrix
            except (SingularityError, FloatingPointError) as exc:
                raise SingularityError(
                    f"singular drive at t={(j + 0.5) * dt_eff:.6g} (lambda={lam_mid:.6g}): {exc}"
                ) from exc
            if protocol.band_limit is not None:
                gen = band_limit(gen, protocol.band_limit)
        apply, bound = _step_operator(spec_mid, gen, protocol.rate, phase)
        if not math.isfinite(bound):
            raise SingularityError(
                f"non-finite Hamiltonian entries at t={(j + 0.5) * dt_eff:.6g} "
                f"(lambda={lam_mid:.6g})"
            )
        theta = bound * dt_eff
        if theta > _MAX_STEP_THETA:
            raise InvalidSpecError(
                f"step norm theta = ||h|| dt = {theta:.3g} exceeds {_MAX_STEP_THETA:g} "
                f"at dt={dt_eff:.6g}; use a smaller step"
            )
        psi = _expm_apply(apply, psi, theta)
        if trace_every and (j + 1) % trace_every == 0:
            t_now = (j + 1) * dt_eff
            lam_now = protocol.lam(t_now)
            spec_now = spec_builder(lam_now)
            inst = in_gap_record(spec_now, lam_now).coeffs
            h_psi = _bond_apply(spec_now.t, psi)
            trace.append(
                {
                    "t": t_now,
                    "lambda": lam_now,
                    "fidelity_to_instantaneous": float(abs(np.vdot(inst, psi)) ** 2),
                    "norm": float(np.linalg.norm(psi)),
                    "energy": float(np.real(np.vdot(psi, h_psi))),
                }
            )
    return EvolutionResult(
        final_state=psi,
        fidelity=fidelity(target, psi),
        norm_drift=float(abs(np.linalg.norm(psi) - 1.0)),
        steps=steps,
        trace=trace,
    )


def convergence_sweep(
    spec_builder: SpecBuilder,
    protocol: Protocol,
    dt0: float,
    fid_tol: float = 1e-10,
    max_halvings: int = 12,
) -> list[tuple[float, float]]:
    """Halve the step until successive fidelities agree to ``fid_tol``.

    Returns the (dt, fidelity) trace; the last dt is the certified step.
    """
    trace: list[tuple[float, float]] = []
    dt = dt0
    for _ in range(max_halvings + 1):
        result = propagate(spec_builder, protocol, dt)
        dt_eff = protocol.total_time / result.steps
        trace.append((dt_eff, result.fidelity))
        if len(trace) >= 2 and abs(trace[-1][1] - trace[-2][1]) < fid_tol:
            return trace
        dt = dt_eff / 2.0
    raise ConvergenceError(
        f"fidelity did not settle to {fid_tol} within {max_halvings} halvings",
        trace=trace,
    )


def default_dt(protocol: Protocol) -> float:
    """Standard step choice: total_time * 1e-4."""
    return protocol.total_time * 1e-4
