"""Time evolution under the driven chain, with optional CD terms.

The propagator walks a linear ramp lambda(t) with the midpoint rule: each
step is the exact unitary of the Hamiltonian frozen at the interval midpoint,
applied through its eigendecomposition. Matrices are rebuilt at every
midpoint because the CD generator varies sharply near the gap closing.
State-transfer fidelity is measured against the analytic in-gap state at the
final ramp value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .cd import full_cd, targeted_cd
from .errors import ConvergenceError, InvalidSpecError, SingularityError
from .lattice import LatticeSpec, build_hamiltonian
from .states import in_gap_record

SpecBuilder = Callable[[float], LatticeSpec]


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


def _total_hamiltonian(spec: LatticeSpec, lam: float, protocol: Protocol) -> np.ndarray:
    h = build_hamiltonian(spec)
    if protocol.cd_mode == "none":
        return h
    if protocol.cd_mode == "full":
        gen = full_cd(spec, lam).matrix
    else:
        gen = targeted_cd(spec, lam).matrix
    if protocol.band_limit is not None:
        gen = band_limit(gen, protocol.band_limit)
    return h + protocol.rate * gen


def propagate(
    spec_builder: SpecBuilder,
    protocol: Protocol,
    dt: float,
    trace_every: int = 0,
) -> EvolutionResult:
    """Drive the in-gap state along the ramp and report the transfer fidelity.

    The step count is rounded up to an even number so the symmetric ramp
    never places a midpoint exactly on the gap closing. ``trace_every`` > 0
    records (t, lambda, fidelity to the instantaneous in-gap state, norm,
    energy expectation) every that many steps.
    """
    if dt <= 0:
        raise InvalidSpecError("dt must be positive")
    steps = max(2, math.ceil(protocol.total_time / dt))
    if steps % 2:
        steps += 1
    dt_eff = protocol.total_time / steps
    psi = in_gap_record(spec_builder(protocol.lambda0), protocol.lambda0).coeffs.copy()
    target = in_gap_record(spec_builder(protocol.lambdaf), protocol.lambdaf).coeffs
    trace = []
    for j in range(steps):
        s_mid = (j + 0.5) / steps
        lam_mid = protocol.lambda0 * (1.0 - s_mid) + protocol.lambdaf * s_mid
        spec_mid = spec_builder(lam_mid)
        if protocol.cd_mode == "none" and np.all(spec_mid.t.imag == 0):
            # real tridiagonal: the dedicated solver is several times faster
            w, v = eigh_tridiagonal(spec_mid.mu, spec_mid.t.real)
        else:
            try:
                h_tot = _total_hamiltonian(spec_mid, lam_mid, protocol)
            except (SingularityError, FloatingPointError) as exc:
                raise SingularityError(
                    f"singular drive at t={(j + 0.5) * dt_eff:.6g} (lambda={lam_mid:.6g}): {exc}"
                ) from exc
            if not np.all(np.isfinite(h_tot)):
                raise SingularityError(
                    f"non-finite Hamiltonian entries at t={(j + 0.5) * dt_eff:.6g} "
                    f"(lambda={lam_mid:.6g})"
                )
            w, v = np.linalg.eigh(h_tot)
        psi = v @ (np.exp(-1j * w * dt_eff) * (v.conj().T @ psi))
        if trace_every and (j + 1) % trace_every == 0:
            t_now = (j + 1) * dt_eff
            lam_now = protocol.lam(t_now)
            spec_now = spec_builder(lam_now)
            inst = in_gap_record(spec_now, lam_now).coeffs
            h_bare = build_hamiltonian(spec_now)
            trace.append(
                {
                    "t": t_now,
                    "lambda": lam_now,
                    "fidelity_to_instantaneous": float(abs(np.vdot(inst, psi)) ** 2),
                    "norm": float(np.linalg.norm(psi)),
                    "energy": float(np.real(np.vdot(psi, h_bare @ psi))),
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
