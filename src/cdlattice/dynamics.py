"""Time evolution under the driven chain, with optional CD terms.

The propagator walks a linear ramp lambda(t) with the midpoint rule: each
step applies exp(-i h dt) to the state, h = H + rate * A being the
Hamiltonian frozen at the interval midpoint. The exponential acts through a
truncated Taylor series built from matrix-vector products alone (Al-Mohy &
Higham, SIAM J. Sci. Comput. 33, 2011): with theta = ||h||_2 dt bounded
from the matrix entries, the step is split into s = ceil(theta) substeps
and each keeps the fewest terms whose remainder bound
(theta/s)^(K+1)/(K+1)! e^(theta/s) is below the unit roundoff 2^-53.
The CD term varies sharply near the gap closing, so its generator is
evaluated at every midpoint; since every closed form broadcasts over
lambda, the step operators of a chunk of midpoints (bonds, blocks K of the
generator, bounds theta) come from one numpy broadcast, the chunk's step
data capped at ``_CHUNK_BYTES``, and the loop runs only the series.
State-transfer fidelity is measured against the analytic in-gap state at the
final ramp value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .cd import generator_blocks
from .errors import ConvergenceError, InvalidSpecError, SingularityError
from .lattice import LatticeSpec, _first_false
from .states import in_gap_record

SpecBuilder = Callable[[float], LatticeSpec]

_UNIT_ROUNDOFF = 2.0**-53
# Largest theta = ||h|| * dt accepted for one step. Documented runs stay below
# 4; a step costs ceil(theta) substeps, so a mistyped --dt far above this
# would run for hours instead of failing.
_MAX_STEP_THETA = 1e3
# Bytes of step data per chunk of midpoints: the real K blocks and bonds of a
# CD drive, the complex bonds of a bare one. The broadcast that builds them
# holds about twice that at once. A small chunk stays in cache and leaves the
# peak memory flat: 8 MiB chunks added 23 MB of RSS at 101 sites.
_CHUNK_BYTES = 256 * 1024
_FID_TOL = 1e-10
_MAX_HALVINGS = 12


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


def _step_operators(chain: LatticeSpec, lams: np.ndarray, protocol: Protocol, dt: float):
    """(blocks, bond rows, theta) of phase * h_j at the midpoints ``lams``, in one broadcast.

    theta_j = ||h_j||_2 dt. Without a CD term there are no blocks and the
    bond rows are phase * t = -i dt t, for ``_bond_apply``. With one, phase * h
    is dt rate K on the zero-mode sublattice block and -i dt t on both
    off-diagonals: real blocks dt rate K_j and real bond rows -dt t_j. h is
    Hermitian, so its 2-norm is at most its largest column abs-sum
    (``_column_bound``).
    """
    spec = replace(chain, lam=lams)
    bonds = spec.t
    if protocol.cd_mode == "none":
        return None, bonds * (-1j * dt), 2.0 * np.abs(bonds).max(axis=-1) * dt
    blocks = generator_blocks(spec, lams, protocol.cd_mode)
    if protocol.band_limit is not None:  # K's entries sit 2|a - b| diagonals out
        a = np.arange(blocks.shape[-1])
        blocks[..., np.abs(a[:, None] - a) > protocol.band_limit // 2] = 0.0
    blocks *= protocol.rate
    bound = _column_bound(blocks, np.abs(bonds))
    blocks *= dt
    return blocks, bonds * -dt, bound * dt


def _column_bound(blocks: np.ndarray, bond_mag: np.ndarray) -> np.ndarray:
    """Largest column abs-sum of each h, from its blocks rate K and bond magnitudes |t|.

    Each column is summed down its rows in order, as np.abs(h).sum(axis=0)
    sums the dense matrix, so the bound and the substep count it sets agree
    with the dense ones bit for bit. In sublattice column a, rows 2a-1 and
    2a+1 hold the bonds t_(2a-1) and t_(2a) around the zero K_aa: the sums
    run over an (n+1)-row stack with |rate K| shifted down a row below the
    diagonal to make room for them.
    """
    n = blocks.shape[-1]
    a = np.arange(n)
    rows = np.zeros(blocks.shape[:-2] + (n + 1, n))
    below = a[:, None] > a
    np.abs(blocks, out=rows[..., :n, :], where=~below)
    np.abs(blocks, out=rows[..., 1:, :], where=below)
    rows[..., a[1:], a[1:]] = bond_mag[..., 1::2]
    rows[..., a[1:], a[:-1]] = bond_mag[..., ::2]
    odd = bond_mag[..., ::2] + bond_mag[..., 1::2]
    return np.maximum(rows.sum(axis=-2).max(axis=-1), odd.max(axis=-1))


def propagate(
    spec_builder: SpecBuilder,
    protocol: Protocol,
    dt: float,
    trace_every: int = 0,
) -> EvolutionResult:
    """Drive the in-gap state along the ramp and report the transfer fidelity.

    The ramp takes ceil(total_time / dt) equal steps; a midpoint may land on
    lambda = 0, a regular point of the odd chain. The step operators of a
    chunk of midpoints come from one broadcast (``_step_operators``), the
    chunk capped at ``_CHUNK_BYTES``; the loop runs only the series.
    ``trace_every`` > 0 records (t, lambda, fidelity to the instantaneous
    in-gap state, norm, energy expectation) every that many steps.
    """
    if dt <= 0:
        raise InvalidSpecError("dt must be positive")
    steps = math.ceil(protocol.total_time / dt)
    dt_eff = protocol.total_time / steps
    chain = spec_builder(protocol.lambda0)
    m = chain.n_sites
    cd = protocol.cd_mode != "none"
    if cd and protocol.band_limit is not None and not 0 <= protocol.band_limit <= m - 1:
        raise InvalidSpecError(f"band limit {protocol.band_limit} outside 0..{m - 1}")
    psi = in_gap_record(chain, protocol.lambda0).coeffs.copy()
    if cd:  # phase * h lives in one buffer, rewritten in place each step
        h = np.zeros((m, m), dtype=complex)
        block, flat = h.real[::2, ::2], h.imag.reshape(-1)  # evenly strided: a view into h
        upper, lower = flat[1 :: m + 1], flat[m :: m + 1]
    chunk = max(1, _CHUNK_BYTES // (8 * ((m + 1) ** 2 // 4 + m) if cd else 16 * m))
    trace = []
    for lo in range(0, steps, chunk):
        s_mid = (np.arange(lo, min(lo + chunk, steps)) + 0.5) / steps
        lams = protocol.lambda0 * (1.0 - s_mid) + protocol.lambdaf * s_mid
        try:
            blocks, bond_rows, thetas = _step_operators(chain, lams, protocol, dt_eff)
        except (SingularityError, FloatingPointError) as exc:
            i, exc = _first_singular(chain, lams, protocol, dt_eff, exc)
            raise SingularityError(f"singular drive at t={(lo + i + 0.5) * dt_eff:.6g} "
                                   f"(lambda={lams[i]:.6g}): {exc}") from exc
        if (i := _first_false(thetas <= _MAX_STEP_THETA)) is not None:  # NaN fails too
            j, theta = lo + i, float(thetas[i])
            if not math.isfinite(theta):
                raise SingularityError(
                    f"non-finite Hamiltonian entries at t={(j + 0.5) * dt_eff:.6g} "
                    f"(lambda={lams[i]:.6g})"
                )
            raise InvalidSpecError(
                f"step norm theta = ||h|| dt = {theta:.3g} exceeds {_MAX_STEP_THETA:g} "
                f"at dt={dt_eff:.6g}; use a smaller step"
            )
        for i, theta in enumerate(thetas.tolist()):
            if cd:
                block[...] = blocks[i]
                upper[...] = lower[...] = bond_rows[i]
                psi = _expm_apply(h.__matmul__, psi, theta)
            else:
                psi = _expm_apply(functools.partial(_bond_apply, bond_rows[i]), psi, theta)
            j = lo + i
            if trace_every and (j + 1) % trace_every == 0:
                trace.append(_trace_point(spec_builder, protocol, (j + 1) * dt_eff, psi))
        del blocks, bond_rows  # free this chunk before the next is built
    # read after the drive, so a CD drive past a vanished bond names its first bad midpoint
    target = in_gap_record(spec_builder(protocol.lambdaf), protocol.lambdaf).coeffs
    return EvolutionResult(
        final_state=psi,
        fidelity=fidelity(target, psi),
        norm_drift=float(abs(np.linalg.norm(psi) - 1.0)),
        steps=steps,
        trace=trace,
    )


def _first_singular(chain, lams, protocol, dt, exc):
    """Index of the first midpoint of a failed chunk that fails on its own, and its error."""
    for i in range(len(lams)):
        try:
            _step_operators(chain, lams[i : i + 1], protocol, dt)
        except (SingularityError, FloatingPointError) as err:
            return i, err
    return 0, exc


def _trace_point(spec_builder, protocol, t_now, psi) -> dict:
    """The trace record of the state ``psi`` at time ``t_now``."""
    lam_now = protocol.lam(t_now)
    spec_now = spec_builder(lam_now)
    inst = in_gap_record(spec_now, lam_now).coeffs
    h_psi = _bond_apply(spec_now.t, psi)
    return {
        "t": t_now,
        "lambda": lam_now,
        "fidelity_to_instantaneous": float(abs(np.vdot(inst, psi)) ** 2),
        "norm": float(np.linalg.norm(psi)),
        "energy": float(np.real(np.vdot(psi, h_psi))),
    }


def convergence_sweep(spec_builder: SpecBuilder, protocol: Protocol,
                      dt0: float) -> list[tuple[float, float]]:
    """Halve the step until successive fidelities agree to ``_FID_TOL``, at most
    ``_MAX_HALVINGS`` times.

    Returns the (dt, fidelity) trace; the last dt is the certified step.
    """
    trace: list[tuple[float, float]] = []
    dt = dt0
    for _ in range(_MAX_HALVINGS + 1):
        result = propagate(spec_builder, protocol, dt)
        dt_eff = protocol.total_time / result.steps
        trace.append((dt_eff, result.fidelity))
        if len(trace) >= 2 and abs(trace[-1][1] - trace[-2][1]) < _FID_TOL:
            return trace
        dt = dt_eff / 2.0
    raise ConvergenceError(
        f"fidelity did not settle to {_FID_TOL} within {_MAX_HALVINGS} halvings",
        trace=trace,
    )


def default_dt(protocol: Protocol) -> float:
    """Standard step choice: total_time * 1e-4."""
    return protocol.total_time * 1e-4
