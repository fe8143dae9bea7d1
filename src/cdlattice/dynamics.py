"""Time evolution under the driven chain, with optional CD terms.

The propagator walks a linear ramp lambda(t) with the midpoint rule: each
step applies exp(-i h dt), h = H + rate * A frozen at the interval midpoint.
The chain is bipartite and A = i K lives on the zero-mode sublattice ``::2``,
so in the chiral gauge D = diag(1 on rows ``::2``, i on ``1::2``) the step is
real: D^dagger h D = i S, S real antisymmetric with the signed bonds
(``_signed_bonds``) off its diagonal and rate K on the ``::2`` block. The drive
carries the real v = psi / (i^(x0+1) D), which starts as the zero mode's
profile q, and forms psi only at trace points and for the result. exp(dt S) is
a Taylor series (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011): theta, dt
times h's largest column abs-sum, bounds ||h||_2 dt and splits the step into
s = ceil(theta) substeps of the fewest terms whose remainder bound
(theta/s)^(K+1)/(K+1)! e^(theta/s) is below 2^-53. A chunk of midpoints gets
its step operators from one broadcast, capped at ``_CHUNK_BYTES``. Up to
``_DENSE_STEP_SITES`` sites each step is then one matvec with exp(dt S_j),
formed for the chunk by Horner's rule in batched matmuls (Moler & Van Loan,
SIAM Rev. 45, 2003); longer chains apply the series to v term by term.
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
from .states import _PHASES, _zero_mode, in_gap_record

SpecBuilder = Callable[[float], LatticeSpec]

_UNIT_ROUNDOFF = 2.0**-53
# Largest theta = ||h|| * dt accepted for one step. Documented runs stay below
# 4; a step costs ceil(theta) substeps, so a mistyped --dt far above this
# would run for hours instead of failing.
_MAX_STEP_THETA = 1e3
# Bytes of step data per chunk of midpoints, all real: the K blocks and bonds of
# a CD drive, the bonds of a bare one, or 16 M^2 for dense step matrices. Building
# them holds about twice that at once. A small chunk stays in cache and leaves the
# peak memory flat: 8 MiB chunks added 23 MB of RSS at 101 sites.
_CHUNK_BYTES = 256 * 1024
# Longest chain stepped by dense step matrices: every drive steps faster so up to
# it, in interleaved per-step timings (CHANGES.md).
_DENSE_STEP_SITES = 17
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
        if not 0 < self.total_time < math.inf:
            raise InvalidSpecError(f"total_time must be positive and finite, got {self.total_time}")
        if not (math.isfinite(self.lambda0) and math.isfinite(self.lambdaf)):
            raise InvalidSpecError(f"ramp ends must be finite, got {self.lambda0}, {self.lambdaf}")
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


def _signed_bonds(spec: LatticeSpec) -> np.ndarray:
    """The bonds of S above its diagonal: t, with the odd bonds negated."""
    bonds = spec.t
    bonds[..., 1::2] *= -1.0
    return bonds


def _chiral_apply(bonds: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Product of the tridiagonal antisymmetric matrix with ``bonds`` above the diagonal and v."""
    w = np.zeros_like(v)
    w[:-1] = bonds * v[1:]
    w[1:] -= bonds * v[:-1]
    return w


def _lattice_state(v: np.ndarray, phase: complex) -> np.ndarray:
    """psi = phase * D v, D = diag(1 on rows ``::2``, i on rows ``1::2``); exact."""
    return v * np.where(np.arange(len(v)) % 2, 1j * phase, phase)


def _series_plan(thetas: np.ndarray):
    """Per midpoint, the substeps s = ceil(theta) and the fewest Taylor terms k with
    remainder bound x^(k+1)/(k+1)! e^x <= 2^-53 at x = theta/s <= 1 (at most 18)."""
    substeps = np.maximum(1, np.ceil(thetas)).astype(int)
    x = thetas / substeps
    bounds = np.cumprod(np.column_stack([np.exp(x), x[:, None] / np.arange(1, 21)]), axis=1)
    return substeps, np.argmax(bounds[:, 1:] <= _UNIT_ROUNDOFF, axis=1)


def _expm_apply(apply, psi: np.ndarray, substeps: int, terms: int) -> np.ndarray:
    """exp(op) psi by the scaled Taylor series, for ``apply`` the action of op, in
    ``substeps`` substeps exp(op/s) of norm at most 1, each summed to ``terms`` terms."""
    psi = psi.copy()
    for _ in range(substeps):
        term = psi
        for k in range(1, terms + 1):
            term = apply(term)
            term *= 1.0 / (k * substeps)
            psi += term
    return psi


def _generator_writer(out: np.ndarray):
    """A function writing dt S_j into the (k, M, M) stack ``out``: bond rows above the
    diagonal, their negatives below, blocks on ``[:, ::2, ::2]``; views are taken once."""
    k, m = out.shape[:2]
    flat = out.reshape(k, -1)  # evenly strided diagonals: views into out
    block, upper, lower = out[:, ::2, ::2], flat[:, 1 :: m + 1], flat[:, m :: m + 1]

    def write(blocks, bond_rows):
        upper[...] = bond_rows
        np.negative(bond_rows, out=lower)
        if blocks is not None:
            block[...] = blocks
    return write


def _step_matrices(blocks, bond_rows: np.ndarray, substeps, terms) -> np.ndarray:
    """exp(dt S_j) for a chunk as a (k, M, M) stack: per row, s_j substeps of its own series,
    a Horner polynomial I + X(I + X/2(...)) in X = dt S_j / s_j; shorter rows are masked."""
    k, m = bond_rows.shape[0], bond_rows.shape[1] + 1
    x = np.zeros((k, m, m))
    _generator_writer(x)(blocks, bond_rows)
    eye = np.eye(m)
    p, q = np.broadcast_to(eye, x.shape).copy(), np.empty_like(x)
    for j in range(int(terms.max()), 0, -1):
        np.matmul(x, p, out=q)
        q *= (1.0 / (j * substeps))[:, None, None]
        q += eye
        np.copyto(p, q, where=(terms >= j)[:, None, None])
    u = p.copy()
    for r in range(2, int(substeps.max()) + 1):
        np.matmul(p, u, out=x)
        np.copyto(u, x, where=(substeps >= r)[:, None, None])
    return u


def _step_operators(chain: LatticeSpec, lams: np.ndarray, protocol: Protocol, dt: float):
    """(blocks dt rate K_j, bond rows dt S_j above the diagonal, theta_j >= ||h_j||_2 dt) at
    the midpoints ``lams``, in one broadcast; no blocks without a CD term.

    The bare theta is 2 max|t| dt. A CD theta is dt times h's largest column abs-sum:
    |t_(x-1)| + |t_x| at site x, plus |rate| sum_b |K_ab| on the ``::2`` sites.
    """
    spec = replace(chain, lam=lams)
    bonds = _signed_bonds(spec)
    magnitude = np.abs(bonds)
    if protocol.cd_mode == "none":
        return None, bonds * dt, 2.0 * magnitude.max(axis=-1) * dt
    blocks = generator_blocks(spec, lams, protocol.cd_mode)
    if protocol.band_limit is not None:  # K's entries sit 2|a - b| diagonals out
        a = np.arange(blocks.shape[-1])
        blocks[..., np.abs(a[:, None] - a) > protocol.band_limit // 2] = 0.0
    blocks *= protocol.rate
    column = np.zeros((len(lams), chain.n_sites))
    column[:, 1:] += magnitude
    column[:, :-1] += magnitude
    column[:, ::2] += np.abs(blocks).sum(axis=-1)
    blocks *= dt
    return blocks, bonds * dt, column.max(axis=-1) * dt


def propagate(
    spec_builder: SpecBuilder,
    protocol: Protocol,
    dt: float,
    trace_every: int = 0,
) -> EvolutionResult:
    """Drive the in-gap state along the ramp and report the transfer fidelity.

    The ramp takes ceil(total_time / dt) equal steps; a midpoint may land on
    lambda = 0, a regular point of the odd chain. ``trace_every`` > 0 records
    (t, lambda, fidelity to the instantaneous in-gap state, norm, energy
    expectation) every that many steps.
    """
    if not 0 < dt < math.inf:
        raise InvalidSpecError(f"dt must be positive and finite, got {dt}")
    steps = math.ceil(protocol.total_time / dt)
    dt_eff = protocol.total_time / steps
    chain = spec_builder(protocol.lambda0)
    m, phase = chain.n_sites, _PHASES[(chain.x0 + 1) % 4]  # the zero mode's i^(x0+1)
    cd = protocol.cd_mode != "none"
    if cd and protocol.band_limit is not None and not 0 <= protocol.band_limit <= m - 1:
        raise InvalidSpecError(f"band limit {protocol.band_limit} outside 0..{m - 1}")
    v = np.zeros(m)
    v[::2] = _zero_mode(chain, protocol.lambda0)[0]
    dense = m <= _DENSE_STEP_SITES
    if cd and not dense:  # dt S lives in one real buffer, rewritten in place each step
        s = np.zeros((1, m, m))
        write_s, apply_s = _generator_writer(s), s[0].__matmul__
    step_bytes = 16 * m * m if dense else 8 * ((m + 1) ** 2 // 4 + m) if cd else 8 * m
    chunk = max(1, _CHUNK_BYTES // step_bytes)
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
                raise SingularityError(f"non-finite Hamiltonian entries at t="
                                       f"{(j + 0.5) * dt_eff:.6g} (lambda={lams[i]:.6g})")
            raise InvalidSpecError(f"step norm theta = ||h|| dt = {theta:.3g} exceeds "
                                   f"{_MAX_STEP_THETA:g} at dt={dt_eff:.6g}; use a smaller step")
        substeps, terms = _series_plan(thetas)
        step_matrices = _step_matrices(blocks, bond_rows, substeps, terms) if dense else None
        for i, plan in enumerate(zip(substeps.tolist(), terms.tolist())):
            if dense:
                v = step_matrices[i] @ v
            elif cd:
                write_s(blocks[i], bond_rows[i])
                v = _expm_apply(apply_s, v, *plan)
            else:
                v = _expm_apply(functools.partial(_chiral_apply, bond_rows[i]), v, *plan)
            j = lo + i
            if trace_every and (j + 1) % trace_every == 0:
                trace.append(_trace_point(spec_builder, protocol, (j + 1) * dt_eff, v, phase))
        del blocks, bond_rows, step_matrices  # free this chunk before the next is built
    # read after the drive, so a CD drive past a vanished bond names its first bad midpoint
    target = in_gap_record(spec_builder(protocol.lambdaf), protocol.lambdaf).coeffs
    psi = _lattice_state(v, phase)
    return EvolutionResult(final_state=psi, fidelity=fidelity(target, psi),
                           norm_drift=float(abs(np.linalg.norm(psi) - 1.0)), steps=steps,
                           trace=trace)


def _first_singular(chain, lams, protocol, dt, exc):
    """Index of the first midpoint of a failed chunk that fails on its own, and its error."""
    for i in range(len(lams)):
        try:
            _step_operators(chain, lams[i : i + 1], protocol, dt)
        except (SingularityError, FloatingPointError) as err:
            return i, err
    return 0, exc


def _trace_point(spec_builder, protocol, t_now, v, phase) -> dict:
    """The trace record at time ``t_now`` of psi = phase * D v. H psi = i phase D S_H v, S_H
    the bond part of S, so the energy <psi|H|psi> = i v.S_H v is 0 by chiral symmetry."""
    lam_now = protocol.lam(t_now)
    spec_now = spec_builder(lam_now)
    inst = in_gap_record(spec_now, lam_now).coeffs
    psi = _lattice_state(v, phase)
    h_psi = _lattice_state(_chiral_apply(_signed_bonds(spec_now), v), 1j * phase)
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
