"""Closed-form eigenstates of the open SSH chain.

Every eigenstate of a two-band open chain has the two-branch form

    psi(x) = N * [ phi_plus(x) alpha^x - (phi_plus(L)/phi_minus(L)) phi_minus(x) alpha^(2L-x) ]

where phi_plus/phi_minus are unit-cell Bloch functions associated with alpha
and 1/alpha: |alpha| = 1 for band (bulk) states, 0 < |alpha| < 1 for in-gap
bound states. On a commensurate chain (walls x0 and L an even distance apart)
the band states sit at alpha = e^{ik}, k = pi*n/(L-x0), where the odd-site
Bloch components have |v_plus| = |v_minus| = 1. Up to a phase per state the
two-branch form is then a real standing wave of constant norm sqrt((L-x0)/2):

    sin(k(x-L))          on the sublattice of the walls,
    sin(k(x-L) - phi_k)  on the other one, with e^{i phi_k} = v_plus (v_plus* for even L).

Only phi_k moves with lambda, so the derivative -phi_k' cos(k(x-L) - phi_k)
is already parallel transport. The SSH closed forms (two-band dispersion,
Bloch components, zero-mode sublattice recursion) and their
lambda-derivatives live here, each written once and broadcasting over numpy
arrays, together with the single-site local Schroedinger equation that
quantizes the in-gap state. ``basis_and_derivatives`` builds every state of
a chain and its derivative from them in one pass.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import (
    DomainError,
    InvalidSpecError,
    SingularityError,
    UnsupportedPathError,
)
from .lattice import LatticeSpec, _col, _first_false, build_hamiltonian

_UNIT_TOL = 1e-9            # |alpha| distance from the unit circle
_IMAG_AXIS_TOL = 1e-12      # relative size of Re(alpha) for the in-gap family
_ZERO_MODE_MANIFOLD_TOL = 1e-8


@dataclass(frozen=True)
class BlochPair:
    """Unit-cell Bloch functions for the alpha^x and alpha^(-x) branches.

    Components are indexed by absolute site parity: ``phi_plus[x % 2]`` is the
    amplitude at site x. The gauge fixes the first component of ``phi_plus``
    to 1 wherever that component is nonzero.
    """

    phi_plus: np.ndarray
    phi_minus: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.phi_plus, dtype=complex).copy()
        m = np.asarray(self.phi_minus, dtype=complex).copy()
        if p.shape != m.shape or p.ndim != 1:
            raise InvalidSpecError("Bloch branches must be 1D arrays of equal length")
        p.setflags(write=False)
        m.setflags(write=False)
        object.__setattr__(self, "phi_plus", p)
        object.__setattr__(self, "phi_minus", m)


@dataclass(frozen=True)
class EigenStateRecord:
    """One eigenstate: mode parameter, band, energy, site amplitudes, norm factor.

    ``norm`` is the prefactor N relating the unnormalised two-branch form to
    the stored unit-norm ``coeffs``; band states are stored in the real gauge,
    a phase per state away from that form. ``kind`` is 'bulk' or 'in-gap'.
    """

    alpha: complex
    band: int
    energy: float
    coeffs: np.ndarray
    norm: float
    kind: str

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex).copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        if self.kind not in ("bulk", "in-gap"):
            raise InvalidSpecError(f"unknown state kind {self.kind!r}")


def ssh_energy(alpha: complex, lam: float, s: int) -> float:
    """Two-band SSH dispersion at mode parameter ``alpha``.

    Evaluated through real-valued rearrangements on the two supported
    families: alpha = e^{ik} on the unit circle gives
    (-1)^s * 2*sqrt(cos^2 k + lam^2 sin^2 k); purely imaginary alpha (the
    in-gap family) gives exactly 0. The result is invariant under
    alpha -> 1/alpha.
    """
    if s not in (0, 1):
        raise InvalidSpecError(f"band label must be 0 or 1, got {s}")
    a = complex(alpha)
    if a == 0:
        raise DomainError("alpha must be nonzero")
    sign = 1.0 if s == 0 else -1.0
    if abs(a.real) <= _IMAG_AXIS_TOL * abs(a):
        return sign * 0.0
    if abs(abs(a) - 1.0) <= _UNIT_TOL:
        k = cmath.phase(a)
        return sign * float(_band_energy(math.cos(k) ** 2, math.sin(k) ** 2, lam))
    e2 = _squared_energy(a, lam)
    if abs(e2.imag) > 1e-10 * max(1.0, abs(e2)) or e2.real < 0:
        raise DomainError(
            f"negative or complex squared energy {e2} outside the supported alpha families"
        )
    return sign * math.sqrt(e2.real)


def _band_energy(cos2_k, sin2_k, lam: float):
    """Upper-band energy 2*sqrt(cos^2 k + lam^2 sin^2 k) at alpha = e^{ik}; broadcasts."""
    return 2.0 * np.sqrt(cos2_k + lam**2 * sin2_k)


def _squared_energy(a: complex, lam: float) -> complex:
    """E^2 of the two-band dispersion at any nonzero alpha."""
    return ((1 + a * a) / a) ** 2 - lam**2 * ((a * a - 1) / a) ** 2


def _bloch_second_components(alpha, lam: float, energy):
    """Odd-site Bloch components (v_plus, v_minus) of the even-site-1 gauge; broadcasts.

    With ``energy = 1`` they are the numerators E*v that stay finite at E = 0.
    """
    v_plus = ((1 - lam) + (1 + lam) * (alpha * alpha)) / (energy * alpha)
    v_minus = ((1 - lam) * alpha + (1 + lam) / alpha) / energy
    return v_plus, v_minus


def _bloch_second_derivatives(alpha, lam: float, d_alpha, energy):
    """lambda-derivatives of (v_plus, v_minus); broadcasts.

    Both denominators are the derivatives' exact rational forms (the
    alpha -> 1/alpha image fixes the sign of the second one).
    """
    a2 = alpha * alpha
    num = (1 - a2 * a2 - 4 * lam * d_alpha * alpha) / (energy * alpha)
    d_plus = num / ((lam - 1) * a2 - (1 + lam))
    d_minus = num / ((1 + lam) * a2 + (1 - lam))
    return d_plus, d_minus


def _on_zero_mode_manifold(alpha: complex, lam: float) -> bool:
    if abs(1 + lam) < 1e-14:
        return False
    target = -(1.0 - lam) / (1.0 + lam)
    a2 = complex(alpha) ** 2
    return abs(a2 - target) <= _ZERO_MODE_MANIFOLD_TOL * (1 + abs(target))


def ssh_bloch(alpha: complex, lam: float, s: int) -> BlochPair:
    """Unit-cell Bloch pair of the SSH chain at ``alpha``.

    The explicit second component divides by the energy, so it only exists
    off the zero-energy point. The E = 0 in-gap state uses the limiting
    sublattice-polarized pair instead: phi_plus = (1, 0) on the branch with
    alpha^2 = -(1-lam)/(1+lam), and phi_minus = (0, 1) for its inverse.
    """
    energy = ssh_energy(alpha, lam, s)
    if energy == 0.0:
        if _on_zero_mode_manifold(alpha, lam):
            return BlochPair(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        raise SingularityError(
            "zero-energy Bloch functions are singular off the sublattice-polarized "
            "branch alpha^2 = -(1-lambda)/(1+lambda); pass the inverse alpha for the "
            "other branch"
        )
    v_plus, v_minus = _bloch_second_components(complex(alpha), lam, energy)
    return BlochPair(np.array([1.0, v_plus]), np.array([1.0, v_minus]))


def ssh_dalpha(alpha: complex, lam: float, kind: str) -> complex:
    """d alpha / d lambda of an SSH eigenstate.

    Commensurate band states have their quasimomentum pinned by the walls, so
    the derivative is zero. For the in-gap state the differentiated local
    Schroedinger equation gives the closed rational form below, which on the
    zero-mode branch reduces to -alpha/(1 - lambda^2).
    """
    if kind == "bulk":
        return 0.0 + 0.0j
    if kind != "in-gap":
        raise SingularityError(f"unknown state kind {kind!r}")
    if abs(lam) < 1e-12 or abs(abs(lam) - 1.0) < 1e-12:
        raise SingularityError(
            f"in-gap mode-parameter derivative is singular at lambda={lam}"
        )
    a = complex(alpha)
    a2 = a * a
    a4 = a2 * a2
    lam3 = lam**3
    num = 1 + 2 * a2 + a4 + lam3 - 2 * a2 * lam3 + a4 * lam3
    den = lam * (a4 - 1) * (lam - 1) * (1 + lam) ** 2
    return -a * num / den


def ssh_dbloch(
    alpha: complex, lam: float, d_alpha: complex, energy: float
) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives of the two SSH Bloch branches with respect to lambda.

    First components are gauge-pinned to 1 and carry no derivative; the
    second components differentiate the closed Bloch forms.
    """
    if energy == 0.0:
        raise SingularityError(
            "Bloch derivative divides by the energy; use the sublattice-polarized "
            "path for the zero mode"
        )
    d_plus, d_minus = _bloch_second_derivatives(complex(alpha), lam, complex(d_alpha), energy)
    return np.array([0.0, d_plus]), np.array([0.0, d_minus])


def d_norm(record: EigenStateRecord, dpsi_tilde: np.ndarray) -> float:
    """d N / d lambda from the unnormalised state and its raw derivative.

    Implements -1/2 N^3 sum_x [conj(psi~) d psi~ + psi~ conj(d psi~)]; the
    bracket is manifestly real, so the result is returned as a float.
    """
    n = record.norm
    psi_tilde = record.coeffs / n
    overlap = np.vdot(psi_tilde, dpsi_tilde)
    return float(-(n**3) * overlap.real)


def _require_zero_mode(spec: LatticeSpec, lam) -> None:
    """The one guard of every zero-mode entry point.

    ``spec`` must be the chain at ``lam`` (to 1e-10), have an odd site
    count, and keep every bond (|lam| < 1). lambda = 0 is a regular point:
    the finite chain's gap is still open there. The comparisons are written
    so that NaN and +-inf fail them. ``lam`` may be an array of couplings,
    with ``spec`` built on the same array; the error names the first that
    fails.
    """
    if _first_false(abs(spec.lam - lam) <= 1e-10) is not None:
        raise InvalidSpecError(f"spec encodes lambda={spec.lam}, caller passed {lam}")
    if spec.n_sites % 2 == 0:
        raise UnsupportedPathError(f"a chain of {spec.n_sites} sites has no zero mode: "
                                   "the closed forms need an odd site count")
    if (i := _first_false(abs(lam) < 1)) is not None:
        raise SingularityError(f"zero mode undefined at lambda={np.ravel(lam)[i]}: "
                               "a bond has vanished")


def zero_mode_sublattice_sign(spec: LatticeSpec) -> float:
    """+1 when the populated sublattice is the even one (odd walls)."""
    return 1.0 if (spec.x0 + 1) % 2 == 0 else -1.0


def _zero_mode_log_decay(spec: LatticeSpec, lam):
    """log alpha^2 = log((1 - sigma lam)/(1 + sigma lam)) = -2 atanh(sigma lam) of the zero mode.

    alpha^2 = psi(x+2)/psi(x) on the populated sublattice; it exceeds 1 in
    modulus when the state is bound to the far wall. One ufunc, accurate to
    the last bit as lambda -> 0; it needs |lam| < 1 and broadcasts over an
    array of couplings.
    """
    return -2.0 * np.arctanh(zero_mode_sublattice_sign(spec) * lam)


@functools.lru_cache(maxsize=16)
def _zero_mode_geometry(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index j = 0 .. n-1 of the zero-mode sublattice (as floats) and its signs (-1)^j, read-only.

    The walls share a parity, so the first site x0+1 and every other one
    after it (rows ``::2``) form the sublattice: site x0+1+2j has the exact
    phase i^(x0+1) (-1)^j. This is all the zero mode reads: its callers never
    build the band tables of ``_geometry``.
    """
    index = np.arange(n, dtype=float)
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    index.setflags(write=False)
    signs.setflags(write=False)
    return index, signs


@functools.lru_cache(maxsize=16)
def _geometry(L: int, x0: int) -> SimpleNamespace:
    """lambda-independent band tables of a commensurate chain, shared read-only between calls.

    Per-quasimomentum arrays (k < pi/2) are columns, so they broadcast
    against the per-site rows; ``cos_theta`` covers the zero-mode sublattice
    only, where the band states carry their lambda-dependent phase.
    """
    xs = np.arange(x0 + 1, L)
    span = L - x0
    ks = np.pi * np.arange(1, span) / span
    ks = ks[ks < np.pi / 2 - 1e-12][:, None]
    theta = ks * (xs - L)
    geometry = SimpleNamespace(
        sign_flip=np.where(xs % 2 == 1, -1.0, 1.0),  # band 1 is band 0 with odd sites negated
        alpha=np.exp(1j * ks),
        cos2_k=np.cos(ks) ** 2,
        sin2_k=np.sin(ks) ** 2,
        sin_theta=np.sin(theta),
        cos_theta=np.cos(theta[:, ::2]),
    )
    for value in vars(geometry).values():
        value.setflags(write=False)
    return geometry


def _zero_mode(spec: LatticeSpec, lam):
    """The zero mode as its real sublattice profile: (q, p, x_ref, log alpha^2, norm).

    The normalised zero mode is i^(x0+1) q on rows ``::2``, q_j = (-1)^j
    alpha^(2(j - j_ref)) / norm at site x0+1+2j: shifted to the end
    x_ref = x0+1+2 j_ref the state is bound to, so large chains do not
    overflow, and normalised over its n entries. p = q (j - <j>) dlog alpha^2
    is its projected lambda-derivative, j counted from j_ref to keep <j> exact.
    Every caller of the zero mode comes through ``_require_zero_mode`` here.
    An array of couplings gives one row (or entry) per coupling, each
    bit-identical to its single-lambda call.
    """
    _require_zero_mode(spec, lam)
    n = (spec.n_sites + 1) // 2
    index, signs = _zero_mode_geometry(n)
    log_a2 = _zero_mode_log_decay(spec, lam)
    j_ref = (n - 1) * (log_a2 > 0)  # the last site once |alpha| > 1
    offsets = index - _col(j_ref)
    profile = np.exp(offsets * _col(log_a2))
    nrm = np.sqrt(np.vecdot(profile, profile))
    q = signs * profile / _col(nrm)
    dlog_a2 = -2.0 * zero_mode_sublattice_sign(spec) / (1.0 - lam * lam)
    p = q * ((offsets - _col(np.vecdot(offsets, q * q))) * _col(dlog_a2))
    return q, p, spec.x0 + 1 + 2 * j_ref, log_a2, nrm


def _on_sites(spec: LatticeSpec, v: np.ndarray) -> np.ndarray:
    """The M-vector i^(x0+1) v on the zero-mode sublattice ``::2``, zero between; exact."""
    psi = np.zeros(spec.n_sites, dtype=complex)
    psi[::2] = v * (1, 1j, -1, -1j)[(spec.x0 + 1) % 4]
    return psi


def in_gap_record(spec: LatticeSpec, lam: float) -> EigenStateRecord:
    """Exact zero-energy edge state of an odd-length commensurate SSH chain.

    Assembled from the sublattice-polarized recursion (amplitudes alpha^x on
    one parity, zero on the other), which is the regular limit of the
    two-branch form at zero energy: the coeffs are i^(x0+1) q of ``_zero_mode``.
    By that form's absolute site labels ``norm`` is exp(-x_ref log a) / |psi~|,
    a = |alpha| and psi~ being the profile shifted to the end x_ref the state
    is bound to; it flushes to 0 once |x_ref log a| >= 700.
    """
    q, _, x_ref, log_a2, nrm = _zero_mode(spec, lam)
    x_log_a = int(x_ref) * 0.5 * float(log_a2)
    return EigenStateRecord(
        alpha=1j * math.exp(-0.5 * abs(float(log_a2))),
        band=0,
        energy=0.0,
        coeffs=_on_sites(spec, q),
        norm=math.exp(-x_log_a) / float(nrm) if abs(x_log_a) < 700 else 0.0,
        kind="in-gap" if lam != 0 else "bulk",
    )


def _edge_residual(a: float, lam: float, L: int, x0: int, t_first: float) -> float:
    """Local Schroedinger residual at site x0+1 for a trial in-gap alpha = i*a.

    The wall condition psi(x0) = 0 turns the single-site equation into
    E * psi(x0+1) = t_{x0+1} * psi(x0+2) with the two-branch trial state
    substituted. Multiplying through by E and by the phi_minus numerator
    clears the zero-energy singularities, leaving a purely imaginary
    expression whose imaginary part changes sign exactly once on (0, 1).
    """
    alpha = 1j * a
    e2 = _squared_energy(alpha, lam)
    n_plus, n_minus = _bloch_second_components(alpha, lam, 1.0)
    p_outer = alpha ** (2 * (L - x0 - 1))
    p_inner = alpha ** (2 * (L - x0 - 2))
    r = e2 * (n_minus - n_plus * p_outer) - t_first * n_plus * n_minus * alpha * (1 - p_inner)
    return r.imag


def edge_alpha(spec: LatticeSpec, lam: float) -> complex:
    """Mode parameter a*e^{i pi/2} of the in-gap edge state, by bisection.

    The in-gap state is not fixed by the wall boundary condition alone; it is
    the unique root of the single-site local Schroedinger residual. The root
    is cross-checked against the closed form of ``_zero_mode_log_decay``.
    """
    _require_zero_mode(spec, lam)
    if spec.x0 % 2 == 0:
        raise UnsupportedPathError("edge-state root solving expects odd wall index x0")
    if lam == 0:
        raise SingularityError("lambda=0 has no isolated in-gap root (a -> 1, bulk state)")
    t_first = spec.t[0]
    lo, hi = 1e-9, 1.0 - 1e-9
    f_lo = _edge_residual(lo, lam, spec.L, spec.x0, t_first)
    f_hi = _edge_residual(hi, lam, spec.L, spec.x0, t_first)
    if f_lo == 0.0:
        return 1j * lo
    if f_hi == 0.0:
        return 1j * hi
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise SingularityError(f"in-gap root not bracketed at lambda={lam}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = _edge_residual(mid, lam, spec.L, spec.x0, t_first)
        if f_mid == 0.0:
            lo = hi = mid
            break
        if math.copysign(1.0, f_mid) == math.copysign(1.0, f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    a_root = 0.5 * (lo + hi)
    closed_form = math.exp(-0.5 * abs(float(_zero_mode_log_decay(spec, lam))))
    if abs(a_root - closed_form) > 1e-10:
        raise ArithmeticError(
            f"bisection root {a_root} disagrees with the closed form {closed_form}"
        )
    return 1j * a_root


def _band_phases(spec: LatticeSpec, lam):
    """(energy, cos phi_k, sin phi_k, phi_k'), one row per k < pi/2; lam may carry more axes.

    The band rows on the zero-mode sublattice are sin(theta - phi_k) with theta = k(x-L);
    cos phi_k = Re v_plus, sin phi_k = sigma Im v_plus and phi_k' = sigma Im(d v_plus / v_plus),
    with sigma = +1 for odd L and -1 for even L.
    """
    geo = _geometry(spec.L, spec.x0)
    sigma = zero_mode_sublattice_sign(spec)
    energy = _band_energy(geo.cos2_k, geo.sin2_k, lam)
    v_plus = _bloch_second_components(geo.alpha, lam, energy)[0]
    d_plus = _bloch_second_derivatives(geo.alpha, lam, 0.0, energy)[0]
    return energy, v_plus.real, sigma * v_plus.imag, sigma * (d_plus / v_plus).imag


def basis_and_derivatives(spec: LatticeSpec, lam: float):
    """All M states of a commensurate odd-length SSH chain and their derivatives.

    Returns (energies, states, derivatives, branch_norms). Rows run over band
    0 at the quasimomenta k < pi/2, then band 1 (band 0 with the odd-site
    amplitudes negated), then the zero mode. Band rows are the standing waves
    of the module docstring, with the factors from ``_band_phases``;
    ``branch_norms`` holds |psi~| = sqrt(2(L-x0)) of the two-branch form.
    """
    q, p, *_ = _zero_mode(spec, lam)
    geo = _geometry(spec.L, spec.x0)
    energy, cos_phi, sin_phi, d_phi = _band_phases(spec, lam)
    sin_z, cos_z = geo.sin_theta[:, ::2], geo.cos_theta
    scale = 1.0 / math.sqrt((spec.L - spec.x0) / 2)
    p0 = geo.sin_theta * scale
    p0[:, ::2] = (sin_z * cos_phi - cos_z * sin_phi) * scale
    dp0 = np.zeros_like(p0)
    dp0[:, ::2] = (cos_z * cos_phi + sin_z * sin_phi) * (-scale * d_phi)
    energies = np.concatenate((energy[:, 0], -energy[:, 0], (0.0,)))
    states = np.concatenate((p0, p0 * geo.sign_flip, _on_sites(spec, q)[None, :]))
    derivatives = np.concatenate((dp0, dp0 * geo.sign_flip, _on_sites(spec, p)[None, :]))
    return energies, states, derivatives, np.full(len(energy), math.sqrt(2 * (spec.L - spec.x0)))


def full_basis(spec: LatticeSpec, lam: float) -> list[EigenStateRecord]:
    """All M eigenstates of a commensurate odd-length SSH chain.

    Both energy signs over the quasimomenta in (0, pi/2) give the M-1 band
    states (the reflected momenta k > pi/2 reproduce the same states up to a
    phase), and the missing k = pi/2 slot is the in-gap zero mode. Records are
    sorted by energy; no two are degenerate.
    """
    energies, states, _, branch_norms = basis_and_derivatives(spec, lam)
    alphas = _geometry(spec.L, spec.x0).alpha[:, 0]
    n_k = len(alphas)
    records = [
        EigenStateRecord(alpha=complex(alphas[i % n_k]), band=i // n_k,
                         energy=float(energies[i]), coeffs=states[i],
                         norm=1.0 / float(branch_norms[i % n_k]), kind="bulk")
        for i in range(2 * n_k)
    ]
    records.append(in_gap_record(spec, lam))
    return sorted(records, key=lambda rec: rec.energy)


def eigen_residual(spec: LatticeSpec, record: EigenStateRecord) -> float:
    """Max-norm of H psi - E psi for one record."""
    h = build_hamiltonian(spec)
    return float(np.max(np.abs(h @ record.coeffs - record.energy * record.coeffs)))
