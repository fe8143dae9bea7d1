import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import cdlattice as cdl
from cdlattice.states import (
    _band_energy,
    _bloch_second_components,
    _bloch_second_derivatives,
    _zero_mode_and_derivative,
)

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("suite")


def builder(m_sites: int, x0: int = -1):
    """Spec factory for an M-site SSH chain with the standard wall at -1."""
    L = m_sites + x0 + 1
    return lambda lam: cdl.ssh_spec(L, x0, lam)


def aligned_numeric_state(spec, lam, reference):
    """Numeric eigenvector matching ``reference``, phase-rotated onto it.

    The rotation maximises the real positive overlap with the analytic
    record, transferring its smooth gauge to the eigensolver output.
    """
    h = cdl.build_hamiltonian(spec)
    w, v = np.linalg.eigh(h)
    idx = int(np.argmin(np.abs(w - reference.energy)))
    vec = v[:, idx]
    overlap = np.vdot(vec, reference.coeffs)
    return vec * (overlap / abs(overlap))


def fd_state_derivative(m_sites, lam, record, step=1e-6, x0=-1):
    """Gauge-aligned central difference of the numeric eigenstate."""
    out = []
    for sign in (1.0, -1.0):
        lam_h = lam + sign * step
        spec_h = cdl.ssh_spec(m_sites + x0 + 1, x0, lam_h)
        ref = min(
            cdl.full_basis(spec_h, lam_h),
            key=lambda r: (abs(r.energy - record.energy), abs(r.alpha - record.alpha)),
        )
        out.append(aligned_numeric_state(spec_h, lam_h, ref))
    return (out[0] - out[1]) / (2 * step)


def snapshot_rows(spec, lam):
    """Closed-form state and derivative rows, reordered to match ``full_basis``."""
    energies, states, derivatives, _ = cdl.basis_and_derivatives(spec, lam)
    order = np.argsort(energies)
    return states[order], derivatives[order]


def two_branch_snapshot(spec, lam):
    """Reference snapshot assembled from the paper's two-branch form in complex arithmetic.

    Band-0 rows are psi~(x) = phi+(x) a^x - (phi+(L)/phi-(L)) phi-(x) a^(2L-x)
    at a = e^{ik}, k < pi/2, in the gauge phi+-(even site) = 1. The walls pin
    k, so the raw derivative moves only the Bloch components; it is then
    projected onto <psi|d psi> = 0. Return tuple and row order are those of
    ``basis_and_derivatives``, whose zero-mode row is reused.
    """
    xs = spec.sites()
    span = spec.L - spec.x0
    ks = np.pi * np.arange(1, span) / span
    ks = ks[ks < np.pi / 2 - 1e-12][:, None]
    alpha = np.exp(1j * ks)
    energy = _band_energy(np.cos(ks) ** 2, np.sin(ks) ** 2, lam)
    v_plus, v_minus = _bloch_second_components(alpha, lam, energy)
    d_plus, d_minus = _bloch_second_derivatives(alpha, lam, 0.0, energy)
    dlog_plus, dlog_minus = d_plus / v_plus, d_minus / v_minus
    plus_l, minus_l, dlog_ratio = 1.0, 1.0, 0.0
    if spec.L % 2 == 1:
        plus_l, minus_l, dlog_ratio = v_plus, v_minus, dlog_plus - dlog_minus
    odd = xs % 2 == 1
    b_plus = np.where(odd, v_plus, 1.0) * np.exp(1j * ks * xs)
    b_minus = ((plus_l / minus_l) * np.where(odd, v_minus, 1.0)
               * np.exp(1j * ks * (2 * spec.L - xs)))
    psi_t = b_plus - b_minus
    dpsi_t = (b_plus * np.where(odd, dlog_plus, 0.0)
              - b_minus * (dlog_ratio + np.where(odd, dlog_minus, 0.0)))
    norms = np.linalg.norm(psi_t, axis=1, keepdims=True)
    p0 = psi_t / norms
    dp0 = dpsi_t / norms
    dp0 -= np.sum(p0.conj() * dp0, axis=1, keepdims=True) * p0
    psi, dpsi = _zero_mode_and_derivative(spec, lam)
    flip = np.where(odd, -1.0, 1.0)
    energies = np.concatenate((energy[:, 0], -energy[:, 0], (0.0,)))
    states = np.concatenate((p0, p0 * flip, psi[None, :]))
    derivatives = np.concatenate((dp0, dp0 * flip, dpsi[None, :]))
    return energies, states, derivatives, norms[:, 0]


def project_out(state, vector):
    """Remove the component of ``vector`` along ``state``."""
    return vector - np.vdot(state, vector) * state


@pytest.fixture(scope="session")
def ssh11_09():
    spec = cdl.ssh_spec(11, -1, 0.9)
    return spec, 0.9


def dense_midpoint_propagate(spec_builder, protocol, dt):
    """Reference propagator: the midpoint rule through a dense ``eigh`` per step.

    Same step count, midpoints and Hamiltonian as ``propagate``; only the
    exponential differs. Returns the final state.
    """
    steps = math.ceil(protocol.total_time / dt)
    dt_eff = protocol.total_time / steps
    psi = cdl.in_gap_record(spec_builder(protocol.lambda0), protocol.lambda0).coeffs.copy()
    for j in range(steps):
        s_mid = (j + 0.5) / steps
        lam_mid = protocol.lambda0 * (1.0 - s_mid) + protocol.lambdaf * s_mid
        spec_mid = spec_builder(lam_mid)
        h = cdl.build_hamiltonian(spec_mid)
        if protocol.cd_mode != "none":
            make = cdl.full_cd if protocol.cd_mode == "full" else cdl.targeted_cd
            gen = make(spec_mid, lam_mid).matrix
            if protocol.band_limit is not None:
                gen = cdl.band_limit(gen, protocol.band_limit)
            h = h + protocol.rate * gen
        w, v = np.linalg.eigh(h)
        psi = v @ (np.exp(-1j * w * dt_eff) * (v.conj().T @ psi))
    return psi
