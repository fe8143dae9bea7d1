import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import cdlattice as cdl

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
    steps = max(2, math.ceil(protocol.total_time / dt))
    steps += steps % 2
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
