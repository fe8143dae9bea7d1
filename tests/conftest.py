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
