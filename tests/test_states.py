import cmath

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cdlattice as cdl
from cdlattice.errors import (
    DomainError,
    InvalidSpecError,
    SingularityError,
    UnsupportedPathError,
)
from cdlattice.states import zero_mode_internal_alpha
from conftest import two_branch_snapshot


# ---------------------------------------------------------------------------
# dispersion
# ---------------------------------------------------------------------------

def test_energy_uniform_chain_against_diagonalization():
    # alpha = e^{i pi/4} exists in the 7-site uniform chain (k = 2 pi / 8)
    e = cdl.ssh_energy(cmath.exp(1j * np.pi / 4), 0.0, 0)
    spec = cdl.ssh_spec(7, -1, 0.0)
    w = np.linalg.eigvalsh(cdl.build_hamiltonian(spec))
    assert np.min(np.abs(w - e)) <= 1e-12
    assert e == pytest.approx(np.sqrt(2.0), abs=1e-14)


def test_energy_in_gap_family_is_zero():
    assert cdl.ssh_energy(0.0224j, 0.999, 0) == 0.0
    assert cdl.ssh_energy(0.0224j, 0.999, 1) == 0.0


@given(k=st.floats(min_value=1e-3, max_value=np.pi - 1e-3),
       lam=st.floats(min_value=-0.99, max_value=0.99),
       s=st.sampled_from([0, 1]))
def test_energy_alpha_inversion_symmetry(k, lam, s):
    alpha = cmath.exp(1j * k)
    assert cdl.ssh_energy(alpha, lam, s) == pytest.approx(
        cdl.ssh_energy(1 / alpha, lam, s), abs=1e-12
    )


@given(a=st.floats(min_value=0.05, max_value=0.95),
       lam=st.floats(min_value=-0.99, max_value=0.99))
def test_energy_inversion_on_imaginary_axis(a, lam):
    assert cdl.ssh_energy(1j * a, lam, 0) == cdl.ssh_energy(1 / (1j * a), lam, 0) == 0.0


def test_energy_rejects_unsupported_alpha():
    with pytest.raises(DomainError):
        cdl.ssh_energy(0.3 * cmath.exp(1j * np.pi / 4), 0.5, 0)
    with pytest.raises(DomainError):
        cdl.ssh_energy(0.0, 0.5, 0)


# ---------------------------------------------------------------------------
# Bloch pairs
# ---------------------------------------------------------------------------

def test_bloch_satisfies_local_equations_on_three_sites():
    lam = 0.0
    alpha = cmath.exp(1j * np.pi / 4)
    energy = cdl.ssh_energy(alpha, lam, 0)
    bloch = cdl.ssh_bloch(alpha, lam, 0)
    assert bloch.phi_plus[0] == 1.0
    assert bloch.phi_plus[1] == pytest.approx((1 + alpha**2) / (energy * alpha))
    # the two-branch form built from this pair is an eigenstate of the 3-site chain
    spec = cdl.ssh_spec(3, -1, lam)
    xs, L = spec.sites(), spec.L
    ratio = bloch.phi_plus[L % 2] / bloch.phi_minus[L % 2]
    psi = (bloch.phi_plus[xs % 2] * alpha**xs
           - ratio * bloch.phi_minus[xs % 2] * alpha ** (2 * L - xs))
    assert np.linalg.norm(psi) > 0.1
    h = cdl.build_hamiltonian(spec)
    assert np.max(np.abs(h @ psi - energy * psi)) <= 1e-12


@given(k=st.floats(min_value=0.05, max_value=np.pi / 2 - 0.05),
       lam=st.floats(min_value=-0.9, max_value=0.9))
def test_bloch_minus_is_plus_under_alpha_inversion(k, lam):
    alpha = cmath.exp(1j * k)
    direct = cdl.ssh_bloch(alpha, lam, 0)
    inverted = cdl.ssh_bloch(1 / alpha, lam, 0)
    np.testing.assert_allclose(direct.phi_minus, inverted.phi_plus, atol=1e-12)


def test_bloch_zero_mode_polarized_pair():
    lam = 0.999
    alpha = zero_mode_internal_alpha(cdl.ssh_spec(101, -1, lam), lam)
    bloch = cdl.ssh_bloch(alpha, lam, 0)
    np.testing.assert_array_equal(bloch.phi_plus, [1.0, 0.0])
    np.testing.assert_array_equal(bloch.phi_minus, [0.0, 1.0])


def test_bloch_rejects_zero_energy_off_branch():
    with pytest.raises(SingularityError):
        cdl.ssh_bloch(1j, 0.5, 0)


# ---------------------------------------------------------------------------
# edge alpha
# ---------------------------------------------------------------------------

def test_edge_alpha_reference_points():
    spec999 = cdl.ssh_spec(101, -1, 0.999)
    assert abs(cdl.edge_alpha(spec999, 0.999)) == pytest.approx(0.0224, abs=5e-5)
    spec_small = cdl.ssh_spec(101, -1, 1e-3)
    assert abs(cdl.edge_alpha(spec_small, 1e-3)) == pytest.approx(0.999, abs=5e-4)
    spec_half = cdl.ssh_spec(101, -1, 0.5)
    assert abs(cdl.edge_alpha(spec_half, 0.5)) == pytest.approx(0.57735, abs=5e-6)


def test_edge_alpha_matches_dense_decay_ratio():
    lam = 0.5
    spec = cdl.ssh_spec(11, -1, lam)
    w, v = np.linalg.eigh(cdl.build_hamiltonian(spec))
    zero_mode = v[:, int(np.argmin(np.abs(w)))]
    ratio = abs(zero_mode[2] / zero_mode[0])
    assert abs(cdl.edge_alpha(spec, lam)) ** 2 == pytest.approx(ratio, rel=1e-9)


def test_edge_alpha_phase_and_negative_coupling():
    spec = cdl.ssh_spec(101, -1, -0.999)
    alpha = cdl.edge_alpha(spec, -0.999)
    assert alpha.real == 0.0
    assert alpha.imag == pytest.approx(0.0224, abs=5e-5)


def test_edge_alpha_guards():
    with pytest.raises(SingularityError):
        cdl.edge_alpha(cdl.ssh_spec(11, -1, 0.0), 0.0)
    with pytest.raises(SingularityError):
        cdl.edge_alpha(cdl.ssh_spec(11, -1, 1.0), 1.0)
    with pytest.raises(UnsupportedPathError):
        cdl.edge_alpha(cdl.ssh_spec(10, -1, 0.5), 0.5)


# ---------------------------------------------------------------------------
# state assembly
# ---------------------------------------------------------------------------

def test_in_gap_record_localization_sides():
    for lam, side in ((0.999, slice(0, 2)), (-0.999, slice(-2, None))):
        spec = cdl.ssh_spec(101, -1, lam)
        record = cdl.in_gap_record(spec, lam)
        density = np.abs(record.coeffs) ** 2
        assert density[side].sum() >= 0.99
        assert density[1::2].sum() <= 1e-20
        assert abs(record.alpha) < 1
        assert record.energy == 0.0
        assert cdl.eigen_residual(spec, record) <= 1e-12


@pytest.mark.parametrize("lam", [0.999, -0.5])
@pytest.mark.parametrize("m_sites", [11, 101])
@pytest.mark.parametrize("x0", [-2, -1, 0, 1])
def test_in_gap_phases_are_exact_powers_of_i(x0, m_sites, lam):
    # the zero mode lives on sites of one parity, where i^x is +-1 or +-i
    coeffs = cdl.in_gap_record(cdl.ssh_spec(m_sites + x0 + 1, x0, lam), lam).coeffs
    dropped = coeffs.imag if x0 % 2 == 1 else coeffs.real
    assert np.all(dropped == 0.0)


def test_in_gap_limit_matches_uniform_midband_state():
    lam = 1e-9
    spec = cdl.ssh_spec(11, -1, lam)
    record = cdl.in_gap_record(spec, lam)
    assert abs(record.alpha) == pytest.approx(1.0, abs=1e-8)
    # the k = pi/2 standing wave of the uniform chain: flat on even sites
    uniform = np.zeros(11)
    uniform[::2] = np.sin(np.pi / 2 * (np.arange(0, 11, 2) + 1))
    uniform /= np.linalg.norm(uniform)
    np.testing.assert_allclose(np.abs(record.coeffs[::2]), np.abs(uniform[::2]), atol=1e-8)


# ---------------------------------------------------------------------------
# in-gap quantization
# ---------------------------------------------------------------------------

def test_edge_root_satisfies_local_equation_route():
    # the bisection root solves the single-site residual that quantizes the
    # bound state, and agrees with its closed form
    from cdlattice.states import _edge_residual

    for lam in (0.9, 0.3, -0.7):
        spec = cdl.ssh_spec(11, -1, lam)
        alpha = cdl.edge_alpha(spec, lam)
        res = _edge_residual(abs(alpha), lam, spec.L, spec.x0, spec.t[0].real)
        assert abs(res) <= 1e-8
        closed = np.sqrt((1 - abs(lam)) / (1 + abs(lam)))
        assert abs(alpha) == pytest.approx(closed, abs=1e-10)


# ---------------------------------------------------------------------------
# full basis
# ---------------------------------------------------------------------------

def test_full_basis_structure_and_spectrum():
    lam = 0.9
    spec = cdl.ssh_spec(101, -1, lam)
    basis = cdl.full_basis(spec, lam)
    assert len(basis) == 101
    kinds = [r.kind for r in basis]
    assert kinds.count("in-gap") == 1
    assert sum(1 for r in basis if r.energy > 1e-9) == 50
    assert sum(1 for r in basis if r.energy < -1e-9) == 50
    numeric = np.linalg.eigvalsh(cdl.build_hamiltonian(spec))
    np.testing.assert_allclose([r.energy for r in basis], numeric, atol=1e-10)


def test_full_basis_orthonormal_and_complete():
    lam = -0.35
    spec = cdl.ssh_spec(25, -1, lam)
    basis = cdl.full_basis(spec, lam)
    p = np.array([r.coeffs for r in basis])
    np.testing.assert_allclose(p.conj() @ p.T, np.eye(25), atol=1e-8)
    np.testing.assert_allclose(p.T @ p.conj(), np.eye(25), atol=1e-8)


def test_full_basis_residuals_large_chain():
    lam = 0.5
    spec = cdl.ssh_spec(401, -1, lam)
    basis = cdl.full_basis(spec, lam)
    assert max(cdl.eigen_residual(spec, r) for r in basis) <= 1e-10


def test_full_basis_smooth_limit_to_uniform_chain():
    lam = 1e-12
    spec = cdl.ssh_spec(11, -1, lam)
    energies = np.sort([r.energy for r in cdl.full_basis(spec, lam)])
    uniform = np.sort(2 * np.cos(np.pi * np.arange(1, 12) / 12))
    np.testing.assert_allclose(energies, uniform, atol=1e-9)


def test_full_basis_even_count_rejected():
    with pytest.raises(UnsupportedPathError):
        cdl.full_basis(cdl.ssh_spec(10, -1, 0.5), 0.5)


def test_full_basis_requires_matching_lambda():
    with pytest.raises(InvalidSpecError):
        cdl.full_basis(cdl.ssh_spec(11, -1, 0.5), 0.7)


def _guard_cases():
    inf, nan = float("inf"), float("nan")
    cases = [
        ("other-lambda", cdl.ssh_spec(11, -1, 0.5), 0.5 + 1e-9, InvalidSpecError),
        ("nan-lambda", cdl.ssh_spec(11, -1, nan), nan, InvalidSpecError),
        ("inf-lambda", cdl.ssh_spec(11, -1, inf), inf, InvalidSpecError),
        ("even-chain", cdl.ssh_spec(10, -1, 0.5), 0.5, UnsupportedPathError),
        ("bond-gone", cdl.ssh_spec(11, -1, 1.0), 1.0, SingularityError),
        ("bond-flipped", cdl.ssh_spec(11, -1, -1.2), -1.2, SingularityError),
    ]
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


ZERO_MODE_ENTRY_POINTS = pytest.mark.parametrize("entry", [
    cdl.in_gap_record, cdl.basis_and_derivatives, cdl.full_basis, cdl.full_cd,
    cdl.targeted_cd, cdl.edge_alpha,
], ids=lambda f: f.__name__)


@ZERO_MODE_ENTRY_POINTS
@pytest.mark.parametrize("spec,lam,error", _guard_cases())
def test_every_zero_mode_entry_point_guarded_alike(entry, spec, lam, error):
    with pytest.raises(error):
        entry(spec, lam)


@ZERO_MODE_ENTRY_POINTS
def test_zero_mode_guard_passes_regular_points(entry):
    # lambda agrees to 1e-10, and lambda = 0 is a regular point
    entry(cdl.ssh_spec(11, -1, 0.5), 0.5 + 1e-11)
    if entry is not cdl.edge_alpha:  # bisection has no isolated root there
        entry(cdl.ssh_spec(11, -1, 0.0), 0.0)


def test_full_basis_other_odd_wall():
    # walls at 1 and 14: twelve sites starting on an even label
    spec = cdl.ssh_spec(14, 1, 0.4)
    assert spec.n_sites == 12
    assert spec.n_sites % 2 == 0
    spec = cdl.ssh_spec(15, 1, 0.4)
    basis = cdl.full_basis(spec, 0.4)
    numeric = np.linalg.eigvalsh(cdl.build_hamiltonian(spec))
    np.testing.assert_allclose([r.energy for r in basis], numeric, atol=1e-10)
    assert max(cdl.eigen_residual(spec, r) for r in basis) <= 1e-10


# ---------------------------------------------------------------------------
# real standing-wave snapshot
# ---------------------------------------------------------------------------

def max_relative(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("lam", [0.9, 0.3, -0.5, 1e-3, 0.97, -0.97])
@pytest.mark.parametrize("m_sites", [11, 13, 21, 101])
@pytest.mark.parametrize("x0", [-2, -1, 0, 1])
def test_snapshot_matches_two_branch_oracle(x0, m_sites, lam):
    spec = cdl.ssh_spec(m_sites + x0 + 1, x0, lam)
    energies, states, derivatives, norms = cdl.basis_and_derivatives(spec, lam)
    ref_energies, ref_states, ref_derivatives, ref_norms = two_branch_snapshot(spec, lam)
    phase = np.sum(states.conj() * ref_states, axis=1, keepdims=True)
    phase /= np.abs(phase)
    assert max_relative(energies, ref_energies) <= 1e-12
    assert max_relative(states * phase, ref_states) <= 1e-12
    assert max_relative(derivatives * phase, ref_derivatives) <= 1e-12
    assert max_relative(norms, ref_norms) <= 1e-12
    assert max_relative(1j * derivatives.T @ states.conj(),
                        1j * ref_derivatives.T @ ref_states.conj()) <= 1e-12


@given(half=st.integers(min_value=2, max_value=40),
       x0=st.integers(min_value=-2, max_value=1),
       size=st.floats(min_value=1e-3, max_value=0.97),
       sign=st.sampled_from([1.0, -1.0]))
def test_snapshot_rows_are_real_and_differentiate_to_derivatives(half, x0, size, sign):
    m_sites, lam, step = 2 * half + 1, sign * size, 1e-6
    L = m_sites + x0 + 1
    _, states, derivatives, _ = cdl.basis_and_derivatives(cdl.ssh_spec(L, x0, lam), lam)
    assert np.all(states[:-1].imag == 0.0) and np.all(derivatives[:-1].imag == 0.0)
    np.testing.assert_allclose(states.conj() @ states.T, np.eye(m_sites), rtol=0, atol=1e-12)
    # no gauge alignment: the rows themselves are smooth in lambda
    up = cdl.basis_and_derivatives(cdl.ssh_spec(L, x0, lam + step), lam + step)[1]
    down = cdl.basis_and_derivatives(cdl.ssh_spec(L, x0, lam - step), lam - step)[1]
    fd = (up - down) / (2 * step)
    error = np.linalg.norm(fd - derivatives, axis=1)
    assert np.all(error <= 1e-6 * np.linalg.norm(derivatives, axis=1))
