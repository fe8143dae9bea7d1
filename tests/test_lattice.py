import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cdlattice as cdl
from cdlattice.errors import InvalidSpecError


def test_ssh_spec_alternating_bonds():
    spec = cdl.ssh_spec(11, -1, 0.9)
    assert spec.n_sites == 11
    assert len(spec.t) == 10
    bonds = np.arange(0, 10)
    expected = np.where(bonds % 2 == 0, 0.1, 1.9)
    np.testing.assert_allclose(spec.t.real, expected, atol=1e-15)
    assert np.all(spec.mu == 0)


def test_ssh_spec_uniform_at_zero_coupling():
    spec = cdl.ssh_spec(101, -1, 0.0)
    assert len(spec.t) == 100
    np.testing.assert_allclose(spec.t.real, 1.0)


def test_ssh_spec_weak_dimerisation():
    spec = cdl.ssh_spec(101, -1, 1e-3)
    np.testing.assert_allclose(spec.t.real[::2], 0.999)
    np.testing.assert_allclose(spec.t.real[1::2], 1.001)


def test_ssh_spec_too_small_rejected():
    with pytest.raises(InvalidSpecError):
        cdl.ssh_spec(1, -1, 0.5)


def test_three_site_uniform_chain_spectrum():
    spec = cdl.ssh_spec(3, -1, 0.0)
    h = cdl.build_hamiltonian(spec)
    # k = pi n / 4 gives E = 2 cos(pi n / 4)
    expected = np.sort([2 * np.cos(np.pi * n / 4) for n in (1, 2, 3)])
    np.testing.assert_allclose(np.linalg.eigvalsh(h), expected, atol=1e-12)


def test_build_hamiltonian_ssh_structure():
    spec = cdl.ssh_spec(11, -1, 0.9)
    h = cdl.build_hamiltonian(spec)
    assert np.all(np.diag(h) == 0)
    np.testing.assert_allclose(np.diag(h, 1).real, spec.t.real)
    assert np.array_equal(h, h.conj().T)


@given(
    m=st.integers(min_value=3, max_value=41),
    lam=st.floats(min_value=-0.95, max_value=0.95),
)
def test_ssh_spectrum_symmetric_pairs(m, lam):
    spec = cdl.ssh_spec(m, -1, lam)
    w = np.linalg.eigvalsh(cdl.build_hamiltonian(spec))
    np.testing.assert_allclose(w, -w[::-1], atol=1e-10)
    if m % 2 == 1:
        assert np.min(np.abs(w)) <= 1e-10


@given(
    x0=st.sampled_from([-2, -1, 0, 1]),
    m=st.integers(min_value=2, max_value=41),
    lam=st.floats(min_value=-1.5, max_value=1.5),
)
def test_hamiltonian_bonds_follow_absolute_site_labels(x0, m, lam):
    h = cdl.build_hamiltonian(cdl.ssh_spec(m + x0 + 1, x0, lam))
    assert np.all(np.diag(h) == 0)
    for i in range(m - 1):
        bond = 1.0 - lam * (-1) ** (x0 + 1 + i)  # couples sites x0+1+i and x0+2+i
        assert h[i, i + 1] == bond and h[i + 1, i] == bond


def test_bonds_broadcast_over_an_array_of_couplings():
    from cdlattice.lattice import LatticeSpec

    lams = np.array([0.9, 0.0, -0.37])
    rows = LatticeSpec(0, 12, lams).t
    assert rows.shape == (3, 10)
    for lam, row in zip(lams.tolist(), rows):
        np.testing.assert_array_equal(row, cdl.ssh_spec(12, 0, lam).t)
