import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cdlattice as cdl
from cdlattice.errors import InvalidSpecError
from cdlattice.lattice import LatticeSpec


def test_ssh_spec_alternating_bonds():
    spec = cdl.ssh_spec(11, -1, 0.9)
    assert spec.n_sites == 11
    assert len(spec.t) == 10
    bonds = np.arange(0, 10)
    expected = np.where(bonds % 2 == 0, 0.1, 1.9)
    np.testing.assert_allclose(spec.t.real, expected, atol=1e-15)
    assert np.all(spec.mu == 0)
    assert spec.tau == 2


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


def test_ssh_spec_flags_gapless_coupling():
    with pytest.warns(UserWarning):
        cdl.ssh_spec(11, -1, 1.0)


def test_spec_validation_shapes():
    with pytest.raises(InvalidSpecError):
        LatticeSpec(x0=-1, L=4, t=np.ones(5), mu=np.zeros(4), tau=1)
    with pytest.raises(InvalidSpecError):
        LatticeSpec(x0=-1, L=4, t=np.ones(3), mu=np.zeros(2), tau=1)


def test_three_site_uniform_chain_spectrum():
    spec = LatticeSpec(x0=-1, L=3, t=np.ones(2, dtype=complex), mu=np.zeros(3), tau=1)
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


def test_commensurate_flag():
    assert cdl.ssh_spec(11, -1, 0.5).is_commensurate
    assert not cdl.ssh_spec(10, -1, 0.5).is_commensurate
