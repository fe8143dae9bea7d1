import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdlattice as cdl
from cdlattice.errors import InvalidSpecError, NotHermitianError
from cdlattice.lattice import LatticeSpec


def test_eigh_uniform_three_site_chain():
    spec = LatticeSpec(x0=-1, L=3, t=np.ones(2, dtype=complex), mu=np.zeros(3), tau=1)
    w, v = cdl.eigh(cdl.build_hamiltonian(spec))
    np.testing.assert_allclose(w, [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-12)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(3), atol=1e-12)


def test_eigh_identity():
    w, _ = cdl.eigh(np.eye(5, dtype=complex))
    np.testing.assert_array_equal(w, np.ones(5))


def test_eigh_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NotHermitianError):
        cdl.eigh(m)
    with pytest.raises(InvalidSpecError):
        cdl.eigh(np.ones((2, 3)))


@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       size=st.sampled_from([3, 17, 64, 101, 401]))
@settings(max_examples=12)
def test_eigh_residual_and_orthonormality(seed, size):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    m = (a + a.conj().T) / 2
    w, v = cdl.eigh(m)
    scale = np.max(np.abs(m))
    assert np.all(np.diff(w) >= 0)
    assert np.max(np.abs(m @ v - v * w)) <= 1e-10 * scale * size
    assert np.max(np.abs(v.conj().T @ v - np.eye(size))) <= 1e-10 * size


def test_analytic_energies_match_eigh_large_chain():
    lam = 0.9
    spec = cdl.ssh_spec(101, -1, lam)
    w, _ = cdl.eigh(cdl.build_hamiltonian(spec))
    analytic = np.sort([r.energy for r in cdl.full_basis(spec, lam)])
    np.testing.assert_allclose(analytic, w, atol=1e-10)


# ---------------------------------------------------------------------------
# gaps
# ---------------------------------------------------------------------------

def test_gap_at_uniform_point():
    spec = cdl.ssh_spec(11, -1, 0.0)
    w = np.linalg.eigvalsh(cdl.build_hamiltonian(spec))
    gap = cdl.gap_to_zero_mode(w)
    assert gap == pytest.approx(2 * np.cos(5 * np.pi / 12), abs=1e-12)
    assert gap == pytest.approx(0.51764, abs=5e-6)


def test_gap_formula_reference_values():
    assert cdl.ssh_gap_formula(0.0, 11) == pytest.approx(2 * np.cos(5 * np.pi / 12), abs=1e-14)
    assert cdl.ssh_gap_formula(0.0, 101) == pytest.approx(2 * np.cos(50 * np.pi / 102), abs=1e-14)
    assert cdl.ssh_gap_formula(0.0, 101) == pytest.approx(0.0615901, abs=5e-8)


def test_gap_formula_matches_measured_gap():
    for L in (11, 51, 101):
        for lam in (0.0, 1e-3, -0.1):
            w = np.linalg.eigvalsh(cdl.build_hamiltonian(cdl.ssh_spec(L, -1, lam)))
            assert cdl.gap_to_zero_mode(w) == pytest.approx(
                cdl.ssh_gap_formula(lam, L), abs=1e-10
            )


def test_gap_formula_approaches_bulk_limit():
    lam = 1.8e-3
    values = [cdl.ssh_gap_formula(lam, L) for L in (11, 101, 1001, 100001)]
    deviations = [abs(v - 2 * lam) for v in values]
    assert all(a > b for a, b in zip(deviations, deviations[1:]))


def test_targeted_cd_doubles_the_gap():
    lam = 1.8e-3
    spec = cdl.ssh_spec(51, -1, lam)
    h = cdl.build_hamiltonian(spec)
    bare = cdl.gap_to_zero_mode(np.linalg.eigvalsh(h))
    modified = h + (-1.8) * cdl.targeted_cd(spec, lam).matrix
    cd_gap = cdl.gap_to_zero_mode(np.linalg.eigvalsh(modified))
    assert 1.6 <= cd_gap / bare <= 2.4


def test_gap_needs_two_levels():
    with pytest.raises(InvalidSpecError):
        cdl.gap_to_zero_mode(np.array([0.5]))


# ---------------------------------------------------------------------------
# norms and band ratios
# ---------------------------------------------------------------------------

def test_norm_edge_cases():
    zero = np.zeros((4, 4))
    assert cdl.frobenius_norm(zero) == 0.0
    assert cdl.diagonal_norm_ratio(zero, 2) == 1.0
    gen = cdl.full_cd(cdl.ssh_spec(11, -1, 0.4), 0.4).matrix
    assert cdl.diagonal_norm_ratio(gen, 10) == pytest.approx(1.0, abs=1e-15)


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=10)
def test_kept_norm_ratio_monotone(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    m = (a + a.conj().T) / 2
    ratios = [cdl.diagonal_norm_ratio(m, d) for d in range(12)]
    assert all(b >= a - 1e-14 for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_bare_sweep_structure():
    grid = np.linspace(-1, 1, 41)
    table = cdl.spectrum_sweep(101, -1, grid, mode="bare")
    assert table.eigenvalues.shape == (41, 101)
    for row in table.eigenvalues:
        assert np.all(np.diff(row) >= 0)
        np.testing.assert_allclose(row, -row[::-1], atol=1e-10)
        assert np.min(np.abs(row)) <= 1e-10  # in-gap line pinned at zero
    assert all(flag is None for flag in table.flags)


def test_bare_sweep_uniform_point():
    table = cdl.spectrum_sweep(11, -1, np.array([0.0]), mode="bare")
    np.testing.assert_allclose(
        table.eigenvalues[0], np.sort(2 * np.cos(np.pi * np.arange(1, 12) / 12)), atol=1e-12
    )


def test_cd_sweep_rejects_singular_grid_points():
    for bad in (0.0, 1.0, -1.0):
        with pytest.raises(InvalidSpecError):
            cdl.spectrum_sweep(11, -1, np.array([0.5, bad]), mode="targeted-cd")


def test_cd_sweep_flags_rows_beyond_gap_collapse():
    with pytest.warns(UserWarning):
        table = cdl.spectrum_sweep(11, -1, np.array([0.5, 1.2]), mode="targeted-cd")
    assert table.flags[0] is None
    assert table.flags[1] is not None
    assert np.all(np.isnan(table.eigenvalues[1]))
    assert np.all(np.isfinite(table.eigenvalues[0]))


def test_targeted_sweep_pushes_states_from_bands():
    grid = np.linspace(-0.9, 0.9, 30)  # even count keeps 0 off the grid
    table = cdl.spectrum_sweep(11, -1, grid, mode="targeted-cd", drive_rate=-1.8)
    bare = cdl.spectrum_sweep(11, -1, grid, mode="bare")
    min_gap_cd = min(cdl.gap_to_zero_mode(row) for row in table.eigenvalues)
    min_gap_bare = min(cdl.gap_to_zero_mode(row) for row in bare.eigenvalues)
    assert 1.6 <= min_gap_cd / min_gap_bare <= 2.4
    # spectral range grows: some states pushed out of the bare bands
    assert np.max(np.abs(table.eigenvalues)) > np.max(np.abs(bare.eigenvalues)) + 0.1


def test_sweep_unknown_mode_rejected():
    with pytest.raises(InvalidSpecError):
        cdl.spectrum_sweep(11, -1, np.array([0.5]), mode="sideways")
