import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdlattice as cdl
from cdlattice import dynamics
from cdlattice.errors import InvalidSpecError, NotHermitianError
from cdlattice.spectral import _secular_roots, bare_spectra, targeted_spectra
from conftest import band_limit


def test_eigh_uniform_three_site_chain():
    spec = cdl.ssh_spec(3, -1, 0.0)
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
    np.testing.assert_array_equal(cdl.diagonal_norm_ratios(zero), np.ones(4))
    gen = cdl.full_cd(cdl.ssh_spec(11, -1, 0.4), 0.4).matrix
    assert cdl.diagonal_norm_ratios(gen)[10] == pytest.approx(1.0, abs=1e-15)


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=10)
def test_kept_norm_ratio_monotone(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    m = (a + a.conj().T) / 2
    ratios = cdl.diagonal_norm_ratios(m)
    assert all(b >= a - 1e-14 for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx(1.0, abs=1e-14)
    # one pass gives the ratio of band-limiting to each d
    direct = [cdl.frobenius_norm(band_limit(m, d)) / cdl.frobenius_norm(m) for d in range(12)]
    np.testing.assert_allclose(ratios, direct, rtol=0, atol=1e-14)


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


def test_cd_sweep_flags_vanished_bonds_and_computes_zero():
    table = cdl.spectrum_sweep(11, -1, np.array([-1.0, 0.0, 1.0]), mode="targeted-cd",
                               drive_rate=-1.8)
    assert table.flags[0] is not None and table.flags[2] is not None
    assert np.all(np.isnan(table.eigenvalues[[0, 2]]))
    # lambda = 0 is a regular point of the odd chain
    assert table.flags[1] is None
    spec = cdl.ssh_spec(11, -1, 0.0)
    h = cdl.build_hamiltonian(spec) - 1.8 * cdl.targeted_cd(spec, 0.0).matrix
    np.testing.assert_allclose(table.eigenvalues[1], np.linalg.eigvalsh(h), rtol=0, atol=1e-12)


def test_cd_sweep_flags_rows_beyond_gap_collapse():
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


BARE_LAMBDAS = np.array([0.0, 1e-9, -1e-9, 0.3, 0.97, -0.97, 1.0, -1.0, 1.3])


@pytest.mark.parametrize("m_sites", [2, 3, 10, 11, 12, 101, 401])
@pytest.mark.parametrize("x0", [-1, 0, 1])
def test_bare_spectra_match_dense(m_sites, x0):
    L = m_sites + x0 + 1
    rows = bare_spectra(L, x0, BARE_LAMBDAS)
    for lam, row in zip(BARE_LAMBDAS, rows):
        dense = np.linalg.eigvalsh(cdl.build_hamiltonian(cdl.ssh_spec(L, x0, lam)))
        assert np.max(np.abs(row - dense)) <= 1e-12
        np.testing.assert_array_equal(row, -row[::-1])  # exactly +- symmetric
        if m_sites % 2:
            assert row[m_sites // 2] == 0.0


def test_bare_spectra_catch_a_dropped_odd_bond(monkeypatch):
    from cdlattice import spectral
    from cdlattice.lattice import LatticeSpec

    class DroppedBond(LatticeSpec):
        @property
        def t(self):
            bonds = super().t
            bonds[..., 1] = 0.0
            return bonds

    lam = np.array([0.3])
    dense = np.linalg.eigvalsh(cdl.build_hamiltonian(cdl.ssh_spec(11, -1, 0.3)))
    assert np.max(np.abs(bare_spectra(11, -1, lam)[0] - dense)) <= 1e-12
    monkeypatch.setattr(spectral, "ssh_spec", lambda L, x0, lam: DroppedBond(x0, L, lam))
    assert np.max(np.abs(bare_spectra(11, -1, lam)[0] - dense)) > 1e-3


def test_bare_spectra_reject_a_single_site():
    with pytest.raises(InvalidSpecError, match="at least 2 sites"):
        bare_spectra(1, -1, np.array([0.3]))  # M = 1


def test_bare_rows_do_not_depend_on_the_chunk(monkeypatch):
    grid = np.linspace(-0.99, 0.99, 7)
    whole = bare_spectra(101, -1, grid)
    monkeypatch.setattr(dynamics, "_CHUNK_BYTES", 3 * 8 * 51 * 50)  # three couplings a chunk
    np.testing.assert_array_equal(bare_spectra(101, -1, grid), whole)


# ---------------------------------------------------------------------------
# the targeted spectrum from its secular equation
# ---------------------------------------------------------------------------

SECULAR_LAMBDAS = np.array([0.0, 1e-9, -1e-9, 0.3, -0.57, 0.95, 0.97, -0.97])


def dense_targeted(L, x0, lam, rate=-1.8):
    spec = cdl.ssh_spec(L, x0, lam)
    return np.linalg.eigvalsh(cdl.build_hamiltonian(spec) + rate * cdl.targeted_cd(spec, lam).matrix)


@pytest.mark.parametrize("m_sites", [11, 21, 101, 401])
@pytest.mark.parametrize("x0", [-1, 0])
def test_secular_spectrum_matches_dense(m_sites, x0):
    L = m_sites + x0 + 1
    rows = targeted_spectra(L, x0, SECULAR_LAMBDAS, -1.8)
    assert rows.shape == (len(SECULAR_LAMBDAS), m_sites)
    for lam, row in zip(SECULAR_LAMBDAS, rows):
        np.testing.assert_allclose(row, dense_targeted(L, x0, lam), rtol=0, atol=1e-10)
        assert row[m_sites // 2] == 0.0  # E = 0 stays exact
        np.testing.assert_array_equal(row, -row[::-1])
        assert np.all(np.diff(row) > 0)


@pytest.mark.parametrize("m_sites", [11, 51, 101, 401])
@pytest.mark.parametrize("lam", [1.8e-3, -0.3, 0.9])
def test_secular_gap_between_first_two_band_energies(m_sites, lam):
    L = m_sites
    bare = np.linalg.eigvalsh(cdl.build_hamiltonian(cdl.ssh_spec(L, -1, lam)))
    e1, e2 = bare[m_sites // 2 + 1], bare[m_sites // 2 + 2]
    gap = cdl.gap_to_zero_mode(targeted_spectra(L, -1, np.array([lam]), -1.8)[0])
    assert 1.0 < gap / e1 < e2 / e1


def test_secular_gap_matches_criterion_6_dense_gap():
    # criterion 6 measures the CD gap with its own dense eigvalsh; gap-scaling reads the root
    for m_sites in (51, 101, 401):
        dense = cdl.gap_to_zero_mode(dense_targeted(m_sites, -1, 1.8e-3))
        secular = cdl.gap_to_zero_mode(targeted_spectra(m_sites, -1, np.array([1.8e-3]), -1.8)[0])
        assert secular == pytest.approx(dense, rel=1e-10)


def arrowhead_spectrum(energies, overlaps, rate):
    """Dense oracle: H + rate A in the basis (z, band 0, band 1) of the bare eigenstates."""
    n = len(energies)
    m = np.diag(np.concatenate(([0.0], energies, -energies)))
    m[0, 1:] = m[1:, 0] = rate * np.concatenate((overlaps, overlaps))
    return np.linalg.eigvalsh(m)


def secular_spectrum(energies, overlaps, rate):
    u = _secular_roots(energies[None] ** 2, 2 * rate**2 * overlaps[None] ** 2)[0]
    roots = np.sqrt(np.sort(u))
    return np.concatenate((-roots[::-1], [0.0], roots))


def test_secular_zero_weight_deflates():
    energies = np.array([0.2, 0.5, 0.9, 1.4, 2.0])
    overlaps = np.array([0.3, -0.7, 0.0, 0.4, 1.1])
    got = secular_spectrum(energies, overlaps, -1.8)
    np.testing.assert_allclose(got, arrowhead_spectrum(energies, overlaps, -1.8), rtol=0, atol=1e-13)
    assert 0.9 in got and -0.9 in got  # the deflated band energy stays a root


def test_secular_coincident_poles_pool_their_weights():
    energies = np.array([0.2, 0.5, 0.5, 0.5, 2.0])
    overlaps = np.array([0.3, -0.7, 0.2, 0.4, 1.1])
    np.testing.assert_allclose(secular_spectrum(energies, overlaps, 1.3),
                               arrowhead_spectrum(energies, overlaps, 1.3), rtol=0, atol=1e-13)
    # a chain so close to a vanished bond that its band energies round to one value
    lam = 0.9999999999999998
    np.testing.assert_allclose(targeted_spectra(22, 0, np.array([lam]), -1.8)[0],
                               dense_targeted(22, 0, lam), rtol=0, atol=1e-12)


def test_secular_zero_rate_gives_the_bare_spectrum():
    bare = np.linalg.eigvalsh(cdl.build_hamiltonian(cdl.ssh_spec(21, -1, 0.4)))
    np.testing.assert_allclose(targeted_spectra(21, -1, np.array([0.4]), 0.0)[0], bare,
                               rtol=0, atol=1e-13)


@given(seed=st.integers(min_value=0, max_value=2**31 - 1), n=st.integers(1, 30))
@settings(max_examples=40, deadline=None)
def test_secular_roots_match_rank_one_update(seed, n):
    rng = np.random.default_rng(seed)
    d = np.sort(10.0 ** rng.uniform(-4, 1, n))
    z = 10.0 ** rng.uniform(-20, 2, n) * (rng.random(n) > 0.2)
    expected = np.linalg.eigvalsh(np.diag(d) + np.outer(np.sqrt(z), np.sqrt(z)))
    got = np.sort(_secular_roots(d[None], z[None])[0])
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13 * max(d[-1], z.sum()))


@pytest.mark.parametrize("m_sites", [11, 101, 401])
def test_targeted_rows_do_not_depend_on_the_chunk(monkeypatch, m_sites):
    grid = np.linspace(-0.95, 0.95, 20)
    whole = targeted_spectra(m_sites, -1, grid, -1.8)
    n_k = (m_sites - 1) // 2
    for points in (1, 2, 7):
        monkeypatch.setattr(dynamics, "_CHUNK_BYTES", points * 8 * n_k * n_k)
        np.testing.assert_array_equal(targeted_spectra(m_sites, -1, grid, -1.8), whole)


def test_targeted_sweep_memory_stays_small():
    grid = np.linspace(-0.95, 0.95, 20)
    cdl.spectrum_sweep(401, -1, grid, mode="targeted-cd")  # fill the geometry cache first
    tracemalloc.start()
    try:
        cdl.spectrum_sweep(401, -1, grid, mode="targeted-cd")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


@pytest.mark.parametrize("mode, message", [("full-cd", "zero-mode action residual"),
                                           ("targeted-cd", "Parseval residual")])
def test_sweep_raises_failed_structure_checks(monkeypatch, mode, message):
    monkeypatch.setattr("cdlattice.cd._STRUCTURE_TOL", -1.0)
    with pytest.raises(ArithmeticError, match=message):
        cdl.spectrum_sweep(11, -1, np.array([-0.5, 0.5]), mode=mode)
