import cmath

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cdlattice as cdl
from cdlattice.errors import SingularityError
from conftest import builder, fd_state_derivative, max_relative, project_out, snapshot_rows

FD_STEP = 1e-6


# ---------------------------------------------------------------------------
# mode-parameter derivative
# ---------------------------------------------------------------------------

def test_dalpha_vanishes_for_band_states():
    assert cdl.ssh_dalpha(cmath.exp(1j * np.pi / 4), 0.7, "bulk") == 0.0


def test_dalpha_zero_mode_manifold_value():
    # on the zero-mode branch the rational form reduces to -alpha/(1-lam^2)
    alpha = 1j * 0.5773502691896258
    value = cdl.ssh_dalpha(alpha, 0.5, "in-gap")
    assert value == pytest.approx(-alpha / (1 - 0.25), abs=1e-12)
    assert value.imag == pytest.approx(-0.7698003589195011, abs=1e-12)


@pytest.mark.parametrize("lam", [0.5, 0.9, 0.999, -0.6])
def test_dalpha_matches_finite_difference(lam):
    make = builder(101)
    alpha = cdl.edge_alpha(make(lam), lam)
    analytic = cdl.ssh_dalpha(alpha, lam, "in-gap")
    up = cdl.edge_alpha(make(lam + FD_STEP), lam + FD_STEP)
    down = cdl.edge_alpha(make(lam - FD_STEP), lam - FD_STEP)
    fd = (up - down) / (2 * FD_STEP)
    assert abs(analytic - fd) / abs(fd) <= 1e-6


def test_dalpha_singular_couplings():
    for lam in (0.0, 1.0, -1.0):
        with pytest.raises(SingularityError):
            cdl.ssh_dalpha(0.5j, lam, "in-gap")


# ---------------------------------------------------------------------------
# Bloch derivatives
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lam", [0.3, -0.7, 0.05])
@pytest.mark.parametrize("s", [0, 1])
def test_dbloch_matches_finite_difference(lam, s):
    alpha = cmath.exp(1j * np.pi / 3)
    energy = cdl.ssh_energy(alpha, lam, s)
    d_plus, d_minus = cdl.ssh_dbloch(alpha, lam, 0.0, energy)
    up = cdl.ssh_bloch(alpha, lam + FD_STEP, s)
    down = cdl.ssh_bloch(alpha, lam - FD_STEP, s)
    fd_plus = (up.phi_plus[1] - down.phi_plus[1]) / (2 * FD_STEP)
    fd_minus = (up.phi_minus[1] - down.phi_minus[1]) / (2 * FD_STEP)
    assert abs(d_plus[1] - fd_plus) / abs(fd_plus) <= 1e-6
    assert abs(d_minus[1] - fd_minus) / abs(fd_minus) <= 1e-6
    assert d_plus[0] == 0.0 and d_minus[0] == 0.0


def test_dbloch_closed_form_at_zero_coupling():
    alpha = cmath.exp(1j * np.pi / 5)
    energy = cdl.ssh_energy(alpha, 0.0, 0)
    d_plus, _ = cdl.ssh_dbloch(alpha, 0.0, 0.0, energy)
    assert d_plus[1] == pytest.approx((1 - alpha**4) / (-(alpha**3) - alpha) / energy)


def test_dbloch_rejects_zero_energy():
    with pytest.raises(SingularityError):
        cdl.ssh_dbloch(0.5j, 0.5, 0.0, 0.0)


# ---------------------------------------------------------------------------
# norm derivative
# ---------------------------------------------------------------------------

def test_d_norm_zero_for_band_states():
    lam = 0.8
    spec = cdl.ssh_spec(11, -1, lam)
    basis = cdl.full_basis(spec, lam)
    index, record = next((i, r) for i, r in enumerate(basis) if r.kind == "bulk")
    states, derivatives = snapshot_rows(spec, lam)
    np.testing.assert_allclose(states[index], record.coeffs, atol=1e-14)
    # evaluating the defining sum explicitly gives zero
    psi_tilde = record.coeffs / record.norm
    dpsi_tilde = derivatives[index] / record.norm  # projected derivative, same norm content
    paired = np.sum(psi_tilde.conj() * dpsi_tilde + psi_tilde * dpsi_tilde.conj())
    assert abs(paired.imag) <= 1e-10
    assert abs(cdl.d_norm(record, dpsi_tilde)) <= 1e-10


@pytest.mark.parametrize("lam", [0.9, 0.3, -0.6])
def test_d_norm_matches_finite_difference(lam):
    make = builder(11)
    record = cdl.in_gap_record(make(lam), lam)
    xs = make(lam).sites()
    psi_tilde = record.coeffs / record.norm
    dpsi_tilde = psi_tilde * xs * (-1.0 / (1 - lam**2))
    value = cdl.d_norm(record, dpsi_tilde)
    up = cdl.in_gap_record(make(lam + FD_STEP), lam + FD_STEP).norm
    down = cdl.in_gap_record(make(lam - FD_STEP), lam - FD_STEP).norm
    fd = (up - down) / (2 * FD_STEP)
    assert abs(value - fd) / abs(fd) <= 1e-6


# ---------------------------------------------------------------------------
# coupling kernels
# ---------------------------------------------------------------------------

def test_kernel_diagonal_sums_vanish(ssh11_09):
    spec, lam = ssh11_09
    for psi, dpsi in zip(*snapshot_rows(spec, lam)):
        theta = np.outer(dpsi, psi.conj())
        assert abs(np.trace(theta)) <= 1e-10


def test_kernel_rank_one_norm_identity(ssh11_09):
    spec, lam = ssh11_09
    states, derivatives = snapshot_rows(spec, lam)
    theta = np.outer(derivatives[3], states[3].conj())
    assert np.linalg.norm(theta) == pytest.approx(np.linalg.norm(derivatives[3]), rel=1e-12)


def test_kernel_in_gap_concentrated_at_populated_edge(ssh11_09):
    spec, lam = ssh11_09
    _, states, derivatives, _ = cdl.basis_and_derivatives(spec, lam)
    np.testing.assert_array_equal(states[-1], cdl.in_gap_record(spec, lam).coeffs)
    weight = np.abs(np.outer(derivatives[-1], states[-1].conj())) ** 2
    half = spec.n_sites // 2 + 1
    assert weight[:half, :half].sum() / weight.sum() >= 0.99


def test_kernel_matches_gauge_fixed_finite_difference(ssh11_09):
    spec, lam = ssh11_09
    record = cdl.full_basis(spec, lam)[5]
    states, derivatives = snapshot_rows(spec, lam)
    np.testing.assert_allclose(states[5], record.coeffs, atol=1e-14)
    fd = fd_state_derivative(11, lam, record, step=FD_STEP)
    fd = project_out(record.coeffs, fd)
    theta_fd = np.outer(fd, record.coeffs.conj())
    theta = np.outer(derivatives[5], states[5].conj())
    assert np.max(np.abs(theta - theta_fd)) <= 1e-6


def test_bundle_derivative_orthogonal_to_state(ssh11_09):
    spec, lam = ssh11_09
    for psi, dpsi in zip(*snapshot_rows(spec, lam)):
        assert abs(np.vdot(psi, dpsi)) <= 1e-12


# ---------------------------------------------------------------------------
# full generator
# ---------------------------------------------------------------------------

def test_full_generator_hermitian_with_zero_diagonal(ssh11_09):
    spec, lam = ssh11_09
    gen = cdl.full_cd(spec, lam)
    assert cdl.hermiticity_residual(gen.matrix) == 0.0
    assert np.all(np.diag(gen.matrix) == 0.0)


def test_full_generator_raw_sum_residual(ssh11_09):
    spec, lam = ssh11_09
    _, states, derivatives, _ = cdl.basis_and_derivatives(spec, lam)
    raw = 1j * derivatives.T @ states.conj()
    assert cdl.hermiticity_residual(raw) <= 1e-10 * np.max(np.abs(raw))
    diag = np.max(np.abs(np.diag(raw)))
    assert diag <= 1e-10 * np.max(np.abs(raw))


@pytest.mark.parametrize("lam", [0.9, 0.1, 1e-2])
def test_full_generator_action_identity(lam):
    spec = cdl.ssh_spec(11, -1, lam)
    gen = cdl.full_cd(spec, lam).matrix
    worst = 0.0
    for record in cdl.full_basis(spec, lam):
        fd = fd_state_derivative(11, lam, record, step=FD_STEP)
        expected = 1j * project_out(record.coeffs, fd)
        worst = max(worst, float(np.max(np.abs(gen @ record.coeffs - expected))))
    assert worst <= 1e-6


def test_full_generator_range_grows_near_gap_closing():
    make = builder(101)
    near = cdl.full_cd(make(0.9), 0.9).matrix
    far = cdl.full_cd(make(1e-3), 1e-3).matrix
    assert cdl.diagonal_norm_ratios(near)[10] >= 0.9
    assert cdl.diagonal_norm_ratios(far)[10] <= 0.5


def test_full_generator_norm_peaks_at_gap_closing():
    make = builder(101)
    peak = cdl.frobenius_norm(cdl.full_cd(make(1e-3), 1e-3).matrix)
    away = cdl.frobenius_norm(cdl.full_cd(make(0.9), 0.9).matrix)
    assert peak >= 10 * away


# ---------------------------------------------------------------------------
# targeted generator
# ---------------------------------------------------------------------------

def test_targeted_generator_exactly_hermitian_rank_two(ssh11_09):
    spec, lam = ssh11_09
    gen = cdl.targeted_cd(spec, lam)
    assert cdl.hermiticity_residual(gen.matrix) == 0.0
    svals = np.linalg.svd(gen.matrix, compute_uv=False)
    assert svals[2] <= 1e-12 * svals[0]


def test_targeted_generator_concentrated_and_aperiodic(ssh11_09):
    spec, lam = ssh11_09
    weight = np.abs(cdl.targeted_cd(spec, lam).matrix) ** 2
    half = spec.n_sites // 2 + 1
    assert weight[:half, :half].sum() / weight.sum() >= 0.99
    # in-gap kernel couples one sublattice: even-distance hops only, and
    # their strengths decay from the populated edge (no cell periodicity)
    hops = np.abs(np.diag(cdl.targeted_cd(spec, lam).matrix, 2))
    assert np.abs(np.diag(cdl.targeted_cd(spec, lam).matrix, 1)).max() == 0.0
    assert not np.allclose(hops[:-2], hops[2:], rtol=1e-3, atol=1e-12)


def test_targeted_matches_full_on_transitions_out_of_edge_state(ssh11_09):
    spec, lam = ssh11_09
    basis = cdl.full_basis(spec, lam)
    edge = next(r for r in basis if r.kind == "in-gap")
    full_m = cdl.full_cd(spec, lam).matrix
    targeted_m = cdl.targeted_cd(spec, lam).matrix
    for record in basis:
        if record.kind == "in-gap":
            continue
        lhs = np.vdot(record.coeffs, targeted_m @ edge.coeffs)
        rhs = np.vdot(record.coeffs, full_m @ edge.coeffs)
        assert abs(lhs - rhs) <= 1e-6


# ---------------------------------------------------------------------------
# dense oracle on every wall parity
# ---------------------------------------------------------------------------

def dense_cd_oracle(spec, lam):
    """<m|A|n> = i<m|dH|n>/(E_n - E_m) from a dense eigendecomposition.

    The bonds 1 - lam*(-1)^x are linear in lam, so dH/dlam is exact.
    """
    w, v = np.linalg.eigh(cdl.build_hamiltonian(spec))
    bonds = np.arange(spec.x0 + 1, spec.L - 1)
    dh = np.diag(-np.where(bonds % 2 == 0, 1.0, -1.0), 1).astype(complex)
    dh += dh.T
    gaps = w[None, :] - w[:, None]
    np.fill_diagonal(gaps, 1.0)
    coupling = 1j * (v.conj().T @ dh @ v) / gaps
    np.fill_diagonal(coupling, 0.0)
    return v @ coupling @ v.conj().T


@pytest.mark.parametrize("lam", [0.9, 0.3, -0.5, 0.0, 1e-3, -0.97])
@pytest.mark.parametrize("m_sites", [11, 13, 21])
@pytest.mark.parametrize("x0", [-2, -1, 0, 1])
def test_generators_match_dense_oracle_on_both_wall_parities(x0, m_sites, lam):
    spec = cdl.ssh_spec(m_sites + x0 + 1, x0, lam)
    oracle = dense_cd_oracle(spec, lam)
    scale = np.max(np.abs(oracle))
    full_gen, targeted_gen = cdl.full_cd(spec, lam), cdl.targeted_cd(spec, lam)
    full = full_gen.matrix
    assert np.max(np.abs(full - oracle)) <= 1e-10 * scale
    psi = cdl.in_gap_record(spec, lam).coeffs
    column = oracle @ psi
    targeted = targeted_gen.matrix @ psi
    assert np.max(np.abs(targeted - column)) <= 1e-10 * np.max(np.abs(column))
    # both are stored as the read-only real vectors (t, p, q) of the real
    # antisymmetric K of A = i K on the zero-mode sublattice; .block builds K
    # and .matrix embeds exactly that
    half = (m_sites + 1) // 2
    for gen in (full_gen, targeted_gen):
        for vector in (gen.t, gen.p, gen.q):
            assert vector.shape == (half,)
            assert vector.dtype == np.float64 and not vector.flags.writeable
        block, matrix = gen.block, gen.matrix
        assert block.shape == (half, half) and block.dtype == np.float64
        assert np.all(block + block.T == 0.0)
        np.testing.assert_array_equal(matrix.imag[::2, ::2], block)
        off_block = matrix.copy()
        off_block[::2, ::2] = 0.0
        assert np.all(off_block == 0.0)
        assert np.all(matrix.real == 0.0)
        assert cdl.frobenius_norm(block) == pytest.approx(cdl.frobenius_norm(matrix), rel=1e-13)
        assert gen.frobenius == pytest.approx(cdl.frobenius_norm(block), rel=1e-12)


def test_geometry_cache_is_bounded():
    from cdlattice.cd import _toeplitz_geometry
    from cdlattice.states import _geometry, _zero_mode_geometry

    _geometry.cache_clear()
    bound = _geometry.cache_info().maxsize
    sizes = range(11, 11 + 2 * (bound + 2), 2)
    for m_sites in sizes:
        spec = cdl.ssh_spec(m_sites, -1, 0.5)
        cdl.full_cd(spec, 0.5)
        cdl.targeted_cd(spec, 0.5)
        cdl.in_gap_record(spec, 0.5)
    assert _geometry.cache_info().currsize == 0  # the zero mode never builds the band tables
    for cache in (_zero_mode_geometry, _toeplitz_geometry):
        assert cache.cache_info().currsize == cache.cache_info().maxsize == bound
    for m_sites in sizes:
        cdl.basis_and_derivatives(cdl.ssh_spec(m_sites, -1, 0.5), 0.5)
    assert _geometry.cache_info().currsize == bound


# ---------------------------------------------------------------------------
# closed form: the stored vectors (t, p, q)
# ---------------------------------------------------------------------------

CLOSED_FORM_LAMBDAS = [0.0, 1e-8, -1e-8, 1e-3, 0.3, -0.5, 0.97, -0.97]


@pytest.mark.parametrize("lam", CLOSED_FORM_LAMBDAS)
@pytest.mark.parametrize("x0", [-1, 0])
@pytest.mark.parametrize("m_sites", [11, 101, 401])
def test_factor_norms_match_block_and_dense_oracle(m_sites, x0, lam):
    spec = cdl.ssh_spec(m_sites + x0 + 1, x0, lam)
    full, targeted = cdl.full_cd(spec, lam), cdl.targeted_cd(spec, lam)
    oracle = dense_cd_oracle(spec, lam)
    psi = cdl.in_gap_record(spec, lam).coeffs
    derivatives = cdl.basis_and_derivatives(spec, lam)[2]
    # the targeted term is A|z><z| + |z><z|A with <z|A|z> = 0, and
    # ||sum_n |d n><n| ||_F^2 = sum_n ||d n||^2 over orthonormal states
    dense = (np.linalg.norm(oracle), np.sqrt(2.0) * np.linalg.norm(oracle @ psi))
    k_sum = (np.linalg.norm(derivatives), np.sqrt(2.0) * np.linalg.norm(derivatives[-1]))
    # at |lambda| = 0.97 a band is 0.06 wide, and from 101 sites on eigh's
    # roundoff over its level spacings leaves the dense oracle ~1e-11 off
    dense_resolves = abs(lam) < 0.9 or m_sites == 11
    for gen, dense_norm, k_sum_norm in zip((full, targeted), dense, k_sum):
        assert gen.frobenius == pytest.approx(cdl.frobenius_norm(gen.block), rel=1e-12)
        assert gen.frobenius == pytest.approx(k_sum_norm, rel=1e-12)
        if dense_resolves:
            assert gen.frobenius == pytest.approx(dense_norm, rel=1e-12)


@pytest.mark.parametrize("lam", CLOSED_FORM_LAMBDAS)
@pytest.mark.parametrize("x0", [-2, -1, 0, 1])
@pytest.mark.parametrize("m_sites", [11, 101])
def test_closed_form_matches_band_sum(m_sites, x0, lam):
    # i sum_n |d psi_n><psi_n| over the rows of the k-sum snapshot, an assembly
    # that full_cd does not read
    spec = cdl.ssh_spec(m_sites + x0 + 1, x0, lam)
    _, states, derivatives, _ = cdl.basis_and_derivatives(spec, lam)
    band_sum = 1j * derivatives.T @ states.conj()
    assert max_relative(cdl.full_cd(spec, lam).matrix, band_sum) <= 1e-11


@given(half=st.integers(min_value=2, max_value=60),
       x0=st.integers(min_value=-2, max_value=1),
       shift=st.integers(min_value=-10**6, max_value=10**6),
       lam=st.one_of(st.sampled_from([0.0, 0.999, -0.999]),
                     st.floats(min_value=-0.999, max_value=0.999, allow_subnormal=False)))
def test_wall_shift_leaves_generators_unchanged(half, x0, shift, lam):
    # moving both walls by 2s flips the zero mode's phase i^x by (-1)^s; the
    # stored vectors divide that phase out, so they and K do not move at all
    m_sites = 2 * half + 1
    specs = [cdl.ssh_spec(m_sites + x + 1, x, lam) for x in (x0, x0 + 2 * shift)]
    psi = [cdl.in_gap_record(spec, lam).coeffs for spec in specs]
    np.testing.assert_array_equal(psi[1], (-1) ** shift * psi[0])
    for make in (cdl.full_cd, cdl.targeted_cd):
        base, moved = (make(spec, lam) for spec in specs)
        for a, b in ((base.t, moved.t), (base.p, moved.p), (base.q, moved.q),
                     (base.block, moved.block)):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(a))
        assert moved.frobenius == pytest.approx(base.frobenius, rel=1e-13)


def test_cd_reads_no_band_state_helper():
    # the band k-sum of states stays an independent oracle for the closed form
    import ast
    import inspect

    import cdlattice.cd

    from_states = []
    for node in ast.walk(ast.parse(inspect.getsource(cdlattice.cd))):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        names = [alias.name for alias in node.names]
        assert not any(name.endswith("states") for name in names)  # no module handle
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("states"):
            from_states += names
    assert from_states and all("zero_mode" in name for name in from_states)


@pytest.mark.parametrize("mode", ["full", "targeted"])
@pytest.mark.parametrize("m_sites,x0", [(11, -1), (21, 0), (101, 1)])
def test_generator_blocks_match_single_lambda_calls(mode, m_sites, x0):
    from cdlattice.cd import generator_blocks
    from cdlattice.lattice import LatticeSpec

    lams = np.array(CLOSED_FORM_LAMBDAS + [0.999, -0.999])
    L = m_sites + x0 + 1
    blocks = generator_blocks(LatticeSpec(x0, L, lams), lams, mode)
    make = cdl.full_cd if mode == "full" else cdl.targeted_cd
    for lam, block in zip(lams.tolist(), blocks):
        np.testing.assert_array_equal(block, make(cdl.ssh_spec(L, x0, lam), lam).block)


def test_generator_blocks_name_the_first_vanished_bond():
    from cdlattice.cd import generator_blocks
    from cdlattice.lattice import LatticeSpec

    lams = np.array([0.5, 0.99, 1.0, -1.5])
    with pytest.raises(SingularityError, match=r"lambda=1\.0:"):
        generator_blocks(LatticeSpec(-1, 11, lams), lams, "targeted")


@pytest.mark.parametrize("lam", CLOSED_FORM_LAMBDAS)
def test_full_and_targeted_share_one_zero_mode(lam):
    from cdlattice.cd import full_and_targeted_cd

    spec = cdl.ssh_spec(102, 0, lam)  # 101 sites
    for joint, alone in zip(full_and_targeted_cd(spec, lam),
                            (cdl.full_cd(spec, lam), cdl.targeted_cd(spec, lam))):
        for field in "tpq":
            np.testing.assert_array_equal(getattr(joint, field), getattr(alone, field))
