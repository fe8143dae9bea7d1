import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import cdlattice as cdl
import cdlattice.dynamics as dynamics
from cdlattice.dynamics import Protocol, convergence_sweep, default_dt, fidelity, propagate
from cdlattice.errors import InvalidSpecError, SingularityError
from cdlattice.lattice import LatticeSpec
from conftest import band_limit, builder, dense_midpoint_propagate


def test_fidelity_basics():
    a = np.array([1.0, 0.0, 0.0], dtype=complex)
    b = np.array([0.0, 1.0, 0.0], dtype=complex)
    assert fidelity(a, a) == 1.0
    assert fidelity(a, b) == 0.0
    assert fidelity(a, a * np.exp(0.37j)) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(InvalidSpecError):
        fidelity(a, 0.0 * a)


def test_band_limit_identity_and_zero():
    gen = cdl.full_cd(cdl.ssh_spec(11, -1, 0.5), 0.5).matrix
    np.testing.assert_array_equal(band_limit(gen, 10), gen)
    assert np.all(band_limit(gen, 0) == 0.0)  # generator diagonal is zero
    limited = band_limit(gen, 3)
    assert cdl.hermiticity_residual(limited) == 0.0
    with pytest.raises(InvalidSpecError):
        band_limit(gen, 11)
    with pytest.raises(InvalidSpecError):
        band_limit(gen, -1)


def test_protocol_schedule_endpoints_exact():
    protocol = Protocol(0.9, -0.9, 1.0)
    assert protocol.lam(0.0) == 0.9
    assert protocol.lam(1.0) == -0.9
    assert protocol.rate == -1.8
    with pytest.raises(InvalidSpecError):
        Protocol(0.9, -0.9, 0.0)
    with pytest.raises(InvalidSpecError):
        Protocol(0.9, -0.9, 1.0, cd_mode="sideways")


def test_bare_transfer_is_suppressed():
    protocol = Protocol(0.9, -0.9, 1.0, cd_mode="none")
    result = propagate(builder(11), protocol, default_dt(protocol))
    assert 1e-11 <= result.fidelity <= 1e-9
    assert result.norm_drift <= 1e-8
    assert result.steps == 10000


def test_bare_fidelity_self_converged():
    protocol = Protocol(0.9, -0.9, 1.0, cd_mode="none")
    trace = convergence_sweep(builder(11), protocol, default_dt(protocol))
    assert abs(trace[-1][1] - trace[-2][1]) < 1e-12


def test_longer_drive_is_more_adiabatic():
    make = builder(11)
    slow = propagate(make, Protocol(0.9, -0.9, 10.0, cd_mode="none"), 1e-3)
    fast = propagate(make, Protocol(0.9, -0.9, 1.0, cd_mode="none"), 1e-4)
    assert slow.fidelity > fast.fidelity


@pytest.mark.parametrize("mode", ["full", "targeted"])
def test_cd_transfer_certified_unit_fidelity(mode):
    protocol = Protocol(0.9, -0.9, 1.0, cd_mode=mode)
    trace = convergence_sweep(builder(11), protocol, 1e-3)
    assert len(trace) <= 4  # converges within three halvings
    assert trace[-1][1] >= 1 - 1e-6


def test_cd_transfer_tracks_instantaneous_state():
    protocol = Protocol(0.9, -0.9, 1.0, cd_mode="full")
    result = propagate(builder(11), protocol, 1e-3, trace_every=50)
    assert result.fidelity >= 1 - 1e-6
    assert result.norm_drift <= 1e-8
    assert min(r["fidelity_to_instantaneous"] for r in result.trace) >= 1 - 1e-6
    assert max(abs(r["energy"]) for r in result.trace) <= 1e-4
    assert max(abs(r["norm"] - 1) for r in result.trace) <= 1e-8


def test_truncation_recovers_limits():
    make = builder(11)
    dt = 1e-4
    f_none = propagate(make, Protocol(0.9, -0.9, 1.0, cd_mode="none"), dt).fidelity
    f_d0 = propagate(make, Protocol(0.9, -0.9, 1.0, cd_mode="full", band_limit=0), dt).fidelity
    assert abs(f_d0 - f_none) <= 1e-8
    f_full = propagate(make, Protocol(0.9, -0.9, 1.0, cd_mode="full"), dt).fidelity
    f_dmax = propagate(make, Protocol(0.9, -0.9, 1.0, cd_mode="full", band_limit=10), dt).fidelity
    assert abs(f_dmax - f_full) <= 1e-10


@pytest.mark.parametrize("m_sites", [11, 21, 101])
@pytest.mark.parametrize("x0", [-1, 0])
@pytest.mark.parametrize("mode,d", [("none", None), ("targeted", None), ("full", None),
                                    ("full", 0), ("full", 3)])
@pytest.mark.parametrize("total_time,dt", [(1.0, 0.05), (10.0, 0.5), (10.0, 2.5), (0.1, 1e-3),
                                          (1.0, 0.2)])
def test_step_matches_dense_midpoint_oracle(m_sites, x0, mode, d, total_time, dt):
    # dt 0.5 takes up to 2 Taylor substeps per step, dt 2.5 up to 9; dt 0.2 takes 5 steps,
    # so the middle midpoint is exactly lambda = 0. At 101 sites a CD chunk holds 12
    # midpoints and the block K is 51 x 51.
    protocol = Protocol(0.9, -0.9, total_time, cd_mode=mode, band_limit=d)
    make = builder(m_sites, x0)
    psi = propagate(make, protocol, dt).final_state
    assert np.linalg.norm(psi - dense_midpoint_propagate(make, protocol, dt)) <= 1e-12


@pytest.mark.parametrize("mode", ["none", "full"])
def test_trace_energy_matches_dense_expectation(mode):
    protocol = Protocol(0.9, -0.9, 1.0, cd_mode=mode)
    make = builder(11, 0)
    result = propagate(make, protocol, 0.05, trace_every=20)
    assert len(result.trace) == 1  # the last step, where the state is final_state
    psi = result.final_state
    dense = np.vdot(psi, cdl.build_hamiltonian(make(protocol.lambdaf)) @ psi).real
    assert abs(result.trace[-1]["energy"] - dense) <= 1e-12


def test_non_finite_generator_aborts(monkeypatch):
    def poisoned(spec, lam, mode):
        half = (spec.n_sites + 1) // 2
        return np.full((len(lam), half, half), np.nan)  # one block K per midpoint

    monkeypatch.setattr("cdlattice.dynamics.generator_blocks", poisoned)
    with pytest.raises(SingularityError, match="non-finite"):
        propagate(builder(11), Protocol(0.9, -0.9, 1.0, cd_mode="targeted"), 1e-2)


def test_drive_through_vanished_bond_aborts():
    protocol = Protocol(0.9, 1.1, 1.0, cd_mode="targeted")
    with pytest.raises(SingularityError):
        propagate(builder(11), protocol, 1e-3)


@pytest.mark.parametrize("steps_per_chunk", [None, 7])
def test_drive_through_vanished_bond_names_the_first_bad_midpoint(monkeypatch, steps_per_chunk):
    if steps_per_chunk:  # midpoint 500 then sits inside the chunk from 497
        monkeypatch.setattr("cdlattice.dynamics._CHUNK_BYTES", steps_per_chunk * 16 * 11 * 11)
    protocol = Protocol(0.9, 1.1, 1.0, cd_mode="targeted")
    # midpoint 499 is at lambda 0.9999, midpoint 500 at 1.0001
    with pytest.raises(SingularityError, match=r"t=0\.5005 \(lambda=1\.0001\)"):
        propagate(builder(11), protocol, 1e-3)


@pytest.mark.parametrize("x0", [-1, 0])
@pytest.mark.parametrize("mode,d", [("none", None), ("targeted", None), ("full", None),
                                    ("full", 0), ("full", 3)])
def test_final_state_does_not_depend_on_the_chunk(monkeypatch, x0, mode, d):
    protocol = Protocol(0.9, -0.9, 1.0, cd_mode=mode, band_limit=d)
    make = builder(11, x0)
    default = propagate(make, protocol, 0.02).final_state  # 50 steps: one default chunk
    step_bytes = 16 * 11 * 11  # an 11-site chain steps by dense real step matrices
    chunks = []
    build = dynamics._step_operators

    def counted(chain, lams, *rest):
        chunks.append(len(lams))
        return build(chain, lams, *rest)

    monkeypatch.setattr(dynamics, "_step_operators", counted)
    for steps_per_chunk in (1, 2, 7):
        monkeypatch.setattr(dynamics, "_CHUNK_BYTES", steps_per_chunk * step_bytes)
        chunks.clear()
        psi = propagate(make, protocol, 0.02).final_state
        assert chunks[0] == steps_per_chunk and sum(chunks) == 50
        np.testing.assert_array_equal(psi, default)


@pytest.mark.parametrize("mode,d", [("none", None), ("targeted", None), ("full", None),
                                    ("full", 3)])
def test_step_bound_equals_dense_column_sum(mode, d):
    from cdlattice.dynamics import _step_operators
    from cdlattice.lattice import LatticeSpec

    protocol = Protocol(-0.95, 0.8, 0.7, cd_mode=mode, band_limit=d)
    lams = np.linspace(-0.95, 0.8, 9)
    dt = 0.013
    *_, thetas = _step_operators(LatticeSpec(0, 22, -0.95), lams, protocol, dt)
    for lam, theta in zip(lams.tolist(), thetas):
        spec = cdl.ssh_spec(22, 0, lam)
        h = cdl.build_hamiltonian(spec)
        if mode == "none":
            assert theta == 2.0 * np.abs(spec.t).max() * dt
            continue
        gen = (cdl.full_cd if mode == "full" else cdl.targeted_cd)(spec, lam).matrix
        h = h + protocol.rate * (gen if d is None else band_limit(gen, d))
        assert theta >= np.linalg.norm(h, 2) * dt
        # the same column sums as the dense matrix's, added in another order
        assert abs(theta - np.abs(h).sum(axis=0).max() * dt) <= 4 * np.finfo(float).eps * theta


@pytest.mark.parametrize("m_sites,dt,mode", [(11, 1e-4, "full"), (11, 1e-4, "none"),
                                             (11, 1e-4, "targeted"), (101, 1e-3, "full")],
                         ids=["11-0.0001", "11-0.0001-none", "11-0.0001-targeted", "101-0.001"])
def test_propagate_peak_memory_is_bounded(m_sites, dt, mode):
    protocol = Protocol(0.9, -0.9, 1.0, cd_mode=mode)
    propagate(builder(m_sites), protocol, 0.1)  # caches filled outside the measurement
    tracemalloc.start()
    try:
        propagate(builder(m_sites), protocol, dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


@pytest.mark.parametrize("x0", [-1, 0])
@pytest.mark.parametrize("mode,d", [("none", None), ("targeted", None), ("full", None),
                                    ("full", 0), ("full", 3)])
@pytest.mark.parametrize("total_time,dt", [(1.0, 0.05), (10.0, 0.5), (10.0, 2.5), (0.1, 1e-3)])
def test_dense_and_series_steps_agree(monkeypatch, x0, mode, d, total_time, dt):
    # dt 2.5 takes up to 9 Taylor substeps per step
    protocol = Protocol(0.9, -0.9, total_time, cd_mode=mode, band_limit=d)
    make = builder(11, x0)
    chunks = []
    build = dynamics._step_matrices

    def counted(blocks, bond_rows, *plan):
        chunks.append(len(bond_rows))
        return build(blocks, bond_rows, *plan)

    monkeypatch.setattr(dynamics, "_step_matrices", counted)
    states = []
    for sites in (11, 10):  # 11 sites step by dense step matrices, then by the series
        monkeypatch.setattr(dynamics, "_DENSE_STEP_SITES", sites)
        states.append(propagate(make, protocol, dt).final_state)
    assert sum(chunks) == math.ceil(total_time / dt)  # every step of the first drive, no other
    assert np.abs(states[0] - states[1]).max() <= 1e-13


@given(m_sites=st.sampled_from(range(3, dynamics._DENSE_STEP_SITES + 1, 2)),
       x0=st.sampled_from([-1, 0]), mode=st.sampled_from(["none", "targeted", "full"]),
       lams=st.lists(st.floats(-0.99, 0.99), min_size=1, max_size=5),
       dt=st.floats(1e-4, 2.5))
def test_step_matrices_are_orthogonal(m_sites, x0, mode, lams, dt):
    protocol = Protocol(0.9, -0.9, 1.0, cd_mode=mode)
    chain = LatticeSpec(x0, m_sites + x0 + 1, 0.9)
    blocks, bond_rows, thetas = dynamics._step_operators(chain, np.array(lams), protocol, dt)
    u = dynamics._step_matrices(blocks, bond_rows, *dynamics._series_plan(thetas))
    assert np.abs(np.swapaxes(u, 1, 2) @ u - np.eye(m_sites)).max() <= 1e-14


def test_series_plan_matches_the_scalar_loop():
    def series_length(x):  # the remainder bound's loop, one theta at a time
        bound, k = math.exp(x), 0
        while True:
            bound *= x / (k + 1)
            if bound <= 2.0**-53:
                return k
            k += 1

    thetas = np.concatenate([np.random.default_rng(7).uniform(0.0, 40.0, 2000),
                             [0.0, 1e-12, 0.5, 1.0, 1.0 + 1e-15, 2.0, 999.5, 1e3]])
    substeps, terms = dynamics._series_plan(thetas)
    for theta, s, k in zip(thetas.tolist(), substeps.tolist(), terms.tolist()):
        assert s == max(1, math.ceil(theta)) and k == series_length(theta / s)


def test_invalid_step_rejected():
    with pytest.raises(InvalidSpecError):
        propagate(builder(11), Protocol(0.9, -0.9, 1.0), 0.0)
