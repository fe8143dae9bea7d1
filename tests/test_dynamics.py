import numpy as np
import pytest

import cdlattice as cdl
from cdlattice.cd import GaugePotentialMatrix
from cdlattice.dynamics import Protocol, convergence_sweep, default_dt, fidelity, propagate
from cdlattice.errors import InvalidSpecError, SingularityError
from conftest import builder, dense_midpoint_propagate


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
    np.testing.assert_array_equal(cdl.band_limit(gen, 10), gen)
    assert np.all(cdl.band_limit(gen, 0) == 0.0)  # generator diagonal is zero
    limited = cdl.band_limit(gen, 3)
    assert cdl.hermiticity_residual(limited) == 0.0
    with pytest.raises(InvalidSpecError):
        cdl.band_limit(gen, 11)
    with pytest.raises(InvalidSpecError):
        cdl.band_limit(gen, -1)


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


@pytest.mark.parametrize("m_sites", [11, 21])
@pytest.mark.parametrize("x0", [-1, 0])
@pytest.mark.parametrize("mode,d", [("none", None), ("targeted", None), ("full", None),
                                    ("full", 0), ("full", 3)])
@pytest.mark.parametrize("total_time,dt", [(1.0, 0.05), (10.0, 0.5), (10.0, 2.5), (0.1, 1e-3),
                                          (1.0, 0.2)])
def test_step_matches_dense_midpoint_oracle(m_sites, x0, mode, d, total_time, dt):
    # dt 0.5 takes up to 2 Taylor substeps per step, dt 2.5 up to 9; dt 0.2 takes 5 steps,
    # so the middle midpoint is exactly lambda = 0
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
    def poisoned(spec, lam):
        half = (spec.n_sites + 1) // 2
        return GaugePotentialMatrix(np.full((half, half), np.nan))

    monkeypatch.setattr("cdlattice.dynamics.targeted_cd", poisoned)
    with pytest.raises(SingularityError, match="non-finite"):
        propagate(builder(11), Protocol(0.9, -0.9, 1.0, cd_mode="targeted"), 1e-2)


def test_drive_through_vanished_bond_aborts():
    protocol = Protocol(0.9, 1.1, 1.0, cd_mode="targeted")
    with pytest.raises(SingularityError):
        propagate(builder(11), protocol, 1e-3)


def test_invalid_step_rejected():
    with pytest.raises(InvalidSpecError):
        propagate(builder(11), Protocol(0.9, -0.9, 1.0), 0.0)
