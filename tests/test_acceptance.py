"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The drive runs certify their step through the halving sweep (the certified
step is the last sweep entry); structural checks use the stated tolerances
directly.
"""

import cmath

import numpy as np

import cdlattice as cdl
from cdlattice.dynamics import Protocol, convergence_sweep, default_dt, propagate
from conftest import builder, fd_state_derivative, project_out


def report(number: int, ok: bool, detail: str):
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


def test_criterion_1_analytic_numeric_eigenbasis_equivalence():
    worst_residual = 0.0
    worst_energy = 0.0
    for m_sites in (11, 101):
        make = builder(m_sites)
        for lam in (0.9, -0.9, 0.5, -0.5, 0.1, -0.1, 1e-3, -1e-3):
            spec = make(lam)
            basis = cdl.full_basis(spec, lam)
            assert len(basis) == m_sites
            worst_residual = max(
                worst_residual, max(cdl.eigen_residual(spec, r) for r in basis)
            )
            numeric, _ = cdl.eigh(cdl.build_hamiltonian(spec))
            analytic = np.sort([r.energy for r in basis])
            worst_energy = max(worst_energy, float(np.max(np.abs(analytic - numeric))))
    ok = worst_residual <= 1e-10 and worst_energy <= 1e-10
    report(1, ok, f"closed-form basis vs dense diagonalization: "
                  f"max residual {worst_residual:.2e}, max energy gap {worst_energy:.2e}")


def test_criterion_2_edge_mode_parameter():
    make = builder(101)
    a_strong = abs(cdl.edge_alpha(make(0.999), 0.999))
    a_weak = abs(cdl.edge_alpha(make(1e-3), 1e-3))
    three_sf = abs(a_strong - 0.0224) < 5e-5 and abs(a_weak - 0.999) < 5e-4
    grid = np.linspace(-0.97, 0.97, 50)
    grid = grid[np.abs(grid) > 1e-6]
    worst = max(
        abs(abs(cdl.edge_alpha(make(lam), lam))
            - np.sqrt((1 - abs(lam)) / (1 + abs(lam))))
        for lam in grid
    )
    ok = three_sf and worst <= 1e-10
    report(2, ok, f"edge mode parameter: a(0.999)={a_strong:.4f}, a(0.001)={a_weak:.4f}, "
                  f"closed-form deviation {worst:.2e} over {len(grid)} couplings")


def test_criterion_3_bare_transfer_fidelity():
    protocol = Protocol(0.9, -0.9, 1.0, cd_mode="none")
    trace11 = convergence_sweep(builder(11), protocol, default_dt(protocol))
    f11 = trace11[-1][1]
    trace101 = convergence_sweep(builder(101), protocol, default_dt(protocol))
    f101 = trace101[-1][1]
    ok = 1e-11 <= f11 <= 1e-9 and f101 < 1e-12
    report(3, ok, f"bare transfer: F(11 sites)={f11:.3e} (window 1e-11..1e-9), "
                  f"F(101 sites)={f101:.3e} (< 1e-12)")


def test_criterion_4_cd_exactness():
    results = []
    for m_sites in (11, 101):
        for mode in ("full", "targeted"):
            for total_time in (0.1, 1.0, 10.0):
                protocol = Protocol(0.9, -0.9, total_time, cd_mode=mode)
                trace = convergence_sweep(builder(m_sites), protocol, total_time * 4e-3)
                results.append((m_sites, mode, total_time, trace[-1][1]))
    worst = min(f for *_, f in results)
    ok = worst >= 1 - 1e-6
    lines = ", ".join(f"M={m} {mode} T={t}: 1-F={1-f:.1e}" for m, mode, t, f in results)
    report(4, ok, f"certified CD transfer at unit fidelity; worst F={worst:.9f} ({lines})")


def test_criterion_5_gap_formula():
    worst = 0.0
    for L in (11, 51, 101, 201):
        for lam in (0.0, 1e-3, -1e-3, 0.1, -0.1):
            w = np.linalg.eigvalsh(cdl.build_hamiltonian(cdl.ssh_spec(L, -1, lam)))
            worst = max(worst, abs(cdl.gap_to_zero_mode(w) - cdl.ssh_gap_formula(lam, L)))
    lam = 1.8e-3
    deviations = [abs(cdl.ssh_gap_formula(lam, L) - 2 * lam) for L in (11, 51, 101, 201, 401)]
    monotone = all(a > b for a, b in zip(deviations, deviations[1:]))
    ok = worst <= 1e-10 and monotone
    report(5, ok, f"closed-form gap vs measured: max deviation {worst:.2e}; "
                  f"approach to the 2*lambda limit monotone: {monotone}")


def test_criterion_6_targeted_cd_gap_ratio():
    lam = 1.8e-3
    rate = -1.8
    ratios = {}
    for m_sites in (51, 101, 151, 201, 301, 401):
        spec = cdl.ssh_spec(m_sites, -1, lam)
        h = cdl.build_hamiltonian(spec)
        bare = cdl.gap_to_zero_mode(np.linalg.eigvalsh(h))
        modified = h + rate * cdl.targeted_cd(spec, lam).matrix
        ratios[m_sites] = cdl.gap_to_zero_mode(np.linalg.eigvalsh(modified)) / bare
    in_band = all(1.6 <= ratios[m] <= 2.4 for m in (51, 101, 151, 201))
    tail = [ratios[m] for m in (101, 151, 201, 301, 401)]
    decreasing = all(a > b for a, b in zip(tail, tail[1:])) and ratios[401] > 1.0
    ok = in_band and decreasing
    pretty = ", ".join(f"L={m}: {r:.3f}" for m, r in ratios.items())
    report(6, ok, f"targeted-CD gap enhancement ({pretty}); "
                  f"intermediate sizes within [1.6, 2.4]: {in_band}, tail decreasing: {decreasing}")


def test_criterion_7_truncation_recovery():
    make11 = builder(11)
    dt = 1e-4
    f_none = propagate(make11, Protocol(0.9, -0.9, 1.0, cd_mode="none"), dt).fidelity
    f_d0 = propagate(make11, Protocol(0.9, -0.9, 1.0, cd_mode="full", band_limit=0), dt).fidelity
    f_full = propagate(make11, Protocol(0.9, -0.9, 1.0, cd_mode="full"), dt).fidelity
    f_dmax = propagate(make11, Protocol(0.9, -0.9, 1.0, cd_mode="full", band_limit=10), dt).fidelity
    make101 = builder(101)
    truncated = {
        d: propagate(make101, Protocol(0.9, -0.9, 1.0, cd_mode="full", band_limit=d),
                     2.5e-4).fidelity
        for d in (5, 10)
    }
    floor_ok = abs(f_d0 - f_none) <= 1e-8
    ceiling_ok = abs(f_dmax - f_full) <= 1e-10
    long_range_ok = all(f < 0.5 for f in truncated.values())
    ok = floor_ok and ceiling_ok and long_range_ok
    report(7, ok, f"truncation: |F(d=0)-F(none)|={abs(f_d0-f_none):.1e}, "
                  f"|F(d=M-1)-F(full)|={abs(f_dmax-f_full):.1e}, "
                  f"101-site F(d=5)={truncated[5]:.2e}, F(d=10)={truncated[10]:.2e} (< 0.5)")


def test_criterion_8_derivative_oracles():
    step = 1e-6
    grid = np.linspace(-0.95, 0.95, 20)  # even count: excludes 0 exactly
    make = builder(21)
    worst_alpha = worst_bloch = worst_norm = 0.0
    for lam in grid:
        lam = float(lam)
        alpha_edge = cdl.edge_alpha(make(lam), lam)
        fd = (cdl.edge_alpha(make(lam + step), lam + step)
              - cdl.edge_alpha(make(lam - step), lam - step)) / (2 * step)
        worst_alpha = max(worst_alpha, abs(cdl.ssh_dalpha(alpha_edge, lam, "in-gap") - fd) / abs(fd))

        alpha_bulk = cmath.exp(1j * np.pi / 5)
        energy = cdl.ssh_energy(alpha_bulk, lam, 0)
        d_plus, d_minus = cdl.ssh_dbloch(alpha_bulk, lam, 0.0, energy)
        up = cdl.ssh_bloch(alpha_bulk, lam + step, 0)
        down = cdl.ssh_bloch(alpha_bulk, lam - step, 0)
        fd_plus = (up.phi_plus[1] - down.phi_plus[1]) / (2 * step)
        fd_minus = (up.phi_minus[1] - down.phi_minus[1]) / (2 * step)
        worst_bloch = max(worst_bloch,
                          abs(d_plus[1] - fd_plus) / abs(fd_plus),
                          abs(d_minus[1] - fd_minus) / abs(fd_minus))

        record = cdl.in_gap_record(make(lam), lam)
        xs = make(lam).sites()
        dpsi_tilde = (record.coeffs / record.norm) * xs * (-1.0 / (1 - lam**2))
        value = cdl.d_norm(record, dpsi_tilde)
        fd_n = (cdl.in_gap_record(make(lam + step), lam + step).norm
                - cdl.in_gap_record(make(lam - step), lam - step).norm) / (2 * step)
        worst_norm = max(worst_norm, abs(value - fd_n) / abs(fd_n))
    ok = max(worst_alpha, worst_bloch, worst_norm) <= 1e-6
    report(8, ok, f"derivative oracles vs central differences over {len(grid)} couplings: "
                  f"mode parameter {worst_alpha:.1e}, Bloch {worst_bloch:.1e}, "
                  f"norm {worst_norm:.1e} (all relative, <= 1e-6)")


def test_criterion_9_cd_structural_invariants():
    spec = cdl.ssh_spec(11, -1, 0.9)
    _, states, derivatives, _ = cdl.basis_and_derivatives(spec, 0.9)
    raw = 1j * derivatives.T @ states.conj()
    scale = np.max(np.abs(raw))
    residual_ok = cdl.hermiticity_residual(raw) <= 1e-10 * scale
    diag_ok = np.max(np.abs(np.diag(raw))) <= 1e-10 * scale
    worst_action = 0.0
    for lam in (0.9, 0.1, 1e-2):
        spec = cdl.ssh_spec(11, -1, lam)
        gen = cdl.full_cd(spec, lam).matrix
        assert np.all(np.diag(gen) == 0.0)
        for record in cdl.full_basis(spec, lam):
            fd = fd_state_derivative(11, lam, record)
            expected = 1j * project_out(record.coeffs, fd)
            worst_action = max(worst_action,
                               float(np.max(np.abs(gen @ record.coeffs - expected))))
    ok = residual_ok and diag_ok and worst_action <= 1e-6
    report(9, ok, f"CD structure: anti-Hermitian residual ok={residual_ok}, "
                  f"zero diagonal ok={diag_ok}, generator action deviation {worst_action:.1e}")


def test_criterion_10_norm_peak_at_gap_closing():
    make = builder(101)
    peak = cdl.frobenius_norm(cdl.full_cd(make(1e-3), 1e-3).matrix)
    away = cdl.frobenius_norm(cdl.full_cd(make(0.9), 0.9).matrix)
    ok = peak >= 10 * away
    report(10, ok, f"generator norm peak: |A(1e-3)|={peak:.2f} vs |A(0.9)|={away:.2f}, "
                   f"ratio {peak/away:.1f} (>= 10)")
