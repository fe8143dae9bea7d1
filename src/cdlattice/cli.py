"""Command-line front end: every experiment is a CSV-emitting subcommand.

Exit codes: 0 success, 2 configuration/validation error, 3 numerical abort
(a singularity or a failed structure check). All configuration is passed by
flags (no environment variables), and identical configurations produce
byte-identical CSV.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .cd import full_and_targeted_cd, full_cd, targeted_cd
from .dynamics import Protocol, convergence_sweep, default_dt, propagate
from .errors import (
    ConvergenceError,
    DomainError,
    InvalidSpecError,
    NotHermitianError,
    UnsupportedPathError,
)
from .io import write_csv
from .lattice import ssh_spec
from .spectral import (
    bare_spectra,
    diagonal_norm_ratios,
    gap_to_zero_mode,
    spectrum_sweep,
    ssh_gap_formula,
    targeted_spectra,
)
from .states import basis_and_derivatives, eigen_residual, full_basis, in_gap_record

VALIDATION_EXIT = 2
SINGULARITY_EXIT = 3


def _parse_grid(text: str) -> np.ndarray:
    try:
        start, stop, count = text.split(":")
        grid = np.linspace(float(start), float(stop), int(count))
    except ValueError as exc:
        raise InvalidSpecError(f"grid must be start:stop:count, got {text!r}") from exc
    if np.isfinite(grid).all():
        return grid
    raise InvalidSpecError(f"grid ends must be finite, got {text!r}")


def _parse_sizes(text: str) -> list[int]:
    try:
        start, stop, step = (int(p) for p in text.split(":"))
    except ValueError as exc:
        raise InvalidSpecError(f"sizes must be start:stop:step, got {text!r}") from exc
    if step <= 0 or stop < start:
        raise InvalidSpecError(f"bad size range {text!r}")
    return list(range(start, stop + 1, step))


def _chain_args(p: argparse.ArgumentParser, sites_default: int = 101):
    p.add_argument("--sites", type=int, default=sites_default,
                   help="number of chain sites M (walls at x0 and x0+M+1)")
    p.add_argument("--x0", type=int, default=-1, help="left wall index")
    p.add_argument("--out", default=None, help="output CSV path ('-' for stdout)")


def _spec_builder(args):
    L = args.sites + args.x0 + 1
    return lambda lam: ssh_spec(L, args.x0, lam)


def _protocol_config(args) -> dict:
    """Manifest of a transfer run; ``dt`` is --dt or the default time * 1e-4."""
    return {
        "sites": args.sites,
        "x0": args.x0,
        "lambda0": args.lambda0,
        "lambdaf": args.lambdaf,
        "time": args.time,
        "dt": args.dt if args.dt is not None else args.time * 1e-4,
        "cd": args.cd,
    }


def cmd_spectrum(args) -> int:
    grid = _parse_grid(args.grid)
    L = args.sites + args.x0 + 1
    table = spectrum_sweep(L, args.x0, grid, mode="bare")
    rows = [
        (lam, idx, energy, "bare")
        for lam, row in zip(table.lambdas, table.eigenvalues)
        for idx, energy in enumerate(row)
    ]
    write_csv(args.out or "spectrum.csv", "spectrum",
              {"sites": args.sites, "x0": args.x0, "grid": args.grid},
              ["lambda", "state_index", "energy", "mode"], rows)
    return 0


def cmd_state(args) -> int:
    spec = _spec_builder(args)(args.lam)
    record = in_gap_record(spec, args.lam)
    rows = [
        (x, c.real, c.imag, abs(c) ** 2)
        for x, c in zip(spec.sites(), record.coeffs)
    ]
    write_csv(args.out or "state.csv", "state",
              {"sites": args.sites, "x0": args.x0, "lambda": args.lam,
               "alpha_modulus": abs(record.alpha), "alpha_phase": float(np.angle(record.alpha)),
               "energy": record.energy},
              ["x", "re_psi", "im_psi", "prob"], rows)
    return 0


def cmd_cd_matrix(args) -> int:
    spec = _spec_builder(args)(args.lam)
    matrix = (full_cd if args.mode == "full" else targeted_cd)(spec, args.lam).matrix
    xs = spec.sites()
    rows = [
        (x, xp, matrix[i, j].real, matrix[i, j].imag, abs(matrix[i, j]))
        for i, x in enumerate(xs)
        for j, xp in enumerate(xs)
    ]
    write_csv(args.out or "cd_matrix.csv", "cd-matrix",
              {"lambda": args.lam, "mode": args.mode, "M": spec.n_sites},
              ["x", "x_prime", "re", "im", "abs"], rows)
    return 0


def cmd_norm(args) -> int:
    build = _spec_builder(args)
    if args.by_diagonal:
        if args.lam is None:
            raise InvalidSpecError("--by-diagonal needs --lambda")
        spec = build(args.lam)
        matrix = (full_cd if args.mode == "full" else targeted_cd)(spec, args.lam).matrix
        rows = [(d, ratio, args.lam) for d, ratio in enumerate(diagonal_norm_ratios(matrix))]
        write_csv(args.out or "norm_ratio.csv", "norm",
                  {"sites": args.sites, "lambda": args.lam, "mode": args.mode,
                   "by_diagonal": True},
                  ["d", "ratio", "lambda"], rows)
        return 0
    grid = _parse_grid(args.grid)
    rows = []
    for lam in map(float, grid):
        # both norms are read from the generators' vectors, which share one zero mode
        full, targeted = full_and_targeted_cd(build(lam), lam)
        rows.append((lam, full.frobenius, targeted.frobenius))
    write_csv(args.out or "norm.csv", "norm",
              {"sites": args.sites, "grid": args.grid},
              ["lambda", "frobenius_full", "frobenius_targeted"], rows)
    return 0


def cmd_transfer(args) -> int:
    build = _spec_builder(args)
    config = _protocol_config(args)
    dt = config["dt"]
    # every band limit and flag combination is checked before the first drive runs
    if args.trace < 0:
        raise InvalidSpecError(f"--trace must be >= 0, got {args.trace}")
    if args.d_sweep is not None and (args.diagonals is not None or args.trace):
        raise InvalidSpecError("--d-sweep cannot be combined with --diagonals or --trace")
    d_values = _parse_sizes(args.d_sweep) if args.d_sweep is not None else [args.diagonals]
    if d_values != [None] and args.cd == "none":
        raise InvalidSpecError("--diagonals and --d-sweep need a CD mode")
    if d_values != [None] and (bad := [d for d in d_values if not 0 <= d < args.sites]):
        raise InvalidSpecError(f"band limits {bad} outside 0..{args.sites - 1}")
    if args.d_sweep is not None:
        rows = []
        for d in d_values:
            protocol = Protocol(args.lambda0, args.lambdaf, args.time,
                                cd_mode=args.cd, band_limit=d)
            rows.append((d, propagate(build, protocol, dt).fidelity))
        write_csv(args.out or "transfer_dsweep.csv", "transfer",
                  {**config, "d_sweep": args.d_sweep},
                  ["d", "fidelity"], rows)
        return 0
    protocol = Protocol(args.lambda0, args.lambdaf, args.time,
                        cd_mode=args.cd, band_limit=args.diagonals)
    if args.trace:
        result = propagate(build, protocol, dt, trace_every=args.trace)
        rows = [
            (r["t"], r["lambda"], r["fidelity_to_instantaneous"], r["norm"], r["energy"])
            for r in result.trace
        ]
        write_csv(args.out or "transfer_trace.csv", "transfer",
                  {**config, "trace": args.trace},
                  ["t", "lambda", "fidelity_to_instantaneous", "norm", "energy"], rows)
        return 0
    result = propagate(build, protocol, dt)
    d_eff = args.diagonals if args.diagonals is not None else args.sites - 1
    write_csv(args.out or "transfer.csv", "transfer",
              config,
              ["d", "fidelity"], [(d_eff, result.fidelity)])
    return 0


def cmd_cd_spectrum(args) -> int:
    grid = _parse_grid(args.grid)
    L = args.sites + args.x0 + 1
    rate = Protocol(args.lambda0, args.lambdaf, args.time).rate
    mode = "full-cd" if args.mode == "full" else "targeted-cd"
    table = spectrum_sweep(L, args.x0, grid, mode=mode, drive_rate=rate)
    rows = []
    for i, (lam, row) in enumerate(zip(table.lambdas, table.eigenvalues)):
        if table.flags[i] is not None:
            continue
        rows.extend((lam, idx, energy, mode) for idx, energy in enumerate(row))
    skipped = sum(flag is not None for flag in table.flags)
    if skipped:
        print(f"skipped {skipped} singular grid points", file=sys.stderr)
    write_csv(args.out or "cd_spectrum.csv", "cd-spectrum",
              {"sites": args.sites, "x0": args.x0, "grid": args.grid, "mode": args.mode,
               "lambda0": args.lambda0, "lambdaf": args.lambdaf, "time": args.time},
              ["lambda", "state_index", "energy", "mode"], rows)
    return 0


def cmd_gap_scaling(args) -> int:
    sizes = _parse_sizes(args.sizes)
    rate = Protocol(args.lambda0, args.lambdaf, args.time).rate
    if not np.isfinite(args.lam):
        raise InvalidSpecError(f"--lambda must be finite, got {args.lam}")
    rows = []
    for m_sites in sizes:
        L = m_sites + args.x0 + 1
        bare = gap_to_zero_mode(bare_spectra(L, args.x0, [args.lam])[0])
        formula = ssh_gap_formula(args.lam, m_sites)
        # the spectrum is symmetric about its exact zero, so the gap is its lowest root
        cd_gap = gap_to_zero_mode(targeted_spectra(L, args.x0, np.array([args.lam]), rate)[0])
        rows.append((L, bare, formula, cd_gap, cd_gap / bare))
    write_csv(args.out or "gap_scaling.csv", "gap-scaling",
              {"lambda": args.lam, "sizes": args.sizes, "x0": args.x0,
               "lambda0": args.lambda0, "lambdaf": args.lambdaf, "time": args.time},
              ["L", "gap_bare_numeric", "gap_bare_formula", "gap_cd", "ratio"], rows)
    return 0


def cmd_certify(args) -> int:
    build = _spec_builder(args)
    lam = 0.9
    spec = build(lam)
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str):
        checks.append((name, bool(ok), detail))

    basis = full_basis(spec, lam)
    res = max(eigen_residual(spec, rec) for rec in basis)
    check("eigen-residual", res <= 1e-10, f"max |H psi - E psi| = {res:.2e}")
    gram = np.array([r.coeffs for r in basis])
    gram = gram.conj() @ gram.T
    ortho = float(np.max(np.abs(gram - np.eye(len(basis)))))
    check("orthonormality", ortho <= 1e-8, f"Gram deviation {ortho:.2e}")

    energies = np.sort([r.energy for r in basis])
    numeric = bare_spectra(spec.L, spec.x0, [lam])[0]
    spec_match = float(np.max(np.abs(energies - numeric)))
    check("spectrum-match", spec_match <= 1e-10, f"max energy mismatch {spec_match:.2e}")

    # i sum_n |d psi_n><psi_n| before full_cd antisymmetrises it: a <psi_n|d psi_n> != 0
    # shows on its diagonal
    _, states, derivatives, _ = basis_and_derivatives(spec, lam)
    raw = 1j * derivatives.T @ states.conj()
    diag, scale = float(np.max(np.abs(np.diag(raw)))), float(np.max(np.abs(raw)))
    check("cd-diagonal-zero", diag <= 1e-10 * scale,
          f"max diagonal modulus {diag:.2e} of max entry {scale:.2e}")

    gap_err = abs(ssh_gap_formula(lam, spec.n_sites) - gap_to_zero_mode(numeric))
    check("gap-formula", gap_err <= 1e-10, f"|formula - measured| = {gap_err:.2e}")

    protocol_bare = Protocol(0.9, -0.9, 1.0, cd_mode="none")
    try:
        trace = convergence_sweep(build, protocol_bare, default_dt(protocol_bare))
        bare_f = trace[-1][1]
        check("bare-transfer-suppressed", bare_f < 1e-6,
              f"certified bare fidelity {bare_f:.3e} in {len(trace)} runs")
    except ConvergenceError as exc:
        check("bare-transfer-suppressed", False, str(exc))

    for mode in ("full", "targeted"):
        protocol = Protocol(0.9, -0.9, 1.0, cd_mode=mode)
        result = propagate(build, protocol, default_dt(protocol))
        check(f"{mode}-cd-transfer", result.fidelity >= 1 - 1e-6,
              f"fidelity {result.fidelity:.12f}, norm drift {result.norm_drift:.2e}")

    width = max(len(name) for name, _, _ in checks)
    all_ok = True
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        all_ok &= ok
        print(f"{name:<{width}}  {status}  {detail}")
    print(f"certify: {'all checks passed' if all_ok else 'FAILURES PRESENT'}")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdlattice",
        description="Counterdiabatic driving experiments on finite tight-binding chains",
    )
    parser.add_argument("--version", action="version", version=f"cdlattice {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("spectrum", help="bare spectrum over a ramp grid")
    _chain_args(p)
    p.add_argument("--grid", default="-1:1:201", help="lambda grid start:stop:count")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("state", help="in-gap edge state amplitudes")
    _chain_args(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("cd-matrix", help="CD generator matrix entries")
    _chain_args(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--mode", choices=("full", "targeted"), default="full")
    p.set_defaults(func=cmd_cd_matrix)

    p = sub.add_parser("norm", help="CD generator norms over a grid, or per-diagonal ratios")
    _chain_args(p)
    p.add_argument("--grid", default="-0.99:0.99:199")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--mode", choices=("full", "targeted"), default="full")
    p.add_argument("--by-diagonal", action="store_true",
                   help="emit kept-norm fraction vs diagonal count at --lambda")
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("transfer", help="edge-to-edge state transfer fidelity")
    _chain_args(p, sites_default=101)
    p.add_argument("--lambda0", type=float, default=0.9)
    p.add_argument("--lambdaf", type=float, default=-0.9)
    p.add_argument("--time", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=None, help="step (default time*1e-4)")
    p.add_argument("--cd", choices=("none", "full", "targeted"), default="none")
    p.add_argument("--diagonals", type=int, default=None, help="band-limit the CD term")
    p.add_argument("--d-sweep", default=None, help="sweep band limits start:stop:step")
    p.add_argument("--trace", type=int, default=0,
                   help="record the trajectory every N steps instead of the final fidelity")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("cd-spectrum", help="spectrum of the CD-modified Hamiltonian")
    _chain_args(p)
    p.add_argument("--grid", default="-0.99:0.99:198",
                   help="lambda grid start:stop:count; points with |lambda| >= 1 are "
                        "skipped and counted on stderr")
    p.add_argument("--mode", choices=("full", "targeted"), default="targeted")
    p.add_argument("--lambda0", type=float, default=0.9)
    p.add_argument("--lambdaf", type=float, default=-0.9)
    p.add_argument("--time", type=float, default=1.0)
    p.set_defaults(func=cmd_cd_spectrum)

    p = sub.add_parser("gap-scaling", help="bare and CD gaps against chain length")
    _chain_args(p)
    p.add_argument("--lambda", dest="lam", type=float, default=1.8e-3)
    p.add_argument("--sizes", default="11:401:2", help="site counts start:stop:step")
    p.add_argument("--lambda0", type=float, default=0.9)
    p.add_argument("--lambdaf", type=float, default=-0.9)
    p.add_argument("--time", type=float, default=1.0)
    p.set_defaults(func=cmd_gap_scaling)

    p = sub.add_parser("certify", help="run the invariant and convergence table")
    _chain_args(p, sites_default=11)
    p.set_defaults(func=cmd_certify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidSpecError, UnsupportedPathError, DomainError, NotHermitianError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT
    except (ArithmeticError, ConvergenceError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return SINGULARITY_EXIT


if __name__ == "__main__":
    sys.exit(main())
