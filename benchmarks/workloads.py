"""Workload definitions and the independent output checks.

A workload is a list of CLI jobs run one after another (a closed loop, one
client). Primary jobs are the workload's own experiment and make up its
``wall_s``. Companion jobs are smaller versions of the job kinds the
workload does not otherwise run: every run reports every end-to-end metric,
and a companion gives each metric a measured value there without adding work
to the primary jobs.

Every check compares a CLI output against a computation made here, from this
module's own tridiagonal Hamiltonian and ``numpy.linalg.eigh``, or against a
method property (a fidelity bound, an identity between two drives). None of
them compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

LAMBDA0, LAMBDAF, TIME = 0.9, -0.9, 1.0
RATE = (LAMBDAF - LAMBDA0) / TIME
RAMP = ["--lambda0", repr(LAMBDA0), f"--lambdaf={LAMBDAF!r}", "--time", repr(TIME)]
STEP_DT = "1e-3"  # single transfers
SWEEP_DT = "4e-3"  # band-limit sweeps
CD_FLOOR = 1 - 1e-6  # CD fidelity lower bound
BARE_101_CEILING = 1e-12
PAPER_WINDOW_11 = (1e-11, 1e-9)  # bare 11-site transfer, unit time
NORM_RTOL = 1e-9
SPECTRUM_RTOL = 1e-10
DSWEEP_BARE_TOL = 1e-8
DSWEEP_FULL_TOL = 1e-10
STATE_OVERLAP_FLOOR = 1 - 1e-12

Check = tuple[str, bool, str]


@dataclass(frozen=True)
class Job:
    """A CLI call made ``repeat`` times per round. ``metric`` names the
    end-to-end metric its time feeds; ``points`` is the grid size for
    throughput metrics. With ``drives`` set, the transfers the call runs
    internally are timed one by one and feed ``transfer_s.<drive>``."""

    name: str
    argv: tuple[str, ...]
    check: Callable[["Job", Path, str, "References"], list[Check]]
    metric: str | None = None
    points: int = 0
    primary: bool = True
    repeat: int = 1
    drives: bool = False


# --- independent physics -------------------------------------------------


def chain(m: int, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Dense SSH Hamiltonian with bonds 1 - lam*(-1)^x (sites 0..m-1 between
    walls at -1 and m) and its lambda-derivative."""
    x = np.arange(m - 1)
    sign = np.where(x % 2 == 0, 1.0, -1.0)
    bonds = 1.0 - lam * sign
    h = np.diag(bonds, 1) + np.diag(bonds, -1)
    dh = np.diag(-sign, 1) + np.diag(-sign, -1)
    return h, dh


@lru_cache(maxsize=None)
def zero_mode(m: int, lam: float) -> np.ndarray:
    w, v = np.linalg.eigh(chain(m, lam)[0])
    return v[:, int(np.argmin(np.abs(w)))]


@lru_cache(maxsize=None)
def generator_norms_sq(m: int, lam: float) -> tuple[float, float, float]:
    """(||A_full||_F^2, ||A_targeted||_F^2, ||H||_F^2) from perturbation theory:
    A_full has entries <m|dH|n>/(E_n - E_m) for m != n, and A_targeted is the
    rank-2 part that moves only the zero mode."""
    h, dh = chain(m, lam)
    w, v = np.linalg.eigh(h)
    dh_v = np.zeros_like(v)  # dh @ v, using that dh is tridiagonal
    dh_v[:-1] = np.diag(dh, 1)[:, None] * v[1:]
    dh_v[1:] += np.diag(dh, -1)[:, None] * v[:-1]
    coupling = v.T @ dh_v
    gaps = w[:, None] - w[None, :]
    off = ~np.eye(m, dtype=bool)
    full = float(np.sum(coupling[off] ** 2 / gaps[off] ** 2))
    z = int(np.argmin(np.abs(w)))
    rest = np.arange(m) != z
    targeted = 2.0 * float(np.sum(coupling[rest, z] ** 2 / gaps[rest, z] ** 2))
    return full, targeted, float(np.sum(h * h))


# Fidelities of the plain drives at the band-limit sweep's step, keyed by
# (sites, drive); a sweep's ends are compared with them. Filled per run by
# the reference jobs, before timing starts.
References = dict[tuple[int, str], float]


# --- CSV readers -----------------------------------------------------------


def read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    if len(lines) < 2 or not lines[0].startswith("# cdlattice="):
        raise ValueError(f"{path.name}: missing manifest or header")
    return lines[1].split(","), [line.split(",") for line in lines[2:]]


def grid(text: str) -> np.ndarray:
    start, stop, count = text.split(":")
    return np.linspace(float(start), float(stop), int(count))


def _ok(name: str, ok: bool, detail: str) -> Check:
    return (name, bool(ok), detail)


# --- checks -----------------------------------------------------------------


def check_transfer(job: Job, out: Path, _stdout: str, _refs: References) -> list[Check]:
    sites, cd = _arg(job, "--sites", int), _arg(job, "--cd", str)
    _, rows = read_rows(out)
    (f,) = [float(r[1]) for r in rows]
    if cd != "none":
        return [_ok(f"{job.name} fidelity", f >= CD_FLOOR, f"F={f!r} >= {CD_FLOOR!r}")]
    if sites == 101:
        return [_ok(f"{job.name} suppressed", f < BARE_101_CEILING, f"F={f!r}")]
    lo, hi = PAPER_WINDOW_11
    return [_ok(f"{job.name} paper window", lo <= f <= hi, f"F={f!r} in [{lo}, {hi}]")]


def check_dsweep(job: Job, out: Path, _stdout: str, refs: References) -> list[Check]:
    sites = _arg(job, "--sites", int)
    _, rows = read_rows(out)
    fid = {int(r[0]): float(r[1]) for r in rows}
    f_none, f_full = refs[(sites, "none")], refs[(sites, "full")]
    d_max = sites - 1
    return [
        _ok(f"{job.name} d=0 is bare", abs(fid[0] - f_none) <= DSWEEP_BARE_TOL,
            f"|{fid[0]!r} - {f_none!r}|"),
        _ok(f"{job.name} d=M-1 is full", abs(fid[d_max] - f_full) <= DSWEEP_FULL_TOL,
            f"|{fid[d_max]!r} - {f_full!r}|"),
        _ok(f"{job.name} d=M-1 fidelity", fid[d_max] >= CD_FLOOR, f"F={fid[d_max]!r}"),
    ]


def check_state(job: Job, out: Path, _stdout: str, _refs: References) -> list[Check]:
    sites, lam = _arg(job, "--sites", int), _arg(job, "--lambda", float)
    _, rows = read_rows(out)
    psi = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    overlap = abs(np.vdot(zero_mode(sites, lam), psi)) ** 2 / np.vdot(psi, psi).real
    return [_ok(f"{job.name} zero mode", overlap >= STATE_OVERLAP_FLOOR,
                f"|<v0|psi>|^2 = {overlap!r}")]


def check_norm(job: Job, out: Path, _stdout: str, _refs: References) -> list[Check]:
    sites, lams = _arg(job, "--sites", int), grid(_arg(job, "--grid", str))
    _, rows = read_rows(out)
    got = np.array([[float(c) for c in r] for r in rows])
    if got.shape != (len(lams), 3) or np.any(got[:, 0] != lams):
        return [_ok(f"{job.name} grid", False, f"rows {got.shape} do not match the grid")]
    worst = 0.0
    for lam, full, targeted in got:
        ref_full, ref_targeted, _ = generator_norms_sq(sites, float(lam))
        worst = max(worst, abs(full**2 / ref_full - 1), abs(targeted**2 / ref_targeted - 1))
    return [_ok(f"{job.name} perturbative norms", worst <= NORM_RTOL,
                f"max relative error {worst:.2e}")]


def check_cd_spectrum(job: Job, out: Path, _stdout: str, _refs: References) -> list[Check]:
    sites, lams = _arg(job, "--sites", int), grid(_arg(job, "--grid", str))
    _, rows = read_rows(out)
    energies = np.array([float(r[2]) for r in rows])
    if energies.size != len(lams) * sites:
        return [_ok(f"{job.name} grid", False, f"{energies.size} rows, expected {len(lams) * sites}")]
    worst_trace = worst_square = 0.0
    for lam, e in zip(lams, energies.reshape(len(lams), sites)):
        _, targeted, h_sq = generator_norms_sq(sites, float(lam))
        expected = h_sq + RATE**2 * targeted
        worst_trace = max(worst_trace, abs(e.sum()) / np.abs(e).sum())
        worst_square = max(worst_square, abs(np.sum(e * e) / expected - 1))
    return [
        _ok(f"{job.name} trace", worst_trace <= SPECTRUM_RTOL, f"max |sum E|/sum|E| {worst_trace:.2e}"),
        _ok(f"{job.name} sum E^2", worst_square <= SPECTRUM_RTOL,
            f"max relative error {worst_square:.2e}"),
    ]


CERTIFIED = re.compile(r"certified bare fidelity (\S+) in (\d+) runs")


def check_certify(job: Job, _out: Path, stdout: str, _refs: References) -> list[Check]:
    found = CERTIFIED.search(stdout)
    lo, hi = PAPER_WINDOW_11
    f = float(found.group(1)) if found else float("nan")
    return [
        _ok(f"{job.name} table", stdout.rstrip().endswith("certify: all checks passed"),
            "every row PASS"),
        _ok(f"{job.name} paper window", lo <= f <= hi, f"certified F={f!r} in [{lo}, {hi}]"),
    ]


def precompute(job: Job) -> None:
    """Fill the caches a job's check reads, so that rounds take equal time."""
    if job.check in (check_norm, check_cd_spectrum):
        sites = _arg(job, "--sites", int)
        for lam in grid(_arg(job, "--grid", str)):
            generator_norms_sq(sites, float(lam))
    elif job.check is check_state:
        zero_mode(_arg(job, "--sites", int), _arg(job, "--lambda", float))


def _arg(job: Job, flag: str, kind):
    for i, a in enumerate(job.argv):
        if a == flag:
            return kind(job.argv[i + 1])
        if a.startswith(flag + "="):
            return kind(a.split("=", 1)[1])
    raise KeyError(flag)


# --- job builders ------------------------------------------------------------


def transfer(sites: int, cd: str, primary: bool = True, repeat: int = 1) -> Job:
    return Job(f"transfer.{cd}@{sites}",
               ("transfer", "--sites", str(sites), "--cd", cd, "--dt", STEP_DT, *RAMP),
               check_transfer, metric=f"transfer_s.{cd}", primary=primary, repeat=repeat)


def dsweep(sites: int, step: int, primary: bool = True, repeat: int = 1) -> Job:
    return Job(f"dsweep@{sites}",
               ("transfer", "--sites", str(sites), "--cd", "full", "--dt", SWEEP_DT, *RAMP,
                "--d-sweep", f"0:{sites - 1}:{step}"),
               check_dsweep, metric="dsweep_s", primary=primary, repeat=repeat)


def norm(sites: int, points: int, primary: bool = True, repeat: int = 1) -> Job:
    return Job(f"norm@{sites}",
               ("norm", "--sites", str(sites), f"--grid=-0.95:0.95:{points}"),
               check_norm, metric="points_per_s.norm", points=points, primary=primary,
               repeat=repeat)


def cd_spectrum(sites: int, points: int, primary: bool = True, repeat: int = 1) -> Job:
    return Job(f"cd-spectrum@{sites}",
               ("cd-spectrum", "--sites", str(sites), "--mode", "targeted",
                f"--grid=-0.95:0.95:{points}", *RAMP),
               check_cd_spectrum, metric="points_per_s.cd_spectrum", points=points,
               primary=primary, repeat=repeat)


def check_reference(job: Job, out: Path, stdout: str, refs: References) -> list[Check]:
    """Check a plain drive like any transfer and keep its fidelity."""
    _, rows = read_rows(out)
    refs[(_arg(job, "--sites", int), _arg(job, "--cd", str))] = float(rows[0][1])
    return check_transfer(job, out, stdout, refs)


def reference_jobs(job: Job) -> list[Job]:
    """For a band-limit sweep, the plain bare and full drives at its step."""
    if job.check is not check_dsweep:
        return []
    sites = _arg(job, "--sites", int)
    return [Job(f"reference.{cd}@{sites}",
                ("transfer", "--sites", str(sites), "--cd", cd, "--dt", SWEEP_DT, *RAMP),
                check_reference) for cd in ("none", "full")]


SETUP_JOB = Job("setup.state@11", ("state", "--sites", "11", "--lambda", "0.9"), check_state)


# Companion jobs (primary=False) give a workload the metrics of the job kinds
# it lacks; their repeat counts spread several calls of each over a run.
WORKLOADS: dict[str, list[Job]] = {
    "transfer-101": [
        transfer(101, "none", repeat=2),
        transfer(101, "full"),
        transfer(101, "targeted"),
        dsweep(101, 25),
        Job("state@101", ("state", "--sites", "101", "--lambda", repr(LAMBDAF)), check_state),
        norm(401, 10, primary=False, repeat=2),
        cd_spectrum(401, 6, primary=False, repeat=2),
    ],
    "certify-11": [
        # certify's own certified bare transfer and CD transfers give transfer_s.*
        Job("certify@11", ("certify", "--sites", "11"), check_certify, drives=True),
        dsweep(11, 5, primary=False, repeat=5),
        norm(11, 400, primary=False, repeat=5),
        cd_spectrum(11, 400, primary=False, repeat=5),
    ],
    "sweep-401": [
        norm(401, 40),
        cd_spectrum(401, 20),
        transfer(11, "none", primary=False, repeat=4),
        transfer(11, "full", primary=False, repeat=2),
        transfer(11, "targeted", primary=False, repeat=2),
        dsweep(11, 5, primary=False, repeat=2),
    ],
}
