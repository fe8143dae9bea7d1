"""Closed-loop benchmark of the cdlattice command line.

Run from anywhere inside a checkout:

    python3 benchmarks/run.py --workload transfer-101 --seed 1 --seconds 34 --trace 0

One process calls ``cdlattice.cli.main`` in-process, one job after another,
in whole rounds of the workload's jobs: at least two, and more while half a
round still fits into ``--seconds``. Every output is checked (see ``workloads.py``). The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates plain and traced rounds and reports the per-layer
metrics of the traced ones, with the tracing overhead. The seed fixes the
order of the jobs within a round; the inputs themselves carry no randomness.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy is imported, here and in the set-up
# subprocesses, which inherit the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
MIN_ROUNDS = 2
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from cdlattice.cli import main; sys.exit(main(sys.argv[2:]))")
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "transfer_s.none": "s",
    "transfer_s.full": "s",
    "transfer_s.targeted": "s",
    "dsweep_s": "s",
    "points_per_s.norm": "1/s",
    "points_per_s.cd_spectrum": "1/s",
}


class Runner:
    """Runs jobs, checks their outputs and counts operations."""

    def __init__(self, workdir: Path, cli):
        self.workdir = workdir
        self.cli = cli
        self.refs = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.drive_s = defaultdict(list)  # seconds per internal transfer, by drive

    def call(self, job) -> float | None:
        """Run one job; return its wall time, or None if it failed."""
        out = self.workdir / f"{job.name}.csv"
        captured = io.StringIO()
        self.attempted += 1
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(captured), \
                    (self.timed_drives() if job.drives else contextlib.nullcontext()):
                # looked up per call so that trace wrappers take effect
                code = self.cli.main([*job.argv, "--out", str(out)])
        except Exception:
            code = traceback.format_exc()
        elapsed = perf_counter() - start
        if code != 0:
            self.failed += 1
            print(f"FAIL {job.name}: exit {code}", file=sys.stderr)
            return None
        self.check(job, out, captured.getvalue())
        return elapsed

    @contextlib.contextmanager
    def timed_drives(self, names=("propagate", "convergence_sweep")):
        """Time each transfer the CLI starts, keyed by the protocol's drive."""
        originals = {name: getattr(self.cli, name) for name in names}

        def timed(fn):
            def wrapper(*args, **kwargs):
                start = perf_counter()
                result = fn(*args, **kwargs)
                protocol = kwargs["protocol"] if "protocol" in kwargs else args[1]
                self.drive_s[protocol.cd_mode].append(perf_counter() - start)
                return result
            return wrapper

        for name, fn in originals.items():
            setattr(self.cli, name, timed(fn))
        try:
            yield
        finally:
            for name, fn in originals.items():
                setattr(self.cli, name, fn)

    def check(self, job, out: Path, stdout: str) -> None:
        try:
            results = job.check(job, out, stdout, self.refs)
        except Exception:
            results = [(f"{job.name} output", False, traceback.format_exc())]
        for name, ok, detail in results:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.correct = False
                print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)


def measure_setup(runner: Runner, job) -> float:
    """Median wall time of a fresh interpreter importing the package and
    answering one small call: what a user waits for before any work."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = runner.workdir / "setup.csv"
        runner.attempted += 1
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), *job.argv, "--out", str(out)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=False)
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            runner.failed += 1
            print(f"FAIL setup: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            continue
        runner.check(job, out, "")
    return statistics.median(times)


def run_round(runner: Runner, order, trace_cls=None):
    """One pass over the calls. Returns each job's call times and, when
    traced, the per-layer totals of the pass."""
    times = {job.name: [] for job in order}
    tracer = trace_cls() if trace_cls else contextlib.nullcontext()
    with tracer:
        for job in order:
            times[job.name].append(runner.call(job))
    return times, (tracer.totals() if trace_cls else None)


def median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def primary_wall(jobs, times) -> float | None:
    parts = [t for j in jobs if j.primary for t in times[j.name]]
    return None if None in parts else sum(parts)


def end_to_end(jobs, rounds, setup_s: float, drive_s) -> dict[str, float | None]:
    values = {"setup_s": setup_s,
              "wall_s": median_or_none(primary_wall(jobs, t) for t, _ in rounds),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    for drive, times in drive_s.items():
        values[f"transfer_s.{drive}"] = median_or_none(times)
    for job in jobs:
        if job.metric is None:
            continue
        t = median_or_none(t for times, _ in rounds for t in times[job.name])
        values[job.metric] = (job.points / t if job.points else t) if t else None
    return values


def per_layer(jobs, rounds, units) -> dict[str, float | None]:
    plain = [primary_wall(jobs, t) for t, totals in rounds if totals is None]
    traced = [primary_wall(jobs, t) for t, totals in rounds if totals is not None]
    all_totals = [totals for _, totals in rounds if totals is not None]
    for name in all_totals[0]:  # every layer, including those reported by calls only
        print(f"{name:36s} {median_or_none(t[name] for t in all_totals)}", file=sys.stderr)
    values = {name: median_or_none(t[name] for t in all_totals) for name in units}
    wall_plain, wall_traced = median_or_none(plain), median_or_none(traced)
    values["trace.wall_s"] = wall_traced
    values["trace.overhead_pct"] = (100.0 * (wall_traced / wall_plain - 1.0)
                                    if wall_plain and wall_traced else None)
    print(f"traced wall {wall_traced} s against plain {wall_plain} s "
          f"({values['trace.overhead_pct']} %)", file=sys.stderr)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cdlattice" / "cli.py").is_file():
        print(f"error: no cdlattice sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    from cdlattice import cli

    from layers import LayerTrace, metric_units
    from workloads import SETUP_JOB, WORKLOADS, precompute, reference_jobs

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    jobs = WORKLOADS[args.workload]
    order = [job for job in jobs for _ in range(job.repeat)]
    random.Random(args.seed).shuffle(order)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        runner = Runner(workdir, cli)
        setup_s = measure_setup(runner, SETUP_JOB)
        for job in jobs:
            precompute(job)
            for reference in reference_jobs(job):
                runner.call(reference)

        rounds = []
        start = perf_counter()
        while True:
            unit_start = perf_counter()
            rounds.append(run_round(runner, order))
            if args.trace:
                rounds.append(run_round(runner, order, LayerTrace))
            unit = perf_counter() - unit_start
            # at least two rounds, then stop unless half a unit still fits
            if len(rounds) >= MIN_ROUNDS and perf_counter() - start + unit / 2 > args.seconds:
                break

        if args.trace:
            units = metric_units()
            values = per_layer(jobs, rounds, units)
            units.update({"trace.wall_s": "s", "trace.overhead_pct": "%"})
        else:
            values = end_to_end(jobs, rounds, setup_s, runner.drive_s)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "rounds": len(rounds), "job_order": [j.name for j in order],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}
    print("# " + json.dumps(info))
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values.get(name), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
