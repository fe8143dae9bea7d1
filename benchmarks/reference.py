"""Reference timings of single layers at 1 BLAS thread and at the default count.

    python3 benchmarks/reference.py

Re-measures the layer table of ROADMAP.md (lambda = 0.3, M = 101 and 401) in
two child processes, one with OPENBLAS_NUM_THREADS=1 and one with the
variable unset, and prints a Markdown table of medians. Rows whose function
no longer exists print n/a. These figures are for reading, not for gating:
the regression gate is ``run.py``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SIZES = (101, 401)
LAM = 0.3
MIN_REPEATS, MIN_SECONDS = 5, 0.5


def timed(fn) -> float:
    """Median seconds per call over at least MIN_REPEATS calls and MIN_SECONDS."""
    samples, start = [], perf_counter()
    while len(samples) < MIN_REPEATS or perf_counter() - start < MIN_SECONDS:
        t = perf_counter()
        fn()
        samples.append(perf_counter() - t)
    return statistics.median(samples)


def measure() -> dict[str, dict[int, float | None]]:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from scipy.linalg import eigh_tridiagonal

    from cdlattice import cd, dynamics, lattice, states

    rows: dict[str, dict[int, float | None]] = {}

    def row(name, make):
        rows[name] = {}
        for m in SIZES:
            fn = make(m)
            rows[name][m] = None if fn is None else timed(fn)

    def spec(m):
        return lattice.ssh_spec(m, -1, LAM)

    def layer(module, name, *args):
        fn = getattr(module, name, None)
        return None if fn is None else (lambda: fn(*args))

    def matmul(m):
        if not hasattr(cd, "_basis_and_derivatives"):
            return None
        p, dp = cd._basis_and_derivatives(spec(m), LAM)
        return lambda: dp.T @ p.conj()

    def finalize(m):
        if not hasattr(cd, "_finalize_generator"):
            return None
        p, dp = cd._basis_and_derivatives(spec(m), LAM)
        raw = 1j * (dp.T @ p.conj())
        return lambda: cd._finalize_generator(raw, "full", LAM)

    def dense_eigh(m):
        h = lattice.build_hamiltonian(spec(m)) - 1.8 * cd.full_cd(spec(m), LAM).matrix
        return lambda: np.linalg.eigh(h)

    def per_step(mode, steps=10):
        def make(m):
            protocol = dynamics.Protocol(0.9, -0.9, 1.0, cd_mode=mode)
            return lambda: dynamics.propagate(lambda lam: lattice.ssh_spec(m, -1, lam),
                                              protocol, 1.0 / steps)
        return make

    row("`_basis_and_derivatives`", lambda m: layer(cd, "_basis_and_derivatives", spec(m), LAM))
    row("`full_cd` (total)", lambda m: layer(cd, "full_cd", spec(m), LAM))
    row("of which `dP^T @ P*` matmul", matmul)
    row("of which `_finalize_generator`", finalize)
    row("`targeted_cd`", lambda m: layer(cd, "targeted_cd", spec(m), LAM))
    row("`full_basis` (record path)", lambda m: layer(states, "full_basis", spec(m), LAM))
    row("dense `np.linalg.eigh` (H + rate A_full)", dense_eigh)
    row("`eigh_tridiagonal` (bare)",
        lambda m: (lambda s=spec(m): eigh_tridiagonal(s.mu, s.t.real)))
    for mode in ("none", "full", "targeted"):
        # 10 steps per call, so the per-step time is a tenth of the call
        row(f"`propagate`, 10 steps, {mode}", per_step(mode))
    return rows


def child(threads: str) -> dict:
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads != "default":
        env["OPENBLAS_NUM_THREADS"] = threads
    out = subprocess.run([sys.executable, __file__, "--child"], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.splitlines()[-1])


def fmt(seconds) -> str:
    return "n/a" if seconds is None else f"{seconds * 1e3:.3g} ms"


def main() -> int:
    if sys.argv[1:] == ["--child"]:
        print(json.dumps(measure()))
        return 0
    runs = {threads: child(threads) for threads in ("1", "default")}
    print(f"| layer (lambda={LAM}) | " + " | ".join(
        f"M={m}, {t} thread{'s' if t != '1' else ''}" for t in runs for m in SIZES) + " |")
    print("|---" * (1 + len(SIZES) * len(runs)) + "|")
    for name in runs["1"]:
        cells = [fmt(runs[t][name][str(m)]) for t in runs for m in SIZES]
        print(f"| {name} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
