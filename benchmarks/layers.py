"""Per-layer timing from outside the program.

Each traced function is replaced, in every ``cdlattice`` module namespace that
holds it, by a wrapper that counts calls and accumulates self time: the
call's duration minus the time spent in traced callees. ``dynamics`` calls
``full_cd`` through its own global, ``cli`` calls ``propagate`` through its
own, and so on, so patching only the defining module would miss those calls.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

LAYERS = {
    "lattice": ("ssh_spec", "build_hamiltonian"),
    "states": ("in_gap_record", "full_basis"),
    "cd": ("full_cd", "targeted_cd"),
    "dynamics": ("propagate", "convergence_sweep"),
    "spectral": ("spectrum_sweep",),
    "io": ("write_csv",),
    "cli": ("main",),
}
# Reached only through `certify`: on the other workloads their time is a
# constant zero, so only their call counts go into the result line.
CALLS_ONLY = {"states.full_basis", "dynamics.convergence_sweep"}


def metric_units() -> dict[str, str]:
    units = {}
    for module, names in LAYERS.items():
        for name in names:
            key = f"{module}.{name}"
            units[f"{key}.calls"] = "count"
            if key not in CALLS_ONLY:
                units[f"{key}.self_s"] = "s"
    units["dynamics.propagate.steps"] = "count"
    units["io.write_csv.bytes"] = "B"
    return units


class LayerTrace:
    """Install with ``with LayerTrace() as trace:``; read ``trace.totals()``."""

    def __init__(self):
        self.calls = {f"{m}.{n}": 0 for m, names in LAYERS.items() for n in names}
        self.self_s = dict.fromkeys(self.calls, 0.0)
        self.steps = 0
        self.bytes = 0
        self._stack: list[float] = []  # time spent in traced children, per open call
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "cdlattice" or name.startswith("cdlattice.")]
        for module, names in LAYERS.items():
            home = sys.modules[f"cdlattice.{module}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{module}.{name}", original)
                for m in modules:
                    if m.__dict__.get(name) is original:
                        self._patched.append((m, name, original))
                        setattr(m, name, wrapper)
        return self

    def __exit__(self, *exc):
        for m, name, original in reversed(self._patched):
            setattr(m, name, original)
        self._patched.clear()

    def _wrap(self, key: str, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                self.calls[key] += 1
                self.self_s[key] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if key == "dynamics.propagate":
                self.steps += result.steps
            elif key == "io.write_csv" and args[0] != "-":
                self.bytes += os.path.getsize(args[0])
            return result

        return traced

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for key, calls in self.calls.items():
            out[f"{key}.calls"] = calls
            out[f"{key}.self_s"] = self.self_s[key]
        out["dynamics.propagate.steps"] = self.steps
        out["io.write_csv.bytes"] = self.bytes
        return out
