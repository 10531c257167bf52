"""Layer spans for one `salpeter-bounds` command, recorded from outside.

Run as a child process:

    python perfbench/tracer.py SPANS.json <cli arguments...>

It imports the package, replaces every public function of each module (and
the scipy solvers the modules reach through their own attributes) with a
wrapper that records a span, runs `cli_report.main`, and writes the spans as
JSON when the command ends.  The program's source is not changed.  A span is
[name, start, end, parent index or None, exception class or None, size],
where size is the grid or basis size for the solvers and the number of radii
for `potentials.evaluate`.

`layer_metrics` turns the spans of one round into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time

PACKAGE = "salpeterbounds"
LAYERS = ("potentials", "radial_schrodinger", "kleingordon", "salpeter", "gaussian_bound", "cli_report")
# scipy solvers reached through module attributes: (module, attribute)
SOLVERS = (("radial_schrodinger", "eigh_tridiagonal"), ("salpeter", "eigh"))
# argument whose size a span records
SIZED = {
    "radial_schrodinger.eigh_tridiagonal": "d",
    "salpeter.ground_energy_at": "basis_size",
    "potentials.evaluate": "r",
}


class Recorder:
    """Spans kept in memory; one open-span stack per thread.

    A span opened on a worker thread with an empty stack is parented to the
    innermost open span of the main thread, which is the span that handed
    the work to the pool.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()

    def _parent(self) -> int | None:
        stack = self._stacks.get(threading.get_ident())
        if stack:
            return stack[-1]
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    def wrap(self, name: str, fn):
        size_arg = SIZED.get(name)
        signature = inspect.signature(fn) if size_arg else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            size = None
            if size_arg:
                value = signature.bind(*args, **kwargs).arguments[size_arg]
                size = int(getattr(value, "size", value))
            parent = self._parent()
            with self._lock:
                index = len(self.spans)
                span = [name, time.perf_counter(), None, parent, None, size]
                self.spans.append(span)
            stack = self._stacks.setdefault(threading.get_ident(), [])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced


def install(recorder: Recorder) -> None:
    """Swap every public function of the layers, wherever the package
    binds it, and the scipy solvers, for recording wrappers."""
    modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
    wrapped = {}
    for name, module in modules.items():
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                wrapped[id(obj)] = recorder.wrap(f"{name}.{attr}", obj)
    for module in list(modules.values()) + [importlib.import_module(PACKAGE)]:
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrapped:
                setattr(module, attr, wrapped[id(obj)])
    for name, attr in SOLVERS:
        setattr(modules[name], attr, recorder.wrap(f"{name}.{attr}", getattr(modules[name], attr)))


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    cli = importlib.import_module(f"{PACKAGE}.cli_report")
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)


def _union(intervals) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and busy times of the given spans.

    `.s` is the union of a function's span intervals; a layer's `self_s` sums
    each of its spans' duration minus the part its child spans cover.
    """
    by_name: dict[str, list[list]] = {}
    children: dict[int, list[list]] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)
        if span[3] is not None:
            children.setdefault(span[3], []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(*names):
        return _union((s[1], s[2]) for n in names for s in by_name.get(n, ()))

    def raised(name, exc):
        return sum(1 for s in by_name.get(name, ()) if s[4] == exc)

    def sizes(name):
        return [s[5] for s in by_name.get(name, ())]

    def self_time(layer):
        total = 0.0
        for index, span in enumerate(spans):
            if span[0].split(".", 1)[0] == layer:
                covered = _union((max(c[1], span[1]), min(c[2], span[2])) for c in children.get(index, ()))
                total += (span[2] - span[1]) - covered
        return total

    modes = sizes("salpeter.ground_energy_at")
    return {
        "radial_schrodinger.lowest_eigenvalue.calls": calls("radial_schrodinger.lowest_eigenvalue"),
        "radial_schrodinger.lowest_eigenvalue.s": busy("radial_schrodinger.lowest_eigenvalue"),
        "radial_schrodinger.lowest_eigenvalue.no_bound": raised("radial_schrodinger.lowest_eigenvalue", "NoBoundState"),
        "radial_schrodinger.tridiagonal_solves": calls("radial_schrodinger.eigh_tridiagonal"),
        "radial_schrodinger.grid_points": sum(sizes("radial_schrodinger.eigh_tridiagonal")),
        "kleingordon.solve.calls": calls("kleingordon.solve"),
        "kleingordon.solve.s": busy("kleingordon.solve"),
        "kleingordon.curve.s": busy("kleingordon.curve"),
        "kleingordon.critical.s": busy("kleingordon.critical_coupling_lower", "kleingordon.critical_coupling_upper"),
        "kleingordon.self_s": self_time("kleingordon"),
        "salpeter.ground_energy.calls": calls("salpeter.ground_energy"),
        "salpeter.ground_energy.s": busy("salpeter.ground_energy"),
        "salpeter.ground_energy.nonconverged": raised("salpeter.ground_energy", "NonConvergence"),
        "salpeter.ground_energy_at.calls": calls("salpeter.ground_energy_at"),
        "salpeter.assembly_s": busy("salpeter.ground_energy_at") - busy("salpeter.eigh"),
        "salpeter.eigh_s": busy("salpeter.eigh"),
        "salpeter.default_box_radius.s": busy("salpeter.default_box_radius"),
        "salpeter.modes_sum": sum(modes),
        "salpeter.modes_max": max(modes, default=0),
        "gaussian_bound.eg_optimized.calls": calls("gaussian_bound.eg_optimized"),
        "gaussian_bound.eg_optimized.s": busy("gaussian_bound.eg_optimized"),
        "gaussian_bound.eg_optimized.out_of_range": raised("gaussian_bound.eg_optimized", "CouplingOutOfRange"),
        "gaussian_bound.j_integrals.calls": calls("gaussian_bound.j_integrals"),
        "potentials.evaluate.calls": calls("potentials.evaluate"),
        "potentials.evaluate.points": sum(sizes("potentials.evaluate")),
        "potentials.evaluate.s": busy("potentials.evaluate"),
        "cli_report.self_s": self_time("cli_report"),
    }


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
