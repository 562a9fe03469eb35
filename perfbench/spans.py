"""Spans around calls into the program's modules, recorded from outside it.

`instrument` swaps each public `socest` function, in every module namespace
that holds it, for a wrapper that records a span (name, start, end, parent)
and restores the originals on exit. The program itself is not changed. The
per-step kernels listed in PER_STEP are left alone: a span each would cost
more than the call, so `layers.py` times them in isolation instead.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = ("cli", "io", "ecm", "filters", "bench", "fitting")
PER_STEP = frozenset({
    "ekf_predict", "ekf_correct", "mle_adapt", "cm_adapt", "coulomb_count_step",
    "ocv_lookup", "ocv_derivative", "ecm_step", "terminal_voltage",
})


def _units(name: str, args: dict, result):
    """(tag, units) recorded with a span: what was done and how much of it."""
    if name == "filters.estimator_run":
        return f"{args['kind']}:w{args['window']}", len(args["profile"])
    if name == "bench.run_trial":
        return f"{args['kind']}:w{args['window']}", 1
    if name == "bench.run_sweep":
        return f"jobs{args['n_jobs']}", 1
    if name in ("ecm.simulate_arrays", "ecm.simulate", "fitting.predict_voltage"):
        return "", len(args["profile"])
    if name == "io.read_profile":
        return "", len(result)
    if name in ("io.write_estimate_csv", "io.write_trajectory_csv"):
        return "", len(args["t"] if "t" in args else args["profile"])
    if name == "fitting.fit_passive_components":
        return "", result.iterations
    return "", 1


@dataclass
class Tracer:
    """Spans kept in memory as parallel lists; ids are list indices."""

    names: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    ends: list = field(default_factory=list)
    parents: list = field(default_factory=list)
    tags: list = field(default_factory=list)
    units: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    def begin(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(None)
        self.tags.append("")
        self.units.append(1)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def end(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        signature = inspect.signature(fn)
        annotate = name in _ANNOTATED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if annotate:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.tags[sid], self.units[sid] = _units(name, bound.arguments, result)
            return result

        return traced

    def __len__(self) -> int:
        return len(self.names)

    def duration(self, sid: int) -> float:
        return self.ends[sid] - self.starts[sid]

    def children(self) -> dict[int, list[int]]:
        out = defaultdict(list)
        for sid, parent in enumerate(self.parents):
            out[parent].append(sid)
        return out

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [self.duration(s) for s in range(len(self))]
        for sid, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.duration(sid)
        return own

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,tag,units\n")
            for sid in range(len(self)):
                fh.write(
                    f"{sid},{self.names[sid]},{self.starts[sid]!r},{self.ends[sid]!r},"
                    f"{self.parents[sid]},{self.tags[sid]},{self.units[sid]}\n"
                )


_ANNOTATED = frozenset({
    "filters.estimator_run", "bench.run_trial", "bench.run_sweep",
    "ecm.simulate_arrays", "ecm.simulate", "fitting.predict_voltage",
    "io.read_profile", "io.write_estimate_csv", "io.write_trajectory_csv",
    "fitting.fit_passive_components",
})


def _public_functions(module):
    exported = set(getattr(module, "__all__", ())) | {"main"}
    layer = module.__name__.rsplit(".", 1)[1]
    for obj in vars(module).values():
        if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                and obj.__name__ in exported and obj.__name__ not in PER_STEP):
            yield obj, f"{layer}.{obj.__name__}"


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Trace every public socest function (except PER_STEP) while active."""
    modules = [importlib.import_module(f"socest.{layer}") for layer in LAYERS]
    wrappers = {
        fn: tracer.wrap(fn, name) for m in modules for fn, name in _public_functions(m)
    }
    patched = []
    try:
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    patched.append((module, attr, obj))
        yield tracer
    finally:
        for module, attr, obj in reversed(patched):
            setattr(module, attr, obj)
