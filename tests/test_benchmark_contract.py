"""The names perfbench imports, traces and annotates still exist in socest.

perfbench runs from outside the program: it imports socest names, wraps the
public functions in spans and reads some of their arguments by name. A
rename in socest would break the benchmark only when it runs; these tests
break first. They read perfbench and change nothing in it.
"""
import importlib
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from socest.cli import main
from socest.ecm import CellState, Profile, simulate_arrays
from socest.filters import ESTIMATOR_KINDS, estimator_run
from socest.fitting import (
    PASSIVE_NAMES, fit_passive_components, make_incremental_current_profile, predict_voltage,
)
from socest.io import read_profile, write_ocv_table, write_params, write_profile

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("checks", "inputs", "layers", "workloads", "spans")

# The arguments that `spans._units` reads from each annotated call.
UNIT_ARGUMENTS = {
    "filters.estimator_run": ("kind", "window", "profile"),
    "bench.run_trial": ("kind", "window"),
    "bench.run_sweep": ("n_jobs",),
    "ecm.simulate_arrays": ("profile",),
    "ecm.simulate": ("profile",),
    "fitting.predict_voltage": ("profile",),
    "io.write_estimate_csv": ("t",),
    "io.write_trajectory_csv": ("profile",),
}


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's modules, imported as `perfbench/run.py` imports them."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return {name: importlib.import_module(name) for name in MODULES}
    finally:
        sys.path.remove(str(PERFBENCH))


def _function(qualified: str):
    layer, name = qualified.split(".")
    module = importlib.import_module(f"socest.{layer}")
    return module, getattr(module, name, None)


def test_modules_import(perfbench):
    assert set(perfbench) == set(MODULES)


def test_annotated_functions_exist_and_are_exported(perfbench):
    for qualified in sorted(perfbench["spans"]._ANNOTATED):
        module, fn = _function(qualified)
        assert inspect.isfunction(fn), f"{qualified} is not a function"
        assert fn.__name__ in module.__all__, f"{qualified} is not in __all__"


def test_unit_arguments_are_in_the_signatures(perfbench):
    assert set(UNIT_ARGUMENTS) <= perfbench["spans"]._ANNOTATED
    for qualified, names in UNIT_ARGUMENTS.items():
        _, fn = _function(qualified)
        parameters = inspect.signature(fn).parameters
        missing = [name for name in names if name not in parameters]
        assert not missing, f"{qualified} lacks {missing}"


def test_unit_results_have_what_units_reads(perfbench, tmp_path, cell):
    """`spans._units` also reads results: `FitReport.iterations` of a fit and
    `len()` of the profile `io.read_profile` returns."""
    units = perfbench["spans"]._units
    pulses = make_incremental_current_profile(1.0, 120.0, 240.0, 2)
    pulses = pulses.with_signals(v=predict_voltage(cell, pulses, CellState(z=0.2)))
    report = fit_passive_components(pulses, cell, initial_soc=0.2)
    assert isinstance(report.iterations, int)
    assert units("fitting.fit_passive_components", {}, report) == ("", report.iterations)
    write_profile(pulses, tmp_path / "pulses.csv")
    assert units("io.read_profile", {}, read_profile(tmp_path / "pulses.csv")) == (
        "", len(pulses.t)
    )


# Every call perfbench makes into socest outside its spans (building inputs,
# the reference estimate, the per-step kernel timings), in the shape it makes
# it: (callable, positional count, keyword names). Methods are looked up on
# the class, so their first positional argument is `self`.
PERFBENCH_CALLS = (
    ("ecm.Profile", 2, ()),
    ("ecm.Profile.uniform", 1, ("dt",)),
    ("ecm.Profile.dts", 2, ()),
    ("ecm.Profile.with_signals", 1, ("v",)),
    ("ecm.EcmParams", 0, ("r0", "r1", "c1", "r2", "c2", "q_max", "ocv")),
    ("ecm.CellState", 0, ("z",)),
    ("ecm.OcvTable.from_function", 1, ("spacing",)),
    ("ecm.simulate_arrays", 3, ()),
    ("ecm.ocv_lookup", 2, ()),
    ("ecm.ocv_derivative", 2, ()),
    ("bench.make_drive_profile", 1, ("seed", "max_current")),
    ("fitting.make_incremental_current_profile", 4, ()),
    ("filters.linearize", 2, ()),
    ("filters.make_filter_state", 1, ()),
    ("filters.WindowStats", 1, ()),
    ("filters.WindowStats.push", 3, ()),
    ("filters.WindowStats.push_record", 2, ()),
    ("filters.ekf_predict", 3, ()),
    ("filters.ekf_correct", 4, ()),
    ("filters.mle_adapt", 3, ()),
    ("filters.cm_adapt", 3, ()),
    ("filters.coulomb_count_step", 4, ()),
)


@pytest.mark.parametrize(
    "qualified, n_positional, keywords", PERFBENCH_CALLS, ids=[c[0] for c in PERFBENCH_CALLS]
)
def test_perfbench_calls_still_bind(qualified, n_positional, keywords):
    layer, *path = qualified.split(".")
    target = importlib.import_module(f"socest.{layer}")
    for name in path:
        target = getattr(target, name)
    # bind raises TypeError when a call of this shape no longer fits.
    inspect.signature(target).bind(*[None] * n_positional, **dict.fromkeys(keywords))


# The layer metrics perfbench measures outside the spans: `measure_layers`
# times the CLI's import and the tracing overhead, `kernel_timings` loops
# over the per-step kernels.
NOT_FROM_SPANS = {
    "cli.import_s", "trace_overhead_s", "ecm.ocv_lookup.us", "ecm.ocv_derivative.us",
    "filters.linearize.us", "filters.ekf_step.us", "filters.mle_adapt.us", "filters.cm_adapt.us",
    "filters.window_push.w16.us", "filters.window_push.w128.us", "filters.window_push.w1024.us",
}


@pytest.fixture(scope="module")
def command_argvs(tmp_path_factory, cell):
    """argv of every command, as perfbench's layer probe runs them, on tiny inputs."""
    root = tmp_path_factory.mktemp("probe")
    out = root / "out"
    out.mkdir()
    params, ocv, drive = root / "cell.yaml", root / "ocv.yaml", root / "drive.csv"
    write_params(cell, params)
    write_ocv_table(cell.ocv, ocv)
    rng = np.random.default_rng(5)
    profile = Profile.uniform(rng.uniform(-4.0, 4.0, 200))
    v = simulate_arrays(cell, CellState(z=0.8), profile)[3]
    write_profile(profile.with_signals(v=v + rng.normal(0.0, 0.003, v.size)), drive)
    sweeps = root / "charge.csv", root / "discharge.csv"
    for path, z0, current in zip(sweeps, (0.0, 1.0), (1.0, -1.0)):
        # 100 steps of 180 s at 1 A move the SoC across the whole range.
        sweep = Profile.uniform(np.r_[0.0, np.full(100, current)], dt=180.0)
        write_profile(sweep.with_signals(v=simulate_arrays(cell, CellState(z=z0), sweep)[3]), path)
    pulses = make_incremental_current_profile(1.0, 120.0, 240.0, 2)
    write_profile(pulses.with_signals(v=predict_voltage(cell, pulses, CellState(z=0.2))),
                  root / "pulses.csv")
    estimates = [
        ["estimate", "--params", str(params), "--profile", str(drive), "--kind", kind,
         "--out", str(out / f"estimate-{kind}.csv")]
        for kind in ESTIMATOR_KINDS
    ]
    sweep_windows = [
        ["sweep-window", "--values", "16", "1024", "--params", str(params), "--trials", "1",
         "--duration", "300", "--jobs", str(jobs), "--out", str(out / f"sweep{jobs}.csv")]
        for jobs in (1, 2)
    ]
    init = [str(2.0 * getattr(cell, name)) for name in PASSIVE_NAMES]
    return [
        ["simulate", "--params", str(params), "--profile", str(drive),
         "--out", str(out / "trajectory.csv")],
        *estimates,
        *sweep_windows,
        ["fit-ocv", "--charge", str(sweeps[0]), "--discharge", str(sweeps[1]),
         "--q-max", str(cell.q_max), "--out", str(out / "ocv.yaml")],
        ["fit-params", "--profile", str(root / "pulses.csv"), "--ocv", str(ocv),
         "--q-max", str(cell.q_max), "--init", *init, "--init-soc", "0.2",
         "--out", str(out / "fitted.yaml"), "--report", str(out / "fit.json")],
    ]


def test_every_span_metric_gets_a_span(perfbench, command_argvs):
    """A command that stops calling an annotated function leaves its layer
    metric without a span, and the traced benchmark run without a value."""
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    tracer = perfbench["spans"].Tracer()
    with perfbench["spans"].instrument(tracer):
        for argv in command_argvs:
            assert main(argv) == 0, argv
    metrics = perfbench["layers"].from_spans(tracer)
    missing = [
        m["name"] for m in spec["per_layer"]
        if m["name"] not in NOT_FROM_SPANS and not math.isfinite(metrics.get(m["name"], math.nan))
    ]
    assert not missing, f"no finite span metric for {missing}"


@pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
def test_reference_estimate_runs_and_agrees(perfbench, cell, kind):
    """perfbench's oracle (`checks.reference_estimate`) steps the public step
    functions and reuses a `linearize` model while its `dt` attribute equals
    the step's; the estimate checks of every workload run it."""
    rng = np.random.default_rng(3)
    profile = Profile(np.cumsum(rng.uniform(0.5, 1.5, 300)), rng.uniform(-4.0, 4.0, 300))
    v = simulate_arrays(cell, CellState(z=0.8), profile)[3]
    profile = profile.with_signals(v=v + rng.normal(0.0, 0.003, v.size))
    checks = perfbench["checks"]
    reference = checks.reference_estimate(kind, cell, profile, 0.7, 16)
    z = estimator_run(kind, cell, profile, 0.7, window=16)
    assert np.all(np.abs(z - reference) <= checks.ESTIMATE_TOLERANCE)
