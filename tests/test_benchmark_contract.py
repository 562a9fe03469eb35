"""The names perfbench imports, traces and annotates still exist in socest.

perfbench runs from outside the program: it imports socest names, wraps the
public functions in spans and reads some of their arguments by name. A
rename in socest would break the benchmark only when it runs; these tests
break first. They read perfbench and change nothing in it.
"""
import importlib
import inspect
import sys
from pathlib import Path

import pytest

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
