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
