"""The README's Python example and CLI examples, the CI's perfbench result
check and every module's `__all__` work as documented."""
import importlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from socest.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
CHECK_RESULT = ROOT / ".github" / "scripts" / "check_perfbench_result.py"
CHECK_RUNTIME_DEPS = ROOT / ".github" / "scripts" / "check_runtime_deps.py"


def test_readme_python_example_runs():
    readme = (ROOT / "README.md").read_text()
    (example,) = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    namespace = {}
    exec(compile(example, "README.md", "exec"), namespace)
    z_est = namespace["z_est"]
    assert z_est.shape == (600,)
    assert np.all((z_est >= 0.0) & (z_est <= 1.0))


def test_readme_cli_examples_parse():
    # An option renamed in the parser but not in the README fails here.
    readme = (ROOT / "README.md").read_text()
    commands = [
        line
        for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.DOTALL)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("socest ")
    ]
    assert {shlex.split(command)[1] for command in commands} == {
        "simulate", "fit-ocv", "fit-params", "estimate", "benchmark", "sweep-window",
    }
    for command in commands:
        try:
            build_parser().parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {command}")


@pytest.mark.parametrize("module", ["ecm", "filters", "fitting", "bench", "io"])
def test_star_import_finds_every_name_in_all(module):
    # A stale `__all__` entry makes `from socest.<module> import *` raise.
    namespace = {}
    exec(f"from socest.{module} import *", namespace)
    assert set(importlib.import_module(f"socest.{module}").__all__) <= set(namespace)


def result_line(correct=True, value=1.25, failed=0):
    """A perfbench result line; json.dumps writes nan and inf as NaN and Infinity."""
    return json.dumps({
        "correct": correct, "attempted": 5, "failed": failed,
        "metrics": {"pass_s": {"value": value, "unit": "s"},
                    "peak_rss_mb": {"value": 37.5, "unit": "MB"}},
    })


def check(stdout: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(CHECK_RESULT)], input=stdout, capture_output=True, text=True
    )


def test_check_perfbench_result_accepts_a_good_last_line():
    # Lines before the result describe the run; only the last one is read.
    assert check("layer cli.import_s 0.12 (probe)\n" + result_line() + "\n").returncode == 0


@pytest.mark.parametrize("stdout", [
    "",
    result_line(value=math.nan),
    result_line(correct=False),
    result_line(value=None),
    result_line(value=True),
    result_line(value=math.inf),
    result_line(failed=1),
    result_line(failed=None),
], ids=["empty", "nan-constant", "not-correct", "null", "true", "infinity", "failed-op",
        "failed-null"])
def test_check_perfbench_result_rejects(stdout):
    assert check(stdout).returncode == 1


def test_every_ci_job_has_a_timeout():
    # Without one, a hung test holds a runner for GitHub's 6-hour default.
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    assert all(job.get("timeout-minutes", 0) > 0 for job in workflow["jobs"].values())


def test_runtime_dependency_check_passes_without_pyyaml(tmp_path):
    # CI runs the check in a fresh venv that holds socest and NumPy alone;
    # here PyYAML is blocked instead.
    code = ("import runpy, sys; sys.modules['yaml'] = None; "
            "runpy.run_path(sys.argv[1], run_name='__main__')")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code, str(CHECK_RUNTIME_DEPS)],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (tmp_path / "traj.csv").is_file()
