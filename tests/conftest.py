import numpy as np
import pytest

from socest import bench
from socest.ecm import EcmParams, OcvTable


def quadratic_ocv(z):
    return 3.2 + 0.7 * z + 0.3 * z * z


@pytest.fixture(scope="session")
def ocv_table():
    return OcvTable.from_function(quadratic_ocv, spacing=0.02)


@pytest.fixture(scope="session")
def cell(ocv_table):
    # 5 Ah cell with well-separated RC time constants (30 s and 1000 s)
    return EcmParams(
        r0=0.05, r1=0.015, c1=2000.0, r2=0.025, c2=40000.0,
        q_max=18000.0, ocv=ocv_table,
    )


@pytest.fixture
def serial_pool(monkeypatch):
    """Stands in for `bench._fork_map`: records each worker count in
    `seen.sizes` and runs the trials in this process, forking nothing. The
    process's CPU affinity reads as `seen.cpus` CPUs (64 unless a test sets
    it)."""
    import os
    import types

    seen = types.SimpleNamespace(sizes=[], cpus=64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(seen.cpus)),
                        raising=False)

    def inline_map(trial, calls, workers):
        seen.sizes.append(workers)
        return [trial(call) for call in calls]

    monkeypatch.setattr(bench, "_fork_map", inline_map)
    return seen


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Repeat the acceptance verdict lines where capture cannot hide them."""
    try:
        from test_acceptance import VERDICTS
    except ImportError:
        return
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
