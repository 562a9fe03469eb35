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
    """Stands in for ProcessPoolExecutor: records max_workers, the initializer's
    arguments and every task's arguments, and runs the tasks in this process;
    it starts no process. The process's CPU affinity reads as `seen.cpus`
    CPUs (64 unless a test sets it)."""
    import concurrent.futures
    import os
    import types

    seen = types.SimpleNamespace(sizes=[], initargs=[], tasks=[], cpus=64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(seen.cpus)),
                        raising=False)

    class SerialPool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            seen.sizes.append(max_workers)
            seen.initargs.append(initargs)
            if initializer is not None:
                initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            tasks = list(zip(*iterables))
            seen.tasks.extend(tasks)
            return [fn(*task) for task in tasks]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(bench, "_shared", None)  # restored after the test
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
