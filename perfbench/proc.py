"""Running the `socest` CLI as a timed child process."""
from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# `python -m socest.cli`, plus a report of the process's peak RSS at exit.
# The peak is VmHWM, which covers only the memory mapped since exec: the
# ru_maxrss that wait4 returns would also count the benchmark's own memory,
# which a child holds between fork and exec. Pool workers are not counted.
_LAUNCH = """\
import atexit, runpy, sys
peak_path = sys.argv.pop(1)
def report_peak():
    with open('/proc/self/status') as status:
        kib = next(line.split()[1] for line in status if line.startswith('VmHWM:'))
    with open(peak_path, 'w') as out:
        out.write(kib)
atexit.register(report_peak)
runpy.run_module('socest.cli', run_name='__main__', alter_sys=True)
"""


@dataclass(frozen=True)
class CliRun:
    wall_s: float
    returncode: int
    stdout: str
    stderr: str
    peak_rss_mb: float | None = None  # None when the process left no report

    @property
    def ok(self) -> bool:
        return self.returncode == 0


def cli_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_python(argv: list[str], env: dict, cwd: Path) -> CliRun:
    """Run `python <argv>` in `cwd` to completion and time it."""
    with open(cwd / "stdout.txt", "w+b") as out, open(cwd / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        # A session of its own, so that an interrupted run can stop the
        # command together with any worker processes it started.
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=cwd, env=env, start_new_session=True,
            stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        try:
            returncode = proc.wait()
        except BaseException:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        wall = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode(errors="replace")
        stderr = err.read().decode(errors="replace")
    return CliRun(wall, returncode, stdout, stderr)


def run_cli(args: list[str], env: dict, cwd: Path) -> CliRun:
    """Run one `socest` command; the result carries its peak RSS."""
    peak = cwd / "peak-kib.txt"
    peak.unlink(missing_ok=True)
    run = run_python(["-c", _LAUNCH, str(peak), *args], env, cwd)
    with contextlib.suppress(FileNotFoundError):
        return CliRun(run.wall_s, run.returncode, run.stdout, run.stderr,
                      int(peak.read_text()) / 1024.0)
    return run
