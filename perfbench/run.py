"""Benchmark of the `socest` command line, run from the root of a checkout.

    python3 perfbench/run.py --workload estimate-10h --seed 1 --seconds 20 --trace 0

With `--trace 0` it generates the workload's inputs from the seed, runs the
workload's commands as child processes (the `socest.cli` module run as
`python -m` would, with PYTHONPATH=src), one at a time, in passes until `--seconds` have elapsed,
checks every output, and prints the end-to-end metrics of BENCHMARK.json.
With `--trace 1` it runs the same commands in this process, once untraced
and once with spans around every call into the program's modules, plus a
small probe of every command, and prints the per-layer metrics.

The last line of standard output is the result: one JSON object with the
keys correct, attempted, failed and metrics. Lines before it describe the
run (provenance, per-command times, failures, layer self times).
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Set-up is timed before and again after the passes, each time repeating
# until both minimums are reached; setup_s is the median of all of them.
# Cheap set-ups (the sweep writes one small file) get many samples this
# way, and a slow spell of the machine at one end of the run weighs less.
# The sweep's --jobs 2 is the only parallelism the benchmark allows. With
# threaded BLAS, fit-params ran both slower and more erratically on a
# 2-vCPU host (OpenBLAS threads contend with the benchmark and each other).
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
WORK_DIR = ".perfbench"  # under the checkout root; inputs, outputs, span files


def _read_text(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def provenance(root: Path, seed: int) -> dict:
    """Where and on what a result was measured."""
    import numpy as np

    commit = None
    if (root / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "socest").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = None
    for line in (_read_text(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read_text(index / "level"), _read_text(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}_cache"] = _read_text(index / "size")
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor() or None,
        **caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


class Tally:
    """Attempted and failed operations, and whether any output was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: list[str] = []

    def judge(self, op, ran: bool, why_not: str = "") -> None:
        import yaml
        from checks import Verdict

        self.attempted += 1
        if not ran:
            verdict, reason = Verdict.UNVERIFIED, why_not
        else:
            try:
                verdict = op.check()
            except (OSError, ValueError, KeyError, IndexError, TypeError, yaml.YAMLError) as exc:
                verdict = Verdict.WRONG
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
            else:
                reason = "output does not match its reference" if verdict is Verdict.WRONG \
                    else "no reference to check the output against"
        if verdict is not Verdict.OK:
            self.failed += 1
            self.failures.append(f"{op.metric}: {verdict.value}: {reason}")
        if verdict is Verdict.WRONG:
            self.correct = False


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def run_passes(workload, work: Path, env: dict, seconds: float, tally: Tally) -> list[dict]:
    """Passes of the workload's commands as child processes until they have
    taken `seconds` (at least one pass); per pass, {metric: CliRun}."""
    import proc

    passes = []
    measured = 0.0  # command time only: the gates' own time is not counted
    while measured < seconds:
        out = work / f"pass{len(passes)}"
        out.mkdir()
        runs = {}
        for op in workload.ops(out):
            run = proc.run_cli(list(op.argv), env, work)
            measured += run.wall_s
            tally.judge(op, run.ok, f"exit {run.returncode}: {_last_line(run.stderr)}")
            runs[op.metric] = run
        passes.append(runs)
        shutil.rmtree(out)
    return passes


def run_in_process(workload, out: Path, tally: Tally, tracer=None) -> float:
    """One pass of the workload's commands through `socest.cli.main` in this
    process, traced when a tracer is given; returns the commands' total time."""
    import socest.cli
    import spans

    out.mkdir()
    total = 0.0
    instrumented = spans.instrument(tracer) if tracer is not None else contextlib.nullcontext()
    with instrumented:
        for op in workload.ops(out):
            start = time.perf_counter()
            try:
                rc, why_not = socest.cli.main(list(op.argv)), ""
            except Exception as exc:  # an op that raises is a failed op, not a crashed benchmark
                rc, why_not = None, f"{type(exc).__name__}: {exc}"
            total += time.perf_counter() - start
            tally.judge(op, rc == 0, why_not or f"exit {rc}")
    return total


def measure_end_to_end(workload, work: Path, env: dict, seconds: float, tally: Tally) -> dict:
    import proc

    # Compile the package's bytecode before anything is timed.
    proc.run_python(["-c", "import socest.cli"], env, work)
    (work / "inputs").mkdir()

    def time_setups():
        times = []
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
            start = time.perf_counter()
            workload.setup(work / "inputs")
            times.append(time.perf_counter() - start)
        return times

    setups = time_setups()
    passes = run_passes(workload, work, env, seconds, tally)
    setups += time_setups()

    per_op = {
        metric: statistics.median(p[metric].wall_s for p in passes)
        for metric in passes[0]
    }
    timed = [op.metric for op in workload.ops(work) if op.timed]
    print(f"passes {len(passes)}")
    for metric, value in per_op.items():
        note = "" if metric in timed else ", untimed"
        each = " ".join(f"{p[metric].wall_s:.3f}" for p in passes)
        peak = max((p[metric].peak_rss_mb or 0.0) for p in passes)
        print(f"{metric} {value:.4f} s (median of {each}{note}; peak {peak:.1f} MB)")
    print(f"failed_frac {tally.failed / tally.attempted:.4f}")
    return {
        "pass_s": sum(per_op[m] for m in timed),
        "peak_rss_mb": max(
            (run.peak_rss_mb for p in passes for run in p.values() if run.peak_rss_mb),
            default=None,
        ),
        "setup_s": statistics.median(setups),
    }


def measure_layers(workload, work: Path, env: dict, tally: Tally, spans_csv: Path) -> dict:
    import layers
    from spans import Tracer
    from workloads import LayerProbe

    probe = LayerProbe(workload.seed)
    for target, name in ((workload, "inputs"), (probe, "probe-inputs")):
        (work / name).mkdir()
        target.setup(work / name)

    # The probe runs first: it calls every command once, so the first-call
    # costs it pays are not charged to either timed pass of the workload.
    probe_tracer = Tracer()
    run_in_process(probe, work / "probe", tally, probe_tracer)
    untraced = run_in_process(workload, work / "untraced", tally)
    tracer = Tracer()
    traced = run_in_process(workload, work / "traced", tally, tracer)

    own = {
        **layers.from_spans(tracer),
        "cli.import_s": layers.import_seconds(env, work),
        "trace_overhead_s": traced - untraced,
    }
    kernels = layers.kernel_timings(workload.cell, probe.measured)
    metrics = {**layers.from_spans(probe_tracer), **own, **kernels}
    print(f"untraced_s {untraced:.4f} traced_s {traced:.4f} spans {len(tracer)}")
    for name, value in layers.layer_self_times(tracer).items():
        print(f"{name} {value:.4f} s")
    for name in sorted(metrics):
        source = "workload" if name in own else "kernel loop" if name in kernels else "probe"
        print(f"layer {name} {metrics[name]:.6g} ({source})")
    tracer.write_csv(spans_csv)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so that the running
    # command is stopped and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    src = root / "src"
    spec_path = root / "BENCHMARK.json"
    if not (src / "socest" / "cli.py").is_file() or not spec_path.is_file():
        print("perfbench: run from a socest checkout (needs src/socest and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(src))
    # Before NumPy loads, so that in-process runs are single-threaded too;
    # the commands inherit it.
    os.environ.update(SINGLE_THREADED)

    import proc
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    print("provenance " + json.dumps(provenance(root, args.seed), sort_keys=True))

    base = root / WORK_DIR
    work = base / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    env = proc.cli_env(src)
    tally = Tally()
    try:
        if args.trace:
            spans_csv = base / f"spans-{args.workload}-seed{args.seed}.csv"
            measured = measure_layers(workload, work, env, tally, spans_csv)
            wanted = spec["per_layer"]
        else:
            measured = measure_end_to_end(workload, work, env, args.seconds, tally)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in tally.failures:
        print(f"failed {failure}")

    metrics = {m["name"]: {"value": measured.get(m["name"]), "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
