"""Per-layer metrics: from recorded spans, from timing loops around the
per-step kernels, and the CLI's import time."""
from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

from socest.ecm import CellState, EcmParams, Profile, ocv_derivative, ocv_lookup, simulate_arrays
from socest.filters import (
    ESTIMATOR_KINDS, WindowStats, cm_adapt, ekf_correct, ekf_predict, linearize,
    make_filter_state, mle_adapt,
)

import proc
from spans import LAYERS, Tracer

WINDOWS = (16, 128, 1024)


def from_spans(tr: Tracer) -> dict[str, float]:
    """Every layer metric the recorded spans can give; absent calls give none."""
    by_name = defaultdict(list)
    for sid, name in enumerate(tr.names):
        by_name[name].append(sid)
    own = tr.self_times()
    children = tr.children()
    out = {}

    def spans(name, tag=None):
        return [s for s in by_name[name] if tag is None or tr.tags[s].startswith(tag)]

    def rate(sids):
        return sum(map(tr.duration, sids)) / sum(tr.units[s] for s in sids)

    def per_unit(key, name, scale, tag=None):
        sids = spans(name, tag)
        if sids:
            out[key] = scale * rate(sids)

    per_unit("io.read_profile.us_per_row", "io.read_profile", 1e6)
    per_unit("io.write_estimate_csv.us_per_row", "io.write_estimate_csv", 1e6)
    per_unit("io.write_trajectory_csv.us_per_row", "io.write_trajectory_csv", 1e6)
    per_unit("io.read_params.ms", "io.read_params", 1e3)
    per_unit("ecm.simulate_arrays.us_per_step", "ecm.simulate_arrays", 1e6)
    per_unit("ecm.simulate.us_per_step", "ecm.simulate", 1e6)
    for kind in ESTIMATOR_KINDS:
        per_unit(f"filters.estimator_run.{kind}.us_per_step", "filters.estimator_run", 1e6, f"{kind}:")
        per_unit(f"bench.run_trial.{kind}.ms", "bench.run_trial", 1e3, f"{kind}:")
    per_unit("bench.make_drive_profile.ms", "bench.make_drive_profile", 1e3)
    per_unit("fitting.build_ocv_table.ms", "fitting.build_ocv_table", 1e3)

    narrow, wide = spans("filters.estimator_run", "aekf-mle:w16"), spans("filters.estimator_run", "aekf-mle:w1024")
    if narrow and wide:
        out["filters.estimator_run.aekf-mle.w1024_over_w16"] = rate(wide) / rate(narrow)

    # Discretisations per filter run: 1 when dt never changes, one per
    # distinct dt when the per-dt model cache misses.
    filter_runs = [s for s in spans("filters.estimator_run") if not tr.tags[s].startswith("cc:")]
    if filter_runs:
        out["filters.linearize.calls"] = max(
            sum(tr.names[c] == "filters.linearize" for c in children[s]) for s in filter_runs
        )

    serial, pooled = spans("bench.run_sweep", "jobs1"), spans("bench.run_sweep", "jobs2")
    if serial:
        out["bench.trials"] = sum(
            tr.names[c] == "bench.run_trial" for s in serial for c in children[s]
        )
        out["bench.run_sweep.self_s"] = sum(own[s] for s in serial)
        if pooled:
            out["bench.jobs2_speedup"] = (
                sum(map(tr.duration, serial)) / sum(map(tr.duration, pooled))
            )

    fits = spans("fitting.fit_passive_components")
    if fits:
        out["fitting.lm_iterations"] = sum(tr.units[s] for s in fits)
        out["fitting.residual_evals"] = sum(
            tr.names[c] == "fitting.predict_voltage" for s in fits for c in children[s]
        )
        out["fitting.fit.self_s"] = sum(own[s] for s in fits)
    return out


def layer_self_times(tr: Tracer) -> dict[str, float]:
    """Self time per module, in seconds, over every recorded span.

    A sweep run with worker processes records no trial spans here, so its
    self time is time spent waiting for the pool; it is reported apart as
    bench.pool_wait_s.
    """
    totals = dict.fromkeys(LAYERS, 0.0)
    pool_wait = 0.0
    for sid, own in enumerate(tr.self_times()):
        name = tr.names[sid]
        layer = name.split(".", 1)[0]
        if name == "bench.run_sweep" and tr.tags[sid] != "jobs1":
            pool_wait += own
        elif layer in totals:
            totals[layer] += own
    return {**{f"{layer}.self_s": v for layer, v in totals.items()}, "bench.pool_wait_s": pool_wait}


def _per_call_us(body, calls: int, repeats: int = 5) -> float:
    """Median over `repeats` of the mean time of one of `calls` calls, in us."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        body()
        samples.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(samples)


def kernel_timings(cell: EcmParams, profile: Profile) -> dict[str, float]:
    """Per-call cost of the per-step kernels, which carry no spans.

    `profile` is a noisy drive with voltage; its first 2000 samples feed the
    filter step, and its SoC range feeds the OCV lookups.
    """
    n = 2000
    cur, volt = profile.i[:n].tolist(), profile.v[:n].tolist()
    z_true = simulate_arrays(cell, CellState(z=0.9), profile)[0][:n].tolist()
    dts = (1.0 + np.linspace(-0.01, 0.01, n)).tolist()
    table = cell.ocv
    model = linearize(cell, 1.0)
    out = {}

    def lookups():
        for z in z_true:
            ocv_lookup(table, z)

    def slopes():
        for z in z_true:
            ocv_derivative(table, z)

    def discretise():
        for dt in dts:
            linearize(cell, dt)

    def steps():
        fs = make_filter_state(0.8)
        for i, v in zip(cur, volt):
            fs = ekf_predict(fs, model, i)
            fs, _ = ekf_correct(fs, model, i, v)

    out["ecm.ocv_lookup.us"] = _per_call_us(lookups, n)
    out["ecm.ocv_derivative.us"] = _per_call_us(slopes, n)
    out["filters.linearize.us"] = _per_call_us(discretise, n)
    out["filters.ekf_step.us"] = _per_call_us(steps, n)

    fs = make_filter_state(0.8)
    ws = WindowStats(128)
    for i, v in zip(cur[:256], volt[:256]):
        fs = ekf_predict(fs, model, i)
        fs, rec = ekf_correct(fs, model, i, v)
        ws.push_record(rec)
    for key, adapt in (("filters.mle_adapt.us", mle_adapt), ("filters.cm_adapt.us", cm_adapt)):
        def adapting(adapt=adapt):
            for _ in range(n):
                adapt(ws, rec, fs)
        out[key] = _per_call_us(adapting, n)

    # 10000 pushes cross the ring's periodic exact re-summation twice.
    pushes = 10_000
    for window in WINDOWS:
        ring = WindowStats(window)

        def pushing(ring=ring):
            for k in range(pushes):
                ring.push(1e-4, 2e-4)
        out[f"filters.window_push.w{window}.us"] = _per_call_us(pushing, pushes)
    return out


IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import socest.cli; "
    "print(repr(time.perf_counter() - t0))"
)


def import_seconds(env: dict, cwd, repeats: int = 5) -> float:
    """Median time to import the CLI module in a fresh interpreter."""
    samples = []
    for _ in range(repeats):
        run = proc.run_python(["-c", IMPORT_PROBE], env, cwd)
        if not run.ok:
            raise RuntimeError(f"importing socest.cli failed: {run.stderr.strip()}")
        samples.append(float(run.stdout))
    return statistics.median(samples)
