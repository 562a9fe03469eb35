"""Correctness gates for every operation the benchmark runs.

A gate returns a Verdict. WRONG means the program produced output that does
not match its reference; UNVERIFIED means there is no output, or no
reference to hold it to. Either way the operation counts as failed, and only
WRONG clears the run's `correct` flag.
"""
from __future__ import annotations

import csv
import enum
import json
import math

import numpy as np
import yaml

from socest.ecm import CellState, EcmParams, Profile, simulate_arrays
from socest.filters import (
    WindowStats, cm_adapt, coulomb_count_step, ekf_correct, ekf_predict, linearize,
    make_filter_state, mle_adapt,
)

ESTIMATE_TOLERANCE = 1e-12  # per sample, absolute SoC
FIT_PARAMS_TOLERANCE = 0.01  # relative, every passive component
# fit-ocv averages a charge and a discharge sweep taken at C/20, each with
# 1 mV voltage noise, so a table node carries noise of sigma ~0.7 mV; the
# interior bound is seven of those. Polarisation (r0 + r1 + r2) * 0.25 A =
# 22.5 mV cancels wherever both branches have settled; at the two ends one
# branch has not (its RC voltages are still building up), which leaves
# about 11 mV.
OCV_TOLERANCE_INTERIOR = 0.005  # V, for 0.1 <= z <= 0.9
OCV_TOLERANCE_ENDS = 0.02  # V, every node


class Verdict(enum.Enum):
    OK = "ok"
    WRONG = "wrong"
    UNVERIFIED = "unverified"


def read_columns(path) -> tuple[list[str], list[np.ndarray]]:
    """Header and float columns of a CSV, parsed with Python's exact float()."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(x) for x in row] for row in reader]
    columns = np.array(rows, dtype=float).reshape(len(rows), len(header)).T
    return header, list(columns)


def reference_estimate(
    kind: str, params: EcmParams, profile: Profile, z0: float, window: int,
    default_dt: float = 1.0,
) -> np.ndarray:
    """SoC estimates from the public step functions, one step at a time.

    This is the oracle the estimators are held to: predict, correct, push
    the residuals into the window, and adapt once `window` steps have passed.
    Raises whatever the step functions raise (NumericalFaultError).
    """
    n = len(profile)
    dts = profile.dts(default_dt)
    out = np.empty(n)
    if kind == "cc":
        z = z0
        for k in range(n):
            z = coulomb_count_step(z, profile.i[k], dts[k], params.q_max)
            out[k] = z
        return out
    adapt = {"aekf-mle": mle_adapt, "aekf-cm": cm_adapt}.get(kind)
    ws = WindowStats(window) if adapt else None
    fs = make_filter_state(z0)
    model = None
    for k in range(n):
        if model is None or model.dt != dts[k]:
            model = linearize(params, dts[k])
        fs = ekf_predict(fs, model, profile.i[k])
        fs, rec = ekf_correct(fs, model, profile.i[k], profile.v[k])
        if adapt:
            ws.push_record(rec)
            if k + 1 > window:
                fs = adapt(ws, rec, fs)
        out[k] = fs.x[0]
    return out


def check_estimate(out_path, profile: Profile, reference: np.ndarray | None) -> Verdict:
    if reference is None:
        return Verdict.UNVERIFIED
    header, cols = read_columns(out_path)
    if header != ["t", "z_est"] or cols[0].size != len(profile):
        return Verdict.WRONG
    if not np.array_equal(cols[0], profile.t):
        return Verdict.WRONG
    return Verdict.OK if np.all(np.abs(cols[1] - reference) <= ESTIMATE_TOLERANCE) else Verdict.WRONG


def check_sweep(serial_bytes: bytes, jobs2_bytes: bytes, values, estimators) -> Verdict:
    """Identical bytes from --jobs 1 and --jobs 2, one sane row per cell."""
    if serial_bytes != jobs2_bytes:
        return Verdict.WRONG
    lines = serial_bytes.decode().splitlines()
    if lines[0] != "axis_value,estimator,mae_mean,ci_lo,ci_hi":
        return Verdict.WRONG
    rows = [line.split(",") for line in lines[1:]]
    expected = [(float(v), kind) for v in values for kind in estimators]
    if [(float(r[0]), r[1]) for r in rows] != expected:
        return Verdict.WRONG
    for r in rows:
        mean, lo, hi = (float(x) for x in r[2:])
        if not (math.isfinite(mean) and 0.0 <= lo <= mean <= hi <= 100.0):
            return Verdict.WRONG
    return Verdict.OK


def check_fit_params(report_path, cell: EcmParams) -> Verdict:
    with open(report_path) as fh:
        report = json.load(fh)
    if report.get("converged") is not True:
        return Verdict.WRONG
    for name in ("r0", "r1", "r2", "c1", "c2"):
        true = getattr(cell, name)
        if not abs(report["params"][name] / true - 1.0) <= FIT_PARAMS_TOLERANCE:
            return Verdict.WRONG
    return Verdict.OK


def check_fit_ocv(table_path, ocv_fn) -> Verdict:
    """The table fit-ocv writes on its default 2 % grid, against the truth."""
    with open(table_path) as fh:
        doc = yaml.safe_load(fh)
    pairs = sorted((float(z), float(v)) for z, v in doc["ocv"].items())
    grid = np.array([z for z, _ in pairs])
    err = np.abs(np.array([v for _, v in pairs]) - ocv_fn(grid))
    if grid.size != 51 or not np.allclose(grid, np.linspace(0.0, 1.0, 51), atol=1e-15):
        return Verdict.WRONG
    interior = (grid >= 0.1 - 1e-9) & (grid <= 0.9 + 1e-9)
    if err.max() > OCV_TOLERANCE_ENDS or err[interior].max() > OCV_TOLERANCE_INTERIOR:
        return Verdict.WRONG
    return Verdict.OK


def check_simulate(out_path, cell: EcmParams, profile: Profile, z0: float) -> Verdict:
    """The trajectory CSV must round-trip bit-exactly to simulate_arrays."""
    header, cols = read_columns(out_path)
    if header != ["t", "i", "v", "z", "v_r1", "v_r2"] or cols[0].size != len(profile):
        return Verdict.WRONG
    z, v1, v2, volt, _ = simulate_arrays(cell, CellState(z=z0), profile)
    expected = (profile.t, profile.i, volt, z, v1, v2)
    same = all(np.array_equal(got, want) for got, want in zip(cols, expected))
    return Verdict.OK if same else Verdict.WRONG
