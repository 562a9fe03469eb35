"""Monte Carlo benchmark harness: MAE metric, synthetic drive profiles, sweeps.

Ground truth comes from the toolkit's own cell simulator; the estimator is
handed independently perturbed parameters and noise-corrupted signals, so
model mismatch is present even though the truth model is the same family.
Trials are independent, each with its own RNG stream derived from the master
seed, the swept axis value and the trial index, which makes results
reproducible and invariant to axis reordering.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from .ecm import CellState, EcmParams, Profile, simulate_arrays
from .filters import ESTIMATOR_KINDS, estimator_run

__all__ = [
    "NoiseSpec",
    "SweepSpec",
    "BenchResult",
    "mae",
    "make_drive_profile",
    "perturb_params",
    "simulate_truth",
    "run_trial",
    "run_sweep",
]

SWEEP_AXES = ("window_size", "noise_power", "parameter_error")
Z0_TRUE = 0.9  # true initial SoC of every trial
DISCHARGE_FRACTION = 0.7  # share of drive segments that discharge


@dataclass(frozen=True)
class NoiseSpec:
    """AWGN variances applied to the measured current and voltage."""

    current_noise_var: float = 1e-2  # A^2
    voltage_noise_var: float = 1e-2  # V^2

    def __post_init__(self):
        for name in ("current_noise_var", "voltage_noise_var"):
            value = getattr(self, name)
            if not (value >= 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be nonnegative and finite, got {value!r}")


@dataclass(frozen=True)
class SweepSpec:
    """One benchmark sweep: an axis, its values, the trial budget and the
    settings every trial shares.

    `window` is the adaptive estimators' window on every axis but
    `window_size`, whose values replace it. `init_soc_offset` is the error
    injected into every estimator's initial SoC (the truth starts at
    Z0_TRUE).
    """

    axis: str
    axis_values: tuple
    n_trials: int = 50
    base_noise: NoiseSpec = NoiseSpec()
    estimators: tuple[str, ...] = ESTIMATOR_KINDS
    master_seed: int = 0
    window: int = 128
    init_soc_offset: float = -0.1

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {self.axis!r}")
        if not self.axis_values:
            raise ValueError("axis_values must be non-empty")
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if not math.isfinite(self.init_soc_offset):
            raise ValueError(f"init_soc_offset must be finite, got {self.init_soc_offset!r}")
        unknown = set(self.estimators) - set(ESTIMATOR_KINDS)
        if unknown:
            raise ValueError(f"unknown estimators {sorted(unknown)}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window!r}")
        object.__setattr__(self, "axis_values", tuple(self.axis_values))
        if self.axis == "window_size":
            bad = [v for v in self.axis_values if not (float(v).is_integer() and v >= 1)]
            if bad:
                raise ValueError(f"window sizes must be integers >= 1, got {bad[0]!r}")


@dataclass(frozen=True)
class BenchResult:
    """Tidy sweep output: one row per (axis value, estimator)."""

    axis: str
    rows: tuple[tuple, ...]  # (axis_value, estimator, mae_mean, ci_lo, ci_hi)


def mae(estimate, truth) -> float:
    """Mean absolute SoC error in percent."""
    estimate = np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimate.shape != truth.shape:
        raise ValueError("estimate and truth must have the same length")
    return float(np.abs(estimate - truth).mean() * 100.0)


def make_drive_profile(
    duration: float,
    dt: float = 1.0,
    seed: int = 0,
    max_current: float = 10.0,
) -> Profile:
    """Reproducible piecewise-constant drive current, net-discharging on average.

    Mimics a standard drive cycle: the run is split into intensity phases
    (300-600 s, akin to low/medium/high speed sections), each built from
    mixed charge/discharge segments 10-120 s long with magnitudes up to the
    phase's share of `max_current`. Deterministic per seed.
    """
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not math.isfinite(duration):
        raise ValueError(f"duration must be finite, got {duration!r}")
    if not (max_current >= 0.0 and math.isfinite(max_current)):
        raise ValueError(f"max_current must be nonnegative and finite, got {max_current!r}")
    if duration <= dt:
        raise ValueError("duration must exceed dt")
    rng = np.random.default_rng(seed)
    n = int(duration / dt)
    current = np.empty(n)
    k = 0
    while k < n:
        phase_end = min(k + int(rng.uniform(300.0, 600.0) / dt), n)
        intensity = rng.uniform(0.15, 1.0)
        while k < phase_end:
            seg = min(int(rng.uniform(10.0, 120.0) / dt) or 1, phase_end - k)
            magnitude = rng.uniform(0.0, max_current * intensity)
            sign = -1.0 if rng.random() < DISCHARGE_FRACTION else 1.0
            current[k : k + seg] = sign * magnitude
            k += seg
    return Profile.uniform(current, dt=dt)


def perturb_params(params: EcmParams, relative_error: float) -> EcmParams:
    """Uniform relative perturbation of the five passive components."""
    if not (relative_error > -1.0 and math.isfinite(relative_error)):
        raise ValueError(f"relative_error must be finite and > -1, got {relative_error!r}")
    f = 1.0 + relative_error
    return replace(
        params, r0=params.r0 * f, r1=params.r1 * f, c1=params.c1 * f,
        r2=params.r2 * f, c2=params.c2 * f,
    )


def simulate_truth(params_true: EcmParams, profile: Profile) -> tuple[np.ndarray, np.ndarray]:
    """Clean truth of a drive, (z_true, v_true), from Z0_TRUE.

    It depends only on the cell and the profile, so one sweep simulates it
    once and every trial shares it.
    """
    z_true, _, _, v_true, _ = simulate_arrays(params_true, CellState(z=Z0_TRUE), profile)
    return z_true, v_true


def run_trial(
    truth: tuple[np.ndarray, np.ndarray],
    params_filter: EcmParams,
    profile: Profile,
    noise: NoiseSpec,
    kind: str,
    window: int = 128,
    seed: int = 0,
    init_soc_offset: float = -0.1,
) -> float:
    """Corrupt the measured signals of `truth`, estimate, score.

    `truth` is `simulate_truth(params_true, profile)`. It stays
    clean; noise, drawn from an RNG seeded with `seed`, only touches what the
    estimator sees. Returns the MAE in percent SoC.
    """
    z_true, v_true = truth
    rng = np.random.default_rng(seed)
    i_meas = profile.i + rng.normal(0.0, np.sqrt(noise.current_noise_var), len(profile))
    v_meas = v_true + rng.normal(0.0, np.sqrt(noise.voltage_noise_var), len(profile))
    noisy = profile.with_signals(i=i_meas, v=v_meas)

    z0 = min(max(Z0_TRUE + init_soc_offset, 0.0), 1.0)
    return mae(estimator_run(kind, params_filter, noisy, z0, window=window), z_true)


def _trial_seed(master_seed: int, axis_value, trial_index: int) -> int:
    """Seed derived from (master seed, axis value, trial); reordering the
    axis values therefore cannot change any individual trial's result."""
    value_bits = struct.unpack("<Q", struct.pack("<d", float(axis_value)))[0]
    ss = np.random.SeedSequence([master_seed, value_bits, trial_index])
    return int(ss.generate_state(1)[0])


def _sweep_calls(spec, params_filter):
    """run_trial's arguments after `truth` and `profile`, one tuple per trial,
    in (axis value, estimator, trial) order."""
    calls = []
    for axis_value in spec.axis_values:
        noise = spec.base_noise
        window = spec.window
        p_filter = params_filter
        if spec.axis == "window_size":
            window = int(axis_value)
        elif spec.axis == "noise_power":
            noise = replace(
                noise,
                current_noise_var=noise.current_noise_var * axis_value,
                voltage_noise_var=noise.voltage_noise_var * axis_value,
            )
        else:  # parameter_error
            p_filter = perturb_params(params_filter, float(axis_value))
        for kind in spec.estimators:
            for t in range(spec.n_trials):
                seed = _trial_seed(spec.master_seed, axis_value, t)
                calls.append((p_filter, noise, kind, window, seed, spec.init_soc_offset))
    return calls


# A pool worker's (truth, profile): set once per worker by `_share`, so each
# task carries only its own arguments.
_shared = None


def _share(truth, profile) -> None:
    global _shared
    _shared = (truth, profile)


def _shared_trial(call) -> float:
    truth, profile = _shared
    params_filter, *rest = call
    return run_trial(truth, params_filter, profile, *rest)


def run_sweep(
    spec: SweepSpec,
    params_true: EcmParams,
    profile: Profile,
    params_filter: EcmParams | None = None,
    n_jobs: int = 1,
) -> BenchResult:
    """Run a full sweep; mean MAE with normal-approximation 95% CIs.

    The truth is simulated once and shared by every trial. Trials are
    embarrassingly parallel (`n_jobs` processes, at most one per trial);
    results are reduced in (axis value, estimator, trial) order regardless of
    completion order, so the output is deterministic.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    if params_filter is None:
        params_filter = params_true
    truth = simulate_truth(params_true, profile)
    calls = _sweep_calls(spec, params_filter)
    cells = [(v, kind) for v in spec.axis_values for kind in spec.estimators]
    if n_jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only sweeps with a pool pay its import

        # The truth and the profile go to each worker once, through the
        # initializer (inherited under fork), not pickled into every task.
        with ProcessPoolExecutor(
            max_workers=min(n_jobs, len(calls)), initializer=_share,
            initargs=(truth, profile),
        ) as pool:
            maes = list(pool.map(_shared_trial, calls, chunksize=4))
    else:
        maes = [run_trial(truth, p, profile, *rest) for p, *rest in calls]

    rows = []
    for (axis_value, kind), values in zip(cells, np.reshape(maes, (len(cells), -1))):
        mean = float(values.mean())
        half = (
            1.96 * float(values.std(ddof=1)) / np.sqrt(spec.n_trials)
            if spec.n_trials > 1
            else 0.0
        )
        rows.append((axis_value, kind, mean, mean - half, mean + half))
    return BenchResult(axis=spec.axis, rows=tuple(rows))
