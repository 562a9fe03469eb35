"""Monte Carlo benchmark harness: MAE metric, synthetic drive profiles, sweeps.

Ground truth comes from the toolkit's own cell simulator; the estimator is
handed independently perturbed parameters and noise-corrupted signals, so
model mismatch is present even though the truth model is the same family.
Trial t draws its noise from an RNG seeded by (master seed, t) alone, so every
axis value and estimator of trial t sees the same draws (common random numbers):
results are reproducible, invariant to axis reordering and paired across cells.
"""
from __future__ import annotations

import math
import numbers
import os
import pickle
import sys
from contextlib import suppress
from dataclasses import dataclass, replace

import numpy as np

from .ecm import SCALAR_FIELDS, CellState, EcmParams, Profile, simulate_arrays
from .filters import ADAPTIVE_KINDS, DEFAULT_WINDOW, ESTIMATOR_KINDS, estimator_run

__all__ = [
    "NoiseSpec",
    "SweepSpec",
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
MAX_DRIVE_SAMPLES = 10**8  # longest drive make_drive_profile makes
DEFAULT_MAX_CURRENT = 10.0  # A, make_drive_profile's current cap
DEFAULT_JOBS = 1  # run_sweep's n_jobs: the sweep runs in this process
MAX_SWEEP_TRIALS = 10**6  # most trials (values x estimators x n_trials) a SweepSpec runs


def _check_seed(name: str, seed) -> None:
    """A seed is an integer >= 0, as NumPy's `SeedSequence` requires."""
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValueError(f"{name} must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class NoiseSpec:
    """AWGN variances applied to the measured current and voltage."""

    current_noise_var: float = 1e-2  # A^2
    voltage_noise_var: float = 1e-2  # V^2

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (value >= 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be nonnegative and finite, got {value!r}")


@dataclass(frozen=True)
class SweepSpec:
    """One benchmark sweep: an axis, its values, the trial budget and the
    settings every trial shares.

    `window` is the adaptive estimators' window on every axis but
    `window_size`, whose values replace it; an integral float is kept as its
    int. `base_param_error` is the relative error of the estimators' passive
    components (`perturb_params`); the `parameter_error` axis perturbs that
    cell again, so a value v gives (1 + base_param_error)(1 + v).
    `init_soc_offset` is the error injected into every estimator's initial
    SoC: the truth starts at Z0_TRUE, the estimators at Z0_TRUE + offset,
    which must be in [0, 1].
    """

    axis: str
    axis_values: tuple
    n_trials: int = 50
    base_noise: NoiseSpec = NoiseSpec()
    estimators: tuple[str, ...] = ESTIMATOR_KINDS
    master_seed: int = 0
    window: int = DEFAULT_WINDOW
    base_param_error: float = 0.0
    init_soc_offset: float = -0.1

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {self.axis!r}")
        if not self.axis_values:
            raise ValueError("axis_values must be non-empty")
        if not self.estimators:
            raise ValueError("estimators must be non-empty")
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if not math.isfinite(self.init_soc_offset):
            raise ValueError(f"init_soc_offset must be finite, got {self.init_soc_offset!r}")
        if not 0.0 <= Z0_TRUE + self.init_soc_offset <= 1.0:
            raise ValueError(f"init_soc_offset must keep {Z0_TRUE} + offset in [0, 1], "
                             f"got {self.init_soc_offset!r}")
        unknown = set(self.estimators) - set(ESTIMATOR_KINDS)
        if unknown:
            raise ValueError(f"unknown estimators {sorted(unknown)}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window!r}")
        if self.window % 1:  # a fraction, nan or inf
            raise ValueError(f"window must be an integer, got {self.window!r}")
        object.__setattr__(self, "window", int(self.window))
        _check_seed("master_seed", self.master_seed)
        object.__setattr__(self, "axis_values", tuple(self.axis_values))
        if self.trial_count > MAX_SWEEP_TRIALS:
            raise ValueError(
                f"{self.trial_count} trials exceed MAX_SWEEP_TRIALS = {MAX_SWEEP_TRIALS}"
            )
        if self.axis == "window_size":
            bad = [v for v in self.axis_values if not 1 <= v <= sys.float_info.max or v % 1]
            if bad:
                raise ValueError(f"window sizes must be integers >= 1, got {bad[0]!r}")

    @property
    def trial_count(self) -> int:
        """Trials in the whole sweep: values x estimators x n_trials."""
        return len(self.axis_values) * len(self.estimators) * self.n_trials


def mae(estimate, truth) -> float:
    """Mean absolute SoC error in percent."""
    estimate = np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimate.shape != truth.shape:
        raise ValueError("estimate and truth must have the same length")
    return float(np.abs(estimate - truth).mean() * 100.0)


def make_drive_profile(
    duration: float,
    dt: float = Profile.first_dt,
    seed: int = SweepSpec.master_seed,
    max_current: float = DEFAULT_MAX_CURRENT,
) -> Profile:
    """Reproducible piecewise-constant drive current, net-discharging on average.

    Mimics a standard drive cycle: the run is split into intensity phases
    (300-600 s, akin to low/medium/high speed sections), each built from
    mixed charge/discharge segments 10-120 s long with magnitudes up to the
    phase's share of `max_current`, each at least one sample. Deterministic per seed.
    """
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not math.isfinite(duration):
        raise ValueError(f"duration must be finite, got {duration!r}")
    if not (max_current >= 0.0 and math.isfinite(max_current)):
        raise ValueError(f"max_current must be nonnegative and finite, got {max_current!r}")
    _check_seed("seed", seed)
    if duration <= dt:
        raise ValueError("duration must exceed dt")
    if duration / dt >= MAX_DRIVE_SAMPLES + 1:  # int(duration / dt) samples, or inf
        raise ValueError(f"duration / dt = {duration / dt!r} exceeds {MAX_DRIVE_SAMPLES} samples")
    rng = np.random.default_rng(seed)
    n = int(duration / dt)
    current = np.empty(n)
    k = 0
    while k < n:
        phase_end = min(k + (int(rng.uniform(300.0, 600.0) / dt) or 1), n)
        intensity = rng.uniform(0.15, 1.0)
        while k < phase_end:
            seg = min(int(rng.uniform(10.0, 120.0) / dt) or 1, phase_end - k)
            magnitude = rng.uniform(0.0, max_current * intensity)
            sign = -1.0 if rng.random() < DISCHARGE_FRACTION else 1.0
            current[k : k + seg] = sign * magnitude
            k += seg
    return Profile.uniform(current, dt=dt)


def perturb_params(params: EcmParams, relative_error: float) -> EcmParams:
    """Uniform relative perturbation of the five passive components.

    An error that overflows a component is refused here, by its own name,
    before the cell's check would name the component instead.
    """
    if not (relative_error > -1.0 and math.isfinite(relative_error)):
        raise ValueError(f"relative_error must be finite and > -1, got {relative_error!r}")
    f = 1.0 + relative_error
    scaled = {n: getattr(params, n) * f for n in SCALAR_FIELDS if n != "q_max"}
    if not all(map(math.isfinite, scaled.values())):
        raise ValueError(
            f"relative_error must keep the perturbed cell finite, got {relative_error!r}"
        )
    return replace(params, **scaled)


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
    window: int = SweepSpec.window,
    seed: int = SweepSpec.master_seed,
    init_soc_offset: float = SweepSpec.init_soc_offset,
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

    z0 = Z0_TRUE + init_soc_offset
    return mae(estimator_run(kind, params_filter, noisy, z0, window=window), z_true)


def _trial_seed(master_seed: int, trial_index: int) -> int:
    """Seed of trial `trial_index`, derived from (master seed, trial) alone:
    every axis value and estimator of a trial shares it."""
    return int(np.random.SeedSequence([master_seed, trial_index]).generate_state(1)[0])


def _sweep_plan(spec, params_filter, n_samples: int):
    """`(calls, twin)`: the trials a sweep runs, and where each row's
    statistics come from.

    Every row, an (axis value, estimator) pair, shares the trials' seeds and
    the initial offset, so a row repeats an earlier one when its kind reads
    the same inputs on an `n_samples`-long drive: the filter cell (`cc`
    reads only its q_max), the noise, the kind and the effective window,
    which `cc`, `ekf` and an adaptive kind whose window is at least the drive
    ignore. `calls` holds run_trial's arguments after `truth` and `profile`,
    `n_trials` tuples per distinct row, rows in order of first appearance;
    `twin[r]` is the distinct row whose statistics row r takes.
    """
    seeds = [_trial_seed(spec.master_seed, t) for t in range(spec.n_trials)]
    calls, twin, seen = [], [], {}
    for axis_value in spec.axis_values:
        noise, window, p_filter = spec.base_noise, spec.window, params_filter
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
            cell = (p_filter.q_max if kind == "cc"
                    else tuple(getattr(p_filter, name) for name in SCALAR_FIELDS))
            adapts = kind in ADAPTIVE_KINDS and window < n_samples
            key = (cell, noise, kind, window if adapts else None)
            if key not in seen:
                seen[key] = len(seen)
                calls += [(p_filter, noise, kind, window, seed, spec.init_soc_offset)
                          for seed in seeds]
            twin.append(seen[key])
    return calls, twin


def _work(trial, calls, writer) -> None:
    """A forked worker's whole life: run `calls`, pickle `(results, the
    exception that stopped it or None)` to `writer` and leave by `os._exit`,
    which runs none of the parent's `atexit` handlers. Never returns."""
    status = 1
    try:
        results, failure = [], None
        try:
            for call in calls:
                results.append(trial(call))
        except BaseException as exc:
            failure = exc
        pickle.dump((results, failure), writer)
        writer.close()
        status = 0
    finally:
        os._exit(status)


def _fork_map(trial, calls, workers: int) -> list:
    """`[trial(call) for call in calls]`, computed by `workers` forked children.

    Child w runs `calls[w::workers]`. It inherits `trial`, and everything
    `trial` holds, at the fork, so nothing is pickled to it; only its
    results come back, through a pipe. If trials raise, the exception of the
    earliest failing call is raised here, as the serial loop would raise it.
    A child that dies without a result raises `ChildProcessError`. Every
    child is killed and reaped on every way out.
    """
    import signal  # only a sweep that forks needs it, so no other command imports it

    readers, pids = [], []
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            readers.append(open(read_fd, "rb"))
            with open(write_fd, "wb") as writer:
                pid = os.fork()
                if pid == 0:
                    _work(trial, calls[w::workers], writer)
                pids.append(pid)
        shares = []
        for reader in readers:
            data = reader.read()
            pid = pids.pop(0)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise ChildProcessError(f"sweep worker {pid} {how} before it sent its results")
            shares.append(pickle.loads(data))
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:  # unreaped children, so no pid here can have been reused
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failures = {w + len(done) * workers: exc for w, (done, exc) in enumerate(shares)
                if exc is not None}
    if failures:
        raise failures[min(failures)]
    results = [None] * len(calls)
    for w, (done, _) in enumerate(shares):
        results[w::workers] = done
    return results


def run_sweep(
    spec: SweepSpec, params: EcmParams, profile: Profile, n_jobs: int = DEFAULT_JOBS
) -> tuple[tuple[tuple, ...], int]:
    """Run a full sweep; mean MAE with normal-approximation 95% CIs.

    Returns `(rows, workers)`: one `(axis_value, estimator, mae_mean, ci_lo,
    ci_hi)` row per (axis value, estimator), axis values outermost, in
    `spec`'s order, and the number of worker processes that ran the trials.

    `params` is the true cell; the estimators get
    `perturb_params(params, spec.base_param_error)`. The truth is simulated
    once and shared by every trial. A row that repeats an earlier one (`cc`
    and `ekf` along `window_size`, `cc` along `parameter_error`, an adaptive
    window at least the drive's length, a repeated axis value) is run and
    reduced once and copied; `_sweep_plan` gives its key. The trials are
    embarrassingly parallel: `n_jobs` (at least 1) forked processes, but at
    most one per trial run and one per usable CPU (`os.sched_getaffinity`),
    and none off Linux; they inherit the truth and the profile at the fork.
    1 means no worker: the sweep runs in this process. Trials are reduced in
    (row, trial) order, so the output is the same for every `n_jobs`.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    params_filter = perturb_params(params, spec.base_param_error)
    truth = simulate_truth(params, profile)
    calls, twin = _sweep_plan(spec, params_filter, len(profile))
    workers = 1
    if sys.platform.startswith("linux"):
        workers = min(n_jobs, len(calls), len(os.sched_getaffinity(0)))

    def trial(call) -> float:
        p_filter, *rest = call
        return run_trial(truth, p_filter, profile, *rest)

    maes = _fork_map(trial, calls, workers) if workers > 1 else list(map(trial, calls))

    stats = []
    for values in np.reshape(maes, (-1, spec.n_trials)):
        mean = float(values.mean())
        half = (
            1.96 * float(values.std(ddof=1)) / math.sqrt(spec.n_trials)
            if spec.n_trials > 1
            else 0.0
        )
        stats.append((mean, mean - half, mean + half))
    cells = [(v, kind) for v in spec.axis_values for kind in spec.estimators]
    return tuple((*cell, *stats[j]) for cell, j in zip(cells, twin)), workers
