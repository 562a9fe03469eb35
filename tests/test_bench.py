import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import socest
from socest import bench
from socest.bench import (
    NoiseSpec,
    SweepSpec,
    mae,
    make_drive_profile,
    perturb_params,
    run_sweep,
    run_trial,
    simulate_truth,
)


class TestMae:
    def test_identical_is_zero(self):
        z = np.linspace(0.2, 0.8, 50)
        assert mae(z, z) == 0.0

    def test_constant_offset_in_percent(self):
        truth = np.full(100, 0.5)
        assert mae(truth + 0.03, truth) == pytest.approx(3.0, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            mae(np.zeros(3), np.zeros(4))


class TestDriveProfile:
    def test_deterministic_per_seed(self):
        a = make_drive_profile(1800.0, seed=7)
        b = make_drive_profile(1800.0, seed=7)
        assert np.array_equal(a.i, b.i)
        assert not np.array_equal(a.i, make_drive_profile(1800.0, seed=8).i)

    def test_respects_current_cap_and_length(self):
        p = make_drive_profile(3600.0, dt=1.0, max_current=6.0, seed=1)
        assert len(p) == 3600
        assert np.max(np.abs(p.i)) <= 6.0

    def test_net_discharge_on_average(self):
        totals = [make_drive_profile(3600.0, seed=s).i.sum() for s in range(10)]
        assert np.mean(totals) < 0.0

    def test_too_short_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            make_drive_profile(0.5, dt=1.0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", None])
    def test_rejects_seed_that_is_not_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match=re.escape(
                f"seed must be a non-negative integer, got {seed!r}")):
            make_drive_profile(600.0, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert np.array_equal(make_drive_profile(600.0, seed=np.int64(7)).i,
                              make_drive_profile(600.0, seed=7).i)

    @pytest.mark.parametrize("duration, dt", [(6000.0, 600.0), (7000.0, 700.0), (1e300, 1e299)])
    def test_returns_when_dt_exceeds_a_phase(self, duration, dt):
        # A phase of 300-600 s drawn as int(draw / dt) samples was 0 samples
        # long at dt >= 600 s, and the drive never grew: each phase is now
        # at least one sample. Run in a child, so a hang fails the test.
        code = ("from socest.bench import make_drive_profile\n"
                f"print(len(make_drive_profile({duration!r}, dt={dt!r})))")
        assert run_child(code) == f"{int(duration / dt)}\n"


def run_child(code: str, *args: str, timeout: float = 60.0, cwd=None) -> str:
    """stdout of `code` run with `args` in a fresh interpreter in `cwd`; a
    child still running after `timeout` s is killed and fails the test."""
    env = dict(os.environ, PYTHONPATH=str(Path(socest.__file__).parents[1]))
    try:
        proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                              text=True, env=env, timeout=timeout, cwd=cwd)
    except subprocess.TimeoutExpired:
        pytest.fail(f"still running after {timeout} s: {code}")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestPerturbParams:
    def test_scales_all_five_passives(self, cell):
        p = perturb_params(cell, 0.2)
        for name in ("r0", "r1", "r2", "c1", "c2"):
            assert getattr(p, name) == pytest.approx(1.2 * getattr(cell, name))
        assert p.q_max == cell.q_max

    def test_zero_error_is_identity(self, cell):
        p = perturb_params(cell, 0.0)
        assert (p.r0, p.r1, p.c1, p.r2, p.c2) == (
            cell.r0, cell.r1, cell.c1, cell.r2, cell.c2
        )

    def test_rejects_nonphysical_error(self, cell):
        with pytest.raises(ValueError):
            perturb_params(cell, -1.0)


class TestRunTrial:
    def test_noiseless_exact_model_is_accurate(self, cell):
        profile = make_drive_profile(1800.0, seed=3, max_current=5.0)
        noise = NoiseSpec(current_noise_var=0.0, voltage_noise_var=0.0)
        score = run_trial(
            simulate_truth(cell, profile), cell, profile, noise, "ekf", init_soc_offset=0.0
        )
        assert score < 0.1  # < 0.1 % SoC

    def test_cc_ignores_voltage_noise(self, cell):
        profile = make_drive_profile(1200.0, seed=4)
        quiet = NoiseSpec(current_noise_var=1e-4, voltage_noise_var=0.0)
        loud = NoiseSpec(current_noise_var=1e-4, voltage_noise_var=1.0)
        truth = simulate_truth(cell, profile)
        a = run_trial(truth, cell, profile, quiet, "cc", seed=5)
        b = run_trial(truth, cell, profile, loud, "cc", seed=5)
        assert a == b

    def test_cc_carries_initial_offset(self, cell):
        profile = make_drive_profile(1200.0, seed=6)
        noise = NoiseSpec(current_noise_var=0.0, voltage_noise_var=0.0)
        score = run_trial(
            simulate_truth(cell, profile), cell, profile, noise, "cc", init_soc_offset=-0.1
        )
        assert score == pytest.approx(10.0, rel=1e-9)

    def test_ekf_repairs_initial_offset(self, cell):
        profile = make_drive_profile(3600.0, seed=6)
        noise = NoiseSpec()
        truth = simulate_truth(cell, profile)
        cc = run_trial(truth, cell, profile, noise, "cc", seed=9, init_soc_offset=-0.1)
        ekf = run_trial(truth, cell, profile, noise, "ekf", seed=9, init_soc_offset=-0.1)
        assert ekf < cc

    def test_initial_soc_outside_range_refused(self, cell):
        # Z0_TRUE + offset reaches the estimator as it is, never clamped.
        profile = make_drive_profile(600.0, seed=6)
        with pytest.raises(ValueError, match=r"^initial SoC must be in \[0, 1\], got 1.1$"):
            run_trial(simulate_truth(cell, profile), cell, profile, NoiseSpec(), "cc",
                      init_soc_offset=0.2)


class TestSweepSpec:
    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="axis"):
            SweepSpec(axis="temperature", axis_values=(1.0,))

    def test_rejects_unknown_estimator(self):
        with pytest.raises(ValueError, match="estimators"):
            SweepSpec(axis="noise_power", axis_values=(1.0,), estimators=("ukf",))

    def test_rejects_empty_values(self):
        with pytest.raises(ValueError):
            SweepSpec(axis="noise_power", axis_values=())

    def test_rejects_empty_estimators(self):
        # run_sweep could not shape zero cells into rows.
        with pytest.raises(ValueError, match="^estimators must be non-empty$"):
            SweepSpec(axis="noise_power", axis_values=(1.0,), estimators=())

    @pytest.mark.parametrize("value", [16.9, float("nan"), float("inf")])
    def test_rejects_non_integer_window(self, value):
        with pytest.raises(ValueError, match="window sizes must be integers"):
            SweepSpec(axis="window_size", axis_values=(16, value))

    @pytest.mark.parametrize("value, shown", [(0, "0"), (-3.0, "-3.0")])
    def test_rejects_window_value_below_one(self, value, shown):
        with pytest.raises(ValueError, match=f"^window sizes must be integers >= 1, got {shown}$"):
            SweepSpec(axis="window_size", axis_values=(16, value))

    @pytest.mark.parametrize("window", [0, -5])
    def test_rejects_base_window_below_one(self, window):
        with pytest.raises(ValueError, match=f"^window must be >= 1, got {window}$"):
            SweepSpec(axis="noise_power", axis_values=(0.5,), window=window)

    @pytest.mark.parametrize("window", [16.0, np.float64(64.0), np.int64(8)])
    def test_integral_base_window_passed_on_as_int(self, cell, short_profile, window):
        def spec(window):
            return SweepSpec(axis="noise_power", axis_values=(1.0,), n_trials=1,
                             estimators=("aekf-mle",), window=window)

        assert type(spec(window).window) is int and spec(window).window == window
        assert run_sweep(spec(window), cell, short_profile) == run_sweep(
            spec(int(window)), cell, short_profile)

    @pytest.mark.parametrize("window", [2.5, 16.9, float("nan"), float("inf")])
    def test_rejects_fractional_or_non_finite_base_window(self, window):
        with pytest.raises(ValueError, match=f"^window must be an integer, got {window!r}$"):
            SweepSpec(axis="noise_power", axis_values=(1.0,), window=window)

    @pytest.mark.parametrize("offset", [-1.0, -0.9000001, 0.10001, 1e300])
    def test_rejects_offset_that_leaves_the_soc_range(self, offset):
        # The truth starts at Z0_TRUE = 0.9; the estimators at 0.9 + offset.
        with pytest.raises(ValueError, match="^" + re.escape(
                f"init_soc_offset must keep 0.9 + offset in [0, 1], got {offset!r}") + "$"):
            SweepSpec(axis="noise_power", axis_values=(1.0,), init_soc_offset=offset)

    @pytest.mark.parametrize("offset", [-0.9, 0.0, 0.1])
    def test_offset_reaching_the_soc_range_ends_accepted(self, offset):
        SweepSpec(axis="noise_power", axis_values=(1.0,), init_soc_offset=offset)

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", None])
    def test_rejects_master_seed_that_is_not_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"master_seed must be a non-negative integer, got {seed!r}") + "$"):
            SweepSpec(axis="noise_power", axis_values=(1.0,), master_seed=seed)

    def test_trial_count_capped(self):
        # Values x estimators x trials: the product is checked before a
        # sweep builds one argument tuple per trial.
        per_cell = bench.MAX_SWEEP_TRIALS // 4
        SweepSpec(axis="noise_power", axis_values=(1.0, 2.0), n_trials=per_cell,
                  estimators=("cc", "ekf"))
        with pytest.raises(ValueError, match=f"^{4 * per_cell + 4} trials exceed "):
            SweepSpec(axis="noise_power", axis_values=(1.0, 2.0), n_trials=per_cell + 1,
                      estimators=("cc", "ekf"))

    def test_integral_float_window_accepted(self):
        assert SweepSpec(axis="window_size", axis_values=(16.0, 64)).axis_values == (16.0, 64)
        # Off the window axis, fractional values are ordinary.
        SweepSpec(axis="noise_power", axis_values=(0.5,))


@pytest.fixture(scope="module")
def short_profile():
    return make_drive_profile(900.0, seed=2, max_current=5.0)


class TestRunSweep:
    @pytest.mark.parametrize("base", [0.0, 0.2])
    def test_single_trial_matches_run_trial(self, cell, short_profile, base):
        from socest.bench import _trial_seed

        spec = SweepSpec(
            axis="parameter_error", axis_values=(0.1,), n_trials=1,
            estimators=("ekf",), master_seed=3, base_param_error=base,
        )
        result, _ = run_sweep(spec, cell, short_profile)
        # The axis value perturbs the base cell again: (1 + base)(1 + 0.1).
        direct = run_trial(
            simulate_truth(cell, short_profile), perturb_params(perturb_params(cell, base), 0.1),
            short_profile, spec.base_noise, "ekf",
            seed=_trial_seed(3, 0),
        )
        row = result[0]
        assert row[2] == direct
        assert row[3] == row[4] == direct  # zero-width CI for one trial

    def test_bit_identical_reproducibility(self, cell, short_profile):
        spec = SweepSpec(
            axis="noise_power", axis_values=(0.5, 2.0), n_trials=3,
            estimators=("cc", "ekf"),
        )
        a = run_sweep(spec, cell, short_profile)
        b = run_sweep(spec, cell, short_profile)
        assert a == b

    @pytest.mark.parametrize("n_trials", [1, 3])
    def test_every_statistic_is_a_float(self, cell, short_profile, n_trials):
        spec = SweepSpec(axis="window_size", axis_values=(16, 64), n_trials=n_trials,
                         estimators=("cc", "aekf-mle"))
        rows, _ = run_sweep(spec, cell, short_profile)
        assert [tuple(type(x) for x in row[2:]) for row in rows] == [(float,) * 3] * 4

    def test_axis_reorder_invariance(self, cell, short_profile):
        fwd = SweepSpec(axis="noise_power", axis_values=(0.5, 2.0), n_trials=3,
                        estimators=("cc",))
        rev = SweepSpec(axis="noise_power", axis_values=(2.0, 0.5), n_trials=3,
                        estimators=("cc",))
        ra = {r[0]: r for r in run_sweep(fwd, cell, short_profile)[0]}
        rb = {r[0]: r for r in run_sweep(rev, cell, short_profile)[0]}
        assert ra == rb

    def test_cc_mae_grows_with_current_noise(self, cell, short_profile):
        spec = SweepSpec(
            axis="noise_power", axis_values=(1.0, 100.0, 10000.0), n_trials=5,
            estimators=("cc",),
            base_noise=NoiseSpec(current_noise_var=1e-2, voltage_noise_var=0.0),
            init_soc_offset=0.0,
        )
        means = [r[2] for r in run_sweep(spec, cell, short_profile)[0]]
        assert means[0] < means[1] < means[2]

    def test_window_axis_reaches_estimator(self, cell, short_profile):
        spec = SweepSpec(
            axis="window_size", axis_values=(8, 256), n_trials=2,
            estimators=("aekf-mle",),
        )
        result, _ = run_sweep(spec, cell, short_profile)
        by_window = {r[0]: r[2] for r in result}
        assert by_window[8] != by_window[256]

    @pytest.mark.parametrize("base", [0.0, -0.15])
    def test_base_window_reaches_estimator_off_the_window_axis(self, cell, short_profile, base):
        from socest.bench import _trial_seed

        def swept(window):
            spec = SweepSpec(
                axis="noise_power", axis_values=(1.0,), n_trials=1,
                estimators=("aekf-mle",), master_seed=4, window=window,
                base_param_error=base,
            )
            return run_sweep(spec, cell, short_profile)[0][0][2]

        # The truth is simulated from `cell`, the estimator given the base
        # error's cell; base noise scaled by 1.0.
        direct = run_trial(
            simulate_truth(cell, short_profile), perturb_params(cell, base), short_profile,
            NoiseSpec(), "aekf-mle",
            window=16,
            seed=_trial_seed(4, 0),
        )
        assert swept(16) == direct
        assert swept(16) != swept(128)

    # short_profile has 900 samples: a window of 900 or more never adapts.
    @pytest.mark.parametrize("mode", ["serial", "serial_pool", "fork"])
    @pytest.mark.parametrize("axis, values, window", [
        ("window_size", (8, 16, 900, 2000), 128),
        ("noise_power", (0.5, 2.0, 0.5), 900),
        ("parameter_error", (-0.1, 0.0, 0.2), 16),
    ])
    def test_rows_equal_rows_of_every_call(
        self, cell, short_profile, request, mode, axis, values, window
    ):
        if mode == "serial_pool":
            request.getfixturevalue("serial_pool")
        spec = SweepSpec(axis=axis, axis_values=values, n_trials=2, window=window,
                         master_seed=5, base_param_error=0.1)
        got, _ = run_sweep(spec, cell, short_profile, n_jobs=1 if mode == "serial" else 2)
        # Every (axis value, estimator, trial) run, none folded into its twin.
        truth = simulate_truth(cell, short_profile)
        base = perturb_params(cell, spec.base_param_error)
        rows = []
        for value in values:
            noise, p_filter, size = spec.base_noise, base, window
            if axis == "window_size":
                size = value
            elif axis == "noise_power":
                noise = NoiseSpec(noise.current_noise_var * value, noise.voltage_noise_var * value)
            else:
                p_filter = perturb_params(base, value)
            for kind in spec.estimators:
                maes = np.array([
                    run_trial(truth, p_filter, short_profile, noise, kind, size,
                              bench._trial_seed(spec.master_seed, t), spec.init_soc_offset)
                    for t in range(spec.n_trials)
                ])
                mean = float(maes.mean())
                half = 1.96 * float(maes.std(ddof=1)) / np.sqrt(spec.n_trials)
                rows.append((value, kind, mean, mean - half, mean + half))
        assert got == tuple(rows)

    @pytest.mark.parametrize("spec, runs", [
        # perfbench's sweep-window: 36 requested; cc and ekf run once per trial.
        (SweepSpec(axis="window_size", axis_values=(16, 128, 1024), n_trials=3), 24),
        # The paper sweep: 1,400 requested.
        (SweepSpec(axis="window_size", axis_values=(16, 32, 64, 128, 256, 512, 1024),
                   n_trials=50), 800),
        # Windows of at least the drive never adapt: each kind runs once per
        # trial, and the adaptive kinds do not fold into the EKF.
        (SweepSpec(axis="window_size", axis_values=(3600, 7200, 16), n_trials=2,
                   estimators=("ekf", "aekf-mle", "aekf-cm")), 10),
        # cc reads only q_max, which perturb_params leaves alone.
        (SweepSpec(axis="parameter_error", axis_values=(-0.1, 0.0, 0.1), n_trials=2,
                   estimators=("cc", "ekf")), 8),
        # A repeated noise value runs once.
        (SweepSpec(axis="noise_power", axis_values=(1.0, 2.0, 1.0), n_trials=2,
                   estimators=("cc", "aekf-cm")), 8),
    ])
    def test_each_distinct_trial_runs_once(self, cell, monkeypatch, spec, runs):
        made = []

        def counting(truth, p_filter, profile, noise, kind, window, seed, offset):
            made.append((p_filter.r0, noise, kind, window, seed))
            return float(seed % 7)

        monkeypatch.setattr(bench, "run_trial", counting)
        rows, _ = run_sweep(spec, cell, make_drive_profile(3600.0, seed=1))
        assert len(made) == len(set(made)) == runs
        assert len(rows) == len(spec.axis_values) * len(spec.estimators)

    def test_parallel_matches_serial(self, cell, short_profile):
        spec = SweepSpec(axis="parameter_error", axis_values=(0.0,), n_trials=2,
                        estimators=("cc", "ekf"))
        serial, _ = run_sweep(spec, cell, short_profile, n_jobs=1)
        parallel, _ = run_sweep(spec, cell, short_profile, n_jobs=2)
        assert serial == parallel

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_truth_simulated_once_per_sweep(self, cell, short_profile, monkeypatch, n_jobs):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return simulate_truth(*args, **kwargs)

        monkeypatch.setattr(bench, "simulate_truth", counting)
        spec = SweepSpec(axis="window_size", axis_values=(8, 16), n_trials=2,
                         estimators=("cc", "ekf"))
        result, _ = run_sweep(spec, cell, short_profile, n_jobs=n_jobs)
        assert len(calls) == 1
        assert len(result) == 4

    @pytest.mark.parametrize("n_jobs", [0, -1])
    def test_rejects_fewer_than_one_job(self, cell, short_profile, n_jobs):
        spec = SweepSpec(axis="noise_power", axis_values=(1.0,), n_trials=1,
                         estimators=("cc",))
        with pytest.raises(ValueError, match="n_jobs must be >= 1"):
            run_sweep(spec, cell, short_profile, n_jobs=n_jobs)

    def test_pool_capped_at_trial_count(self, cell, short_profile, serial_pool):
        spec = SweepSpec(axis="noise_power", axis_values=(1.0, 2.0), n_trials=3,
                         estimators=("cc",))
        pooled, many = run_sweep(spec, cell, short_profile, n_jobs=64)
        few, four = run_sweep(spec, cell, short_profile, n_jobs=4)
        assert serial_pool.sizes == [many, four] == [6, 4]  # 2 values x 1 estimator x 3 trials
        assert pooled == few == run_sweep(spec, cell, short_profile, n_jobs=1)[0]

    @pytest.mark.parametrize("n_trials, estimators, workers", [
        (1, ("cc",), 1),  # 3 trials requested, 1 run: no fork at all
        (2, ("cc", "ekf"), 4),  # 12 requested, 4 run
    ])
    def test_pool_capped_at_distinct_trials(
        self, cell, short_profile, serial_pool, n_trials, estimators, workers
    ):
        # cc and ekf repeat their rows along the window axis.
        spec = SweepSpec(axis="window_size", axis_values=(16, 64, 128), n_trials=n_trials,
                         estimators=estimators)
        rows, got = run_sweep(spec, cell, short_profile, n_jobs=500)
        assert got == workers
        assert serial_pool.sizes == ([workers] if workers > 1 else [])
        assert rows == run_sweep(spec, cell, short_profile, n_jobs=1)[0]

    def test_pool_capped_at_usable_cpus(self, cell, short_profile, serial_pool):
        spec = SweepSpec(axis="noise_power", axis_values=(1.0, 2.0), n_trials=3,
                         estimators=("cc",))
        serial = run_sweep(spec, cell, short_profile, n_jobs=1)
        serial_pool.cpus = 2
        assert run_sweep(spec, cell, short_profile, n_jobs=500) == (serial[0], 2)
        serial_pool.cpus = 1  # one usable CPU: no pool at all
        assert run_sweep(spec, cell, short_profile, n_jobs=500) == serial
        assert serial_pool.sizes == [2]

    def test_no_worker_off_linux(self, cell, short_profile, serial_pool, monkeypatch):
        spec = SweepSpec(axis="noise_power", axis_values=(1.0, 2.0), n_trials=3,
                         estimators=("cc",))
        serial = run_sweep(spec, cell, short_profile, n_jobs=1)
        monkeypatch.setattr(sys, "platform", "darwin")
        assert run_sweep(spec, cell, short_profile, n_jobs=500) == serial == (serial[0], 1)
        assert serial_pool.sizes == []


def no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def doubled_unless(bad, kill=()):
    """A trial that doubles its call, raises ValueError(call) for a call in
    `bad` and SIGKILLs its own process for a call in `kill`."""
    def trial(call):
        if call in kill:
            os.kill(os.getpid(), signal.SIGKILL)
        if call in bad:
            raise ValueError(call)
        return 2 * call
    return trial


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forks")
class TestForkMap:
    @pytest.mark.parametrize("workers", [2, 3, 7])
    def test_results_in_call_order(self, workers):
        assert bench._fork_map(doubled_unless(()), list(range(7)), workers) == list(range(0, 14, 2))
        assert no_child_left()

    def test_earliest_failing_call_raises(self):
        # Three workers: worker 1 runs calls 1, 4, 7 and stops at 4; worker 2
        # runs 2, 5 and stops at 2, the call the serial loop would stop at.
        with pytest.raises(ValueError, match="^2$"):
            bench._fork_map(doubled_unless({2, 4}), list(range(8)), 3)
        assert no_child_left()

    def test_dead_worker_is_a_child_process_error(self):
        with pytest.raises(ChildProcessError, match="killed by signal 9"):
            bench._fork_map(doubled_unless((), kill={3}), list(range(8)), 2)
        assert no_child_left()

    def test_children_killed_when_the_parent_is_interrupted(self, monkeypatch):
        # An exception in the parent while a child still runs (here, from
        # unpickling worker 0's results while worker 1 sleeps through call 1)
        # kills and reaps that child instead of waiting for it.
        def trial(call):
            if call == 1:
                time.sleep(60.0)
            return call

        def interrupted(data):
            raise KeyboardInterrupt

        monkeypatch.setattr(bench.pickle, "loads", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            bench._fork_map(trial, list(range(4)), 2)
        assert time.monotonic() - start < 30.0
        assert no_child_left()
