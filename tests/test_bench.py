import numpy as np
import pytest

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
from socest.ecm import EcmParams, Profile


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

    def test_integral_float_window_accepted(self):
        assert SweepSpec(axis="window_size", axis_values=(16.0, 64)).axis_values == (16.0, 64)
        # Off the window axis, fractional values are ordinary.
        SweepSpec(axis="noise_power", axis_values=(0.5,))


@pytest.fixture(scope="module")
def short_profile():
    return make_drive_profile(900.0, seed=2, max_current=5.0)


@pytest.fixture
def serial_pool(monkeypatch):
    """Stands in for ProcessPoolExecutor: records max_workers, the initializer's
    arguments and every task's arguments, and runs the tasks in this process;
    it starts no process."""
    import concurrent.futures
    import types

    seen = types.SimpleNamespace(sizes=[], initargs=[], tasks=[])

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


class TestRunSweep:
    def test_single_trial_matches_run_trial(self, cell, short_profile):
        from socest.bench import _trial_seed

        spec = SweepSpec(
            axis="parameter_error", axis_values=(0.1,), n_trials=1,
            estimators=("ekf",), master_seed=3,
        )
        result = run_sweep(spec, cell, short_profile)
        direct = run_trial(
            simulate_truth(cell, short_profile), perturb_params(cell, 0.1), short_profile,
            spec.base_noise, "ekf",
            seed=_trial_seed(3, 0.1, 0),
        )
        row = result.rows[0]
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

    def test_axis_reorder_invariance(self, cell, short_profile):
        fwd = SweepSpec(axis="noise_power", axis_values=(0.5, 2.0), n_trials=3,
                        estimators=("cc",))
        rev = SweepSpec(axis="noise_power", axis_values=(2.0, 0.5), n_trials=3,
                        estimators=("cc",))
        ra = {r[0]: r for r in run_sweep(fwd, cell, short_profile).rows}
        rb = {r[0]: r for r in run_sweep(rev, cell, short_profile).rows}
        assert ra == rb

    def test_cc_mae_grows_with_current_noise(self, cell, short_profile):
        spec = SweepSpec(
            axis="noise_power", axis_values=(1.0, 100.0, 10000.0), n_trials=5,
            estimators=("cc",),
            base_noise=NoiseSpec(current_noise_var=1e-2, voltage_noise_var=0.0),
            init_soc_offset=0.0,
        )
        means = [r[2] for r in run_sweep(spec, cell, short_profile).rows]
        assert means[0] < means[1] < means[2]

    def test_window_axis_reaches_estimator(self, cell, short_profile):
        spec = SweepSpec(
            axis="window_size", axis_values=(8, 256), n_trials=2,
            estimators=("aekf-mle",),
        )
        result = run_sweep(spec, cell, short_profile)
        by_window = {r[0]: r[2] for r in result.rows}
        assert by_window[8] != by_window[256]

    def test_base_window_reaches_estimator_off_the_window_axis(self, cell, short_profile):
        from socest.bench import _trial_seed

        def swept(window):
            spec = SweepSpec(
                axis="noise_power", axis_values=(1.0,), n_trials=1,
                estimators=("aekf-mle",), master_seed=4, window=window,
            )
            return run_sweep(spec, cell, short_profile).rows[0][2]

        direct = run_trial(  # base noise scaled by 1.0
            simulate_truth(cell, short_profile), cell, short_profile, NoiseSpec(), "aekf-mle",
            window=16,
            seed=_trial_seed(4, 1.0, 0),
        )
        assert swept(16) == direct
        assert swept(16) != swept(128)

    def test_parallel_matches_serial(self, cell, short_profile):
        spec = SweepSpec(axis="parameter_error", axis_values=(0.0,), n_trials=2,
                        estimators=("cc", "ekf"))
        serial = run_sweep(spec, cell, short_profile, n_jobs=1)
        parallel = run_sweep(spec, cell, short_profile, n_jobs=2)
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
        result = run_sweep(spec, cell, short_profile, n_jobs=n_jobs)
        assert len(calls) == 1
        assert len(result.rows) == 4

    @pytest.mark.parametrize("n_jobs", [0, -1])
    def test_rejects_fewer_than_one_job(self, cell, short_profile, n_jobs):
        spec = SweepSpec(axis="noise_power", axis_values=(1.0,), n_trials=1,
                         estimators=("cc",))
        with pytest.raises(ValueError, match="n_jobs must be >= 1"):
            run_sweep(spec, cell, short_profile, n_jobs=n_jobs)

    def test_pool_capped_at_trial_count(self, cell, short_profile, serial_pool):
        sizes = serial_pool.sizes
        spec = SweepSpec(axis="noise_power", axis_values=(1.0, 2.0), n_trials=3,
                         estimators=("cc",))
        pooled = run_sweep(spec, cell, short_profile, n_jobs=64)
        few = run_sweep(spec, cell, short_profile, n_jobs=4)
        assert sizes == [6, 4]  # 2 values x 1 estimator x 3 trials
        assert pooled == few == run_sweep(spec, cell, short_profile, n_jobs=1)

    def test_pool_tasks_carry_no_shared_arrays(self, cell, short_profile, serial_pool):
        spec = SweepSpec(axis="window_size", axis_values=(8, 16), n_trials=2,
                         estimators=("cc", "ekf"))
        pooled = run_sweep(spec, cell, short_profile, n_jobs=2)
        assert pooled == run_sweep(spec, cell, short_profile, n_jobs=1)
        (truth, profile), = serial_pool.initargs
        assert profile is short_profile
        assert np.array_equal(truth[0], simulate_truth(cell, short_profile)[0])
        assert len(serial_pool.tasks) == 8  # 2 windows x 2 estimators x 2 trials

        def arrays_in(obj):
            if isinstance(obj, (np.ndarray, Profile)):
                return 1
            if isinstance(obj, (tuple, list)):
                return sum(map(arrays_in, obj))
            return 0

        assert all(arrays_in(task) == 0 for task in serial_pool.tasks)
