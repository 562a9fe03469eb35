"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL line.

These are the exit criteria for the toolkit. Each test prints exactly one
`ACCEPTANCE n: PASS|FAIL` line (bypassing capture so the verdicts always show
in the run log) and then asserts, so a plain pytest run doubles as the
acceptance report.
"""
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from socest.bench import (
    NoiseSpec,
    SweepSpec,
    make_drive_profile,
    run_sweep,
)
from socest.ecm import CellState, EcmParams, Profile, simulate_arrays
from socest.filters import (
    StepRecord,
    WindowStats,
    estimator_run,
    make_filter_state,
    mle_adapt,
)
from socest.fitting import (
    fit_passive_components,
    make_incremental_current_profile,
    predict_voltage,
)
from socest.io import read_params, read_profile, write_params, write_profile


VERDICTS: list[str] = []


def report(criterion: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {verdict} - {detail}"
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)


@pytest.fixture(scope="module")
def drive():
    return make_drive_profile(3600.0, dt=1.0, seed=1, max_current=10.0)


class TestCriterion1WindowSweepShape:
    def test_interior_minimum_under_time_budget(self, cell, drive):
        windows = (16, 32, 64, 128, 256, 512, 1024)
        spec = SweepSpec(
            axis="window_size", axis_values=windows, n_trials=50,
            estimators=("aekf-mle",), master_seed=0, base_param_error=0.1,
        )
        start = time.perf_counter()
        result, _ = run_sweep(spec, cell, drive)
        elapsed = time.perf_counter() - start
        maes = [r[2] for r in result]
        argmin = int(np.argmin(maes))
        interior = 0 < argmin < len(windows) - 1
        ok = interior and elapsed < 300.0
        report(
            1, ok,
            f"AEKF-MLE MAE minimum at N={windows[argmin]} "
            f"(curve {['%.3f' % m for m in maes]}), {elapsed:.1f}s",
        )
        assert interior, f"minimum at endpoint N={windows[argmin]}"
        assert elapsed < 300.0


class TestCriterion2EstimatorOrdering:
    def test_adaptive_beats_ekf_beats_cc(self, cell, drive):
        spec = SweepSpec(
            axis="parameter_error", axis_values=(0.0,), n_trials=100,
            master_seed=1,
        )
        result, _ = run_sweep(spec, cell, drive)
        rows = {r[1]: r for r in result}
        mean = {k: rows[k][2] for k in rows}
        ordered = (
            mean["aekf-mle"] <= mean["ekf"]
            and mean["aekf-cm"] <= mean["ekf"]
            and max(mean["aekf-mle"], mean["aekf-cm"], mean["ekf"]) <= mean["cc"]
        )
        # non-overlapping 95% CIs between each adaptive estimator and CC
        cc_lo = rows["cc"][3]
        separated = rows["aekf-mle"][4] < cc_lo and rows["aekf-cm"][4] < cc_lo
        ok = ordered and separated
        report(
            2, ok,
            "MAE means: " + ", ".join(f"{k}={mean[k]:.3f}" for k in
                                      ("aekf-mle", "aekf-cm", "ekf", "cc")),
        )
        assert ordered
        assert separated


class TestCriterion3ParameterErrorRobustness:
    def test_mle_no_worse_than_ekf_at_20_percent_error(self, cell, drive):
        spec = SweepSpec(
            axis="parameter_error", axis_values=(-0.2, 0.2), n_trials=100,
            estimators=("ekf", "aekf-mle"), master_seed=2,
        )
        result, _ = run_sweep(spec, cell, drive)
        by_key = {(r[0], r[1]): r[2] for r in result}
        ok = all(
            by_key[(v, "aekf-mle")] <= by_key[(v, "ekf")] for v in (-0.2, 0.2)
        )
        report(
            3, ok,
            f"-20%: mle={by_key[(-0.2, 'aekf-mle')]:.3f} ekf={by_key[(-0.2, 'ekf')]:.3f}; "
            f"+20%: mle={by_key[(0.2, 'aekf-mle')]:.3f} ekf={by_key[(0.2, 'ekf')]:.3f}",
        )
        assert ok


class TestCriterion4ConstantTimeAdaptation:
    def test_per_step_time_flat_in_window_size(self, cell):
        profile = make_drive_profile(10000.0, seed=4)
        _, _, _, v, _ = simulate_arrays(cell, CellState(z=0.9), profile)
        noisy = profile.with_signals(v=v + np.random.default_rng(4).normal(0, 0.1, len(profile)))
        windows = (16, 128, 1024)

        def run(window):
            estimator_run("aekf-mle", cell, noisy, 0.8, window=window)

        run(windows[0])  # untimed warm-up: no window pays for a cold start
        best = dict.fromkeys(windows, np.inf)
        # CPU time, which does not count time the process spends descheduled;
        # round-robin, so a slow spell of the host hits every window. Each
        # round starts one window later, so no window is always timed in the
        # same slot of a round.
        for k in range(5):
            for window in windows[k % len(windows):] + windows[:k % len(windows)]:
                t0 = time.process_time()
                run(window)
                best[window] = min(best[window], time.process_time() - t0)
        per_step = {window: b / len(profile) for window, b in best.items()}
        ratio = max(per_step.values()) / min(per_step.values())
        ok = ratio < 1.5
        report(
            4, ok,
            "per-step us: " + ", ".join(
                f"N={n}:{t * 1e6:.2f}" for n, t in per_step.items()
            ) + f", ratio {ratio:.2f}",
        )
        assert ok


class TestCriterion5WindowOracleEquivalence:
    def test_incremental_matches_brute_force(self):
        rng = np.random.default_rng(5)
        ws = WindowStats(128)
        e2, cpc = [], []
        ok = True
        for _ in range(10_000):
            rec = StepRecord(
                e_minus=rng.normal(), e_plus=rng.normal(),
                k_gain=rng.normal(size=3),
                cpc_term=abs(rng.normal()), cpc_minus=abs(rng.normal()),
            )
            ws.push_record(rec)
            e2.append(rec.e_minus**2)
            cpc.append(rec.e_plus**2 + rec.cpc_term)
            # Slots not yet pushed count as 0.0 until the window is full.
            brute_a = float(np.sum(e2[-128:])) / 128
            brute_b = float(np.sum(cpc[-128:])) / 128
            if not (
                abs(ws.mean_innovation_sq - brute_a) <= 1e-9 * abs(brute_a)
                and abs(ws.mean_posterior_term - brute_b) <= 1e-9 * abs(brute_b)
            ):
                ok = False
                break
        report(5, ok, "10000 incremental window updates within 1e-9 of brute force")
        assert ok


class TestCriterion6LmRecovery:
    def test_passive_parameters_recovered(self, cell):
        profile = make_incremental_current_profile(1.0, 360.0, 600.0, 4, dt=1.0)
        v = predict_voltage(cell, profile, CellState(z=0.2))
        init = replace(
            cell, r0=2 * cell.r0, r1=2 * cell.r1, r2=2 * cell.r2,
            c1=2 * cell.c1, c2=2 * cell.c2,
        )
        start = time.perf_counter()
        fit = fit_passive_components(profile.with_signals(v=v), init, initial_soc=0.2)
        elapsed = time.perf_counter() - start
        rel = {
            name: abs(getattr(fit.params, name) / getattr(cell, name) - 1.0)
            for name in ("r0", "r1", "r2", "c1", "c2")
        }
        ok = fit.converged and max(rel.values()) < 0.01 and elapsed < 10.0
        report(
            6, ok,
            f"max rel err {max(rel.values()):.2e}, converged={fit.converged}, "
            f"{elapsed:.2f}s",
        )
        assert ok


class TestCriterion7EkfCorrectness:
    def test_convergence_and_psd(self, cell, drive):
        z_true, _, _, v_true, _ = simulate_arrays(cell, CellState(z=0.7), drive)
        clean = drive.with_signals(v=v_true)
        psd_ok = [True]

        def hook(k, fs, rec):
            eig = np.linalg.eigvalsh(0.5 * (fs.p + fs.p.T))
            if eig.min() < -1e-10 * np.trace(fs.p):
                psd_ok[0] = False

        z_est = estimator_run("ekf", cell, clean, 0.5, record_hook=hook)
        err = np.abs(z_est - z_true)
        settle = int(np.argmax(err < 0.01)) if np.any(err < 0.01) else len(err)
        converged = settle < 500 and np.all(err[500:] < 0.01)
        ok = converged and psd_ok[0]
        report(
            7, ok,
            f"|z_est-z_true| < 1% after {settle} steps from 20% offset, "
            f"P PSD at every step: {psd_ok[0]}",
        )
        assert ok


class TestCriterion8MleUnitFidelity:
    def test_trivial_fixtures_exact(self):
        fs = make_filter_state(0.5)

        ws = WindowStats(8)
        rec = None
        for _ in range(8):
            rec = StepRecord(0.0, 0.0, np.array([0.5, 0.1, 0.1]), 0.0, 0.0)
            ws.push_record(rec)
        zero = mle_adapt(ws, rec, fs)
        zero_ok = np.array_equal(zero.sigma, np.zeros((3, 3))) and zero.sigma2 == 0.0

        a, b = 0.03, 0.002
        ws = WindowStats(16)
        for _ in range(16):
            rec = StepRecord(0.01, a, np.array([0.4, 0.0, 0.0]), b, 0.0)
            ws.push_record(rec)
        const = mle_adapt(ws, rec, fs)
        const_ok = (
            const.sigma2 == pytest.approx(a * a + b, rel=1e-12)
            and np.allclose(
                const.sigma, np.outer(rec.k_gain, rec.k_gain) * 1e-4, rtol=1e-12
            )
        )
        ok = zero_ok and const_ok
        report(8, ok, "zero-residual gives sigma=0; constants give a^2+b")
        assert ok


class TestCriterion9RoundTrips:
    def test_thousand_random_instances(self, tmp_path, ocv_table):
        rng = np.random.default_rng(9)
        ok = True
        prof_path = tmp_path / "p.csv"
        for _ in range(500):
            n = int(rng.integers(1, 30))
            t = np.cumsum(rng.uniform(1e-6, 100.0, n))
            p = Profile(t, rng.normal(scale=10.0, size=n),
                        rng.normal(3.7, 0.5, n) if rng.random() < 0.5 else None)
            write_profile(p, prof_path)
            q = read_profile(prof_path)
            same_v = (
                (p.v is None and q.v is None)
                or (p.v is not None and q.v is not None and np.array_equal(p.v, q.v))
            )
            if not (np.array_equal(p.t, q.t) and np.array_equal(p.i, q.i) and same_v):
                ok = False
                break
        params_path = tmp_path / "cell.yaml"
        for _ in range(500):
            params = EcmParams(
                r0=rng.uniform(1e-4, 1.0), r1=rng.uniform(1e-4, 1.0),
                c1=rng.uniform(1.0, 1e6), r2=rng.uniform(1e-4, 1.0),
                c2=rng.uniform(1.0, 1e6), q_max=rng.uniform(100.0, 1e5),
                ocv=ocv_table,
            )
            write_params(params, params_path)
            back = read_params(params_path)
            if any(
                getattr(back, f) != getattr(params, f)
                for f in ("r0", "r1", "c1", "r2", "c2", "q_max")
            ) or not np.array_equal(back.ocv.ocv_values, params.ocv.ocv_values):
                ok = False
                break
        report(9, ok, "500 profile + 500 params instances round-trip bit-exactly")
        assert ok
