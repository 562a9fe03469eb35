import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from socest.bench import make_drive_profile
from socest.ecm import CellState, EcmParams, OcvTable, Profile, ocv_derivative, simulate_arrays
from socest.filters import (
    ESTIMATOR_KINDS,
    FilterState,
    NumericalFaultError,
    StepRecord,
    WindowStats,
    cm_adapt,
    coulomb_count_step,
    ekf_correct,
    ekf_predict,
    estimator_run,
    linearize,
    make_filter_state,
    mle_adapt,
)


def random_spd(rng, n=3):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


def make_record(rng):
    return StepRecord(
        e_minus=rng.normal(),
        e_plus=rng.normal(),
        k_gain=rng.normal(size=3),
        cpc_term=abs(rng.normal()),
        cpc_minus=abs(rng.normal()),
    )


class TestCoulombCounting:
    def test_zero_current_unchanged(self):
        assert coulomb_count_step(0.3, 0.0, 10.0, 3600.0) == 0.3

    def test_half_soc_in_one_hour(self):
        assert coulomb_count_step(0.1, 1.0, 3600.0, 7200.0) == pytest.approx(0.6)

    def test_sensor_offset_drift(self):
        # A constant current-sensor offset b accumulates as b*T/q_max.
        q_max, b, dt, steps = 18000.0, 0.05, 1.0, 2000
        z = 0.5
        for _ in range(steps):
            z = coulomb_count_step(z, b, dt, q_max)
        assert z - 0.5 == pytest.approx(b * steps * dt / q_max, rel=1e-12)

    def test_clamps(self):
        assert coulomb_count_step(0.99, 1000.0, 60.0, 100.0) == 1.0
        assert coulomb_count_step(0.01, -1000.0, 60.0, 100.0) == 0.0


class TestLinearize:
    def test_matrices_match_dynamics(self, cell):
        dt = 2.0
        m = linearize(cell, dt)
        a1 = np.exp(-dt / cell.tau1)
        a2 = np.exp(-dt / cell.tau2)
        assert np.allclose(m.a_diag, [1.0, a1, a2])
        assert np.allclose(
            m.b_vector, [dt / cell.q_max, cell.r1 * (1 - a1), cell.r2 * (1 - a2)]
        )
        assert np.all((m.a_diag > 0) & (m.a_diag <= 1))

    def test_c_row_uses_ocv_slope(self, cell):
        m = linearize(cell, 1.0)
        c = m.c_row(0.37)
        assert c[0] == ocv_derivative(cell.ocv, 0.37)
        assert c[1] == c[2] == 1.0


class TestEkfPredict:
    def test_identity_propagation(self, cell):
        fs = FilterState(
            x=np.array([0.5, 0.0, 0.0]), p=np.diag([0.1, 0.2, 0.3]),
            sigma=np.zeros((3, 3)), sigma2=1e-4,
        )
        m = linearize(cell, 1.0)
        # Force the identity-A limit directly.
        object.__setattr__(m, "a_diag", np.ones(3))
        object.__setattr__(m, "b_vector", np.zeros(3))
        out = ekf_predict(fs, m, 1.0)
        assert np.array_equal(out.p, fs.p)
        assert np.array_equal(out.x, fs.x)

    def test_diagonal_algebra(self, cell):
        m = linearize(cell, 5.0)
        p_diag = np.array([0.01, 0.02, 0.03])
        sigma_diag = np.array([1e-6, 2e-6, 3e-6])
        fs = FilterState(
            x=np.array([0.5, 0.0, 0.0]), p=np.diag(p_diag),
            sigma=np.diag(sigma_diag), sigma2=1e-4,
        )
        out = ekf_predict(fs, m, 0.0)
        expected = m.a_diag**2 * p_diag + sigma_diag
        assert np.allclose(np.diag(out.p), expected, rtol=1e-14)

    def test_against_triple_product_oracle(self, cell):
        rng = np.random.default_rng(11)
        m = linearize(cell, 3.0)
        a_full = np.diag(m.a_diag)
        for _ in range(20):
            p = random_spd(rng)
            sigma = random_spd(rng) * 1e-4
            fs = FilterState(
                x=np.array([0.5, 0.01, -0.01]), p=p, sigma=sigma, sigma2=1e-4
            )
            out = ekf_predict(fs, m, 2.0)
            oracle = a_full @ p @ a_full.T + sigma
            assert np.allclose(out.p, oracle, rtol=1e-12)
            oracle_x = a_full @ fs.x + m.b_vector * 2.0
            oracle_x[0] = np.clip(oracle_x[0], 0.0, 1.0)
            assert np.allclose(out.x, oracle_x, rtol=1e-12)


class TestEkfCorrect:
    def test_high_noise_ignores_measurement(self, cell):
        m = linearize(cell, 1.0)
        fs = FilterState(
            x=np.array([0.5, 0.0, 0.0]), p=np.diag([0.01, 1e-4, 1e-4]),
            sigma=np.zeros((3, 3)), sigma2=0.0,
        )
        c = m.c_row(0.5)
        fs.sigma2 = 1e12 * float(c @ fs.p @ c)
        out, rec = ekf_correct(fs, m, 0.0, m.output(fs.x, 0.0) + 0.5)
        assert np.allclose(out.x, fs.x, rtol=1e-6)

    def test_zero_innovation_is_identity(self, cell):
        m = linearize(cell, 1.0)
        fs = FilterState(
            x=np.array([0.4, 0.01, 0.0]), p=np.diag([0.01, 1e-4, 1e-4]),
            sigma=np.zeros((3, 3)), sigma2=1e-4,
        )
        v = m.output(fs.x, 1.5)
        out, rec = ekf_correct(fs, m, 1.5, v)
        assert np.array_equal(out.x, fs.x)
        assert rec.e_minus == 0.0
        assert rec.e_plus == 0.0

    def test_zero_innovation_variance_skips_correction(self, cell):
        # P = 0 and sigma2 = 0 give s = C P C^T + R_FLOOR = R_FLOOR, so
        # K = P C^T / s = 0 and the state stays as predicted.
        m = linearize(cell, 1.0)
        fs = FilterState(
            x=np.array([0.4, 0.01, 0.0]), p=np.zeros((3, 3)), sigma=np.zeros((3, 3)), sigma2=0.0,
        )
        out, rec = ekf_correct(fs, m, 1.5, m.output(fs.x, 1.5) + 0.01)
        assert np.array_equal(rec.k_gain, np.zeros(3))
        assert np.array_equal(out.x, fs.x) and np.array_equal(out.p, fs.p)
        assert rec.e_plus == rec.e_minus != 0.0

    def test_negative_innovation_variance_raises(self, cell):
        # A corrupt P: with C = [d, 1, 1], C P C^T = P[1, 1] = -1e-10, far
        # below -R_FLOOR, so s = -1e-10 + R_FLOOR rounds to -1e-10.
        m = linearize(cell, 1.0)
        fs = FilterState(
            x=np.array([0.4, 0.0, 0.0]), p=np.diag([0.0, -1e-10, 0.0]),
            sigma=np.zeros((3, 3)), sigma2=0.0,
        )
        message = "^innovation variance -1e-10 is not positive$"
        with pytest.raises(NumericalFaultError, match=message):
            ekf_correct(fs, m, 0.0, 3.6)

    def test_residuals_use_nonlinear_output(self, cell):
        m = linearize(cell, 1.0)
        fs = FilterState(
            x=np.array([0.4, 0.0, 0.0]), p=np.diag([0.01, 1e-4, 1e-4]),
            sigma=np.zeros((3, 3)), sigma2=1e-4,
        )
        v = 3.6
        out, rec = ekf_correct(fs, m, 0.0, v)
        assert rec.e_minus == pytest.approx(v - m.output(fs.x, 0.0), abs=1e-15)
        assert rec.e_plus == pytest.approx(v - m.output(out.x, 0.0), abs=1e-15)
        assert rec.cpc_term >= 0.0

    def test_joseph_form_matches_textbook_update(self, cell):
        rng = np.random.default_rng(5)
        m = linearize(cell, 1.0)
        for _ in range(10):
            p = random_spd(rng) * 1e-3
            fs = FilterState(
                x=np.array([0.5, 0.0, 0.0]), p=p, sigma=np.zeros((3, 3)),
                sigma2=2e-4,
            )
            out, rec = ekf_correct(fs, m, 0.3, 3.65)
            c = m.c_row(0.5)
            k = p @ c / (c @ p @ c + fs.sigma2)
            simple = p - np.outer(k, c) @ p  # (I-KC)P, the short form
            assert np.allclose(out.p, 0.5 * (simple + simple.T), atol=1e-12)

    def test_convergence_from_soc_offset(self, cell):
        # Noiseless exact-model data, initial SoC off by 0.2.
        rng = np.random.default_rng(3)
        current = rng.uniform(-4.0, 4.0, 800)
        profile = Profile.uniform(current)
        z_true, _, _, v_true, _ = simulate_arrays(cell, CellState(z=0.7), profile)
        z_est = estimator_run("ekf", cell, profile.with_signals(v=v_true), 0.5)
        err = np.abs(z_est - z_true)
        assert np.all(err[500:] < 0.01)


class TestWindowStats:
    def test_periodic_recompute_bounds_drift(self):
        # Each time the head wraps to 0 the ring is full, and both sums are
        # recomputed exactly from it.
        ws = WindowStats(16)
        rng = np.random.default_rng(2)
        wraps = 0
        for k in range(1000):
            ws.push(rng.uniform(), rng.uniform())
            if ws._head == 0:
                wraps += 1
                assert ws._sum_a == math.fsum(ws._ring_a)
                assert ws._sum_b == math.fsum(ws._ring_b)
        assert wraps == 1000 // 16

    def test_sums_forget_evicted_magnitudes(self):
        # Summands that fall by 30 decades, as the residuals of a filter on
        # noise-free voltage do: subtracting the evicted large ones leaves an
        # error of about eps times their size, more than the small ones sum
        # to. After one full window of small summands the means are exact.
        ws = WindowStats(16)
        rng = np.random.default_rng(3)
        for _ in range(16):
            ws.push(1e-3 * rng.uniform(), 1e-3 * rng.uniform())
        small = 1e-33 * rng.uniform(size=(16, 2))
        for a, b in small:
            ws.push(a, b)
        assert ws.mean_innovation_sq == math.fsum(small[:, 0]) / 16
        assert ws.mean_posterior_term == math.fsum(small[:, 1]) / 16

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            WindowStats(0)

    def test_overflowing_sum_is_a_numerical_fault(self):
        # Two finite summands whose exact sum is past the float range: the
        # re-sum at the wrap cannot hold it.
        ws = WindowStats(2)
        ws.push(1e308, 0.0)
        with pytest.raises(NumericalFaultError, match="^residual window sum overflows$"):
            ws.push(1e308, 0.0)


class TestMleAdapt:
    def test_sigma_always_psd_and_sigma2_nonnegative(self):
        rng = np.random.default_rng(9)
        ws = WindowStats(32)
        fs = make_filter_state(0.5)
        for _ in range(200):
            rec = make_record(rng)
            ws.push_record(rec)
            out = mle_adapt(ws, rec, fs)
            eig = np.linalg.eigvalsh(out.sigma)
            assert eig.min() >= -1e-12 * max(eig.max(), 1.0)
            assert out.sigma2 >= 0.0

    def test_brute_force_window_oracle(self):
        rng = np.random.default_rng(4)
        ws = WindowStats(128)
        records = []
        fs = make_filter_state(0.5)
        for _ in range(1000):
            rec = make_record(rng)
            ws.push_record(rec)
            records.append(rec)
            out = mle_adapt(ws, rec, fs)
            kept = records[-128:]
            sig2_brute = np.sum([r.e_plus**2 + r.cpc_term for r in kept]) / 128
            sigma_brute = np.outer(rec.k_gain, rec.k_gain) * (
                np.sum([r.e_minus**2 for r in kept]) / 128
            )
            assert out.sigma2 == pytest.approx(sig2_brute, rel=1e-9)
            assert np.allclose(out.sigma, sigma_brute, rtol=1e-9, atol=1e-15)


class TestCmAdapt:
    def test_floor_engages_on_zero_innovations(self):
        ws = WindowStats(8)
        rec = None
        for _ in range(8):
            rec = StepRecord(0.0, 0.0, np.array([0.5, 0.0, 0.0]), 0.0, 1e-3)
            ws.push_record(rec)
        out = cm_adapt(ws, rec, make_filter_state(0.5))
        assert out.sigma2 == 1e-8
        assert np.array_equal(out.sigma, np.zeros((3, 3)))

    def test_recovers_true_measurement_variance(self, cell):
        # Exact model, voltage noise only: innovations should carry
        # C P- C^T + sigma_true^2, so matching should back out sigma_true^2.
        sigma_true2 = 4e-4
        rng = np.random.default_rng(12)
        current = rng.uniform(-2.0, 2.0, 3000)
        profile = Profile.uniform(current)
        z_true, _, _, v_true, _ = simulate_arrays(cell, CellState(z=0.6), profile)
        noisy = profile.with_signals(v=v_true + rng.normal(0, np.sqrt(sigma_true2), 3000))
        estimates = []

        def hook(k, fs, rec):
            if k > 2000:
                estimates.append(fs.sigma2)

        estimator_run("aekf-cm", cell, noisy, 0.6, window=1000, record_hook=hook)
        assert np.mean(estimates) == pytest.approx(sigma_true2, rel=0.3)

    def test_brute_force_window_oracle(self):
        rng = np.random.default_rng(6)
        ws = WindowStats(64)
        records = []
        fs = make_filter_state(0.5)
        for _ in range(500):
            rec = make_record(rng)
            ws.push_record(rec)
            records.append(rec)
            out = cm_adapt(ws, rec, fs)
            c_hat = np.sum([r.e_minus**2 for r in records[-64:]]) / 64
            assert out.sigma2 == pytest.approx(
                max(c_hat - rec.cpc_minus, 1e-8), rel=1e-9
            )


@pytest.fixture(scope="module")
def measured(cell):
    rng = np.random.default_rng(21)
    current = rng.uniform(-5.0, 5.0, 600)
    profile = Profile.uniform(current)
    z_true, _, _, v_true, _ = simulate_arrays(cell, CellState(z=0.8), profile)
    noisy = profile.with_signals(v=v_true + rng.normal(0, 0.01, 600))
    return noisy, z_true


class TestEstimatorRun:
    def test_cc_matches_iterated_steps(self, cell, measured):
        profile, _ = measured
        out = estimator_run("cc", cell, profile, 0.8)
        z = 0.8
        expected = []
        for k in range(len(profile)):
            z = coulomb_count_step(z, profile.i[k], profile.dts()[k], cell.q_max)
            expected.append(z)
        assert np.array_equal(out, np.array(expected))

    @pytest.mark.parametrize("z0", [0.8, 0.0, 1.0, 0.05, -0.0])
    def test_cc_matches_step_function_through_both_clamps(self, cell, z0):
        # A jittered clock, and a current that drives SoC to 0 and to 1.
        rng = np.random.default_rng(41)
        n = 3000
        t = np.cumsum(rng.uniform(0.5, 1.5, n))
        current = np.repeat([-40.0, 0.0, -0.0, 40.0, 1.0], n // 5)
        profile = Profile(t, current, first_dt=0.7)
        out = estimator_run("cc", cell, profile, z0)
        dts = profile.dts()
        want = np.empty(n)
        z = z0
        for k in range(n):
            z = want[k] = coulomb_count_step(z, profile.i[k], dts[k], cell.q_max)
        assert np.array_equal(out, want)
        assert np.array_equal(np.signbit(out), np.signbit(want))
        assert out.min() == 0.0 and out.max() == 1.0

    def test_frozen_adaptation_equals_plain_ekf(self, cell, measured):
        profile, _ = measured
        plain = estimator_run("ekf", cell, profile, 0.7)
        frozen = estimator_run("aekf-mle", cell, profile, 0.7, window=len(profile) + 1)
        assert np.array_equal(plain, frozen)

    def test_covariance_stays_symmetric_psd(self, cell, measured):
        profile, _ = measured

        def hook(k, fs, rec):
            assert np.array_equal(fs.p, fs.p.T)
            eig = np.linalg.eigvalsh(fs.p)
            assert eig.min() >= -1e-10 * np.trace(fs.p)

        estimator_run("aekf-mle", cell, profile, 0.7, window=64, record_hook=hook)

    def test_output_length_and_kinds(self, cell, measured):
        profile, _ = measured
        for kind in ("cc", "ekf", "aekf-mle", "aekf-cm"):
            out = estimator_run(kind, cell, profile, 0.8)
            assert out.shape == (len(profile),)

    def test_unknown_kind_rejected(self, cell, measured):
        with pytest.raises(ValueError, match="unknown"):
            estimator_run("ukf", cell, measured[0], 0.5)

    def test_voltage_required_for_filters(self, cell):
        profile = Profile.uniform(np.zeros(10))
        with pytest.raises(ValueError, match="voltage"):
            estimator_run("ekf", cell, profile, 0.5)

    @pytest.mark.parametrize("window", [0, -5])
    @pytest.mark.parametrize("kind", ["cc", "ekf", "aekf-mle", "aekf-cm"])
    def test_window_below_one_rejected_for_every_kind(self, cell, measured, kind, window):
        with pytest.raises(ValueError, match=f"^window must be >= 1, got {window}$"):
            estimator_run(kind, cell, measured[0], 0.5, window=window)


def jittered_drive(cell, n, seed):
    """Noisy measured drive on a logger clock: dt = 1 s +- 10 ms, every dt distinct."""
    rng = np.random.default_rng(seed)
    t = np.cumsum(1.0 + rng.uniform(-0.01, 0.01, n))
    profile = Profile(t, rng.uniform(-4.0, 4.0, n))
    _, _, _, v, _ = simulate_arrays(cell, CellState(z=0.8), profile)
    return profile.with_signals(v=v + rng.normal(0, 0.01, n))


def oracle_run(kind, params, profile, init, window=128, record_hook=None):
    """estimator_run spelled out with the public step functions, one step at a time."""
    dts = profile.dts()
    out = np.empty(len(profile))
    if kind == "cc":
        z = float(init.x[0])
        for k in range(len(profile)):
            z = out[k] = coulomb_count_step(z, profile.i[k], dts[k], params.q_max)
        return out
    adapt = {"aekf-mle": mle_adapt, "aekf-cm": cm_adapt}.get(kind)
    ws = WindowStats(window)
    fs = init
    for k in range(len(profile)):
        model = linearize(params, dts[k])
        fs = ekf_predict(fs, model, profile.i[k])
        fs, rec = ekf_correct(fs, model, profile.i[k], profile.v[k])
        if adapt:
            ws.push_record(rec)
            if k >= window:
                fs = adapt(ws, rec, fs)
        if record_hook is not None:
            record_hook(k, fs, rec)
        out[k] = fs.x[0]
    return out


def overflow_drive(n=300):
    """-1 A with a finite voltage that alternates between +-1e154 V: each
    squared innovation is about 1e308, and two of them sum past the float
    range."""
    v = np.where(np.arange(n) % 2 == 0, 1e154, -1e154)
    return Profile.uniform(np.full(n, -1.0)).with_signals(v=v)


def max_abs_diff(got, want):
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want))))


@pytest.fixture(scope="module")
def jittered(cell):
    return jittered_drive(cell, 600, seed=31)


class TestKernelOracle:
    """The scalar kernel in estimator_run against the NumPy step functions."""

    @pytest.mark.parametrize("window", [1, 16, 128])
    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    def test_matches_step_functions(self, cell, jittered, kind, window):
        init = make_filter_state(0.7)
        got = estimator_run(kind, cell, jittered, 0.7, window=window)
        want = oracle_run(kind, cell, jittered, init, window=window)
        # Covariance matching over a one-sample window sets sigma2 from a
        # single squared innovation and amplifies roundoff: on drives like
        # this one the step functions themselves move by up to 6e-11 when
        # only numpy's BLAS kernel changes (OpenBLAS Haswell vs Prescott).
        tol = 1e-9 if (kind, window) == ("aekf-cm", 1) else 1e-12
        assert max_abs_diff(got, want) <= tol

    def test_cc_bit_identical_to_step_function(self, cell):
        # Longer than one 1024-row chunk of the row iterator, every dt distinct.
        profile = jittered_drive(cell, 2500, seed=35)
        init = make_filter_state(0.7)
        got = estimator_run("cc", cell, profile, 0.7)
        assert np.array_equal(got, oracle_run("cc", cell, profile, init))

    @pytest.mark.parametrize("kind", ["aekf-mle", "aekf-cm"])
    def test_run_longer_than_window_recompute(self, cell, kind):
        # 287 wraps of the window-16 ring, each an exact re-summation, and
        # half a window more.
        profile = jittered_drive(cell, 4_600, seed=32)
        init = make_filter_state(0.7)
        got = estimator_run(kind, cell, profile, 0.7, window=16)
        want = oracle_run(kind, cell, profile, init, window=16)
        assert max_abs_diff(got, want) <= 1e-12

    @pytest.mark.parametrize("kind", ["ekf", "aekf-mle"])
    def test_soc_clamped_at_both_ends(self, cell, kind):
        # Charge past full, then discharge past empty. The estimate reaches 1
        # (OCV read at z = 1 exactly) and comes within 1e-3 of 0, less than
        # one step's discharge (40 A * 1 s / q_max = 2.2e-3), so the predict
        # step clamps at 0. (aekf-cm stays above 0.06 on this drive.)
        rng = np.random.default_rng(34)
        current = np.concatenate([np.full(300, 20.0), np.full(600, -40.0)])
        t = np.cumsum(1.0 + rng.uniform(-0.01, 0.01, current.size))
        profile = Profile(t, current)
        _, _, _, v, _ = simulate_arrays(cell, CellState(z=0.95), profile)
        profile = profile.with_signals(v=v + rng.normal(0, 0.01, current.size))
        init = make_filter_state(0.9)
        got = estimator_run(kind, cell, profile, 0.9, window=16)
        want = oracle_run(kind, cell, profile, init, window=16)
        assert got.max() == 1.0 and got.min() < 1e-3
        assert max_abs_diff(got, want) <= 1e-12

    @pytest.mark.parametrize("kind", ["ekf", "aekf-mle", "aekf-cm"])
    def test_zero_innovation_variance_skips_correction(self, cell, jittered, kind, monkeypatch):
        # P0, Sigma0 and sigma2_0 all 0 make s = R_FLOOR at the first step,
        # so K = P C^T / s = 0 in the kernel as in ekf_correct; with K = 0,
        # Sigma stays 0 and so does P.
        monkeypatch.setattr("socest.filters.DEFAULT_P0", (0.0, 0.0, 0.0))
        monkeypatch.setattr("socest.filters.DEFAULT_SIGMA", (0.0, 0.0, 0.0))
        monkeypatch.setattr("socest.filters.DEFAULT_SIGMA2", 0.0)
        gains = []
        got = estimator_run(kind, cell, jittered, 0.7, window=16,
                            record_hook=lambda k, fs, rec: gains.append(rec.k_gain))
        want = oracle_run(kind, cell, jittered, make_filter_state(0.7), window=16)
        assert np.array_equal(got, want)
        assert not np.any(gains)

    @pytest.mark.parametrize("kind", ["ekf", "aekf-mle", "aekf-cm"])
    def test_negative_innovation_variance_is_a_numerical_fault(
        self, cell, jittered, kind, monkeypatch
    ):
        # A corrupt P0: p00 < 0 makes C P- C^T = d^2 p00 far below -R_FLOOR,
        # so s < 0 at the first step, before any record.
        monkeypatch.setattr("socest.filters.DEFAULT_P0", (-1e-2, 0.0, 0.0))
        monkeypatch.setattr("socest.filters.DEFAULT_SIGMA", (0.0, 0.0, 0.0))
        monkeypatch.setattr("socest.filters.DEFAULT_SIGMA2", 0.0)
        message = "^innovation variance -[0-9.e-]+ is not positive$"
        errors = []
        for run in (estimator_run, oracle_run):
            steps = []
            init = 0.7 if run is estimator_run else make_filter_state(0.7)
            with pytest.raises(NumericalFaultError, match=message) as raised:
                run(kind, cell, jittered, init, window=16,
                    record_hook=lambda k, fs, rec: steps.append(k))
            assert steps == []
            errors.append(str(raised.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("window", [2, 128])
    @pytest.mark.parametrize("kind", ["aekf-mle", "aekf-cm"])
    def test_overflowing_window_sum_is_a_numerical_fault(self, cell, kind, window):
        profile = overflow_drive()
        with pytest.raises(NumericalFaultError, match="^residual window sum overflows$"):
            estimator_run(kind, cell, profile, 0.5, window=window)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericalFaultError, match="^residual window sum overflows$"
        ):
            oracle_run(kind, cell, profile, make_filter_state(0.5), window=window)

    def test_nan_soc_from_the_correction_is_a_numerical_fault(self, cell):
        # Window 1: e-^2 overflows to inf at step 293, Sigma becomes K K^T inf
        # and the next gain inf / inf = NaN, which the clamps pass through.
        profile = overflow_drive()
        message = "^SoC estimate nan is not finite$"
        with pytest.raises(NumericalFaultError, match=message):
            estimator_run("aekf-cm", cell, profile, 0.5, window=1)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericalFaultError, match=message
        ):
            oracle_run("aekf-cm", cell, profile, make_filter_state(0.5), window=1)

    @pytest.mark.parametrize("kind", ["ekf", "aekf-mle", "aekf-cm"])
    def test_nan_soc_from_the_predict_step_is_a_numerical_fault(self, cell, kind):
        # Step 1 lasts 1e300 s at 0 A: dt / q_max overflows to inf and
        # inf * 0 A makes the predicted SoC NaN before the correction.
        tiny = dataclasses.replace(cell, q_max=1e-300)
        profile = Profile(np.array([0.0, 1e300]), np.zeros(2)).with_signals(v=np.full(2, 3.5))
        message = "^SoC estimate nan is not finite$"
        for run in (estimator_run, oracle_run):
            steps = []
            init = 0.5 if run is estimator_run else make_filter_state(0.5)
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NumericalFaultError, match=message
            ):
                run(kind, tiny, profile, init, window=4,
                    record_hook=lambda k, fs, rec: steps.append(k))
            assert steps == [0]

    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    def test_non_positive_default_dt_rejected(self, cell, jittered, kind):
        with pytest.raises(ValueError, match="dt must be positive"):
            estimator_run(kind, cell, dataclasses.replace(jittered, first_dt=0.0), 0.7)

    @pytest.mark.parametrize("kind", ["ekf", "aekf-mle", "aekf-cm"])
    def test_record_hook_matches_step_functions(self, cell, jittered, kind):
        got, want = [], []
        init = make_filter_state(0.7)
        estimator_run(kind, cell, jittered, 0.7, window=16,
                      record_hook=lambda k, fs, rec: got.append((k, fs, rec)))
        oracle_run(kind, cell, jittered, init, window=16,
                   record_hook=lambda k, fs, rec: want.append((k, fs, rec)))
        assert [k for k, _, _ in got] == list(range(len(jittered)))

        def close(a, b, rel=1e-9):
            return max_abs_diff(a, b) <= rel * max(float(np.max(np.abs(b))), 1e-300)

        for (_, fs, rec), (_, fs_ref, rec_ref) in zip(got, want):
            assert max_abs_diff(fs.x, fs_ref.x) <= 1e-12
            assert np.array_equal(fs.p, fs.p.T)
            assert close(fs.p, fs_ref.p)
            assert close(fs.sigma, fs_ref.sigma)
            assert close(fs.sigma2, fs_ref.sigma2)
            assert close(rec.k_gain, rec_ref.k_gain)
            assert close(rec.cpc_minus, rec_ref.cpc_minus)
            assert close(rec.cpc_term, rec_ref.cpc_term)
            assert abs(rec.e_minus - rec_ref.e_minus) <= 1e-12
            assert abs(rec.e_plus - rec_ref.e_plus) <= 1e-12

    @pytest.mark.parametrize("clamped", [False, True])
    @pytest.mark.parametrize("window", [1, 16, 10**7])
    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    def test_record_hook_changes_no_estimate(self, cell, jittered, kind, window, clamped):
        # C P+ C^T, e+ and window channel b are computed only where aekf-mle
        # or a hook reads them, so a hook turns them on for every kind; the
        # estimate keeps its bits, through both SoC clamps too.
        profile = (clamping_drive(cell, np.random.default_rng(7), 600, 0.5, 1.0, 0.01)
                   if clamped else jittered)
        bare = estimator_run(kind, cell, profile, 0.7, window=window)
        hooked = estimator_run(kind, cell, profile, 0.7, window=window,
                               record_hook=lambda k, fs, rec: None)
        assert hooked.tobytes() == bare.tobytes()


def random_cell(rng):
    """A cell with log-uniform passives and a random monotone OCV table."""
    spacing = rng.uniform(0.01, 0.2, 40)
    nodes = np.cumsum(spacing)
    grid = np.concatenate([[0.0], nodes[nodes < 0.99], [1.0]])
    ocv = 2.8 + np.cumsum(np.concatenate([[0.0], rng.uniform(1e-3, 0.3, grid.size - 1)]))
    r0, r1, r2 = 10.0 ** rng.uniform(-3, -1, 3)
    c1, c2 = 10.0 ** rng.uniform(2, 4), 10.0 ** rng.uniform(3, 5)
    q_max = 10.0 ** rng.uniform(2, 4)
    return EcmParams(r0=r0, r1=r1, c1=c1, r2=r2, c2=c2, q_max=q_max, ocv=OcvTable(grid, ocv))


def clamping_drive(cell, rng, n, z0, dt_scale, noise_v):
    """Charge 1.3 q_max, discharge 2.6 q_max, then random current, on a
    non-uniform clock: the truth saturates at full, then at empty."""
    dts = dt_scale * rng.uniform(0.2, 2.0, n)
    phase = n // 4
    current = rng.uniform(-1.0, 1.0, n) * cell.q_max / dts.sum()
    current[:phase] += 1.3 * cell.q_max / dts[:phase].sum()
    current[phase : 2 * phase] -= 2.6 * cell.q_max / dts[phase : 2 * phase].sum()
    profile = Profile(np.cumsum(dts), current, first_dt=dts[0])
    _, _, _, v, sat = simulate_arrays(cell, CellState(z=z0), profile)
    assert sat[:phase].any() and sat[phase : 2 * phase].any()
    return profile.with_signals(v=v + rng.normal(0.0, noise_v, n))


class TestKernelProperties:
    """estimator_run against the step functions on random cells and drives.

    Every step of the kernel is held to one step of the step functions taken
    from the kernel's own previous state, and whole runs to `oracle_run`
    for the EKF and for windows of 64 and more. Over shorter windows the
    adaptation feeds roundoff back: on clean or nearly clean voltage a
    last-bit difference in one step grows far past 1e-12 over a drive (up
    to 7e-5 in SoC for aekf-mle at window 3 on noise-free voltage). Longer
    windows drift too, if less: the pinned example, aekf-cm at window 102
    on 0.1 mV voltage noise, ends 1.25e-12 from `oracle_run`. Which of the
    two paths is nearer the exact value is not yet known.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["ekf", "aekf-mle", "aekf-cm"]),
        # n > window: the ring wraps, and its sums are re-summed exactly, in
        # the kernel and in WindowStats, before adaptation starts.
        window_n=st.integers(1, 300).flatmap(
            lambda w: st.tuples(st.just(w), st.integers(max(120, w + 1), 500))
        ),
        z0=st.floats(0.0, 1.0),
        z_init=st.floats(0.0, 1.0),
        dt_scale=st.floats(0.05, 20.0),
        noise_v=st.sampled_from([0.0, 1e-4, 1e-3, 1e-2, 1e-1]),
    )
    @example(
        seed=814402112, kind="aekf-cm", window_n=(102, 171), z0=0.25, z_init=0.125,
        dt_scale=0.125, noise_v=1e-4,
    ).xfail(raises=AssertionError, reason="the whole run ends 1.25e-12 from oracle_run")
    def test_steps_match_step_functions(
        self, seed, kind, window_n, z0, z_init, dt_scale, noise_v
    ):
        window, n = window_n
        rng = np.random.default_rng(seed)
        cell = random_cell(rng)
        profile = clamping_drive(cell, rng, n, z0, dt_scale, noise_v)
        init = make_filter_state(z_init)
        adapt = {"aekf-mle": mle_adapt, "aekf-cm": cm_adapt}.get(kind)
        steps = []
        try:
            out = estimator_run(
                kind, cell, profile, z_init, window=window,
                record_hook=lambda k, fs, rec: steps.append((fs, rec)),
            )
        except NumericalFaultError:  # the one documented error on valid input
            out = None
        ws = WindowStats(window)
        dts = profile.dts()
        prev = init
        for k, (fs, rec) in enumerate(steps):
            assert 0.0 <= fs.x[0] <= 1.0
            model = linearize(cell, dts[k])
            ref = ekf_predict(prev, model, profile.i[k])
            ref, _ = ekf_correct(ref, model, profile.i[k], profile.v[k])
            # z within 1e-12; the RC voltages, tens of volts on some of
            # these drives, within 1e-12 relative. On noise-free voltage the
            # adapted sigma2 falls towards 0 and the gain amplifies roundoff
            # within one step.
            if noise_v > 0.0:
                assert np.all(np.abs(fs.x - ref.x) <= 1e-12 * np.maximum(1.0, np.abs(ref.x)))
            # Fed the kernel's own residuals, WindowStats and the adapt
            # functions give the kernel's noise covariances bit for bit.
            if adapt:
                ws.push_record(rec)
                if k >= window:
                    ref = adapt(ws, rec, ref)
            assert np.array_equal(fs.sigma, ref.sigma) and fs.sigma2 == ref.sigma2
            prev = fs
        if out is not None and (kind == "ekf" or window >= 64):
            want = oracle_run(kind, cell, profile, init, window=window)
            assert max_abs_diff(out, want) <= 1e-12
        if out is not None:
            assert np.array_equal(out, [fs.x[0] for fs, _ in steps])


@pytest.fixture(scope="module")
def clean_drives(cell):
    """Noise-free voltage on 1 h drives at 3 A peak (`make_drive_profile`
    seeds 1-20), the truth started at SoC 0.8."""
    drives = []
    for seed in range(1, 21):
        profile = make_drive_profile(3600.0, seed=seed, max_current=3.0)
        _, _, _, v, _ = simulate_arrays(cell, CellState(z=0.8), profile)
        drives.append(profile.with_signals(v=v))
    return drives


@pytest.mark.parametrize("window", [1, 2, 3, 4, 8, 16, 64, 128, 256, 1024])
@pytest.mark.parametrize("kind", ["aekf-mle", "aekf-cm"])
def test_noise_free_voltage_never_faults(cell, clean_drives, kind, window):
    # The window sums fall by tens of decades on noise-free voltage. While
    # they were kept by subtraction alone, with an exact re-summation only
    # every 4096 pushes, sigma2 turned negative and aekf-mle raised
    # NumericalFaultError on 50 of its 100 runs at windows 4-256 here. At
    # windows 1-3, sigma2 and P then fall to the rounding noise of the float
    # readings, and s = C P- C^T + sigma2 came out negative on 10, 10 and 2
    # drives until the correction weighed the residual by max(sigma2, R_FLOOR).
    for profile in clean_drives:
        out = estimator_run(kind, cell, profile, 0.7, window=window)
        assert np.all(np.isfinite(out))


# The clean drives (by seed) on which aekf-mle raised NumericalFaultError in
# the kernel or in the step functions, at windows 1-4, while the correction
# weighed the residual by sigma2 alone.
FAULTED_WITHOUT_R_FLOOR = {
    1: [1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 17, 18, 19, 20],
    2: [1, 2, 5, 7, 8, 9, 10, 12, 13, 17, 19, 20],
    3: [5, 8, 14],
    4: [15],
}


@pytest.mark.parametrize("window", sorted(FAULTED_WITHOUT_R_FLOOR))
def test_noise_free_voltage_step_functions_finish(cell, clean_drives, window):
    for seed in FAULTED_WITHOUT_R_FLOOR[window]:
        out = oracle_run(
            "aekf-mle", cell, clean_drives[seed - 1], make_filter_state(0.7), window=window
        )
        assert np.all(np.isfinite(out))


@pytest.mark.parametrize("kind, window", [("ekf", 128), ("aekf-mle", 10**7)])
def test_memory_does_not_grow_per_sample(cell, kind, window):
    # A jittered clock gives every sample its own dt; nothing may be kept per
    # dt. The output array and the dt array are the only per-sample buffers,
    # about 15 B per sample as traced; a dict of discretize results keyed by
    # dt costs over 170, a list of the dts about 45. A window longer than the
    # profile never adapts, so it gets no ring. The fixed part, about 108 kB,
    # is one `_rows` chunk of Python floats; its bound keeps it from growing
    # unseen. Together the two bounds allow at most 160 kB + 18,000 x 24 B =
    # 592 kB at 20,000 samples.
    peaks = {}
    for n in (2_000, 4_000):
        profile = jittered_drive(cell, n, seed=33)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            estimator_run(kind, cell, profile, 0.7, window=window)
            peaks[n] = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    assert peaks[4_000] - peaks[2_000] < 24 * 2_000
    assert peaks[2_000] < 160_000


@pytest.fixture(scope="module")
def drive_10h(cell):
    """A 10 h drive at 3 A peak on a logger clock (dt = 1 s +- 10 ms) with
    10 mV voltage noise, the truth started at SoC 0.9."""
    rng = np.random.default_rng(17)
    drive = make_drive_profile(36_000.0, seed=1, max_current=3.0)
    profile = Profile(np.cumsum(1.0 + rng.uniform(-0.01, 0.01, len(drive))), drive.i)
    _, _, _, v, _ = simulate_arrays(cell, CellState(z=0.9), profile)
    return profile.with_signals(v=v + rng.normal(0.0, 0.01, len(drive)))


@pytest.fixture(scope="module")
def clean_10h(cell):
    """The same 10 h drive on its uniform 1 s clock with noise-free voltage,
    the truth started at SoC 0.9."""
    drive = make_drive_profile(36_000.0, seed=1, max_current=3.0)
    _, _, _, v, _ = simulate_arrays(cell, CellState(z=0.9), drive)
    return drive.with_signals(v=v)


class TestCleanTenHours:
    """aekf-mle from SoC 0.8 on noise-free voltage over 10 h, as a user
    validating the filter on synthetic data would run it. Without R_FLOOR
    the kernel faulted at windows 1, 2 and 8, and the step functions at 1
    and 3."""

    @pytest.mark.parametrize("window", [1, 2, 3, 8, 16, 128])
    def test_kernel_finishes(self, cell, clean_10h, window):
        out = estimator_run("aekf-mle", cell, clean_10h, 0.8, window=window)
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("window", [1, 3])
    def test_step_functions_finish(self, cell, clean_10h, window):
        out = oracle_run("aekf-mle", cell, clean_10h, make_filter_state(0.8), window=window)
        assert np.all(np.isfinite(out))

    def test_kernel_matches_step_functions(self, cell, clean_10h):
        got = estimator_run("aekf-mle", cell, clean_10h, 0.8, window=128)
        want = oracle_run("aekf-mle", cell, clean_10h, make_filter_state(0.8), window=128)
        assert max_abs_diff(got, want) <= 1e-12


@pytest.mark.parametrize("window", [1, 16, 128])
@pytest.mark.parametrize("kind", ["ekf", "aekf-mle", "aekf-cm"])
def test_r_floor_is_inert_on_noisy_voltage(cell, drive_10h, kind, window, monkeypatch):
    # With 10 mV noise sigma2 stays some 24 decades above R_FLOOR, so the
    # floor never acts: every estimate keeps its bits without it.
    floored = estimator_run(kind, cell, drive_10h, 0.8, window=window)
    monkeypatch.setattr("socest.filters.R_FLOOR", 0.0)
    assert np.array_equal(estimator_run(kind, cell, drive_10h, 0.8, window=window), floored)


# The first 4 h of the drive, which hold the v_r1 row's flush.
FLUSH_CHECKED_STEPS = 14_400


class TestCollapseFlush:
    """AEKF-MLE's rank-one Sigma lets the v_r1 gain feed on itself, so its
    row of P and Sigma decays by about 46 decades an hour. Once the variance
    falls below the smallest normal float, the row and column are flushed to
    0.0 rather than left to crawl through subnormals."""

    def test_no_subnormal_entry_and_row_stays_zero(self, cell, drive_10h):
        steps = []
        estimator_run("aekf-mle", cell, drive_10h, 0.8, window=128,
                      record_hook=lambda k, fs, rec: steps.append((fs.p, fs.sigma, rec.k_gain)))
        p, sigma, k_gain = (np.array(a) for a in zip(*steps))
        for a in (p, sigma, k_gain):
            assert not np.any((a != 0.0) & (np.abs(a) < np.finfo(float).tiny))
        flushed = int(np.argmax(p[:, 1, 1] == 0.0))
        assert 3_600 < flushed < FLUSH_CHECKED_STEPS  # the collapse happens within the drive
        assert np.all(p[flushed:, 1, :] == 0.0)

    def test_kernel_matches_step_functions_across_the_flush(self, cell, drive_10h):
        n = FLUSH_CHECKED_STEPS
        profile = Profile(drive_10h.t[:n], drive_10h.i[:n]).with_signals(v=drive_10h.v[:n])
        got = estimator_run("aekf-mle", cell, profile, 0.8, window=128)
        want = oracle_run("aekf-mle", cell, profile, make_filter_state(0.8), window=128)
        assert max_abs_diff(got, want) <= 1e-12

    def test_step_functions_flush_collapsed_sigma_rows(self):
        rec = StepRecord(0.1, 0.0, np.array([0.5, 1e-160, 1e-3]), 0.0, 0.0)
        ws = WindowStats(4)
        ws.push_record(rec)
        for adapt in (mle_adapt, cm_adapt):
            sigma = adapt(ws, rec, make_filter_state(0.5)).sigma
            assert np.array_equal(sigma[1], np.zeros(3))
            assert np.array_equal(sigma[:, 1], np.zeros(3))
            assert sigma[2, 2] > 0.0 and sigma[0, 2] > 0.0
