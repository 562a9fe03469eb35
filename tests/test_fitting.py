from dataclasses import replace

import numpy as np
import pytest

from socest import fitting
from socest.ecm import CellState, EcmParams, OcvTable, Profile, ocv_lookup
from socest.fitting import (
    PARAM_LOWER,
    PARAM_UPPER,
    PASSIVE_NAMES,
    FittingError,
    OcvSweep,
    _fit_problem,
    _passive_values,
    build_ocv_table,
    fit_passive_components,
    make_incremental_current_profile,
    predict_voltage,
)

TRUE = dict(r0=0.05, r1=0.015, c1=2000.0, r2=0.025, c2=40000.0)


def curve_from_table(table, offset=0.0, n=80):
    z = np.linspace(0.0, 1.0, n)
    v = np.interp(z, table.soc_grid, table.ocv_values) + offset
    return np.column_stack([z, v])


@pytest.fixture(scope="module")
def fixture_profile(cell):
    profile = make_incremental_current_profile(1.0, 360.0, 600.0, 4, dt=1.0)
    v = predict_voltage(cell, profile, CellState(z=0.1))
    return profile.with_signals(v=v)


class TestBuildOcvTable:
    def test_identical_curves_pass_through(self, ocv_table):
        curve = curve_from_table(ocv_table)
        out = build_ocv_table(OcvSweep(curve, curve), spacing=0.02)
        assert np.allclose(out.ocv_values, np.interp(
            out.soc_grid, curve[:, 0], curve[:, 1]), atol=1e-12)

    def test_symmetric_hysteresis_cancels(self, ocv_table):
        eps = 0.01
        discharge = curve_from_table(ocv_table)
        charge = curve_from_table(ocv_table, offset=2 * eps)
        out = build_ocv_table(OcvSweep(charge, discharge), spacing=0.02)
        expected = np.interp(out.soc_grid, discharge[:, 0], discharge[:, 1]) + eps
        assert np.allclose(out.ocv_values, expected, atol=1e-12)

    def test_round_trip_within_1mv(self, ocv_table):
        charge = curve_from_table(ocv_table, offset=0.010)
        discharge = curve_from_table(ocv_table, offset=-0.010)
        # discharge sweeps are recorded high-to-low in practice
        out = build_ocv_table(OcvSweep(charge, discharge[::-1]), spacing=0.02)
        reference = np.interp(out.soc_grid, ocv_table.soc_grid, ocv_table.ocv_values)
        assert np.max(np.abs(out.ocv_values - reference)) < 1e-3

    def test_idempotent(self, ocv_table):
        curve = curve_from_table(ocv_table)
        once = build_ocv_table(OcvSweep(curve, curve), spacing=0.02)
        again = build_ocv_table(
            OcvSweep(
                np.column_stack([once.soc_grid, once.ocv_values]),
                np.column_stack([once.soc_grid, once.ocv_values]),
            ),
            spacing=0.02,
        )
        assert np.array_equal(once.ocv_values, again.ocv_values)

    def test_non_monotone_average_raises_with_node(self, ocv_table):
        charge = curve_from_table(ocv_table)
        corrupted = charge.copy()
        corrupted[40, 1] -= 0.5
        with pytest.raises(FittingError, match="SoC"):
            build_ocv_table(OcvSweep(corrupted, charge), spacing=0.02)

    def test_partial_coverage_rejected(self, ocv_table):
        partial = curve_from_table(ocv_table)[10:]
        with pytest.raises(FittingError, match="cover"):
            build_ocv_table(OcvSweep(partial, curve_from_table(ocv_table)))


class TestPredictVoltage:
    def test_zero_current_constant_ocv(self, cell):
        profile = Profile.uniform(np.zeros(30))
        v = predict_voltage(cell, profile, CellState(z=0.4))
        assert np.allclose(v, ocv_lookup(cell.ocv, 0.4), atol=1e-12)

    def test_self_consistency_zero_residuals(self, cell, fixture_profile):
        v = predict_voltage(cell, fixture_profile, CellState(z=0.1))
        assert np.allclose(v, fixture_profile.v, atol=0.0)

    def test_r0_perturbation_appears_at_step_edges(self, cell, fixture_profile):
        bumped = EcmParams(
            r0=cell.r0 * 1.1, r1=cell.r1, c1=cell.c1, r2=cell.r2, c2=cell.c2,
            q_max=cell.q_max, ocv=cell.ocv,
        )
        v = predict_voltage(bumped, fixture_profile, CellState(z=0.1))
        residual = v - fixture_profile.v
        # While the pulse is on, the extra ohmic drop is 0.1*r0*i exactly.
        on = fixture_profile.i != 0.0
        assert np.allclose(residual[on], 0.1 * cell.r0 * 1.0, atol=1e-12)
        # At rest the ohmic term vanishes, so the residual does too.
        assert np.allclose(residual[~on], 0.0, atol=1e-12)


class TestIncrementalProfile:
    def test_single_pulse_then_rest(self):
        p = make_incremental_current_profile(2.0, 10.0, 5.0, 1, dt=1.0)
        assert np.array_equal(p.i, [2.0] * 10 + [0.0] * 5)

    def test_full_charge_bookkeeping(self):
        p = make_incremental_current_profile(1.0, 360.0, 240.0, 10, dt=1.0)
        q_max = 3600.0
        delta = np.sum(p.dts(1.0) * p.i) / q_max
        assert delta == pytest.approx(1.0, rel=1e-12)

    def test_two_level_current(self):
        p = make_incremental_current_profile(1.5, 37.0, 23.0, 3, dt=1.0)
        assert set(np.unique(p.i)) == {0.0, 1.5}

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            make_incremental_current_profile(1.0, 10.0, 5.0, 0)
        with pytest.raises(ValueError):
            make_incremental_current_profile(-1.0, 10.0, 5.0, 1)


def theta_of(values):
    """log(r0, r1, r2, c1, c2), the fit's parameter vector."""
    return np.log([values[k] for k in PASSIVE_NAMES])


class TestFitJacobian:
    """The residual and exact Jacobian of one fit evaluation."""

    @staticmethod
    def expected_residual(cell, profile, theta):
        """predict_voltage at theta's (clipped) parameters, minus the measurement."""
        params = EcmParams(
            q_max=cell.q_max, ocv=cell.ocv, **dict(zip(PASSIVE_NAMES, _passive_values(theta)))
        )
        return predict_voltage(params, profile, CellState(z=0.1)) - profile.v

    @staticmethod
    def central_differences(evaluate, theta, h=1e-4):
        # The truncation error goes as h**2; below h = 1e-4 the roundoff of
        # residuals built on a ~3.3 V OCV (about eps * 3.3 / h) takes over.
        cols = []
        for j in range(theta.size):
            step = np.zeros_like(theta)
            step[j] = h
            cols.append((evaluate(theta + step)[0] - evaluate(theta - step)[0]) / (2 * h))
        return np.column_stack(cols)

    @staticmethod
    def assert_columns_close(jac, fd, rel=1e-7):
        for j in range(jac.shape[1]):
            assert np.max(np.abs(jac[:, j] - fd[:, j])) <= rel * np.max(np.abs(jac[:, j]))

    @pytest.fixture(scope="class")
    def evaluate(self, cell, fixture_profile):
        return _fit_problem(cell, fixture_profile, CellState(z=0.1))

    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0, 3.7])
    def test_residual_exact_and_jacobian_matches_central_differences(
        self, cell, fixture_profile, evaluate, scale
    ):
        theta = theta_of({k: scale * v for k, v in TRUE.items()})
        residual, jac = evaluate(theta)
        assert np.array_equal(residual, self.expected_residual(cell, fixture_profile, theta))
        assert jac.shape == (residual.size, 5)
        assert np.all(np.max(np.abs(jac), axis=0) > 0.0)
        self.assert_columns_close(jac, self.central_differences(evaluate, theta))

    def test_jittered_clock(self, cell, fixture_profile):
        # Every sample its own dt: the coefficients are recomputed each step.
        rng = np.random.default_rng(5)
        t = np.cumsum(1.0 + rng.uniform(-0.01, 0.01, len(fixture_profile)))
        profile = Profile(t, fixture_profile.i)
        profile = profile.with_signals(v=predict_voltage(cell, profile, CellState(z=0.1)))
        evaluate = _fit_problem(cell, profile, CellState(z=0.1))
        theta = theta_of({k: 2 * v for k, v in TRUE.items()})
        residual, jac = evaluate(theta)
        assert np.array_equal(residual, self.expected_residual(cell, profile, theta))
        self.assert_columns_close(jac, self.central_differences(evaluate, theta))

    def test_clipped_and_switched_off_parameters_have_zero_columns(self, evaluate):
        # r0 clipped at PARAM_LOWER is flat in its own theta. r2 clipped at
        # PARAM_UPPER makes exp(-dt/tau2) round to 1, so the branch's
        # computed voltage is 0 and flat in both r2 and c2.
        theta = theta_of(dict(TRUE, r0=PARAM_LOWER / 10, r2=10 * PARAM_UPPER))
        jac = evaluate(theta)[1]
        fd = self.central_differences(evaluate, theta)
        off = [PASSIVE_NAMES.index(k) for k in ("r0", "r2", "c2")]
        assert np.all(jac[:, off] == 0.0) and np.all(fd[:, off] == 0.0)
        on = [j for j in range(5) if j not in off]
        self.assert_columns_close(jac[:, on], fd[:, on])


class TestFitPassiveComponents:
    def test_recovery_from_2x_init(self, cell, fixture_profile):
        init = replace(cell, **{k: 2 * v for k, v in TRUE.items()})
        report = fit_passive_components(fixture_profile, init, initial_soc=0.1)
        assert report.converged
        for name, true_value in TRUE.items():
            assert getattr(report.params, name) == pytest.approx(true_value, rel=0.01)

    def test_init_at_truth_converges_immediately(self, cell, fixture_profile):
        report = fit_passive_components(fixture_profile, replace(cell, **TRUE), initial_soc=0.1)
        assert report.converged
        assert report.iterations <= 2
        assert report.final_rss <= 1e-12

    def test_trace_non_increasing(self, cell, fixture_profile):
        init = replace(cell, **{k: 3 * v for k, v in TRUE.items()})
        report = fit_passive_components(fixture_profile, init, initial_soc=0.1)
        trace = np.array(report.trace)
        assert np.all(np.diff(trace) <= 0)

    def test_3x_init_converges(self, cell, fixture_profile):
        # LM parks r2 at PARAM_UPPER on this start; with a zero column for
        # the switched-off branch it still meets the step tolerance.
        init = replace(cell, **{k: 3 * v for k, v in TRUE.items()})
        report = fit_passive_components(fixture_profile, init, initial_soc=0.1)
        assert report.converged
        assert report.iterations < 200

    def test_canonical_branch_ordering(self, cell, fixture_profile):
        # Swapped-branch init must still land on r1*c1 <= r2*c2.
        init = replace(cell, r0=TRUE["r0"], r1=TRUE["r2"], c1=TRUE["c2"],
                       r2=TRUE["r1"], c2=TRUE["c1"])
        report = fit_passive_components(fixture_profile, init, initial_soc=0.1)
        assert report.converged
        p = report.params
        assert p.r1 * p.c1 <= p.r2 * p.c2
        for name, true_value in TRUE.items():
            assert getattr(p, name) == pytest.approx(true_value, rel=0.01)

    def test_r0_recovery_under_1mv_noise(self, cell):
        profile = make_incremental_current_profile(1.0, 360.0, 600.0, 2, dt=1.0)
        clean = predict_voltage(cell, profile, CellState(z=0.1))
        init = replace(cell, **{k: 1.5 * v for k, v in TRUE.items()})
        for seed in range(20):
            rng = np.random.default_rng(seed)
            noisy = profile.with_signals(v=clean + rng.normal(0.0, 1e-3, clean.size))
            report = fit_passive_components(noisy, init, initial_soc=0.1)
            assert report.params.r0 == pytest.approx(TRUE["r0"], rel=0.05)

    def test_initial_soc_inferred_from_first_rest_sample(self, cell):
        # Start the test with a rest so the inversion sees a true OCV sample.
        rest = Profile.uniform(np.zeros(200))
        pulses = make_incremental_current_profile(1.0, 360.0, 600.0, 4, dt=1.0)
        current = np.concatenate([rest.i, pulses.i])
        profile = Profile.uniform(current, dt=1.0)
        v = predict_voltage(cell, profile, CellState(z=0.1))
        profile = profile.with_signals(v=v)
        init = replace(cell, **{k: 2 * v for k, v in TRUE.items()})
        report = fit_passive_components(profile, init)
        assert report.converged
        for name, true_value in TRUE.items():
            assert getattr(report.params, name) == pytest.approx(true_value, rel=0.01)

    def test_returns_the_start_cell_with_fitted_components(self, cell, fixture_profile):
        init = replace(cell, **{k: 2 * v for k, v in TRUE.items()})
        fitted = fit_passive_components(fixture_profile, init, initial_soc=0.1).params
        assert isinstance(fitted, EcmParams)
        assert fitted.q_max == init.q_max and fitted.ocv is init.ocv

    @staticmethod
    def rest_first_profile(cell, v_rest):
        """A rest sample, then two pulses; the rest reads `v_rest`."""
        pulses = make_incremental_current_profile(1.0, 60.0, 60.0, 2)
        profile = Profile.uniform(np.r_[0.0, pulses.i])
        v = predict_voltage(cell, profile, CellState(z=0.5))
        v[0] = v_rest
        return profile.with_signals(v=v)

    @pytest.mark.parametrize("v_rest", [9.0, 0.0, float(np.nextafter(3.2, 0.0))])
    def test_out_of_table_rest_voltage_rejected(self, cell, v_rest):
        # np.interp would clamp the inversion to SoC 0 or 1.
        profile = self.rest_first_profile(cell, v_rest)
        lo, hi = cell.ocv.ocv_values[[0, -1]].tolist()
        shown = rf"first rest voltage {v_rest!r} V is outside .* range \[{lo!r}, {hi!r}\] V"
        with pytest.raises(FittingError, match=shown):
            fit_passive_components(profile, cell)

    @pytest.mark.parametrize("end, soc", [(0, 0.0), (-1, 1.0)])
    def test_rest_voltage_at_table_ends_accepted(self, cell, monkeypatch, end, soc):
        # Both ends of the table's range are inside it.
        monkeypatch.setattr(fitting, "MAX_ITERATIONS", 1)
        profile = self.rest_first_profile(cell, cell.ocv.ocv_values[end])
        inferred = fit_passive_components(profile, cell)
        assert inferred == fit_passive_components(profile, cell, initial_soc=soc)

    def test_non_convergence_is_reported_not_raised(self, cell, fixture_profile, monkeypatch):
        monkeypatch.setattr(fitting, "MAX_ITERATIONS", 1)
        init = replace(cell, **{k: 4 * v for k, v in TRUE.items()})
        report = fit_passive_components(fixture_profile, init, initial_soc=0.1)
        assert not report.converged

    def test_missing_voltage_rejected(self, cell):
        profile = make_incremental_current_profile(1.0, 60.0, 60.0, 1)
        with pytest.raises(FittingError, match="voltage"):
            fit_passive_components(profile, replace(cell, **TRUE))
