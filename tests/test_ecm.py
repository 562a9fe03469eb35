import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socest.ecm import (
    CellState,
    EcmParams,
    OcvTable,
    Profile,
    discretize,
    ocv_derivative,
    ocv_invert,
    ocv_lookup,
    simulate,
    simulate_arrays,
)

TWO_POINT = OcvTable(np.array([0.0, 1.0]), np.array([3.0, 4.2]))
THREE_POINT = OcvTable(np.array([0.0, 0.5, 1.0]), np.array([3.0, 3.7, 4.2]))


class TestOcvTable:
    def test_rejects_short_table(self):
        with pytest.raises(ValueError):
            OcvTable(np.array([0.0]), np.array([3.0]))

    def test_rejects_non_monotone_voltage(self):
        with pytest.raises(ValueError, match="increasing"):
            OcvTable(np.array([0.0, 0.5, 1.0]), np.array([3.0, 2.9, 4.2]))

    def test_rejects_grid_not_spanning(self):
        with pytest.raises(ValueError):
            OcvTable(np.array([0.1, 1.0]), np.array([3.0, 4.2]))

    @pytest.mark.parametrize(
        "z,expected",
        [(0.0, 3.0), (0.5, 3.6), (1.0, 4.2)],
    )
    def test_lookup_two_point(self, z, expected):
        assert ocv_lookup(TWO_POINT, z) == pytest.approx(expected, abs=1e-15)

    def test_lookup_first_segment(self):
        assert ocv_lookup(THREE_POINT, 0.25) == pytest.approx(3.35, abs=1e-15)

    def test_lookup_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ocv_lookup(TWO_POINT, -0.01)
        with pytest.raises(ValueError):
            ocv_lookup(TWO_POINT, 1.01)

    @pytest.mark.parametrize(
        "table,z,expected",
        [
            (TWO_POINT, 0.3, 1.2),
            (THREE_POINT, 0.5, 1.0),  # right-segment convention at a node
            (THREE_POINT, 0.75, 1.0),
            (THREE_POINT, 0.0, 1.4),
            (THREE_POINT, 1.0, 1.0),  # last segment at z=1
        ],
    )
    def test_derivative(self, table, z, expected):
        assert ocv_derivative(table, z) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            OcvTable(np.array([0.0, 0.5, 1.0]), np.array([3.0, bad, 4.0]))
        with pytest.raises(ValueError, match="finite"):
            OcvTable(np.array([0.0, bad, 1.0]), np.array([3.0, 3.5, 4.0]))

    def test_slopes_are_segment_slopes_outside_eq_and_repr(self):
        assert THREE_POINT.slopes.tolist() == pytest.approx([1.4, 1.0], abs=1e-12)
        (slopes,) = [f for f in dataclasses.fields(OcvTable) if f.name == "slopes"]
        assert not (slopes.init or slopes.compare or slopes.repr)
        assert "slopes" not in repr(THREE_POINT)

    def test_equality_compares_nodes_by_value(self):
        grid, vals = [0.0, 0.5, 1.0], [3.0, 3.7, 4.2]
        assert OcvTable(np.array(grid), np.array(vals)) == THREE_POINT
        assert not OcvTable(np.array(grid), np.array(vals)) != THREE_POINT
        assert OcvTable(np.array(grid), np.array([3.0, 3.8, 4.2])) != THREE_POINT
        assert OcvTable(np.array([0.0, 0.4, 1.0]), np.array(vals)) != THREE_POINT
        assert TWO_POINT != THREE_POINT  # different node counts
        assert THREE_POINT != (grid, vals)

    def test_params_with_distinct_equal_tables_compare_equal(self):
        def params(ocv, r0=0.05):
            return EcmParams(r0=r0, r1=0.015, c1=2000.0, r2=0.025, c2=40000.0,
                             q_max=18000.0, ocv=ocv)

        copy = OcvTable(THREE_POINT.soc_grid.copy(), THREE_POINT.ocv_values.copy())
        assert params(copy) == params(THREE_POINT)
        assert params(copy) != params(TWO_POINT)
        assert params(copy) != params(THREE_POINT, r0=0.06)

    def test_invert_round_trip(self):
        for z in (0.0, 0.2, 0.55, 1.0):
            v = ocv_lookup(THREE_POINT, z)
            assert ocv_invert(THREE_POINT, v) == pytest.approx(z, abs=1e-12)


def one_step(params, state, i, dt):
    """simulate_arrays over one sample of current i lasting dt: the state
    after the step and whether it clamped the SoC."""
    z, v1, v2, _, sat = simulate_arrays(params, state, Profile.uniform([i], dt=dt))
    return CellState(z[0], v1[0], v2[0]), bool(sat[0])


def reference_step(params, state, i, dt):
    """One exact 2RC step written out per sample, the simulator's reference:
    `discretize`, the SoC clamp with its flag, and `ocv_lookup` for the
    terminal voltage. Returns (state, saturated, voltage)."""
    a1, a2, g1, g2 = discretize(params, dt)
    z = state.z + dt * i / params.q_max
    saturated = False
    if z < 0.0:
        z, saturated = 0.0, True
    elif z > 1.0:
        z, saturated = 1.0, True
    v1, v2 = a1 * state.v_r1 + g1 * i, a2 * state.v_r2 + g2 * i
    voltage = ocv_lookup(params.ocv, z) + params.r0 * i + v1 + v2
    return CellState(z, v1, v2), saturated, voltage


class TestStep:
    """One step of the 2RC model, taken through `simulate_arrays`."""

    def test_zero_input_fixed_point(self, cell):
        out, saturated = one_step(cell, CellState(z=0.4), 0.0, 5.0)
        assert (out.z, out.v_r1, out.v_r2) == (0.4, 0.0, 0.0)
        assert not saturated

    def test_homogeneous_decay(self, cell):
        dt = 12.0
        state = CellState(z=0.5, v_r1=0.03, v_r2=-0.02)
        out, _ = one_step(cell, state, 0.0, dt)
        assert out.v_r1 == pytest.approx(0.03 * math.exp(-dt / cell.tau1), rel=1e-14)
        assert out.v_r2 == pytest.approx(-0.02 * math.exp(-dt / cell.tau2), rel=1e-14)

    def test_constant_current_closed_form(self, cell):
        # Oracle: Eq. of motion solved in closed form for constant current.
        # SoC is an arithmetic sum; each RC voltage is a geometric series:
        # v_k = r*i*(1 - a^k) starting from rest.
        i, dt, steps = 0.8, 2.0, 200
        z, v1, v2, _, _ = simulate_arrays(
            cell, CellState(z=0.3), Profile.uniform(np.full(steps, i), dt=dt)
        )
        assert z[-1] == pytest.approx(0.3 + steps * dt * i / cell.q_max, rel=1e-12)
        a1 = math.exp(-dt / cell.tau1)
        a2 = math.exp(-dt / cell.tau2)
        assert v1[-1] == pytest.approx(cell.r1 * i * (1 - a1**steps), rel=1e-10)
        assert v2[-1] == pytest.approx(cell.r2 * i * (1 - a2**steps), rel=1e-10)

    def test_clamp_sets_saturation_flag(self, cell):
        out, saturated = one_step(cell, CellState(z=0.999), 1000.0, 60.0)
        assert out.z == 1.0 and saturated
        out, saturated = one_step(cell, CellState(z=0.001), -1000.0, 60.0)
        assert out.z == 0.0 and saturated

    def test_determinism(self, cell):
        s = CellState(z=0.42, v_r1=0.011, v_r2=-0.007)
        assert one_step(cell, s, 1.234, 0.7) == one_step(cell, s, 1.234, 0.7)

    def test_monotone_decay_at_rest(self, cell):
        _, v1, v2, _, _ = simulate_arrays(
            cell, CellState(z=0.5, v_r1=0.05, v_r2=-0.04), Profile.uniform(np.zeros(50), dt=3.0)
        )
        assert np.all(np.diff(np.abs(np.concatenate([[0.05], v1]))) < 0.0)
        assert np.all(np.diff(np.abs(np.concatenate([[-0.04], v2]))) < 0.0)

    def test_rc_update_affine_in_current(self, cell):
        state = CellState(z=0.5, v_r1=0.02, v_r2=0.01)
        i1, i2, dt = 1.7, -0.9, 4.0
        a, _ = one_step(cell, state, i1, dt)
        b, _ = one_step(cell, state, i2, dt)
        zero, _ = one_step(cell, state, 0.0, dt)
        both, _ = one_step(cell, state, i1 + i2, dt)
        assert a.v_r1 + b.v_r1 - zero.v_r1 == pytest.approx(both.v_r1, rel=1e-12)
        assert a.v_r2 + b.v_r2 - zero.v_r2 == pytest.approx(both.v_r2, rel=1e-12)


class TestDiscretize:
    @pytest.mark.parametrize("dt", [0.0, -1.0, math.nan])
    def test_rejects_non_positive_or_nan_dt(self, cell, dt):
        with pytest.raises(ValueError, match="dt must be positive"):
            discretize(cell, dt)

    def test_coefficients(self, cell):
        a1, a2, g1, g2 = discretize(cell, 3.0)
        assert a1 == math.exp(-3.0 / cell.tau1)
        assert a2 == math.exp(-3.0 / cell.tau2)
        assert g1 == cell.r1 * (1.0 - a1)
        assert g2 == cell.r2 * (1.0 - a2)


class TestTerminalVoltage:
    """The simulator's voltage is OCV(z) + r0*i + v_r1 + v_r2, term by term,
    on its own z, v_r1 and v_r2 arrays."""

    def test_rest_equals_ocv(self, cell):
        _, _, _, voltage, _ = simulate_arrays(cell, CellState(z=0.37), Profile.uniform([0.0]))
        assert voltage[0] == ocv_lookup(cell.ocv, 0.37)

    def test_ohmic_term(self, cell):
        # Two cells that differ in r0 alone differ in voltage by dr0 * i.
        profile = Profile.uniform([1.0, -2.0, 3.0])
        _, _, _, base, _ = simulate_arrays(cell, CellState(z=0.5), profile)
        _, _, _, more, _ = simulate_arrays(
            dataclasses.replace(cell, r0=cell.r0 + 0.05), CellState(z=0.5), profile
        )
        assert more - base == pytest.approx(0.05 * profile.i, abs=1e-12)

    def test_term_by_term_oracle(self, cell):
        rng = np.random.default_rng(11)
        current = rng.uniform(-3.0, 3.0, 200)
        profile = Profile.uniform(current, dt=2.0)
        initial = CellState(z=0.62, v_r1=0.013, v_r2=-0.009)
        z, v1, v2, voltage, _ = simulate_arrays(cell, initial, profile)
        for k, i in enumerate(current.tolist()):
            assert voltage[k] == ocv_lookup(cell.ocv, z[k]) + cell.r0 * i + v1[k] + v2[k]


class TestSimulate:
    def test_zero_current_holds_ocv(self, cell):
        profile = Profile.uniform(np.zeros(50), dt=2.0)
        _, _, _, voltage, _ = simulate(cell, CellState(z=0.7), profile)
        assert len(voltage) == 50
        v0 = ocv_lookup(cell.ocv, 0.7)
        for v in voltage:
            assert v == pytest.approx(v0, abs=1e-12)

    @pytest.mark.parametrize("field", ["z", "v_r1", "v_r2"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_initial_state_rejected(self, cell, field, bad):
        initial = dataclasses.replace(CellState(z=0.5), **{field: bad})
        profile = Profile.uniform(np.zeros(3))
        with pytest.raises(ValueError, match=f"initial state must be finite.*{field}={bad!r}"):
            simulate_arrays(cell, initial, profile)

    def test_rest_tail_recovers_time_constants(self, cell):
        # Pulse then a long rest; fit the two decay modes of the rest tail.
        current = np.concatenate([np.full(600, 2.0), np.zeros(4000)])
        profile = Profile.uniform(current, dt=1.0)
        _, v1, v2, _, _ = simulate_arrays(cell, CellState(z=0.2), profile)
        tail1, tail2 = v1[600:], v2[600:]
        tau1 = -1.0 / np.polyfit(np.arange(tail1.size), np.log(tail1), 1)[0]
        tau2 = -1.0 / np.polyfit(np.arange(tail2.size), np.log(tail2), 1)[0]
        assert tau1 == pytest.approx(cell.tau1, rel=1e-6)
        assert tau2 == pytest.approx(cell.tau2, rel=1e-6)

    def test_charge_conservation_without_clamping(self, cell):
        rng = np.random.default_rng(7)
        current = rng.uniform(-3.0, 3.0, 500)
        profile = Profile.uniform(current, dt=1.5)
        z, _, _, _, sat = simulate_arrays(cell, CellState(z=0.5), profile)
        assert not sat.any()
        expected = 0.5 + np.sum(1.5 * current) / cell.q_max
        assert z[-1] == pytest.approx(expected, rel=1e-12)

    def test_variable_dt_from_timestamps(self, cell):
        t = np.array([0.5, 1.0, 3.0, 7.0])
        profile = Profile(t, np.full(4, 1.0), first_dt=0.5)
        z, _, _, _, _ = simulate_arrays(cell, CellState(z=0.1), profile)
        dts = np.array([0.5, 0.5, 2.0, 4.0])
        assert z[-1] == pytest.approx(0.1 + dts.sum() * 1.0 / cell.q_max, rel=1e-12)

    def test_first_interval_is_default_dt_at_large_t0(self, cell):
        # t0 - (t0 - dt) is not dt at t0 = 1e9: the first interval must be
        # first_dt itself.
        profile = Profile(np.array([1e9, 1e9 + 0.1]), np.full(2, -5.0), first_dt=0.1)
        _, v1, _, _, _ = simulate_arrays(cell, CellState(z=0.5), profile)
        _, _, g1, _ = discretize(cell, 0.1)
        assert v1[0] == g1 * -5.0

    @settings(max_examples=60, deadline=None)
    @given(
        t0=st.floats(0.0, 2e9),
        steps=st.lists(
            st.tuples(st.floats(1e-3, 100.0), st.floats(-60.0, 60.0)),
            min_size=1, max_size=30,
        ),
        default_dt=st.floats(1e-3, 100.0),
        z0=st.floats(0.0, 1.0),
    )
    def test_bit_exact_to_reference_step(self, cell, t0, steps, default_dt, z0):
        gaps, current = (np.array(c) for c in zip(*steps))
        t = t0 + np.cumsum(gaps)
        profile = Profile(t, current, first_dt=default_dt)
        z, v1, v2, volt, sat = simulate_arrays(cell, CellState(z=z0), profile)
        state = CellState(z=z0)
        for k, (i, dt) in enumerate(zip(current.tolist(), profile.dts().tolist())):
            state, saturated, voltage = reference_step(cell, state, i, dt)
            assert (z[k], v1[k], v2[k], sat[k]) == (state.z, state.v_r1, state.v_r2, saturated)
            assert volt[k] == voltage


class TestProfile:
    def test_rejects_non_monotone_timestamps(self):
        with pytest.raises(ValueError):
            Profile(np.array([0.0, 1.0, 1.0]), np.zeros(3))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Profile(np.array([0.0, 1.0]), np.zeros(3))
        with pytest.raises(ValueError):
            Profile(np.array([0.0, 1.0]), np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Profile(np.array([0.0, 1.0]), np.array([0.0, bad]))
        with pytest.raises(ValueError, match="finite"):
            Profile(np.array([0.0, 1.0]), np.zeros(2), np.array([bad, 3.7]))
        with pytest.raises(ValueError, match="finite"):
            Profile(np.array([0.0, bad]), np.zeros(2))

    def test_uniform_constructor_dts(self):
        p = Profile.uniform(np.zeros(4), dt=2.5)
        assert np.allclose(p.dts(), 2.5)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_first_dt_not_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match=f"first_dt must be positive and finite, got {bad!r}"):
            Profile(np.array([0.0, 1.0]), np.zeros(2), first_dt=bad)

    def test_with_signals_keeps_first_dt(self):
        p = Profile(np.array([3.0, 4.0]), np.zeros(2), first_dt=0.25)
        q = p.with_signals(i=np.ones(2), v=np.full(2, 3.7))
        assert q.first_dt == 0.25
        assert np.array_equal(q.dts(), [0.25, 1.0])
        assert np.array_equal(p.dts(2.0), [2.0, 1.0])
