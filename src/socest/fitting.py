"""Cell characterization: OCV curve construction and passive-component fitting.

The passive components (r0, r1, r2, c1, c2) are fitted by nonlinear least
squares on the predicted-vs-measured terminal voltage of an incremental
current test, using Levenberg-Marquardt in log-parameter space (which keeps
every parameter positive and puts ohms and farads on comparable scales).
The Jacobian is exact: one scalar pass over the profile carries each RC
branch voltage together with its forward sensitivity.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ecm import (
    CellState, EcmParams, OcvTable, Profile, _rows, discretize, ocv_invert, simulate_arrays,
)

__all__ = [
    "FittingError",
    "OcvSweep",
    "FitReport",
    "build_ocv_table",
    "predict_voltage",
    "fit_passive_components",
    "make_incremental_current_profile",
]

PASSIVE_NAMES = ("r0", "r1", "r2", "c1", "c2")


class FittingError(RuntimeError):
    """Raised for corrupted characterization data or unusable fit inputs."""


@dataclass(frozen=True)
class OcvSweep:
    """Low-current charge and discharge (SoC, voltage) curves."""

    charge_curve: np.ndarray  # shape (n, 2): columns (z, V)
    discharge_curve: np.ndarray

    def __post_init__(self):
        for name in ("charge_curve", "discharge_curve"):
            curve = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, curve)
            if curve.ndim != 2 or curve.shape[1] != 2 or curve.shape[0] < 2:
                raise ValueError(f"{name} must be an (n>=2, 2) array of (z, V)")
            z = curve[:, 0]
            if z.min() < 0.0 or z.max() > 1.0:
                raise ValueError(f"{name} SoC values must lie in [0, 1]")
            dz = np.diff(z)
            if not (np.all(dz > 0) or np.all(dz < 0)):
                raise ValueError(f"{name} SoC values must be monotonic")


@dataclass(frozen=True)
class FitReport:
    """Outcome of a passive-component fit: the fitted cell, the final sum of
    squared residuals, the LM iteration count and whether it converged."""

    params: EcmParams  # the start cell with the fitted r0, r1, r2, c1, c2
    final_rss: float
    iterations: int
    converged: bool
    trace: tuple[float, ...]  # objective value after each accepted step


def build_ocv_table(sweep: OcvSweep, spacing: float = 0.02) -> OcvTable:
    """Average the charge and discharge sweeps onto a uniform SoC grid.

    Averaging the two curves cancels symmetric hysteresis and ohmic offsets.
    The averaged curve must come out strictly increasing; a violation points
    at corrupted sweep data and is reported with the offending node.
    """
    grid = OcvTable.uniform_grid(spacing)
    resampled = []
    for name in ("charge_curve", "discharge_curve"):
        curve = getattr(sweep, name)
        z, v = curve[:, 0], curve[:, 1]
        if z[0] > z[-1]:  # allow discharge sweeps recorded high-to-low
            z, v = z[::-1], v[::-1]
        if z[0] > 1e-9 or z[-1] < 1.0 - 1e-9:
            raise FittingError(f"{name} does not cover the full [0, 1] SoC range")
        resampled.append(np.interp(grid, z, v))

    avg = 0.5 * (resampled[0] + resampled[1])
    bad = np.nonzero(np.diff(avg) <= 0)[0]
    if bad.size:
        raise FittingError(
            f"averaged OCV curve is not increasing at SoC={grid[bad[0] + 1]:.4f}"
        )
    return OcvTable(grid, avg)


def predict_voltage(params: EcmParams, profile: Profile, initial: CellState) -> np.ndarray:
    """Terminal voltage predicted by the model over a profile."""
    return simulate_arrays(params, initial, profile)[3]


def make_incremental_current_profile(
    pulse_current: float,
    pulse_duration: float,
    rest_duration: float,
    n_pulses: int,
    dt: float = 1.0,
) -> Profile:
    """Alternating constant-current pulses and rests (characterization test)."""
    if min(pulse_current, pulse_duration, rest_duration, dt) <= 0 or n_pulses < 1:
        raise ValueError("all incremental-test arguments must be positive")
    n_pulse = round(pulse_duration / dt)
    n_rest = round(rest_duration / dt)
    block = np.concatenate([np.full(n_pulse, pulse_current), np.zeros(n_rest)])
    return Profile.uniform(np.tile(block, n_pulses), dt=dt)


# Levenberg-Marquardt settings.
INITIAL_DAMPING = 1e-3
DAMPING_FACTOR = 10.0  # damping grows by it on a rejected step, shrinks on an accepted one
DAMPING_OVERFLOW = 1e14  # no acceptable step exists beyond this damping
GRADIENT_TOLERANCE = 1e-8
STEP_TOLERANCE = 1e-10
MAX_ITERATIONS = 200
PARAM_LOWER = 1e-9  # floor of every passive component
PARAM_UPPER = 1e12  # keeps trial steps finite while LM probes large damping


def _passive_values(theta: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return np.clip(np.exp(theta), PARAM_LOWER, PARAM_UPPER)


def _fit_problem(base: EcmParams, profile: Profile, initial: CellState):
    """`evaluate(theta) -> (residual, jacobian)` of the fit over a profile.

    theta is log(r0, r1, r2, c1, c2) and the Jacobian's columns follow that
    order. SoC, hence OCV(z), does not depend on the passive components, so
    it is simulated once here. One pass then carries each RC branch voltage
    v, computed as in `simulate_arrays`, with its forward sensitivity
    s = dv/dlog(c): with alpha = a*dt/tau,
    s_k = a*s_{k-1} + alpha*(v_{k-1} - r*i_k). The fit starts from rest
    (v = s = 0), so dv/dlog(r) = s + v, and dV/dlog(r0) = r0*i.

    Where the computed residual is flat, the column is zero: for a clipped
    parameter, and for a branch whose `discretize` rounds a to exactly 1
    (g = 0, so the branch is switched off; alpha is taken as 0).
    """
    z = simulate_arrays(base, initial, profile)[0]
    ocv_z = np.interp(z, base.ocv.soc_grid, base.ocv.ocv_values)
    dts = profile.dts()
    cur = profile.i
    v_meas = profile.v
    n = cur.size

    def evaluate(theta):
        values = _passive_values(theta)
        r0, r1, r2, c1, c2 = values.tolist()
        params = EcmParams(r0=r0, r1=r1, c1=c1, r2=r2, c2=c2, q_max=base.q_max, ocv=base.ocv)
        v1_out = np.empty(n)
        v2_out = np.empty(n)
        s1_out = np.empty(n)
        s2_out = np.empty(n)
        v1 = v2 = s1 = s2 = 0.0
        prev_dt = None
        for k, (dt, i) in enumerate(_rows(dts, cur)):
            if dt != prev_dt:
                a1, a2, g1, g2 = discretize(params, dt)
                al1 = 0.0 if a1 == 1.0 else a1 * dt / params.tau1
                al2 = 0.0 if a2 == 1.0 else a2 * dt / params.tau2
                prev_dt = dt
            s1 = a1 * s1 + al1 * (v1 - r1 * i)
            s2 = a2 * s2 + al2 * (v2 - r2 * i)
            v1 = a1 * v1 + g1 * i
            v2 = a2 * v2 + g2 * i
            v1_out[k] = v1
            v2_out[k] = v2
            s1_out[k] = s1
            s2_out[k] = s2

        ohmic = r0 * cur
        jac = np.column_stack((ohmic, s1_out + v1_out, s2_out + v2_out, s1_out, s2_out))
        jac[:, (values == PARAM_LOWER) | (values == PARAM_UPPER)] = 0.0
        return (ocv_z + ohmic + v1_out + v2_out) - v_meas, jac

    return evaluate


def fit_passive_components(
    profile: Profile, init: EcmParams, initial_soc: float | None = None
) -> FitReport:
    """Fit the passive components of a cell to a measured-voltage profile.

    `init` is the start guess: the fit moves its r0, r1, r2, c1 and c2 and
    holds its q_max and OCV table fixed. It minimizes the sum of squared
    voltage residuals with Levenberg-Marquardt in log-parameter space and
    stops after MAX_ITERATIONS iterations at most. Each trial step costs one
    pass over the profile, which yields the residual (bit-identical to
    `predict_voltage(...) - v`) and the exact Jacobian.
    Non-convergence is reported, not raised. The fitted branches are
    canonicalized so that r1*c1 <= r2*c2 (the objective is invariant under a
    branch swap).

    If initial_soc is not given, the initial SoC is taken by inverting the
    OCV at the voltage of the first zero-current sample; a voltage outside
    the table's range is a FittingError, not a clamp to SoC 0 or 1.
    """
    if not profile.has_voltage:
        raise FittingError("profile must carry a measured voltage column")
    if initial_soc is None:
        rest = np.nonzero(profile.i == 0.0)[0]
        if rest.size == 0:
            raise FittingError(
                "profile has no rest sample to infer the initial SoC from; "
                "pass initial_soc explicitly"
            )
        v_rest = float(profile.v[rest[0]])
        lo, hi = init.ocv.ocv_values[[0, -1]].tolist()
        if not lo <= v_rest <= hi:
            raise FittingError(
                f"first rest voltage {v_rest!r} V is outside the OCV table's range "
                f"[{lo!r}, {hi!r}] V; pass initial_soc explicitly"
            )
        initial_soc = ocv_invert(init.ocv, v_rest)
    evaluate = _fit_problem(init, profile, CellState(z=initial_soc))

    theta = np.log([getattr(init, k) for k in PASSIVE_NAMES])
    r, jac = evaluate(theta)
    rss = float(r @ r)
    trace = [rss]
    damping = INITIAL_DAMPING
    converged = False
    iterations = 0

    for iterations in range(1, MAX_ITERATIONS + 1):
        grad = jac.T @ r
        if np.max(np.abs(grad)) < GRADIENT_TOLERANCE:
            converged = True
            break
        hess = jac.T @ jac
        diag = np.diag(hess).copy()
        diag[diag == 0.0] = 1.0

        accepted = False
        while damping <= DAMPING_OVERFLOW:
            try:
                step = np.linalg.solve(hess + damping * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                damping *= DAMPING_FACTOR
                continue
            theta_new = theta + step
            r_new, jac_new = evaluate(theta_new)
            rss_new = float(r_new @ r_new)
            if np.isfinite(rss_new) and rss_new <= rss:
                theta, r, jac, rss = theta_new, r_new, jac_new, rss_new
                trace.append(rss)
                damping /= DAMPING_FACTOR
                accepted = True
                break
            damping *= DAMPING_FACTOR
        if not accepted:
            break  # damping overflow: no acceptable step exists
        if np.max(np.abs(step)) < STEP_TOLERANCE * (1.0 + np.max(np.abs(theta))):
            converged = True
            break

    r0, r1, r2, c1, c2 = _passive_values(theta).tolist()
    if r1 * c1 > r2 * c2:
        r1, r2, c1, c2 = r2, r1, c2, c1
    return FitReport(
        params=replace(init, r0=r0, r1=r1, r2=r2, c1=c1, c2=c2),
        final_rss=rss,
        iterations=iterations,
        converged=converged,
        trace=tuple(trace),
    )
