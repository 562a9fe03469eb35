"""Cell characterization: OCV curve construction and passive-component fitting.

The passive components (r0, r1, r2, c1, c2) are fitted by nonlinear least
squares on the predicted-vs-measured terminal voltage of an incremental
current test, using Levenberg-Marquardt in log-parameter space (which keeps
every parameter positive and puts ohms and farads on comparable scales).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ecm import CellState, EcmParams, OcvTable, Profile, ocv_invert, simulate_arrays

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
    """Outcome of a passive-component fit."""

    params: dict[str, float]  # r0, r1, r2, c1, c2
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


def predict_voltage(
    params: EcmParams, profile: Profile, initial: CellState, default_dt: float = 1.0
) -> np.ndarray:
    """Terminal voltage predicted by the model over a profile."""
    return simulate_arrays(params, initial, profile, default_dt)[3]


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
FD_STEP = 1e-6  # absolute step in log-parameter space
PARAM_LOWER = 1e-9  # floor of every passive component
PARAM_UPPER = 1e12  # keeps trial steps finite while LM probes large damping


def _passive_values(theta: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return np.clip(np.exp(theta), PARAM_LOWER, PARAM_UPPER)


def _passive_params(theta: np.ndarray, base: EcmParams) -> EcmParams:
    r0, r1, r2, c1, c2 = _passive_values(theta)
    return EcmParams(r0=r0, r1=r1, c1=c1, r2=r2, c2=c2, q_max=base.q_max, ocv=base.ocv)


def fit_passive_components(
    profile: Profile,
    ocv: OcvTable,
    q_max: float,
    init: dict[str, float],
    max_iterations: int = 200,
    initial_soc: float | None = None,
    default_dt: float = 1.0,
) -> FitReport:
    """Fit (r0, r1, r2, c1, c2) to a measured-voltage profile.

    Minimizes the sum of squared voltage residuals with Levenberg-Marquardt;
    the Jacobian comes from forward finite differences in log-parameter
    space; it stops after `max_iterations` iterations at most.
    Non-convergence is reported, not raised. The returned branches are
    canonicalized so that r1*c1 <= r2*c2 (the objective is invariant under a
    branch swap).

    If initial_soc is not given, the initial SoC is taken by inverting the
    OCV at the voltage of the first zero-current sample.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    if not profile.has_voltage:
        raise FittingError("profile must carry a measured voltage column")
    missing = [k for k in PASSIVE_NAMES if k not in init]
    if missing:
        raise FittingError(f"initial guess missing parameters: {missing}")
    if any(not init[k] > 0.0 for k in PASSIVE_NAMES):
        raise FittingError("initial guess must be strictly positive")

    if initial_soc is None:
        rest = np.nonzero(profile.i == 0.0)[0]
        if rest.size == 0:
            raise FittingError(
                "profile has no rest sample to infer the initial SoC from; "
                "pass initial_soc explicitly"
            )
        initial_soc = ocv_invert(ocv, profile.v[rest[0]])
    init_state = CellState(z=initial_soc)

    base = EcmParams(
        r0=init["r0"], r1=init["r1"], c1=init["c1"], r2=init["r2"], c2=init["c2"],
        q_max=q_max, ocv=ocv,
    )
    v_meas = profile.v

    def residual(theta):
        params = _passive_params(theta, base)
        return predict_voltage(params, profile, init_state, default_dt) - v_meas

    theta = np.log([init[k] for k in PASSIVE_NAMES])
    r = residual(theta)
    rss = float(r @ r)
    trace = [rss]
    damping = INITIAL_DAMPING
    converged = False
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        jac = np.empty((r.size, 5))
        for j in range(5):
            bumped = theta.copy()
            bumped[j] += FD_STEP
            jac[:, j] = (residual(bumped) - r) / FD_STEP
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
            r_new = residual(theta_new)
            rss_new = float(r_new @ r_new)
            if np.isfinite(rss_new) and rss_new <= rss:
                theta, r, rss = theta_new, r_new, rss_new
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

    values = dict(zip(PASSIVE_NAMES, _passive_values(theta)))
    if values["r1"] * values["c1"] > values["r2"] * values["c2"]:
        values["r1"], values["r2"] = values["r2"], values["r1"]
        values["c1"], values["c2"] = values["c2"], values["c1"]
    return FitReport(
        params={k: float(v) for k, v in values.items()},
        final_rss=rss,
        iterations=iterations,
        converged=converged,
        trace=tuple(trace),
    )
