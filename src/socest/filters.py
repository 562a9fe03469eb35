"""SoC estimators: Coulomb counting, EKF, and two adaptive EKF variants.

The state is x = (z, v_r1, v_r2). The state transition is linear and
diagonal; only the output map is nonlinear (through the OCV curve), so the
EKF linearizes it with the row [OCV'(z), 1, 1]. The adaptive variants
re-estimate the noise covariances from a sliding window of residual
statistics held in circular buffers with running sums, so each step costs
O(1) regardless of the window size.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .ecm import EcmParams, Profile, _rows, discretize, ocv_derivative, ocv_lookup

__all__ = [
    "NumericalFaultError",
    "LinearizedModel",
    "FilterState",
    "StepRecord",
    "WindowStats",
    "coulomb_count_step",
    "linearize",
    "ekf_predict",
    "ekf_correct",
    "mle_adapt",
    "cm_adapt",
    "make_filter_state",
    "estimator_run",
]

ESTIMATOR_KINDS: tuple[str, ...] = ("cc", "ekf", "aekf-mle", "aekf-cm")

DEFAULT_SIGMA = (1e-7, 1e-8, 1e-8)  # initial process-noise diagonal
DEFAULT_SIGMA2 = 1e-3  # initial measurement-noise variance, V^2
DEFAULT_P0 = (1e-2, 1e-4, 1e-4)  # initial state-covariance diagonal
CM_VARIANCE_FLOOR = 1e-8  # V^2; keeps the matched R estimate positive


class NumericalFaultError(RuntimeError):
    """Covariance corruption detected (non-positive innovation variance)."""


@dataclass(frozen=True)
class LinearizedModel:
    """State-space matrices of the cell model at a fixed step size.

    A is diagonal: (1, exp(-dt/tau1), exp(-dt/tau2)). B routes the current
    into SoC and the RC branches. D is the ohmic feedthrough r0. The output
    row C depends on the linearization point and is computed per step.
    """

    a_diag: np.ndarray
    b_vector: np.ndarray
    d_scalar: float
    params: EcmParams
    dt: float

    def c_row(self, z: float) -> np.ndarray:
        return np.array([ocv_derivative(self.params.ocv, z), 1.0, 1.0])

    def output(self, x: np.ndarray, i: float) -> float:
        """Full nonlinear output map h(x) + D*i (OCV through the table)."""
        return ocv_lookup(self.params.ocv, x[0]) + self.d_scalar * i + x[1] + x[2]


def linearize(params: EcmParams, dt: float) -> LinearizedModel:
    a1, a2, g1, g2 = discretize(params, dt)
    return LinearizedModel(
        a_diag=np.array([1.0, a1, a2]),
        b_vector=np.array([dt / params.q_max, g1, g2]),
        d_scalar=params.r0,
        params=params,
        dt=dt,
    )


@dataclass
class FilterState:
    """Filter estimate: state vector, its covariance, and the noise covariances."""

    x: np.ndarray  # (z, v_r1, v_r2)
    p: np.ndarray  # 3x3 state covariance
    sigma: np.ndarray  # 3x3 process-noise covariance
    sigma2: float  # measurement-noise variance, V^2


@dataclass(frozen=True)
class StepRecord:
    """Residual statistics of one correction step, consumed by adaptation."""

    e_minus: float  # innovation (pre-fit residual), V
    e_plus: float  # post-fit residual, V
    k_gain: np.ndarray  # 3x1 Kalman gain
    cpc_term: float  # C P+ C^T, V^2
    cpc_minus: float  # C P- C^T, V^2 (used by covariance matching)


def make_filter_state(z0: float) -> FilterState:
    """Generic initial filter state; adaptation overrides the noise terms."""
    return FilterState(
        x=np.array([z0, 0.0, 0.0]),
        p=np.diag(DEFAULT_P0).astype(float),
        sigma=np.diag(DEFAULT_SIGMA).astype(float),
        sigma2=DEFAULT_SIGMA2,
    )


def coulomb_count_step(z: float, i: float, dt: float, q_max: float) -> float:
    """Pure current integration, clamped to [0, 1]."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    return min(max(z + dt * i / q_max, 0.0), 1.0)


def ekf_predict(fs: FilterState, model: LinearizedModel, i: float) -> FilterState:
    """Time update: x <- A x + B i, P <- A P A^T + Sigma (P symmetrized)."""
    a = model.a_diag
    x = a * fs.x + model.b_vector * i
    x[0] = min(max(x[0], 0.0), 1.0)
    p = (a[:, None] * fs.p) * a[None, :] + fs.sigma
    p = 0.5 * (p + p.T)
    return FilterState(x, p, fs.sigma, fs.sigma2)


def ekf_correct(
    fs: FilterState, model: LinearizedModel, i: float, v_measured: float
) -> tuple[FilterState, StepRecord]:
    """Measurement update with Joseph-form covariance.

    Residuals use the full nonlinear output map; the linearization row C only
    enters the gain and covariance algebra.
    """
    c = model.c_row(float(fs.x[0]))
    pc = fs.p @ c
    cpc_minus = float(c @ pc)
    s = cpc_minus + fs.sigma2
    if s <= 0.0:
        raise NumericalFaultError(f"innovation variance {s!r} is not positive")
    k = pc / s
    e_minus = v_measured - model.output(fs.x, i)
    x = fs.x + k * e_minus
    x[0] = min(max(x[0], 0.0), 1.0)
    ikc = np.eye(3) - np.outer(k, c)
    p = ikc @ fs.p @ ikc.T + fs.sigma2 * np.outer(k, k)
    p = 0.5 * (p + p.T)
    e_plus = v_measured - model.output(x, i)
    cpc_term = float(c @ p @ c)
    new = FilterState(x, p, fs.sigma, fs.sigma2)
    return new, StepRecord(float(e_minus), float(e_plus), k, cpc_term, cpc_minus)


class WindowStats:
    """Fixed-capacity circular buffers of per-step residual summands.

    Channel a holds squared innovations e-^2; channel b holds e+^2 + C P+ C^T.
    Each channel is a list of Python floats with a float running sum, which
    gives O(1) window means; the sums are recomputed exactly from the ring
    every RECOMPUTE_EVERY pushes to bound floating-point drift.
    """

    RECOMPUTE_EVERY = 4096

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("window capacity must be >= 1")
        self.capacity = capacity
        self._ring_a = [0.0] * capacity
        self._ring_b = [0.0] * capacity
        self._head = 0
        self.fill = 0
        self._sum_a = 0.0
        self._sum_b = 0.0
        self._pushes = 0

    def push(self, e_minus_sq: float, e_plus_term: float) -> None:
        head = self._head
        if self.fill == self.capacity:
            self._sum_a -= self._ring_a[head]
            self._sum_b -= self._ring_b[head]
        else:
            self.fill += 1
        self._ring_a[head] = e_minus_sq
        self._ring_b[head] = e_plus_term
        self._sum_a += e_minus_sq
        self._sum_b += e_plus_term
        head += 1
        self._head = 0 if head == self.capacity else head
        self._pushes += 1
        if self._pushes % self.RECOMPUTE_EVERY == 0:
            self._sum_a = math.fsum(self._ring_a[: self.fill])
            self._sum_b = math.fsum(self._ring_b[: self.fill])

    def push_record(self, rec: StepRecord) -> None:
        self.push(rec.e_minus**2, rec.e_plus**2 + rec.cpc_term)

    @property
    def mean_innovation_sq(self) -> float:
        return self._sum_a / self.fill

    @property
    def mean_posterior_term(self) -> float:
        return self._sum_b / self.fill


def mle_adapt(ws: WindowStats, last: StepRecord, fs: FilterState) -> FilterState:
    """Maximum-likelihood covariance update from windowed residuals.

    Sigma becomes the current gain sandwiching the window mean of squared
    innovations (rank-1 PSD); the measurement variance becomes the window
    mean of e+^2 + C P+ C^T. Before the window fills, means divide by the
    current fill count.
    """
    if ws.fill == 0:
        return fs
    sigma = np.outer(last.k_gain, last.k_gain) * ws.mean_innovation_sq
    return FilterState(fs.x, fs.p, sigma, float(ws.mean_posterior_term))


def cm_adapt(ws: WindowStats, last: StepRecord, fs: FilterState) -> FilterState:
    """Innovation-based covariance matching.

    The window mean of squared innovations estimates C P- C^T + sigma^2;
    subtracting the model term gives the measurement variance (floored to
    stay positive), and the same innovation covariance mapped through the
    gain gives the process noise.
    """
    if ws.fill == 0:
        return fs
    c_hat = ws.mean_innovation_sq
    sigma2 = max(c_hat - last.cpc_minus, CM_VARIANCE_FLOOR)
    sigma = np.outer(last.k_gain, last.k_gain) * c_hat
    return FilterState(fs.x, fs.p, sigma, float(sigma2))


def _sym3(a00: float, a01: float, a02: float, a11: float, a12: float, a22: float) -> np.ndarray:
    return np.array([[a00, a01, a02], [a01, a11, a12], [a02, a12, a22]])


def estimator_run(
    kind: str,
    params: EcmParams,
    profile: Profile,
    z0: float,
    window: int = 128,
    record_hook=None,
) -> np.ndarray:
    """Run one estimator over a full profile; returns the SoC estimate sequence.

    Every kind starts at SoC z0 in [0, 1], the filter kinds from
    `make_filter_state(z0)`. For the adaptive kinds the per-step order is
    predict, correct, window push, adapt; adapted covariances take effect on
    the next step. Adaptation is suppressed for the first `window` steps, when
    residuals still reflect initialization error rather than noise, so a
    window at least as long as the profile never adapts.

    The filter kinds run a scalar-unrolled form of `ekf_predict`,
    `ekf_correct`, `WindowStats`, `mle_adapt` and `cm_adapt`: A is diagonal
    and C = [OCV'(z), 1, 1], so a step is a few dozen float operations on
    the state, the six unique entries of P and of Sigma, the gain and the
    residual window. The step functions remain the reference it is tested
    against.

    `record_hook(k, fs, rec)` is called after each correction (test
    instrumentation; ignored by CC).
    """
    if kind not in ESTIMATOR_KINDS:
        raise ValueError(f"unknown estimator kind {kind!r}")
    if not 0.0 <= z0 <= 1.0:
        rule = "be in [0, 1]" if math.isfinite(z0) else "be finite"
        raise ValueError(f"initial SoC must {rule}, got {float(z0)!r}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window!r}")
    n = len(profile)
    dts = profile.dts()
    out = np.empty(n)

    if kind == "cc":
        z = float(z0)
        q_max = params.q_max
        for k, (dt, i) in enumerate(_rows(dts, profile.i)):
            z = coulomb_count_step(z, i, dt, q_max)
            out[k] = z
        return out

    if not profile.has_voltage:
        raise ValueError(f"estimator {kind!r} requires a voltage column")
    adaptive = kind in ("aekf-mle", "aekf-cm") and window < n  # adapts from step `window`
    mle = kind == "aekf-mle"

    # OCV(z) = vals[j] + slopes[j] * (z - grid[j]) on segment j, as np.interp
    # evaluates it; ocv_derivative takes the right segment at a node and the
    # last one at z = 1. The current segment [lo, hi) is carried from lookup
    # to lookup and searched for again only when z leaves it.
    # segments[j] = (grid[j], grid[j + 1], slopes[j], vals[j]); bisect_right
    # puts z = 1 one past the last segment, so that one is repeated there.
    grid = params.ocv.soc_grid.tolist()
    vals = params.ocv.ocv_values.tolist()
    segments = list(zip(grid, grid[1:], params.ocv.slopes.tolist(), vals))
    segments.append(segments[-1])
    v_top = vals[-1]

    lo = hi = 0.0  # empty: the first lookup searches

    # The residual window of WindowStats, held in locals: channel a holds
    # e-^2, channel b e+^2 + C P+ C^T, with running sums recomputed exactly
    # every RECOMPUTE_EVERY pushes.
    ring_a = [0.0] * window if adaptive else None
    ring_b = [0.0] * window if adaptive else None
    head = fill = 0
    sum_a = sum_b = 0.0
    recompute_every = WindowStats.RECOMPUTE_EVERY

    r0, q_max = params.r0, params.q_max

    # P and Sigma are held as their six unique entries, so they are symmetric
    # by construction (the step functions symmetrise after every update).
    x0, x1, x2 = float(z0), 0.0, 0.0
    p00, p11, p22 = DEFAULT_P0
    s00, s11, s22 = DEFAULT_SIGMA
    p01 = p02 = p12 = s01 = s02 = s12 = 0.0
    sigma2 = DEFAULT_SIGMA2

    prev_dt = None
    for k, (i, v, dt) in enumerate(_rows(profile.i, profile.v, dts)):
        if dt != prev_dt:
            a1, a2, g1, g2 = discretize(params, dt)
            b0 = dt / q_max
            prev_dt = dt

        # Predict: x <- A x + B i, P <- A P A^T + Sigma, A = diag(1, a1, a2).
        # SoC is clamped to [0, 1] by compare-and-assign, which leaves NaN
        # and -0.0 as min(max(z, 0), 1) does.
        x0 = x0 + b0 * i
        if x0 < 0.0:
            x0 = 0.0
        elif x0 > 1.0:
            x0 = 1.0
        x1 = a1 * x1 + g1 * i
        x2 = a2 * x2 + g2 * i
        p00 = p00 + s00
        p01 = p01 * a1 + s01
        p02 = p02 * a2 + s02
        p11 = a1 * p11 * a1 + s11
        p12 = a1 * p12 * a2 + s12
        p22 = a2 * p22 * a2 + s22

        # Correct with C = [d, 1, 1], d = OCV'(z), the slope of segment [lo, hi).
        if not lo <= x0 < hi:
            if not 0.0 <= x0 <= 1.0:
                raise ValueError(f"SoC {x0!r} outside [0, 1]")
            lo, hi, d, v_lo = segments[bisect_right(grid, x0) - 1]
        ocv = v_top if x0 == 1.0 else d * (x0 - lo) + v_lo
        pc0 = p00 * d + p01 + p02
        pc1 = p01 * d + p11 + p12
        pc2 = p02 * d + p12 + p22
        cpc_minus = d * pc0 + pc1 + pc2
        s = cpc_minus + sigma2
        if s <= 0.0:
            raise NumericalFaultError(f"innovation variance {s!r} is not positive")
        k0, k1, k2 = pc0 / s, pc1 / s, pc2 / s
        e_minus = v - (ocv + r0 * i + x1 + x2)
        x0 = x0 + k0 * e_minus
        if x0 < 0.0:
            x0 = 0.0
        elif x0 > 1.0:
            x0 = 1.0
        x1 = x1 + k1 * e_minus
        x2 = x2 + k2 * e_minus

        # Joseph form P+ = M P M^T + sigma2 K K^T with M = I - K C, expanded
        # through the structure of M: Q = M P = P - K (P C)^T, and
        # Q M^T = Q - (Q C^T) K^T.
        q00, q01, q02 = p00 - k0 * pc0, p01 - k0 * pc1, p02 - k0 * pc2
        q10, q11, q12 = p01 - k1 * pc0, p11 - k1 * pc1, p12 - k1 * pc2
        q20, q21, q22 = p02 - k2 * pc0, p12 - k2 * pc1, p22 - k2 * pc2
        qc0 = q00 * d + q01 + q02
        qc1 = q10 * d + q11 + q12
        qc2 = q20 * d + q21 + q22
        rk0, rk1, rk2 = sigma2 * k0, sigma2 * k1, sigma2 * k2
        p00 = q00 - qc0 * k0 + rk0 * k0
        p01 = q01 - qc0 * k1 + rk0 * k1
        p02 = q02 - qc0 * k2 + rk0 * k2
        p11 = q11 - qc1 * k1 + rk1 * k1
        p12 = q12 - qc1 * k2 + rk1 * k2
        p22 = q22 - qc2 * k2 + rk2 * k2

        cp0 = d * p00 + p01 + p02
        cp1 = d * p01 + p11 + p12
        cp2 = d * p02 + p12 + p22
        cpc_term = d * cp0 + cp1 + cp2
        if not lo <= x0 < hi:
            if not 0.0 <= x0 <= 1.0:
                raise ValueError(f"SoC {x0!r} outside [0, 1]")
            lo, hi, d, v_lo = segments[bisect_right(grid, x0) - 1]
        ocv = v_top if x0 == 1.0 else d * (x0 - lo) + v_lo
        e_plus = v - (ocv + r0 * i + x1 + x2)

        if adaptive:
            # WindowStats.push: replace the oldest summand once the ring is full.
            e_minus_sq, e_plus_term = e_minus**2, e_plus**2 + cpc_term
            if fill == window:
                sum_a -= ring_a[head]
                sum_b -= ring_b[head]
            else:
                fill += 1
            ring_a[head] = e_minus_sq
            ring_b[head] = e_plus_term
            sum_a += e_minus_sq
            sum_b += e_plus_term
            head += 1
            if head == window:
                head = 0
            if (k + 1) % recompute_every == 0:
                sum_a = math.fsum(ring_a[:fill])
                sum_b = math.fsum(ring_b[:fill])
            if k >= window:
                # Sigma <- K K^T c_hat (rank one); sigma2 from the window.
                c_hat = sum_a / fill
                if mle:
                    sigma2 = sum_b / fill
                else:
                    sigma2 = c_hat - cpc_minus
                    if sigma2 < CM_VARIANCE_FLOOR:
                        sigma2 = CM_VARIANCE_FLOOR
                s00, s01, s02 = k0 * k0 * c_hat, k0 * k1 * c_hat, k0 * k2 * c_hat
                s11, s12, s22 = k1 * k1 * c_hat, k1 * k2 * c_hat, k2 * k2 * c_hat

        if record_hook is not None:
            fs = FilterState(
                np.array([x0, x1, x2]),
                _sym3(p00, p01, p02, p11, p12, p22),
                _sym3(s00, s01, s02, s11, s12, s22),
                sigma2,
            )
            rec = StepRecord(e_minus, e_plus, np.array([k0, k1, k2]), cpc_term, cpc_minus)
            record_hook(k, fs, rec)
        out[k] = x0
    return out
