"""SoC estimators: Coulomb counting, EKF, and two adaptive EKF variants.

The state is x = (z, v_r1, v_r2). The state transition is linear and
diagonal; only the output map is nonlinear (through the OCV curve), so the
EKF linearizes it with the row [OCV'(z), 1, 1]. The adaptive variants
re-estimate the noise covariances from a sliding window of residual
statistics held in circular buffers with running sums, so each step costs
O(1), amortised, regardless of the window size.
"""
from __future__ import annotations

import math
import sys
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
ADAPTIVE_KINDS = ESTIMATOR_KINDS[2:]  # the kinds that read the window

DEFAULT_SIGMA = (1e-7, 1e-8, 1e-8)  # initial process-noise diagonal
DEFAULT_SIGMA2 = 1e-3  # initial measurement-noise variance, V^2
DEFAULT_P0 = (1e-2, 1e-4, 1e-4)  # initial state-covariance diagonal
CM_VARIANCE_FLOOR = 1e-8  # V^2; keeps the matched R estimate positive
DEFAULT_WINDOW = 128  # the adaptive window N, in samples
R_FLOOR = 1e-28  # V^2; 10^3-10^4 x the Delta^2/12 noise of a float64 reading at 4 V

# A v_r1 or v_r2 variance below the smallest normal float has collapsed:
# the branch's gain feeds on itself and decays through subnormals, each of
# which costs a float operation several times its normal price. Its row and
# column of P (and of Sigma) are set to 0.0 instead, which leaves a PSD
# matrix PSD.
COLLAPSE_THRESHOLD = sys.float_info.min


class NumericalFaultError(RuntimeError):
    """The filter's arithmetic failed: an innovation variance that is not
    positive (a corrupt P), a residual window whose exact sum overflows, or an
    SoC estimate that is not finite (a NaN, which the clamps pass through)."""


@dataclass(frozen=True)
class LinearizedModel:
    """State-space matrices of the cell model at a fixed step size.

    A is diagonal: (1, exp(-dt/tau1), exp(-dt/tau2)). B routes the current
    into SoC and the RC branches. The output row C depends on the
    linearization point and is computed per step.
    """

    a_diag: np.ndarray
    b_vector: np.ndarray
    params: EcmParams
    dt: float

    def c_row(self, z: float) -> np.ndarray:
        return np.array([ocv_derivative(self.params.ocv, z), 1.0, 1.0])

    def output(self, x: np.ndarray, i: float) -> float:
        """Full nonlinear output map h(x) + r0*i (OCV through the table)."""
        return ocv_lookup(self.params.ocv, x[0]) + self.params.r0 * i + x[1] + x[2]


def linearize(params: EcmParams, dt: float) -> LinearizedModel:
    a1, a2, g1, g2 = discretize(params, dt)
    return LinearizedModel(
        a_diag=np.array([1.0, a1, a2]),
        b_vector=np.array([dt / params.q_max, g1, g2]),
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


def _flush_collapsed(m: np.ndarray) -> np.ndarray:
    """Zero row and column j of the symmetric 3x3 `m`, in place, for each RC
    branch j = 1, 2 whose variance m[j, j] is below `COLLAPSE_THRESHOLD` in
    magnitude; returns `m`."""
    for j in (1, 2):
        if abs(m[j, j]) < COLLAPSE_THRESHOLD:
            m[j, :] = 0.0
            m[:, j] = 0.0
    return m


def _window_sum(ring: list[float]) -> float:
    """Exact sum of a residual ring; a sum past the float range is a
    NumericalFaultError (`math.fsum` raises OverflowError there)."""
    try:
        return math.fsum(ring)
    except OverflowError:
        raise NumericalFaultError("residual window sum overflows") from None


def _check_soc(z: float) -> None:
    """A clamped SoC is in [0, 1] unless it is NaN: a NumericalFaultError."""
    if not 0.0 <= z <= 1.0:
        raise NumericalFaultError(f"SoC estimate {float(z)!r} is not finite")


def ekf_predict(fs: FilterState, model: LinearizedModel, i: float) -> FilterState:
    """Time update: x <- A x + B i, P <- A P A^T + Sigma (P symmetrized)."""
    a = model.a_diag
    x = a * fs.x + model.b_vector * i
    x[0] = min(max(x[0], 0.0), 1.0)
    _check_soc(x[0])
    p = (a[:, None] * fs.p) * a[None, :] + fs.sigma
    p = 0.5 * (p + p.T)
    return FilterState(x, p, fs.sigma, fs.sigma2)


def ekf_correct(
    fs: FilterState, model: LinearizedModel, i: float, v_measured: float
) -> tuple[FilterState, StepRecord]:
    """Measurement update with Joseph-form covariance, its collapsed RC rows
    flushed (`_flush_collapsed`).

    It weighs the residual by r = max(sigma2, R_FLOOR); the state keeps sigma2.
    Residuals use the full nonlinear output map; the linearization row C only
    enters the gain and covariance algebra.
    """
    c = model.c_row(float(fs.x[0]))
    pc = fs.p @ c
    cpc_minus = float(c @ pc)
    r = max(fs.sigma2, R_FLOOR)
    s = cpc_minus + r
    if s <= 0.0:
        raise NumericalFaultError(f"innovation variance {s!r} is not positive")
    k = pc / s
    e_minus = v_measured - model.output(fs.x, i)
    x = fs.x + k * e_minus
    x[0] = min(max(x[0], 0.0), 1.0)
    _check_soc(x[0])
    ikc = np.eye(3) - np.outer(k, c)
    p = ikc @ fs.p @ ikc.T + r * np.outer(k, k)
    p = _flush_collapsed(0.5 * (p + p.T))
    e_plus = v_measured - model.output(x, i)
    cpc_term = float(c @ p @ c)
    new = FilterState(x, p, fs.sigma, fs.sigma2)
    return new, StepRecord(float(e_minus), float(e_plus), k, cpc_term, cpc_minus)


class WindowStats:
    """Fixed-capacity circular buffers of per-step residual summands.

    Channel a holds squared innovations e-^2; channel b holds e+^2 + C P+ C^T.
    Each channel is a list of Python floats with a float running sum, which
    gives O(1) window means. A push subtracts the evicted slot (0.0 until the
    ring is full), stores and adds the new summand; each time the head wraps
    to 0 the ring is full and both sums are recomputed exactly from it, so
    the drift of the subtractions never outlives one window. The means are
    those of the ring's `capacity` slots, which start at 0.0: until the ring
    is full, each slot not yet pushed counts as a 0.0 summand. The adaptation
    reads them only once the window is full.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("window capacity must be >= 1")
        self.capacity = capacity
        self._ring_a = [0.0] * capacity
        self._ring_b = [0.0] * capacity
        self._head = 0
        self._sum_a = 0.0
        self._sum_b = 0.0

    def push(self, e_minus_sq: float, e_plus_term: float) -> None:
        head = self._head
        self._sum_a -= self._ring_a[head]
        self._sum_b -= self._ring_b[head]
        self._ring_a[head] = e_minus_sq
        self._ring_b[head] = e_plus_term
        self._sum_a += e_minus_sq
        self._sum_b += e_plus_term
        head += 1
        if head == self.capacity:
            head = 0
            self._sum_a = _window_sum(self._ring_a)
            self._sum_b = _window_sum(self._ring_b)
        self._head = head

    def push_record(self, rec: StepRecord) -> None:
        self.push(rec.e_minus * rec.e_minus, rec.e_plus * rec.e_plus + rec.cpc_term)

    @property
    def mean_innovation_sq(self) -> float:
        return self._sum_a / self.capacity

    @property
    def mean_posterior_term(self) -> float:
        return self._sum_b / self.capacity


def mle_adapt(ws: WindowStats, last: StepRecord, fs: FilterState) -> FilterState:
    """Maximum-likelihood covariance update from windowed residuals.

    Sigma becomes the current gain sandwiching the window mean of squared
    innovations (rank-1 PSD), its collapsed RC rows flushed; the measurement
    variance becomes the window mean of e+^2 + C P+ C^T.
    """
    sigma = _flush_collapsed(np.outer(last.k_gain, last.k_gain) * ws.mean_innovation_sq)
    return FilterState(fs.x, fs.p, sigma, float(ws.mean_posterior_term))


def cm_adapt(ws: WindowStats, last: StepRecord, fs: FilterState) -> FilterState:
    """Innovation-based covariance matching.

    The window mean of squared innovations estimates C P- C^T + sigma^2;
    subtracting the model term gives the measurement variance (floored to
    stay positive), and the same innovation covariance mapped through the
    gain gives the process noise (collapsed RC rows flushed).
    """
    c_hat = ws.mean_innovation_sq
    sigma2 = max(c_hat - last.cpc_minus, CM_VARIANCE_FLOOR)
    sigma = _flush_collapsed(np.outer(last.k_gain, last.k_gain) * c_hat)
    return FilterState(fs.x, fs.p, sigma, float(sigma2))


def _sym3(a00: float, a01: float, a02: float, a11: float, a12: float, a22: float) -> np.ndarray:
    return np.array([[a00, a01, a02], [a01, a11, a12], [a02, a12, a22]])


def estimator_run(
    kind: str,
    params: EcmParams,
    profile: Profile,
    z0: float,
    window: int = DEFAULT_WINDOW,
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
    residual window, with r = max(sigma2, R_FLOOR) updated only where sigma2
    changes. C P+ C^T, the posterior residual e+ and window channel b are
    computed only where something reads them: aekf-mle's sigma2 and
    `record_hook`. The step functions remain the reference it is tested
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
        # coulomb_count_step inlined, without its dt > 0 check, which Profile
        # already guarantees. The compare-and-assign clamp leaves NaN and
        # -0.0 as min(max(z, 0), 1) does.
        z = float(z0)
        q_max = params.q_max
        for k, (dt, i) in enumerate(_rows(dts, profile.i)):
            z = z + dt * i / q_max
            if z < 0.0:
                z = 0.0
            elif z > 1.0:
                z = 1.0
            out[k] = z
        return out

    if not profile.has_voltage:
        raise ValueError(f"estimator {kind!r} requires a voltage column")
    adaptive = kind in ADAPTIVE_KINDS and window < n  # adapts from step `window`
    mle = adaptive and kind == "aekf-mle"
    posterior = mle or record_hook is not None  # C P+ C^T and e+ are read

    # OCV(z) = vals[j] + slopes[j] * (z - grid[j]) on segment j, as np.interp
    # evaluates it; ocv_derivative takes the right segment at a node and the
    # last one at z = 1. The current segment [lo, hi) is carried from lookup
    # to lookup and searched for again only when z leaves it.
    # segments[j] = (grid[j], grid[j + 1], slopes[j], vals[j]); bisect_right
    # puts z = 1 one past the last segment, on a top segment [1, inf) that
    # carries the last slope and gives slope * 0.0 + vals[-1], the top value
    # exactly.
    grid = params.ocv.soc_grid.tolist()
    vals = params.ocv.ocv_values.tolist()
    slopes = params.ocv.slopes.tolist()
    segments = list(zip(grid, grid[1:], slopes, vals))
    segments.append((1.0, math.inf, slopes[-1], vals[-1]))

    lo = hi = 0.0  # empty: the first lookup searches

    # The residual window of WindowStats, held in locals: channel a holds
    # e-^2, channel b (read by aekf-mle alone) e+^2 + C P+ C^T, with running
    # sums recomputed exactly each time the head wraps to 0.
    ring_a = [0.0] * window if adaptive else None
    ring_b = [0.0] * window if mle else None
    head = 0
    sum_a = sum_b = 0.0

    r0, q_max = params.r0, params.q_max
    tiny, r_floor = COLLAPSE_THRESHOLD, R_FLOOR

    # P and Sigma are held as their six unique entries, so they are symmetric
    # by construction (the step functions symmetrise after every update).
    x0, x1, x2 = float(z0), 0.0, 0.0
    p00, p11, p22 = DEFAULT_P0
    s00, s11, s22 = DEFAULT_SIGMA
    p01 = p02 = p12 = s01 = s02 = s12 = 0.0
    sigma2 = DEFAULT_SIGMA2
    r = r_floor if sigma2 < r_floor else sigma2  # max(sigma2, R_FLOOR)

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
            lo, hi, d, v_lo = segments[bisect_right(grid, x0) - 1]
        ocv = d * (x0 - lo) + v_lo
        pc0 = p00 * d + p01 + p02
        pc1 = p01 * d + p11 + p12
        pc2 = p02 * d + p12 + p22
        cpc_minus = d * pc0 + pc1 + pc2
        s = cpc_minus + r
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

        # Joseph form P+ = M P M^T + r K K^T with M = I - K C, expanded
        # through the structure of M: Q = M P = P - K (P C)^T, and
        # Q M^T = Q - (Q C^T) K^T.
        q00, q01, q02 = p00 - k0 * pc0, p01 - k0 * pc1, p02 - k0 * pc2
        q10, q11, q12 = p01 - k1 * pc0, p11 - k1 * pc1, p12 - k1 * pc2
        q20, q21, q22 = p02 - k2 * pc0, p12 - k2 * pc1, p22 - k2 * pc2
        qc0 = q00 * d + q01 + q02
        qc1 = q10 * d + q11 + q12
        qc2 = q20 * d + q21 + q22
        rk0, rk1, rk2 = r * k0, r * k1, r * k2
        p00 = q00 - qc0 * k0 + rk0 * k0
        p01 = q01 - qc0 * k1 + rk0 * k1
        p02 = q02 - qc0 * k2 + rk0 * k2
        p11 = q11 - qc1 * k1 + rk1 * k1
        p12 = q12 - qc1 * k2 + rk1 * k2
        p22 = q22 - qc2 * k2 + rk2 * k2
        # _flush_collapsed(P), tested so that a normal positive variance, the
        # common case, costs one comparison.
        if p11 < tiny and -tiny < p11:
            p01 = p11 = p12 = 0.0
        if p22 < tiny and -tiny < p22:
            p02 = p12 = p22 = 0.0

        if not 0.0 <= x0 <= 1.0:  # _check_soc: NaN from this step's predict or correct
            raise NumericalFaultError(f"SoC estimate {x0!r} is not finite")
        if posterior:
            # C P+ C^T with the prior's slope d, then e+ at the posterior SoC,
            # whose lookup replaces d.
            cp0 = d * p00 + p01 + p02
            cp1 = d * p01 + p11 + p12
            cp2 = d * p02 + p12 + p22
            cpc_term = d * cp0 + cp1 + cp2
            if not lo <= x0 < hi:
                lo, hi, d, v_lo = segments[bisect_right(grid, x0) - 1]
            ocv = d * (x0 - lo) + v_lo
            e_plus = v - (ocv + r0 * i + x1 + x2)

        if adaptive:
            # WindowStats.push: the evicted slot holds 0.0 until the ring is full.
            e_minus_sq = e_minus * e_minus
            sum_a -= ring_a[head]
            ring_a[head] = e_minus_sq
            sum_a += e_minus_sq
            if mle:
                e_plus_term = e_plus * e_plus + cpc_term
                sum_b -= ring_b[head]
                ring_b[head] = e_plus_term
                sum_b += e_plus_term
            head += 1
            if head == window:
                head = 0
                sum_a = _window_sum(ring_a)
                if mle:
                    sum_b = _window_sum(ring_b)
            if k >= window:
                # The ring is full. Sigma <- K K^T c_hat (rank one); sigma2
                # from the window.
                c_hat = sum_a / window
                if mle:
                    sigma2 = sum_b / window
                else:
                    sigma2 = c_hat - cpc_minus
                    if sigma2 < CM_VARIANCE_FLOOR:
                        sigma2 = CM_VARIANCE_FLOOR
                r = r_floor if sigma2 < r_floor else sigma2
                s00, s01, s02 = k0 * k0 * c_hat, k0 * k1 * c_hat, k0 * k2 * c_hat
                s11, s12, s22 = k1 * k1 * c_hat, k1 * k2 * c_hat, k2 * k2 * c_hat
                if s11 < tiny and -tiny < s11:  # _flush_collapsed(Sigma)
                    s01 = s11 = s12 = 0.0
                if s22 < tiny and -tiny < s22:
                    s02 = s12 = s22 = 0.0

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
