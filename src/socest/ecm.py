"""Second-order Thevenin cell model: parameter types, exact discrete dynamics,
and the one cell simulator, `simulate_arrays`.

Sign convention: positive current charges the cell (raises SoC); discharge
profiles use negative current.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "OcvTable",
    "EcmParams",
    "CellState",
    "Profile",
    "ocv_lookup",
    "ocv_derivative",
    "ocv_invert",
    "simulate",
    "simulate_arrays",
]

MAX_OCV_NODES = 10**7  # most nodes OcvTable.uniform_grid makes (spacing 1e-7 makes one more)
DEFAULT_OCV_SPACING = 0.02  # SoC step of a sampled or fitted OCV table
DEFAULT_INIT_SOC = 0.5  # initial SoC of the CLI's `simulate` and `estimate`
SCALAR_FIELDS = ("r0", "r1", "c1", "r2", "c2", "q_max")  # EcmParams' numbers, document order


@dataclass(frozen=True)
class OcvTable:
    """Sampled OCV-SoC curve, linearly interpolated at runtime.

    The grid must span [0, 1] and both columns must be finite and strictly
    increasing; monotonicity is what makes the curve invertible (used for
    ground-truth SoC from rest voltages). `slopes[j]` is the slope of
    segment j, computed once here.
    """

    soc_grid: np.ndarray
    ocv_values: np.ndarray
    slopes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grid = np.asarray(self.soc_grid, dtype=float)
        vals = np.asarray(self.ocv_values, dtype=float)
        object.__setattr__(self, "soc_grid", grid)
        object.__setattr__(self, "ocv_values", vals)
        if grid.ndim != 1 or vals.ndim != 1 or grid.size != vals.size:
            raise ValueError("soc_grid and ocv_values must be 1-D and the same length")
        if grid.size < 2:
            raise ValueError("OCV table needs at least 2 nodes")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(vals))):
            raise ValueError("OCV table values must be finite")
        if not (grid[0] == 0.0 and grid[-1] == 1.0):
            raise ValueError("soc_grid must start at 0 and end at 1")
        dz, dv = np.diff(grid), np.diff(vals)
        if np.any(dz <= 0):
            raise ValueError("soc_grid must be strictly increasing")
        if np.any(dv <= 0):
            raise ValueError("ocv_values must be strictly increasing")
        object.__setattr__(self, "slopes", dv / dz)

    def __eq__(self, other):
        """Equal node arrays, compared by value (not by array identity)."""
        if not isinstance(other, OcvTable):
            return NotImplemented
        return np.array_equal(self.soc_grid, other.soc_grid) and np.array_equal(
            self.ocv_values, other.ocv_values
        )

    @staticmethod
    def uniform_grid(spacing: float) -> np.ndarray:
        """SoC nodes 0, spacing, ..., 1; spacing must divide 1 evenly."""
        if not (spacing > 0.0 and math.isfinite(spacing)):
            raise ValueError(f"spacing must be positive and finite, got {spacing!r}")
        if 1.0 / spacing > MAX_OCV_NODES - 0.5:  # round(1 / spacing) + 1 nodes, or inf
            raise ValueError(f"spacing {spacing!r} gives more than {MAX_OCV_NODES} OCV nodes")
        n = round(1.0 / spacing)
        if abs(n * spacing - 1.0) > 1e-9:
            raise ValueError("spacing must divide 1 evenly")
        return np.linspace(0.0, 1.0, n + 1)

    @classmethod
    def from_function(cls, fn, spacing: float = DEFAULT_OCV_SPACING) -> "OcvTable":
        """Sample a callable OCV(z) on a uniform grid."""
        grid = cls.uniform_grid(spacing)
        return cls(grid, np.array([fn(z) for z in grid], dtype=float))


@dataclass(frozen=True)
class EcmParams:
    """Passive components, capacity and OCV curve of one cell.

    r0 is the series (ohmic) resistance; (r1, c1) and (r2, c2) are the two
    polarization RC branches; q_max is the total storable charge in coulomb.
    """

    r0: float
    r1: float
    c1: float
    r2: float
    c2: float
    q_max: float
    ocv: OcvTable

    def __post_init__(self):
        for name in SCALAR_FIELDS:
            value = getattr(self, name)
            if not (value > 0.0) or not math.isfinite(value):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not self.r1 * self.c1 > 0.0 or not self.r2 * self.c2 > 0.0:
            raise ValueError("RC time constants must be strictly positive")

    @property
    def tau1(self) -> float:
        return self.r1 * self.c1

    @property
    def tau2(self) -> float:
        return self.r2 * self.c2


@dataclass(frozen=True)
class CellState:
    """Start state of a simulation: SoC and the two RC branch voltages."""

    z: float
    v_r1: float = 0.0
    v_r2: float = 0.0


@dataclass(frozen=True)
class Profile:
    """Timestamped current (and optionally voltage) samples.

    Each sample k is interpreted as: current t[k]-t[k-1] seconds of applied
    current i[k] ending at t[k], with the terminal voltage v[k] measured at
    t[k]. The first sample has no predecessor, so its interval is
    `first_dt` (finite and > 0).
    """

    t: np.ndarray
    i: np.ndarray
    v: np.ndarray | None = None
    first_dt: float = 1.0

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        i = np.asarray(self.i, dtype=float)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "i", i)
        if self.v is not None:
            v = np.asarray(self.v, dtype=float)
            object.__setattr__(self, "v", v)
        if not (self.first_dt > 0.0 and math.isfinite(self.first_dt)):
            raise ValueError(f"first_dt must be positive and finite, got {self.first_dt!r}")
        if t.ndim != 1 or t.size == 0:
            raise ValueError("profile must contain at least one sample")
        if i.shape != t.shape:
            raise ValueError("current and timestamps must have the same length")
        if self.v is not None and self.v.shape != t.shape:
            raise ValueError("voltage and timestamps must have the same length")
        if not all(np.all(np.isfinite(c)) for c in (t, i, self.v) if c is not None):
            raise ValueError("profile values must be finite")
        if np.any(t[1:] <= t[:-1]):  # no n-float np.diff temporary
            raise ValueError("timestamps must be strictly increasing")

    def __len__(self) -> int:
        return self.t.size

    @property
    def has_voltage(self) -> bool:
        return self.v is not None

    @classmethod
    def uniform(cls, i, dt: float = first_dt) -> "Profile":
        """Build a uniformly sampled profile; timestamps at dt, 2*dt, ...

        Its clock starts at 0, so the first interval is dt too.
        """
        i = np.asarray(i, dtype=float)
        return cls(dt + dt * np.arange(i.size), i, first_dt=dt)

    def dts(self, default_dt: float | None = None) -> np.ndarray:
        """Per-sample intervals; the first is `first_dt` unless `default_dt`
        is given."""
        out = np.empty(self.t.size)
        out[0] = self.first_dt if default_dt is None else default_dt
        np.subtract(self.t[1:], self.t[:-1], out=out[1:])
        return out

    def with_signals(self, i=None, v=None) -> "Profile":
        """Copy with replaced current / voltage (same timestamps and first_dt)."""
        return replace(self, i=self.i if i is None else i, v=self.v if v is None else v)


def ocv_lookup(table: OcvTable, z: float) -> float:
    """Piecewise-linear OCV at SoC z. Rejects z outside [0, 1]."""
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"SoC {z!r} outside [0, 1]")
    return float(np.interp(z, table.soc_grid, table.ocv_values))


def ocv_derivative(table: OcvTable, z: float) -> float:
    """Slope of the interpolation segment containing z.

    At an interior node the right segment's slope is used; at z=1 the last
    segment's.
    """
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"SoC {z!r} outside [0, 1]")
    idx = int(np.searchsorted(table.soc_grid, z, side="right")) - 1
    return float(table.slopes[min(max(idx, 0), table.slopes.size - 1)])


def ocv_invert(table: OcvTable, voltage: float) -> float:
    """SoC whose OCV equals `voltage` (clamped to the table's voltage range)."""
    return float(np.interp(voltage, table.ocv_values, table.soc_grid))


def discretize(params: EcmParams, dt: float) -> tuple[float, float, float, float]:
    """Exact zero-order-hold coefficients of the RC branches over dt.

    Returns (a1, a2, g1, g2): over one step each RC voltage becomes
    a * v + g * i, with a = exp(-dt/tau) and g = R*(1 - a).
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    a1 = math.exp(-dt / (params.r1 * params.c1))
    a2 = math.exp(-dt / (params.r2 * params.c2))
    return a1, a2, params.r1 * (1.0 - a1), params.r2 * (1.0 - a2)


_ROW_CHUNK = 1024  # samples converted to Python floats at a time by _rows


def _rows(*columns: np.ndarray):
    """Yield one tuple of Python floats per sample, converting _ROW_CHUNK at a time.

    Python floats make the scalar arithmetic fast; converting in chunks keeps
    the float objects alive at once to O(_ROW_CHUNK), not O(len(profile)).
    """
    for lo in range(0, columns[0].size, _ROW_CHUNK):
        yield from zip(*(c[lo : lo + _ROW_CHUNK].tolist() for c in columns))


def simulate_arrays(params: EcmParams, initial: CellState, profile: Profile):
    """The cell simulator, the one way to step the 2RC model.

    Step k applies i[k] over its interval: SoC integrates the current over
    q_max and is clamped to [0, 1] (flagged in `saturated`, not raised, so
    noisy Monte Carlo inputs survive), and each RC voltage follows
    `discretize`. Returns (z, v_r1, v_r2, voltage, saturated) arrays, one
    entry per sample, with voltage = OCV(z) + r0*i + v_r1 + v_r2. A
    non-finite initial state, or an initial SoC outside [0, 1], is a
    ValueError.
    """
    if not all(map(math.isfinite, (initial.z, initial.v_r1, initial.v_r2))):
        raise ValueError(
            f"initial state must be finite, got z={initial.z!r}, "
            f"v_r1={initial.v_r1!r}, v_r2={initial.v_r2!r}"
        )
    if not 0.0 <= initial.z <= 1.0:
        raise ValueError(f"initial SoC must be in [0, 1], got {initial.z!r}")
    cur = profile.i
    n = cur.size
    q_max = params.q_max

    z_out = np.empty(n)
    v1_out = np.empty(n)
    v2_out = np.empty(n)
    sat_out = np.zeros(n, dtype=bool)

    z, v1, v2 = initial.z, initial.v_r1, initial.v_r2
    prev_dt = None
    for k, (dt, i) in enumerate(_rows(profile.dts(), cur)):
        if dt != prev_dt:
            a1, a2, g1, g2 = discretize(params, dt)
            prev_dt = dt
        z = z + dt * i / q_max
        if z < 0.0:
            z = 0.0
            sat_out[k] = True
        elif z > 1.0:
            z = 1.0
            sat_out[k] = True
        v1 = a1 * v1 + g1 * i
        v2 = a2 * v2 + g2 * i
        z_out[k] = z
        v1_out[k] = v1
        v2_out[k] = v2

    ocv = np.interp(z_out, params.ocv.soc_grid, params.ocv.ocv_values)
    voltage = ocv + params.r0 * cur + v1_out + v2_out
    return z_out, v1_out, v2_out, voltage, sat_out


def simulate(params: EcmParams, initial: CellState, profile: Profile):
    """`simulate_arrays` in a def of its own: perfbench would trace an alias as `simulate_arrays`."""
    return simulate_arrays(params, initial, profile)
