"""Input generation for the three workloads.

Every input is made from the workload seed and written with the benchmark's
own writers (shortest round-trip `repr` of each double), so the program only
ever sees the generated files and set-up time does not depend on the
program's own writers. The truth signals come from the program's exact
simulator, which the simulate gate checks bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from socest.bench import make_drive_profile
from socest.ecm import CellState, EcmParams, OcvTable, Profile, simulate_arrays
from socest.fitting import make_incremental_current_profile

DRIVE_SEED = 1  # the drive cycle is fixed; the workload seed varies noise and jitter
DRIVE_SAMPLES = 36_000  # 10 h at 1 s
# Peak drive current. At 3 A (0.6 C) the 10 h cycle keeps the cell inside
# 0.27 < z < 0.90, so no estimator spends hours clamped at an empty cell.
DRIVE_MAX_CURRENT = 3.0
Z0_TRUE = 0.9
INIT_SOC = 0.8  # estimator initial SoC: a 10 % initialisation error
JITTER = 0.01  # logger timestamp jitter, s (dt = 1 s +- 10 ms)
DRIVE_NOISE_V = 0.01  # voltage noise sigma on the estimate input, V
HPPC_NOISE_V = 0.001  # voltage noise sigma on the pulse test, V
OCV_SWEEP_NOISE_V = 0.001
OCV_SWEEP_CURRENT = 0.25  # C/20 for the 5 Ah cell, A
HPPC_Z0 = 0.05


def quadratic_ocv(z):
    return 3.2 + 0.7 * z + 0.3 * z * z


def make_cell() -> EcmParams:
    """The cell of the repository's test fixtures (tau1 30 s, tau2 1000 s)."""
    return EcmParams(
        r0=0.05, r1=0.015, c1=2000.0, r2=0.025, c2=40000.0, q_max=18000.0,
        ocv=OcvTable.from_function(quadratic_ocv, spacing=0.02),
    )


def write_csv(path: Path, header: str, *columns) -> None:
    rows = zip(*(np.asarray(c, dtype=float).tolist() for c in columns))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def write_ocv_doc(fh, table: OcvTable) -> None:
    fh.write("ocv:\n")
    for z, v in zip(table.soc_grid.tolist(), table.ocv_values.tolist()):
        fh.write(f"  {z!r}: {v!r}\n")


def write_params_doc(path: Path, cell: EcmParams) -> None:
    with open(path, "w") as fh:
        for name in ("r0", "r1", "c1", "r2", "c2", "q_max"):
            fh.write(f"{name}: {getattr(cell, name)!r}\n")
        write_ocv_doc(fh, cell.ocv)


def write_ocv_table_doc(path: Path, table: OcvTable) -> None:
    with open(path, "w") as fh:
        write_ocv_doc(fh, table)


def drive_current() -> Profile:
    return make_drive_profile(
        float(DRIVE_SAMPLES), seed=DRIVE_SEED, max_current=DRIVE_MAX_CURRENT
    )


@dataclass(frozen=True)
class EstimateInputs:
    params: Path
    measured: Path  # t,i,v: jittered timestamps, noisy voltage
    clean: Path  # t,i,v: uniform 1 s timestamps, noise-free voltage
    profile: Profile  # the measured profile as written
    clean_profile: Profile


def make_estimate_inputs(workdir: Path, seed: int, cell: EcmParams) -> EstimateInputs:
    rng = np.random.default_rng([seed, 10])
    drive = drive_current()
    dt = 1.0 + rng.uniform(-JITTER, JITTER, DRIVE_SAMPLES)
    jittered = Profile(np.cumsum(dt), drive.i)
    _, _, _, v, _ = simulate_arrays(cell, CellState(z=Z0_TRUE), jittered)
    measured = jittered.with_signals(v=v + rng.normal(0.0, DRIVE_NOISE_V, v.size))
    # Synthetic data as a user would make it: the drive simulated on its own
    # uniform clock, without noise. It does not depend on the seed.
    _, _, _, v_clean, _ = simulate_arrays(cell, CellState(z=Z0_TRUE), drive)
    clean = drive.with_signals(v=v_clean)
    paths = EstimateInputs(
        workdir / "cell.yaml", workdir / "drive10h.csv", workdir / "drive10h-clean.csv",
        measured, clean,
    )
    write_params_doc(paths.params, cell)
    write_csv(paths.measured, "t,i,v", measured.t, measured.i, measured.v)
    write_csv(paths.clean, "t,i,v", clean.t, clean.i, clean.v)
    return paths


@dataclass(frozen=True)
class CharacterizeInputs:
    params: Path
    ocv: Path
    charge: Path
    discharge: Path
    hppc: Path
    drive: Path
    drive_profile: Profile


def make_ocv_sweep(cell: EcmParams, rng, charging: bool, dt: float = 1.0) -> Profile:
    """C/20 sweep over the full SoC range, led by one rest sample so the
    integrated SoC starts at exactly 0 (charge) or 1 (discharge)."""
    n = round(cell.q_max / (OCV_SWEEP_CURRENT * dt))
    current = np.full(n + 1, OCV_SWEEP_CURRENT if charging else -OCV_SWEEP_CURRENT)
    current[0] = 0.0
    profile = Profile.uniform(current, dt=dt)
    z0 = 0.0 if charging else 1.0
    _, _, _, v, _ = simulate_arrays(cell, CellState(z=z0), profile)
    return profile.with_signals(v=v + rng.normal(0.0, OCV_SWEEP_NOISE_V, v.size))


def make_pulse_profile(
    cell: EcmParams, rng, n_pulses: int = 9, rest: float = 3600.0
) -> Profile:
    """HPPC-style test from z = 0.05: 5 A charge pulses of 360 s, each
    followed by a rest."""
    profile = make_incremental_current_profile(5.0, 360.0, rest, n_pulses)
    _, _, _, v, _ = simulate_arrays(cell, CellState(z=HPPC_Z0), profile)
    return profile.with_signals(v=v + rng.normal(0.0, HPPC_NOISE_V, v.size))


def make_characterize_inputs(
    workdir: Path, seed: int, cell: EcmParams
) -> CharacterizeInputs:
    rng = np.random.default_rng([seed, 20])
    paths = CharacterizeInputs(
        workdir / "cell.yaml", workdir / "ocv.yaml", workdir / "charge.csv",
        workdir / "discharge.csv", workdir / "hppc.csv", workdir / "drive10h-current.csv",
        drive_current(),
    )
    write_params_doc(paths.params, cell)
    write_ocv_table_doc(paths.ocv, cell.ocv)
    for path, charging in ((paths.charge, True), (paths.discharge, False)):
        sweep = make_ocv_sweep(cell, rng, charging)
        write_csv(path, "t,i,v", sweep.t, sweep.i, sweep.v)
    hppc = make_pulse_profile(cell, rng)
    write_csv(paths.hppc, "t,i,v", hppc.t, hppc.i, hppc.v)
    write_csv(paths.drive, "t,i", paths.drive_profile.t, paths.drive_profile.i)
    return paths
