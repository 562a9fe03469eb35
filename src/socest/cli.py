"""Command-line front end: simulate, fit-ocv, fit-params, estimate, benchmark, sweep-window.

Every subcommand writes a run manifest (JSON) next to its main output so a
result can always be traced back to its inputs, settings and seed.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, bench, fitting, io as soc_io
from .ecm import CellState, EcmParams, Profile, simulate
from .filters import ESTIMATOR_KINDS, NumericalFaultError, estimator_run


# Options that name files: the manifest records inputs by digest, not path.
_PATH_OPTIONS = frozenset(
    {"params", "profile", "charge", "discharge", "ocv", "truth", "out", "report"}
)


def _write_manifest(args):
    """Write `<out>.manifest.json`: every parsed setting except the file
    paths, the SHA-256 of each input file given, and `--seed` if the command
    has one."""
    settings = vars(args)
    config = {k: v for k, v in settings.items() if k != "func" and k not in _PATH_OPTIONS}
    digests = {
        name: soc_io.file_digest(settings[name])
        for name in _PATH_OPTIONS - {"out", "report"} if settings.get(name)
    }
    manifest = soc_io.RunManifest(
        version=__version__, config=config, master_seed=settings.get("seed"),
        input_digests=digests,
    )
    manifest.write(str(args.out) + ".manifest.json")


def _read_profile(args) -> Profile:
    """The `--profile` CSV, its first interval set by `--dt`."""
    return replace(soc_io.read_profile(args.profile), first_dt=args.dt)


def _cmd_simulate(args) -> int:
    params = soc_io.read_params(args.params)
    profile = _read_profile(args)
    initial = CellState(z=args.init_soc)
    trajectory = simulate(params, initial, profile)
    soc_io.write_trajectory_csv(profile, trajectory, args.out)
    _write_manifest(args)
    return 0


def _cmd_fit_ocv(args) -> int:
    charge = soc_io.read_profile(args.charge)
    discharge = soc_io.read_profile(args.discharge)
    sweep = fitting.OcvSweep(
        charge_curve=_profile_to_curve(charge, args.q_max, start_soc=0.0),
        discharge_curve=_profile_to_curve(discharge, args.q_max, start_soc=1.0),
    )
    table = fitting.build_ocv_table(sweep, spacing=args.spacing)
    soc_io.write_ocv_table(table, args.out)
    _write_manifest(args)
    return 0


def _profile_to_curve(profile: Profile, q_max: float, start_soc: float) -> np.ndarray:
    """SoC axis for a low-current sweep, by integrating the current."""
    if not (q_max > 0.0 and math.isfinite(q_max)):
        raise ValueError(f"q_max must be strictly positive, got {q_max!r}")
    if not profile.has_voltage:
        raise soc_io.FormatError("OCV sweep profiles must carry a voltage column")
    dts = profile.dts()
    z = start_soc + np.cumsum(dts * profile.i) / q_max
    return np.column_stack([np.clip(z, 0.0, 1.0), profile.v])


def _cmd_fit_params(args) -> int:
    profile = _read_profile(args)
    init = EcmParams(
        **dict(zip(fitting.PASSIVE_NAMES, args.init)), q_max=args.q_max,
        ocv=soc_io.read_ocv_table(args.ocv),
    )
    report = fitting.fit_passive_components(profile, init, initial_soc=args.init_soc)
    soc_io.write_params(report.params, args.out)
    report_doc = {
        "params": {name: getattr(report.params, name) for name in fitting.PASSIVE_NAMES},
        "final_rss": report.final_rss,
        "iterations": report.iterations,
        "converged": report.converged,
    }
    Path(args.report).write_text(json.dumps(report_doc, indent=2, sort_keys=True) + "\n")
    _write_manifest(args)
    if not report.converged:
        print("warning: fit did not converge", file=sys.stderr)
    return 0


def _cmd_estimate(args) -> int:
    params = soc_io.read_params(args.params)
    profile = _read_profile(args)
    z_true = soc_io.read_truth(args.truth, profile.t) if args.truth else None
    z_est = estimator_run(args.kind, params, profile, args.init_soc, window=args.window)
    soc_io.write_estimate_csv(profile.t, z_est, args.out, z_true=z_true)
    _write_manifest(args)
    return 0


def _cmd_sweep(args) -> int:
    params = soc_io.read_params(args.params)
    profile = bench.make_drive_profile(
        duration=args.duration, dt=args.dt, seed=args.seed,
        max_current=args.max_current,
    )
    spec = bench.SweepSpec(
        axis=args.axis,
        axis_values=tuple(args.values),
        n_trials=args.trials,
        base_noise=bench.NoiseSpec(
            current_noise_var=args.current_noise, voltage_noise_var=args.voltage_noise
        ),
        estimators=tuple(args.estimators),
        master_seed=args.seed,
        window=getattr(args, "window", bench.SweepSpec.window),  # sweep-window has no --window
        init_soc_offset=args.init_offset,
    )
    params_filter = bench.perturb_params(params, args.base_param_error)
    result = bench.run_sweep(
        spec, params, profile, params_filter=params_filter, n_jobs=args.jobs
    )
    soc_io.write_bench_csv(result, args.out)
    _write_manifest(args)
    return 0


def _add_bench_options(p: argparse.ArgumentParser):
    p.add_argument("--params", required=True, help="cell parameter config")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p.add_argument("--duration", type=float, default=3600.0, help="drive profile length, s")
    p.add_argument("--dt", type=float, default=1.0)
    p.add_argument("--max-current", type=float, default=10.0, help="drive current cap, A")
    p.add_argument("--current-noise", type=float, default=1e-2, help="current AWGN variance, A^2")
    p.add_argument("--voltage-noise", type=float, default=1e-2, help="voltage AWGN variance, V^2")
    p.add_argument("--init-offset", type=float, default=-0.1, help="initial-SoC error fed to estimators")
    p.add_argument("--base-param-error", type=float, default=0.0,
                   help="relative passive-parameter error fed to estimators")
    p.add_argument("--estimators", nargs="+", default=list(ESTIMATOR_KINDS),
                   choices=list(ESTIMATOR_KINDS))
    p.add_argument("--jobs", type=int, default=1, help="parallel trial processes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socest",
        description="Battery state-of-charge estimation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"socest {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a cell over a current profile")
    p.add_argument("--params", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--init-soc", type=float, default=0.5)
    p.add_argument("--dt", type=float, default=1.0, help="interval of the first sample, s")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit-ocv", help="build the OCV-SoC table from slow sweeps")
    p.add_argument("--charge", required=True, help="low-current charge profile CSV")
    p.add_argument("--discharge", required=True, help="low-current discharge profile CSV")
    p.add_argument("--q-max", type=float, required=True, help="cell capacity, C")
    p.add_argument("--spacing", type=float, default=0.02)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit_ocv)

    p = sub.add_parser("fit-params", help="fit passive components to a measured profile")
    p.add_argument("--profile", required=True, help="incremental-current test CSV (with voltage)")
    p.add_argument("--ocv", required=True, help="OCV table document")
    p.add_argument("--q-max", type=float, required=True)
    p.add_argument("--init", type=float, nargs=5, required=True,
                   metavar=("R0", "R1", "R2", "C1", "C2"),
                   help="start cell's components, each finite and > 0")
    p.add_argument("--init-soc", type=float, default=None,
                   help="default: read off the OCV table at the first rest voltage, "
                        "which must lie in the table's range")
    p.add_argument("--dt", type=float, default=1.0)
    p.add_argument("--out", required=True, help="fitted parameter config path")
    p.add_argument("--report", required=True, help="fit report JSON path")
    p.set_defaults(func=_cmd_fit_params)

    p = sub.add_parser("estimate", help="run one estimator over a measured profile")
    p.add_argument("--params", required=True)
    p.add_argument("--profile", required=True, help="profile CSV with voltage")
    p.add_argument("--kind", default="aekf-mle", choices=list(ESTIMATOR_KINDS))
    p.add_argument("--window", type=int, default=128)
    p.add_argument("--init-soc", type=float, default=0.5)
    p.add_argument("--dt", type=float, default=1.0)
    p.add_argument("--truth", default=None,
                   help="optional t,z CSV with the profile's timestamps; adds a z_true column")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("benchmark", help="Monte Carlo sweep over a chosen axis")
    p.add_argument("--axis", required=True, choices=list(bench.SWEEP_AXES))
    p.add_argument("--values", type=float, nargs="+", required=True)
    p.add_argument("--window", type=int, default=128,
                   help="adaptive window off the window_size axis")
    _add_bench_options(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("sweep-window", help="Monte Carlo sweep over window sizes")
    p.add_argument("--values", type=int, nargs="+", required=True)
    _add_bench_options(p)
    p.set_defaults(func=_cmd_sweep, axis="window_size")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        soc_io.FormatError, fitting.FittingError, NumericalFaultError, ValueError, OSError
    ) as exc:
        print(f"socest: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
