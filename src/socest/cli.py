"""Command-line front end: simulate, fit-ocv, fit-params, estimate, benchmark, sweep-window.

Every subcommand writes a run manifest (JSON) next to its main output so a
result can always be traced back to its inputs, settings and seed. A command
writes all of its outputs or, when it exits 1, none of them.
"""
from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import sys
from contextlib import suppress
from dataclasses import replace
from functools import partial
from pathlib import Path

from . import __version__, bench, fitting, io as soc_io
from .ecm import DEFAULT_INIT_SOC, DEFAULT_OCV_SPACING, CellState, EcmParams, Profile, simulate
from .filters import DEFAULT_WINDOW, ESTIMATOR_KINDS, NumericalFaultError, estimator_run


# Options that name files: the manifest records inputs by digest, not path.
_PATH_OPTIONS = frozenset(
    {"params", "profile", "charge", "discharge", "ocv", "truth", "out", "report"}
)
_INPUT_OPTIONS = _PATH_OPTIONS - {"out", "report"}


def _check_inputs(args) -> None:
    """Refuse an input that is not a regular file (a pipe, `/dev/stdin` fed
    by a pipe, a directory) before anything is read: the manifest's digest
    reads each input again, and a drained pipe would hash as empty. Inputs
    are checked in the order the command reads them, so a missing one is
    named as `open` would name it."""
    for name, path in vars(args).items():
        if name in _INPUT_OPTIONS and path and not stat.S_ISREG(os.stat(path).st_mode):
            raise ValueError(f"{path} is not a regular file")


def _manifest(args) -> dict:
    """The run manifest: every parsed setting except the file paths, the
    SHA-256 of each input file given, and `--seed` if the command has one."""
    settings = vars(args)
    config = {k: v for k, v in settings.items() if k != "func" and k not in _PATH_OPTIONS}
    digests = {
        name: soc_io.file_digest(settings[name])
        for name in _INPUT_OPTIONS if settings.get(name)
    }
    return {
        "version": __version__, "config": config, "master_seed": settings.get("seed"),
        "input_digests": digests,
    }


def _json_writer(doc: dict):
    """`write(path)` of `doc` as indented JSON with sorted keys."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return lambda path: Path(path).write_text(text)


def _write_outputs(args, *outputs, **recorded) -> None:
    """Write each `(path, write)` output, then `<out>.manifest.json` with the
    `recorded` keys added, all or none: `write(tmp)` fills a temporary
    sibling of `path`, and the siblings are moved onto their paths
    (`os.replace`, atomic within a directory) only once every write has
    succeeded. On failure the temporaries are removed, so a command that
    exits 1 leaves no output and no existing file changed. Two outputs
    naming one file are refused before anything is written."""
    manifest = {**_manifest(args), **recorded}
    outputs = (*outputs, (str(args.out) + ".manifest.json", _json_writer(manifest)))
    targets = [os.path.realpath(path) for path, _ in outputs]
    for k, (path, _) in enumerate(outputs):
        if targets[k] in targets[:k]:
            raise ValueError(f"two outputs name the same file: {path}")
    temps = []
    try:
        for path, write in outputs:
            # A directory would fail os.replace after earlier outputs moved.
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
            temps.append(f"{path}.{os.getpid()}.tmp")
            write(temps[-1])
        for (path, _), tmp in zip(outputs, temps):
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in temps:
            with suppress(OSError):
                os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename in temps:  # name the output
            exc.filename = str(outputs[temps.index(exc.filename)][0])
        raise


def _read_profile(args) -> Profile:
    """The `--profile` CSV, its first interval set by `--dt`."""
    return replace(soc_io.read_profile(args.profile), first_dt=args.dt)


def _cmd_simulate(args) -> int:
    params = soc_io.read_params(args.params)
    profile = _read_profile(args)
    initial = CellState(z=args.init_soc)
    trajectory = simulate(params, initial, profile)
    _write_outputs(args, (args.out, partial(soc_io.write_trajectory_csv, profile, trajectory)))
    return 0


def _cmd_fit_ocv(args) -> int:
    # Each sweep becomes its (z, V) curve before the next one is read, so
    # only one Profile is alive at a time.
    charge_curve = fitting.sweep_curve(soc_io.read_profile(args.charge), args.q_max, 0.0)
    discharge_curve = fitting.sweep_curve(soc_io.read_profile(args.discharge), args.q_max, 1.0)
    table = fitting.build_ocv_table(charge_curve, discharge_curve, spacing=args.spacing)
    _write_outputs(args, (args.out, partial(soc_io.write_ocv_table, table)))
    return 0


def _cmd_fit_params(args) -> int:
    profile = _read_profile(args)
    init = EcmParams(
        **dict(zip(fitting.PASSIVE_NAMES, args.init)), q_max=args.q_max,
        ocv=soc_io.read_ocv_table(args.ocv),
    )
    report = fitting.fit_passive_components(profile, init, initial_soc=args.init_soc)
    report_doc = {
        "params": {name: getattr(report.params, name) for name in fitting.PASSIVE_NAMES},
        "final_rss": report.final_rss,
        "iterations": report.iterations,
        "converged": report.converged,
    }
    _write_outputs(
        args,
        (args.out, partial(soc_io.write_params, report.params)),
        (args.report, _json_writer(report_doc)),
    )
    if not report.converged:
        print("warning: fit did not converge", file=sys.stderr)
    return 0


def _cmd_estimate(args) -> int:
    params = soc_io.read_params(args.params)
    profile = _read_profile(args)
    z_true = soc_io.read_truth(args.truth, profile.t) if args.truth else None
    z_est = estimator_run(args.kind, params, profile, args.init_soc, window=args.window)
    _write_outputs(
        args, (args.out, partial(soc_io.write_estimate_csv, profile.t, z_est, z_true=z_true))
    )
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
        base_noise=bench.NoiseSpec(args.current_noise, args.voltage_noise),
        estimators=tuple(args.estimators),
        master_seed=args.seed,
        window=getattr(args, "window", bench.SweepSpec.window),  # sweep-window has no --window
        init_soc_offset=args.init_offset,
        base_param_error=args.base_param_error,
    )
    rows, workers = bench.run_sweep(spec, params, profile, n_jobs=args.jobs)
    _write_outputs(args, (args.out, partial(soc_io.write_bench_csv, rows)), workers=workers)
    return 0


def _add_bench_options(p: argparse.ArgumentParser):
    p.add_argument("--params", required=True, help="cell parameter config")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--trials", type=int, default=bench.SweepSpec.n_trials)
    p.add_argument("--seed", type=int, default=bench.SweepSpec.master_seed, help="master RNG seed")
    p.add_argument("--duration", type=float, default=3600.0, help="drive profile length, s")
    p.add_argument("--dt", type=float, default=Profile.first_dt)
    p.add_argument("--max-current", type=float, default=bench.DEFAULT_MAX_CURRENT,
                   help="drive current cap, A")
    p.add_argument("--current-noise", type=float, default=bench.NoiseSpec.current_noise_var,
                   help="current AWGN variance, A^2")
    p.add_argument("--voltage-noise", type=float, default=bench.NoiseSpec.voltage_noise_var,
                   help="voltage AWGN variance, V^2")
    p.add_argument("--init-offset", type=float, default=bench.SweepSpec.init_soc_offset,
                   help="initial-SoC error fed to estimators")
    p.add_argument("--base-param-error", type=float, default=bench.SweepSpec.base_param_error,
                   help="relative passive-parameter error fed to estimators")
    p.add_argument("--estimators", nargs="+", default=list(ESTIMATOR_KINDS),
                   choices=list(ESTIMATOR_KINDS))
    p.add_argument("--jobs", type=int, default=bench.DEFAULT_JOBS,
                   help="forked trial processes, capped at the distinct trials run and "
                        "the usable CPUs; Linux only")


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
    p.add_argument("--init-soc", type=float, default=DEFAULT_INIT_SOC)
    p.add_argument("--dt", type=float, default=Profile.first_dt, help="first sample's interval, s")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit-ocv", help="build the OCV-SoC table from slow sweeps")
    p.add_argument("--charge", required=True, help="low-current charge profile CSV")
    p.add_argument("--discharge", required=True, help="low-current discharge profile CSV")
    p.add_argument("--q-max", type=float, required=True, help="cell capacity, C")
    p.add_argument("--spacing", type=float, default=DEFAULT_OCV_SPACING)
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
    p.add_argument("--dt", type=float, default=Profile.first_dt, help="first sample's interval, s")
    p.add_argument("--out", required=True, help="fitted parameter config path")
    p.add_argument("--report", required=True, help="fit report JSON path")
    p.set_defaults(func=_cmd_fit_params)

    p = sub.add_parser("estimate", help="run one estimator over a measured profile")
    p.add_argument("--params", required=True)
    p.add_argument("--profile", required=True, help="profile CSV with voltage")
    p.add_argument("--kind", default="aekf-mle", choices=list(ESTIMATOR_KINDS))
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p.add_argument("--init-soc", type=float, default=DEFAULT_INIT_SOC)
    p.add_argument("--dt", type=float, default=Profile.first_dt, help="first sample's interval, s")
    p.add_argument("--truth", default=None,
                   help="optional t,z CSV with the profile's timestamps; adds a z_true column")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("benchmark", help="Monte Carlo sweep over a chosen axis")
    p.add_argument("--axis", required=True, choices=list(bench.SWEEP_AXES))
    p.add_argument("--values", type=float, nargs="+", required=True)
    p.add_argument("--window", type=int, default=bench.SweepSpec.window,
                   help="adaptive window off the window_size axis")
    _add_bench_options(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("sweep-window", help="Monte Carlo sweep over window sizes")
    p.add_argument("--values", type=int, nargs="+", required=True)
    _add_bench_options(p)
    p.set_defaults(func=_cmd_sweep, axis="window_size")

    return parser


def main(argv=None) -> int:
    # Mark OpenSSL's hash module absent, so that `hmac` and `hashlib`, which
    # `numpy.random` imports through `secrets`, take CPython's built-in
    # hashes instead of mapping libcrypto (about 3.5 MB).
    # socest hashes only through `io.file_digest`, which uses the built-in
    # SHA-256 anyway. An already imported `_hashlib` is left in place.
    sys.modules.setdefault("_hashlib", None)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_inputs(args)
        return args.func(args)
    except (
        soc_io.FormatError, fitting.FittingError, NumericalFaultError, ValueError, OSError
    ) as exc:
        print(f"socest: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
