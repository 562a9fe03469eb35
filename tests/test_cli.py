import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import socest
from socest.bench import make_drive_profile
from socest.cli import main
from socest.ecm import CellState, Profile, simulate, simulate_arrays
from socest.filters import estimator_run
from socest.fitting import (
    PASSIVE_NAMES, fit_passive_components, make_incremental_current_profile, predict_voltage,
)
from socest.io import (
    RunManifest, read_ocv_table, read_params, read_profile, write_estimate_csv, write_ocv_table,
    write_params, write_profile, write_trajectory_csv,
)


@pytest.fixture(scope="module")
def params_file(tmp_path_factory, cell):
    path = tmp_path_factory.mktemp("cfg") / "cell.yaml"
    write_params(cell, path)
    return str(path)


@pytest.fixture(scope="module")
def measured_file(tmp_path_factory, cell):
    """Simulated drive with voltage: the input for `estimate`."""
    rng = np.random.default_rng(17)
    profile = Profile.uniform(rng.uniform(-4.0, 4.0, 400))
    _, _, _, v, _ = simulate_arrays(cell, CellState(z=0.8), profile)
    withv = profile.with_signals(v=v + rng.normal(0, 0.003, 400))
    path = tmp_path_factory.mktemp("data") / "drive.csv"
    write_profile(withv, path)
    return str(path)


def read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


class TestSimulate:
    def test_writes_trajectory_and_manifest(self, tmp_path, params_file, cell):
        profile = Profile.uniform(np.full(50, -2.0))
        prof_path = tmp_path / "prof.csv"
        write_profile(profile, prof_path)
        out = tmp_path / "traj.csv"
        rc = main([
            "simulate", "--params", params_file, "--profile", str(prof_path),
            "--out", str(out), "--init-soc", "0.7",
        ])
        assert rc == 0
        lines = read_lines(out)
        assert lines[0] == "t,i,v,z,v_r1,v_r2"
        assert len(lines) == 51
        first_z = float(lines[1].split(",")[3])
        assert first_z == pytest.approx(0.7 - 2.0 / cell.q_max, rel=1e-12)
        manifest = RunManifest.from_json((tmp_path / "traj.csv.manifest.json").read_text())
        assert manifest.config["command"] == "simulate"
        assert set(manifest.input_digests) == {"params", "profile"}

    def test_repeat_runs_byte_identical(self, tmp_path, params_file):
        profile = Profile.uniform(np.sin(np.linspace(0, 6, 80)) * 3.0)
        prof_path = tmp_path / "p.csv"
        write_profile(profile, prof_path)
        args = ["simulate", "--params", params_file, "--profile", str(prof_path)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_init_soc_exits_1_without_output(self, tmp_path, params_file, capsys, bad):
        prof_path = tmp_path / "prof.csv"
        write_profile(Profile.uniform(np.full(5, -1.0)), prof_path)
        out = tmp_path / "traj.csv"
        rc = main([
            "simulate", "--params", params_file, "--profile", str(prof_path),
            "--out", str(out), "--init-soc", bad,
        ])
        assert rc == 1
        assert f"socest: error: initial state must be finite, got z={bad}" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "traj.csv.manifest.json").exists()


class TestFitOcv:
    def test_recovers_table_from_sweeps(self, tmp_path, cell):
        # Slow symmetric charge/discharge sweeps with a small ohmic offset;
        # averaging the two branches should cancel it.
        q_max, i_mag = cell.q_max, 0.5
        n = int(q_max / i_mag) + 1  # leading zero-current sample pins SoC 0
        t = np.arange(1.0, n + 1.0)
        i_chg = np.full(n, i_mag)
        i_chg[0] = 0.0
        z = np.cumsum(i_chg) / q_max
        ocv = 3.2 + 0.7 * z + 0.3 * z**2
        charge = Profile(t, i_chg, ocv + 0.01)
        discharge = Profile(t, -i_chg, ocv[::-1] - 0.01)
        c_path, d_path = tmp_path / "chg.csv", tmp_path / "dis.csv"
        write_profile(charge, c_path)
        write_profile(discharge, d_path)
        out = tmp_path / "ocv.yaml"
        rc = main([
            "fit-ocv", "--charge", str(c_path), "--discharge", str(d_path),
            "--q-max", str(q_max), "--out", str(out),
        ])
        assert rc == 0
        table = read_ocv_table(out)
        mid = 3.2 + 0.7 * 0.5 + 0.3 * 0.25
        k = np.argmin(np.abs(table.soc_grid - 0.5))
        assert table.ocv_values[k] == pytest.approx(mid, abs=2e-3)

    def test_rejects_profile_without_voltage(self, tmp_path, capsys):
        p = Profile.uniform(np.full(10, 0.5))
        path = tmp_path / "nv.csv"
        write_profile(p, path)
        rc = main([
            "fit-ocv", "--charge", str(path), "--discharge", str(path),
            "--q-max", "100", "--out", str(tmp_path / "o.yaml"),
        ])
        assert rc == 1
        assert "voltage" in capsys.readouterr().err


    @pytest.mark.parametrize("q_max, shown", [
        ("0", "0.0"), ("-5", "-5.0"), ("nan", "nan"), ("inf", "inf"),
    ])
    def test_rejects_nonpositive_or_non_finite_q_max(self, tmp_path, capsys, q_max, shown):
        t = np.arange(1.0, 11.0)
        p = Profile(t, np.full(10, 0.5), 3.2 + 0.01 * t)
        path = tmp_path / "sweep.csv"
        write_profile(p, path)
        out = tmp_path / "o.yaml"
        rc = main([
            "fit-ocv", "--charge", str(path), "--discharge", str(path),
            "--q-max", q_max, "--out", str(out),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"socest: error: q_max must be strictly positive, got {shown}\n" == err
        assert not out.exists()

    @pytest.mark.parametrize("spacing", ["0", "-0.5", "nan"])
    def test_rejects_spacing_not_positive_and_finite(self, tmp_path, capsys, spacing):
        t = np.arange(1.0, 11.0)
        charge, discharge = tmp_path / "chg.csv", tmp_path / "dis.csv"
        write_profile(Profile(t, np.full(10, 0.5), 3.2 + 0.01 * t), charge)
        write_profile(Profile(t, np.full(10, -0.5), 3.4 - 0.01 * t), discharge)
        out = tmp_path / "o.yaml"
        rc = main([
            "fit-ocv", "--charge", str(charge), "--discharge", str(discharge),
            "--q-max", "100", "--spacing", spacing, "--out", str(out),
        ])
        assert rc == 1
        shown = f"spacing must be positive and finite, got {float(spacing)!r}"
        assert capsys.readouterr().err == f"socest: error: {shown}\n"
        assert not out.exists()


class TestFitParams:
    def test_end_to_end_recovery(self, tmp_path, cell):
        profile = make_incremental_current_profile(1.0, 360.0, 600.0, 4, dt=1.0)
        v = predict_voltage(cell, profile, CellState(z=0.2))
        prof_path = tmp_path / "pulse.csv"
        write_profile(profile.with_signals(v=v), prof_path)
        ocv_path = tmp_path / "ocv.yaml"
        write_ocv_table(cell.ocv, ocv_path)
        out, report_path = tmp_path / "fit.yaml", tmp_path / "report.json"
        rc = main([
            "fit-params", "--profile", str(prof_path), "--ocv", str(ocv_path),
            "--q-max", str(cell.q_max),
            "--init", str(2 * cell.r0), str(2 * cell.r1), str(2 * cell.r2),
            str(2 * cell.c1), str(2 * cell.c2),
            "--init-soc", "0.2",
            "--out", str(out), "--report", str(report_path),
        ])
        assert rc == 0
        fitted = read_params(out)
        assert fitted.r0 == pytest.approx(cell.r0, rel=1e-4)
        assert fitted.r2 == pytest.approx(cell.r2, rel=1e-3)
        report = json.loads(report_path.read_text())
        assert report["converged"] is True
        assert report["final_rss"] < 1e-9

    @pytest.mark.parametrize("bad", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("slot, name", [(0, "r0"), (4, "c2")])
    def test_invalid_init_exits_1_without_output(
        self, tmp_path, command_args, cell, capsys, slot, name, bad
    ):
        # --init is checked as the components of the start cell.
        init = [str(2 * getattr(cell, k)) for k in PASSIVE_NAMES]
        init[slot] = bad
        assert main(command_args("fit-params", tmp_path / "out") + ["--init", *init]) == 1
        err = capsys.readouterr().err
        assert err == f"socest: error: {name} must be strictly positive, got {float(bad)!r}\n"
        assert list(tmp_path.iterdir()) == []

    def test_out_of_table_rest_voltage_without_init_soc_exits_1(
        self, tmp_path, cell, pulse_files, capsys
    ):
        # The first rest sample reads 9 V against a 3.2-4.2 V table: the
        # initial SoC is not clamped to 1, the fit is refused.
        measured = read_profile(pulse_files[0])
        v = measured.v.copy()
        v[np.nonzero(measured.i == 0.0)[0][0]] = 9.0
        inputs, out = tmp_path / "in", tmp_path / "out"
        inputs.mkdir()
        out.mkdir()
        write_profile(measured.with_signals(v=v), inputs / "pulse.csv")
        init = [str(2 * getattr(cell, k)) for k in PASSIVE_NAMES]
        rc = main([
            "fit-params", "--profile", str(inputs / "pulse.csv"), "--ocv", pulse_files[1],
            "--q-max", str(cell.q_max), "--init", *init,
            "--out", str(out / "fitted.yaml"), "--report", str(out / "fit.json"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            "socest: error: first rest voltage 9.0 V is outside the OCV table's range "
            "[3.2, 4.2] V; pass initial_soc explicitly\n"
        )
        assert list(out.iterdir()) == []


class TestEstimate:
    def test_writes_estimate_and_manifest(self, tmp_path, params_file, measured_file):
        out = tmp_path / "est.csv"
        rc = main([
            "estimate", "--params", params_file, "--profile", measured_file,
            "--kind", "aekf-mle", "--init-soc", "0.7", "--out", str(out),
        ])
        assert rc == 0
        lines = read_lines(out)
        assert lines[0] == "t,z_est"
        assert len(lines) == 401
        z_final = float(lines[-1].split(",")[1])
        assert 0.0 <= z_final <= 1.0
        manifest = RunManifest.from_json((tmp_path / "est.csv.manifest.json").read_text())
        assert manifest.config["kind"] == "aekf-mle"
        assert set(manifest.config) == {"command", "kind", "window", "init_soc", "dt"}

    def test_truth_column_appended(self, tmp_path, params_file, measured_file):
        n = 400
        truth_path = tmp_path / "truth.csv"
        truth_path.write_text(
            "t,z\n" + "".join(f"{k + 1.0},0.8\n" for k in range(n))
        )
        out = tmp_path / "est.csv"
        rc = main([
            "estimate", "--params", params_file, "--profile", measured_file,
            "--truth", str(truth_path), "--out", str(out),
        ])
        assert rc == 0
        lines = read_lines(out)
        assert lines[0] == "t,z_est,z_true"
        assert lines[1].split(",")[2] == "0.80000000000000004"

    def test_truth_length_mismatch_fails(self, tmp_path, params_file, measured_file, capsys):
        truth_path = tmp_path / "truth.csv"
        truth_path.write_text("t,z\n1.0,0.8\n")
        rc = main([
            "estimate", "--params", params_file, "--profile", measured_file,
            "--truth", str(truth_path), "--out", str(tmp_path / "e.csv"),
        ])
        assert rc == 1
        assert "truth" in capsys.readouterr().err

    def test_short_truth_row_fails(self, tmp_path, params_file, measured_file, capsys):
        truth_path = tmp_path / "truth.csv"
        truth_path.write_text("t,z\n1.0\n")
        rc = main([
            "estimate", "--params", params_file, "--profile", measured_file,
            "--truth", str(truth_path), "--out", str(tmp_path / "e.csv"),
        ])
        assert rc == 1
        assert "truth file line 2" in capsys.readouterr().err

    def test_shifted_truth_timestamps_fail(self, tmp_path, params_file, measured_file, capsys):
        truth_path = tmp_path / "truth.csv"
        truth_path.write_text("t,z\n" + "".join(f"{k + 1.5},0.8\n" for k in range(400)))
        rc = main([
            "estimate", "--params", params_file, "--profile", measured_file,
            "--truth", str(truth_path), "--out", str(tmp_path / "e.csv"),
        ])
        assert rc == 1
        assert "truth file line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["abc", "nan"])
    def test_bad_truth_value_names_line(self, tmp_path, params_file, measured_file, capsys, bad):
        rows = [f"{k + 1.0},0.8\n" for k in range(400)]
        rows[6] = f"7.0,{bad}\n"
        truth_path = tmp_path / "truth.csv"
        truth_path.write_text("t,z\n" + "".join(rows))
        rc = main([
            "estimate", "--params", params_file, "--profile", measured_file,
            "--truth", str(truth_path), "--out", str(tmp_path / "e.csv"),
        ])
        assert rc == 1
        assert "truth file line 8" in capsys.readouterr().err

    def test_numerical_fault_exits_1(self, tmp_path, params_file, cell, capsys):
        # AEKF-MLE on noise-free voltage on a uniform clock: its measurement
        # noise estimate collapses towards zero until the innovation variance
        # turns negative, about 1200 steps in.
        profile = make_drive_profile(duration=1500.0, seed=1)
        _, _, _, v, _ = simulate_arrays(cell, CellState(z=0.9), profile)
        path = tmp_path / "clean.csv"
        write_profile(profile.with_signals(v=v), path)
        rc = main([
            "estimate", "--params", params_file, "--profile", str(path),
            "--kind", "aekf-mle", "--init-soc", "0.8", "--out", str(tmp_path / "e.csv"),
        ])
        assert rc == 1
        assert "socest: error: innovation variance" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("kind", ["cc", "ekf", "aekf-mle", "aekf-cm"])
    def test_non_finite_init_soc_exits_1_without_output(
        self, tmp_path, command_args, capsys, kind, bad
    ):
        assert main(command_args(f"estimate-{kind}", tmp_path / "e.csv") + ["--init-soc", bad]) == 1
        err = capsys.readouterr().err
        assert err == f"socest: error: initial SoC must be finite, got {float(bad)!r}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("window", ["-5", "0"])
    @pytest.mark.parametrize("kind", ["cc", "ekf", "aekf-mle", "aekf-cm"])
    def test_window_below_one_exits_1_without_output(
        self, tmp_path, command_args, capsys, kind, window
    ):
        argv = command_args(f"estimate-{kind}", tmp_path / "e.csv") + ["--window", window]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"socest: error: window must be >= 1, got {window}\n"
        assert list(tmp_path.iterdir()) == []

    def test_missing_voltage_column_fails(self, tmp_path, params_file, capsys):
        p = Profile.uniform(np.zeros(10))
        path = tmp_path / "nv.csv"
        write_profile(p, path)
        rc = main([
            "estimate", "--params", params_file, "--profile", str(path),
            "--out", str(tmp_path / "e.csv"),
        ])
        assert rc == 1
        assert "voltage" in capsys.readouterr().err


class TestSweeps:
    def test_benchmark_writes_rows_and_seeded_manifest(self, tmp_path, params_file):
        out = tmp_path / "bench.csv"
        rc = main([
            "benchmark", "--axis", "parameter_error", "--values", "0.0", "0.2",
            "--params", params_file, "--out", str(out),
            "--trials", "2", "--duration", "600", "--seed", "42",
            "--estimators", "cc", "ekf",
        ])
        assert rc == 0
        lines = read_lines(out)
        assert lines[0] == "axis_value,estimator,mae_mean,ci_lo,ci_hi"
        assert len(lines) == 5  # 2 axis values x 2 estimators
        manifest = RunManifest.from_json((tmp_path / "bench.csv.manifest.json").read_text())
        assert manifest.master_seed == 42
        assert manifest.config["command"] == "benchmark"
        assert manifest.config["axis"] == "parameter_error"

    def test_sweep_window_repeatable(self, tmp_path, params_file):
        args = [
            "sweep-window", "--values", "16", "64",
            "--params", params_file, "--trials", "2", "--duration", "600",
            "--estimators", "aekf-mle",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_manifest_records_max_current(self, tmp_path, params_file):
        args = [
            "sweep-window", "--values", "16",
            "--params", params_file, "--trials", "1", "--duration", "300",
            "--estimators", "cc",
        ]
        configs = []
        for cap in ("5", "10"):
            out = tmp_path / f"w{cap}.csv"
            assert main(args + ["--max-current", cap, "--out", str(out)]) == 0
            text = (tmp_path / f"w{cap}.csv.manifest.json").read_text()
            configs.append(RunManifest.from_json(text).config)
        assert [c["max_current"] for c in configs] == [5.0, 10.0]
        assert configs[0]["command"] == "sweep-window"
        assert configs[0]["axis"] == "window_size"
        assert "window" not in configs[0]

    def test_sweep_window_rejects_window_option(self, tmp_path, params_file):
        with pytest.raises(SystemExit) as exc:
            main([
                "sweep-window", "--values", "16", "--window", "8",
                "--params", params_file, "--out", str(tmp_path / "w.csv"),
            ])
        assert exc.value.code == 2

    def test_non_integer_window_value_is_an_error(self, tmp_path, params_file, capsys):
        out = tmp_path / "bench.csv"
        args = [
            "benchmark", "--axis", "window_size", "--params", params_file,
            "--out", str(out), "--trials", "1", "--duration", "300",
            "--estimators", "aekf-mle",
        ]
        assert main(args + ["--values", "16.9"]) == 1
        assert capsys.readouterr().err.startswith("socest: error:")
        assert not out.exists()
        assert main(args + ["--values", "16"]) == 0
        assert read_lines(out)[1].startswith("16,aekf-mle,")

    @pytest.mark.parametrize("argv, shown", [
        (["sweep-window", "--values", "0"], "window sizes must be integers >= 1, got 0"),
        (["benchmark", "--axis", "noise_power", "--values", "0.01", "--window", "0",
          "--estimators", "cc"], "window must be >= 1, got 0"),
    ], ids=["sweep-window", "benchmark"])
    def test_window_below_one_exits_1_without_output(
        self, tmp_path, params_file, capsys, argv, shown
    ):
        rc = main(argv + [
            "--params", params_file, "--out", str(tmp_path / "w.csv"),
            "--trials", "1", "--duration", "300",
        ])
        assert rc == 1
        assert capsys.readouterr().err == f"socest: error: {shown}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_fewer_than_one_job_is_an_error(self, tmp_path, params_file, capsys, jobs):
        out = tmp_path / "w.csv"
        rc = main([
            "sweep-window", "--values", "16", "--params", params_file,
            "--out", str(out), "--trials", "1", "--duration", "300",
            "--estimators", "cc", "--jobs", jobs,
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("socest: error: n_jobs must be >= 1")
        assert not out.exists()
        assert not (tmp_path / "w.csv.manifest.json").exists()


class TestErrorHandling:
    def test_missing_file_exits_1(self, tmp_path, params_file, capsys):
        rc = main([
            "simulate", "--params", params_file, "--profile",
            str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_profile_exits_1(self, tmp_path, params_file, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,i\n1,a\n")
        rc = main([
            "simulate", "--params", params_file, "--profile", str(bad),
            "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 1
        assert "line 2" in capsys.readouterr().err

    def test_malformed_yaml_exits_1_without_traceback(self, tmp_path, measured_file):
        bad = tmp_path / "bad.yaml"
        bad.write_text("r1: [0.1\n")
        env = dict(os.environ, PYTHONPATH=str(Path(socest.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "socest.cli", "estimate", "--params", str(bad),
             "--profile", measured_file, "--out", str(tmp_path / "o.csv")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("socest: error: params document is not valid YAML")

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--kind", "bogus"])
        assert exc.value.code == 2

    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


@pytest.fixture(scope="module")
def pulse_files(tmp_path_factory, cell):
    """A pulse test that starts on a 1 A pulse, with its voltage, and the
    cell's OCV table: the inputs for `fit-params`."""
    profile = make_incremental_current_profile(1.0, 120.0, 240.0, 2)
    measured = profile.with_signals(v=predict_voltage(cell, profile, CellState(z=0.2)))
    root = tmp_path_factory.mktemp("pulse")
    write_profile(measured, root / "pulse.csv")
    write_ocv_table(cell.ocv, root / "ocv.yaml")
    return str(root / "pulse.csv"), str(root / "ocv.yaml")


@pytest.fixture
def command_args(cell, params_file, measured_file, pulse_files):
    """argv of one command, writing its main output to `out`."""

    def args(command, out):
        if command == "simulate":
            return ["simulate", "--params", params_file, "--profile", measured_file,
                    "--out", str(out)]
        if command.startswith("estimate-"):
            return ["estimate", "--params", params_file, "--profile", measured_file,
                    "--kind", command.removeprefix("estimate-"), "--out", str(out)]
        if command == "fit-params":
            init = [str(2 * getattr(cell, k)) for k in PASSIVE_NAMES]
            return ["fit-params", "--profile", pulse_files[0], "--ocv", pulse_files[1],
                    "--q-max", str(cell.q_max), "--init", *init, "--init-soc", "0.2",
                    "--out", str(out), "--report", str(out) + ".report.json"]
        axis = ["--axis", "window_size"] if command == "benchmark" else []
        return [command, *axis, "--values", "16", "64", "--params", params_file,
                "--trials", "3", "--duration", "400", "--estimators", "cc", "aekf-mle",
                "--out", str(out)]

    return args


def write_library_output(command, params_file, measured_file, pulse_files, first_dt, out):
    """What `command` writes at `--dt first_dt`, computed with the library
    on a profile whose first interval is `first_dt`."""
    if command == "fit-params":
        read = read_profile(pulse_files[0])
        profile = Profile(read.t, read.i, read.v, first_dt=first_dt)
        cell = read_params(params_file)
        init = replace(
            cell, ocv=read_ocv_table(pulse_files[1]),
            **{k: 2 * getattr(cell, k) for k in PASSIVE_NAMES},
        )
        report = fit_passive_components(profile, init, initial_soc=0.2)
        write_params(report.params, out)
        return
    read = read_profile(measured_file)
    profile = Profile(read.t, read.i, read.v, first_dt=first_dt)
    params = read_params(params_file)
    if command == "simulate":
        write_trajectory_csv(profile, simulate(params, CellState(z=0.5), profile), out)
    else:
        kind = command.removeprefix("estimate-")
        z = estimator_run(kind, params, profile, 0.5, window=128)
        write_estimate_csv(profile.t, z, out)


@pytest.mark.parametrize("bad", ["1.5", "-0.5"])
@pytest.mark.parametrize("command", [
    "simulate", "estimate-cc", "estimate-ekf", "estimate-aekf-mle", "estimate-aekf-cm",
    "fit-params",
])
def test_init_soc_outside_unit_interval_exits_1_without_output(
    tmp_path, command_args, capsys, command, bad
):
    assert main(command_args(command, tmp_path / "out") + ["--init-soc", bad]) == 1
    err = capsys.readouterr().err
    assert err == f"socest: error: initial SoC must be in [0, 1], got {float(bad)!r}\n"
    assert list(tmp_path.iterdir()) == []


class TestDt:
    """`--dt` is the interval of the first sample of the profile a command
    reads, and the sampling interval of the drive a sweep generates."""

    @pytest.mark.parametrize("bad", ["inf", "nan", "0", "-1"])
    @pytest.mark.parametrize("command", [
        "simulate", "estimate-cc", "estimate-ekf", "estimate-aekf-mle", "estimate-aekf-cm",
        "fit-params",
    ])
    def test_first_interval_not_positive_and_finite_exits_1_without_output(
        self, tmp_path, command_args, capsys, command, bad
    ):
        assert main(command_args(command, tmp_path / "out") + ["--dt", bad]) == 1
        err = capsys.readouterr().err
        assert err == f"socest: error: first_dt must be positive and finite, got {float(bad)!r}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("option, value, shown", [
        ("--dt", "0", "dt must be positive and finite, got 0.0"),
        ("--dt", "-1", "dt must be positive and finite, got -1.0"),
        ("--dt", "inf", "dt must be positive and finite, got inf"),
        ("--duration", "inf", "duration must be finite, got inf"),
        ("--duration", "nan", "duration must be finite, got nan"),
        ("--max-current", "nan", "max_current must be nonnegative and finite, got nan"),
        ("--max-current", "-1", "max_current must be nonnegative and finite, got -1.0"),
        ("--init-offset", "nan", "init_soc_offset must be finite, got nan"),
        ("--init-offset", "inf", "init_soc_offset must be finite, got inf"),
        ("--current-noise", "nan", "current_noise_var must be nonnegative and finite, got nan"),
        ("--current-noise", "-1", "current_noise_var must be nonnegative and finite, got -1.0"),
        ("--voltage-noise", "inf", "voltage_noise_var must be nonnegative and finite, got inf"),
        ("--base-param-error", "nan", "relative_error must be finite and > -1, got nan"),
        ("--base-param-error", "-1", "relative_error must be finite and > -1, got -1.0"),
    ])
    def test_drive_settings_checked_without_traceback(
        self, tmp_path, command_args, capsys, option, value, shown
    ):
        assert main(command_args("sweep-window", tmp_path / "w.csv") + [option, value]) == 1
        err = capsys.readouterr().err
        assert err == f"socest: error: {shown}\n"
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [
        "simulate", "estimate-ekf", "estimate-aekf-mle", "fit-params", "sweep-window", "benchmark",
    ])
    def test_dt_reaches_the_output(
        self, tmp_path, command_args, params_file, measured_file, pulse_files, command
    ):
        reference = tmp_path / "reference"
        if command in ("sweep-window", "benchmark"):
            # The drive is sampled every --dt s; a pool of two processes
            # writes what one writes.
            dt = "2"
            assert main(command_args(command, reference) + ["--dt", dt, "--jobs", "2"]) == 0
        else:
            # The profile's clock starts at 1 s; --dt replaces only the
            # first interval, as first_dt does in the library.
            dt = "2.5"
            write_library_output(
                command, params_file, measured_file, pulse_files, float(dt), reference
            )
        out, out_1 = tmp_path / "dt", tmp_path / "dt1"
        assert main(command_args(command, out) + ["--dt", dt]) == 0
        assert main(command_args(command, out_1) + ["--dt", "1"]) == 0
        assert out.read_bytes() == reference.read_bytes()
        assert out.read_bytes() != out_1.read_bytes()
