import inspect
import json
import math
import os
import signal
import subprocess
import sys
from contextlib import suppress
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import socest
from socest import io as soc_io
from socest.bench import (
    MAX_DRIVE_SAMPLES, MAX_SWEEP_TRIALS, NoiseSpec, SweepSpec, make_drive_profile, run_sweep,
    run_trial,
)
from socest.cli import build_parser, main
from socest.ecm import DEFAULT_INIT_SOC, MAX_OCV_NODES, CellState, OcvTable, Profile, simulate, simulate_arrays
from socest.filters import ESTIMATOR_KINDS, NumericalFaultError, estimator_run
from socest.fitting import (
    PASSIVE_NAMES, build_ocv_table, fit_passive_components, make_incremental_current_profile,
    predict_voltage,
)
from socest.io import (
    file_digest, read_ocv_table, read_params, read_profile, write_estimate_csv, write_ocv_table,
    write_params, write_profile, write_trajectory_csv,
)
from test_bench import no_child_left, run_child
from test_filters import overflow_drive
from test_io import MISREAD, traced_peak


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


def write_sweeps(directory, n):
    """A charge and a discharge sweep of n samples at 1 A, each spanning
    SoC 0 to 1 over q_max = n - 1 C: their paths and q_max."""
    t = np.arange(1.0, n + 1.0)
    i = np.ones(n)
    i[0] = 0.0  # the first sample sits at SoC 0 (charge) or 1 (discharge)
    z = np.cumsum(i) / (n - 1)
    charge, discharge = directory / "chg.csv", directory / "dis.csv"
    write_profile(Profile(t, i, 3.21 + z), charge)
    write_profile(Profile(t, -i, 4.19 - z), discharge)
    return str(charge), str(discharge), repr(n - 1.0)


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
        manifest = json.loads((tmp_path / "traj.csv.manifest.json").read_text())
        assert manifest["config"]["command"] == "simulate"
        assert set(manifest["input_digests"]) == {"params", "profile"}

    def test_repeat_runs_byte_identical(self, tmp_path, params_file):
        profile = Profile.uniform(np.sin(np.linspace(0, 6, 80)) * 3.0)
        prof_path = tmp_path / "p.csv"
        write_profile(profile, prof_path)
        args = ["simulate", "--params", params_file, "--profile", str(prof_path)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


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

    def test_holds_one_sweep_profile_at_a_time(self, tmp_path):
        # Each sweep becomes its (z, V) curve before the next one is read,
        # so the peak holds the charge curve and the discharge table while
        # it is parsed: about 2.75 parsed sweep tables (n x 3 floats) here.
        # Reading both sweeps before either curve reads about 4.4.
        n = 30_000
        charge, discharge, q_max = write_sweeps(tmp_path, n)
        argv = [
            "fit-ocv", "--charge", charge, "--discharge", discharge, "--q-max", q_max,
            "--out", str(tmp_path / "ocv.yaml"),
        ]
        assert main(argv) == 0  # untimed: the first run also fills one-off caches
        rc, peak = traced_peak(main, argv)
        assert rc == 0
        assert peak / (n * 3 * 8) <= 3.0


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

    def test_non_finite_start_residual_exits_1_without_output(
        self, tmp_path, cell, pulse_files, capsys
    ):
        # Every residual is finite, but their sum of squares overflows: the
        # report would hold "final_rss": Infinity, which is not JSON.
        measured = read_profile(pulse_files[0])
        inputs, out = tmp_path / "in", tmp_path / "out"
        inputs.mkdir()
        out.mkdir()
        write_profile(measured.with_signals(v=measured.v * 1e154), inputs / "pulse.csv")
        init = [str(2 * getattr(cell, k)) for k in PASSIVE_NAMES]
        rc = main([
            "fit-params", "--profile", str(inputs / "pulse.csv"), "--ocv", pulse_files[1],
            "--q-max", str(cell.q_max), "--init", *init, "--init-soc", "0.2",
            "--out", str(out / "fitted.yaml"), "--report", str(out / "fit.json"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == (
            "socest: error: the start guess's sum of squared voltage residuals is inf, "
            "not finite\n"
        )
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("existing", [None, b"r0: 1.0\n"], ids=["new", "existing"])
    @pytest.mark.parametrize("report, error", [
        ("missing/fit.json", "[Errno 2] No such file or directory"),
        ("fit.json", "[Errno 21] Is a directory"),
    ], ids=["missing-dir", "report-is-dir"])
    def test_failed_report_write_leaves_no_output(
        self, tmp_path, command_args, capsys, existing, report, error
    ):
        # --out is written first; a --report that cannot be written undoes it.
        out = tmp_path / "fitted.yaml"
        if existing is not None:
            out.write_bytes(existing)
        if report == "fit.json":
            (tmp_path / report).mkdir()
        before = sorted(tmp_path.iterdir())
        argv = command_args("fit-params", out)
        argv[argv.index("--report") + 1] = str(tmp_path / report)
        assert main(argv) == 1
        # The message names the output, not the temporary it was written to.
        assert capsys.readouterr().err == f"socest: error: {error}: '{tmp_path / report}'\n"
        assert sorted(tmp_path.iterdir()) == before
        if existing is not None:
            assert out.read_bytes() == existing

    @pytest.mark.parametrize("existing", [None, b"r0: 1.0\n"], ids=["new", "existing"])
    @pytest.mark.parametrize("report", [
        "fitted.yaml", "./fitted.yaml", "fitted.yaml.manifest.json",
    ], ids=["out", "out-respelled", "manifest"])
    def test_report_naming_another_output_is_refused(
        self, tmp_path, command_args, capsys, existing, report
    ):
        # Outputs that share a file would share its temporary: the first
        # os.replace would move it and the second would fail after it.
        out = tmp_path / "fitted.yaml"
        if existing is not None:
            out.write_bytes(existing)
        before = sorted(tmp_path.iterdir())
        argv = command_args("fit-params", out)
        argv[argv.index("--report") + 1] = f"{tmp_path}/{report}"
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"socest: error: two outputs name the same file: {tmp_path}/{report}\n"
        )
        assert sorted(tmp_path.iterdir()) == before
        if existing is not None:
            assert out.read_bytes() == existing


@pytest.mark.parametrize("command", ["estimate-ekf", "fit-params"])
def test_manifest_is_renamed_last(tmp_path, monkeypatch, command_args, command):
    # A command killed between two renames can leave --out new and its
    # manifest missing or stale, so the manifest is the commit record.
    renamed = []
    rename = os.replace
    monkeypatch.setattr(os, "replace", lambda src, dst: renamed.append(dst) or rename(src, dst))
    out = tmp_path / "out"
    assert main(command_args(command, out)) == 0
    outputs = [str(out)] + ([str(out) + ".report.json"] if command == "fit-params" else [])
    assert renamed == outputs + [str(out) + ".manifest.json"]


class TestJsonDocuments:
    """The manifest and the fit report, byte for byte: indented JSON with
    sorted keys and a final newline."""

    @staticmethod
    def text(doc) -> str:
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_estimate_manifest(self, tmp_path, params_file, measured_file):
        truth = tmp_path / "truth.csv"
        truth.write_text("t,z\n" + "".join(f"{k + 1.0},0.8\n" for k in range(400)))
        out = tmp_path / "est.csv"
        assert main([
            "estimate", "--params", params_file, "--profile", measured_file,
            "--truth", str(truth), "--out", str(out),
        ]) == 0
        expected = {
            "version": socest.__version__,
            "config": {
                "command": "estimate", "kind": "aekf-mle", "window": 128, "init_soc": 0.5,
                "dt": 1.0,
            },
            "master_seed": None,
            "input_digests": {
                "params": file_digest(params_file), "profile": file_digest(measured_file),
                "truth": file_digest(truth),
            },
        }
        assert (tmp_path / "est.csv.manifest.json").read_text() == self.text(expected)

    def test_fit_params_manifest_and_report(self, tmp_path, command_args, cell, pulse_files):
        out = tmp_path / "fitted.yaml"
        assert main(command_args("fit-params", out)) == 0
        init = [2 * getattr(cell, k) for k in PASSIVE_NAMES]
        expected = {
            "version": socest.__version__,
            "config": {
                "command": "fit-params", "q_max": cell.q_max, "init": init, "init_soc": 0.2,
                "dt": 1.0,
            },
            "master_seed": None,
            "input_digests": {
                "profile": file_digest(pulse_files[0]), "ocv": file_digest(pulse_files[1]),
            },
        }
        assert (tmp_path / "fitted.yaml.manifest.json").read_text() == self.text(expected)
        start = replace(
            cell, ocv=read_ocv_table(pulse_files[1]), **dict(zip(PASSIVE_NAMES, init))
        )
        report = fit_passive_components(read_profile(pulse_files[0]), start, initial_soc=0.2)
        expected_report = {
            "params": {k: getattr(report.params, k) for k in PASSIVE_NAMES},
            "final_rss": report.final_rss,
            "iterations": report.iterations,
            "converged": report.converged,
        }
        assert Path(str(out) + ".report.json").read_text() == self.text(expected_report)


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
        manifest = json.loads((tmp_path / "est.csv.manifest.json").read_text())
        assert manifest["config"]["kind"] == "aekf-mle"
        assert set(manifest["config"]) == {"command", "kind", "window", "init_soc", "dt"}

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

    def test_numerical_fault_exits_1(self, tmp_path, params_file, measured_file, capsys,
                                     monkeypatch):
        def faulting(*args, **kwargs):
            raise NumericalFaultError("innovation variance -4.3e-21 is not positive")

        monkeypatch.setattr(socest.cli, "estimator_run", faulting)
        rc = main([
            "estimate", "--params", params_file, "--profile", measured_file,
            "--kind", "aekf-mle", "--out", str(tmp_path / "e.csv"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "socest: error: innovation variance -4.3e-21 is not positive\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("options, error", [
        (["--kind", "aekf-mle", "--window", "2"], "residual window sum overflows"),
        (["--kind", "aekf-mle", "--window", "128"], "residual window sum overflows"),
        (["--kind", "aekf-cm"], "residual window sum overflows"),
        (["--kind", "aekf-cm", "--window", "1"], "SoC estimate nan is not finite"),
    ], ids=["mle-w2", "mle-w128", "cm", "cm-w1"])
    def test_overflowing_window_sum_exits_1_without_output(
        self, tmp_path, params_file, capsys, options, error
    ):
        # Finite voltages of +-1e154 V, which the reader accepts: two squared
        # innovations sum past the float range at the window's re-sum. Over a
        # one-sample window e-^2 overflows to inf instead, the next gain is
        # inf / inf = NaN, and so is the SoC.
        inputs, out = tmp_path / "in", tmp_path / "out"
        inputs.mkdir()
        out.mkdir()
        write_profile(overflow_drive(), inputs / "big.csv")
        rc = main(["estimate", "--params", params_file, "--profile", str(inputs / "big.csv"),
                   *options, "--out", str(out / "e.csv")])
        assert rc == 1
        assert capsys.readouterr().err == f"socest: error: {error}\n"
        assert list(out.iterdir()) == []

    def test_noise_free_aekf_mle_exits_0(self, tmp_path, params_file, cell):
        # AEKF-MLE on noise-free voltage on a uniform clock: its window sums
        # fall by tens of decades. While they were kept by subtraction alone,
        # sigma2 turned negative on this drive about 1200 steps in.
        profile = make_drive_profile(duration=1500.0, seed=1)
        _, _, _, v, _ = simulate_arrays(cell, CellState(z=0.9), profile)
        path = tmp_path / "clean.csv"
        write_profile(profile.with_signals(v=v), path)
        out = tmp_path / "e.csv"
        rc = main([
            "estimate", "--params", params_file, "--profile", str(path),
            "--kind", "aekf-mle", "--init-soc", "0.8", "--out", str(out),
        ])
        assert rc == 0
        rows = [line.split(",") for line in read_lines(out)[1:]]
        assert len(rows) == len(profile)
        assert all(math.isfinite(float(z)) for _, z in rows)

    def test_write_error_mid_csv_leaves_no_output(
        self, tmp_path, params_file, measured_file, capsys, monkeypatch
    ):
        def write_half_then_fail(t, z, path, z_true=None):
            Path(path).write_text("t,z_est\n0.0,0.5\n")
            raise OSError("No space left on device")

        monkeypatch.setattr(soc_io, "write_estimate_csv", write_half_then_fail)
        rc = main(["estimate", "--params", params_file, "--profile", measured_file,
                   "--kind", "cc", "--out", str(tmp_path / "est.csv")])
        assert rc == 1
        assert capsys.readouterr().err == "socest: error: No space left on device\n"
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
        manifest = json.loads((tmp_path / "bench.csv.manifest.json").read_text())
        assert manifest["master_seed"] == 42
        assert manifest["config"]["command"] == "benchmark"
        assert manifest["config"]["axis"] == "parameter_error"

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

    @pytest.mark.parametrize("argv, ignoring", [
        (["sweep-window", "--values", "8", "64", "--estimators", "cc", "ekf", "aekf-mle"],
         {"cc", "ekf"}),
        (["benchmark", "--axis", "parameter_error", "--values", "-0.2", "0.2",
          "--estimators", "cc", "ekf"], {"cc"}),
    ], ids=["window_size", "parameter_error"])
    def test_kinds_that_ignore_the_axis_repeat_along_it(
        self, tmp_path, params_file, argv, ignoring
    ):
        # Trial t draws the same noise at every axis value (common random
        # numbers), so a kind that does not read the axis repeats its row:
        # CC and the EKF never read the window, and CC reads no passive
        # component. A kind that reads the axis moves along it.
        out = tmp_path / "crn.csv"
        assert main(argv + [
            "--params", params_file, "--trials", "2", "--duration", "300", "--out", str(out),
        ]) == 0
        stats = {}
        for _, kind, *row in (line.split(",") for line in read_lines(out)[1:]):
            stats.setdefault(kind, []).append(row)
        assert {kind for kind, rows in stats.items() if rows[0] == rows[1]} == ignoring

    def test_noise_free_window_sweep_exits_0(self, tmp_path, params_file):
        # Every trial of AEKF-MLE on noise-free voltage runs to the end, so
        # the sweep writes a finite row per window, and a pool of two writes
        # the same bytes as one process.
        args = [
            "sweep-window", "--values", "4", "16", "64", "128", "256",
            "--voltage-noise", "0", "--current-noise", "0", "--max-current", "3",
            "--duration", "3600", "--trials", "2", "--estimators", "aekf-mle",
            "--params", params_file, "--seed", "1",
        ]
        serial, pooled = tmp_path / "j1.csv", tmp_path / "j2.csv"
        assert main(args + ["--jobs", "1", "--out", str(serial)]) == 0
        assert main(args + ["--jobs", "2", "--out", str(pooled)]) == 0
        assert serial.read_bytes() == pooled.read_bytes()
        rows = [line.split(",") for line in read_lines(serial)[1:]]
        assert [row[:2] for row in rows] == [[w, "aekf-mle"] for w in args[2:7]]
        assert all(math.isfinite(float(x)) for row in rows for x in row[2:])

    def test_overflowing_window_sum_exits_1_without_output(self, tmp_path, params_file, capsys):
        rc = main([
            "sweep-window", "--values", "16", "--voltage-noise", "3e307", "--trials", "1",
            "--duration", "300", "--params", params_file, "--out", str(tmp_path / "w.csv"),
        ])
        assert rc == 1
        assert capsys.readouterr().err == "socest: error: residual window sum overflows\n"
        assert list(tmp_path.iterdir()) == []

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
            configs.append(json.loads(text)["config"])
        assert [c["max_current"] for c in configs] == [5.0, 10.0]
        assert configs[0]["command"] == "sweep-window"
        assert configs[0]["axis"] == "window_size"
        assert "window" not in configs[0]

    def test_drive_sampled_slower_than_a_phase_exits_0(self, tmp_path, params_file):
        # At --dt 700 every 300-600 s phase of the drive is one sample long;
        # it used to be none, and the sweep never returned.
        out = tmp_path / "w.csv"
        run_child(
            "import sys; from socest.cli import main; sys.exit(main(sys.argv[1:]))",
            "sweep-window", "--values", "16", "--dt", "700", "--duration", "7000",
            "--trials", "1", "--params", params_file, "--out", str(out),
        )
        assert len(read_lines(out)) == 5  # the header and one row per estimator
        config = json.loads((tmp_path / "w.csv.manifest.json").read_text())["config"]
        assert config["dt"] == 700.0

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

    def test_manifest_records_worker_count(self, tmp_path, params_file, serial_pool):
        # cc repeats its row along the window axis: its one distinct trial
        # runs in this process, however many jobs are asked for.
        serial_pool.cpus = 2
        args = [
            "sweep-window", "--values", "16", "64", "--params", params_file,
            "--trials", "1", "--duration", "300", "--estimators", "cc",
        ]
        manifests = {}
        for jobs in ("500", "1"):
            assert main(args + ["--jobs", jobs, "--out", str(tmp_path / f"w{jobs}.csv")]) == 0
            manifests[jobs] = json.loads((tmp_path / f"w{jobs}.csv.manifest.json").read_text())
        assert serial_pool.sizes == []
        assert manifests["500"]["workers"] == 1
        assert manifests["1"]["workers"] == 1
        assert set(manifests["1"]) == {
            "version", "config", "master_seed", "input_digests", "workers",
        }
        assert (tmp_path / "w500.csv").read_bytes() == (tmp_path / "w1.csv").read_bytes()

    def test_failing_forked_trial_exits_1_as_serial(
        self, tmp_path, params_file, capsys, monkeypatch
    ):
        # Both workers' trials overflow the residual window; the error shown
        # is the serial sweep's, and no output and no child is left.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        args = [
            "sweep-window", "--values", "16", "--voltage-noise", "3e307", "--trials", "1",
            "--duration", "300", "--params", params_file, "--out", str(tmp_path / "w.csv"),
        ]
        shown = []
        for jobs in ("1", "2"):
            assert main(args + ["--jobs", jobs]) == 1
            shown.append(capsys.readouterr().err)
        assert shown == ["socest: error: residual window sum overflows\n"] * 2
        assert list(tmp_path.iterdir()) == []
        assert no_child_left()

    def test_killed_worker_exits_1(self, tmp_path, params_file, capsys, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        parent, run_trial = os.getpid(), socest.bench.run_trial

        def killed_in_a_child(*args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return run_trial(*args, **kwargs)

        monkeypatch.setattr(socest.bench, "run_trial", killed_in_a_child)
        rc = main([
            "sweep-window", "--values", "16", "--trials", "1", "--duration", "300",
            "--params", params_file, "--out", str(tmp_path / "w.csv"), "--jobs", "2",
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("socest: error: sweep worker ")
        assert list(tmp_path.iterdir()) == []
        assert no_child_left()

    def test_forked_workers_run_no_atexit_handler(self, tmp_path, params_file):
        # A worker leaves by os._exit: a handler registered before the sweep
        # (as perfbench registers its peak report) runs once, in this process.
        code = (
            "import atexit, os, sys\n"
            "from socest.cli import main\n"
            "atexit.register(lambda: open('exits', 'a').write(f'{os.getpid()}\\n'))\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "print(os.getpid())\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        pid = run_child(
            code, "sweep-window", "--values", "16", "--trials", "1", "--duration", "300",
            "--params", params_file, "--out", "w.csv", "--jobs", "2", cwd=tmp_path,
        ).strip()
        assert json.loads((tmp_path / "w.csv.manifest.json").read_text())["workers"] == 2
        assert read_lines(tmp_path / "exits") == [pid]


@pytest.mark.parametrize("argv, shown", [
    (["sweep-window", "--values", "16", "--duration", str(MAX_DRIVE_SAMPLES + 1)],
     f"duration / dt = {MAX_DRIVE_SAMPLES + 1.0!r} exceeds {MAX_DRIVE_SAMPLES} samples"),
    (["benchmark", "--axis", "window_size", "--values", "16", "--duration", "1e12"],
     f"duration / dt = 1000000000000.0 exceeds {MAX_DRIVE_SAMPLES} samples"),
    (["sweep-window", "--values", "16", "128", "--estimators", "cc", "ekf",
      "--trials", str(MAX_SWEEP_TRIALS // 4 + 1)],
     f"{MAX_SWEEP_TRIALS + 4} trials exceed MAX_SWEEP_TRIALS = {MAX_SWEEP_TRIALS}"),
    (["benchmark", "--axis", "noise_power", "--values", "1", "--trials", "1000000000"],
     f"4000000000 trials exceed MAX_SWEEP_TRIALS = {MAX_SWEEP_TRIALS}"),
    (["fit-ocv", "--spacing", repr(1 / MAX_OCV_NODES)],
     f"spacing {1 / MAX_OCV_NODES!r} gives more than {MAX_OCV_NODES} OCV nodes"),
    (["fit-ocv", "--spacing", "5e-324"],  # 1 / spacing overflows to inf
     f"spacing 5e-324 gives more than {MAX_OCV_NODES} OCV nodes"),
], ids=["samples", "samples-1e12", "trials", "trials-1e9", "nodes", "nodes-inf"])
def test_size_above_its_cap_exits_1_before_allocating(
    tmp_path_factory, params_file, capsys, argv, shown
):
    if argv[0] == "fit-ocv":
        charge, discharge, q_max = write_sweeps(tmp_path_factory.mktemp("sweeps"), 101)
        argv = argv + ["--charge", charge, "--discharge", discharge, "--q-max", q_max]
    else:
        argv = argv + ["--params", params_file]
    out = tmp_path_factory.mktemp("out")
    rc, peak = traced_peak(main, argv + ["--out", str(out / "o")])
    assert rc == 1
    assert capsys.readouterr().err == f"socest: error: {shown}\n"
    assert list(out.iterdir()) == []
    assert peak < 2**20


class TestErrorHandling:
    def test_missing_file_exits_1(self, tmp_path, params_file, capsys):
        rc = main([
            "simulate", "--params", params_file, "--profile",
            str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_input_not_a_regular_file_exits_1(self, tmp_path, params_file, capsys, kind):
        profile = tmp_path / "drive.csv"
        if kind == "directory":
            profile.mkdir()
        out = tmp_path / "out"
        out.mkdir()
        rc = main(["estimate", "--params", params_file, "--profile", str(profile),
                   "--out", str(out / "e.csv")])
        assert rc == 1
        assert capsys.readouterr().err == "socest: error: " + (
            f"{profile} is not a regular file\n" if kind == "directory"
            else f"[Errno 2] No such file or directory: '{profile}'\n"
        )
        assert list(out.iterdir()) == []

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    @pytest.mark.parametrize("option", ["--params", "--profile"])
    def test_piped_input_exits_1_without_output(
        self, tmp_path, params_file, measured_file, option
    ):
        # Read through a pipe, the input would be hashed for the manifest
        # by a second read that finds the pipe drained.
        inputs = {"--params": params_file, "--profile": measured_file}
        piped = Path(inputs[option]).read_text()
        inputs[option] = "/dev/stdin"
        env = dict(os.environ, PYTHONPATH=str(Path(socest.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "socest.cli", "estimate", *sum(inputs.items(), ()),
             "--kind", "ekf", "--out", "e.csv"],
            input=piped, capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        assert proc.returncode == 1
        assert proc.stderr == "socest: error: /dev/stdin is not a regular file\n"
        assert list(tmp_path.iterdir()) == []

    def test_ascii_separator_in_profile_exits_1(self, tmp_path, params_file, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,i\n1\x1c,2\n")
        rc = main(["simulate", "--params", params_file, "--profile", str(bad),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "socest: error: profile file line 2: could not convert string to float: '1\\x1c'\n"
        )
        assert sorted(tmp_path.iterdir()) == [bad]

    def test_quoted_header_in_profile_exits_1(self, tmp_path, params_file, capsys):
        # The header is split at "," as a row is: quotes are not CSV quoting.
        bad = tmp_path / "bad.csv"
        bad.write_text('"t","i","v"\n1,2,3.7\n')
        rc = main(["estimate", "--params", params_file, "--profile", str(bad),
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "socest: error: profile file: expected header 't,i,v' or 't,i', "
            "got '\"t\",\"i\",\"v\"'\n"
        )
        assert sorted(tmp_path.iterdir()) == [bad]

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
        assert proc.stderr == "socest: error: params document line 1: field 'r1' is not a number\n"

    @pytest.mark.parametrize("old, new, error", MISREAD.values(), ids=list(MISREAD))
    def test_yaml_misreading_exits_1_without_output(self, tmp_path, measured_file, cell, capsys,
                                                    old, new, error):
        write_params(cell, tmp_path / "cell.yaml")
        text = (tmp_path / "cell.yaml").read_text()
        (tmp_path / "cell.yaml").write_text(text.replace(old, new, 1))
        rc = main(["estimate", "--params", str(tmp_path / "cell.yaml"), "--profile",
                   measured_file, "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert capsys.readouterr() == ("", f"socest: error: params document {error}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cell.yaml"]

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--kind", "bogus"])
        assert exc.value.code == 2

    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


# Runs `socest.cli` as `python -m` would and reports the process's peak RSS
# (VmHWM, KiB) to the file named by its first argument. Without further
# arguments it only imports socest.cli: the floor every command starts from.
_PEAK_LAUNCHER = """\
import atexit, runpy, sys
peak_path = sys.argv.pop(1)
def report_peak():
    with open('/proc/self/status') as status:
        kib = next(line.split()[1] for line in status if line.startswith('VmHWM:'))
    with open(peak_path, 'w') as out:
        out.write(kib)
atexit.register(report_peak)
if len(sys.argv) > 1:
    runpy.run_module('socest.cli', run_name='__main__', alter_sys=True)
else:
    import socest.cli
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_estimate_peak_rss_stays_near_its_arrays(tmp_path, params_file):
    # `estimate --kind cc` needs five n-float arrays: t, i and v, the
    # intervals and the estimate. Above the import floor, its peak may hold
    # them about once, not the two to three times that hashing the whole
    # input and copying the parsed table took.
    n = 100_000
    rng = np.random.default_rng(23)
    profile = Profile.uniform(rng.uniform(-4.0, 4.0, n)).with_signals(
        v=rng.uniform(3.5, 4.0, n))
    write_profile(profile, tmp_path / "drive.csv")
    env = dict(os.environ, PYTHONPATH=str(Path(socest.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")

    def peak_mib(*args):
        peak = tmp_path / "peak-kib.txt"
        proc = subprocess.run([sys.executable, "-c", _PEAK_LAUNCHER, str(peak), *args],
                              capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        return int(peak.read_text()) / 1024

    floor = peak_mib()
    peak = peak_mib("estimate", "--params", params_file, "--profile", "drive.csv",
                    "--kind", "cc", "--init-soc", "0.5", "--out", "est.csv")
    arrays_mib = 5 * n * 8 / 2**20
    assert (peak - floor) / arrays_mib <= 1.5, (peak, floor)


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


class TestDt:
    """`--dt` is the interval of the first sample of the profile a command
    reads, and the sampling interval of the drive a sweep generates."""

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


def signature_default(function, name):
    return inspect.signature(function).parameters[name].default


def typed(value):
    # The manifest records each setting as JSON, where 1 and 1.0 differ.
    return value, type(value)


def test_option_defaults_are_the_librarys():
    # Each default has one home in the library, and every other site reads it.
    spec, noise, dt = SweepSpec("noise_power", (1.0,)), NoiseSpec(), Profile.first_dt
    window = signature_default(estimator_run, "window")
    spacing = signature_default(build_ocv_table, "spacing")
    for got, home in [
        (spec.window, window),
        (signature_default(run_trial, "window"), spec.window),
        (signature_default(run_trial, "init_soc_offset"), spec.init_soc_offset),
        (signature_default(run_trial, "seed"), spec.master_seed),
        (signature_default(make_drive_profile, "seed"), spec.master_seed),
        (signature_default(OcvTable.from_function, "spacing"), spacing),
        (signature_default(Profile.uniform, "dt"), dt),
        (signature_default(make_drive_profile, "dt"), dt),
        (signature_default(make_incremental_current_profile, "dt"), dt),
    ]:
        assert typed(got) == typed(home)
    sweep = {
        "trials": spec.n_trials, "seed": spec.master_seed, "init_offset": spec.init_soc_offset,
        "base_param_error": spec.base_param_error, "current_noise": noise.current_noise_var,
        "voltage_noise": noise.voltage_noise_var,
        "dt": signature_default(make_drive_profile, "dt"),
        "max_current": signature_default(make_drive_profile, "max_current"),
        "jobs": signature_default(run_sweep, "n_jobs"),
    }
    homes = {  # each subcommand with its required options only
        "simulate --params p --profile f --out o": {"dt": dt, "init_soc": DEFAULT_INIT_SOC},
        "fit-ocv --charge c --discharge d --q-max 1 --out o": {"spacing": spacing},
        "fit-params --profile f --ocv v --q-max 1 --init 1 1 1 1 1 --out o --report r":
            {"dt": dt},
        "estimate --params p --profile f --out o":
            {"dt": dt, "window": window, "init_soc": DEFAULT_INIT_SOC},
        "benchmark --axis noise_power --values 1 --params p --out o":
            {**sweep, "window": spec.window},
        "sweep-window --values 1 --params p --out o": sweep,
    }
    for command, defaults in homes.items():
        args = vars(build_parser().parse_args(command.split()))
        assert {k: typed(args[k]) for k in defaults} == {k: typed(v) for k, v in defaults.items()}


# The CLI contract over extreme option values: every numeric option of every
# subcommand, each value passed as `--opt=value` so that `-inf` reaches the
# option and is not read as a flag. A command is a subcommand, `estimate:kind`
# or `benchmark:axis`.
EXTREME_FLOATS = ["0", "-1", "5e-324", "1e-300", "1e300", "1e308", "nan", "inf", "-inf"]
EXTREME_INTS = ["0", "-1", str(2**64), str(10**309)]  # 10**309 is past the float range
SWEEP_FLOATS = [
    "--duration", "--dt", "--max-current", "--current-noise", "--voltage-noise",
    "--init-offset", "--base-param-error",
]
SWEEP_INTS = ["--trials", "--seed", "--jobs"]
INIT_OPTIONS = [f"--init:{name}" for name in PASSIVE_NAMES]  # one --init value at a time
ESTIMATES = [f"estimate:{kind}" for kind in ESTIMATOR_KINDS]
EXTREME_CASES = [
    (command, option, value)
    for command, floats, ints in [
        ("simulate", ["--init-soc", "--dt"], []),
        ("fit-ocv", ["--q-max", "--spacing"], []),
        ("fit-params", ["--q-max", "--init-soc", "--dt", *INIT_OPTIONS], []),
        *((estimate, ["--init-soc", "--dt"], ["--window"]) for estimate in ESTIMATES),
        ("benchmark:window_size", ["--values", *SWEEP_FLOATS], ["--window", *SWEEP_INTS]),
        ("benchmark:noise_power", ["--values"], []),
        ("benchmark:parameter_error", ["--values"], []),
        ("sweep-window", SWEEP_FLOATS, ["--values", *SWEEP_INTS]),
    ]
    for option, values in [*((o, EXTREME_FLOATS) for o in floats),
                           *((o, EXTREME_INTS) for o in ints)]
    for value in values
]
# The CLI's refusals: (command, option, value) -> the one line after `socest: error: `.
READ_PROFILES = ["simulate", "fit-params", *ESTIMATES]  # --dt is their first interval
REFUSED = {
    **{(command, "--init-soc", value): f"initial SoC must be in [0, 1], got {float(value)!r}"
       for command in READ_PROFILES for value in ["1.5", "-0.5"]},
    **{(command, "--dt", value): f"first_dt must be positive and finite, got {float(value)!r}"
       for command in READ_PROFILES for value in ["inf", "nan", "0", "-1"]},
    **{("simulate", "--init-soc", value): f"initial state must be finite, got z={value}, "
       "v_r1=0.0, v_r2=0.0" for value in ["nan", "inf"]},
    **{(command, "--init-soc", value): f"initial SoC must be finite, got {value}"
       for command in ESTIMATES for value in ["nan", "inf"]},
    **{(command, "--window", value): f"window must be >= 1, got {value}"
       for command in ESTIMATES for value in ["-5", "0"]},
    ("benchmark:noise_power", "--window", "0"): "window must be >= 1, got 0",
    ("sweep-window", "--values", "0"): "window sizes must be integers >= 1, got 0",
    ("sweep-window", "--seed", "-1"): "seed must be a non-negative integer, got -1",
    **{("sweep-window", "--jobs", value): f"n_jobs must be >= 1, got {value}"
       for value in ["0", "-2"]},
    # The truth starts at SoC 0.9; an estimator cannot start outside [0, 1].
    **{("sweep-window", "--init-offset", value): "init_soc_offset must keep 0.9 + offset "
       f"in [0, 1], got {float(value)!r}" for value in ["-1", "1e300", "1e308"]},
    # An error that overflows c1 is named as the error, not as c1.
    **{(command, option, "1e308"): "relative_error must keep the perturbed cell finite, "
       "got 1e+308" for command, option in [("sweep-window", "--base-param-error"),
                                            ("benchmark:window_size", "--base-param-error"),
                                            ("benchmark:parameter_error", "--values")]},
    **{(command, option, value): f"{name} must be {rule}, got {float(value)!r}"
       for command, option, name, rule, values in [
           ("fit-ocv", "--q-max", "q_max", "positive and finite", ["0", "-5", "nan", "inf"]),
           ("fit-ocv", "--spacing", "spacing", "positive and finite", ["0", "-0.5", "nan"]),
           *(("fit-params", f"--init:{name}", name, "positive and finite",
              ["0", "-1", "nan", "inf"]) for name in ["r0", "c2"]),
           ("sweep-window", "--dt", "dt", "positive and finite", ["0", "-1", "inf"]),
           ("sweep-window", "--duration", "duration", "finite", ["inf", "nan"]),
           ("sweep-window", "--max-current", "max_current", "nonnegative and finite",
            ["nan", "-1"]),
           ("sweep-window", "--init-offset", "init_soc_offset", "finite", ["nan", "inf"]),
           ("sweep-window", "--current-noise", "current_noise_var", "nonnegative and finite",
            ["nan", "-1"]),
           ("sweep-window", "--voltage-noise", "voltage_noise_var", "nonnegative and finite",
            ["inf"]),
           ("sweep-window", "--base-param-error", "relative_error", "finite and > -1",
            ["nan", "-1"]),
       ]
       for value in values},
}


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory, cell):
    """Each command on inputs of a few dozen samples, writing into `out`:
    `args(command, out)` returns its options, each mapped to its values, and
    the names of its outputs."""
    root = tmp_path_factory.mktemp("tiny")
    rng = np.random.default_rng(29)
    profile = Profile.uniform(rng.uniform(-4.0, 4.0, 40))
    _, _, _, v, _ = simulate_arrays(cell, CellState(z=0.6), profile)
    write_profile(profile.with_signals(v=v), root / "drive.csv")
    write_params(cell, root / "cell.yaml")
    pulse = make_incremental_current_profile(2.0, 20.0, 40.0, 1)
    measured = pulse.with_signals(v=predict_voltage(cell, pulse, CellState(z=0.2)))
    write_profile(measured, root / "pulse.csv")
    write_ocv_table(cell.ocv, root / "ocv.yaml")
    charge, discharge, q_max = write_sweeps(root, 21)
    drive, params = str(root / "drive.csv"), str(root / "cell.yaml")
    sweep = {"--params": [params], "--trials": ["2"], "--duration": ["20"],
             "--estimators": ["ekf", "aekf-mle"]}

    def args(command, out):
        o = str(out / "o")
        command, _, variant = command.partition(":")
        if command == "simulate":
            return {"--params": [params], "--profile": [drive], "--out": [o]}, ["o"]
        if command == "fit-ocv":
            return {"--charge": [charge], "--discharge": [discharge], "--q-max": [q_max],
                    "--out": [o]}, ["o"]
        if command == "fit-params":
            return {"--profile": [str(root / "pulse.csv")], "--ocv": [str(root / "ocv.yaml")],
                    "--q-max": [str(cell.q_max)],
                    "--init": [str(2 * getattr(cell, k)) for k in PASSIVE_NAMES],
                    "--init-soc": ["0.2"], "--out": [o], "--report": [o + ".json"]}, ["o", "o.json"]
        if command == "estimate":
            return {"--params": [params], "--profile": [drive], "--kind": [variant],
                    "--window": ["4"], "--out": [o]}, ["o"]
        if command == "sweep-window":
            return {**sweep, "--values": ["4"], "--out": [o]}, ["o"]
        return {**sweep, "--axis": [variant],
                "--values": ["4" if variant == "window_size" else "0.5"], "--out": [o]}, ["o"]

    return args


def finite_numbers(doc):
    """Every number in a parsed JSON or YAML document is finite."""
    if isinstance(doc, dict):
        return all(finite_numbers(v) for v in doc.values())
    if isinstance(doc, list):
        return all(finite_numbers(v) for v in doc)
    return not isinstance(doc, float) or math.isfinite(doc)


def finite_csv(path):
    """Every numeric field below a CSV's header is finite."""
    for line in read_lines(path)[1:]:
        for field in line.split(","):
            with suppress(ValueError):
                if not math.isfinite(float(field)):
                    return False
    return True


@pytest.mark.parametrize(
    "command, option, value", list(dict.fromkeys([*EXTREME_CASES, *REFUSED]))
)
def test_extreme_option_value_exits_0_with_finite_output_or_1_without_output(
    tmp_path, tiny_inputs, capsys, command, option, value
):
    # A refused case exits 1 with its own message; any other exits 1 with
    # some one-line message, or 0 with finite outputs.
    out = tmp_path / "out"
    out.mkdir()
    options, outputs = tiny_inputs(command, out)
    if option in INIT_OPTIONS:
        # --init takes five values, so it cannot be written `--init=value`;
        # argparse reads an argument holding a space as a value, not a flag.
        options["--init"][INIT_OPTIONS.index(option)] = f" {value}"
    else:
        options[option] = [value]
    argv = [command.split(":")[0]]
    for name, values in options.items():
        argv += [f"{name}={value}"] if name == option else [name, *values]
    rc = main(argv)
    err = capsys.readouterr().err
    if (command, option, value) in REFUSED:
        assert (rc, err) == (1, f"socest: error: {REFUSED[command, option, value]}\n")
    if rc == 1:
        assert err.startswith("socest: error: ") and err.count("\n") == 1, err
        assert list(out.iterdir()) == []
        return
    assert rc == 0, err
    manifest = "o.manifest.json"
    assert sorted(p.name for p in out.iterdir()) == sorted([*outputs, manifest])
    for name in outputs + [manifest]:
        path = out / name
        if name.endswith(".json"):
            assert finite_numbers(json.loads(path.read_text())), name
        elif command.startswith("fit-"):
            assert finite_numbers(yaml.safe_load(path.read_text())), name
        else:
            assert finite_csv(path), name
