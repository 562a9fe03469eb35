import io

import numpy as np
import pytest

from socest.bench import BenchResult
from socest.ecm import CellState, Profile, simulate
from socest.io import (
    FormatError,
    RunManifest,
    _read_csv,
    file_digest,
    read_ocv_table,
    read_params,
    read_profile,
    write_bench_csv,
    write_estimate_csv,
    write_ocv_table,
    write_params,
    write_profile,
    write_trajectory_csv,
)


def roundtrip_profile(profile):
    buf = io.StringIO()
    write_profile(profile, buf)
    buf.seek(0)
    return read_profile(buf)


class TestProfileRoundTrip:
    def test_bit_exact_with_awkward_doubles(self):
        rng = np.random.default_rng(0)
        t = np.cumsum(rng.uniform(0.1, 2.0, 100))
        i = rng.normal(scale=np.pi, size=100)
        v = 3.0 + rng.normal(scale=1e-8, size=100)
        p = Profile(t, i, v)
        q = roundtrip_profile(p)
        assert np.array_equal(p.t, q.t)
        assert np.array_equal(p.i, q.i)
        assert np.array_equal(p.v, q.v)

    def test_current_only_round_trip(self):
        p = Profile.uniform(np.array([1.0, -2.0, 0.5]))
        q = roundtrip_profile(p)
        assert q.v is None
        assert np.array_equal(p.i, q.i)

    def test_many_random_instances_bit_exact(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = rng.integers(1, 20)
            t = np.cumsum(rng.uniform(1e-3, 10.0, n))
            p = Profile(t, rng.normal(size=n), rng.normal(3.7, 0.2, n))
            q = roundtrip_profile(p)
            assert np.array_equal(p.t, q.t)
            assert np.array_equal(p.i, q.i)
            assert np.array_equal(p.v, q.v)


class TestProfileErrors:
    def test_empty_file(self):
        with pytest.raises(FormatError, match="empty"):
            read_profile(io.StringIO(""))

    def test_bad_header(self):
        with pytest.raises(FormatError, match="header"):
            read_profile(io.StringIO("time,current\n1,2\n"))

    def test_wrong_field_count_names_line(self):
        with pytest.raises(FormatError, match="line 3"):
            read_profile(io.StringIO("t,i\n1,2\n3\n"))

    def test_non_numeric_names_line(self):
        with pytest.raises(FormatError, match="line 2"):
            read_profile(io.StringIO("t,i\nabc,2\n"))

    def test_no_samples(self):
        with pytest.raises(FormatError, match="no samples"):
            read_profile(io.StringIO("t,i\n"))

    def test_non_increasing_time(self):
        with pytest.raises(FormatError):
            read_profile(io.StringIO("t,i\n2,0\n1,0\n"))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_names_line(self, bad):
        with pytest.raises(FormatError, match="line 3: non-finite"):
            read_profile(io.StringIO(f"t,i,v\n1,0,3.7\n2,0,{bad}\n3,0,3.7\n"))

    def test_error_in_later_chunk_names_line(self):
        rows = "".join(f"{k},0\n" for k in range(1, 2000))
        with pytest.raises(FormatError, match="line 1502: "):
            read_profile(io.StringIO("t,i\n" + rows.replace("1501,0", "1501,x")))
        with pytest.raises(FormatError, match="line 1502: expected 2 fields"):
            read_profile(io.StringIO("t,i\n" + rows.replace("1501,0", "1501")))
        with pytest.raises(FormatError, match="line 1502: non-finite"):
            read_profile(io.StringIO("t,i\n" + rows.replace("1501,0", "1501,inf")))


class TestParamsDocument:
    def test_round_trip_bit_exact(self, cell):
        buf = io.StringIO()
        write_params(cell, buf)
        buf.seek(0)
        back = read_params(buf)
        for name in ("r0", "r1", "c1", "r2", "c2", "q_max"):
            assert getattr(back, name) == getattr(cell, name)
        assert np.array_equal(back.ocv.soc_grid, cell.ocv.soc_grid)
        assert np.array_equal(back.ocv.ocv_values, cell.ocv.ocv_values)

    def test_missing_field_named(self, cell):
        buf = io.StringIO()
        write_params(cell, buf)
        text = buf.getvalue().replace("q_max:", "qmax:")
        with pytest.raises(FormatError, match="q_max"):
            read_params(io.StringIO(text))

    def test_nonpositive_field_named(self, cell):
        buf = io.StringIO()
        write_params(cell, buf)
        text = "\n".join(
            "r1: -0.015" if line.startswith("r1:") else line
            for line in buf.getvalue().splitlines()
        )
        with pytest.raises(FormatError, match="r1"):
            read_params(io.StringIO(text))

    def test_non_numeric_field_named(self):
        text = "r0: abc\nr1: 1\nc1: 1\nr2: 1\nc2: 1\nq_max: 1\nocv:\n  0: 3\n  1: 4\n"
        with pytest.raises(FormatError, match="r0"):
            read_params(io.StringIO(text))

    def test_missing_ocv(self):
        text = "r0: 1\nr1: 1\nc1: 1\nr2: 1\nc2: 1\nq_max: 1\n"
        with pytest.raises(FormatError, match="ocv"):
            read_params(io.StringIO(text))

    def test_non_mapping_document(self):
        with pytest.raises(FormatError, match="mapping"):
            read_params(io.StringIO("- a\n- b\n"))

    def test_nan_ocv_node_rejected(self):
        text = "r0: 1\nr1: 1\nc1: 1\nr2: 1\nc2: 1\nq_max: 1\nocv:\n  0: 3\n  0.5: .nan\n  1: 4\n"
        with pytest.raises(FormatError, match="finite"):
            read_params(io.StringIO(text))


class TestOcvTableDocument:
    def test_round_trip_bit_exact(self, ocv_table):
        buf = io.StringIO()
        write_ocv_table(ocv_table, buf)
        buf.seek(0)
        back = read_ocv_table(buf)
        assert np.array_equal(back.soc_grid, ocv_table.soc_grid)
        assert np.array_equal(back.ocv_values, ocv_table.ocv_values)

    def test_non_monotone_rejected(self):
        text = "ocv:\n  0.0: 3.5\n  0.5: 3.4\n  1.0: 3.6\n"
        with pytest.raises(FormatError, match="ocv"):
            read_ocv_table(io.StringIO(text))

    def test_missing_key(self):
        with pytest.raises(FormatError, match="ocv"):
            read_ocv_table(io.StringIO("table:\n  0: 3\n"))


class TestResultWriters:
    def test_estimate_csv_headers(self):
        buf = io.StringIO()
        write_estimate_csv([0.0, 1.0], [0.5, 0.6], buf, z_true=[0.5, 0.59])
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,z_est,z_true"
        assert len(lines) == 3

    def test_estimate_csv_without_truth(self):
        buf = io.StringIO()
        write_estimate_csv([0.0], [0.5], buf)
        assert buf.getvalue().splitlines()[0] == "t,z_est"

    def test_bench_csv_layout(self):
        result = BenchResult(
            axis="noise_power",
            rows=((1.0, "ekf", 0.5, 0.4, 0.6), (2.0, "cc", 3.0, 2.5, 3.5)),
        )
        buf = io.StringIO()
        write_bench_csv(result, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "axis_value,estimator,mae_mean,ci_lo,ci_hi"
        assert lines[1].split(",")[1] == "ekf"
        assert float(lines[2].split(",")[2]) == 3.0


class TestWriterRoundTrip:
    """Result CSVs read back through the shared reader, bit for bit."""

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025])
    def test_estimate_csv(self, n):
        rng = np.random.default_rng(n)
        t = np.cumsum(rng.uniform(1e-3, 10.0, n))
        z_est, z_true = rng.uniform(0.0, 1.0, (2, n))
        buf = io.StringIO()
        write_estimate_csv(t, z_est, buf, z_true=z_true)
        buf.seek(0)
        back = _read_csv(buf, (("t", "z_est", "z_true"),), "estimate")
        for got, want in zip(back, (t, z_est, z_true)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1023, 1024, 1025])
    def test_trajectory_csv(self, cell, n):
        rng = np.random.default_rng(n)
        profile = Profile(np.cumsum(rng.uniform(0.1, 2.0, n)), rng.normal(scale=3.0, size=n))
        trajectory = simulate(cell, CellState(z=0.5, v_r1=0.01), profile)
        buf = io.StringIO()
        write_trajectory_csv(profile, trajectory, buf)
        buf.seek(0)
        header = ("t", "i", "v", "z", "v_r1", "v_r2")
        t, i, v, z, v_r1, v_r2 = _read_csv(buf, (header,), "trajectory")
        assert np.array_equal(t, profile.t)
        assert np.array_equal(i, profile.i)
        assert np.array_equal(v, [volt for _, volt in trajectory])
        assert np.array_equal(z, [s.z for s, _ in trajectory])
        assert np.array_equal(v_r1, [s.v_r1 for s, _ in trajectory])
        assert np.array_equal(v_r2, [s.v_r2 for s, _ in trajectory])

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            write_estimate_csv([0.0, 1.0], [0.5], io.StringIO())


class TestManifest:
    def test_json_round_trip(self):
        m = RunManifest(
            version="0.1.0",
            config={"command": "simulate", "dt": 1.0},
            master_seed=7,
            input_digests={"profile": "sha256:ab"},
        )
        assert RunManifest.from_json(m.to_json()) == m

    def test_missing_field_rejected(self):
        with pytest.raises(FormatError, match="version"):
            RunManifest.from_json('{"config": {}, "master_seed": 1, "input_digests": {}}')

    def test_file_digest_is_stable(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("t,i\n1,2\n")
        d1 = file_digest(f)
        assert d1.startswith("sha256:")
        assert d1 == file_digest(f)

    def test_write_reads_back(self, tmp_path):
        m = RunManifest("0.1.0", {}, None, {})
        path = tmp_path / "run.manifest.json"
        m.write(path)
        assert RunManifest.from_json(path.read_text()) == m
