import csv
import io
import warnings
from itertools import chain, islice

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from socest import io as soc_io
from socest.bench import BenchResult
from socest.ecm import CellState, Profile, simulate
from socest.io import (
    FormatError,
    RunManifest,
    _column_blocks,
    _read_csv,
    _write_rows,
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


def _oracle_read_csv(path_or_file, headers, name):
    """The `csv` + `float` reader that the loadtxt pass replaced, kept as the
    reference for what is accepted, the arrays and every error's text."""
    with soc_io._opened(path_or_file, "r") as fh:
        reader = csv.reader(fh)
        try:
            header = tuple(h.strip() for h in next(reader))
        except StopIteration:
            raise FormatError(f"empty {name} file") from None
        if header not in headers:
            allowed = " or ".join(repr(",".join(h)) for h in headers)
            raise FormatError(
                f"{name} file: expected header {allowed}, got {','.join(header)!r}"
            )
        width = len(header)
        chunks = []
        first = 2
        while rows := list(islice(reader, 1024)):
            try:
                if set(map(len, rows)) != {width}:
                    raise ValueError
                chunk = np.fromiter(map(float, chain.from_iterable(rows)), float)
            except ValueError:
                for lineno, row in enumerate(rows, start=first):
                    try:
                        if len(row) != width:
                            raise ValueError(f"expected {width} fields")
                        list(map(float, row))
                    except ValueError as exc:
                        raise FormatError(f"{name} file line {lineno}: {exc}") from None
            chunk = chunk.reshape(-1, width)
            finite = np.isfinite(chunk).all(axis=1)
            if not finite.all():
                lineno = first + int(np.argmin(finite))
                raise FormatError(f"{name} file line {lineno}: non-finite value")
            chunks.append(chunk)
            first += len(rows)
    if not chunks:
        raise FormatError(f"{name} file contains no samples")
    return tuple(np.concatenate([c[:, j] for c in chunks]) for j in range(width))


PROFILE_HEADERS = (("t", "i", "v"), ("t", "i"))


def _outcome(read, source):
    """What a reader made of `source`: its arrays bit for bit, or its error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            columns = read(source, PROFILE_HEADERS, "profile")
        except Exception as exc:  # the exception's type and text are the outcome
            return type(exc), str(exc)
    return [(c.dtype, c.shape, c.tobytes()) for c in columns]


def _assert_readers_agree(text, path):
    with open(path, "w", newline="") as fh:
        fh.write(text)
    sources = (
        lambda: path,
        lambda: io.StringIO(text),  # splits lines at "\n" only
        lambda: io.StringIO(text, newline=""),  # splits at "\n", "\r\n" and "\r"
    )
    for source in sources:
        assert _outcome(_read_csv, source()) == _outcome(_oracle_read_csv, source())


NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: format(x, ".17g")),
    st.integers(-10**20, 10**20).map(str),
)
# Fields that csv + float and loadtxt may judge differently.
ODD_FIELD = st.sampled_from([
    "nan", "-inf", "Infinity", "1e999", "1e-400", "1_5", "١٢", '"1.5"',
    '" 2 "', '"3', "", " 4 ", "\t5", "\xa06", "7\x0c", "abc", "0x10", "+.5", "5.", "1e",
    "#8", "2#7", "9\x00", "1\r2",
])


@st.composite
def csv_texts(draw):
    """CSV text that is mostly well formed, with a drawn share of flawed rows."""
    header, width = draw(st.sampled_from([
        ("t,i", 2), ("t,i,v", 3), ("t,i", 2), ("t,i,v", 3), (" t , i ,v", 3), ('"t",i', 2),
        ("t,i,x", 3), ("", 2),
    ]))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    flaws = draw(st.sampled_from([0, 0, 0, 1, 3]))  # chance of a flawed row, in tenths
    lines = [header]
    for _ in range(draw(st.integers(0, 25))):
        if draw(st.integers(0, 9)) >= flaws:
            lines.append(",".join(draw(st.lists(NUMBER, min_size=width, max_size=width))))
            continue
        flaw = draw(st.integers(0, 5))
        if flaw == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
        elif flaw == 1:
            n = draw(st.sampled_from([1, width + 1]))
            lines.append(",".join(draw(st.lists(NUMBER, min_size=n, max_size=n))))
        elif flaw == 2:
            fields = draw(st.lists(NUMBER, min_size=width, max_size=width))
            fields[draw(st.integers(0, width - 1))] = draw(ODD_FIELD)
            lines.append(",".join(fields))
        elif flaw == 3:
            lines.append('"1\n2",3' + ",4" * (width - 2))  # one row over two lines
        else:
            lines[-1] += draw(st.sampled_from(["\r", "\n"]))  # another line ending
    ends = [eol] * len(lines)
    if draw(st.booleans()):
        ends[-1] = ""  # no line ending after the last row
    text = "".join(line + end for line, end in zip(lines, ends))
    return text + draw(st.sampled_from(["", "", "", eol, eol * 2, " "]))


class TestReaderMatchesOracle:
    """The loadtxt pass with its walker accepts, reads and rejects exactly
    what the `csv` + `float` reader did, on paths and on file objects."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=csv_texts())
    @example(text="t,i\n1,2\n\n3,4\n")  # blank line inside
    @example(text="t,i\r\n1,2\r\n\r\n")  # blank line at the end, CRLF
    @example(text="t,i\n 1 ,\t2 \n")
    @example(text='t,i\n"1",2\n')
    @example(text="t,i\n1_5,2\n")
    @example(text="t,i\n1,١\n")
    @example(text="t,i\n1,nan\n2,x\n")  # a bad field outranks an earlier NaN
    @example(text="t,i,v\n1,inf,2\n")
    @example(text="t,i\n1,2,3\n2,3,4\n")  # every row one field too wide
    @example(text="t,i\n1,2#7\n")
    @example(text="t,i\n1,2\r3,4\n")
    def test_generated_text(self, tmp_path, text):
        _assert_readers_agree(text, tmp_path / "profile.csv")

    @pytest.fixture(scope="class")
    def long_rows(self):
        return [f"{k},{k * 0.1!r}" for k in range(1, 52_001)]

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(row=st.integers(49_990, 51_999), bad=st.one_of(ODD_FIELD, st.just("blank")))
    def test_bad_row_beyond_loadtxt_chunk(self, tmp_path, long_rows, row, bad):
        lines = list(long_rows)
        lines[row] = "" if bad == "blank" else f"{row + 1},{bad}"
        _assert_readers_agree("t,i\n" + "\n".join(lines) + "\n", tmp_path / "long.csv")

    @pytest.mark.parametrize("text", [
        "t,i,v\n1,2,3\n2,-0.5,1e-300\n",
        "t,i,v\r\n1,2,3\r\n2, -0.5 ,4\r\n",
        "t,i\n1,2\n2,5e-324",  # no final line ending
        " t , i \n1,2\n",
    ])
    def test_well_formed_file_read_in_one_pass(self, tmp_path, monkeypatch, text):
        path = tmp_path / "p.csv"
        path.write_bytes(text.encode())
        want = _outcome(_oracle_read_csv, path)

        def no_walk(*args):
            raise AssertionError("the loadtxt pass declined a well-formed file")

        monkeypatch.setattr(soc_io, "_walk_rows", no_walk)
        assert _outcome(_read_csv, path) == want
        assert _outcome(_read_csv, io.StringIO(text)) == want

    def test_unseekable_file_is_walked(self):
        class Unseekable(io.StringIO):
            def seekable(self):
                return False

        for text in ("t,i\n1,2\n3,1_5\n", "t,i\n1,2\n\n", "t,i\n1,2\n3,x\n"):
            got = _outcome(_read_csv, Unseekable(text))
            assert got == _outcome(_oracle_read_csv, io.StringIO(text))

    def test_text_file_mid_iteration_is_walked(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("preamble\nt,i\n1,2\n3,4\n")
        with open(path) as fh:
            next(fh)  # a text file being iterated cannot tell its position
            t, i = _read_csv(fh, PROFILE_HEADERS, "profile")
        assert t.tolist() == [1.0, 3.0] and i.tolist() == [2.0, 4.0]


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

    @pytest.mark.parametrize("text", [
        "r1: [0.1\n", "r0: 1: 2\n", "r0: \x07\n", "r0: !!python/object:os.system x\n",
    ])
    def test_malformed_yaml_is_format_error(self, text):
        with pytest.raises(FormatError, match="params document is not valid YAML"):
            read_params(io.StringIO(text))

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
        sim_z, sim_v_r1, sim_v_r2, sim_v, _ = trajectory
        assert np.array_equal(t, profile.t)
        assert np.array_equal(i, profile.i)
        assert np.array_equal(v, sim_v)
        assert np.array_equal(z, sim_z)
        assert np.array_equal(v_r1, sim_v_r1)
        assert np.array_equal(v_r2, sim_v_r2)

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            write_estimate_csv([0.0, 1.0], [0.5], io.StringIO())


# Doubles whose 17-digit text is easy to get wrong: the sign of zero, the
# smallest subnormal, the smallest normal, the largest finite, an inexact
# decimal, one, and an integer past 2**53.
AWKWARD = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1.0, 1e16]


def _golden(header, rows):
    body = "".join(",".join(format(x, ".17g") for x in row) + "\n" for row in rows)
    return ",".join(header) + "\n" + body


class TestBlockWriterGoldenText:
    """The block writer's bytes equal one `format(x, ".17g")` per value."""

    @staticmethod
    def columns(n, width):
        return [np.array([AWKWARD[(k + 3 * j) % 7] for k in range(n)]) for j in range(width)]

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049])
    @pytest.mark.parametrize("width", [2, 3, 6])
    def test_write_rows(self, n, width):
        header = tuple(f"c{j}" for j in range(width))
        columns = self.columns(n, width)
        buf = io.StringIO()
        _write_rows(buf, header, _column_blocks(*columns))
        assert buf.getvalue() == _golden(header, zip(*columns))

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049])
    def test_estimate_csv(self, n):
        t, z_est, z_true = self.columns(n, 3)
        buf = io.StringIO()
        write_estimate_csv(t, z_est, buf)
        assert buf.getvalue() == _golden(("t", "z_est"), zip(t, z_est))
        buf = io.StringIO()
        write_estimate_csv(t, z_est, buf, z_true=z_true)
        assert buf.getvalue() == _golden(("t", "z_est", "z_true"), zip(t, z_est, z_true))

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049])
    def test_trajectory_csv(self, n):
        t = np.arange(1.0, n + 1.0) * 0.1
        i, v, z, v_r1, v_r2 = self.columns(n, 5)
        profile = Profile(t, i)
        trajectory = (z, v_r1, v_r2, v, np.zeros(n, dtype=bool))
        buf = io.StringIO()
        write_trajectory_csv(profile, trajectory, buf)
        header = ("t", "i", "v", "z", "v_r1", "v_r2")
        assert buf.getvalue() == _golden(header, zip(t, i, v, z, v_r1, v_r2))

    def test_trajectory_length_mismatch_rejected(self, cell):
        profile = Profile.uniform(np.zeros(3))
        trajectory = tuple(a[:2] for a in simulate(cell, CellState(z=0.5), profile))
        with pytest.raises(ValueError, match="trajectory has 2 samples, profile has 3"):
            write_trajectory_csv(profile, trajectory, io.StringIO())


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
