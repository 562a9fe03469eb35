import csv
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from itertools import chain, islice
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import socest
from socest import io as soc_io
from socest.cli import main
from socest.ecm import (
    SCALAR_FIELDS, CellState, EcmParams, OcvTable, Profile, simulate, simulate_arrays,
)
from socest.fitting import make_incremental_current_profile, predict_voltage
from socest.io import (
    FormatError,
    _read_csv,
    _write_columns,
    file_digest,
    read_ocv_table,
    read_params,
    read_profile,
    read_truth,
    write_bench_csv,
    write_estimate_csv,
    write_ocv_table,
    write_params,
    write_profile,
    write_trajectory_csv,
)


def _written(path, text):
    """`path`, holding `text` with its line endings as they are."""
    path.write_text(text, newline="")
    return path


@pytest.fixture
def text_file(tmp_path):
    """Writes its argument to a file and returns the file's path."""
    return lambda text: _written(tmp_path / "input", text)


@pytest.fixture
def roundtrip_profile(tmp_path):
    def roundtrip(profile):
        write_profile(profile, tmp_path / "p.csv")
        return read_profile(tmp_path / "p.csv")
    return roundtrip


class TestProfileRoundTrip:
    def test_bit_exact_with_awkward_doubles(self, roundtrip_profile):
        rng = np.random.default_rng(0)
        t = np.cumsum(rng.uniform(0.1, 2.0, 100))
        i = rng.normal(scale=np.pi, size=100)
        v = 3.0 + rng.normal(scale=1e-8, size=100)
        p = Profile(t, i, v)
        q = roundtrip_profile(p)
        assert np.array_equal(p.t, q.t)
        assert np.array_equal(p.i, q.i)
        assert np.array_equal(p.v, q.v)

    def test_current_only_round_trip(self, roundtrip_profile):
        p = Profile.uniform(np.array([1.0, -2.0, 0.5]))
        q = roundtrip_profile(p)
        assert q.v is None
        assert np.array_equal(p.i, q.i)

    def test_many_random_instances_bit_exact(self, roundtrip_profile):
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
    def test_empty_file(self, text_file):
        with pytest.raises(FormatError, match="empty"):
            read_profile(text_file(""))

    def test_bad_header(self, text_file):
        with pytest.raises(FormatError, match="header"):
            read_profile(text_file("time,current\n1,2\n"))

    def test_wrong_field_count_names_line(self, text_file):
        with pytest.raises(FormatError, match="line 3"):
            read_profile(text_file("t,i\n1,2\n3\n"))

    def test_non_numeric_names_line(self, text_file):
        with pytest.raises(FormatError, match="line 2"):
            read_profile(text_file("t,i\nabc,2\n"))

    def test_no_samples(self, text_file):
        with pytest.raises(FormatError, match="no samples"):
            read_profile(text_file("t,i\n"))

    def test_non_increasing_time(self, text_file):
        with pytest.raises(FormatError):
            read_profile(text_file("t,i\n2,0\n1,0\n"))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_names_line(self, text_file, bad):
        with pytest.raises(FormatError, match="line 3: non-finite"):
            read_profile(text_file(f"t,i,v\n1,0,3.7\n2,0,{bad}\n3,0,3.7\n"))

    def test_error_in_later_chunk_names_line(self, text_file):
        rows = "".join(f"{k},0\n" for k in range(1, 2000))
        with pytest.raises(FormatError, match="line 1502: "):
            read_profile(text_file("t,i\n" + rows.replace("1501,0", "1501,x")))
        with pytest.raises(FormatError, match="line 1502: expected 2 fields"):
            read_profile(text_file("t,i\n" + rows.replace("1501,0", "1501")))
        with pytest.raises(FormatError, match="line 1502: non-finite"):
            read_profile(text_file("t,i\n" + rows.replace("1501,0", "1501,inf")))


# What each CSV reader is given, and the headers it names in its errors.
HEADER_READERS = {
    "profile": (read_profile, ("t", "i"), "'t,i,v' or 't,i'"),
    "truth": (lambda path: read_truth(path, np.array([1.0, 3.0])), ("t", "z"), "'t,z'"),
}


class TestHeader:
    """The header is the first line, split at "," as a row is, each name
    stripped: quotes in it are not CSV quoting."""

    @pytest.mark.parametrize("first_line", [
        "\n", "time,current\n", '"{0}","{1}"\n', '"{0},{1}\n',
        "{0}" + "x" * 200_000 + ",{1}\n",  # csv refused it with its own `_csv.Error`
    ], ids=["blank-line", "another-header", "quoted", "unterminated-quote",
            "name-past-csv-field-limit"])
    @pytest.mark.parametrize("what", ["profile", "truth"])
    def test_other_header_names_the_file(self, text_file, what, first_line):
        read, names, allowed = HEADER_READERS[what]
        line = first_line.format(*names)
        want = f"{what} file: expected header {allowed}, got {line.strip()!r}"
        with pytest.raises(FormatError, match=f"^{re.escape(want)}$"):
            read(text_file(line + "1,2\n3,4\n"))

    @pytest.mark.parametrize("what", ["profile", "truth"])
    def test_empty_file_names_the_file(self, text_file, what):
        with pytest.raises(FormatError, match=f"^empty {what} file$"):
            HEADER_READERS[what][0](text_file(""))

    def test_header_ending_in_a_lone_cr(self, text_file):
        profile = read_profile(text_file("t,i\r1,2\n3,4\n"))
        assert profile.t.tolist() == [1.0, 3.0] and profile.i.tolist() == [2.0, 4.0]
        z = read_truth(text_file("t,z\r1,0.5\n3,0.25\n"), profile.t)
        assert z.tolist() == [0.5, 0.25]


def _oracle_read_csv(path, headers, name):
    """The `csv` + `float` reader that the loadtxt pass replaced, kept as the
    reference for what is accepted, the arrays and every error's text."""
    with open(path, "r", newline="") as fh:
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


def _outcome(read, path):
    """What a reader made of the file at `path`: its arrays bit for bit, or its error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            columns = read(path, PROFILE_HEADERS, "profile")
        except Exception as exc:  # the exception's type and text are the outcome
            return type(exc), str(exc)
    return [(c.dtype, c.shape, c.tobytes()) for c in columns]


def _has_dropped_spelling(text):
    """Whether `text` holds a spelling that `float` or `csv` reads and the
    reader refuses: a quote, in the header or in a field, a `_` digit
    separator, a non-ASCII digit, or a "\r" that does not end a line."""
    return (
        '"' in text
        or "_" in text
        or any(c.isdecimal() and not c.isascii() for c in text)
        or re.search("\r(?!\n)", text) is not None
    )


def _at_most_one_faulty_line(text, path):
    """Whether the oracle reads `text`, held in `path`, once the line it
    names is taken out."""
    outcome = _outcome(_oracle_read_csv, path)
    named = isinstance(outcome, tuple) and re.match(r"profile file line (\d+): ", outcome[1])
    if not named:  # read, or refused as a whole
        return True
    lines = text.split("\n")
    del lines[int(named[1]) - 1]
    rest = _outcome(_oracle_read_csv, _written(path.with_suffix(".rest"), "\n".join(lines)))
    return isinstance(rest, list) or rest == (FormatError, "profile file contains no samples")


def _assert_reader_matches_oracle(text, path):
    """(a) What the reader accepts, the oracle accepts, bit for bit. (b)
    Without a dropped spelling, both accept or both refuse. (c) Where, in
    addition, at most one line is faulty, both raise the same error. (d) A
    quote in the header is refused as another header."""
    _written(path, text)
    got, want = _outcome(_read_csv, path), _outcome(_oracle_read_csv, path)
    if isinstance(got, list):
        assert got == want
    if not _has_dropped_spelling(text):
        assert type(got) is type(want)
        if _at_most_one_faulty_line(text, path):
            assert got == want
    if '"' in re.match("[^\r\n]*", text)[0]:
        assert got[0] is FormatError and got[1].startswith("profile file: expected header")


NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: format(x, ".17g")),
    st.integers(-10**20, 10**20).map(str),
)
# Fields that `float` and loadtxt may judge differently.
ODD_FIELD = st.sampled_from([
    "nan", "-inf", "Infinity", "1e999", "1e-400", "1_5", "١٢", '"1.5"',
    '" 2 "', '"3', "", " 4 ", "\t5", "\xa06", "7\x0c", "abc", "0x10", "+.5", "5.", "1e",
    "#8", "2#7", "9\x00", "1\r2", "1\x1c", "\x1d2", "3\x1e4", "\x1f",
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
    """The reader against the `csv` + `float` reader it replaced: it accepts
    no more, reads the same bits, and differs only on the dropped spellings
    and on which of several faults it names."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=csv_texts())
    @example(text="t,i\n1,2\n\n3,4\n")  # blank line inside
    @example(text="t,i\r\n1,2\r\n\r\n")  # blank line at the end, CRLF
    @example(text="t,i\n 1 ,\t2 \n")
    @example(text='t,i\n"1",2\n')
    @example(text='"t","i"\n1,2\n')  # a quoted header
    @example(text="t,i\r1,2\n")  # a header ending in a lone "\r"
    @example(text="t,i\n1_5,2\n")
    @example(text="t,i\n1,١\n")
    @example(text="t,i,v\n1,inf,2\n")
    @example(text="t,i\n1,2,3\n2,3,4\n")  # every row one field too wide
    @example(text="t,i\n1,2#7\n")
    @example(text="t,i\n1,2\r3,4\n")
    @example(text="t,i\r\n1,2\r\r\n")
    @example(text="t,i\n1\x1c,2\n")
    @example(text="t,i\n1,\x1d2\n")
    @example(text="t,i\n1,2\x1e\n")
    @example(text="t,i\n\x1f1,2\n")
    def test_generated_text(self, tmp_path, text):
        _assert_reader_matches_oracle(text, tmp_path / "profile.csv")

    @pytest.fixture(scope="class")
    def long_rows(self):
        return [f"{k},{k * 0.1!r}" for k in range(1, 52_001)]

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(row=st.integers(49_990, 51_999), bad=st.one_of(ODD_FIELD, st.just("blank")))
    def test_bad_row_deep_in_a_long_file(self, tmp_path, long_rows, row, bad):
        lines = list(long_rows)
        lines[row] = "" if bad == "blank" else f"{row + 1},{bad}"
        _assert_reader_matches_oracle("t,i\n" + "\n".join(lines) + "\n", tmp_path / "long.csv")

    def test_first_faulty_line_is_named_whatever_its_fault(self, text_file):
        # The csv + float reader named the bad field of line 3 here.
        with pytest.raises(FormatError, match="^profile file line 2: non-finite value$"):
            read_profile(text_file("t,i\n1,nan\n2,x\n"))

    @pytest.mark.parametrize("field", ['"1.5"', "1_5", "١٢", "1\r2", "2\r"],
                             ids=["quoted", "digit-separator", "non-ascii-digits", "cr-inside",
                                  "cr-ending-a-field"])
    def test_dropped_spelling_names_its_line(self, text_file, field):
        path = text_file(f"t,i\n1,2\n{field},3\n4,5\n")
        error = f"profile file line 3: could not convert string to float: {field!r}"
        assert _outcome(_read_csv, path) == (FormatError, error)

    @pytest.mark.parametrize("separator", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_ascii_separator_in_a_field_is_refused(self, text_file, separator):
        # loadtxt strips these four as whitespace; `float` refuses them.
        error = f"profile file line 2: could not convert string to float: {'1' + separator!r}"
        with pytest.raises(FormatError, match=f"^{re.escape(error)}$"):
            read_profile(text_file(f"t,i\n1{separator},2\n"))


# A data line of fixed length, so that where a read ends within a line is
# set by the length of a padded first line.
def _fixed_line(k, eol="\n"):
    return f"{k:07d},{k % 997:03d},3.75{eol}"


def _padded_body(offset, eol="\n", n=5_000):
    """n data lines whose first read ends `offset` characters into a line."""
    length = len(_fixed_line(0, eol))
    pad = (soc_io._READ_CHUNK - length - offset) % length
    body = " " * pad + "".join(_fixed_line(k, eol) for k in range(n))
    assert body[soc_io._READ_CHUNK - offset - 1] == "\n"  # the split line starts after it
    return body


class TestBlocks:
    """The reader parses `_READ_CHUNK` characters at a time, carrying an
    unfinished line into the next read."""

    # The first read ends `offset` characters into a line of 17 (LF) or 18
    # (CRLF) characters: 0 at a line start, 16 just before the line's last
    # character, and 17 on a CRLF line's "\r", with its "\n" in the next read.
    @pytest.mark.parametrize("eol, offset", [
        ("\n", 0), ("\n", 1), ("\n", 8), ("\n", 16), ("\r\n", 0), ("\r\n", 16), ("\r\n", 17),
    ])
    def test_line_split_across_two_reads(self, tmp_path, eol, offset):
        path = tmp_path / "p.csv"
        _assert_reader_matches_oracle("t,i,v" + eol + _padded_body(offset, eol), path)
        t, _, v = _read_csv(path, PROFILE_HEADERS, "profile")
        assert t.tolist() == list(range(5_000)) and v.tolist() == [3.75] * 5_000

    @pytest.mark.parametrize("fault, error", [
        (lambda line: "x" + line[1:], "could not convert string to float: 'x"),
        (lambda line: line.replace(",", ";"), "expected 3 fields"),
        (lambda line: " " * (len(line) - 1) + "\n", "expected 3 fields"),
        (lambda line: line.replace("3.75", " nan"), "non-finite value"),
    ], ids=["field", "width", "whitespace-line", "non-finite"])
    @pytest.mark.parametrize("where", ["first", "last-of-block-1", "first-of-block-2", "last"])
    def test_faulty_line_at_a_block_edge_is_named(self, tmp_path, fault, error, where):
        lines = _padded_body(5).splitlines(keepends=True)
        ended_in_first_read = "".join(lines).count("\n", 0, soc_io._READ_CHUNK)
        index = {"first": 0, "last-of-block-1": ended_in_first_read - 1,
                 "first-of-block-2": ended_in_first_read, "last": len(lines) - 1}[where]
        lines[index] = fault(lines[index])
        path = tmp_path / "p.csv"
        _assert_reader_matches_oracle("t,i,v\n" + "".join(lines), path)
        got = _outcome(_read_csv, path)
        assert got[0] is FormatError
        assert got[1].startswith(f"profile file line {index + 2}: {error}")

    @pytest.mark.parametrize("body", [
        "1,2,3",
        _padded_body(0)[: soc_io._READ_CHUNK] + "4000,2,3",  # the last line starts a read
        _padded_body(0)[: soc_io._READ_CHUNK - 1] + "5",  # the last line ends a read
        " " * (soc_io._READ_CHUNK + 10) + "1,2,3",  # one line longer than a read
    ], ids=["one-line", "starts-a-read", "ends-a-read", "longer-than-a-read"])
    def test_last_line_without_line_ending(self, tmp_path, body):
        text = "t,i,v\n" + body
        _assert_reader_matches_oracle(text, tmp_path / "p.csv")
        got = _outcome(_read_csv, tmp_path / "p.csv")
        assert got == _outcome(_read_csv, _written(tmp_path / "ended.csv", text + "\n"))
        assert isinstance(got, list)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=csv_texts(), size=st.integers(1, 9))
    def test_read_size_does_not_change_the_outcome(self, monkeypatch, text_file, text, size):
        path = text_file(text)
        want = _outcome(_read_csv, path)
        with monkeypatch.context() as patch:
            patch.setattr(soc_io, "_READ_CHUNK", size)
            assert _outcome(_read_csv, path) == want


# Cell documents that YAML 1.1 misreads or accepts in silence, as edits of
# the one `write_params` writes for the `cell` fixture: name -> (old text,
# new text, the error after "params document ").
MISREAD = {
    "boolean": ("r0: 0.050000000000000003", "r0: yes", "line 1: field 'r0' is not a number"),
    "base-60": ("q_max: 18000", "q_max: 5:00:00", "line 6: field 'q_max' is not a number"),
    "hex": ("q_max: 18000", "q_max: 0x4650", "line 6: field 'q_max' is not a number"),
    "underscore": ("q_max: 18000", "q_max: 18_000", "line 6: field 'q_max' is not a number"),
    "repeated-field": ("q_max: 18000\n", "q_max: 18000\nr0: 0.06\n",
                       "line 7: repeated field 'r0'"),
    "boolean-soc": ("  1: 4.2000000000000002\n", "  yes: 4.2000000000000002\n",
                    "line 58: 'yes' is not a number"),
    "repeated-soc": ("  0.5: 3.6250000000000004\n",
                     "  0.5: 3.6250000000000004\n  0.50: 3.6250000000000004\n",
                     "line 34: repeated key 0.50"),
    "flow-mapping": ("ocv:\n", "ocv: {0: 3, 1: 4}\ntable:\n",
                     "line 7: 'ocv' must be a non-empty soc -> voltage block"),
    "quoted": ("r0: 0.050000000000000003", 'r0: "0.05"', "line 1: field 'r0' is not a number"),
}


def _load_perfbench_inputs():
    """perfbench's input writers, imported as `perfbench/run.py` imports them."""
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        return importlib.import_module("inputs")
    finally:
        sys.path.remove(perfbench)


PERFBENCH_INPUTS = _load_perfbench_inputs()


def bits(values):
    return np.fromiter(values, dtype=float).view(np.int64).tolist()


def yaml_floats(path):
    """The oracle: the floats `yaml.safe_load` and `float` read from a cell
    document, its fields in `SCALAR_FIELDS` order, then the OCV grid, then
    its voltages."""
    doc = yaml.safe_load(Path(path).read_text())
    grid, volts = zip(*sorted((float(z), float(v)) for z, v in doc["ocv"].items()))
    return [*(float(doc[name]) for name in SCALAR_FIELDS if name in doc), *grid, *volts]


@st.composite
def cells(draw):
    """Valid cells across the float range; no -0.0 (see test_negative_zero_keeps_its_sign)."""
    positive = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)
    scalars = {name: draw(positive) for name in SCALAR_FIELDS}
    inner = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                          unique=True, max_size=6))
    grid = [0.0, *sorted(inner), 1.0]
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), unique=True,
                           min_size=len(grid), max_size=len(grid)))
    values = sorted(v + 0.0 for v in values)  # -0.0 + 0.0 is +0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return EcmParams(ocv=OcvTable(np.array(grid), np.array(values)), **scalars)
        except (ValueError, RuntimeWarning):  # an RC time constant or a slope out of range
            assume(False)


class TestParamsDocument:
    def test_round_trip_bit_exact(self, tmp_path, cell):
        write_params(cell, tmp_path / "cell.yaml")
        back = read_params(tmp_path / "cell.yaml")
        for name in ("r0", "r1", "c1", "r2", "c2", "q_max"):
            assert getattr(back, name) == getattr(cell, name)
        assert np.array_equal(back.ocv.soc_grid, cell.ocv.soc_grid)
        assert np.array_equal(back.ocv.ocv_values, cell.ocv.ocv_values)

    def test_missing_field_named(self, tmp_path, text_file, cell):
        write_params(cell, tmp_path / "cell.yaml")
        text = (tmp_path / "cell.yaml").read_text().replace("q_max:", "qmax:")
        with pytest.raises(FormatError, match="q_max"):
            read_params(text_file(text))

    def test_nonpositive_field_named(self, tmp_path, text_file, cell):
        write_params(cell, tmp_path / "cell.yaml")
        text = "\n".join(
            "r1: -0.015" if line.startswith("r1:") else line
            for line in (tmp_path / "cell.yaml").read_text().splitlines()
        )
        with pytest.raises(FormatError, match="r1"):
            read_params(text_file(text))

    def test_non_numeric_field_named(self, text_file):
        text = "r0: abc\nr1: 1\nc1: 1\nr2: 1\nc2: 1\nq_max: 1\nocv:\n  0: 3\n  1: 4\n"
        with pytest.raises(FormatError, match="r0"):
            read_params(text_file(text))

    def test_missing_ocv(self, text_file):
        text = "r0: 1\nr1: 1\nc1: 1\nr2: 1\nc2: 1\nq_max: 1\n"
        with pytest.raises(FormatError, match="ocv"):
            read_params(text_file(text))

    def test_non_mapping_document(self, text_file):
        with pytest.raises(FormatError, match=re.escape(
            "params document line 1: expected 'name: value' or 'name:' at column 0"
        ) + "$"):
            read_params(text_file("- a\n- b\n"))

    @pytest.mark.parametrize("text, name", [
        ("r1: [0.1\n", "r1"), ("r0: 1: 2\n", "r0"), ("r0: \x07\n", "r0"),
        ("r0: !!python/object:os.system x\n", "r0"),
    ])
    def test_malformed_yaml_is_format_error(self, text_file, text, name):
        with pytest.raises(FormatError, match=re.escape(
            f"params document line 1: field {name!r} is not a number"
        ) + "$"):
            read_params(text_file(text))

    def test_nan_ocv_node_rejected(self, text_file):
        text = "r0: 1\nr1: 1\nc1: 1\nr2: 1\nc2: 1\nq_max: 1\nocv:\n  0: 3\n  0.5: .nan\n  1: 4\n"
        with pytest.raises(FormatError, match=re.escape(
            "params document line 9: '.nan' is not a number"
        ) + "$"):
            read_params(text_file(text))

    @pytest.mark.parametrize("old, new, error", MISREAD.values(), ids=list(MISREAD))
    def test_yaml_misreading_refused(self, tmp_path, text_file, cell, old, new, error):
        write_params(cell, tmp_path / "cell.yaml")
        text = (tmp_path / "cell.yaml").read_text()
        assert old in text
        with pytest.raises(FormatError, match=f"^{re.escape('params document ' + error)}$"):
            read_params(text_file(text.replace(old, new, 1)))

    @pytest.mark.parametrize("old, new, error", [
        case for case in MISREAD.values() if case[0].startswith(("ocv:", "  "))
    ])
    def test_yaml_misreading_refused_in_an_ocv_table(self, tmp_path, text_file, cell, old, new,
                                                     error):
        # The table is the params document's last block, 6 lines up.
        write_ocv_table(cell.ocv, tmp_path / "ocv.yaml")
        text = (tmp_path / "ocv.yaml").read_text()
        lineno, fault = re.fullmatch(r"line (\d+): (.*)", error).groups()
        error = f"OCV table document line {int(lineno) - 6}: {fault}"
        with pytest.raises(FormatError, match=f"^{re.escape(error)}$"):
            read_ocv_table(text_file(text.replace(old, new, 1)))

    @pytest.mark.parametrize("text, lineno", [
        ("r0: 1\nocv:\n  0: 3\n r1: 1\n", 4),  # a field is at column 0
        ("r0: 1\n  0: 3\n", 2),  # a pair outside a block
        ("ocv:\n\t0: 3\n", 2),  # YAML indents with spaces only
        ("ocv:\n  0: 3 # volts\n", 2),
        ("r0: 1\n---\nr0: 2\n", 2),
        ("r0:1\n", 1),
        ("\ufeffr0: 1\n", 1),
    ])
    def test_other_lines_refused_with_their_number(self, text_file, text, lineno):
        with pytest.raises(FormatError, match=f"^params document line {lineno}: "):
            read_params(text_file(text))

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_comments_blank_lines_and_unread_fields_ignored(self, tmp_path, text_file, cell, eol):
        write_params(cell, tmp_path / "cell.yaml")
        lines = (tmp_path / "cell.yaml").read_text().splitlines()
        text = eol.join(["# a cell", "", "name: demo cell", "fitted:", "  1: 2", *lines[:7],
                         "  # the table", "  ", *lines[7:]])
        assert read_params(text_file(text)) == cell

    def test_negative_zero_keeps_its_sign(self, tmp_path, text_file, cell):
        # The writer spells -0.0 "-0", a YAML 1.1 integer, so PyYAML reads
        # +0.0 there; this reader returns what was written.
        table = OcvTable(np.array([-0.0, 1.0]), np.array([-0.0, 4.0]))
        write_ocv_table(table, tmp_path / "ocv.yaml")
        assert (tmp_path / "ocv.yaml").read_text() == "ocv:\n  -0: -0\n  1: 4\n"
        back = read_ocv_table(tmp_path / "ocv.yaml")
        assert np.signbit(back.soc_grid[0]) and np.signbit(back.ocv_values[0])

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_same_floats_as_yaml(self, tmp_path, data):
        cell, path = data.draw(cells()), tmp_path / "cell.yaml"
        for write in (write_params, lambda c, p: PERFBENCH_INPUTS.write_params_doc(p, c)):
            write(cell, path)
            got = read_params(path)
            assert bits([*(getattr(got, name) for name in SCALAR_FIELDS), *got.ocv.soc_grid,
                         *got.ocv.ocv_values]) == bits(yaml_floats(path))
        for write in (write_ocv_table, lambda t, p: PERFBENCH_INPUTS.write_ocv_table_doc(p, t)):
            write(cell.ocv, path)
            got = read_ocv_table(path)
            assert bits([*got.soc_grid, *got.ocv_values]) == bits(yaml_floats(path))


class TestOcvTableDocument:
    def test_round_trip_bit_exact(self, tmp_path, ocv_table):
        write_ocv_table(ocv_table, tmp_path / "ocv.yaml")
        back = read_ocv_table(tmp_path / "ocv.yaml")
        assert np.array_equal(back.soc_grid, ocv_table.soc_grid)
        assert np.array_equal(back.ocv_values, ocv_table.ocv_values)

    def test_non_monotone_rejected(self, text_file):
        text = "ocv:\n  0.0: 3.5\n  0.5: 3.4\n  1.0: 3.6\n"
        with pytest.raises(FormatError, match="ocv"):
            read_ocv_table(text_file(text))

    def test_missing_key(self, text_file):
        with pytest.raises(FormatError, match="ocv"):
            read_ocv_table(text_file("table:\n  0: 3\n"))


class TestResultWriters:
    def test_estimate_csv_headers(self, tmp_path):
        write_estimate_csv([0.0, 1.0], [0.5, 0.6], tmp_path / "e.csv", z_true=[0.5, 0.59])
        lines = (tmp_path / "e.csv").read_text().splitlines()
        assert lines[0] == "t,z_est,z_true"
        assert len(lines) == 3

    def test_estimate_csv_without_truth(self, tmp_path):
        write_estimate_csv([0.0], [0.5], tmp_path / "e.csv")
        assert (tmp_path / "e.csv").read_text().splitlines()[0] == "t,z_est"

    def test_bench_csv_layout(self, tmp_path):
        rows = ((1.0, "ekf", 0.5, 0.4, 0.6), (2.0, "cc", 3.0, 2.5, 3.5))
        write_bench_csv(rows, tmp_path / "b.csv")
        lines = (tmp_path / "b.csv").read_text().splitlines()
        assert lines[0] == "axis_value,estimator,mae_mean,ci_lo,ci_hi"
        assert lines[1].split(",")[1] == "ekf"
        assert float(lines[2].split(",")[2]) == 3.0


class TestWriterRoundTrip:
    """Result CSVs read back through the shared reader, bit for bit."""

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025])
    def test_estimate_csv(self, tmp_path, n):
        rng = np.random.default_rng(n)
        t = np.cumsum(rng.uniform(1e-3, 10.0, n))
        z_est, z_true = rng.uniform(0.0, 1.0, (2, n))
        write_estimate_csv(t, z_est, tmp_path / "e.csv", z_true=z_true)
        back = _read_csv(tmp_path / "e.csv", (("t", "z_est", "z_true"),), "estimate")
        for got, want in zip(back, (t, z_est, z_true)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1023, 1024, 1025])
    def test_trajectory_csv(self, tmp_path, cell, n):
        rng = np.random.default_rng(n)
        profile = Profile(np.cumsum(rng.uniform(0.1, 2.0, n)), rng.normal(scale=3.0, size=n))
        trajectory = simulate(cell, CellState(z=0.5, v_r1=0.01), profile)
        write_trajectory_csv(profile, trajectory, tmp_path / "traj.csv")
        header = ("t", "i", "v", "z", "v_r1", "v_r2")
        t, i, v, z, v_r1, v_r2 = _read_csv(tmp_path / "traj.csv", (header,), "trajectory")
        sim_z, sim_v_r1, sim_v_r2, sim_v, _ = trajectory
        assert np.array_equal(t, profile.t)
        assert np.array_equal(i, profile.i)
        assert np.array_equal(v, sim_v)
        assert np.array_equal(z, sim_z)
        assert np.array_equal(v_r1, sim_v_r1)
        assert np.array_equal(v_r2, sim_v_r2)

    def test_column_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="same length"):
            write_estimate_csv([0.0, 1.0], [0.5], tmp_path / "e.csv")


# Doubles whose 17-digit text is easy to get wrong: the sign of zero, the
# smallest subnormal, the smallest normal, the largest finite, an inexact
# decimal, one, and an integer past 2**53.
AWKWARD = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1.0, 1e16]


def _text(path):
    """The file's text, its line endings untranslated."""
    return path.read_bytes().decode()


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
    def test_write_rows(self, tmp_path, n, width):
        header = tuple(f"c{j}" for j in range(width))
        columns = self.columns(n, width)
        _write_columns(tmp_path / "c.csv", header, *columns)
        assert _text(tmp_path / "c.csv") == _golden(header, zip(*columns))

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049])
    def test_estimate_csv(self, tmp_path, n):
        t, z_est, z_true = self.columns(n, 3)
        path = tmp_path / "e.csv"
        write_estimate_csv(t, z_est, path)
        assert _text(path) == _golden(("t", "z_est"), zip(t, z_est))
        write_estimate_csv(t, z_est, path, z_true=z_true)
        assert _text(path) == _golden(("t", "z_est", "z_true"), zip(t, z_est, z_true))

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049])
    def test_trajectory_csv(self, tmp_path, n):
        t = np.arange(1.0, n + 1.0) * 0.1
        i, v, z, v_r1, v_r2 = self.columns(n, 5)
        profile = Profile(t, i)
        trajectory = (z, v_r1, v_r2, v, np.zeros(n, dtype=bool))
        write_trajectory_csv(profile, trajectory, tmp_path / "traj.csv")
        header = ("t", "i", "v", "z", "v_r1", "v_r2")
        assert _text(tmp_path / "traj.csv") == _golden(header, zip(t, i, v, z, v_r1, v_r2))

    def test_trajectory_length_mismatch_rejected(self, tmp_path, cell):
        profile = Profile.uniform(np.zeros(3))
        trajectory = tuple(a[:2] for a in simulate(cell, CellState(z=0.5), profile))
        with pytest.raises(ValueError, match="trajectory has 2 samples, profile has 3"):
            write_trajectory_csv(profile, trajectory, tmp_path / "traj.csv")


class TestManifest:
    def test_file_digest_is_stable(self, tmp_path):
        f = tmp_path / "x.csv"
        f.write_text("t,i\n1,2\n")
        d1 = file_digest(f)
        assert d1.startswith("sha256:")
        assert d1 == file_digest(f)

    # Empty, one byte, and either side of one and of 64 read chunks.
    @pytest.mark.parametrize("size", [0, 1, 65_535, 65_536, 65_537, 4 << 20])
    # file_digest prefers _sha2 (Python 3.12+), then _sha256 (3.10, 3.11),
    # then hashlib; blocking the first one or two runs each branch.
    @pytest.mark.parametrize("blocked", [(), ("_sha2",), ("_sha2", "_sha256")],
                             ids=["builtin", "no-sha2", "hashlib"])
    def test_file_digest_matches_hashlib(self, tmp_path, monkeypatch, size, blocked):
        for name in blocked:
            monkeypatch.setitem(sys.modules, name, None)
        data = np.random.default_rng(size).bytes(size)
        path = tmp_path / "data.bin"
        path.write_bytes(data)
        assert file_digest(path) == "sha256:" + hashlib.sha256(data).hexdigest()


# Runs each labelled command of its first argument (a JSON object of argv
# lists) in one process and prints, per label, whether by then OpenSSL's
# `_hashlib` was loaded (the CLI leaves a None entry in its place), whether
# libcrypto was mapped (None without /proc/self/maps) and which of a process
# pool's modules and PyYAML were imported.
_OPENSSL_PROBE = """\
import json, sys
from socest.cli import main
def libcrypto_mapped():
    try:
        with open("/proc/self/maps") as maps:
            return "libcrypto" in maps.read()
    except FileNotFoundError:
        return None
loaded = {}
for label, argv in json.loads(sys.argv[1]).items():
    assert main(argv) == 0, argv
    loaded[label] = [sys.modules.get("_hashlib") is not None, libcrypto_mapped(),
                     [m for m in ("concurrent.futures", "multiprocessing", "yaml")
                      if m in sys.modules]]
print(json.dumps(loaded))
"""


def run_python(code, *args, cwd):
    """`python -c code *args` in `cwd`, with `socest` importable."""
    env = dict(os.environ, PYTHONPATH=str(Path(socest.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_commands_that_hash_inputs_never_load_openssl(tmp_path, cell):
    # OpenSSL costs about 3.5 MB resident. file_digest uses CPython's own
    # SHA-256, and the CLI keeps `hmac` and `hashlib`, which numpy.random
    # imports, on their built-in fallbacks. A --jobs 2 sweep forks its own
    # workers, so no command imports a process pool either (about 2 MB).
    # socest reads its cell documents itself, so none imports PyYAML (about
    # 0.9 MB).
    rng = np.random.default_rng(3)
    write_params(cell, tmp_path / "cell.yaml")
    drive = Profile.uniform(rng.uniform(-2.0, 2.0, 200))
    _, _, _, v, _ = simulate_arrays(cell, CellState(z=0.8), drive)
    write_profile(drive.with_signals(v=v), tmp_path / "drive.csv")
    ramp = np.concatenate([[0.0], np.ones(100)])  # 1 A over a 100 C cell
    z = np.cumsum(ramp) / 100.0
    for name, i, ocv in (("charge", ramp, z), ("discharge", -ramp, z[::-1])):
        write_profile(Profile.uniform(i).with_signals(v=3.2 + 0.7 * ocv), tmp_path / f"{name}.csv")
    pulse = make_incremental_current_profile(1.0, 120.0, 240.0, 2)
    pulse = pulse.with_signals(v=predict_voltage(cell, pulse, CellState(z=0.2)))
    write_profile(pulse, tmp_path / "pulse.csv")
    write_ocv_table(cell.ocv, tmp_path / "ocv.yaml")
    init = [str(2 * getattr(cell, k)) for k in ("r0", "r1", "r2", "c1", "c2")]
    tiny_sweep = ["--params", "cell.yaml", "--trials", "1", "--duration", "120"]
    commands = {
        "estimate": ["estimate", "--params", "cell.yaml", "--profile", "drive.csv",
                     "--out", "est.csv"],
        "simulate": ["simulate", "--params", "cell.yaml", "--profile", "drive.csv",
                     "--out", "traj.csv"],
        "fit-ocv": ["fit-ocv", "--charge", "charge.csv", "--discharge", "discharge.csv",
                    "--q-max", "100", "--out", "ocv-fit.yaml"],
        "fit-params": ["fit-params", "--profile", "pulse.csv", "--ocv", "ocv.yaml", "--q-max",
                       str(cell.q_max), "--init", *init, "--init-soc", "0.2",
                       "--out", "fit.yaml", "--report", "fit.json"],
        "benchmark": ["benchmark", "--axis", "noise_power", "--values", "1",
                      "--estimators", "cc", *tiny_sweep, "--out", "bench.csv"],
        "sweep-window --jobs 1": ["sweep-window", "--values", "16", *tiny_sweep,
                                  "--jobs", "1", "--out", "w1.csv"],
        "sweep-window --jobs 2": ["sweep-window", "--values", "16", *tiny_sweep,
                                  "--jobs", "2", "--out", "w2.csv"],
    }
    loaded = json.loads(run_python(_OPENSSL_PROBE, json.dumps(commands), cwd=tmp_path))
    mapped = False if Path("/proc/self/maps").exists() else None
    assert loaded == dict.fromkeys(commands, [False, mapped, []])
    # Four trials (one per estimator): two workers ran wherever two CPUs are usable.
    manifest = json.loads((tmp_path / "w2.csv.manifest.json").read_text())
    cpus = len(os.sched_getaffinity(0)) if sys.platform.startswith("linux") else 1
    assert manifest["workers"] == min(2, cpus)


# A CLI process that has loaded OpenSSL before `main()` runs.
_OPENSSL_FIRST = """\
import hashlib, sys
from socest.cli import main
assert sys.modules["_hashlib"] is not None
sys.exit(main(sys.argv[1:]))
"""


def test_sweep_outputs_do_not_depend_on_openssl(tmp_path, cell):
    pytest.importorskip("_hashlib")
    write_params(cell, tmp_path / "cell.yaml")
    argv = ["sweep-window", "--values", "16", "64", "--params", "cell.yaml", "--trials", "2",
            "--duration", "300", "--seed", "5", "--jobs", "2"]
    plain = "import sys\nfrom socest.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    for name, code in (("plain", plain), ("openssl", _OPENSSL_FIRST)):
        run_python(code, *argv, "--out", f"{name}.csv", cwd=tmp_path)
    for suffix in (".csv", ".csv.manifest.json"):
        assert (tmp_path / f"plain{suffix}").read_bytes() == (
            tmp_path / f"openssl{suffix}").read_bytes()


def test_in_process_main_keeps_a_loaded_hashlib(tmp_path, cell):
    openssl = pytest.importorskip("_hashlib")
    write_params(cell, tmp_path / "cell.yaml")
    assert main([
        "sweep-window", "--values", "16", "--params", str(tmp_path / "cell.yaml"),
        "--trials", "1", "--duration", "120", "--estimators", "cc",
        "--out", str(tmp_path / "w.csv"),
    ]) == 0
    assert sys.modules["_hashlib"] is openssl


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes tracemalloc saw while it ran)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_file_digest_holds_one_chunk(self, tmp_path):
        data = np.random.default_rng(5).bytes(4 << 20)  # 64 chunks
        path = tmp_path / "big.bin"
        path.write_bytes(data)
        digest, peak = traced_peak(file_digest, path)
        assert digest == "sha256:" + hashlib.sha256(data).hexdigest()
        assert peak < 2 * soc_io._DIGEST_CHUNK

    def test_read_profile_holds_one_table(self, tmp_path):
        # The columns are views of one parsed (n, 3) table. Beyond it, the
        # read may hold a quarter more for the table's growth, and one block
        # of text being parsed: a 64 KiB read and its lines.
        n = 100_000
        rng = np.random.default_rng(6)
        profile = Profile.uniform(rng.uniform(-4.0, 4.0, n)).with_signals(
            v=rng.uniform(3.5, 4.0, n))
        path = tmp_path / "p.csv"
        write_profile(profile, path)

        got, peak = traced_peak(read_profile, path)
        assert np.array_equal(got.t, profile.t) and np.array_equal(got.v, profile.v)
        assert np.may_share_memory(got.t, got.v)  # columns of one table
        assert peak <= 1.25 * 3 * n * 8 + (512 << 10)
