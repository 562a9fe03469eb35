"""File formats: profile CSVs, cell documents, result CSVs, input digests.

Every reader and writer takes a path and opens the file itself. All
floating-point output uses 17-significant-digit decimal text, which
round-trips IEEE doubles exactly. Readers validate and reject; nothing is
silently repaired.
"""
from __future__ import annotations

import re
import warnings

import numpy as np

from .ecm import SCALAR_FIELDS, EcmParams, OcvTable, Profile

__all__ = [
    "FormatError",
    "read_profile",
    "write_profile",
    "read_truth",
    "read_params",
    "write_params",
    "read_ocv_table",
    "write_ocv_table",
    "write_estimate_csv",
    "write_trajectory_csv",
    "write_bench_csv",
    "file_digest",
]


class FormatError(ValueError):
    """Malformed or invalid input document."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# Characters per read when parsing a CSV.
_READ_CHUNK = 1 << 16
# The ASCII file, group, record and unit separators: loadtxt strips them
# from a field as whitespace, `float` refuses them.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _read_csv(path, headers, name: str) -> tuple[np.ndarray, ...]:
    """Parse a numeric CSV whose header is one of `headers`; one array per column.

    The header is the first line (ended by "\n", "\r\n" or a lone "\r"),
    split at "," as a row is, each name stripped. The rest is read
    `_READ_CHUNK` characters at a time, split at "\n" only, each block of
    whole lines parsed by one `np.loadtxt` call. A field is a number as
    loadtxt spells one, with whitespace around it; a line may end in "\r".
    A block counts only with one row per line, the header's width, every
    value finite and none of `_SEPARATORS`. It is copied into one (n, w)
    table that grows by a quarter when full, and the columns are returned
    as views of it.

    Every error is a FormatError naming the `name` file: an empty file,
    another header (a quoted one among them), no rows at all, or the first
    faulty line, whatever its fault: the wrong number of fields (a blank
    line included), a field that is not a number (a quoted field, `1_5`,
    non-ASCII digits and a "\r" inside a line among them), or a value that
    is not finite.
    """
    with open(path, "r", newline="") as fh:
        line = fh.readline()
        if not line:
            raise FormatError(f"empty {name} file")
        header = tuple(h.strip() for h in line.split(","))
        if header not in headers:
            allowed = " or ".join(repr(",".join(h)) for h in headers)
            raise FormatError(
                f"{name} file: expected header {allowed}, got {','.join(header)!r}"
            )
        width = len(header)
        table = np.empty((0, width))
        n = 0  # rows filled
        tail = ""  # a line not yet ended
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            while (chunk := fh.read(_READ_CHUNK)) or tail:
                text = tail + chunk
                lines = text.split("\n")
                tail = lines.pop() if chunk else ""  # after the last read, the last line
                end = len(text) - len(tail)  # the new tail is checked with the next block
                suspect = any(text.find(c, 0, end) >= 0 for c in _SEPARATORS)
                # Each block's buffers are freed before the next are made, and
                # loadtxt, told its row count, sizes its result once: the heap
                # then reuses the same places block after block.
                del chunk, text
                if not lines:
                    continue  # a line longer than one read
                try:
                    block = np.loadtxt(
                        lines, delimiter=",", comments=None, ndmin=2, max_rows=len(lines)
                    )
                except ValueError:
                    block = None
                if (
                    suspect or block is None or block.shape != (len(lines), width)
                    or not np.isfinite(block).all()
                ):
                    for lineno, line in enumerate(lines, start=n + 2):
                        if fault := _line_fault(line, width):
                            raise FormatError(f"{name} file line {lineno}: {fault}")
                    # loadtxt reads each field of a line alone, as _line_fault does.
                    raise AssertionError("a refused block has no faulty line")
                if n + len(lines) > len(table):
                    table.resize((max(n + len(lines), len(table) * 5 // 4), width), refcheck=False)
                table[n : n + len(lines)] = block
                n += len(lines)
                del block, lines
    if not n:
        raise FormatError(f"{name} file contains no samples")
    table.resize((n, width), refcheck=False)
    return tuple(table.T)


def _line_fault(line: str, width: int) -> str:
    """What keeps one line from being `width` finite numbers, in the words
    of `float`; "" for a good line."""
    fields = line.removesuffix("\r").split(",")
    if len(fields) != width:
        return f"expected {width} fields"
    values = []
    for field in fields:
        try:
            # loadtxt would end the line at a "\r" and strip a separator.
            if any(c in field for c in "\r" + _SEPARATORS):
                raise ValueError
            (value,) = np.loadtxt([field], delimiter=",", comments=None, ndmin=1)
        except ValueError:
            return f"could not convert string to float: {field!r}"
        values.append(value)
    return "" if np.isfinite(values).all() else "non-finite value"


# Rows per formatted block. 1,024-row blocks wrote as fast but raised the peak
# RSS of `estimate` on a 36k-row profile by about 0.6 MB.
_BLOCK = 256


def _write_columns(path, header: tuple[str, ...], *columns: np.ndarray) -> None:
    """Write a CSV header, then equal-length columns as rows.

    Each `_BLOCK` rows are one `str.format` call on the line template (17 digits
    a number, a string as is) repeated once per row: one block's text at a time.
    """
    n, width = columns[0].size, len(columns)
    if any(c.size != n for c in columns):
        raise ValueError("columns must have the same length")
    line = ",".join("{}" if c.dtype.kind == "U" else "{:.17g}" for c in columns) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, _BLOCK):
            flat = [None] * (width * min(_BLOCK, n - lo))
            for j, column in enumerate(columns):
                flat[j::width] = column[lo : lo + _BLOCK].tolist()
            fh.write((line * (len(flat) // width)).format(*flat))


def read_profile(path) -> Profile:
    """Parse a `t,i[,v]` CSV into a Profile."""
    t, i, *v = _read_csv(path, (("t", "i", "v"), ("t", "i")), "profile")
    try:
        return Profile(t, i, v[0] if v else None)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def write_profile(profile: Profile, path) -> None:
    columns = (profile.t, profile.i) + ((profile.v,) if profile.has_voltage else ())
    _write_columns(path, ("t", "i", "v")[: len(columns)], *columns)


def read_truth(path, t) -> np.ndarray:
    """True SoC from a `t,z` CSV; its timestamps must equal `t` exactly."""
    t_true, z = _read_csv(path, (("t", "z"),), "truth")
    if t_true.size != len(t):
        raise FormatError(f"truth file has {t_true.size} samples, profile has {len(t)}")
    mismatch = np.nonzero(t_true != t)[0]
    if mismatch.size:
        k = int(mismatch[0])
        raise FormatError(
            f"truth file line {k + 2}: t = {_fmt(t_true[k])} differs from the "
            f"profile's {_fmt(t[k])}"
        )
    return z


def _write_ocv(fh, table: OcvTable) -> None:
    fh.write("ocv:\n")
    for z, v in zip(table.soc_grid, table.ocv_values):
        fh.write(f"  {_fmt(z)}: {_fmt(v)}\n")


# A number in a cell document: an ASCII decimal literal, read by `float`. No
# digit follows a leading zero, as YAML 1.1 reads `017` as octal 15.
_NUMBER = re.compile(r"[-+]?(?:(?:0|[1-9][0-9]*)(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")
_FIELD = re.compile(r"([A-Za-z_][A-Za-z0-9_]*):(?:[ \t]+(.*?))?[ \t]*")
_PAIR = re.compile(r" +([^ \t:]+): +([^ \t]+)[ \t]*")


def _number(text, where: str, what: str) -> float:
    """`text` as a float; a FormatError "`where`: `what` is not a number" if
    it is not a string holding one ASCII decimal literal (a block is not)."""
    if not (isinstance(text, str) and _NUMBER.fullmatch(text)):
        raise FormatError(f"{where}: {what} is not a number")
    return float(text)


def _load_mapping(path, what: str) -> dict:
    """A cell document as {name: (where, value)}, in document order.

    The grammar is what `write_params` and `write_ocv_table` emit. Each line
    ("\n" or "\r\n" ended) is blank (spaces only), a `#` comment,
    `name: value` or `name:` at column 0, or, under a `name:`, an indented
    `number: number` pair. A value is kept as text, to be read where it is
    used; a `name:` block is a {key: value} dict of floats. `where` names
    `what` and the field's line. Every refusal is a FormatError naming `what`
    and the line: any other line (a YAML sequence item, a document marker and
    a tab-indented line among them), a repeated name, a pair that is not two
    numbers (YAML's booleans, `0x`, `_`, base 60 and `.nan` among them) and a
    repeated key, compared by value.
    """
    with open(path, "r", newline="") as fh:
        lines = fh.read().split("\n")
    doc = {}
    block = None  # the pairs of the open `name:` block
    for lineno, line in enumerate(lines, start=1):
        line = line.removesuffix("\r")
        if line.lstrip(" ")[:1] in ("", "#"):
            continue
        where = f"{what} line {lineno}"
        if line[0] == " " and block is not None:
            if not (pair := _PAIR.fullmatch(line)):
                raise FormatError(f"{where}: expected an indented 'number: number' pair")
            key, value = (_number(text, where, repr(text)) for text in pair.groups())
            if key in block:
                raise FormatError(f"{where}: repeated key {pair[1]}")
            block[key] = value
        elif field := _FIELD.fullmatch(line):
            name, value = field.groups()
            if name in doc:
                raise FormatError(f"{where}: repeated field {name!r}")
            block = {} if value is None else None
            doc[name] = (where, value if block is None else block)
        else:
            raise FormatError(f"{where}: expected 'name: value' or 'name:' at column 0")
    return doc


def _ocv_from_doc(doc: dict) -> OcvTable:
    if "ocv" not in doc:
        raise FormatError("missing field 'ocv'")
    where, ocv = doc["ocv"]
    if not isinstance(ocv, dict) or not ocv:
        raise FormatError(f"{where}: 'ocv' must be a non-empty soc -> voltage block")
    grid, vals = zip(*sorted(ocv.items()))
    try:
        return OcvTable(np.array(grid), np.array(vals))
    except ValueError as exc:
        raise FormatError(f"{where}: ocv: {exc}") from None


def write_params(params: EcmParams, path) -> None:
    """Emit the cell config document (key-value with a nested OCV table)."""
    with open(path, "w", newline="") as fh:
        for name in SCALAR_FIELDS:
            fh.write(f"{name}: {_fmt(getattr(params, name))}\n")
        _write_ocv(fh, params.ocv)


def read_params(path) -> EcmParams:
    doc = _load_mapping(path, "params document")
    scalars = {name: _number(value, where, f"field {name!r}")
               for name, (where, value) in doc.items() if name in SCALAR_FIELDS}
    for name in SCALAR_FIELDS:
        if name not in scalars:
            raise FormatError(f"missing field {name!r}")
    ocv = _ocv_from_doc(doc)
    try:
        return EcmParams(ocv=ocv, **scalars)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def write_ocv_table(table: OcvTable, path) -> None:
    with open(path, "w", newline="") as fh:
        _write_ocv(fh, table)


def read_ocv_table(path) -> OcvTable:
    return _ocv_from_doc(_load_mapping(path, "OCV table document"))


def write_estimate_csv(t, z_est, path, z_true=None) -> None:
    columns = [np.asarray(t, dtype=float), np.asarray(z_est, dtype=float)]
    if z_true is not None:
        columns.append(np.asarray(z_true, dtype=float))
    _write_columns(path, ("t", "z_est", "z_true")[: len(columns)], *columns)


def write_trajectory_csv(profile: Profile, trajectory, path) -> None:
    """Simulated trajectory: `t,i,v,z,v_r1,v_r2` (one row per sample).

    `trajectory` is the `(z, v_r1, v_r2, voltage, saturated)` arrays that
    `ecm.simulate` returns, one entry per profile sample; `saturated` is not
    written.
    """
    z, v_r1, v_r2, voltage, _ = trajectory
    if len(z) != len(profile):
        raise ValueError(f"trajectory has {len(z)} samples, profile has {len(profile)}")
    _write_columns(
        path, ("t", "i", "v", "z", "v_r1", "v_r2"),
        profile.t, profile.i, voltage, z, v_r1, v_r2,
    )


def write_bench_csv(rows, path) -> None:
    """Tidy sweep output, one line per `run_sweep` row:
    `axis_value,estimator,mae_mean,ci_lo,ci_hi`."""
    axis_values, kinds, *stats = zip(*rows) if rows else [()] * 5
    _write_columns(path, ("axis_value", "estimator", "mae_mean", "ci_lo", "ci_hi"),
                   np.array(axis_values, dtype=float), np.array(kinds, dtype=str),
                   *np.array(stats, dtype=float))


# Bytes per read when hashing an input file.
_DIGEST_CHUNK = 1 << 16


def _sha256():
    """A fresh SHA-256 from CPython's built-in module, which links no
    libcrypto: the OpenSSL-backed module would add about 3.5 MB resident to
    every command that hashes an input and otherwise never loads OpenSSL."""
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256()


def file_digest(path) -> str:
    """`sha256:<hex>` of a file, read into one reused `_DIGEST_CHUNK` buffer."""
    sha = _sha256()
    block = memoryview(bytearray(_DIGEST_CHUNK))
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(block):
            sha.update(block[:n])
    return "sha256:" + sha.hexdigest()
