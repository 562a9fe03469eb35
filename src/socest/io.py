"""File formats: profile CSVs, parameter config documents, result CSVs, manifests.

All floating-point output uses 17-significant-digit decimal text, which
round-trips IEEE doubles exactly. Readers validate and reject; nothing is
silently repaired.
"""
from __future__ import annotations

import csv
import hashlib
import json
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import chain, islice
from pathlib import Path

import numpy as np
import yaml

from .ecm import EcmParams, OcvTable, Profile

__all__ = [
    "FormatError",
    "RunManifest",
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


_SCALARS = ("r0", "r1", "c1", "r2", "c2", "q_max")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@contextmanager
def _opened(path_or_file, mode: str):
    """Yield an open file; a path is opened (and closed) here, a file passed through."""
    if hasattr(path_or_file, "read") or hasattr(path_or_file, "write"):
        yield path_or_file
    else:
        with open(path_or_file, mode, newline="") as fh:
            yield fh


def _read_csv(path_or_file, headers, name: str) -> tuple[np.ndarray, ...]:
    """Parse a numeric CSV whose header is one of `headers`; one array per column.

    Every error is a FormatError naming the `name` file and, for a bad row, its
    line: an empty file, another header, a row of the wrong width, a field that
    is not a number or not finite, no rows at all. A seekable file is parsed by
    `_load_table` in one C pass; where that pass declines, the file is read
    again by `_walk_rows` with `csv` and `float`, which also reads a file that
    cannot seek back.
    """
    with _opened(path_or_file, "r") as fh:
        try:
            start = fh.tell() if fh.seekable() else None
        except (AttributeError, OSError):  # not an io object, or a text file mid-iteration
            start = None
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
        if start is not None:
            table = _load_table(fh, len(header))
            if table is not None:
                return tuple(np.ascontiguousarray(table.T))
            fh.seek(start)
            reader = csv.reader(fh)
            next(reader)
        return _walk_rows(reader, len(header), name)


def _load_table(fh, width: int) -> np.ndarray | None:
    """The rest of `fh` as an (n, width) array read by `np.loadtxt`, or None.

    loadtxt refuses some fields that `float` accepts (quotes, `1_5`, non-ASCII
    digits) and skips blank lines that `_walk_rows` rejects, so its result
    counts only with one row per line given, `width` columns and every value
    finite; None leaves the verdict, and the error's line, to `_walk_rows`.
    """
    n_lines = 0

    def lines():
        # 64 KiB at a time, split at "\n" only: a line keeps the "\r" of a
        # "\r\n", which loadtxt drops, and loadtxt refuses a line with a lone
        # "\r" inside, which `csv` would end a row at.
        nonlocal n_lines
        tail = ""
        while chunk := fh.read(1 << 16):
            block = (tail + chunk).split("\n")
            tail = block.pop()
            n_lines += len(block)
            yield block
        if tail:
            n_lines += 1
            yield [tail]

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            table = np.loadtxt(
                chain.from_iterable(lines()), delimiter=",", comments=None, ndmin=2
            )
    except ValueError:
        return None
    if table.shape != (n_lines, width) or not np.isfinite(table).all():
        return None
    return table


def _walk_rows(reader, width: int, name: str) -> tuple[np.ndarray, ...]:
    """Check and convert `reader`'s rows 1024 at a time, so no Python float
    outlives its chunk; only a chunk that fails is walked row by row, to name
    its first bad line."""
    chunks = []
    first = 2  # line number of the chunk's first row
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


# Rows per formatted block. 1,024-row blocks wrote as fast but raised the peak
# RSS of `estimate` on a 36k-row profile by about 0.6 MB.
_BLOCK = 256


def _write_rows(path_or_file, header: tuple[str, ...], blocks) -> None:
    """Write a CSV header, then each block: a flat row-major list of floats.

    A block's lines come from one `str.format` call on the 17-digit line
    template repeated once per row, so only one block's text is alive at once.
    """
    width = len(header)
    line = ",".join(["{:.17g}"] * width) + "\n"
    with _opened(path_or_file, "w") as fh:
        fh.write(",".join(header) + "\n")
        for flat in blocks:
            fh.write((line * (len(flat) // width)).format(*flat))


def _interleave(columns: list[list]) -> list:
    """Equal-length columns as one flat row-major list."""
    flat = [None] * (len(columns) * len(columns[0]))
    for j, column in enumerate(columns):
        flat[j :: len(columns)] = column
    return flat


def _column_blocks(*columns: np.ndarray):
    """`_write_rows` blocks of Python floats from equal-length arrays."""
    if any(c.size != columns[0].size for c in columns):
        raise ValueError("columns must have the same length")
    for lo in range(0, columns[0].size, _BLOCK):
        yield _interleave([c[lo : lo + _BLOCK].tolist() for c in columns])


def read_profile(path_or_file) -> Profile:
    """Parse a `t,i[,v]` CSV into a Profile."""
    t, i, *v = _read_csv(path_or_file, (("t", "i", "v"), ("t", "i")), "profile")
    try:
        return Profile(t, i, v[0] if v else None)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def write_profile(profile: Profile, path_or_file) -> None:
    columns = (profile.t, profile.i) + ((profile.v,) if profile.has_voltage else ())
    _write_rows(path_or_file, ("t", "i", "v")[: len(columns)], _column_blocks(*columns))


def read_truth(path_or_file, t) -> np.ndarray:
    """True SoC from a `t,z` CSV; its timestamps must equal `t` exactly."""
    t_true, z = _read_csv(path_or_file, (("t", "z"),), "truth")
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


def _load_mapping(path_or_file, what: str) -> dict:
    with _opened(path_or_file, "r") as fh:
        try:
            doc = yaml.safe_load(fh.read())
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
            problem = getattr(exc, "problem", None) or exc
            raise FormatError(f"{what} is not valid YAML{where}: {problem}") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{what} must be a mapping")
    return doc


def _ocv_from_doc(doc: dict) -> OcvTable:
    if "ocv" not in doc:
        raise FormatError("missing field 'ocv'")
    ocv = doc["ocv"]
    if not isinstance(ocv, dict) or not ocv:
        raise FormatError("'ocv' must be a non-empty soc -> voltage mapping")
    try:
        pairs = sorted((float(k), float(v)) for k, v in ocv.items())
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad ocv table entry: {exc}") from None
    grid, vals = zip(*pairs)
    try:
        return OcvTable(np.array(grid), np.array(vals))
    except ValueError as exc:
        raise FormatError(f"ocv: {exc}") from None


def write_params(params: EcmParams, path_or_file) -> None:
    """Emit the cell config document (key-value with a nested OCV table)."""
    with _opened(path_or_file, "w") as fh:
        for name in _SCALARS:
            fh.write(f"{name}: {_fmt(getattr(params, name))}\n")
        _write_ocv(fh, params.ocv)


def read_params(path_or_file) -> EcmParams:
    doc = _load_mapping(path_or_file, "params document")
    scalars = {}
    for name in _SCALARS:
        if name not in doc:
            raise FormatError(f"missing field {name!r}")
        try:
            scalars[name] = float(doc[name])
        except (TypeError, ValueError):
            raise FormatError(f"field {name!r} is not a number") from None
    ocv = _ocv_from_doc(doc)
    try:
        return EcmParams(ocv=ocv, **scalars)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def write_ocv_table(table: OcvTable, path_or_file) -> None:
    with _opened(path_or_file, "w") as fh:
        _write_ocv(fh, table)


def read_ocv_table(path_or_file) -> OcvTable:
    return _ocv_from_doc(_load_mapping(path_or_file, "OCV table document"))


def write_estimate_csv(t, z_est, path_or_file, z_true=None) -> None:
    columns = [np.asarray(t, dtype=float), np.asarray(z_est, dtype=float)]
    if z_true is not None:
        columns.append(np.asarray(z_true, dtype=float))
    _write_rows(
        path_or_file, ("t", "z_est", "z_true")[: len(columns)], _column_blocks(*columns)
    )


def write_trajectory_csv(profile: Profile, trajectory, path_or_file) -> None:
    """Simulated trajectory: `t,i,v,z,v_r1,v_r2` (one row per sample).

    `trajectory` is the `(z, v_r1, v_r2, voltage, saturated)` arrays that
    `ecm.simulate` returns, one entry per profile sample; `saturated` is not
    written.
    """
    z, v_r1, v_r2, voltage, _ = trajectory
    if len(z) != len(profile):
        raise ValueError(f"trajectory has {len(z)} samples, profile has {len(profile)}")
    _write_rows(
        path_or_file, ("t", "i", "v", "z", "v_r1", "v_r2"),
        _column_blocks(profile.t, profile.i, voltage, z, v_r1, v_r2),
    )


def write_bench_csv(result, path_or_file) -> None:
    """Tidy sweep output: `axis_value,estimator,mae_mean,ci_lo,ci_hi`."""
    with _opened(path_or_file, "w") as fh:
        fh.write("axis_value,estimator,mae_mean,ci_lo,ci_hi\n")
        for axis_value, kind, mean, lo, hi in result.rows:
            fh.write(f"{_fmt(axis_value)},{kind},{_fmt(mean)},{_fmt(lo)},{_fmt(hi)}\n")


def file_digest(path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Provenance record written alongside every CLI result."""

    version: str
    config: dict
    master_seed: int | None
    input_digests: dict

    def to_json(self) -> str:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        doc = json.loads(text)
        try:
            return cls(**{f.name: doc[f.name] for f in fields(cls)})
        except KeyError as exc:
            raise FormatError(f"manifest missing field {exc}") from None

    def write(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n")
