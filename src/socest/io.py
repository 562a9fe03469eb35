"""File formats: profile CSVs, parameter config documents, result CSVs, manifests.

All floating-point output uses 17-significant-digit decimal text, which
round-trips IEEE doubles exactly. Readers validate and reject; nothing is
silently repaired.
"""
from __future__ import annotations

import csv
import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import chain, islice
from pathlib import Path

import numpy as np
import yaml

from .ecm import EcmParams, OcvTable, Profile, _rows

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
    is not a number or not finite, no rows at all. Rows are checked and
    converted 1024 at a time, so no Python float outlives its chunk; only a
    chunk that fails is walked row by row.
    """
    with _opened(path_or_file, "r") as fh:
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


def _write_rows(path_or_file, header: tuple[str, ...], rows) -> None:
    """Write a CSV header and one line of 17-digit floats per row, as rows arrive."""
    line = ",".join(["{:.17g}"] * len(header)) + "\n"
    with _opened(path_or_file, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line.format(*row) for row in rows)


def read_profile(path_or_file) -> Profile:
    """Parse a `t,i[,v]` CSV into a Profile."""
    t, i, *v = _read_csv(path_or_file, (("t", "i", "v"), ("t", "i")), "profile")
    try:
        return Profile(t, i, v[0] if v else None)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def write_profile(profile: Profile, path_or_file) -> None:
    columns = (profile.t, profile.i) + ((profile.v,) if profile.has_voltage else ())
    _write_rows(path_or_file, ("t", "i", "v")[: len(columns)], _rows(*columns))


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
    _write_rows(path_or_file, ("t", "z_est", "z_true")[: len(columns)], _rows(*columns))


def write_trajectory_csv(profile: Profile, trajectory, path_or_file) -> None:
    """Simulated trajectory: `t,i,v,z,v_r1,v_r2` (one row per sample)."""
    rows = (
        (t, i, volt, state.z, state.v_r1, state.v_r2)
        for (t, i), (state, volt) in zip(_rows(profile.t, profile.i), trajectory)
    )
    _write_rows(path_or_file, ("t", "i", "v", "z", "v_r1", "v_r2"), rows)


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
