"""File formats: profile CSVs, parameter config documents, result CSVs, manifests.

All floating-point output uses 17-significant-digit decimal text, which
round-trips IEEE doubles exactly. Readers validate and reject; nothing is
silently repaired.
"""
from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .ecm import EcmParams, OcvTable, Profile

__all__ = [
    "FormatError",
    "RunManifest",
    "read_profile",
    "write_profile",
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


def _open_for(path_or_file, mode: str):
    if hasattr(path_or_file, "read") or hasattr(path_or_file, "write"):
        return path_or_file, False
    return open(path_or_file, mode, newline="" if "b" not in mode else None), True


def read_profile(path_or_file) -> Profile:
    """Parse a `t,i[,v]` CSV into a Profile."""
    fh, should_close = _open_for(path_or_file, "r")
    try:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError("empty profile file") from None
        header = [h.strip() for h in header]
        if header == ["t", "i", "v"]:
            has_v = True
        elif header == ["t", "i"]:
            has_v = False
        else:
            raise FormatError(f"expected header 't,i[,v]', got {','.join(header)!r}")
        t, i, v = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise FormatError(f"line {lineno}: expected {len(header)} fields")
            try:
                t.append(float(row[0]))
                i.append(float(row[1]))
                if has_v:
                    v.append(float(row[2]))
            except ValueError as exc:
                raise FormatError(f"line {lineno}: {exc}") from None
        if not t:
            raise FormatError("profile file contains no samples")
        try:
            return Profile(np.array(t), np.array(i), np.array(v) if has_v else None)
        except ValueError as exc:
            raise FormatError(str(exc)) from None
    finally:
        if should_close:
            fh.close()


def write_profile(profile: Profile, path_or_file) -> None:
    fh, should_close = _open_for(path_or_file, "w")
    try:
        has_v = profile.has_voltage
        fh.write("t,i,v\n" if has_v else "t,i\n")
        for k in range(len(profile)):
            cols = [_fmt(profile.t[k]), _fmt(profile.i[k])]
            if has_v:
                cols.append(_fmt(profile.v[k]))
            fh.write(",".join(cols) + "\n")
    finally:
        if should_close:
            fh.close()


def _ocv_to_doc(table: OcvTable) -> dict:
    return {_fmt(z): _fmt(v) for z, v in zip(table.soc_grid, table.ocv_values)}


def _ocv_from_doc(doc) -> OcvTable:
    if not isinstance(doc, dict) or not doc:
        raise FormatError("'ocv' must be a non-empty soc -> voltage mapping")
    try:
        pairs = sorted((float(k), float(v)) for k, v in doc.items())
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad ocv table entry: {exc}") from None
    grid, vals = zip(*pairs)
    try:
        return OcvTable(np.array(grid), np.array(vals))
    except ValueError as exc:
        raise FormatError(f"ocv: {exc}") from None


def write_params(params: EcmParams, path_or_file) -> None:
    """Emit the cell config document (key-value with a nested OCV table)."""
    fh, should_close = _open_for(path_or_file, "w")
    try:
        for name in ("r0", "r1", "c1", "r2", "c2", "q_max"):
            fh.write(f"{name}: {_fmt(getattr(params, name))}\n")
        fh.write("ocv:\n")
        for z, v in zip(params.ocv.soc_grid, params.ocv.ocv_values):
            fh.write(f"  {_fmt(z)}: {_fmt(v)}\n")
    finally:
        if should_close:
            fh.close()


def read_params(path_or_file) -> EcmParams:
    fh, should_close = _open_for(path_or_file, "r")
    try:
        doc = yaml.safe_load(fh.read())
    finally:
        if should_close:
            fh.close()
    if not isinstance(doc, dict):
        raise FormatError("params document must be a mapping")
    scalars = {}
    for name in ("r0", "r1", "c1", "r2", "c2", "q_max"):
        if name not in doc:
            raise FormatError(f"missing field {name!r}")
        try:
            scalars[name] = float(doc[name])
        except (TypeError, ValueError):
            raise FormatError(f"field {name!r} is not a number") from None
        if not scalars[name] > 0.0:
            raise FormatError(f"field {name!r} must be strictly positive")
    if "ocv" not in doc:
        raise FormatError("missing field 'ocv'")
    ocv = _ocv_from_doc(doc["ocv"])
    try:
        return EcmParams(ocv=ocv, **scalars)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def write_ocv_table(table: OcvTable, path_or_file) -> None:
    fh, should_close = _open_for(path_or_file, "w")
    try:
        fh.write("ocv:\n")
        for z, v in zip(table.soc_grid, table.ocv_values):
            fh.write(f"  {_fmt(z)}: {_fmt(v)}\n")
    finally:
        if should_close:
            fh.close()


def read_ocv_table(path_or_file) -> OcvTable:
    fh, should_close = _open_for(path_or_file, "r")
    try:
        doc = yaml.safe_load(fh.read())
    finally:
        if should_close:
            fh.close()
    if not isinstance(doc, dict) or "ocv" not in doc:
        raise FormatError("document must contain an 'ocv' mapping")
    return _ocv_from_doc(doc["ocv"])


def write_estimate_csv(t, z_est, path_or_file, z_true=None) -> None:
    fh, should_close = _open_for(path_or_file, "w")
    try:
        fh.write("t,z_est,z_true\n" if z_true is not None else "t,z_est\n")
        for k in range(len(t)):
            row = [_fmt(t[k]), _fmt(z_est[k])]
            if z_true is not None:
                row.append(_fmt(z_true[k]))
            fh.write(",".join(row) + "\n")
    finally:
        if should_close:
            fh.close()


def write_trajectory_csv(profile: Profile, trajectory, path_or_file) -> None:
    """Simulated trajectory: `t,i,v,z,v_r1,v_r2` (one row per sample)."""
    fh, should_close = _open_for(path_or_file, "w")
    try:
        fh.write("t,i,v,z,v_r1,v_r2\n")
        for k, (state, volt) in enumerate(trajectory):
            fh.write(
                ",".join(
                    [
                        _fmt(profile.t[k]), _fmt(profile.i[k]), _fmt(volt),
                        _fmt(state.z), _fmt(state.v_r1), _fmt(state.v_r2),
                    ]
                )
                + "\n"
            )
    finally:
        if should_close:
            fh.close()


def write_bench_csv(result, path_or_file) -> None:
    """Tidy sweep output: `axis_value,estimator,mae_mean,ci_lo,ci_hi`."""
    fh, should_close = _open_for(path_or_file, "w")
    try:
        fh.write("axis_value,estimator,mae_mean,ci_lo,ci_hi\n")
        for axis_value, kind, mean, lo, hi in result.rows:
            fh.write(
                f"{_fmt(axis_value)},{kind},{_fmt(mean)},{_fmt(lo)},{_fmt(hi)}\n"
            )
    finally:
        if should_close:
            fh.close()


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
        return json.dumps(
            {
                "version": self.version,
                "config": self.config,
                "master_seed": self.master_seed,
                "input_digests": self.input_digests,
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        doc = json.loads(text)
        try:
            return cls(
                version=doc["version"],
                config=doc["config"],
                master_seed=doc["master_seed"],
                input_digests=doc["input_digests"],
            )
        except KeyError as exc:
            raise FormatError(f"manifest missing field {exc}") from None

    def write(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n")
