"""Run reports with deterministic serialization.

Reports serialize to canonical JSON: keys sorted, floats rendered with
17 significant digits (round-trip exact), no locale or whitespace
variance.  Re-running a scenario with the same configuration and seed
therefore produces byte-identical files.  Wall time is recorded on the
object but excluded from the canonical form.
"""
from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

SCHEMA_VERSION = 1


def format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("reports must not contain NaN or infinity")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


_escape = json.encoder.encode_basestring_ascii  # what json.dumps does to a str


def _canonical(obj: Any, out: list[str]) -> None:
    # exact built-in types first: a report is almost all of these
    t = type(obj)
    if t is str:
        out.append(_escape(obj))
    elif t is float:
        out.append(format_float(obj))
    elif t is int:
        out.append(str(obj))
    elif t is bool:
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif t is dict and all(type(k) is str for k in obj):
        out.append("{")
        sep = ""
        for k in sorted(obj):
            out.append(sep + _escape(k) + ":")
            _canonical(obj[k], out)
            sep = ","
        out.append("}")
    elif t is list:
        out.append("[")
        sep = ""
        for v in obj:
            out.append(sep)
            _canonical(v, out)
            sep = ","
        out.append("]")
    else:
        _canonical_other(obj, out)


def _canonical_other(obj: Any, out: list[str]) -> None:
    """Subclasses, numpy values, tuples and dicts with non-str keys."""
    if isinstance(obj, (np.floating,)):
        _canonical(float(obj), out)
    elif isinstance(obj, (np.integer,)):
        _canonical(int(obj), out)
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, str):
        out.append(_escape(obj))
    elif isinstance(obj, dict):
        out.append("{")
        keys = sorted(str(k) for k in obj)
        lookup = {str(k): v for k, v in obj.items()}
        for i, k in enumerate(keys):
            if i:
                out.append(",")
            out.append(_escape(k))
            out.append(":")
            _canonical(lookup[k], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.append("[")
        for i, v in enumerate(seq):
            if i:
                out.append(",")
            _canonical(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r} canonically")


def canonical_json(obj: Any) -> str:
    out: list[str] = []
    _canonical(obj, out)
    return "".join(out)


@dataclass
class ExperimentReport:
    """Aggregated outcome statistics of one scenario run."""

    scenario: str
    config: dict
    master_seed: int | None
    aggregates: dict
    trials: list[dict] | None = None
    schema_version: int = SCHEMA_VERSION
    wall_time_s: float | None = field(default=None, compare=False)

    def to_dict(self, include_timing: bool = False) -> dict:
        d = {
            "schema_version": self.schema_version,
            "scenario": self.scenario,
            "config": self.config,
            "master_seed": self.master_seed,
            "aggregates": self.aggregates,
        }
        if self.trials is not None:
            d["trials"] = self.trials
        if include_timing and self.wall_time_s is not None:
            d["wall_time_s"] = self.wall_time_s
        return d

    def to_json(self, include_timing: bool = False) -> str:
        return canonical_json(self.to_dict(include_timing=include_timing)) + "\n"

    def trials_csv(self) -> str:
        """Per-trial table as CSV (deterministic column order)."""
        if not self.trials:
            return ""
        import csv

        columns = list(self.trials[0].keys())
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in self.trials:
            writer.writerow([_csv_cell(row.get(c)) for c in columns])
        return buf.getvalue()


def _csv_cell(v: Any) -> str:
    if v is None:
        return ""
    if isinstance(v, (np.floating, float)):
        return format_float(float(v))
    if isinstance(v, (np.integer,)):
        return str(int(v))
    if isinstance(v, bool):
        return str(v).lower()
    return str(v)
