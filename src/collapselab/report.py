"""Run reports with deterministic serialization.

Reports serialize to canonical JSON: keys sorted, floats rendered with
17 significant digits (round-trip exact), no locale or whitespace
variance.  Re-running a scenario with the same configuration and seed
therefore produces byte-identical files.  Wall time is recorded on the
object but excluded from the canonical form.

Per-trial records are held as columns, one numpy array or list per
field, from the scenario to the file; no object per trial is built.
Each column's cells are rendered once per distinct value, and the JSON
rows fill one template of the sorted keys with those texts, so the
report's bytes are those of canonical_json over the row objects.
"""
from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable

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


Columns = dict[str, Any]  # field name -> numpy array or list, one cell per trial


@dataclass
class ExperimentReport:
    """Aggregated outcome statistics of one scenario run.

    ``trials``, when present, holds the per-trial records as columns: a
    mapping from field name to a numpy array or a list, all of one length,
    row i of every column making trial i's record.  ``to_json`` writes
    them as the list of row objects, keys sorted; ``trials_csv`` as a
    table whose columns keep the mapping's order.
    """

    scenario: str
    config: dict
    master_seed: int | None
    aggregates: dict
    trials: Columns | None = None
    schema_version: int = SCHEMA_VERSION
    wall_time_s: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.trials is not None and len({len(c) for c in self.trials.values()}) > 1:
            raise ValueError("trial columns must all have the same length")

    def to_json(self, include_timing: bool = False) -> str:
        fields = {
            "schema_version": self.schema_version,
            "scenario": self.scenario,
            "config": self.config,
            "master_seed": self.master_seed,
            "aggregates": self.aggregates,
        }
        if include_timing and self.wall_time_s is not None:
            fields["wall_time_s"] = self.wall_time_s
        texts = {key: [canonical_json(value)] for key, value in fields.items()}
        if self.trials is not None:
            texts["trials"] = _json_rows(self.trials)
        out: list[str] = []
        for key in sorted(texts):
            out.append(("," if out else "{") + _escape(key) + ":")
            out += texts[key]
        out.append("}\n")
        return "".join(out)

    def trials_csv(self) -> str:
        """Per-trial table as CSV (deterministic column order)."""
        if not self.trials or not len(next(iter(self.trials.values()))):
            return ""
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.trials)
        writer.writerows(zip(*(_column_texts(c, _csv_cell) for c in self.trials.values())))
        return buf.getvalue()


_ROWS_PER_PIECE = 4096  # rows formatted at a time: one piece's row strings are alive at once


def _json_rows(columns: Columns) -> list[str]:
    """The canonical JSON list of the columns' row objects, as pieces of
    text.  One template holds the sorted keys; each row fills it with its
    cells' texts."""
    keys = sorted(columns)
    template = "{" + ",".join(_escape(k).replace("%", "%%") + ":%s" for k in keys) + "}"
    rows = zip(*(_column_texts(columns[k], canonical_json) for k in keys))
    pieces = ["["]
    while chunk := list(islice(rows, _ROWS_PER_PIECE)):
        if len(pieces) > 1:
            pieces.append(",")
        pieces.append(",".join(map(template.__mod__, chunk)))
    pieces.append("]")
    return pieces


def _column_texts(column: Any, cell: Callable[[Any], str]) -> list[str]:
    """``cell`` of every entry of ``column``, called once per distinct
    value: once per bit pattern in a numeric array, once per object in a
    list or object array.  Values are never merged by ==, so -0.0 and 0.0,
    or True and 1, keep their own texts."""
    if not len(column):
        return []
    if isinstance(column, np.ndarray) and column.dtype.kind in "iuf":
        rows = np.ascontiguousarray(column).reshape(len(column), -1)
        size = rows.shape[1] * rows.itemsize
        if not size:  # rows without entries all read the same
            return [cell(column[0])] * len(column)
        bits = np.dtype(f"u{size}") if size in (1, 2, 4, 8) else np.dtype((np.void, size))
        distinct, inverse = np.unique(rows.view(bits).ravel(), return_inverse=True)
        where = np.empty(len(distinct), dtype=np.intp)
        where[inverse] = np.arange(len(column))  # a row holding each distinct value
        texts = np.array([cell(v) for v in column[where].tolist()], dtype=object)
        return texts[inverse].tolist()
    values = list(column) if isinstance(column, np.ndarray) else column  # alive while ids are
    ids = list(map(id, values))
    texts_of = {i: cell(v) for i, v in dict(zip(ids, values)).items()}
    return list(map(texts_of.__getitem__, ids))


def _csv_cell(v: Any) -> str:
    """A cell's CSV text: strings as they are, None empty, anything else
    its canonical JSON."""
    if v is None:
        return ""
    return v if isinstance(v, str) else canonical_json(v)
