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
report's bytes are those of canonical_json over the row objects.  The
CSV table derives its cells from the same texts and keeps them for the
next ``to_json``, so a run that writes both formats each value once.
"""
from __future__ import annotations

import io
import json
import sys
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
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
    np = sys.modules.get("numpy")  # a value can be numpy's only once numpy is loaded
    if np is not None and isinstance(obj, np.floating):
        _canonical(float(obj), out)
    elif np is not None and isinstance(obj, np.integer):
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
    elif isinstance(obj, (list, tuple)) or np is not None and isinstance(obj, np.ndarray):
        seq = obj if isinstance(obj, (list, tuple)) else obj.tolist()
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
    table whose columns keep the mapping's order.  The table keeps its
    texts for the next ``to_json``, so the columns must not change between
    the two.
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
        self._formatted: dict[str, tuple[str, np.ndarray]] = {}

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
            # the cell texts die with the call, before the report is joined
            texts["trials"] = _json_rows(
                {key: _cells(*self._json_texts(key)) for key in self.trials})
        out: list[str] = []
        for key in sorted(texts):
            out.append(("," if out else "{") + _escape(key) + ":")
            out += texts[key]
        out.append("}\n")
        return "".join(out)

    def trials_csv(self) -> str:
        """Per-trial table as CSV (deterministic column order), its cells
        derived from their JSON texts, which are kept for the next
        ``to_json``."""
        if not self.trials or not len(next(iter(self.trials.values()))):
            return ""
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.trials)
        columns = (self._json_texts(key, keep=True) for key in self.trials)
        writer.writerows(zip(*(_cells(list(map(_csv_text, t)), i) for t, i in columns)))
        return buf.getvalue()

    def _json_texts(self, key: str, keep: bool = False) -> tuple[list[str], np.ndarray]:
        """The canonical JSON texts of column ``key``'s distinct values and
        each cell's index into them (``_distinct_texts``).  With ``keep``
        they are stored, as one string (a JSON text holds no raw newline),
        until a call without it takes them."""
        kept = self._formatted.get(key) if keep else self._formatted.pop(key, None)
        if kept is not None:
            joined, inverse = kept
            return joined.split("\n"), inverse
        texts, inverse = _distinct_texts(self.trials[key])
        if keep:
            self._formatted[key] = "\n".join(texts), inverse
        return texts, inverse


_ROWS_PER_PIECE = 4096  # rows formatted at a time: one piece's row strings are alive at once


def _json_rows(texts: dict[str, list[str]]) -> list[str]:
    """The canonical JSON list of row objects whose cells have the texts
    ``texts[key]``, as pieces of text.  One template holds the sorted keys;
    each row fills it with its cells' texts."""
    keys = sorted(texts)
    template = "{" + ",".join(_escape(k).replace("%", "%%") + ":%s" for k in keys) + "}"
    rows = zip(*(texts[k] for k in keys))
    pieces = ["["]
    while chunk := list(islice(rows, _ROWS_PER_PIECE)):
        if len(pieces) > 1:
            pieces.append(",")
        pieces.append(",".join(map(template.__mod__, chunk)))
    pieces.append("]")
    return pieces


def _distinct_texts(column: Any) -> tuple[list[str], np.ndarray]:
    """The canonical JSON texts of the distinct values of ``column``, and
    for each entry the index of its text.  A value is
    distinct per bit pattern in a numeric array and per object in a list or
    object array; values are never merged by ==, so -0.0 and 0.0, or True
    and 1, keep their own texts."""
    import numpy as np

    if not len(column):
        return [], np.empty(0, dtype=np.uint8)
    numeric = isinstance(column, np.ndarray) and column.dtype.kind in "iuf"
    if numeric:
        rows = np.ascontiguousarray(column).reshape(len(column), -1)
        size = rows.shape[1] * rows.itemsize
        if not size:  # rows without entries all read the same
            keys = np.zeros(len(column), dtype=np.uint8)
        else:
            bits = np.dtype(f"u{size}") if size in (1, 2, 4, 8) else np.dtype((np.void, size))
            keys = rows.view(bits).ravel()
    else:
        keys = np.fromiter(map(id, column), dtype=np.uintp, count=len(column))
    # np.unique would do the same, but its first call imports numpy.ma (~10 ms)
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.empty(len(keys), dtype=bool)  # where a run of equal sorted keys starts
    first[0] = True
    first[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    where = order[first]  # an entry holding each distinct value
    values = column[where].tolist() if numeric else [column[i] for i in where.tolist()]
    return list(map(canonical_json, values)), inverse.astype(np.min_scalar_type(len(values) - 1))


def _cells(texts: list[str], inverse: np.ndarray) -> list[str]:
    """The text of each cell, ``texts[inverse[i]]``, one string object per distinct text."""
    import numpy as np

    return np.array(texts, dtype=object)[inverse].tolist()


def _csv_text(json_text: str) -> str:
    """A cell's CSV text from its canonical JSON: a string as it is, None
    empty, anything else the JSON text itself."""
    if json_text == "null":
        return ""
    return json.loads(json_text) if json_text.startswith('"') else json_text
