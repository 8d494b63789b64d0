import csv
import io
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collapselab.report import ExperimentReport, _distinct_texts, canonical_json, format_float


def test_float_formatting_round_trips():
    for x in (1 / 3, 2 / 3, 0.05, 1e-9, 123456.789, -0.0):
        assert float(format_float(x)) == x


def test_float_formatting_rejects_nan_inf():
    with pytest.raises(ValueError):
        format_float(float("nan"))
    with pytest.raises(ValueError):
        format_float(float("inf"))


def test_canonical_json_sorted_and_parseable():
    text = canonical_json({"b": [1, 2.5], "a": {"y": None, "x": True}})
    assert text == '{"a":{"x":true,"y":null},"b":[1,2.5]}'
    assert json.loads(text) == {"a": {"x": True, "y": None}, "b": [1, 2.5]}


def test_canonical_json_handles_numpy_scalars_and_arrays():
    text = canonical_json({"v": np.float64(0.5), "n": np.int64(3), "a": np.arange(3)})
    assert json.loads(text) == {"v": 0.5, "n": 3, "a": [0, 1, 2]}


def _reference_canonical(obj, out):
    """The isinstance-chain serializer that canonical_json must match byte for byte."""
    if obj is None or obj is True or obj is False:
        out.append(json.dumps(obj))
    elif isinstance(obj, (np.floating,)):
        _reference_canonical(float(obj), out)
    elif isinstance(obj, (np.integer,)):
        _reference_canonical(int(obj), out)
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        keys = sorted(str(k) for k in obj)
        lookup = {str(k): v for k, v in obj.items()}
        for i, k in enumerate(keys):
            if i:
                out.append(",")
            out.append(json.dumps(k))
            out.append(":")
            _reference_canonical(lookup[k], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        out.append("[")
        for i, v in enumerate(seq):
            if i:
                out.append(",")
            _reference_canonical(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r} canonically")


_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 3.0, -7.0, 1e16, -1e16, 1e16 - 2.0, 2.0**53, 1e300, 5e-324])
_LEAVES = (
    _FLOATS
    | st.integers()
    | st.booleans()
    | st.none()
    | st.text()
    | _FLOATS.map(np.float64)
    | st.integers(-2**63, 2**63 - 1).map(np.int64)
    | st.lists(_FLOATS, max_size=4).map(np.array)
    | st.lists(st.integers(-2**31, 2**31 - 1), max_size=4).map(np.array)
)
_VALUES = st.recursive(
    _LEAVES,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text() | st.integers(), children, max_size=4)
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_canonical_json_matches_reference_serializer(obj):
    expected: list[str] = []
    _reference_canonical(obj, expected)
    assert canonical_json(obj) == "".join(expected)


def test_canonical_json_rejects_nan_and_inf_anywhere():
    for bad in (float("nan"), np.float64("inf"), [1.0, -math.inf], {"a": (np.nan,)}):
        with pytest.raises(ValueError):
            canonical_json(bad)


def test_report_excludes_wall_time_by_default():
    rep = ExperimentReport("demo", {"k": 1}, 7, {"x": 0.5}, wall_time_s=1.23)
    assert "wall_time" not in rep.to_json()
    assert "wall_time_s" in rep.to_json(include_timing=True)


def test_report_csv_deterministic():
    rep = ExperimentReport(
        "demo", {}, 7, {},
        trials={"trial": [0, 1], "value": [1 / 3, 2 / 3], "flag": [True, False]},
    )
    lines = rep.trials_csv().splitlines()
    assert lines[0] == "trial,value,flag"
    assert lines[1].startswith("0,0.3333333333333333")
    assert lines[1].endswith(",true")


# -- per-trial columns ---------------------------------------------------------------

_CELLS = (
    _FLOATS
    | st.integers()
    | st.booleans()
    | st.none()
    | st.text()
    | _FLOATS.map(np.float64)
    | st.integers(-2**63, 2**63 - 1).map(np.int64)
    | st.lists(_FLOATS, max_size=3)
    | st.lists(_FLOATS, max_size=3).map(np.array)
)
_KEYS = st.text() | st.sampled_from(["%", "%s", "%%d", "{", "{0}", "}{", "trial", "\u00e9\u2603"])


@st.composite
def _columns(draw):
    """Columns of n rows: lists that repeat objects and hold equal values
    in distinct objects, and 1-D and 2-D numeric arrays."""
    n = draw(st.integers(0, 12))
    columns = {}
    for key in draw(st.lists(_KEYS, min_size=1, max_size=5, unique=True)):
        kind = draw(st.sampled_from(["list", "float", "int64", "int32", "2-D"]))
        if kind == "list":
            pool = draw(st.lists(_CELLS, min_size=1, max_size=4))
            picks = draw(st.lists(st.tuples(st.sampled_from(pool), st.booleans()),
                                  min_size=n, max_size=n))
            # a pickle round trip makes an equal value in a distinct object
            columns[key] = [pickle.loads(pickle.dumps(v)) if copy else v for v, copy in picks]
        elif kind == "2-D":
            width = draw(st.integers(0, 3))
            pool = draw(st.lists(st.lists(_FLOATS, min_size=width, max_size=width),
                                 min_size=1, max_size=3))
            rows = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
            columns[key] = np.array(rows, dtype=float).reshape(n, width)
        else:
            values = _FLOATS if kind == "float" else st.integers(
                *((-2**63, 2**63 - 1) if kind == "int64" else (-2**31, 2**31 - 1)))
            pool = draw(st.lists(values, min_size=1, max_size=3))
            cells = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
            columns[key] = np.array(cells, dtype={"float": float, "int64": np.int64,
                                                  "int32": np.int32}[kind])
    return columns


def _reference_csv_cell(v):
    """A cell's CSV text: strings as they are, None empty, anything else its
    canonical JSON."""
    if v is None:
        return ""
    return v if isinstance(v, str) else canonical_json(v)


def _rows(columns):
    n = len(next(iter(columns.values())))
    return [{key: column[i] for key, column in columns.items()} for i in range(n)]


@settings(max_examples=300, deadline=None)
@given(_columns())
@example({"%s": [True, 1, 1.0, True, 1], "{x}": np.array([-0.0, 0.0, -0.0, 0.0, 1.5]),
          "peak_masses": np.array([[0.5, -0.0]] * 4 + [[0.5, 0.0]]),
          "n": np.array([3, -3, 3, 0, 0], dtype=np.int64),
          "text": ["\u00e9%s", None, "{0}", "\u00e9%s", "a,b"]})
def test_trial_columns_match_the_reference_serializers(columns):
    rows = _rows(columns)
    report = ExperimentReport("demo", {"k": 1}, 7, {"x": 0.5}, trials=columns)
    expected: list[str] = []
    _reference_canonical({"schema_version": 1, "scenario": "demo", "config": {"k": 1},
                          "master_seed": 7, "aggregates": {"x": 0.5}, "trials": rows}, expected)
    assert report.to_json() == "".join(expected) + "\n"
    buf = io.StringIO()
    if rows:
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_reference_csv_cell(v) for v in row.values()])
    assert report.trials_csv() == buf.getvalue()


@settings(max_examples=200, deadline=None)
@given(_columns())
def test_distinct_texts_are_one_per_bit_pattern_or_object(columns):
    for column in columns.values():
        if isinstance(column, np.ndarray) and column.dtype.kind in "iuf":
            keys = [np.ascontiguousarray(cell).tobytes() for cell in column]
        else:
            keys = list(map(id, column))
        texts, inverse = _distinct_texts(column)
        codes = inverse.tolist()
        # keys and codes correspond one to one, and every text is used
        assert len(set(zip(keys, codes))) == len(set(keys)) == len(set(codes)) == len(texts)
        assert all(texts[c] == canonical_json(v) for c, v in zip(codes, column))


@pytest.mark.parametrize("column", [
    [1.0, float("nan")],
    np.array([0.5, np.inf]),
    np.array([[0.5, 1.0], [-np.inf, 1.0]]),
    [[0.5], [float("nan")]],
    [np.float64(1.0), np.float64(-np.inf)],
], ids=["list", "array", "2-D", "nested", "numpy-scalars"])
def test_trial_columns_reject_nan_and_inf(column):
    report = ExperimentReport("demo", {}, 7, {}, trials={"trial": [0, 1], "v": column})
    with pytest.raises(ValueError):
        report.to_json()
    with pytest.raises(ValueError):
        report.trials_csv()


def test_trial_columns_must_have_one_length():
    with pytest.raises(ValueError):
        ExperimentReport("demo", {}, 7, {}, trials={"a": [1, 2], "b": np.zeros(3)})


def test_csv_list_cells_use_the_report_float_format():
    masses = np.array([[4.5112876673254189e-10, 0.9999999999992838]])
    report = ExperimentReport("demo", {}, 7, {}, trials={"trial": [0], "peak_masses": masses})
    assert report.trials_csv().splitlines()[1] == '0,"[4.5112876673254189e-10,0.9999999999992838]"'


def test_csv_cells_pinned_for_each_kind_of_value():
    columns = {
        "float": [0.1], "float64": [np.float64(1 / 3)], "negative_zero": [-0.0],
        "whole": np.array([2.0]), "int": [3], "int64": [np.int64(-7)], "bool": [True],
        "none": [None], "str": ["a,b"], "list": [[1.0, 0.5, -0.0]],
        "row": np.array([[4.5112876673254189e-10, 0.9999999999992838]]),
    }
    report = ExperimentReport("demo", {}, 7, {}, trials=columns)
    assert report.trials_csv() == (
        "float,float64,negative_zero,whole,int,int64,bool,none,str,list,row\n"
        '0.10000000000000001,0.33333333333333331,-0.0,2.0,3,-7,true,,"a,b",'
        '"[1.0,0.5,-0.0]","[4.5112876673254189e-10,0.9999999999992838]"\n'
    )
