import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapselab.report import ExperimentReport, canonical_json, format_float


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
        trials=[{"trial": 0, "value": 1 / 3, "flag": True},
                {"trial": 1, "value": 2 / 3, "flag": False}],
    )
    lines = rep.trials_csv().splitlines()
    assert lines[0] == "trial,value,flag"
    assert lines[1].startswith("0,0.3333333333333333")
    assert lines[1].endswith(",true")
