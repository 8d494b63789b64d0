"""The benchmark's traced run wraps package functions by name; a refactor
that renames one must fail here, not only when the benchmark runs."""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def _spans() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("traced_spans", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


@pytest.mark.parametrize("span", _spans())
def test_traced_span_names_a_package_function(span):
    # resolved the way perfbench/traced.py installs its wrappers
    module_name, *path = span.split(".")
    module = importlib.import_module(f"collapselab.{module_name}")
    if len(path) == 1:
        assert inspect.isfunction(getattr(module, path[0], None)), span
    else:
        assert len(path) == 2, span
        cls = getattr(module, path[0], None)
        assert inspect.isclass(cls), span
        raw = cls.__dict__.get(path[1])
        if isinstance(raw, classmethod):
            raw = raw.__func__
        assert inspect.isfunction(raw), span
