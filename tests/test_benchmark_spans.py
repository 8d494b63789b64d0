"""The benchmark's traced run wraps package functions by name and reads
their arguments; a refactor that renames one must fail here, not only
when the benchmark runs."""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from collapselab.grw import Grid, GrwParams, free_hamiltonian, gaussian_packet
from collapselab.lindblad import LindbladConfig, integrate_with_snapshots

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def _traced():
    spec = importlib.util.spec_from_file_location("traced_spans", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("span", _traced().SPANS)
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


def test_integrate_observer_reads_a_real_call():
    # the observer binds the call's arguments by name and reads rho0, the
    # Hamiltonian, the grids and config.dt / config.horizon
    traced = _traced()
    grid = Grid(32, 1.0)
    params = GrwParams(alpha=0.25, lam=1.0, mass=10.0)
    args = (gaussian_packet(grid, 16.0, 2.0).density_matrix(), free_hamiltonian(grid, mass=10.0),
            params, {0: grid}, LindbladConfig(dt=0.01, horizon=0.5))
    kwargs = {"snapshot_times": [0.25]}
    result = integrate_with_snapshots(*args, **kwargs)
    tracer = traced.Tracer()
    traced.OBSERVERS["lindblad.integrate_with_snapshots"](
        tracer, integrate_with_snapshots, args, kwargs, result
    )
    assert tracer.counts["lindblad.rk4_steps"] == 50
    assert tracer.counts["lindblad.rho_bytes_computed"] == 16 * 32 * 32
    assert tracer.counts["lindblad.rhs_flops_computed"] > 0
