"""The benchmark's traced run wraps package functions by name and reads
their arguments; a refactor that renames one must fail here, not only
when the benchmark runs."""
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from collapselab.grw import Grid, GrwParams, free_hamiltonian, gaussian_packet
from collapselab.lindblad import LindbladConfig, integrate_with_snapshots

ROOT = Path(__file__).resolve().parents[1]
TRACED = ROOT / "perfbench" / "traced.py"


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


@pytest.mark.parametrize("args,span", [
    (["singlet", "--same-triples", "--trials", "50", "--seed", "1"],
     "scenarios.run_singlet_spacetime"),
    (["ck-trace", "--rays", "builtin:ks33"], "ks.ck_argument_trace"),
], ids=["singlet", "ck-trace"])
def test_traced_run_wraps_the_function_the_command_calls(tmp_path, args, span):
    # the wrapper must sit on the path the command line takes, whichever
    # module the command imports its run from
    spans = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(TRACED), str(spans), "--", *args, "--out", str(tmp_path / "r.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    recorded = json.loads(spans.read_text())["spans"]
    assert recorded[span]["calls"] == 1
    assert recorded["cli.main"]["calls"] == 1
