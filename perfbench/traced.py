"""Traced child: run one ``collapselab`` CLI invocation in this process
with spans recorded around the package's public functions.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/trace.py SPANS_JSON -- <collapselab arguments>

The package source is not modified: each wrapper is installed in every
``collapselab`` module namespace that holds the original object (``cli``
and ``scenarios`` import most names directly), and methods are patched
on their class.  Spans only exist in this process, so the caller must
pass ``--workers 1``.

Spans are aggregated in memory as they close (calls, total time, self
time per name, plus caller -> callee call counts) instead of being kept
one by one: the hot spans fire ~10^5 times per run and a per-span record
would add its own memory and time to what is being measured.  Self time
is a span's duration minus the durations of the wrapped spans it caused.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time
from typing import Any, Callable

# Public functions and methods wrapped in the traced run, as
# "<module>.<function>" or "<module>.<Class>.<method>".
SPANS = (
    "cli.main",
    "scenarios.run_oracle_comparison",
    "scenarios.run_epr_position",
    "scenarios.run_singlet_spacetime",
    "grw.evolve_trajectory",
    "grw.Propagator.__init__",
    "grw.Propagator.advance",
    "grw.jump_density",
    "grw.apply_jump",
    "lindblad.integrate_with_snapshots",
    "lindblad.ensemble_compare",
    "lindblad.trace_distance",
    "hilbert.partial_trace",
    "hilbert.DensityMatrix.min_eigenvalue",
    "spin.triple_measurement",
    "rng.stream",
    "ks.RaySet.from_file",
    "ks.build_structure",
    "ks.search_coloring",
    "ks.minimal_uncolorable_core",
    "ks.ck_argument_trace",
    "report.ExperimentReport.to_json",
    "report.ExperimentReport.trials_csv",
)


class Tracer:
    """Span aggregates plus the work counters observed at span exits."""

    def __init__(self) -> None:
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.edges: dict[tuple[str, str], int] = {}  # (caller, callee) -> calls
        self.counts: dict[str, float] = {}
        self._stack: list[list[Any]] = []  # open spans: [name, child_s]

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Callable[["Tracer", Callable, tuple, dict, Any], None] | None = None,
    ) -> Callable:
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = stack[-1][0] if stack else "-"
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                edges[(caller, name)] = edges.get((caller, name), 0) + 1
            if observe is not None:
                observe(self, fn, args, kwargs, result)
            return result

        return traced

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def to_dict(self) -> dict:
        return {
            "spans": {
                n: {"calls": int(s[0]), "total_s": s[1], "self_s": s[2]}
                for n, s in self.stats.items()
            },
            "edges": [[a, b, c] for (a, b), c in sorted(self.edges.items())],
            "counts": self.counts,
        }


# -- work counters, computed from the arguments of a span ---------------------


def _observe_advance(tracer: Tracer, fn: Callable, args: tuple, kwargs: dict, result: Any) -> None:
    # Two dense complex matvecs with the d x d eigenvector matrices.
    d = (args[1] if len(args) > 1 else kwargs["amplitudes"]).size
    tracer.add("grw.advance_flops_computed", 16 * d * d)


def _observe_integrate(tracer: Tracer, fn: Callable, args: tuple, kwargs: dict, result: Any) -> None:
    a = inspect.signature(fn).bind(*args, **kwargs).arguments
    d = a["rho0"].shape.total_dim
    steps = max(1, int(math.ceil(a["config"].horizon / a["config"].dt - 1e-12)))
    # Per RHS: two complex d x d GEMMs for the commutator (8 d^3 real flops
    # each) and its combination (8 d^2), then one complex-by-real multiply
    # and add per kernel (4 d^2 each) and the final scale-and-subtract (4 d^2).
    per_rhs = (16 * d**3 + 8 * d**2 if a["hamiltonian"] is not None else 0) + (
        4 * len(a["grids"]) + 4
    ) * d**2
    tracer.add("lindblad.rk4_steps", steps)
    tracer.add("lindblad.rhs_flops_computed", 4 * steps * per_rhs)
    tracer.add("lindblad.rho_bytes_computed", 16 * d * d)


def _observe_search(tracer: Tracer, fn: Callable, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.add("ks.nodes_explored", result.nodes_explored)
    tracer.add("ks.propagation_steps", result.propagation_steps)


# Counters the observers above record, reported as 0 when never touched.
# Those named *_computed follow from array sizes, not from measurement;
# rho_bytes_computed is d^2 * 16 B per oracle integration, summed.
COUNTS = (
    "lindblad.rk4_steps",
    "lindblad.rhs_flops_computed",
    "lindblad.rho_bytes_computed",
    "grw.advance_flops_computed",
    "ks.nodes_explored",
    "ks.propagation_steps",
)

OBSERVERS = {
    "grw.Propagator.advance": _observe_advance,
    "lindblad.integrate_with_snapshots": _observe_integrate,
    "ks.search_coloring": _observe_search,
}


def install(tracer: Tracer) -> Callable:
    """Wrap every name in SPANS; returns the wrapped ``cli.main``."""
    modules = {
        name: importlib.import_module(f"collapselab.{name}")
        for name in {span.split(".")[0] for span in SPANS}
    }
    namespaces = [
        m for n, m in sys.modules.items() if n == "collapselab" or n.startswith("collapselab.")
    ]
    for span in SPANS:
        module_name, *path = span.split(".")
        module = modules[module_name]
        observe = OBSERVERS.get(span)
        if len(path) == 1:
            original = getattr(module, path[0])
            wrapped = tracer.wrap(span, original, observe)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapped)
        else:
            cls = getattr(module, path[0])
            raw = cls.__dict__[path[1]]
            if isinstance(raw, classmethod):
                setattr(cls, path[1], classmethod(tracer.wrap(span, raw.__func__, observe)))
            else:
                setattr(cls, path[1], tracer.wrap(span, raw, observe))
    return modules["cli"].main


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace.py SPANS_JSON -- <collapselab arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    cli_main = install(tracer)
    rc = cli_main(cli_args)
    with open(spans_path, "w") as fh:
        json.dump(tracer.to_dict(), fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
