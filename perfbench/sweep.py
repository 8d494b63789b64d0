"""Layer sweep: per-call time of the grid kernels for M in SIZES.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/sweep.py

Prints one JSON object of ``sweep.m<M>.<kernel>_s`` values, each the
median per-call time over repeated direct calls (caches warmed first).
The two oracle workloads sit at M = 64 and M = 256; the sweep shows
where a structure-native (FFT) kernel would overtake the dense one.
"""
from __future__ import annotations

import json
import statistics
import time

from collapselab.grw import (
    Grid,
    GrwParams,
    Propagator,
    apply_jump,
    free_hamiltonian,
    jump_density,
    two_peak_state,
)
from collapselab.lindblad import lindblad_rhs, trace_distance

SIZES = (64, 128, 256, 512)
MIN_SAMPLE_S = 0.02  # each sample times enough calls to last this long
SAMPLES = 5


def per_call_s(fn) -> float:
    fn()  # warm caches (lru_cache'd templates and kernels)
    calls = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - t0 >= MIN_SAMPLE_S:
            break
        calls *= 2
    samples = []
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples)


def sweep() -> dict[str, float]:
    out: dict[str, float] = {}
    params = GrwParams(alpha=0.0625, lam=1.0, hbar=1.0, mass=10.0)
    for m in SIZES:
        grid = Grid(m, 1.0)
        h = free_hamiltonian(grid, params.mass, params.hbar)
        prop = Propagator(h, params.hbar)
        psi = two_peak_state(grid, (24.0, 40.0), (0.5, 0.5), 2.0)
        rho = psi.density_matrix()
        other = two_peak_state(grid, (20.0, 44.0), (0.5, 0.5), 2.0).density_matrix()
        grids = {0: grid}
        key = f"sweep.m{m}."
        out[key + "propagator_build_s"] = per_call_s(lambda: Propagator(h, params.hbar))
        out[key + "advance_s"] = per_call_s(lambda: prop.advance(psi.amplitudes, 0.01))
        out[key + "jump_density_s"] = per_call_s(lambda: jump_density(psi, 0, grid, params))
        out[key + "apply_jump_s"] = per_call_s(lambda: apply_jump(psi, 0, 24.0, grid, params))
        out[key + "lindblad_rhs_s"] = per_call_s(lambda: lindblad_rhs(rho, h, params, grids))
        out[key + "lindblad_rhs_noh_s"] = per_call_s(
            lambda: lindblad_rhs(rho, None, params, grids)
        )
        out[key + "trace_distance_s"] = per_call_s(lambda: trace_distance(rho, other))
    return out


if __name__ == "__main__":
    print(json.dumps(sweep()))
