"""End-to-end experiments: position EPR with a collapsing pointer, the
singlet measurement story, and trajectory-vs-oracle ensemble checks.

Every scenario is driven by a master seed.  Each random draw is a pure
function of (master seed, trial, index, tag) (``rng``): a singlet
trial's B and A outcomes are its draws 0 and 1 of tag ``rng.OUTCOMES``,
an ``epr`` trial's b outcome is its draw 0 of that tag, and trajectories
draw their jump schedules and the two uniforms of each centre as
``grw.sample_jump_times`` says.  Trials run in windows, one pool task
each, and each window's draws come from array computations over its
trials; a pool keeps TASKS_PER_WORKER tasks per worker submitted ahead
of the consumer.  A trajectory window is one ``grw.evolve_block``
call, which sorts its trials into blocks of ``grw.block_rows`` rows: a
serial ``oracle-compare`` window fills the mixture buffer
(``lindblad.Mixture``), a pooled one a share of it, and an ``epr`` or
``grw-run`` window holds WINDOW_BLOCKS * ``block_rows(d)`` trials, the
trials of WINDOW_BLOCKS blocks of amplitudes.  Without a Hamiltonian
(every ``epr`` run) ``evolve_block`` evolves real multipliers in larger
blocks instead, so a default ``epr`` window (d = 256, M = 64) is one
512-row block.  Reports are bit-identical however trials are split into
windows and blocks or spread over workers.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .configs import EprConfig, OracleComparisonConfig
from .errors import ConfigError, InvariantViolationError, WorkerLostError
from .grw import (
    Block,
    Grid,
    GrwParams,
    Propagator,
    block_rows,
    evolve_block,
    factor_marginals,
    free_hamiltonian,
    gaussian_packet,
    marginal_weights,
    mean_positions,
    two_peak_state,
    validate_step,
    window_masses,
)
from .hilbert import StateVector, SubsystemShape, partial_trace, tensor_product
from .lindblad import (
    MIXTURE_CHUNK,
    LindbladConfig,
    Mixture,
    check_oracle_budget,
    generator_norm,
    integrate_with_snapshots,
)
from .report import ExperimentReport
from .rng import OUTCOMES, uniforms
from .schema import SEED, check_value, report_config
from .spin import (
    OrthoTriple,
    TripleBranches,
    TripleOutcome,
    joint_probability_table,
    singlet_state,
    zero_ket,
)

T = TypeVar("T")
Item = TypeVar("Item")

POINTER_BRANCH_THRESHOLD = 0.99  # below this on both branches a trial is inconclusive
_A_OUTCOMES = np.array([None, "delta1", "delta3"], dtype=object)  # inconclusive, then by branch
_B_OUTCOMES = np.array(["delta2", "delta4"], dtype=object)

# Work budgets, checked before a run starts: ten times the largest tier-1
# or benchmark run (3*10^4 trials; 1.04*10^5 trajectory events, epr at 4000
# trials).  Grid sizes are bounded by configs.MAX_TOTAL_DIM instead.
# Every trial's record stays in memory, as columns, until the report is
# written: a 10^6-trial singlet peaks at ~400 MB RSS, ~370 bytes a trial,
# most of it the report text (139 bytes a trial), held twice while joined.
MAX_TRIALS = 10**6
MAX_EVENTS = 10**6  # trials * (lambda * rate factor * horizon + checkpoints)
SINGLET_BLOCK = 4096  # trials per block of a singlet run
# Blocks of amplitudes per window of an epr or grw-run: a window holds
# WINDOW_BLOCKS * block_rows(d) trials, whichever engine evolves them.  The
# window keeps the final states of its trials (2 MiB at d = 64 and at d = 256)
# until their records are made.
WINDOW_BLOCKS = 8


def _check_budget(seed: int, trials: int, trials_key: str, events_per_trial: float = 0.0) -> None:
    """Reject a run whose seed is out of range or whose expected size would
    exhaust time or memory."""
    check_value("seed", seed, SEED)
    if trials > MAX_TRIALS:
        raise ConfigError(f"key '{trials_key}' = {trials} exceeds the work budget of {MAX_TRIALS}")
    events = trials * events_per_trial
    if not events <= MAX_EVENTS:
        raise ConfigError(f"{events:.3g} expected trajectory events, {trials_key} * (lambda * "
                          f"rate factor * horizon + checkpoints), exceed the work budget of "
                          f"{MAX_EVENTS}")


# Pool tasks submitted ahead of the consumer per worker: the one it runs and one queued.
TASKS_PER_WORKER = 2


def pool_size(workers: int, n: int) -> int:
    """Worker processes worth starting for n trials: no more than the cores or the trials."""
    return min(workers, os.cpu_count() or 1, n)


def _map_indexed(fn: Callable[[Item], T], items: Sequence[Item], workers: int) -> Iterator[T]:
    """fn over ``items`` (windows of trial indices) in order, computed as the
    caller consumes the results.  Each item is one pool task, and at most
    TASKS_PER_WORKER tasks per worker are submitted ahead of the consumer:
    a worker that finishes early starts its queued task instead of waiting
    for the oldest window to be consumed, and finished windows cannot pile
    up.  A worker that dies before it returns its task raises
    WorkerLostError."""
    workers = pool_size(workers, len(items))
    if workers <= 1:
        yield from map(fn, items)
        return
    from collections import deque
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing; only pools need it
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            pending: deque = deque()
            for item in items:
                if len(pending) == TASKS_PER_WORKER * workers:
                    yield pending.popleft().result()
                pending.append(ex.submit(fn, item))
            while pending:
                yield pending.popleft().result()
    except BrokenProcessPool as exc:
        raise WorkerLostError(f"a worker process died before it returned its task: {exc}") from exc


def _blocks(n: int, rows: int) -> list[range]:
    """Trial indices 0 .. n - 1 in consecutive blocks of ``rows``."""
    return [range(start, min(n, start + rows)) for start in range(0, n, rows)]


def _windows(n: int, dim: int) -> list[range]:
    """Trial indices 0 .. n - 1 in the windows of an epr or grw-run."""
    return _blocks(n, WINDOW_BLOCKS * block_rows(dim))


def _joined(windows: Iterable[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """The trial columns of consecutive windows, joined into the run's columns."""
    windows = list(windows)
    return {key: np.concatenate([w[key] for w in windows]) for key in windows[0]}


# -- position EPR with a collapsing pointer ----------------------------------


def _epr_initial_state(config: EprConfig) -> tuple[StateVector, Grid]:
    grid = Grid(config.pointer_points, config.pointer_spacing)
    ready = grid.origin + (config.pointer_points // 4) * config.pointer_spacing
    pointer = gaussian_packet(grid, ready, config.packet_width)
    region = StateVector(
        SubsystemShape((2, 2)),
        np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0),
    )
    psi = tensor_product(region, pointer)
    if config.coupling_sites:
        arr = np.array(psi.reshaped())
        arr[1] = np.roll(arr[1], config.coupling_sites, axis=-1)
        psi = StateVector(psi.shape, arr.reshape(-1))
    return psi, grid


def _epr_window(
    config: EprConfig, psi: StateVector, grid: Grid, params: GrwParams, trials: range
) -> dict[str, np.ndarray]:
    # without a Hamiltonian and with explicit sample times, the step only has to be positive
    block = evolve_block(psi, None, params, {2: grid}, config.horizon, config.horizon,
                         config.master_seed, trials, sample_times=[config.horizon],
                         rate_factors={2: float(config.amplification)})
    region_a, region_b, pointer = factor_marginals(block.states[-1], psi.shape, (0, 1, 2))
    w1, w3 = region_a[:, 0], region_a[:, 1]
    prob_b_delta2 = region_b[:, 0]
    conclusive = np.maximum(w1, w3) >= POINTER_BRANCH_THRESHOLD
    draws_b = uniforms(config.master_seed, trials, OUTCOMES, 1)[:, 0]
    return {
        "trial": np.arange(trials.start, trials.stop),
        "conclusive": conclusive.astype(object),
        "outcome_a": _A_OUTCOMES[np.where(conclusive, np.where(w1 > w3, 1, 2), 0)],
        "outcome_b": _B_OUTCOMES[np.where(draws_b < prob_b_delta2, 0, 1)],
        "weight_delta1": w1,
        "weight_delta3": w3,
        "prob_b_delta2": prob_b_delta2,
        "n_jumps": block.n_jumps,
        "pointer_mean": mean_positions(pointer, grid),
    }


def _epr_oracle_b_marginal(
    config: EprConfig, psi: StateVector, grid: Grid
) -> tuple[float, float]:
    """Particle-b region populations from the deterministic ensemble law,
    on the identical discretization (pointer jumps at the amplified rate)."""
    params = GrwParams(
        alpha=config.pointer_alpha, lam=config.base_rate * config.amplification
    )
    # without a Hamiltonian the oracle is the closed form and takes no steps
    lconf = LindbladConfig(dt=config.horizon, horizon=config.horizon)
    check_oracle_budget(psi.shape.total_dim, None, lconf, 0)
    rho_t, _ = integrate_with_snapshots(psi.density_matrix(), None, params, {2: grid}, lconf)
    rho_b = partial_trace(rho_t, keep=(1,))
    diag = np.real(np.diag(rho_b.entries))
    return float(diag[0]), float(diag[1])


def run_epr_position(config: EprConfig) -> ExperimentReport:
    """Measure particle a's region via the collapsing pointer; record the
    selected branch and the conditional location of particle b."""
    t0 = time.perf_counter()
    _check_budget(config.master_seed, config.trials, "trials",
                  config.base_rate * config.amplification * config.horizon + 1)
    psi, grid = _epr_initial_state(config)
    # the oracle runs first, so an input it rejects fails before any trial
    oracle_b = _epr_oracle_b_marginal(config, psi, grid)
    params = GrwParams(alpha=config.pointer_alpha, lam=config.base_rate)
    windows = _windows(config.trials, psi.shape.total_dim)
    trials = _joined(_map_indexed(
        partial(_epr_window, config, psi, grid, params), windows, config.workers))

    n_c = int(np.count_nonzero(trials["conclusive"].astype(bool)))
    a1 = trials["outcome_a"] == "delta1"
    a3 = trials["outcome_a"] == "delta3"
    b2 = trials["outcome_b"] == "delta2"
    n_a1, n_a3, n_b2 = (int(np.count_nonzero(x)) for x in (a1, a3, b2))
    good_12 = int(np.count_nonzero(a1 & b2))
    good_34 = int(np.count_nonzero(a3 & ~b2))

    aggregates = {
        "trials": config.trials,
        "conclusive_trials": n_c,
        "inconclusive_trials": config.trials - n_c,
        "freq_a_delta1": n_a1 / n_c if n_c else 0.0,
        "freq_a_delta3": (n_c - n_a1) / n_c if n_c else 0.0,
        "freq_b_delta2": n_b2 / config.trials,
        "freq_b_delta4": (config.trials - n_b2) / config.trials,
        "cond_b_delta2_given_a_delta1": good_12 / n_a1 if n_a1 else 0.0,
        "cond_b_delta4_given_a_delta3": good_34 / n_a3 if n_a3 else 0.0,
        "oracle_b_marginal_delta2": oracle_b[0],
        "oracle_b_marginal_delta4": oracle_b[1],
        "mean_jumps": float(np.mean(trials["n_jumps"])),
    }
    return ExperimentReport(
        scenario="epr_position",
        config=report_config(config),
        master_seed=config.master_seed,
        aggregates=aggregates,
        trials=trials,
        wall_time_s=time.perf_counter() - t0,
    )


# -- singlet pair with spacelike ordering ------------------------------------


def _triple_as_lists(triple: OrthoTriple | None) -> list[list[float]] | None:
    if triple is None:
        return None
    return [list(d.components) for d in triple.axes]


# squared-spin values on a triple's axes, by the axis that holds the 0
_OUTCOME_VALUES = np.array(
    ["".join(map(str, TripleOutcome.with_zero_at(k).values)) for k in range(3)], dtype=object)


def _present(outcomes: np.ndarray) -> list[int]:
    """The distinct outcome codes (-1 for none, else the zero's axis) in
    ``outcomes``, ascending; np.unique would import numpy.ma (~10 ms)."""
    return (np.flatnonzero(np.bincount(outcomes + 1, minlength=4)) - 1).tolist()


def _singlet_block(
    triple_b: OrthoTriple, triple_a: OrthoTriple | None, measure_b: bool, seed: int,
    trials: range,
) -> dict[str, np.ndarray]:
    """A block's trial columns.  The state and both triples are fixed for
    the run, so B's outcomes are drawn as one array, then A's, grouped by
    the B outcome they follow, and each column indexes its field's values
    by the outcomes.  Each drawn branch is normalized and checked (product
    fidelity included) as measuring the trial's own copy of the pair
    would, so a zero-mass branch raises only if drawn."""
    u = uniforms(seed, trials, OUTCOMES, 2)  # B's draw, then A's
    b, a = np.full(len(trials), -1), np.full(len(trials), -1)
    if measure_b:
        b_measurement = TripleBranches(singlet_state(), 1, triple_b)
        b = b_measurement.outcomes(u[:, 0])
    fidelity = np.zeros(3)  # by B outcome
    for kb in _present(b):
        psi, rows = singlet_state(), b == kb
        if kb >= 0:
            psi = b_measurement.state(kb)
            expected = np.kron(zero_ket(triple_b.axes[kb]), zero_ket(triple_b.axes[kb]))
            fidelity[kb] = abs(np.vdot(expected, psi.amplitudes)) ** 2
            if abs(fidelity[kb] - 1.0) > 1e-12:
                raise InvariantViolationError(
                    f"post-measurement state is not the expected product (fid {fidelity[kb]})"
                )
        if triple_a is not None:
            a_measurement = TripleBranches(psi, 0, triple_a)
            a[rows] = a_measurement.outcomes(u[rows, 1])
            for ka in _present(a[rows]):
                a_measurement.state(ka)  # normalizes the drawn branch, as measuring would
    columns = {"trial": np.arange(trials.start, trials.stop)}
    if measure_b:
        columns.update(b_values=_OUTCOME_VALUES[b], b_zero_axis=b, product_fidelity=fidelity[b])
    if triple_a is not None:
        columns.update(a_values=_OUTCOME_VALUES[a], a_zero_axis=a)
        if measure_b:
            columns["agree_all_axes"] = (a == b).astype(object)
    return columns


def run_singlet_spacetime(
    triple_b: OrthoTriple,
    triple_a: OrthoTriple | None,
    trials: int,
    seed: int,
    *,
    measure_b: bool = True,
    workers: int = 1,
) -> ExperimentReport:
    """B measures first (collapsing the pair to a product of zero kets),
    then A; with equal triples the outcomes agree axis by axis in every
    trial.  Disable ``measure_b`` for the no-B control used by the
    parameter-independence comparison."""
    t0 = time.perf_counter()
    _check_budget(seed, trials, "trials")
    columns = _joined(_map_indexed(
        partial(_singlet_block, triple_b, triple_a, measure_b, seed),
        _blocks(trials, SINGLET_BLOCK), workers))
    aggregates: dict = {"trials": trials}
    if measure_b:
        b = columns["b_zero_axis"]
        aggregates["freq_b_zero_axis"] = (np.bincount(b, minlength=3) / trials).tolist()
    if triple_a is not None:
        a = columns["a_zero_axis"]
        aggregates["freq_a_zero_axis"] = (np.bincount(a, minlength=3) / trials).tolist()
    if triple_a is not None and measure_b:
        joint = np.bincount(3 * a + b, minlength=9).reshape(3, 3)
        aggregates["joint_zero_axis_freq"] = (joint / trials).tolist()
        aggregates["agreement_frequency"] = np.count_nonzero(a == b) / trials
        aggregates["exact_joint_table"] = joint_probability_table(triple_a, triple_b).tolist()
    return ExperimentReport(
        scenario="singlet_spacetime",
        config={
            "triple_a": _triple_as_lists(triple_a),
            "triple_b": _triple_as_lists(triple_b),
            "measure_b": measure_b,
            "trials": trials,
        },
        master_seed=seed,
        aggregates=aggregates,
        trials=columns,
        wall_time_s=time.perf_counter() - t0,
    )


# -- trajectory ensemble vs deterministic oracle ------------------------------


@dataclass(frozen=True)
class _Ensemble:
    """What every trajectory of an oracle-compare or grw-run shares.

    Built once per run and handed to the windows of trials by ``partial``;
    each window is one pool task, and a worker receives the ensemble
    pickled with it (the propagator is M floats).
    """

    config: OracleComparisonConfig
    grid: Grid
    params: GrwParams
    psi0: StateVector
    times: list[float]
    propagator: Propagator | None


def _ensemble_setup(config: OracleComparisonConfig) -> tuple[_Ensemble, np.ndarray | None]:
    """The run's shared trajectory setup and its free Hamiltonian's first
    column (None for ``hamiltonian = 'none'``)."""
    grid = Grid(config.grid_points, config.grid_spacing)
    hamiltonian = None
    propagator = None
    if config.hamiltonian == "free":
        hamiltonian = free_hamiltonian(grid, config.mass, config.hbar)
        propagator = Propagator(hamiltonian, config.hbar)
    params = GrwParams(alpha=config.alpha, lam=config.rate, hbar=config.hbar, mass=config.mass)
    psi0 = two_peak_state(grid, config.peak_centers, config.peak_weights, config.packet_width)
    times = [config.horizon * (i + 1) / config.checkpoints for i in range(config.checkpoints)]
    return _Ensemble(config, grid, params, psi0, times, propagator), hamiltonian


def _ensemble_window(
    ensemble: _Ensemble, master_seed: int, trials: range, *, final_only: bool = False,
    out: np.ndarray | None = None,
) -> Block:
    config = ensemble.config
    return evolve_block(ensemble.psi0, ensemble.propagator, ensemble.params,
                        {0: ensemble.grid}, config.horizon, config.dt, master_seed, trials,
                        sample_times=ensemble.times, final_only=final_only, out=out)


def run_oracle_comparison(
    config: OracleComparisonConfig,
    ensemble_size: int,
    master_seed: int,
    workers: int = 1,
) -> ExperimentReport:
    """K stochastic trajectories against the deterministic ensemble law,
    compared by trace distance at the checkpoints (threshold 5/sqrt K)."""
    if ensemble_size < 100:
        raise ConfigError("ensemble size must be at least 100")
    t0 = time.perf_counter()
    _check_budget(master_seed, ensemble_size, "k",
                  config.rate * config.horizon + config.checkpoints)
    lconf = LindbladConfig(dt=config.dt, horizon=config.horizon)
    ensemble, hamiltonian = _ensemble_setup(config)
    grid = ensemble.grid
    times = ensemble.times
    rows = block_rows(grid.points)
    # the oracle runs first, so an input it rejects fails before any trial;
    # so does the trajectories' step check, which the oracle does not need
    validate_step(config.dt, ensemble.propagator)
    norm = None if hamiltonian is None else generator_norm(ensemble.propagator, config.rate)
    check_oracle_budget(grid.points, norm, lconf, len(times), rows)
    snapshots = integrate_with_snapshots(
        ensemble.psi0.density_matrix(), hamiltonian, ensemble.params, {0: grid}, lconf,
        snapshot_times=times,
    )[1]
    mixture = Mixture(times, grid.points)
    pool = pool_size(workers, ensemble_size)
    # a serial run evolves each window straight into the mixture buffer; a
    # pool's workers return theirs, and the parent holds up to the windows
    # submitted ahead plus the one it folds, so those are cut to about a
    # buffer together
    chunks = max(1, mixture.capacity // MIXTURE_CHUNK // (TASKS_PER_WORKER * pool + 1))
    windows = _blocks(ensemble_size, mixture.capacity if pool <= 1 else chunks * MIXTURE_CHUNK)
    out = mixture.buffer if pool_size(workers, len(windows)) <= 1 else None
    evolved = _map_indexed(partial(_ensemble_window, ensemble, master_seed, out=out),
                           windows, workers)
    jumps = 0
    records: list[dict[str, np.ndarray]] | None = [] if config.record_trials else None
    # not zip or enumerate: their reused result tuple would keep each window's
    # Block alive while the next one is evolved
    for block in evolved:
        first = mixture.size
        jumps += int(np.sum(block.n_jumps))
        if records is not None:
            weights = marginal_weights(block.states[-1], ensemble.psi0.shape, 0)
            records.append({"trial": np.arange(first, first + len(block.n_jumps)),
                            "n_jumps": block.n_jumps,
                            "final_mean_position": mean_positions(weights, grid)})
        mixture.fold(block.states)
        del block  # before the next window is evolved

    comparisons = mixture.compare(snapshots)
    aggregates = {
        "ensemble_size": ensemble_size,
        "times": times,
        "distances": [c.distance for c in comparisons],
        "threshold": comparisons[0].threshold,
        "within_threshold": [bool(c.within_threshold) for c in comparisons],
        "mean_jumps": jumps / ensemble_size,  # the sum is exact, as np.mean's is
    }
    return ExperimentReport(
        scenario="oracle_comparison",
        config=report_config(config),
        master_seed=master_seed,
        aggregates=aggregates,
        trials=None if records is None else _joined(records),
        wall_time_s=time.perf_counter() - t0,
    )


# -- plain trajectory ensembles (no oracle) ----------------------------------


def run_grw_ensemble(
    config: OracleComparisonConfig,
    ensemble_size: int,
    master_seed: int,
    workers: int = 1,
) -> ExperimentReport:
    """Trajectory ensemble summary: jump counts, branch selection and
    single-peak localization statistics for a multi-packet start."""
    t0 = time.perf_counter()
    _check_budget(master_seed, ensemble_size, "trajectories",
                  config.rate * config.horizon + config.checkpoints)
    ensemble, _ = _ensemble_setup(config)
    windows = _windows(ensemble_size, config.grid_points)
    trials = _joined(_map_indexed(partial(_grw_window, ensemble, master_seed), windows, workers))
    branch = trials["branch"]
    branch_counts = np.bincount(branch[branch >= 0], minlength=len(config.peak_centers))
    localized = int(np.count_nonzero(branch >= 0))
    aggregates = {
        "trajectories": ensemble_size,
        "localized_trajectories": localized,
        "localized_fraction": localized / ensemble_size,
        "branch_frequencies": [c / ensemble_size for c in branch_counts.tolist()],
        "expected_branch_weights": list(config.peak_weights),
        "mean_jumps": float(np.mean(trials["n_jumps"])),
    }
    return ExperimentReport(
        scenario="grw_run",
        config=report_config(config),
        master_seed=master_seed,
        aggregates=aggregates,
        trials=trials,
        wall_time_s=time.perf_counter() - t0,
    )


def _grw_window(ensemble: _Ensemble, master_seed: int, trials: range) -> dict[str, np.ndarray]:
    config = ensemble.config
    grid = ensemble.grid
    block = _ensemble_window(ensemble, master_seed, trials, final_only=True)
    weights = marginal_weights(block.states[-1], ensemble.psi0.shape, 0)
    halfwidth = min(
        abs(grid.min_image(a - b))
        for i, a in enumerate(config.peak_centers)
        for b in config.peak_centers[i + 1 :]
    ) / 2.0 if len(config.peak_centers) > 1 else grid.length / 4.0
    masses = np.stack(
        [window_masses(weights, grid, c, halfwidth) for c in config.peak_centers], axis=1
    )
    best = np.argmax(masses, axis=1)
    return {
        "trial": np.arange(trials.start, trials.stop),
        "n_jumps": block.n_jumps,
        "branch": np.where(masses[np.arange(len(best)), best] >= 0.99, best, -1),
        "peak_masses": masses,
        "final_mean_position": mean_positions(weights, grid),
    }
