"""End-to-end experiments: position EPR with a collapsing pointer, the
singlet measurement story, and trajectory-vs-oracle ensemble checks.

Every scenario is driven by a master seed.  Each random draw is a pure
function of (master seed, trial, index, tag) (``rng``): a singlet
trial's B and A outcomes are its draws 0 and 1 of tag ``rng.OUTCOMES``,
an ``epr`` trial's b outcome is its draw 0 of that tag, and trajectories
draw their jump schedules and centres as ``grw.evolve_trajectory``
says.  Trials run in windows, one pool task each, and each window's draws
come from array computations over its trials.  A trajectory window is
one ``grw.evolve_block`` call, which sorts its trials into blocks of
``grw.block_rows``: a serial ``oracle-compare`` window fills the mixture
buffer (``lindblad.Mixture``), a pooled one a share of it, and an ``epr``
or ``grw-run`` window is WINDOW_BLOCKS blocks.  Reports are bit-identical
however trials are split into windows and blocks or spread over workers.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import ConfigError, InvariantViolationError
from .grw import (
    GRID_POINTS,
    Block,
    Grid,
    GrwParams,
    Propagator,
    block_rows,
    evolve_block,
    free_hamiltonian,
    gaussian_packet,
    marginal_weights,
    mean_positions,
    two_peak_state,
    validate_step,
    window_masses,
)
from .hilbert import (
    MAX_TOTAL_DIM,
    StateVector,
    SubsystemShape,
    partial_trace,
    tensor_product,
)
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
from .schema import COUNT, FINITE, NON_NEGATIVE, POSITIVE, SEED, Check, check_fields, checked
from .schema import check_value, integer, report_config, setting
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

# Work budgets, checked before a run starts: ten times the largest tier-1
# or benchmark run (3*10^4 trials; 1.04*10^5 trajectory events, epr at 4000
# trials).  Grid sizes are bounded by hilbert.MAX_TOTAL_DIM instead.
MAX_TRIALS = 10**6  # every trial's record stays in memory until the report is written
MAX_EVENTS = 10**6  # trials * (lambda * rate factor * horizon + checkpoints)
SINGLET_BLOCK = 4096  # trials per block of a singlet run
# Blocks per window of an epr or grw-run.  The window keeps the final states of
# its trials (2 MiB at d = 64 and at d = 256) until their records are made.
WINDOW_BLOCKS = 8


def _check_packet_width(key: str, width: float, spacing: float) -> None:
    """Reject a packet narrower than half the grid spacing.  Sampled on the
    grid, such a packet no longer has the spread it was asked for: its
    discrete normalization departs from the continuum one by up to
    2 exp(-2 pi^2 width^2 / spacing^2) (Poisson summation), 1.4% at half a
    spacing, and far below it the packet is one site or, between sites, none."""
    if not width >= 0.5 * spacing:
        raise ConfigError(f"key '{key}' = {width} is narrower than half the grid spacing "
                          f"{spacing}; the grid cannot resolve the packet")


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


def pool_size(workers: int, n: int) -> int:
    """Worker processes worth starting for n trials: no more than the cores or the trials."""
    return min(workers, os.cpu_count() or 1, n)


def _map_indexed(fn: Callable[[Item], T], items: Sequence[Item], workers: int) -> Iterator[T]:
    """fn over ``items`` (windows of trial indices) in order, computed as the
    caller consumes the results.  Each item is one pool task, and at most
    ``workers`` tasks are submitted ahead of the consumer, so finished
    windows cannot pile up."""
    workers = pool_size(workers, len(items))
    if workers <= 1:
        yield from map(fn, items)
        return
    from collections import deque
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing; only pools need it

    with ProcessPoolExecutor(max_workers=workers) as ex:
        pending: deque = deque()
        for item in items:
            if len(pending) == workers:
                yield pending.popleft().result()
            pending.append(ex.submit(fn, item))
        while pending:
            yield pending.popleft().result()


def _blocks(n: int, rows: int) -> list[range]:
    """Trial indices 0 .. n - 1 in consecutive blocks of ``rows``."""
    return [range(start, min(n, start + rows)) for start in range(0, n, rows)]


def _windows(n: int, dim: int) -> list[range]:
    """Trial indices 0 .. n - 1 in the windows of an epr or grw-run."""
    return _blocks(n, WINDOW_BLOCKS * block_rows(dim))


# -- position EPR with a collapsing pointer ----------------------------------


@dataclass(frozen=True)
class EprConfig:
    """Two entangled region qubits plus one pointer on a periodic grid.

    Particle a occupies region delta1 (qubit 0) or delta3 (qubit 1);
    particle b is correlated into delta2 or delta4.  The measurement
    couples a's region to the pointer by a conditional displacement of
    ``coupling_sites`` grid sites (a von Neumann interaction integrated
    exactly); localization jumps then act on the pointer alone at the
    amplified rate ``amplification * base_rate``.
    """

    trials: int = setting(1000, "number of measurement trials", COUNT)
    delta1: float = setting(-30.0, "region label for particle a, branch 1", FINITE)
    delta2: float = setting(-10.0, "region label for particle b, branch 1", FINITE)
    delta3: float = setting(10.0, "region label for particle a, branch 2", FINITE)
    delta4: float = setting(30.0, "region label for particle b, branch 2", FINITE)
    packet_width: float = setting(1.0, "pointer packet spread", POSITIVE)
    # the (2, 2, points) state stays within the dense-storage cap
    pointer_points: int = setting(64, "pointer grid points", integer(8, MAX_TOTAL_DIM // 4))
    pointer_spacing: float = setting(1.0, "pointer grid spacing", POSITIVE)
    pointer_alpha: float = setting(0.25, "pointer localization parameter", POSITIVE)
    base_rate: float = setting(0.2, "base jump rate", NON_NEGATIVE, key="lambda", report="lambda")
    amplification: int = setting(25, "pointer rate amplification factor", COUNT)
    coupling_sites: int = setting(24, "pointer displacement in sites (0 = no measurement)",
                                  integer(0), key="coupling")
    horizon: float = setting(5.0, "measurement duration", POSITIVE)
    master_seed: int = checked(SEED, default=0)
    workers: int = checked(COUNT, default=1)

    def __post_init__(self) -> None:
        check_fields(self)
        _check_packet_width("packet_width", self.packet_width, self.pointer_spacing)
        regions = (self.delta1, self.delta2, self.delta3, self.delta4)
        if any(abs(a - b) < 10.0 * self.packet_width for a, b in combinations(regions, 2)):
            raise ConfigError("regions must be pairwise separated by at least 10 packet widths")
        if self.amplification * self.base_rate * self.horizon < 20.0:
            raise ConfigError(
                "amplification * lambda * horizon must be >= 20 so the pointer "
                "collapses within the run"
            )
        if self.coupling_sites:
            shift = abs(self.coupling_sites) * self.pointer_spacing
            length = self.pointer_points * self.pointer_spacing
            if shift < 10.0 / math.sqrt(self.pointer_alpha):
                raise ConfigError(
                    "pointer displacement must exceed 10 localization widths"
                )
            if shift < 10.0 * self.packet_width or shift > length / 2.0:
                raise ConfigError("pointer displacement must resolve the two packets")


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
) -> list[dict]:
    # without a Hamiltonian and with explicit sample times, the step only has to be positive
    block = evolve_block(psi, None, params, {2: grid}, config.horizon, config.horizon,
                         config.master_seed, trials, sample_times=[config.horizon],
                         rate_factors={2: float(config.amplification)})
    final = block.states[-1]
    region_a = marginal_weights(final, psi.shape, 0)
    region_b = marginal_weights(final, psi.shape, 1)
    pointer_mean = mean_positions(marginal_weights(final, psi.shape, 2), grid)
    draws_b = uniforms(config.master_seed, trials, OUTCOMES, 1)[:, 0].tolist()
    records = []
    for row, index in enumerate(trials):
        w1, w3 = float(region_a[row, 0]), float(region_a[row, 1])
        conclusive = max(w1, w3) >= POINTER_BRANCH_THRESHOLD
        outcome_a = None
        if conclusive:
            outcome_a = "delta1" if w1 > w3 else "delta3"
        prob_b_delta2 = float(region_b[row, 0])
        outcome_b = "delta2" if draws_b[row] < prob_b_delta2 else "delta4"
        records.append({
            "trial": index,
            "conclusive": conclusive,
            "outcome_a": outcome_a,
            "outcome_b": outcome_b,
            "weight_delta1": w1,
            "weight_delta3": w3,
            "prob_b_delta2": prob_b_delta2,
            "n_jumps": int(block.n_jumps[row]),
            "pointer_mean": float(pointer_mean[row]),
        })
    return records


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
    trials = [t for records in _map_indexed(
        partial(_epr_window, config, psi, grid, params), windows, config.workers
    ) for t in records]

    conclusive = [t for t in trials if t["conclusive"]]
    n_c = len(conclusive)
    a1 = sum(1 for t in conclusive if t["outcome_a"] == "delta1")
    b2 = sum(1 for t in trials if t["outcome_b"] == "delta2")
    cond_12 = [t for t in conclusive if t["outcome_a"] == "delta1"]
    cond_34 = [t for t in conclusive if t["outcome_a"] == "delta3"]
    good_12 = sum(1 for t in cond_12 if t["outcome_b"] == "delta2")
    good_34 = sum(1 for t in cond_34 if t["outcome_b"] == "delta4")

    aggregates = {
        "trials": config.trials,
        "conclusive_trials": n_c,
        "inconclusive_trials": config.trials - n_c,
        "freq_a_delta1": a1 / n_c if n_c else 0.0,
        "freq_a_delta3": (n_c - a1) / n_c if n_c else 0.0,
        "freq_b_delta2": b2 / config.trials,
        "freq_b_delta4": (config.trials - b2) / config.trials,
        "cond_b_delta2_given_a_delta1": good_12 / len(cond_12) if cond_12 else 0.0,
        "cond_b_delta4_given_a_delta3": good_34 / len(cond_34) if cond_34 else 0.0,
        "oracle_b_marginal_delta2": oracle_b[0],
        "oracle_b_marginal_delta4": oracle_b[1],
        "mean_jumps": float(np.mean([t["n_jumps"] for t in trials])),
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
_OUTCOME_VALUES = tuple("".join(map(str, TripleOutcome.with_zero_at(k).values)) for k in range(3))


def _singlet_block(
    triple_b: OrthoTriple, triple_a: OrthoTriple | None, measure_b: bool, seed: int,
    trials: range,
) -> tuple[list[dict], np.ndarray, np.ndarray]:
    """A block's records and its B and A outcomes (-1 on a wing that does
    not measure).  The state and both triples are fixed for the run, so B's
    outcomes are drawn as one array, then A's, grouped by the B outcome
    they follow.  Each drawn branch is normalized and checked (product
    fidelity included) as measuring the trial's own copy of the pair
    would, so a zero-mass branch raises only if drawn."""
    u = uniforms(seed, trials, OUTCOMES, 2)  # B's draw, then A's
    b, a = np.full(len(trials), -1), np.full(len(trials), -1)
    if measure_b:
        b_measurement = TripleBranches(singlet_state(), 1, triple_b)
        b = b_measurement.outcomes(u[:, 0])
    fields_of = {}  # (B outcome, A outcome) -> a record's fields after "trial"
    for kb in np.unique(b).tolist():
        psi, fields, rows = singlet_state(), {}, b == kb
        if kb >= 0:
            psi = b_measurement.state(kb)
            expected = np.kron(zero_ket(triple_b.axes[kb]), zero_ket(triple_b.axes[kb]))
            fidelity = abs(np.vdot(expected, psi.amplitudes)) ** 2
            if abs(fidelity - 1.0) > 1e-12:
                raise InvariantViolationError(
                    f"post-measurement state is not the expected product (fid {fidelity})"
                )
            fields = {"b_values": _OUTCOME_VALUES[kb], "b_zero_axis": kb,
                      "product_fidelity": fidelity}
        if triple_a is not None:
            a_measurement = TripleBranches(psi, 0, triple_a)
            a[rows] = a_measurement.outcomes(u[rows, 1])
        for ka in np.unique(a[rows]).tolist():
            fields_of[kb, ka] = rec = dict(fields)
            if ka >= 0:
                a_measurement.state(ka)  # normalizes the drawn branch, as measuring would
                rec.update(a_values=_OUTCOME_VALUES[ka], a_zero_axis=ka)
                if measure_b:
                    rec["agree_all_axes"] = ka == kb
    records = [{"trial": i, **fields_of[kb, ka]}
               for i, kb, ka in zip(trials, b.tolist(), a.tolist())]
    return records, b, a


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
    blocks = list(_map_indexed(partial(_singlet_block, triple_b, triple_a, measure_b, seed),
                               _blocks(trials, SINGLET_BLOCK), workers))
    rows = [r for records, _, _ in blocks for r in records]
    b = np.concatenate([block[1] for block in blocks])
    a = np.concatenate([block[2] for block in blocks])
    aggregates: dict = {"trials": trials}
    if measure_b:
        aggregates["freq_b_zero_axis"] = (np.bincount(b, minlength=3) / trials).tolist()
    if triple_a is not None:
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
        trials=rows,
        wall_time_s=time.perf_counter() - t0,
    )


# -- trajectory ensemble vs deterministic oracle ------------------------------


@dataclass(frozen=True)
class OracleComparisonConfig:
    """Grid, localization parameters and initial packet layout shared by
    the trajectory ensemble and the deterministic oracle."""

    grid_points: int = setting(64, "grid points", GRID_POINTS, key="points")
    grid_spacing: float = setting(1.0, "grid spacing", POSITIVE, key="spacing")
    # localization width = 4 grid spacings
    alpha: float = setting(0.0625, "inverse squared localization width", POSITIVE)
    rate: float = setting(1.0, "jump rate per particle", NON_NEGATIVE, key="lambda",
                          report="lambda")
    hbar: float = setting(1.0, "action unit", POSITIVE)
    mass: float = setting(10.0, "particle mass for the free Hamiltonian", POSITIVE)
    hamiltonian: str = setting("none", "free Hamiltonian choice: 'none' or 'free'",
                               Check("'none' or 'free'", ("none", "free").__contains__))
    peak_centers: tuple[float, ...] = setting((24.0, 40.0), "initial packets as center:weight,...",
                                              FINITE, key="peaks")
    peak_weights: tuple[float, ...] = setting((0.5, 0.5), "", POSITIVE, key="peaks")
    packet_width: float = setting(2.0, "initial packet position spread", POSITIVE)
    horizon: float = setting(5.0, "total evolution time", POSITIVE)
    dt: float = setting(0.01, "step bound / sampling resolution", POSITIVE)
    checkpoints: int = setting(4, "number of equally spaced comparison times", COUNT)
    record_trials: bool = False

    def __post_init__(self) -> None:
        check_fields(self)
        if len(self.peak_centers) != len(self.peak_weights) or not self.peak_centers:
            raise ConfigError("peak centers and weights must match and be non-empty")
        if len(set(self.peak_centers)) < len(self.peak_centers):
            raise ConfigError("key 'peaks': packet centers must be distinct")
        if abs(sum(self.peak_weights) - 1.0) > 1e-9:
            raise ConfigError("peak weights must sum to 1")
        _check_packet_width("packet_width", self.packet_width, self.grid_spacing)

    def grid(self) -> Grid:
        return Grid(self.grid_points, self.grid_spacing)

    def params(self) -> GrwParams:
        return GrwParams(alpha=self.alpha, lam=self.rate, hbar=self.hbar, mass=self.mass)

    def initial_state(self) -> StateVector:
        return two_peak_state(
            self.grid(), self.peak_centers, self.peak_weights, self.packet_width
        )

    def sample_times(self) -> list[float]:
        return [self.horizon * (i + 1) / self.checkpoints for i in range(self.checkpoints)]


@dataclass(frozen=True)
class _Ensemble:
    """What every trajectory of an oracle-compare or grw-run shares.

    Built once per run and handed to the blocks of trials by ``partial``;
    workers receive it pickled with each chunk of blocks (the propagator
    is M floats).
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
    grid = config.grid()
    hamiltonian = None
    propagator = None
    if config.hamiltonian == "free":
        hamiltonian = free_hamiltonian(grid, config.mass, config.hbar)
        propagator = Propagator(hamiltonian, config.hbar)
    ensemble = _Ensemble(
        config, grid, config.params(), config.initial_state(), config.sample_times(), propagator
    )
    return ensemble, hamiltonian


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
    # pool's workers return theirs, and the parent holds up to pool + 1 of
    # them, so their windows are cut to about a buffer together
    chunks = max(1, mixture.capacity // MIXTURE_CHUNK // (pool + 1))
    windows = _blocks(ensemble_size, mixture.capacity if pool <= 1 else chunks * MIXTURE_CHUNK)
    out = mixture.buffer if pool_size(workers, len(windows)) <= 1 else None
    evolved = _map_indexed(partial(_ensemble_window, ensemble, master_seed, out=out),
                           windows, workers)
    jumps = 0
    records: list[dict] | None = [] if config.record_trials else None
    # not zip or enumerate: their reused result tuple would keep each window's
    # Block alive while the next one is evolved
    for block in evolved:
        first = mixture.size
        jumps += int(np.sum(block.n_jumps))
        if records is not None:
            weights = marginal_weights(block.states[-1], ensemble.psi0.shape, 0)
            records.extend(
                {"trial": first + row, "n_jumps": int(n), "final_mean_position": float(m)}
                for row, (n, m) in enumerate(zip(block.n_jumps, mean_positions(weights, grid)))
            )
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
        trials=records,
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
    trials = [t for records in _map_indexed(
        partial(_grw_window, ensemble, master_seed), windows, workers
    ) for t in records]
    branch_counts = [0] * len(config.peak_centers)
    localized = 0
    for t in trials:
        if t["branch"] >= 0:
            branch_counts[t["branch"]] += 1
            localized += 1
    aggregates = {
        "trajectories": ensemble_size,
        "localized_trajectories": localized,
        "localized_fraction": localized / ensemble_size,
        "branch_frequencies": [c / ensemble_size for c in branch_counts],
        "expected_branch_weights": list(config.peak_weights),
        "mean_jumps": float(np.mean([t["n_jumps"] for t in trials])),
    }
    return ExperimentReport(
        scenario="grw_run",
        config=report_config(config),
        master_seed=master_seed,
        aggregates=aggregates,
        trials=trials,
        wall_time_s=time.perf_counter() - t0,
    )


def _grw_window(ensemble: _Ensemble, master_seed: int, trials: range) -> list[dict]:
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
    means = mean_positions(weights, grid)
    records = []
    for row, index in enumerate(trials):
        best = int(np.argmax(masses[row]))
        records.append({
            "trial": index,
            "n_jumps": int(block.n_jumps[row]),
            "branch": best if masses[row, best] >= 0.99 else -1,
            "peak_masses": [float(m) for m in masses[row]],
            "final_mean_position": float(means[row]),
        })
    return records
