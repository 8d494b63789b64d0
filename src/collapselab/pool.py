"""The trial pool the singlet and trajectory runs share: work budgets,
blocks of trial indices, the process pool that maps a task over them in
order, and the join of their trial columns.  It imports no engine, so
``spin`` and ``scenarios`` each load only their own.
"""
from __future__ import annotations

import os
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import ConfigError, WorkerLostError
from .schema import SEED, check_value

T = TypeVar("T")
Item = TypeVar("Item")

# Work budgets, checked before a run starts: ten times the largest tier-1
# or benchmark run (3*10^4 trials; 1.04*10^5 trajectory events, epr at 4000
# trials).  Grid sizes are bounded by configs.MAX_TOTAL_DIM instead.
# Every trial's record stays in memory, as columns, until the report is
# written: a 10^6-trial singlet peaks at ~400 MB RSS, ~370 bytes a trial,
# most of it the report text (139 bytes a trial), held twice while joined.
MAX_TRIALS = 10**6
MAX_EVENTS = 10**6  # trials * (lambda * rate factor * horizon + checkpoints)

# Pool tasks submitted ahead of the consumer per worker: the one it runs and one queued.
TASKS_PER_WORKER = 2


def check_budget(seed: int, trials: int, trials_key: str, events_per_trial: float = 0.0) -> None:
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


def map_indexed(fn: Callable[[Item], T], items: Sequence[Item], workers: int) -> Iterator[T]:
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


def blocks(n: int, rows: int) -> list[range]:
    """Trial indices 0 .. n - 1 in consecutive blocks of ``rows``."""
    return [range(start, min(n, start + rows)) for start in range(0, n, rows)]


def joined(windows: Iterable[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """The trial columns of consecutive windows, joined into the run's columns."""
    windows = list(windows)
    return {key: np.concatenate([w[key] for w in windows]) for key in windows[0]}
