"""Deterministic, splittable random streams.

Every stochastic routine takes an explicit ``numpy.random.Generator``.
Ensemble drivers derive one independent stream per trial from
``(master_seed, trial_index)``, so results are bit-reproducible no
matter how trials are scheduled across workers.
"""
from __future__ import annotations

import numpy as np


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream addressed by (master seed, index path)."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(ss))


def draw_index(weights: np.ndarray, u: float) -> int:
    """Inverse-CDF draw of an index from non-negative ``weights`` (any
    total) for a uniform ``u`` in [0, 1); the cumulative sum starts at
    index 0."""
    c = np.cumsum(weights)
    return min(int(np.searchsorted(c, u * c[-1], side="right")), weights.size - 1)


def draw_rows(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``draw_index`` for each row of non-negative (n, m) ``weights``, with the
    uniform ``u[i]`` for row i."""
    c = np.cumsum(weights, axis=1)
    # on a non-decreasing row, the count of sums <= u * total is searchsorted(side="right")
    below = c <= np.multiply(u, c[:, -1])[:, None]
    return np.minimum(np.count_nonzero(below, axis=1), weights.shape[1] - 1)
