"""Counter-based random draws.

Draw j of trial i for purpose ``tag`` is a pure function of (master
seed, i, j, tag): word j mod 4 of the Philox4x64-10 block (Salmon,
Moraes, Dror and Shaw, SC11 (2011)) keyed by the seed as two 64-bit
words, at the counter (i, j // 4, tag, 0), mapped to the uniform
(w >> 11) * 2**-53 in [0, 1).  No draw depends on another, so results
are bit-reproducible however trials are split into blocks or spread
over workers.  Tags: ``OUTCOMES`` (measurement outcomes) and ``JUMPS``
+ p (the jumps of particle p: gaps and centres).
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

OUTCOMES, JUMPS = 0, 1
_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)  # of counter words 0 and 2
_BUMPS = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # added to the key after each round


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream addressed by (master seed, index path).  No
    run draws from it; ``perfbench/traced.py`` still names it as a span."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(ss))


def philox(seed: int, counters: np.ndarray) -> np.ndarray:
    """Philox4x64-10 of each column of (4, n) uint64 ``counters`` under the
    128-bit key ``seed``.  The rounds carry the multiplied words 0 and 2 and
    the XORed words 1 and 3 as two (2, n) arrays."""
    mul, bump = (np.array(c, dtype=np.uint64)[:, None] for c in (_MULTIPLIERS, _BUMPS))
    key = np.array([seed & (2**64 - 1), seed >> 64], dtype=np.uint64)[:, None]
    half, low = np.uint64(32), np.uint64(2**32 - 1)
    mul_lo, mul_hi = mul & low, mul >> half
    a, b = counters[0::2], counters[1::2]
    for _ in range(10):
        a_lo, a_hi = a & low, a >> half
        # the high half of each 64x64-bit product, from 32-bit halves
        u = a_hi * mul_lo + ((a_lo * mul_lo) >> half)
        v = a_lo * mul_hi + (u & low)
        hi = a_hi * mul_hi + (u >> half) + (v >> half)
        a, b = hi[::-1] ^ b ^ key, (a * mul)[::-1]
        key = key + bump  # wraps modulo 2**64
    return np.stack((a[0], b[0], a[1], b[1]))


def uniforms(seed: int, trials: Sequence[int], tag: int, stop: int, start: int = 0) -> np.ndarray:
    """Draws ``start`` .. ``stop`` - 1 of each trial for ``tag``, as a
    (len(trials), stop - start) array."""
    first, last = start // 4, -(-stop // 4)
    counters = np.zeros((4, len(trials), last - first), dtype=np.uint64)
    counters[0] = np.asarray(trials, dtype=np.uint64)[:, None]
    counters[1], counters[2] = np.arange(first, last, dtype=np.uint64), tag
    words = philox(seed, counters.reshape(4, -1)).reshape(4, len(trials), -1)
    draws = words.transpose(1, 2, 0).reshape(len(trials), -1)[:, start % 4:stop - 4 * first]
    return (draws >> np.uint64(11)) * 2.0**-53


def draw_rows(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw of an index from each row of non-negative (n, m)
    ``weights`` (any total), with the uniform ``u[i]`` in [0, 1) for row
    i; the cumulative sum starts at index 0."""
    c = np.cumsum(weights, axis=1)
    # on a non-decreasing row, the count of sums <= u * total is searchsorted(side="right")
    below = c <= np.multiply(u, c[:, -1])[:, None]
    return np.minimum(np.count_nonzero(below, axis=1), weights.shape[1] - 1)
