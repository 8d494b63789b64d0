"""The counter-based sampler: Philox4x64-10 against numpy's, the laws of
its uniforms and exponentials, and the independence of its draws from
the trials drawn alongside."""
import math

import numpy as np
import pytest
import scipy.stats

from collapselab.grw import sample_jump_times
from collapselab.rng import JUMPS, OUTCOMES, philox, uniforms

WORD = 2**64 - 1


@pytest.mark.parametrize("key", [0, 1, 12345, (9 << 64) | 7, 2**128 - 1])
@pytest.mark.parametrize("counter", [
    (0, 0, 0, 0),
    (123, 456, 789, 1011),
    (WORD, 5, 3, 0),  # the low word carries into the next
    (WORD, WORD, 2, 0),  # ... twice
])
def test_philox_matches_numpy_bit_for_bit(key, counter):
    reference = np.random.Philox(counter=np.array(counter, dtype=np.uint64), key=key)
    # numpy increments its counter before it uses it
    value = sum(c << (64 * i) for i, c in enumerate(counter)) + 1
    words = np.array([[(value >> (64 * i)) & WORD] for i in range(4)], dtype=np.uint64)
    assert np.array_equal(philox(key, words)[:, 0], reference.random_raw(4))


def test_draws_are_the_words_of_their_counters():
    # draw j of trial i is word j % 4 of the counter (i, j // 4, tag, 0)
    u = uniforms(77, [3, 40], JUMPS, 9)
    for row, trial in enumerate([3, 40]):
        for j in range(9):
            counter = np.array([[trial], [j // 4], [JUMPS], [0]], dtype=np.uint64)
            word = int(philox(77, counter)[j % 4, 0])
            assert u[row, j] == (word >> 11) * 2.0**-53


def test_a_jump_is_drawn_from_its_particles_counters():
    # particle p's k-th jump: gap from draw 2k, centre uniform from draw 2k + 1 of JUMPS + p
    n_jumps, times, particles, centres = sample_jump_times({3: 2.5}, 4.0, 8, [21])
    u = uniforms(8, [21], JUMPS + 3, 2 * n_jumps[0])[0]
    assert n_jumps[0] > 1 and np.all(particles[0, :n_jumps[0]] == 3)
    assert times[0, 0] == -math.log1p(-u[0]) / 2.5
    assert times[0, 1] == times[0, 0] + -math.log1p(-u[2]) / 2.5
    assert np.array_equal(centres[0, :n_jumps[0]], u[1::2])


def test_uniforms_pass_a_ks_test():
    u = uniforms(2024, range(250_000), OUTCOMES, 4).ravel()
    assert u.size == 10**6 and 0.0 <= u.min() and u.max() < 1.0
    assert scipy.stats.kstest(u, "uniform").pvalue >= 0.01


def test_exponential_gaps_pass_a_ks_test():
    # the inverse-CDF transform sample_jump_times applies to the gap draws, at rate 1
    gaps = -np.log1p(-uniforms(2025, range(500_000), JUMPS, 4)[:, 0::2].ravel())
    assert gaps.size == 10**6
    assert scipy.stats.kstest(gaps, "expon").pvalue >= 0.01


def test_draws_do_not_depend_on_the_other_trials_or_the_range():
    full = uniforms(5, range(12), OUTCOMES, 11)
    assert np.array_equal(uniforms(5, range(5, 9), OUTCOMES, 11), full[5:9])
    assert np.array_equal(uniforms(5, range(12), OUTCOMES, 11, 3), full[:, 3:])
    assert not np.array_equal(uniforms(5, range(12), JUMPS, 11), full)
    assert not np.array_equal(uniforms(6, range(12), OUTCOMES, 11), full)


@pytest.mark.parametrize("rates", [{0: 3.0}, {0: 1.0, 2: 40.0}])
def test_jump_schedules_do_not_depend_on_the_other_trials(rates):
    full = sample_jump_times(rates, 2.0, 9, range(12))
    some = sample_jump_times(rates, 2.0, 9, range(5, 9))
    width = some[1].shape[1]
    assert np.array_equal(some[0], full[0][5:9])
    for part, whole in zip(some[1:], full[1:]):
        assert np.array_equal(part, whole[5:9, :width])
    assert np.all(full[1][5:9, width:] == np.inf)
