import math
from functools import partial

import numpy as np
import pytest
import scipy.linalg
import scipy.stats

from collapselab import grw
from collapselab.errors import ConfigError, GridAdequacyError, StepConditionError, ZeroNormError
from collapselab.grw import (
    Grid,
    GrwParams,
    Propagator,
    apply_jump,
    circulant,
    evolve_block,
    evolve_equivariant,
    evolve_trajectory,
    free_hamiltonian,
    gaussian_packet,
    gaussian_template,
    jump_density,
    marginal_weights,
    mean_positions,
    sample_jump_times,
    translate_state,
    two_peak_state,
    window_masses,
)
from collapselab.hilbert import StateVector, SubsystemShape, partial_trace, tensor_product
from collapselab.rng import draw_rows
from dense_helpers import localization_operator

GRID = Grid(64, 1.0)
PARAMS = GrwParams(alpha=0.0625, lam=1.0, mass=10.0)  # localization width 4 spacings

WIDE_GRID = Grid(128, 1.0)
WIDE_PARAMS = GrwParams(alpha=0.01, lam=1.0)  # localization width 10 spacings


def position_weights(psi):
    """The position weights of a single-factor state, as a one-row array."""
    return marginal_weights(psi.amplitudes[None, :], psi.shape, 0)


def draw_index(weights, u):
    """The scalar inverse-CDF rule: the first index whose cumulative weight
    exceeds u times the total (the last index at most)."""
    c = np.cumsum(weights)
    return min(int(np.searchsorted(c, u * c[-1], side="right")), weights.size - 1)


def direct_jump_table(psi, grid, alpha):
    """Direct-summation oracle for the jump law of a single-factor state."""
    w = np.abs(psi.amplitudes) ** 2
    m = grid.points
    table = np.zeros(m)
    for k in range(m):
        for q in range(m):
            d = min(abs(q - k), m - abs(q - k)) * grid.spacing
            g = (alpha / math.pi) ** 0.25 * math.exp(-0.5 * alpha * d * d)
            table[k] += g * g * w[q]
    return table * grid.spacing


# -- localization operator ------------------------------------------------------


def test_localization_entry_at_center():
    op = localization_operator(GRID, PARAMS.alpha, 10.0)
    assert abs(op.entries[10, 10] - (PARAMS.alpha / math.pi) ** 0.25) <= 1e-15


def test_localization_completeness_by_direct_summation():
    # oracle: independent double loop over centres and positions
    total = np.zeros(GRID.points)
    for k in range(GRID.points):
        diag = np.real(np.diag(localization_operator(GRID, PARAMS.alpha, float(k)).entries))
        total += diag * diag * GRID.spacing
    assert np.max(np.abs(total - 1.0)) <= 1e-6
    assert PARAMS.alpha * GRID.spacing**2 <= 0.1
    assert GRID.length >= 10.0 / math.sqrt(PARAMS.alpha)


def test_localization_symmetric_about_center():
    op = localization_operator(GRID, PARAMS.alpha, 20.0)
    diag = np.real(np.diag(op.entries))
    for offset in range(1, 30):
        assert abs(diag[(20 + offset) % 64] - diag[(20 - offset) % 64]) <= 1e-15


def test_localization_center_off_grid_rejected():
    with pytest.raises(ValueError):
        localization_operator(GRID, PARAMS.alpha, 10.3)


# -- jump density ----------------------------------------------------------------


def test_jump_density_peaked_state():
    psi = gaussian_packet(WIDE_GRID, 40.0, 1.0)  # width 1 << 10
    table = jump_density(psi, 0, WIDE_GRID, WIDE_PARAMS)
    oracle = direct_jump_table(psi, WIDE_GRID, WIDE_PARAMS.alpha)
    np.testing.assert_allclose(table, oracle / oracle.sum(), atol=1e-12)
    mean = float(np.dot(table, WIDE_GRID.coordinates()))
    assert abs(mean - 40.0) <= WIDE_GRID.spacing
    assert table[40] == table.max()


def test_jump_density_two_peaks_split_half():
    psi = two_peak_state(WIDE_GRID, (30.0, 90.0), (0.5, 0.5), 1.5)
    table = jump_density(psi, 0, WIDE_GRID, WIDE_PARAMS)
    oracle = direct_jump_table(psi, WIDE_GRID, WIDE_PARAMS.alpha)
    np.testing.assert_allclose(table, oracle / oracle.sum(), atol=1e-12)
    x = WIDE_GRID.coordinates()
    near_1 = table[np.abs(x - 30.0) <= 30.0].sum()
    assert abs(near_1 - 0.5) <= 1e-3


def test_jump_density_uniform_state():
    amps = np.ones(GRID.points, dtype=complex) / math.sqrt(GRID.points)
    psi = StateVector(SubsystemShape((GRID.points,)), amps)
    table = jump_density(psi, 0, GRID, PARAMS)
    assert np.max(np.abs(table - 1.0 / GRID.points)) <= 1e-9


def test_jump_mass_close_to_one_on_adequate_grid():
    # the pre-normalization mass sum_k ||L(x_k) psi||^2 dx, from dense operators
    psi = two_peak_state(GRID, (24.0, 40.0), (0.5, 0.5), 2.0)
    mass = sum(np.linalg.norm(localization_operator(GRID, PARAMS.alpha, float(k)).entries
                              @ psi.amplitudes) ** 2 for k in range(GRID.points)) * GRID.spacing
    assert abs(mass - 1.0) <= 1e-6
    jump_density(psi, 0, GRID, PARAMS)  # and the table's own mass check passes


def test_jump_density_inadequate_grid_rejected():
    grid = Grid(8, 1.0)
    psi = gaussian_packet(grid, 4.0, 1.0)
    with pytest.raises(GridAdequacyError):
        jump_density(psi, 0, grid, GrwParams(alpha=0.001, lam=1.0))


@pytest.mark.filterwarnings("error")
def test_packets_narrower_than_the_spacing_raise_no_numpy_warning():
    # the variance is denormal: sites away from the centre overflow to exp(-inf) = 0
    np.testing.assert_array_equal(gaussian_packet(GRID, 16.0, 1e-160).amplitudes,
                                  np.eye(GRID.points)[16])
    for center, width in ((16.0, 1e-200), (16.5, 1e-10)):  # squares to 0; between sites
        with pytest.raises(GridAdequacyError, match="cannot resolve"):
            gaussian_packet(GRID, center, width)


def _lattice_histogram(draw, n, points):
    """The distribution of the centres ``draw(draws)`` over the n x n
    midpoint lattice of uniforms (u, v), 64 values of u at a time."""
    v = (np.arange(n) + 0.5) / n
    counts = np.zeros(points)
    for start in range(0, n, 64):
        u = (np.arange(start, min(n, start + 64)) + 0.5) / n
        draws = np.stack((np.repeat(u, n), np.tile(v, u.size)), axis=1)
        counts += np.bincount(draw(draws), minlength=points)
    return counts / n**2


def _law_cases():
    """Three composed draws, each with the state whose jump law it samples."""
    psi = two_peak_state(GRID, (24.0, 40.0), (0.6, 0.4), 2.0)

    def single_draw(draws):
        return grw._draw_centres(position_weights(psi), draws, GRID, PARAMS.alpha)

    pointer = Grid(32, 1.0)
    pair = _entangled_packets(pointer, (6.0, 22.0), (10.0, 26.0), 1.5)
    params = GrwParams(alpha=0.25, lam=1.5)
    multipliers = grw._Multipliers(pair, params, {0: pointer, 1: pointer}, 1)
    row = np.array([0])
    for p, u, v in ((0, 0.3, 0.6), (1, 0.7, 0.2), (0, 0.55, 0.9)):  # localize both factors
        multipliers.jump(p, pointer, row, np.array([[u, v]]))

    def multiplier_draw(draws):
        f = multipliers.factors[1][row]
        weights = np.multiply(np.square(f), multipliers._others(1, row))  # F_1^2 W_1
        return grw._draw_centres(weights, draws, pointer, params.alpha)

    localized = StateVector(pair.shape, multipliers.states(row)[0])
    prop = Propagator(free_hamiltonian(GRID, mass=10.0))
    equivariant = grw._Equivariant(psi, prop, PARAMS, 1)
    equivariant.advance(np.array([0.7]), np.array([True]))
    moved = StateVector(psi.shape, equivariant.states(row)[0])
    return {
        "single factor": (single_draw, psi, 0, GRID, PARAMS),
        "multipliers": (multiplier_draw, localized, 1, pointer, params),
        "equivariant": (partial(equivariant.centres, 0, GRID), moved, 0, GRID, PARAMS),
    }


@pytest.mark.parametrize("case", ["single factor", "multipliers", "equivariant"])
def test_composed_centres_follow_the_jump_law(case):
    # on the n x n midpoint lattice the site draw puts within 1/n of each
    # weight on every site and the offset draw within 1/n of g^2/sum g^2 on
    # every offset, so the centres' distribution is within (2n + M)/n^2 of
    # the law everywhere: no sampling error, nothing left to chance
    draw, psi, particle, grid, params = _law_cases()[case]
    n = 1024
    got = _lattice_histogram(draw, n, grid.points)
    law = jump_density(psi, particle, grid, params)
    assert np.max(np.abs(got - law)) <= (2 * n + grid.points) / n**2
    assert np.max(law) > 10 * (2 * n + grid.points) / n**2  # the bound is not vacuous


@pytest.mark.parametrize("nudged", [24, 40])
def test_tied_maxima_nudged_by_an_ulp_draw_the_same_centre(monkeypatch, nudged):
    # two equal maxima: which one is larger by an ulp must not move the centre
    psi = two_peak_state(GRID, (24.0, 40.0), (0.5, 0.5), 2.0)
    tied = np.zeros(GRID.points)
    tied[[24, 40]] = 0.5
    ulp = tied.copy()
    ulp[nudged] = np.nextafter(0.5, 1.0)
    draw_centres = grw._draw_centres
    centres = []
    for weights in (tied, ulp):
        # every jumping row of a block draws its site from these weights, and
        # v = 0 draws the offset 0, so each centre is its site
        monkeypatch.setattr(grw, "_draw_centres", lambda w, draws, *args, weights=weights:
                            draw_centres(np.tile(weights, (len(draws), 1)),
                                         np.multiply(draws, [1.0, 0.0]), *args))
        block = evolve_block(psi, None, PARAMS, {0: GRID}, 5.0, 0.05, 9, range(8))
        centres.append(block.jump_centres.tolist())
    assert set(centres[0]) == {24.0, 40.0}
    assert centres[0] == centres[1]


def test_block_draw_is_the_inverse_cdf_of_draw_index():
    rng = np.random.default_rng(12)
    weights = rng.random((200, 64)) * (rng.random((200, 64)) < 0.3)
    weights[:, 0] = 0.0
    u = rng.random(200)
    got = draw_rows(weights, u)
    assert got.tolist() == [draw_index(w, x) for w, x in zip(weights, u)]


def test_block_rows_match_single_trajectories():
    # a block's rows are the trajectories evolve_trajectory runs for the same trials
    psi = two_peak_state(GRID, (24.0, 40.0), (0.6, 0.4), 2.0)
    prop = Propagator(free_hamiltonian(GRID, mass=10.0))
    times = [0.5, 1.0, 2.0]
    block = evolve_block(psi, prop, PARAMS, {0: GRID}, 2.0, 0.02, 13, range(5),
                         sample_times=times)
    for i in range(5):
        traj = evolve_trajectory(psi, prop, PARAMS, {0: GRID}, 2.0, 0.02, 13, i,
                                 sample_times=times)
        assert traj.jumps == block.jumps(i)
        for s, state in enumerate(traj.states):
            assert np.array_equal(state.amplitudes, block.states[s, i])
    last = evolve_block(psi, prop, PARAMS, {0: GRID}, 2.0, 0.02, 13, range(5),
                        sample_times=times, final_only=True)
    assert np.array_equal(last.states, block.states[-1:])


def test_permuted_trials_give_the_same_rows(monkeypatch):
    # a window sorts its trials by event count into blocks; any order of the
    # trials, in blocks of any size, gives each trial the same bits, whether
    # the blocks are amplitudes (with a propagator) or multipliers (without)
    psi = two_peak_state(GRID, (24.0, 40.0), (0.6, 0.4), 2.0)
    times = [0.5, 1.0, 2.0]
    trials = np.arange(300)
    perm = np.random.default_rng(3).permutation(trials)
    for prop in (Propagator(free_hamiltonian(GRID, mass=10.0)), None):
        ref = evolve_block(psi, prop, PARAMS, {0: GRID}, 2.0, 0.02, 17, trials,
                           sample_times=times)
        with monkeypatch.context() as patch:
            patch.setattr(grw, "block_rows", lambda *_: 37)
            got = evolve_block(psi, prop, PARAMS, {0: GRID}, 2.0, 0.02, 17, perm,
                               sample_times=times)
        assert np.array_equal(got.states.view(float), ref.states[:, perm].view(float))
        assert np.array_equal(got.n_jumps, ref.n_jumps[perm])
        for row, trial in enumerate(perm[:40]):
            assert got.jumps(row) == ref.jumps(trial)


def test_a_window_runs_its_sorted_blocks_rounds():
    # each round every live row takes one event, so a block runs as many rounds
    # as its busiest row has events, and the window's blocks are its trials
    # sorted by event count
    psi = two_peak_state(GRID, (24.0, 40.0), (0.6, 0.4), 2.0)
    times = [0.5, 1.0, 2.0]
    block = evolve_block(psi, Propagator(free_hamiltonian(GRID, mass=10.0)), PARAMS, {0: GRID},
                         2.0, 0.02, 19, range(700), sample_times=times)
    rows = grw.block_rows(GRID.points)
    events = np.sort(block.n_jumps) + len(times)
    assert block.rounds == sum(events[start:start + rows].max() for start in range(0, 700, rows))
    unsorted = block.n_jumps + len(times)
    assert block.rounds < sum(unsorted[start:start + rows].max() for start in range(0, 700, rows))


def _entangled_packets(grid, centres_a, centres_b, width):
    """(|a1>|b1> + |a2>|b2>) / sqrt 2 of packets on two copies of ``grid``."""
    amps = sum(np.kron(gaussian_packet(grid, a, width).amplitudes,
                       gaussian_packet(grid, b, width).amplitudes)
               for a, b in zip(centres_a, centres_b))
    return StateVector(SubsystemShape((grid.points, grid.points)), amps).normalize()


def _multiplier_cases():
    pointer = Grid(32, 1.0)
    region = StateVector(SubsystemShape((2,)), np.array([1.0, 1.0j]) / math.sqrt(2.0))
    arr = tensor_product(region, gaussian_packet(pointer, 8.0, 1.0)).reshaped().copy()
    arr[1] = np.roll(arr[1], 12)  # the pointer reads the region, as in epr
    coupled = StateVector(SubsystemShape((2, 32)), arr.reshape(-1))
    return {
        "one factor": (two_peak_state(GRID, (24.0, 40.0), (0.6, 0.4), 2.0), {0: GRID},
                       PARAMS, None),
        "pointer": (coupled, {1: pointer}, GrwParams(alpha=0.25, lam=0.2), {1: 25.0}),
        "two factors": (_entangled_packets(pointer, (6.0, 22.0), (10.0, 26.0), 1.5),
                        {0: pointer, 1: pointer}, GrwParams(alpha=0.25, lam=1.5), {1: 2.0}),
    }


@pytest.mark.parametrize("case", ["one factor", "pointer", "two factors"])
def test_multipliers_match_amplitudes_under_a_zero_hamiltonian(case):
    # without a Hamiltonian a block evolves real multipliers of psi0; driven
    # by a zero Hamiltonian, the amplitude engine runs the same trajectories
    psi, grids, params, rate_factors = _multiplier_cases()[case]
    times = [0.5, 1.0, 2.0]
    kwargs = dict(sample_times=times, rate_factors=rate_factors)
    zero = Propagator(np.zeros(psi.shape.total_dim))
    got = evolve_block(psi, None, params, grids, 2.0, 0.02, 23, range(200), **kwargs)
    ref = evolve_block(psi, zero, params, grids, 2.0, 0.02, 23, range(200), **kwargs)
    assert np.array_equal(got.n_jumps, ref.n_jumps) and got.n_jumps.sum() > 200
    assert np.array_equal(got.jump_particles, ref.jump_particles)
    assert set(got.jump_particles.tolist()) == set(grids)
    assert np.array_equal(got.jump_centres, ref.jump_centres)
    assert np.max(np.abs(got.states - ref.states)) <= 1e-12
    assert np.max(np.abs(np.linalg.norm(got.states, axis=2) - 1.0)) <= 1e-12


def test_multipliers_raise_on_zero_norm_and_inadequate_grids(monkeypatch):
    one_site = np.zeros(GRID.points, dtype=complex)
    one_site[10] = 1.0
    psi = StateVector(SubsystemShape((GRID.points,)), one_site)
    # a centre 32 sites from the only occupied site leaves a norm of exp(-128);
    # every site is drawn from weights on site 42 alone, at offset 0 (v = 0)
    draw_centres, site = grw._draw_centres, np.eye(GRID.points)[42]
    monkeypatch.setattr(grw, "_draw_centres", lambda w, draws, *args:
                        draw_centres(np.tile(site, (len(draws), 1)),
                                     np.multiply(draws, [1.0, 0.0]), *args))
    with pytest.raises(ZeroNormError, match="42"):
        evolve_block(psi, None, GrwParams(alpha=0.25, lam=1.0), {0: GRID}, 5.0, 0.1, 1, range(4))
    monkeypatch.undo()
    # alpha dx^2 = 4: the grid cannot resolve the localization width
    with pytest.raises(GridAdequacyError):
        evolve_block(psi, None, GrwParams(alpha=4.0, lam=1.0), {0: GRID}, 5.0, 0.1, 1, range(4))


def test_in_place_advance_matches_advance_rows_bit_for_bit():
    prop = Propagator(free_hamiltonian(GRID, mass=10.0), hbar=0.7)
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(200, 64)) + 1j * rng.normal(size=(200, 64))
    taus = rng.random(200)
    # one phase array for all rows and out-of-place transforms
    phases = np.zeros(rows.shape, dtype=complex)
    phases.imag = np.negative(taus / 0.7)[:, None] * prop.eigenvalues
    reference = np.fft.ifft(np.exp(phases) * np.fft.fft(rows, axis=1), axis=1)
    copied = prop.advance_rows(rows, taus)
    assert np.array_equal(copied.view(float), reference.view(float))
    in_place = rows.copy()
    assert prop.advance_rows(in_place, taus, out=in_place) is in_place
    assert np.array_equal(in_place.view(float), reference.view(float))
    for i in range(0, 200, 37):
        assert np.array_equal(prop.advance(rows[i], taus[i]).view(float),
                              reference[i].view(float))


# -- applying jumps ---------------------------------------------------------------


def test_jump_on_narrow_packet_barely_disturbs_it():
    sigma = 1.0
    psi = gaussian_packet(WIDE_GRID, 64.0, sigma)
    out = apply_jump(psi, 0, 64.0, WIDE_GRID, WIDE_PARAMS)
    fidelity = abs(np.vdot(psi.amplitudes, out.amplitudes)) ** 2
    assert fidelity >= 1.0 - WIDE_PARAMS.alpha * sigma**2  # Gaussian product bound
    assert abs(out.norm() - 1.0) <= 1e-12


def test_jump_selects_branch_of_distant_superposition():
    # separation 48 >= 10 / sqrt(alpha) = 40
    grid = Grid(128, 1.0)
    params = GrwParams(alpha=0.0625, lam=1.0)
    psi = two_peak_state(grid, (32.0, 80.0), (0.5, 0.5), 2.0)
    out = apply_jump(psi, 0, 32.0, grid, params)
    assert window_masses(position_weights(out), grid, 32.0, 24.0)[0] >= 1.0 - 1e-6


def test_jump_on_product_state_leaves_other_factor_unchanged():
    ga = gaussian_packet(Grid(16, 1.0), 8.0, 1.5)
    gb = gaussian_packet(Grid(16, 1.0), 4.0, 1.5)
    psi = tensor_product(ga, gb)
    out = apply_jump(psi, 0, 8.0, Grid(16, 1.0), GrwParams(alpha=0.25, lam=1.0))
    rho_b_before = partial_trace(psi.density_matrix(), keep=(1,))
    rho_b_after = partial_trace(out.density_matrix(), keep=(1,))
    np.testing.assert_allclose(rho_b_after.entries, rho_b_before.entries, atol=1e-12)


def test_jump_zero_probability_center_rejected():
    amps = np.zeros(GRID.points, dtype=complex)
    amps[10] = 1.0
    psi = StateVector(SubsystemShape((GRID.points,)), amps)
    with pytest.raises(ZeroNormError):
        apply_jump(psi, 0, float((10 + 32) % 64), GRID, GrwParams(alpha=4.0, lam=1.0))


# -- jump times --------------------------------------------------------------------


def test_zero_rate_gives_no_jumps():
    n_jumps, times, particles, _ = sample_jump_times(dict.fromkeys(range(3), 0.0), 10.0, 0,
                                                      range(4))
    assert n_jumps.tolist() == [0] * 4
    assert times.shape == (4, 1) and np.all(times == np.inf) and np.all(particles == -1)


def test_poisson_mean_count():
    runs = 10_000
    counts, *_ = sample_jump_times({0: 2.0}, 5.0, 100, range(runs))
    mean = np.mean(counts)
    sigma = math.sqrt(10.0) / math.sqrt(runs)
    assert abs(mean - 10.0) <= 3 * sigma


def test_merged_two_particle_counts_are_poisson():
    lam, horizon, runs = 1.5, 2.0, 4000
    rates = {0: lam, 1: lam}
    counts, *_ = sample_jump_times(rates, horizon, 101, range(runs))
    mu = 2 * lam * horizon
    top = int(counts.max())
    observed = np.bincount(counts, minlength=top + 1).astype(float)
    expected = scipy.stats.poisson.pmf(np.arange(top + 1), mu) * runs
    # fold the tail into the last bin so expectations stay > ~5
    cut = int(scipy.stats.poisson.ppf(0.999, mu))
    obs = np.append(observed[:cut], observed[cut:].sum())
    exp = np.append(expected[:cut], runs - expected[:cut].sum())
    _, p = scipy.stats.chisquare(obs, exp)
    assert p >= 0.01


def test_jump_times_follow_per_particle_rates():
    # particles are keyed by factor index; a zero rate consumes no draws
    drawn = sample_jump_times({2: 3.0, 0: 0.0}, 2.0, 103, [0])
    alone = sample_jump_times({2: 3.0}, 2.0, 103, [0])
    assert all(np.array_equal(x, y) for x, y in zip(drawn, alone))
    n_jumps, _, particles, _ = drawn
    assert n_jumps[0] > 0 and np.all(particles[0, :n_jumps[0]] == 2)


def test_trajectory_jumps_follow_the_sampled_schedule():
    # two grid factors at different rate factors, as the EPR pointer uses them
    small = Grid(16, 1.0)
    psi = tensor_product(gaussian_packet(small, 8.0, 2.0), gaussian_packet(small, 4.0, 2.0))
    params = GrwParams(alpha=0.25, lam=0.5)
    traj = evolve_trajectory(psi, None, params, {0: small, 1: small}, 4.0, 0.1, 104, 0,
                             rate_factors={1: 3.0})
    n_jumps, times, particles, _ = sample_jump_times({0: 0.5, 1: 1.5}, 4.0, 104, [0])
    schedule = list(zip(times[0, :n_jumps[0]].tolist(), particles[0, :n_jumps[0]].tolist()))
    assert [(j.time, j.particle) for j in traj.jumps] == schedule
    assert {p for _, p in schedule} == {0, 1}


def test_jump_times_sorted_within_horizon():
    n_jumps, times, particles, _ = sample_jump_times(dict.fromkeys(range(4), 3.0), 2.0, 102,
                                                      [0])
    times, particles = times[0, :n_jumps[0]].tolist(), particles[0, :n_jumps[0]].tolist()
    assert times == sorted(times)
    assert all(0.0 < t < 2.0 for t in times)
    assert all(0 <= p < 4 for p in particles)


# -- propagation -------------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 7, 64])
def test_circulant_equals_scipy_bit_for_bit(m):
    col = np.random.default_rng(m).normal(size=m)
    assert np.array_equal(circulant(col), scipy.linalg.circulant(col))


def test_free_hamiltonian_is_hermitian_circulant():
    col = free_hamiltonian(GRID, mass=10.0)
    assert col.shape == (GRID.points,) and col.dtype == np.float64
    assert not col.flags.writeable
    assert np.array_equal(col, np.roll(col[::-1], 1))  # even, so its circulant is symmetric
    h = scipy.linalg.circulant(col)
    assert np.array_equal(h, h.T)
    k = 2.0 * math.pi * np.fft.fftfreq(GRID.points, d=GRID.spacing)
    np.testing.assert_allclose(np.linalg.eigvalsh(h), np.sort(k**2 / 20.0), rtol=0, atol=1e-12)


def test_propagator_matches_expm_oracle():
    col = free_hamiltonian(GRID, mass=10.0)
    prop = Propagator(col, hbar=1.0)
    h = scipy.linalg.circulant(col)
    rng = np.random.default_rng(0)
    psi = (rng.normal(size=64) + 1j * rng.normal(size=64))
    psi /= np.linalg.norm(psi)
    for tau in (0.013, 0.4, 2.7):
        expected = scipy.linalg.expm(-1j * h * tau) @ psi
        got = prop.advance(psi, tau)
        assert np.max(np.abs(got - expected)) <= 1e-9
        assert abs(np.linalg.norm(got) - 1.0) <= 1e-12
        # the fsum circulant matvec of evolve_equivariant
        assert np.max(np.abs(grw._fsum_advance(prop, psi, tau) - expected)) <= 1e-9


def test_propagator_rejects_non_circulant_or_non_hermitian_h():
    col = free_hamiltonian(Grid(8, 1.0), mass=1.0)
    with pytest.raises(ConfigError, match="first column"):
        Propagator(scipy.linalg.circulant(col))  # the dense matrix, not its column
    with pytest.raises(ConfigError, match="first column"):
        Propagator(1j * col)
    with pytest.raises(ConfigError, match="not even"):
        Propagator(np.arange(8.0))  # its circulant is not symmetric


# -- trajectories -------------------------------------------------------------------


def test_trajectory_no_dynamics_is_constant():
    psi = two_peak_state(GRID, (24.0, 40.0), (0.5, 0.5), 2.0)
    traj = evolve_trajectory(
        psi, None, GrwParams(alpha=PARAMS.alpha, lam=0.0), {0: GRID}, 1.0, 0.1, 1, 0
    )
    assert traj.jumps == ()
    for state in traj.states:
        np.testing.assert_allclose(state.amplitudes, psi.amplitudes, atol=0)


def test_trajectory_unitarity_with_hamiltonian():
    psi = two_peak_state(GRID, (24.0, 40.0), (0.5, 0.5), 2.0)
    prop = Propagator(free_hamiltonian(GRID, mass=10.0))
    traj = evolve_trajectory(
        psi, prop, GrwParams(alpha=PARAMS.alpha, lam=0.0, mass=10.0),
        {0: GRID}, 2.0, 0.02, 2, 0,
    )
    for state in traj.states:
        assert abs(state.norm() - 1.0) <= 1e-10


def test_trajectory_norms_and_jump_record():
    psi = two_peak_state(GRID, (24.0, 40.0), (0.6, 0.4), 2.0)
    traj = evolve_trajectory(psi, None, PARAMS, {0: GRID}, 5.0, 0.05, 3, 0)
    for state in traj.states:
        assert abs(state.norm() - 1.0) <= 1e-9
    jump_times = [j.time for j in traj.jumps]
    assert jump_times == sorted(jump_times)
    assert all(0.0 < t < 5.0 for t in jump_times)
    for j in traj.jumps:
        GRID.index_of(j.center)  # centres are on the grid


def test_step_condition_enforced():
    psi = two_peak_state(GRID, (24.0, 40.0), (0.5, 0.5), 2.0)
    prop = Propagator(free_hamiltonian(GRID, mass=1.0))  # max energy ~ pi^2/2
    with pytest.raises(StepConditionError):
        evolve_trajectory(psi, prop, GrwParams(alpha=0.0625, lam=0.0), {0: GRID}, 1.0, 0.05, 4, 0)


def test_localization_statistics_match_born_weights():
    # lam*T = 20 drives essentially every run into one branch
    weights = (0.6, 0.4)
    psi = two_peak_state(GRID, (24.0, 40.0), weights, 2.0)
    params = GrwParams(alpha=0.0625, lam=2.0)
    runs = 200
    block = evolve_block(psi, None, params, {0: GRID}, 10.0, 0.1, 200, range(runs),
                         sample_times=[10.0])
    final = marginal_weights(block.states[-1], psi.shape, 0)
    m1 = window_masses(final, GRID, 24.0, 8.0)
    m2 = window_masses(final, GRID, 40.0, 8.0)
    assert np.all(np.maximum(m1, m2) >= 0.99)
    freq_1 = np.count_nonzero(m1 > m2) / runs
    sigma = math.sqrt(weights[0] * weights[1] / runs)
    assert abs(freq_1 - weights[0]) <= 3 * sigma


def test_seed_matched_translation_covariance_is_exact():
    prop = Propagator(free_hamiltonian(GRID, mass=10.0))
    shift = 9
    times = [0.7, 1.4, 2.0]
    for peaks in ((24.0, 40.0), (2.0, 56.0)):  # the second state's weight straddles site 0
        psi = two_peak_state(GRID, peaks, (0.6, 0.4), 2.0)
        base = evolve_equivariant(psi, prop, PARAMS, {0: GRID}, 2.0, 0.02, 5, 0,
                                  sample_times=times)
        translated = evolve_equivariant(translate_state(psi, 0, shift), prop, PARAMS,
                                        {0: GRID}, 2.0, 0.02, 5, 0, sample_times=times)
        assert len(base.jumps) == len(translated.jumps) > 0
        for j1, j2 in zip(base.jumps, translated.jumps):
            assert j1.time == j2.time
            assert (GRID.index_of(j2.center) - GRID.index_of(j1.center)) % GRID.points == shift
        for s1, s2 in zip(base.states, translated.states):
            assert np.array_equal(np.roll(s1.amplitudes, shift), s2.amplitudes)


def test_tied_maxima_anchor_the_same_site_after_every_translation():
    # equal peaks tie the weights' maximum at two sites; the anchor must be
    # the same one of the two however far the state is translated
    psi = two_peak_state(GRID, (24.0, 40.0), (0.5, 0.5), 2.0)
    run = partial(evolve_equivariant, propagator=None, params=PARAMS, grid_map={0: GRID},
                  horizon=2.0, dt=0.02, seed=5, sample_times=[2.0])
    for trial in range(4):
        sites = [GRID.index_of(j.center) for j in run(psi, trial=trial).jumps]
        assert sites
        for shift in range(GRID.points):
            translated = run(translate_state(psi, 0, shift), trial=trial)
            assert [(GRID.index_of(j.center) - shift) % GRID.points
                    for j in translated.jumps] == sites, (trial, shift)


@pytest.mark.parametrize("factors", [1, 2])
def test_equivariant_mode_takes_the_block_jump_schedule(factors):
    # the same (seed, trial) gives both engines the same jump times and particles
    if factors == 1:
        psi = two_peak_state(GRID, (24.0, 40.0), (0.6, 0.4), 2.0)
        grids, params, rate_factors = {0: GRID}, PARAMS, None
    else:
        small = Grid(16, 1.0)
        psi = tensor_product(gaussian_packet(small, 8.0, 2.0), gaussian_packet(small, 4.0, 2.0))
        grids, params, rate_factors = {0: small, 1: small}, GrwParams(alpha=0.25, lam=0.5), {1: 3.0}
    # H acts on the whole space: any even column of the total dimension will do
    prop = Propagator(free_hamiltonian(Grid(psi.shape.total_dim, 1.0), mass=10.0))
    times = [1.0, 2.0]
    block = evolve_block(psi, prop, params, grids, 2.0, 0.02, 17, range(6),
                         sample_times=times, rate_factors=rate_factors)
    for i in range(6):
        traj = evolve_equivariant(psi, prop, params, grids, 2.0, 0.02, 17, i,
                                  sample_times=times, rate_factors=rate_factors)
        assert [(j.time, j.particle) for j in traj.jumps] == [
            (j.time, j.particle) for j in block.jumps(i)]
    assert set(block.jump_particles.tolist()) == set(grids)


def test_rate_factors_scale_jump_counts():
    pointer = gaussian_packet(GRID, 16.0, 1.0)
    params = GrwParams(alpha=0.25, lam=0.2)
    counts = []
    for i in range(50):
        traj = evolve_trajectory(
            pointer, None, params, {0: GRID}, 5.0, 0.1, 6, i,
            sample_times=[5.0], rate_factors={0: 25.0},
        )
        counts.append(len(traj.jumps))
    mean = np.mean(counts)  # expect 0.2 * 25 * 5 = 25
    assert abs(mean - 25.0) <= 3 * math.sqrt(25.0 / 50)


def test_position_helpers():
    w = position_weights(gaussian_packet(GRID, 20.0, 2.0))
    assert abs(w.sum() - 1.0) <= 1e-12
    assert abs(mean_positions(w, GRID)[0] - 20.0) <= 0.05
    assert window_masses(w, GRID, 20.0, 10.0)[0] >= 1.0 - 1e-6


def test_params_validation():
    with pytest.raises(ValueError):
        GrwParams(alpha=0.0, lam=1.0)
    with pytest.raises(ValueError):
        GrwParams(alpha=1.0, lam=-0.1)
    with pytest.raises(ValueError):
        GrwParams(alpha=1.0, lam=0.0, hbar=0.0)
    with pytest.raises(ValueError):
        GrwParams(alpha=1.0, lam=0.0, mass=-1.0)
    with pytest.raises(ConfigError, match="lam"):
        GrwParams(alpha=1.0, lam=float("nan"))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(4, 1.0)
    with pytest.raises(ValueError):
        Grid(16, 0.0)
