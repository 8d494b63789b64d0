import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from collapselab import lindblad
from collapselab.configs import OracleComparisonConfig
from collapselab.errors import ConfigError
from collapselab.grw import (
    Grid,
    GrwParams,
    Propagator,
    block_rows,
    circulant,
    evolve_block,
    evolve_trajectory,
    free_hamiltonian,
    gaussian_packet,
    gaussian_template,
    two_peak_state,
)
from collapselab.hilbert import (
    DensityMatrix,
    StateVector,
    SubsystemShape,
    tensor_product,
)
from collapselab.lindblad import (
    MIXTURE_CHUNK,
    LindbladConfig,
    Mixture,
    check_oracle_budget,
    dephasing_rate,
    ensemble_compare,
    generator_norm,
    integrate_with_snapshots,
    lindblad_rhs,
    mixture_bytes,
    oracle_cost,
    overlap_kernel,
    taylor_substeps,
    trace_distance,
)
from collapselab.scenarios import run_oracle_comparison
from dense_helpers import embed, localization_operator

GRID = Grid(64, 1.0)
PARAMS = GrwParams(alpha=0.0625, lam=1.0, mass=10.0)


def evolved_mixture(psi, propagator, params, grid, horizon, dt, seed, trials, times):
    """The trials' Mixture at ``times``, evolved in windows of whole
    MIXTURE_CHUNKs straight into its buffer, as run_oracle_comparison does."""
    mixture = Mixture(times, grid.points)
    for start in range(0, len(trials), mixture.capacity):
        block = evolve_block(psi, propagator, params, {0: grid}, horizon, dt, seed,
                             trials[start:start + mixture.capacity], sample_times=times,
                             out=mixture.buffer)
        mixture.fold(block.states)
        del block  # before the next window is evolved
    return mixture


def random_density(rng, dims):
    d = int(np.prod(dims))
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    return DensityMatrix(SubsystemShape(tuple(dims)), rho)


def dissipator_by_operator_sum(rho, grids, params):
    """Independent oracle: the literal centre sum with dense embedded
    localization operators, sum_n sum_k L_nk rho L_nk dx - n rho."""
    out = np.zeros_like(rho.entries)
    n = 0
    for particle, grid in sorted(grids.items()):
        n += 1
        for k in range(grid.points):
            l_full = embed(
                localization_operator(grid, params.alpha, grid.origin + k * grid.spacing),
                particle,
                rho.shape,
            ).entries
            out += l_full @ rho.entries @ l_full * grid.spacing
    return params.lam * (out - n * rho.entries)


# -- right-hand side -----------------------------------------------------------


def random_even_column(rng, d):
    c = rng.normal(size=d)
    return 0.5 * (c + np.roll(c[::-1], 1))


def test_rhs_reduces_to_commutator_without_collapse():
    rng = np.random.default_rng(0)
    rho = random_density(rng, (8,))
    col = random_even_column(rng, 8)
    params = GrwParams(alpha=0.25, lam=0.0)
    got = lindblad_rhs(rho, col, params, {0: Grid(8, 1.0)})
    h = scipy.linalg.circulant(col)
    expected = -1j * (h @ rho.entries - rho.entries @ h)
    np.testing.assert_allclose(got, expected, atol=1e-14)


def test_rhs_hermitian_and_traceless():
    rng = np.random.default_rng(1)
    rho = random_density(rng, (GRID.points,))
    h = free_hamiltonian(GRID, mass=10.0)
    rhs = lindblad_rhs(rho, h, PARAMS, {0: GRID})
    assert np.max(np.abs(rhs - rhs.conj().T)) <= 1e-10
    assert abs(np.trace(rhs)) <= 1e-10


def test_rhs_keeps_position_populations_fixed():
    rng = np.random.default_rng(2)
    pops = rng.random(GRID.points)
    pops /= pops.sum()
    rho = DensityMatrix(SubsystemShape((GRID.points,)), np.diag(pops).astype(complex))
    rhs = lindblad_rhs(rho, None, PARAMS, {0: GRID})
    assert np.max(np.abs(np.diag(rhs))) <= 1e-10


def test_rhs_off_diagonal_decay_closed_form_and_quadrature():
    # closed-form oracle exp(-alpha (x-x')^2 / 4), plus the direct
    # quadrature sum, evaluated before trusting the kernel implementation
    x = GRID.coordinates()
    g = np.real(np.diag(localization_operator(GRID, PARAMS.alpha, 0.0).entries))
    for q, p in [(20, 24), (20, 28), (10, 26)]:
        quadrature = sum(
            g[(q - k) % 64] * g[(p - k) % 64] * GRID.spacing for k in range(64)
        )
        closed = math.exp(-PARAMS.alpha * (x[q] - x[p]) ** 2 / 4.0)
        assert abs(quadrature - closed) / closed <= 1e-9
        kernel = overlap_kernel(GRID, PARAMS.alpha)[q, p]
        assert abs(kernel - quadrature) <= 1e-12

    psi = two_peak_state(GRID, (20.0, 28.0), (0.5, 0.5), 1.5)
    rho = psi.density_matrix()
    rhs = lindblad_rhs(rho, None, PARAMS, {0: GRID})
    q, p = 20, 28
    rate = dephasing_rate(PARAMS, x[q], x[p])
    assert abs(rhs[q, p] - (-rate * rho.entries[q, p])) <= 1e-12 * abs(rho.entries[q, p]) + 1e-15


def test_rhs_matches_operator_sum_oracle_single_particle():
    rng = np.random.default_rng(3)
    grid = Grid(12, 0.7)
    params = GrwParams(alpha=0.4, lam=0.8)
    rho = random_density(rng, (12,))
    got = lindblad_rhs(rho, None, params, {0: grid})
    expected = dissipator_by_operator_sum(rho, {0: grid}, params)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_rhs_matches_operator_sum_oracle_two_particles():
    rng = np.random.default_rng(4)
    grid_a, grid_b = Grid(8, 1.0), Grid(10, 0.5)
    params = GrwParams(alpha=0.3, lam=0.5)
    rho = random_density(rng, (8, 10))
    got = lindblad_rhs(rho, None, params, {0: grid_a, 1: grid_b})
    expected = dissipator_by_operator_sum(rho, {0: grid_a, 1: grid_b}, params)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def literal_rhs(rho, col, grids, params):
    """-(i/hbar)(H rho - rho H) plus the operator-sum dissipator."""
    out = dissipator_by_operator_sum(rho, grids, params)
    if col is not None:
        h = scipy.linalg.circulant(col)
        out = out + (-1j / params.hbar) * (h @ rho.entries - rho.entries @ h)
    return out


@pytest.mark.parametrize("h_kind, layout", [("free", "single"), ("none", "pointer")])
def test_rhs_matches_literal_commutator_and_operator_sum(h_kind, layout):
    rng = np.random.default_rng(10)
    params = GrwParams(alpha=0.3, lam=0.7, hbar=0.8, mass=2.0)
    grid = Grid(16, 0.9)
    if layout == "single":
        dims, grids = (16,), {0: grid}
    else:  # two region qubits and a pointer grid on factor 2, as in the EPR scenario
        dims, grids = (2, 2, 16), {2: grid}
    rho = random_density(rng, dims)
    h = free_hamiltonian(grid, params.mass, params.hbar) if h_kind == "free" else None
    got = lindblad_rhs(rho, h, params, grids)
    expected = literal_rhs(rho, h, grids, params)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_integrate_matches_expm_of_the_dense_liouvillian():
    # in-test reference: the literal Liouvillian on d^2 = 1024 entries, with
    # the commutator and kernel built from H and the localization operators
    grid = Grid(32, 1.0)
    params = GrwParams(alpha=0.25, lam=1.0, mass=10.0)
    h = free_hamiltonian(grid, params.mass, params.hbar)
    psi = two_peak_state(grid, (10.0, 20.0), (0.5, 0.5), 1.5)
    # Fortran-ordered entries: the integrator must not depend on the layout
    rho0 = DensityMatrix(
        SubsystemShape((grid.points,)), np.asfortranarray(psi.density_matrix().entries)
    )
    assert not rho0.entries.flags.c_contiguous

    g = np.stack([
        np.real(np.diag(localization_operator(grid, params.alpha, k * grid.spacing).entries))
        for k in range(grid.points)
    ])  # g[k, q]
    c = (g.T @ g) * grid.spacing
    hm = scipy.linalg.circulant(h)
    eye = np.eye(grid.points)
    # row-major vec: vec(A rho) = (A x I) vec(rho), vec(rho B) = (I x B^T) vec(rho)
    liouvillian = (-1j / params.hbar) * (np.kron(hm, eye) - np.kron(eye, hm.T)) + np.diag(
        params.lam * (c - 1.0).ravel()
    )
    for horizon, times in [
        (1.0, [1.0 / 3.0, 1.0]),  # snapshot times need not divide the horizon
        (4.0, [2.0, 4.0]),  # one substep per interval, at tau ||L|| = 3.97 of TAYLOR_THETA = 4
        (10.0, [10.0]),  # five substeps
    ]:
        final, snaps = integrate_with_snapshots(
            rho0, h, params, {0: grid}, LindbladConfig(dt=0.01, horizon=horizon),
            snapshot_times=times,
        )
        vec = np.array(rho0.entries).ravel()
        now = 0.0
        for t in times:
            vec = scipy.linalg.expm((t - now) * liouvillian) @ vec
            now = t
            reference = vec.reshape(grid.points, grid.points)
            assert np.max(np.abs(snaps[t].entries - reference)) <= 1e-13
        assert np.max(np.abs(final.entries - reference)) <= 1e-13
        assert np.array_equal(final.entries, final.entries.conj().T)


@pytest.mark.parametrize("layout", ["none", "pointer"])
def test_buffered_rk4_equals_the_textbook_update_bit_for_bit(layout):
    # without H the closed form must match the textbook RK4 to its
    # truncation error
    grid = Grid(32, 1.0)
    params = GrwParams(alpha=0.25, lam=1.0, mass=10.0)
    psi = two_peak_state(grid, (10.0, 20.0), (0.5, 0.5), 1.5)
    grids = {0: grid}
    if layout == "pointer":
        region = StateVector(SubsystemShape((2,)), np.array([0.6, 0.8], dtype=complex))
        psi, grids = tensor_product(region, psi), {1: grid}
    rho0 = psi.density_matrix()
    final, snaps = integrate_with_snapshots(
        rho0, None, params, grids, LindbladConfig(dt=0.01, horizon=0.2), snapshot_times=[0.1]
    )

    def f(rho):
        return lindblad_rhs(DensityMatrix(rho0.shape, rho), None, params, grids)

    rho = np.array(rho0.entries)
    for step in range(1, 21):
        k1 = f(rho)
        k2 = f(rho + 0.5 * 0.01 * k1)
        k3 = f(rho + 0.5 * 0.01 * k2)
        k4 = f(rho + 0.01 * k3)
        rho = rho + (0.01 / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step == 10:
            assert np.max(np.abs(snaps[0.1].entries - rho)) <= 1e-10
    assert np.max(np.abs(final.entries - rho)) <= 1e-10


@pytest.mark.parametrize("layout", ["single", "pointer"])
def test_integration_without_h_is_the_closed_form(monkeypatch, layout):
    def rhs(*args):
        raise AssertionError("an integration without H evaluated the right-hand side")

    monkeypatch.setattr(lindblad, "_rhs", rhs)
    grid = Grid(32, 1.0)
    params = GrwParams(alpha=0.25, lam=7.0)  # the closed form takes no steps at any rate
    psi, grids = two_peak_state(grid, (10.0, 20.0), (0.5, 0.5), 1.5), {0: grid}
    if layout == "pointer":
        region = StateVector(SubsystemShape((2,)), np.array([0.6, 0.8], dtype=complex))
        psi, grids = tensor_product(region, psi), {1: grid}
    rho0 = psi.density_matrix()
    final, snaps = integrate_with_snapshots(
        rho0, None, params, grids, LindbladConfig(dt=1.0, horizon=1.0),
        snapshot_times=[0.0, 0.3, 1.0],
    )
    assert np.array_equal(snaps[0.0].entries, rho0.entries)
    assert np.array_equal(snaps[1.0].entries, final.entries)
    assert np.array_equal(final.entries, final.entries.conj().T)  # R is exactly symmetric
    rates = params.lam * (overlap_kernel(grid, params.alpha) - 1.0)
    if layout == "pointer":
        rates = np.kron(np.ones((2, 2)), rates)
    expected = rho0.entries * np.exp(0.3 * rates)
    assert np.max(np.abs(snaps[0.3].entries - expected)) <= 1e-15


def test_overlap_kernel_is_an_exactly_symmetric_circulant():
    kernel = overlap_kernel(GRID, PARAMS.alpha)
    assert np.array_equal(kernel, kernel.T)
    assert np.array_equal(kernel, circulant(kernel[:, 0]))
    g = gaussian_template(GRID, PARAMS.alpha)
    rolled = np.stack([np.roll(g, k) for k in range(GRID.points)], axis=1)  # [q, k]
    assert np.max(np.abs(kernel - rolled @ rolled.T * GRID.spacing)) <= 1e-15


def test_oracle_budget_rejects_on_the_estimate_alone(monkeypatch):
    d = 256
    # the default free-H oracle-compare: ||L|| <= 2 max|E| + lam = 1.99, so
    # ceil(5 * 1.99 / 4) substeps plus one per checkpoint interval
    norm = generator_norm(Propagator(free_hamiltonian(Grid(d, 1.0), mass=10.0)), 1.0)
    assert taylor_substeps(5.0, norm, 4) == 7
    assert taylor_substeps(1e308, norm, 4) == math.inf
    # rho, rates and 4 snapshots; with H also H, 2 series terms and 2 work arrays
    assert oracle_cost(d, 7, 4, True) == (7 * 32 * 4 * d**3, (24 + 4 * 16 + 8 + 4 * 16) * d**2)
    assert oracle_cost(d, 7, 4, False) == (0, (24 + 4 * 16) * d**2)
    config = LindbladConfig(dt=0.01, horizon=5.0)
    check_oracle_budget(256, norm, config, 4)  # the largest benchmark oracle
    with pytest.raises(ConfigError, match="points"):
        check_oracle_budget(1024, norm, config, 4)
    with pytest.raises(ConfigError, match="checkpoints"):
        check_oracle_budget(4096, None, config, 4)
    with pytest.raises(ConfigError, match="horizon"):
        check_oracle_budget(64, norm, LindbladConfig(dt=0.01, horizon=1e9), 4)
    with pytest.raises(ConfigError, match="inf flops"):
        check_oracle_budget(64, norm, LindbladConfig(dt=0.01, horizon=1e308), 4)
    # integrate_with_snapshots checks the estimate before it allocates
    monkeypatch.setattr(lindblad, "MAX_ORACLE_BYTES", 100)
    rho0 = random_density(np.random.default_rng(12), (8,))
    with pytest.raises(ConfigError, match="horizon"):
        integrate_with_snapshots(rho0, None, GrwParams(alpha=0.25, lam=0.1), {0: Grid(8, 1.0)},
                                 LindbladConfig(dt=0.1, horizon=1.0))


@pytest.mark.parametrize("points", [64, 256])
def test_default_free_oracle_makes_82_right_hand_sides(monkeypatch, points):
    # a substep's first right-hand side is of the state (trace 1), every later
    # one of a series term (traceless), so the traces count the substeps
    rhs, firsts = lindblad._rhs, []

    def counted(rho, *args):
        firsts.append(abs(np.trace(rho)) > 0.5)
        return rhs(rho, *args)

    monkeypatch.setattr(lindblad, "_rhs", counted)
    config = OracleComparisonConfig(hamiltonian="free", grid_points=points)
    run_oracle_comparison(config, 100, 1)
    assert len(firsts) == 82
    # one substep per checkpoint interval, within the budget's estimate
    norm = generator_norm(Propagator(free_hamiltonian(Grid(points, 1.0), mass=10.0)), 1.0)
    assert sum(firsts) == 4 <= taylor_substeps(config.horizon, norm, config.checkpoints)


def test_integrate_rejects_non_hermitian_hamiltonian():
    rng = np.random.default_rng(11)
    rho0 = random_density(rng, (8,))
    h = rng.normal(size=8)  # not even, so its circulant is not symmetric
    with pytest.raises(ConfigError, match="not even"):
        integrate_with_snapshots(rho0, h, GrwParams(alpha=0.25, lam=0.1), {0: Grid(8, 1.0)},
                                 LindbladConfig(dt=0.01, horizon=0.1))


def test_hamiltonian_column_must_span_the_whole_space():
    # the pointer grid's column with the (2, 2, M) EPR layout: H acts on the
    # whole space, so its column needs the state's total dimension
    grid = Grid(16, 1.0)
    region = StateVector(SubsystemShape((2, 2)), np.array([0.6, 0.0, 0.0, 0.8], dtype=complex))
    psi = tensor_product(region, gaussian_packet(grid, 8.0, 1.0))
    rho = psi.density_matrix()
    col = free_hamiltonian(grid, mass=10.0)
    params = GrwParams(alpha=0.25, lam=0.1, mass=10.0)
    with pytest.raises(ConfigError, match="total dimension"):
        lindblad_rhs(rho, col, params, {2: grid})
    with pytest.raises(ConfigError, match="total dimension"):
        integrate_with_snapshots(rho, col, params, {2: grid}, LindbladConfig(dt=0.01, horizon=0.1))
    with pytest.raises(ConfigError, match="total dimension"):
        evolve_trajectory(psi, Propagator(col), params, {2: grid}, 0.1, 0.01, 0, 0)
    with pytest.raises(ConfigError, match="real"):
        lindblad_rhs(rho, 1j * free_hamiltonian(Grid(64, 1.0), mass=10.0), params, {2: grid})


# -- integration ----------------------------------------------------------------


def test_integrate_unitary_case_matches_exact_conjugation():
    rng = np.random.default_rng(5)
    rho0 = random_density(rng, (8,))
    col = random_even_column(rng, 8)
    params = GrwParams(alpha=0.25, lam=0.0)
    config = LindbladConfig(dt=0.002, horizon=1.0)
    got, _ = integrate_with_snapshots(rho0, col, params, {0: Grid(8, 1.0)}, config)
    u = scipy.linalg.expm(-1j * scipy.linalg.circulant(col) * config.horizon)
    expected = u @ rho0.entries @ u.conj().T
    assert np.max(np.abs(got.entries - expected)) <= 1e-12


def test_integrate_pure_dephasing_matches_closed_form():
    psi = two_peak_state(GRID, (24.0, 40.0), (0.5, 0.5), 2.0)
    rho0 = psi.density_matrix()
    config = LindbladConfig(dt=0.01, horizon=2.0)
    rho_t, _ = integrate_with_snapshots(rho0, None, PARAMS, {0: GRID}, config)
    x = GRID.coordinates()
    for q, p in [(24, 40), (22, 30), (24, 28)]:
        expected = rho0.entries[q, p] * math.exp(
            -dephasing_rate(PARAMS, x[q], x[p]) * config.horizon
        )
        assert abs(rho_t.entries[q, p] - expected) <= 1e-6 * abs(expected) + 1e-12


def test_integrate_preserves_trace_hermiticity_positivity():
    rng = np.random.default_rng(6)
    rho0 = random_density(rng, (GRID.points,))
    h = free_hamiltonian(GRID, mass=10.0)
    config = LindbladConfig(dt=0.01, horizon=3.0)
    rho_t, _ = integrate_with_snapshots(rho0, h, PARAMS, {0: GRID}, config)
    assert abs(np.trace(rho_t.entries) - 1.0) <= 1e-8
    assert np.max(np.abs(rho_t.entries - rho_t.entries.conj().T)) <= 1e-8
    assert rho_t.min_eigenvalue() >= -1e-6


@pytest.mark.parametrize("hamiltonian,time", [("free", 1.5), ("none", -0.5)])
def test_snapshot_times_must_lie_within_the_window(hamiltonian, time):
    # past the horizon the series would never reach the time; before 0 the
    # closed form exp(t lam R) would grow instead of decay
    rho0 = random_density(np.random.default_rng(8), (8,))
    grid = Grid(8, 1.0)
    h = free_hamiltonian(grid, mass=100.0) if hamiltonian == "free" else None
    with pytest.raises(ConfigError, match="outside"):
        integrate_with_snapshots(rho0, h, GrwParams(alpha=0.25, lam=0.1), {0: grid},
                                 LindbladConfig(dt=0.1, horizon=1.0), snapshot_times=[0.5, time])


# -- ensemble comparison -----------------------------------------------------------


def test_oracle_budget_counts_the_mixture_comparison():
    config = LindbladConfig(dt=0.01, horizon=5.0)
    # the sums, a buffer of MIXTURE_CHUNK rows per checkpoint and the larger of
    # one 64-row block's amplitudes and a fold's chunk of MIXTURE_CHUNK rows
    assert mixture_bytes(64, 2000, 64) == 16 * (2000 * (64 * 64 + MIXTURE_CHUNK * 64)
                                                + MIXTURE_CHUNK * 64)
    check_oracle_budget(64, None, config, 2000)  # the oracle alone fits
    with pytest.raises(ConfigError, match="checkpoints"):
        check_oracle_budget(64, None, config, 2000, 64)
    # the largest benchmark comparison
    norm = generator_norm(Propagator(free_hamiltonian(Grid(256, 1.0), mass=10.0)), 1.0)
    check_oracle_budget(256, norm, config, 4, block_rows(256))


def test_mixture_bytes_bound_what_the_comparison_allocates():
    # the windowed comparison of run_oracle_comparison: each window of
    # trajectories is evolved straight into the mixture buffer, then folded
    d, checkpoints, k = 32, 40, 600
    grid = Grid(d, 1.0)
    psi = two_peak_state(grid, (10.0, 20.0), (0.5, 0.5), 1.5)
    params = GrwParams(alpha=0.25, lam=1.0, mass=10.0)
    propagator = Propagator(free_hamiltonian(grid, mass=10.0))
    times = [0.05 * (i + 1) for i in range(checkpoints)]
    oracle = {t: psi.density_matrix() for t in times}  # oracle_cost counts these
    tracemalloc.start()
    try:
        mixture = evolved_mixture(psi, propagator, params, grid, times[-1], 0.01, 7, range(k),
                                  times)
        comparisons = mixture.compare(oracle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mixture.capacity < k
    assert [c.size for c in comparisons] == [k] * checkpoints
    counted = mixture_bytes(d, checkpoints, block_rows(d))
    assert counted <= peak <= 1.1 * counted


def test_mixture_folds_whole_chunks_until_the_last():
    psi = gaussian_packet(GRID, 20.0, 2.0)
    mixture = Mixture([1.0], GRID.points)
    mixture.fold(np.broadcast_to(psi.amplitudes, (1, MIXTURE_CHUNK, GRID.points)))
    mixture.fold(np.broadcast_to(psi.amplitudes, (1, 100, GRID.points)))
    # a chunk would now straddle two folds, and the sums would depend on the windows
    with pytest.raises(ValueError, match="partial chunk"):
        mixture.fold(np.broadcast_to(psi.amplitudes, (1, 100, GRID.points)))
    with pytest.raises(ValueError, match="does not hold states"):
        Mixture([0.5, 1.0], GRID.points).fold(np.zeros((1, 4, GRID.points), dtype=complex))
    (report,) = mixture.compare({1.0: psi.density_matrix()})
    assert report.size == MIXTURE_CHUNK + 100
    assert report.distance <= 1e-12


def test_compare_single_matching_pure_state():
    psi = gaussian_packet(GRID, 20.0, 2.0)
    mixture = evolved_mixture(psi, None, GrwParams(alpha=0.0625, lam=0.0), GRID, 1.0, 0.1, 0,
                              range(1), [1.0])
    (report,) = mixture.compare({1.0: psi.density_matrix()})
    assert report.distance <= 1e-10
    assert report.size == 1
    assert report.time == 1.0


def test_compare_deterministic_ensemble_against_unitary_oracle():
    psi = two_peak_state(GRID, (24.0, 40.0), (0.5, 0.5), 2.0)
    h = free_hamiltonian(GRID, mass=10.0)
    params = GrwParams(alpha=0.0625, lam=0.0, mass=10.0)
    times = [1.0, 2.0]
    mixture = evolved_mixture(psi, Propagator(h), params, GRID, 2.0, 0.02, 1, range(20), times)
    config = LindbladConfig(dt=0.01, horizon=2.0)
    _, snaps = integrate_with_snapshots(
        psi.density_matrix(), h, params, {0: GRID}, config, snapshot_times=times
    )
    comparisons = mixture.compare({t: snaps[t] for t in times})
    assert [c.time for c in comparisons] == times
    assert all(c.distance <= 1e-8 for c in comparisons)


def test_compare_rejects_empty_and_missing_times():
    psi = gaussian_packet(GRID, 20.0, 2.0)
    rho = psi.density_matrix()
    with pytest.raises(ValueError):
        Mixture([1.0], GRID.points).compare({1.0: rho})
    with pytest.raises(ValueError):
        ensemble_compare(np.zeros((GRID.points, GRID.points), dtype=complex), 0, rho, at=1.0)
    block = evolve_block(
        psi, None, GrwParams(alpha=0.0625, lam=0.0), {0: GRID}, 1.0, 0.1, 2, [0],
        sample_times=[1.0],
    )
    # one checkpoint state against two oracle states
    with pytest.raises(ValueError):
        Mixture([0.5, 1.0], GRID.points).fold(block.states)


def test_compare_chunked_mixture_matches_outer_product_sum(monkeypatch):
    grid = Grid(32, 1.0)
    params = GrwParams(alpha=0.25, lam=1.0)
    psi = two_peak_state(grid, (10.0, 20.0), (0.5, 0.5), 1.5)
    k = 300
    assert k % MIXTURE_CHUNK != 0
    block = evolve_block(psi, None, params, {0: grid}, 0.5, 0.05,
                         3, range(k), sample_times=[0.5])
    oracle, _ = integrate_with_snapshots(psi.density_matrix(), None, params, {0: grid},
                                         LindbladConfig(dt=0.01, horizon=0.5))
    acc = np.zeros((32, 32), dtype=complex)
    for state in block.states[0]:
        acc += np.outer(state, state.conj())
    expected = trace_distance(DensityMatrix(oracle.shape, acc / k), oracle)
    (got,) = evolved_mixture(psi, None, params, grid, 0.5, 0.05, 3, range(k),
                             [0.5]).compare({0.5: oracle})
    assert got.size == k
    assert abs(got.distance - expected) <= 1e-13
    # windows of any number of whole chunks, here a buffer of one chunk that
    # folds more often, add the same rows in the same order, to the same bits
    monkeypatch.setattr(lindblad, "MIXTURE_BUFFER_BYTES", 1)
    small = evolved_mixture(psi, None, params, grid, 0.5, 0.05, 3, range(k), [0.5])
    assert small.capacity == MIXTURE_CHUNK < k
    assert small.compare({0.5: oracle})[0].distance == got.distance


def test_distance_decreases_with_ensemble_size():
    # matched seeds: the small ensemble is the prefix of the large one
    psi = two_peak_state(GRID, (24.0, 40.0), (0.5, 0.5), 2.0)
    params = GrwParams(alpha=0.0625, lam=1.0)
    config = LindbladConfig(dt=0.02, horizon=2.0)
    rho_t, _ = integrate_with_snapshots(psi.density_matrix(), None, params, {0: GRID}, config)
    reps = 20

    def distance(k, seed):
        mixture = evolved_mixture(psi, None, params, GRID, 2.0, 0.02, seed, range(k), [2.0])
        return mixture.compare({2.0: rho_t})[0].distance

    wins = sum(distance(10_000, 500 + rep) < distance(100, 500 + rep) for rep in range(reps))
    assert wins >= 0.95 * reps


def test_trace_distance_basic_properties():
    rng = np.random.default_rng(9)
    a = random_density(rng, (6,))
    b = random_density(rng, (6,))
    assert trace_distance(a, a) <= 1e-14
    d = trace_distance(a, b)
    assert 0.0 <= d <= 1.0
    assert abs(d - trace_distance(b, a)) <= 1e-14
