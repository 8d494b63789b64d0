"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line printed per criterion (run with ``pytest -s`` to see
them interleaved)."""
import itertools
import json
import math
from pathlib import Path

import numpy as np
import scipy.stats

from collapselab.cli import main as cli_main
from collapselab.grw import (
    Grid,
    GrwParams,
    Propagator,
    block_rows,
    evolve_block,
    evolve_equivariant,
    free_hamiltonian,
    marginal_weights,
    mean_positions,
    translate_state,
    two_peak_state,
    window_masses,
)
from collapselab.ks import (
    Assignment,
    RaySet,
    build_structure,
    check_assignment,
    search_coloring,
    unit_propagate,
)
from collapselab.lindblad import LindbladConfig, dephasing_rate, integrate_with_snapshots
from collapselab.scenarios import (
    EprConfig,
    OracleComparisonConfig,
    run_epr_position,
    run_oracle_comparison,
    run_singlet_spacetime,
)
from collapselab.spin import (
    Direction,
    OrthoTriple,
    outcome_independence_check,
    parameter_independence_check,
    singlet_state,
    squared_spin,
    triple_probability_table,
)
from dense_helpers import random_triple

DATA = Path(__file__).resolve().parents[1] / "src" / "collapselab" / "data"
AXES = OrthoTriple.from_vectors([1, 0, 0], [0, 1, 0], [0, 0, 1])


def _line(num, name, ok, detail):
    print(f"CRITERION {num:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_sum_rule():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        t = random_triple(rng)
        total = sum(squared_spin(d).entries for d in t.axes)
        worst = max(worst, float(np.max(np.abs(total - 2.0 * np.eye(3)))))
    _line(1, "squared-spin sum rule", worst <= 1e-10,
          f"max deviation {worst:.2e} over 100 random triples (tol 1e-10)")


def test_criterion_02_singlet_marginals():
    rng = np.random.default_rng(102)
    psi = singlet_state()
    worst = 0.0
    for _ in range(50):
        n = Direction.from_vector(rng.normal(size=3))
        table = triple_probability_table(psi, 1, OrthoTriple.containing(n))
        p0 = table[0]
        worst = max(worst, abs(p0 - 1 / 3), abs((1 - p0) - 2 / 3))
    # sampled by the singlet run's own sampler: B alone, 10^4 trials of seed 102
    runs = 10_000
    n = Direction.from_vector(rng.normal(size=3))
    report = run_singlet_spacetime(OrthoTriple.containing(n), None, runs, 102)
    freq_dev = abs(report.aggregates["freq_b_zero_axis"][0] - 1 / 3)
    sigma = math.sqrt((1 / 3) * (2 / 3) / runs)
    ok = worst <= 1e-12 and freq_dev <= 3 * sigma
    _line(2, "singlet marginals 2/3 vs 1/3", ok,
          f"exact dev {worst:.2e} (tol 1e-12), sampled dev {freq_dev:.4f} "
          f"(3 sigma = {3 * sigma:.4f})")


def test_criterion_03_twin_correlation():
    rng = np.random.default_rng(103)
    triple = random_triple(rng)
    report = run_singlet_spacetime(triple, triple, 10_000, 103)
    agreement = report.aggregates["agreement_frequency"]
    exact = np.array(report.aggregates["exact_joint_table"])
    off = float(np.max(np.abs(exact - np.diag(np.diag(exact)))))
    ok = agreement == 1.0 and off <= 1e-12
    _line(3, "perfect same-triple twin correlation", ok,
          f"agreement {agreement} over 10^4 trials, exact off-diagonal mass {off:.2e}")


def test_criterion_04_parameter_independence():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(20):
        triple_a = random_triple(rng)
        triple_b = random_triple(rng)
        for n in triple_b.axes:
            worst = max(worst, parameter_independence_check(triple_a, n))
    _line(4, "parameter independence", worst <= 1e-12,
          f"max marginal shift {worst:.2e} over 20 random triple pairs (tol 1e-12)")


def test_criterion_05_outcome_dependence():
    rng = np.random.default_rng(105)
    n = Direction.from_vector(rng.normal(size=3))
    rep = outcome_independence_check(n)
    dev = max(
        abs(rep.conditional[1][1] - 1.0),
        abs(rep.conditional[0][0] - 1.0),
        abs(rep.unconditional[1] - 2 / 3),
    )
    _line(5, "outcome dependence", dev <= 1e-12,
          f"P(1|1)={rep.conditional[1][1]}, P(0|0)={rep.conditional[0][0]}, "
          f"unconditional={rep.unconditional[1]:.15f} (tol 1e-12)")


def test_criterion_06_trajectory_oracle_equivalence():
    config = OracleComparisonConfig(hamiltonian="free")  # 64 points, two peaks, lam*T = 5
    report = run_oracle_comparison(config, 10_000, 106)
    distances = report.aggregates["distances"]
    threshold = report.aggregates["threshold"]
    ok = all(d <= threshold for d in distances)
    _line(6, "trajectory ensemble vs deterministic oracle", ok,
          f"distances {[round(d, 4) for d in distances]} at t = "
          f"{report.aggregates['times']} (threshold 5/sqrt(K) = {threshold})")


def test_criterion_07_dephasing_closed_form():
    grid = Grid(64, 1.0)
    params = GrwParams(alpha=0.0625, lam=1.0)
    amps = np.ones(64, dtype=complex) / 8.0
    from collapselab.hilbert import StateVector, SubsystemShape

    rho0 = StateVector(SubsystemShape((64,)), amps).density_matrix()
    config = LindbladConfig(dt=0.005, horizon=1.0)
    rho_t = integrate_with_snapshots(rho0, None, params, {0: grid}, config)[0]
    x = grid.coordinates()
    worst = 0.0
    pairs = [(24, 26), (24, 28), (24, 32), (20, 32), (24, 40)]
    for q, p in pairs:
        measured = -math.log(abs(rho_t.entries[q, p]) / abs(rho0.entries[q, p]))
        expected = dephasing_rate(params, x[q], x[p]) * config.horizon
        worst = max(worst, abs(measured - expected) / expected)
    _line(7, "dephasing decay closed form", worst <= 1e-6,
          f"max relative rate error {worst:.2e} over 5 separations (tol 1e-6)")


def test_criterion_08_localization_suppresses_superpositions():
    grid = Grid(64, 1.0)
    weights = (0.6, 0.4)
    psi = two_peak_state(grid, (24.0, 40.0), weights, 2.0)
    params = GrwParams(alpha=0.0625, lam=2.0)  # lam * T = 20
    runs = 1000
    localized = 0
    picked_first = 0
    rows = block_rows(grid.points)
    for start in range(0, runs, rows):
        block = evolve_block(
            psi, None, params, {0: grid}, 10.0, 0.1,
            108, range(start, min(runs, start + rows)), sample_times=[10.0],
        )
        final = marginal_weights(block.states[-1], psi.shape, 0)
        m1 = window_masses(final, grid, 24.0, 8.0)
        m2 = window_masses(final, grid, 40.0, 8.0)
        single = np.maximum(m1, m2) >= 0.99
        localized += int(np.count_nonzero(single))
        picked_first += int(np.count_nonzero(single & (m1 > m2)))
    frac = localized / runs
    freq = picked_first / runs
    sigma = math.sqrt(weights[0] * weights[1] / runs)
    ok = frac >= 0.99 and abs(freq - weights[0]) <= 3 * sigma
    _line(8, "localization after lam*T = 20", ok,
          f"single-peak fraction {frac:.3f} (need >= 0.99), branch-1 frequency "
          f"{freq:.3f} vs weight {weights[0]} (3 sigma = {3 * sigma:.3f})")


def test_criterion_09_ks_colorability():
    rays33 = RaySet.from_file(DATA / "ks33.rays")
    cert = search_coloring(rays33)
    pinned = cert.verdict == "uncolorable" and cert.nodes_explored == 46 \
        and cert.propagation_steps == 412

    axes = RaySet.from_file(DATA / "axes.rays")
    axes_cert = search_coloring(axes)
    witness_ok = axes_cert.colorable and check_assignment(
        axes_cert.witness, build_structure(axes)
    ).valid

    sound = True
    for name in ("axes.rays", "axes_diag.rays", "twin_triples.rays"):
        rays = RaySet.from_file(DATA / name)
        assert len(rays) <= 12
        structure = build_structure(rays)
        valid = [
            bits for bits in itertools.product((0, 1), repeat=len(rays))
            if all(bits[i] + bits[j] > 0 for i, j in structure.pairs)
            and all(bits[i] + bits[j] + bits[k] == 2 for i, j, k in structure.triples)
        ]
        if search_coloring(rays).colorable != (len(valid) > 0):
            sound = False
        for i in range(len(rays)):
            for v in (0, 1):
                completions = [b for b in valid if b[i] == v]
                extended = unit_propagate(structure, Assignment({i: v}), len(rays))
                if extended is None:
                    sound = sound and not completions
                    continue
                for j, w in extended.values.items():
                    sound = sound and all(b[j] == w for b in completions)
    ok = pinned and witness_ok and sound
    _line(9, "Kochen-Specker engine", ok,
          f"33-ray verdict {cert.verdict} (nodes {cert.nodes_explored}, "
          f"propagations {cert.propagation_steps}; pinned 46/412), axes witness valid: "
          f"{witness_ok}, propagation sound vs brute force: {sound}")


def test_criterion_10_epr_position():
    trials = 1000
    coupled = run_epr_position(EprConfig(trials=trials, master_seed=110))
    a = coupled.aggregates
    n_c = a["conclusive_trials"]
    sigma_split = math.sqrt(0.25 / n_c)
    split_ok = abs(a["freq_a_delta1"] - 0.5) <= 3 * sigma_split
    cond_ok = (
        a["cond_b_delta2_given_a_delta1"] >= 0.99
        and a["cond_b_delta4_given_a_delta3"] >= 0.99
    )
    control = run_epr_position(
        EprConfig(trials=trials, master_seed=111, coupling_sites=0)
    )
    diff = abs(a["freq_b_delta2"] - control.aggregates["freq_b_delta2"])
    sigma_diff = math.sqrt(2 * 0.25 / trials)
    marginal_ok = diff <= 3 * sigma_diff
    oracle_ok = abs(a["oracle_b_marginal_delta2"] - 0.5) <= 1e-8
    ok = split_ok and cond_ok and marginal_ok and oracle_ok
    _line(10, "EPR position scenario", ok,
          f"A split {a['freq_a_delta1']:.3f} (3 sigma {3 * sigma_split:.3f}), "
          f"conditionals {a['cond_b_delta2_given_a_delta1']:.3f}/"
          f"{a['cond_b_delta4_given_a_delta3']:.3f} (need 0.99), "
          f"b-marginal shift with coupling off {diff:.3f} "
          f"(3 sigma {3 * sigma_diff:.3f}), oracle marginal exact: {oracle_ok}, "
          f"inconclusive {a['inconclusive_trials']}")


def test_criterion_11_reproducibility(tmp_path):
    pairs = []
    for make in (
        lambda: run_singlet_spacetime(AXES, AXES, 300, 42),
        lambda: run_oracle_comparison(
            OracleComparisonConfig(horizon=2.0), 100, 42
        ),
        lambda: run_epr_position(EprConfig(trials=40, master_seed=42)),
    ):
        pairs.append(make().to_json() == make().to_json())
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["singlet", "--same-triples", "--trials", "100", "--seed", "42"]
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    files_equal = out1.read_bytes() == out2.read_bytes()
    ok = all(pairs) and files_equal
    _line(11, "seeded reproducibility", ok,
          f"scenario reruns identical: {pairs}, CLI files byte-identical: {files_equal}")


def test_criterion_12_translation_covariance():
    grid = Grid(64, 1.0)
    params = GrwParams(alpha=0.0625, lam=1.0, mass=10.0)
    prop = Propagator(free_hamiltonian(grid, mass=10.0))
    psi = two_peak_state(grid, (24.0, 40.0), (0.6, 0.4), 2.0)
    shift = 5
    times = [0.5, 1.0, 1.5, 2.0]

    base = evolve_equivariant(psi, prop, params, {0: grid}, 2.0, 0.02, 112, 0,
                              sample_times=times)
    shifted = evolve_equivariant(translate_state(psi, 0, shift), prop, params, {0: grid},
                                 2.0, 0.02, 112, 0, sample_times=times)
    exact = len(base.jumps) > 0 and all(
        np.array_equal(np.roll(s1.amplitudes, shift), s2.amplitudes)
        for s1, s2 in zip(base.states, shifted.states)
    ) and all(
        (grid.index_of(j2.center) - grid.index_of(j1.center)) % grid.points == shift
        for j1, j2 in zip(base.jumps, shifted.jumps)
    )

    seeds = 1000

    def final_means(state, seed):
        block = evolve_block(state, prop, params, {0: grid}, 2.0, 0.02, seed, range(seeds),
                             sample_times=[2.0])
        return mean_positions(marginal_weights(block.states[-1], state.shape, 0), grid)

    base_means = final_means(psi, 1120)
    shifted_means = final_means(translate_state(psi, 0, shift), 1121)
    # no-jump trajectories put a deterministic atom in both samples; quantize
    # well below the grid scale so float noise cannot split equal atoms
    sample_a = np.round(base_means + shift * grid.spacing, 6)
    sample_b = np.round(shifted_means, 6)
    _, p_value = scipy.stats.ks_2samp(sample_a, sample_b)
    ok = exact and p_value >= 0.01
    _line(12, "translation covariance", ok,
          f"seed-matched translated run bit-exact: {exact}, distributional "
          f"KS test p = {p_value:.3f} over {seeds} seeds (need >= 0.01)")
