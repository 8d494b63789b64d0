import math
import os
import signal

import numpy as np
import pytest

from collapselab import lindblad, pool, report, scenarios, spin
from collapselab.configs import EprConfig, OracleComparisonConfig
from collapselab.errors import ConfigError, GridAdequacyError, WorkerLostError
from collapselab.lindblad import MIXTURE_CHUNK, LindbladConfig, check_oracle_budget
from collapselab.pool import pool_size
from collapselab.report import ExperimentReport, canonical_json, format_float
from collapselab.scenarios import run_epr_position, run_grw_ensemble, run_oracle_comparison
from collapselab.rng import OUTCOMES, uniforms
from collapselab.spin import (
    OrthoTriple,
    run_singlet_spacetime,
    singlet_state,
    triple_measurement,
    zero_ket,
)
from dense_helpers import random_triple

AXES = OrthoTriple.from_vectors([1, 0, 0], [0, 1, 0], [0, 0, 1])


# -- singlet scenario -----------------------------------------------------------


def test_singlet_same_triples_always_agree():
    rep = run_singlet_spacetime(AXES, AXES, 500, 7)
    a = rep.aggregates
    assert a["agreement_frequency"] == 1.0
    exact = np.array(a["exact_joint_table"])
    assert np.max(np.abs(exact - np.diag(np.diag(exact)))) <= 1e-12
    assert abs(sum(a["freq_b_zero_axis"]) - 1.0) <= 1e-12
    assert np.all(rep.trials["product_fidelity"] >= 1.0 - 1e-12)


def test_singlet_b_first_collapse_recorded():
    rng_triple = random_triple(np.random.default_rng(3))
    rep = run_singlet_spacetime(rng_triple, None, 200, 11)
    assert "freq_a_zero_axis" not in rep.aggregates
    sigma = math.sqrt((1 / 3) * (2 / 3) / 200)
    for f in rep.aggregates["freq_b_zero_axis"]:
        assert abs(f - 1 / 3) <= 4 * sigma


def test_singlet_a_marginal_insensitive_to_b_measurement():
    trials = 4000
    with_b = run_singlet_spacetime(AXES, AXES, trials, 13)
    without_b = run_singlet_spacetime(AXES, AXES, trials, 14, measure_b=False)
    fa1 = np.array(with_b.aggregates["freq_a_zero_axis"])
    fa0 = np.array(without_b.aggregates["freq_a_zero_axis"])
    sigma = math.sqrt(2 * (1 / 3) * (2 / 3) / trials)
    assert np.max(np.abs(fa1 - fa0)) <= 3 * sigma


def test_singlet_reproducible_and_worker_independent():
    a = run_singlet_spacetime(AXES, AXES, 300, 21)
    b = run_singlet_spacetime(AXES, AXES, 300, 21)
    c = run_singlet_spacetime(AXES, AXES, 300, 21, workers=2)
    assert a.to_json() == b.to_json() == c.to_json()


def _singlet_records_by_measurement(triple_b, triple_a, measure_b, trials, seed):
    """The singlet records from measuring each trial's own copy of the pair
    with the trial's own draws: B's is draw 0, A's draw 1."""
    rows = []
    for i in range(trials):
        u_b, u_a = uniforms(seed, [i], OUTCOMES, 2)[0]
        psi = singlet_state()
        rec = {"trial": i}
        if measure_b:
            out_b, psi = triple_measurement(psi, 1, triple_b, u_b)
            d = triple_b.axes[out_b.zero_axis]
            rec["b_values"] = "".join(str(v) for v in out_b.values)
            rec["b_zero_axis"] = out_b.zero_axis
            rec["product_fidelity"] = abs(np.vdot(np.kron(zero_ket(d), zero_ket(d)),
                                                  psi.amplitudes)) ** 2
        if triple_a is not None:
            out_a, psi = triple_measurement(psi, 0, triple_a, u_a)
            rec["a_values"] = "".join(str(v) for v in out_a.values)
            rec["a_zero_axis"] = out_a.zero_axis
            if measure_b:
                rec["agree_all_axes"] = rec["a_values"] == rec["b_values"]
        rows.append(rec)
    return rows


@pytest.mark.parametrize("seed", [31, 32])
@pytest.mark.parametrize("case", ["same", "distinct", "no_b", "no_a"])
def test_singlet_records_match_per_trial_measurement(case, seed):
    rng = np.random.default_rng(seed)
    triple_b = random_triple(rng)
    triple_a = {"same": triple_b, "distinct": random_triple(rng),
                "no_b": triple_b, "no_a": None}[case]
    measure_b = case != "no_b"
    trials = 400
    rep = run_singlet_spacetime(triple_b, triple_a, trials, seed, measure_b=measure_b)
    expected = _singlet_records_by_measurement(triple_b, triple_a, measure_b, trials, seed)
    # field for field, in order, with exactly equal floats
    assert list(rep.trials) == list(expected[0])
    for key, column in rep.trials.items():
        assert len(column) == trials
        assert column.tolist() == [r[key] for r in expected], key
    # and so are their texts, which also tell True from 1
    assert rep.to_json().endswith('"trials":' + canonical_json(expected) + "}\n")


def test_trial_columns_cost_one_text_per_distinct_value(monkeypatch):
    rep = run_singlet_spacetime(AXES, AXES, 30000, 7)
    assert [k for k, c in rep.trials.items() if c.dtype.kind == "f"] == ["product_fidelity"]
    assert len(np.unique(rep.trials["product_fidelity"])) <= 3  # one per B outcome
    calls = []

    def counted(x):
        calls.append(x)
        return format_float(x)

    monkeypatch.setattr(report, "format_float", counted)
    # each format formats each distinct value once; the report keeps no
    # texts, and the table keeps the ones the next report takes
    trials_only = ExperimentReport(rep.scenario, {}, None, {}, trials=rep.trials)
    for write, formats in ((trials_only.to_json, True), (trials_only.trials_csv, True),
                           (trials_only.to_json, False), (trials_only.to_json, True)):
        calls.clear()
        write()
        assert 1 <= len(calls) <= 3 if formats else calls == []


# -- EPR scenario -----------------------------------------------------------------


def test_epr_config_invariants():
    with pytest.raises(ConfigError):
        EprConfig(delta1=0.0, delta2=1.0)  # regions too close
    with pytest.raises(ConfigError):
        EprConfig(horizon=1.0)  # amplification * lambda * T < 20
    with pytest.raises(ConfigError):
        EprConfig(coupling_sites=4)  # displacement below localization width
    with pytest.raises(ConfigError, match="delta1"):
        EprConfig(delta1=float("nan"))  # field constraints hold for library callers too


def test_epr_outcomes_and_conditionals():
    rep = run_epr_position(EprConfig(trials=200, master_seed=5))
    a = rep.aggregates
    assert a["conclusive_trials"] + a["inconclusive_trials"] == 200
    assert a["conclusive_trials"] >= 198  # amplified collapse is overwhelming
    sigma = math.sqrt(0.25 / a["conclusive_trials"])
    assert abs(a["freq_a_delta1"] - 0.5) <= 3 * sigma
    assert a["cond_b_delta2_given_a_delta1"] >= 1.0 - 1e-2
    assert a["cond_b_delta4_given_a_delta3"] >= 1.0 - 1e-2
    assert abs(a["freq_a_delta1"] + a["freq_a_delta3"] - 1.0) <= 1e-12
    assert abs(a["freq_b_delta2"] + a["freq_b_delta4"] - 1.0) <= 1e-12
    # ensemble-level no-signaling: the oracle's b marginal is untouched
    assert abs(a["oracle_b_marginal_delta2"] - 0.5) <= 1e-8


def test_epr_unmeasured_control_matches_b_marginal():
    trials = 400
    coupled = run_epr_position(EprConfig(trials=trials, master_seed=6))
    control = run_epr_position(EprConfig(trials=trials, master_seed=7, coupling_sites=0))
    assert control.aggregates["conclusive_trials"] == 0  # no branch ever selected
    sigma = math.sqrt(2 * 0.25 / trials)
    diff = abs(coupled.aggregates["freq_b_delta2"] - control.aggregates["freq_b_delta2"])
    assert diff <= 3 * sigma
    assert abs(control.aggregates["oracle_b_marginal_delta2"] - 0.5) <= 1e-8


def test_epr_reproducible():
    a = run_epr_position(EprConfig(trials=50, master_seed=9))
    b = run_epr_position(EprConfig(trials=50, master_seed=9))
    assert a.to_json() == b.to_json()


# -- oracle comparison --------------------------------------------------------------


def test_oracle_comparison_deterministic_limit():
    config = OracleComparisonConfig(rate=0.0, hamiltonian="free", horizon=2.0)
    rep = run_oracle_comparison(config, 100, 3)
    assert all(d <= 1e-8 for d in rep.aggregates["distances"])


def test_oracle_comparison_reproducible():
    config = OracleComparisonConfig(horizon=2.0)
    a = run_oracle_comparison(config, 150, 17)
    b = run_oracle_comparison(config, 150, 17)
    assert a.to_json() == b.to_json()
    assert a.aggregates["threshold"] == 5.0 / math.sqrt(150)


def test_oracle_comparison_evolves_each_window_into_the_mixture_buffer(monkeypatch):
    # a serial run holds one window of trajectory states: each window is
    # evolved straight into the mixture buffer, folded, and overwritten by the next
    buffers, sizes = set(), []

    def tracked(*args, out=None, **kwargs):
        block = evolve(*args, out=out, **kwargs)
        assert np.shares_memory(block.states, out)
        buffers.add(id(out))
        sizes.append(block.states.shape[1])
        return block

    evolve = scenarios.evolve_block
    monkeypatch.setattr(scenarios, "evolve_block", tracked)
    monkeypatch.setattr(lindblad, "MIXTURE_BUFFER_BYTES", 1)  # windows of one chunk
    k = 3 * MIXTURE_CHUNK + 17
    rep = run_oracle_comparison(OracleComparisonConfig(horizon=1.0), k, 5, workers=1)
    assert rep.aggregates["ensemble_size"] == k == sum(sizes)
    assert sizes == [MIXTURE_CHUNK] * 3 + [17]
    assert len(buffers) == 1


def test_oracle_comparison_round_count_is_pinned(monkeypatch):
    # event rounds of the benchmark's ensemble_m64 run at seed 1: 2345 in 64-row
    # blocks of trials in trial order, 411 in 256-row blocks sorted by event count
    # within each 2048-trial window
    rounds = []

    def counted(*args, **kwargs):
        block = evolve(*args, **kwargs)
        rounds.append(block.rounds)
        return block

    evolve = scenarios.evolve_block
    monkeypatch.setattr(scenarios, "evolve_block", counted)
    config = OracleComparisonConfig(hamiltonian="free", grid_points=64)
    rep = run_oracle_comparison(config, 10_000, 1, workers=1)
    assert all(rep.aggregates["within_threshold"])
    assert len(rounds) == 5
    assert sum(rounds) == 411


def test_epr_round_count_is_pinned(monkeypatch):
    # event rounds of a serial epr --trials 4000 --seed 1 (d = 256, M = 64):
    # 1759 in 64-row blocks of amplitudes, 332 with each 512-trial window one
    # block of pointer multipliers (block_rows(64, 8) = 512)
    rounds = []

    def counted(*args, **kwargs):
        block = evolve(*args, **kwargs)
        rounds.append(block.rounds)
        return block

    evolve = scenarios.evolve_block
    monkeypatch.setattr(scenarios, "evolve_block", counted)
    rep = run_epr_position(EprConfig(trials=4000, master_seed=1))
    assert rep.aggregates["cond_b_delta2_given_a_delta1"] == 1.0
    assert len(rounds) == 8
    assert sum(rounds) == 332


def test_oracle_comparison_requires_minimum_ensemble():
    with pytest.raises(ConfigError):
        run_oracle_comparison(OracleComparisonConfig(), 50, 1)


@pytest.mark.parametrize("run,error", [
    pytest.param(lambda: run_oracle_comparison(OracleComparisonConfig(alpha=0.5), 3000, 1),
                 GridAdequacyError, id="oracle-completeness-drift"),
    pytest.param(lambda: run_epr_position(EprConfig(trials=3000, pointer_alpha=0.5)),
                 GridAdequacyError, id="epr-completeness-drift"),
])
def test_oracle_rejects_its_inputs_before_any_trial_runs(monkeypatch, run, error):
    def trial_ran(*args, **kwargs):
        raise AssertionError("a trajectory ran before the oracle checked its inputs")

    monkeypatch.setattr(scenarios, "evolve_block", trial_ran)
    with pytest.raises(error):
        run()


def test_grw_ensemble_localization_summary():
    config = OracleComparisonConfig(
        rate=2.0, horizon=10.0, dt=0.05, peak_weights=(0.6, 0.4)
    )
    rep = run_grw_ensemble(config, 150, 23)
    a = rep.aggregates
    assert a["localized_fraction"] >= 0.99
    sigma = math.sqrt(0.6 * 0.4 / 150)
    assert abs(a["branch_frequencies"][0] - 0.6) <= 3 * sigma
    assert abs(sum(a["branch_frequencies"]) - a["localized_fraction"]) <= 1e-12


@pytest.mark.parametrize("build,key", [
    (lambda: OracleComparisonConfig(rate=float("nan")), "lambda"),
    (lambda: OracleComparisonConfig(grid_points=64.0), "points"),
    (lambda: OracleComparisonConfig(hamiltonian="kinetic"), "hamiltonian"),
    (lambda: OracleComparisonConfig(peak_centers=(24.0, 24.0)), "peaks"),
    (lambda: OracleComparisonConfig(peak_weights=(1.0, 0.0)), "peaks"),
    (lambda: check_oracle_budget(64, 2.0, LindbladConfig(dt=0.01, horizon=1e9), 4), "horizon"),
    (lambda: run_grw_ensemble(OracleComparisonConfig(rate=1e8), 2, 1), "lambda"),
    (lambda: run_singlet_spacetime(AXES, AXES, 10**7, 1), "trials"),
])
def test_library_callers_get_the_command_line_checks(build, key):
    with pytest.raises(ConfigError, match=key):
        build()


@pytest.mark.parametrize("run", [
    lambda seed: run_singlet_spacetime(AXES, AXES, 2, seed),
    lambda seed: run_epr_position(EprConfig(trials=2, master_seed=seed)),
    lambda seed: run_grw_ensemble(OracleComparisonConfig(), 2, seed),
    lambda seed: run_oracle_comparison(OracleComparisonConfig(), 100, seed),
])
def test_library_seeds_must_fit_the_philox_key(run):
    for seed in (-1, 2**128, 1.5):
        with pytest.raises(ConfigError, match="seed"):
            run(seed)
    assert run(2**128 - 1).master_seed == 2**128 - 1


@pytest.mark.parametrize("case", ["same", "distinct", "no_b"])
def test_singlet_reports_identical_across_block_sizes_and_workers(monkeypatch, case):
    triple_b = random_triple(np.random.default_rng(41))
    triple_a = random_triple(np.random.default_rng(42)) if case == "distinct" else triple_b
    reports = []
    for block, workers in ((spin.SINGLET_BLOCK, 1), (7, 1), (7, 2)):
        monkeypatch.setattr(spin, "SINGLET_BLOCK", block)
        reports.append(run_singlet_spacetime(triple_b, triple_a, 300, 43, workers=workers,
                                             measure_b=case != "no_b").to_json())
    assert reports[0] == reports[1] == reports[2]


def test_pool_keeps_a_bounded_window_of_tasks(monkeypatch):
    import concurrent.futures

    submitted = []

    class Inline:
        """Runs each task when it is submitted, and records it."""

        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            submitted.append(args)
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Inline)
    monkeypatch.setattr(pool.os, "cpu_count", lambda: 2)
    # 16 items over 2 workers: one task per item, and TASKS_PER_WORKER = 2 per
    # worker (one running, one queued) ahead of the consumer
    ahead = 2 * pool.TASKS_PER_WORKER
    for i, result in enumerate(pool.map_indexed(lambda x: x * x, range(16), 2)):
        assert result == i * i
        assert len(submitted) == min(16, i + ahead)
    assert len(submitted) == 16


def _die_on_three(item):
    """The task of item 3 kills the pool worker that runs it."""
    if item == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return item


def test_a_killed_worker_is_a_lost_worker_not_a_bug(monkeypatch):
    # two cores, so the tasks run in pool workers and never in this process
    monkeypatch.setattr(pool.os, "cpu_count", lambda: 2)
    with pytest.raises(WorkerLostError, match="died"):
        list(pool.map_indexed(_die_on_three, range(6), 2))


def test_pool_size_is_capped_by_cores_and_trials():
    cores = os.cpu_count() or 1
    assert pool_size(100_000, 10**6) == cores
    assert pool_size(100_000, 1) == 1
    assert pool_size(1, 10**6) == 1
