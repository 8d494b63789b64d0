import math
import os
import weakref

import numpy as np
import pytest

from collapselab import scenarios
from collapselab.errors import ConfigError, GridAdequacyError
from collapselab.lindblad import MIXTURE_CHUNK, LindbladConfig, check_oracle_budget
from collapselab.scenarios import (
    EprConfig,
    OracleComparisonConfig,
    pool_size,
    run_epr_position,
    run_grw_ensemble,
    run_oracle_comparison,
    run_singlet_spacetime,
)
from collapselab.spin import OrthoTriple

AXES = OrthoTriple.from_vectors([1, 0, 0], [0, 1, 0], [0, 0, 1])


# -- singlet scenario -----------------------------------------------------------


def test_singlet_same_triples_always_agree():
    rep = run_singlet_spacetime(AXES, AXES, 500, 7)
    a = rep.aggregates
    assert a["agreement_frequency"] == 1.0
    exact = np.array(a["exact_joint_table"])
    assert np.max(np.abs(exact - np.diag(np.diag(exact)))) <= 1e-12
    assert abs(sum(a["freq_b_zero_axis"]) - 1.0) <= 1e-12
    assert all(r["product_fidelity"] >= 1.0 - 1e-12 for r in rep.trials)


def test_singlet_b_first_collapse_recorded():
    rng_triple = OrthoTriple.random(np.random.default_rng(3))
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


def test_oracle_comparison_keeps_at_most_one_chunk_of_trajectories(monkeypatch):
    alive = peak = 0

    def released() -> None:
        nonlocal alive
        alive -= 1

    def tracked(*args):
        nonlocal alive, peak
        traj = trajectory(*args)
        weakref.finalize(traj, released)
        alive += 1
        peak = max(peak, alive)
        return traj

    trajectory = scenarios._comparison_trajectory
    monkeypatch.setattr(scenarios, "_comparison_trajectory", tracked)
    k = 3 * MIXTURE_CHUNK + 17
    rep = run_oracle_comparison(OracleComparisonConfig(horizon=1.0), k, 5, workers=1)
    assert rep.aggregates["ensemble_size"] == k
    assert 1 <= peak <= MIXTURE_CHUNK


def test_oracle_comparison_requires_minimum_ensemble():
    with pytest.raises(ConfigError):
        run_oracle_comparison(OracleComparisonConfig(), 50, 1)


@pytest.mark.parametrize("run,error", [
    pytest.param(lambda: run_oracle_comparison(
        OracleComparisonConfig(horizon=1.0, checkpoints=3, hamiltonian="free"), 3000, 1),
        ConfigError,
        id="snapshot-off-step"),
    pytest.param(lambda: run_oracle_comparison(OracleComparisonConfig(alpha=0.5), 3000, 1),
                 GridAdequacyError, id="oracle-completeness-drift"),
    pytest.param(lambda: run_epr_position(EprConfig(trials=3000, pointer_alpha=0.5)),
                 GridAdequacyError, id="epr-completeness-drift"),
])
def test_oracle_rejects_its_inputs_before_any_trial_runs(monkeypatch, run, error):
    def trial_ran(*args, **kwargs):
        raise AssertionError("a trajectory ran before the oracle checked its inputs")

    monkeypatch.setattr(scenarios, "evolve_trajectory", trial_ran)
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
    (lambda: check_oracle_budget(64, True, LindbladConfig(dt=1e-9, horizon=5.0), 4), "dt"),
    (lambda: run_grw_ensemble(OracleComparisonConfig(rate=1e8), 2, 1), "lambda"),
    (lambda: run_singlet_spacetime(AXES, AXES, 10**7, 1), "trials"),
])
def test_library_callers_get_the_command_line_checks(build, key):
    with pytest.raises(ConfigError, match=key):
        build()


def test_pool_size_is_capped_by_cores_and_trials():
    cores = os.cpu_count() or 1
    assert pool_size(100_000, 10**6) == cores
    assert pool_size(100_000, 1) == 1
    assert pool_size(1, 10**6) == 1
