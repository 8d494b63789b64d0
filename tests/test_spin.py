import math

import numpy as np
import pytest

from collapselab.hilbert import Operator, StateVector, SubsystemShape, apply_on_subsystem
from collapselab.spin import (
    Direction,
    OrthoTriple,
    OutcomeIndependenceReport,
    TripleOutcome,
    joint_probability_table,
    outcome_independence_check,
    parameter_independence_check,
    rotation_operator,
    singlet_b_marginal,
    singlet_state,
    spin_along,
    spin_matrices,
    squared_spin,
    triple_measurement,
    triple_probability_table,
    zero_ket,
)
from dense_helpers import random_triple

AXES = OrthoTriple.from_vectors([1, 0, 0], [0, 1, 0], [0, 0, 1])


def rotation_matrix(axis, angle):
    """Rodrigues formula; independent of the spin-1 representation."""
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    k = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)


def rotate_triple(r, triple):
    return OrthoTriple.from_vectors(*(r @ d.as_array() for d in triple.axes))


# -- operators ----------------------------------------------------------------


def test_sz_defining_basis():
    _, _, sz = spin_matrices()
    np.testing.assert_allclose(sz.entries, np.diag([1.0, 0.0, -1.0]), atol=0)


def test_spin_commutation_relations():
    sx, sy, sz = (m.entries for m in spin_matrices())
    np.testing.assert_allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-14)
    np.testing.assert_allclose(sy @ sz - sz @ sy, 1j * sx, atol=1e-14)
    np.testing.assert_allclose(sz @ sx - sx @ sz, 1j * sy, atol=1e-14)


def test_sum_of_squares_is_two():
    sx, sy, sz = (m.entries for m in spin_matrices())
    total = sx @ sx + sy @ sy + sz @ sz
    assert np.max(np.abs(total - 2.0 * np.eye(3))) <= 1e-12


def test_squares_along_orthogonal_axes_commute():
    sx, sy, _ = (m.entries for m in spin_matrices())
    x2, y2 = sx @ sx, sy @ sy
    assert np.max(np.abs(x2 @ y2 - y2 @ x2)) <= 1e-12


def test_squared_spin_defining_basis():
    z = Direction((0.0, 0.0, 1.0))
    np.testing.assert_allclose(squared_spin(z).entries, np.diag([1.0, 0.0, 1.0]), atol=1e-15)


def test_squared_spin_spectrum_random_directions():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = Direction.from_vector(rng.normal(size=3))
        w = np.linalg.eigvalsh(squared_spin(n).entries)
        np.testing.assert_allclose(w, [0.0, 1.0, 1.0], atol=1e-10)


def test_triple_sum_rule_random_triples():
    rng = np.random.default_rng(1)
    for _ in range(10):
        t = random_triple(rng)
        total = sum(squared_spin(d).entries for d in t.axes)
        assert np.max(np.abs(total - 2.0 * np.eye(3))) <= 1e-10


def test_zero_ket_spans_kernel():
    # dual route: (n.S)^2 == 1 - |n><n| and (n.S)|n> == 0
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = Direction.from_vector(rng.normal(size=3))
        k = zero_ket(n)
        assert np.linalg.norm(spin_along(n).entries @ k) <= 1e-12
        proj = np.outer(k, k.conj())
        np.testing.assert_allclose(squared_spin(n).entries, np.eye(3) - proj, atol=1e-12)


def test_rotation_covariance_of_squared_spin():
    rng = np.random.default_rng(3)
    for _ in range(5):
        axis = rng.normal(size=3)
        angle = rng.uniform(0, 2 * math.pi)
        r = rotation_matrix(axis, angle)
        n = Direction.from_vector(rng.normal(size=3))
        rn = Direction.from_vector(r @ n.as_array())
        u = rotation_operator(Direction.from_vector(axis), angle).entries
        lhs = squared_spin(rn).entries
        rhs = u @ squared_spin(n).entries @ u.conj().T
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


# -- triples and outcomes -------------------------------------------------------


def test_mirror_triple_normalized_to_right_handed():
    t = OrthoTriple.from_vectors([1, 0, 0], [0, 1, 0], [0, 0, -1])
    m = np.column_stack([d.as_array() for d in t.axes])
    assert abs(np.linalg.det(m) - 1.0) <= 1e-10


def test_triple_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        OrthoTriple.from_vectors([1, 0, 0], [1, 1, 0], [0, 0, 1])


def test_triple_outcome_validation():
    with pytest.raises(ValueError):
        TripleOutcome((0, 0, 1))
    with pytest.raises(ValueError):
        TripleOutcome((1, 1, 1))
    assert TripleOutcome.with_zero_at(2).zero_axis == 2


# -- single-particle measurements ----------------------------------------------


def test_measurement_of_eigenstate_is_certain():
    rng = np.random.default_rng(4)
    n = Direction.from_vector(rng.normal(size=3))
    triple = OrthoTriple.containing(n)
    psi = StateVector(SubsystemShape((3,)), zero_ket(n))
    table = triple_probability_table(psi, 0, triple)
    np.testing.assert_allclose(table, [1.0, 0.0, 0.0], atol=1e-12)
    outcome, post = triple_measurement(psi, 0, triple, rng.random())
    assert outcome.zero_axis == 0
    assert abs(abs(np.vdot(zero_ket(n), post.amplitudes)) - 1.0) <= 1e-12


def test_maximally_mixed_gives_uniform_outcomes():
    rng = np.random.default_rng(5)
    triple = random_triple(rng)
    runs = 10_000
    counts = np.zeros(3)
    for _ in range(runs):
        which = rng.integers(3)
        amps = np.zeros(3, dtype=complex)
        amps[which] = 1.0
        psi = StateVector(SubsystemShape((3,)), amps)
        outcome, _ = triple_measurement(psi, 0, triple, rng.random())
        counts[outcome.zero_axis] += 1
    sigma = math.sqrt((1 / 3) * (2 / 3) / runs)
    assert np.max(np.abs(counts / runs - 1 / 3)) <= 3 * sigma


# -- the singlet -----------------------------------------------------------------


def test_singlet_amplitudes():
    psi = singlet_state()
    amps = psi.amplitudes.reshape(3, 3)
    c = 1.0 / math.sqrt(3.0)
    np.testing.assert_allclose(amps[0, 2], c, atol=1e-15)
    np.testing.assert_allclose(amps[2, 0], c, atol=1e-15)
    np.testing.assert_allclose(amps[1, 1], -c, atol=1e-15)
    assert abs(psi.norm() - 1.0) <= 1e-12


def test_singlet_has_total_spin_zero():
    sx, sy, sz = (m.entries for m in spin_matrices())
    psi = singlet_state()
    for s in (sx, sy, sz):
        total = np.kron(s, np.eye(3)) + np.kron(np.eye(3), s)
        assert np.linalg.norm(total @ psi.amplitudes) <= 1e-12


def test_singlet_rotation_invariance():
    rng = np.random.default_rng(6)
    base = singlet_state()
    for _ in range(5):
        n = Direction.from_vector(rng.normal(size=3))
        rotated = singlet_state(n)
        overlap = abs(np.vdot(base.amplitudes, rotated.amplitudes))
        assert abs(overlap - 1.0) <= 1e-12  # equal up to global phase


def test_singlet_b_marginal_exact():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = Direction.from_vector(rng.normal(size=3))
        p1, p0 = singlet_b_marginal(n)
        assert abs(p1 - 2.0 / 3.0) <= 1e-12
        assert abs(p0 - 1.0 / 3.0) <= 1e-12


def test_joint_table_matches_dot_product_formula():
    # oracle: P(i, j) = (u_i . v_j)^2 / 3 for the total-spin-0 pair
    rng = np.random.default_rng(8)
    ta, tb = random_triple(rng), random_triple(rng)
    table = joint_probability_table(ta, tb)
    oracle = np.array(
        [[ta.axes[i].dot(tb.axes[j]) ** 2 / 3.0 for j in range(3)] for i in range(3)]
    )
    np.testing.assert_allclose(table, oracle, atol=1e-12)
    assert abs(table.sum() - 1.0) <= 1e-12


def singlet_measured(triple_a, triple_b, rng):
    """The singlet pair measured by particle a first (if ``triple_a``), then
    by b, each outcome drawn by a uniform of ``rng``."""
    psi = singlet_state()
    out_a = None
    if triple_a is not None:
        out_a, psi = triple_measurement(psi, 0, triple_a, rng.random())
    out_b, psi = triple_measurement(psi, 1, triple_b, rng.random())
    return out_a, out_b, psi


def test_twin_same_triple_sampled_and_exact():
    rng = np.random.default_rng(9)
    t = random_triple(rng)
    table = joint_probability_table(t, t)
    off_diagonal = table - np.diag(np.diag(table))
    assert np.max(np.abs(off_diagonal)) <= 1e-12
    for _ in range(500):
        out_a, out_b, _ = singlet_measured(t, t, rng)
        assert out_a.values == out_b.values


def test_joint_measure_without_a_matches_marginal():
    rng = np.random.default_rng(10)
    runs = 10_000
    zeros = np.zeros(3)
    for _ in range(runs):
        out_a, out_b, _ = singlet_measured(None, AXES, rng)
        assert out_a is None
        zeros[out_b.zero_axis] += 1
    sigma = math.sqrt((1 / 3) * (2 / 3) / runs)
    assert np.max(np.abs(zeros / runs - 1 / 3)) <= 3 * sigma


def test_post_state_after_zero_outcome_is_product_of_zero_kets():
    rng = np.random.default_rng(11)
    n = Direction.from_vector(rng.normal(size=3))
    triple = OrthoTriple.containing(n)
    seen = 0
    while seen < 5:
        out_a, post = triple_measurement(singlet_state(), 0, triple, rng.random())
        if out_a.zero_axis != 0:
            continue
        seen += 1
        expected = np.kron(zero_ket(n), zero_ket(n))
        assert abs(abs(np.vdot(expected, post.amplitudes)) - 1.0) <= 1e-12


def test_order_independence_of_joint_table():
    # sequential a-then-b vs b-then-a, from explicit collapse chains
    rng = np.random.default_rng(12)
    ta, tb = random_triple(rng), random_triple(rng)
    psi = singlet_state()

    def sequential(first_triple, first_particle, second_triple, second_particle):
        table = np.zeros((3, 3))
        for i, u in enumerate(first_triple.axes):
            proj_u = np.outer(zero_ket(u), zero_ket(u).conj())
            branch = apply_on_subsystem(Operator(proj_u), first_particle, psi)
            w = branch.norm() ** 2
            branch = branch.normalize()
            for j, v in enumerate(second_triple.axes):
                proj_v = np.outer(zero_ket(v), zero_ket(v).conj())
                leaf = apply_on_subsystem(Operator(proj_v), second_particle, branch)
                table[i, j] = w * leaf.norm() ** 2
        return table

    ab = sequential(ta, 0, tb, 1)
    ba = sequential(tb, 1, ta, 0).T
    assert np.max(np.abs(ab - ba)) <= 1e-12
    assert np.max(np.abs(ab - joint_probability_table(ta, tb))) <= 1e-12


def test_singlet_isotropy_under_common_rotation():
    rng = np.random.default_rng(13)
    ta, tb = random_triple(rng), random_triple(rng)
    base = joint_probability_table(ta, tb)
    for _ in range(3):
        r = rotation_matrix(rng.normal(size=3), rng.uniform(0, 2 * math.pi))
        rotated = joint_probability_table(rotate_triple(r, ta), rotate_triple(r, tb))
        assert np.max(np.abs(base - rotated)) <= 1e-9


# -- locality decomposition ------------------------------------------------------


def test_parameter_independence_exact():
    rng = np.random.default_rng(14)
    for _ in range(10):
        ta = random_triple(rng)
        n = Direction.from_vector(rng.normal(size=3))
        assert parameter_independence_check(ta, n) <= 1e-12


def test_parameter_independence_degenerate_shared_axis():
    rng = np.random.default_rng(15)
    n = Direction.from_vector(rng.normal(size=3))
    ta = OrthoTriple.containing(n)
    assert parameter_independence_check(ta, n) <= 1e-12


def test_non_selective_mixture_weights():
    # each axis of the a-side triple carries outcome 0 with weight 1/3,
    # i.e. squared spin 1 with probability 2/3 per axis
    rng = np.random.default_rng(16)
    ta = random_triple(rng)
    table = triple_probability_table(singlet_state(), 0, ta)
    np.testing.assert_allclose(table, [1 / 3] * 3, atol=1e-12)


def test_outcome_dependence_without_parameter_dependence():
    rng = np.random.default_rng(17)
    n = Direction.from_vector(rng.normal(size=3))
    report = outcome_independence_check(n)
    assert isinstance(report, OutcomeIndependenceReport)
    assert abs(report.conditional[1][1] - 1.0) <= 1e-12
    assert abs(report.conditional[0][0] - 1.0) <= 1e-12
    assert abs(report.unconditional[1] - 2.0 / 3.0) <= 1e-12
    assert abs(report.unconditional[0] - 1.0 / 3.0) <= 1e-12
    # joint differs from the product of marginals: outcome dependence
    assert abs(report.joint[(1, 1)] - 2.0 / 3.0) <= 1e-12
    assert abs(report.joint[(1, 1)] - (2 / 3) ** 2) > 0.2


def test_bell_factorization_fails_while_marginals_match():
    rng = np.random.default_rng(18)
    ta = random_triple(rng)
    tb = random_triple(rng)
    joint = joint_probability_table(ta, tb)
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    # marginals are setting-independent (parameter independence) ...
    np.testing.assert_allclose(pa, [1 / 3] * 3, atol=1e-12)
    np.testing.assert_allclose(pb, [1 / 3] * 3, atol=1e-12)
    # ... but the joint law is not the product of its marginals
    assert np.max(np.abs(joint - np.outer(pa, pb))) > 0.05


def test_sampled_parameter_independence():
    rng = np.random.default_rng(19)
    ta = random_triple(rng)
    n = Direction.from_vector(rng.normal(size=3))
    triple_n = OrthoTriple.containing(n)
    zeros_free = zeros_cond = 0
    for _ in range(2000):
        zeros_free += singlet_measured(None, triple_n, rng)[1].zero_axis == 0
        zeros_cond += singlet_measured(ta, triple_n, rng)[1].zero_axis == 0
    dev = abs(zeros_free - zeros_cond) / 2000
    sigma = math.sqrt(2 * (1 / 3) * (2 / 3) / 2000)
    assert dev <= 4 * sigma


def test_unnormalized_state_trips_probability_guard():
    from collapselab.errors import InvariantViolationError

    rng = np.random.default_rng(20)
    bad = StateVector(SubsystemShape((3,)), np.array([1.0, 1.0, 0.0]))  # norm sqrt2
    with pytest.raises(InvariantViolationError):
        triple_measurement(bad, 0, AXES, rng.random())
