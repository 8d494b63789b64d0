import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapselab.ks import (
    Assignment,
    Ray,
    RaySet,
    build_structure,
    check_assignment,
    ck_argument_trace,
    minimal_uncolorable_core,
    parse_component,
    search_coloring,
    unit_propagate,
)

DATA = Path(__file__).resolve().parents[1] / "src" / "collapselab" / "data"

# Pinned regression values for the bundled 33-ray set (deterministic
# search order; recomputed values must match these exactly).
KS33_PAIRS = 72
KS33_TRIPLES = 16
KS33_NODES = 46
KS33_PROPAGATIONS = 412


def brute_force(rays):
    """Exhaustive 2^n oracle: all valid 101 assignments."""
    structure = build_structure(rays)
    n = len(rays)
    valid = []
    for bits in itertools.product((0, 1), repeat=n):
        ok = all(bits[i] + bits[j] > 0 for i, j in structure.pairs) and all(
            bits[i] + bits[j] + bits[k] == 2 for i, j, k in structure.triples
        )
        if ok:
            valid.append(bits)
    return structure, valid


# -- parsing and canonicalization ----------------------------------------------


def test_parse_component_forms():
    assert parse_component("1") == (Fraction(1), Fraction(0))
    assert parse_component("-1.5") == (Fraction(-3, 2), Fraction(0))
    assert parse_component("r2") == (Fraction(0), Fraction(1))
    assert parse_component("-r2") == (Fraction(0), Fraction(-1))
    assert parse_component("2*r2") == (Fraction(0), Fraction(2))
    assert parse_component("1+1*r2") == (Fraction(1), Fraction(1))
    assert parse_component("1-2*r2") == (Fraction(1), Fraction(-2))
    assert parse_component("0.5+r2") == (Fraction(1, 2), Fraction(1))
    assert parse_component("1e-5+r2") == (Fraction(1, 100000), Fraction(1))
    assert parse_component("2.5E+3-r2") == (Fraction(2500), Fraction(-1))
    for bad in ("", "x", "r3", "1*", "1+*r2"):
        with pytest.raises(ValueError):
            parse_component(bad)


def test_ray_sign_canonicalization():
    a = Ray.from_floats([-1.0, 2.0, 0.0])
    b = Ray.from_floats([1.0, -2.0, 0.0])
    assert a.vector == b.vector
    assert a.vector[0] > 0


def test_exact_rays_dedupe_across_sqrt2_scaling():
    # (r2, r2, 0) is the same ray as (1, 1, 0)
    one = Ray.from_exact([(Fraction(1), Fraction(0)), (Fraction(1), Fraction(0)),
                          (Fraction(0), Fraction(0))])
    root = Ray.from_exact([(Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)),
                           (Fraction(0), Fraction(0))])
    assert one.is_parallel(root, 1e-9)
    rays = RaySet._dedupe([one, root], 1e-9)
    assert len(rays) == 1


def test_exact_orthogonality_decides_sqrt2_cancellation():
    # (1, r2, 0) . (r2, -1, 0) = r2 - r2 = 0, exactly
    a = Ray.from_exact([(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
                        (Fraction(0), Fraction(0))])
    b = Ray.from_exact([(Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)),
                        (Fraction(0), Fraction(0))])
    assert a.is_orthogonal(b, 0.0)


def test_ray_file_parsing_errors(tmp_path):
    bad = tmp_path / "bad.rays"
    bad.write_text("1 0\n")
    with pytest.raises(ValueError):
        RaySet.from_file(bad)


# -- structure -------------------------------------------------------------------


def test_structure_coordinate_axes():
    rays = RaySet.from_file(DATA / "axes.rays")
    s = build_structure(rays)
    assert len(s.pairs) == 3
    assert len(s.triples) == 1


def test_structure_axes_plus_diagonal():
    rays = RaySet.from_file(DATA / "axes_diag.rays")
    s = build_structure(rays)
    assert len(s.pairs) == 4  # the diagonal is orthogonal to z only
    assert len(s.triples) == 1


def test_structure_ks33_counts_pinned():
    rays = RaySet.from_file(DATA / "ks33.rays")
    assert len(rays) == 33
    s = build_structure(rays)
    assert len(s.pairs) == KS33_PAIRS
    assert len(s.triples) == KS33_TRIPLES
    assert len(s.triples) >= 16


# -- assignment checking -----------------------------------------------------------


def test_check_assignment_cases():
    rays = RaySet.from_file(DATA / "axes.rays")
    s = build_structure(rays)
    assert check_assignment(Assignment({0: 0, 1: 1, 2: 1}), s).valid
    r = check_assignment(Assignment({0: 0, 1: 0, 2: 1}), s)
    assert not r.valid and "pair" in r.violation
    r = check_assignment(Assignment({0: 1, 1: 1, 2: 1}), s)
    assert not r.valid and "triple" in r.violation
    with pytest.raises(ValueError):
        check_assignment(Assignment({0: 1}), s)


# -- search -------------------------------------------------------------------------


def test_axes_colorable_with_single_zero_witness():
    cert = search_coloring(RaySet.from_file(DATA / "axes.rays"))
    assert cert.colorable
    values = [cert.witness.values[i] for i in range(3)]
    assert sorted(values) == [0, 1, 1]


def test_shared_triples_colorable_matches_brute_force():
    rays = RaySet.from_file(DATA / "twin_triples.rays")
    structure, valid = brute_force(rays)
    assert len(valid) > 0
    cert = search_coloring(rays)
    assert cert.colorable
    assert tuple(cert.witness.values[i] for i in range(len(rays))) in set(valid)


def test_brute_force_verdict_agreement_all_bundled_small_sets():
    for name in ("axes.rays", "axes_diag.rays", "twin_triples.rays"):
        rays = RaySet.from_file(DATA / name)
        assert len(rays) <= 12
        _, valid = brute_force(rays)
        cert = search_coloring(rays)
        assert cert.colorable == (len(valid) > 0), name


def test_ks33_uncolorable_with_pinned_counts():
    rays = RaySet.from_file(DATA / "ks33.rays")
    cert = search_coloring(rays)
    assert cert.verdict == "uncolorable"
    assert cert.witness is None
    assert cert.nodes_explored == KS33_NODES
    assert cert.propagation_steps == KS33_PROPAGATIONS


def test_verdict_invariant_under_permutation():
    rays = RaySet.from_file(DATA / "ks33.rays")
    rng = np.random.default_rng(0)
    for _ in range(3):
        perm = rng.permutation(len(rays))
        shuffled = RaySet(tuple(rays.rays[i] for i in perm), rays.tolerance)
        assert search_coloring(shuffled).verdict == "uncolorable"
    small = RaySet.from_file(DATA / "twin_triples.rays")
    perm = rng.permutation(len(small))
    shuffled_small = RaySet(tuple(small.rays[i] for i in perm), small.tolerance)
    assert search_coloring(shuffled_small).verdict == "colorable"


def test_verdict_invariant_under_global_rotation():
    rays = RaySet.from_file(DATA / "ks33.rays")
    theta = 0.7
    c, s = math.cos(theta), math.sin(theta)
    r = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]]) @ np.array(
        [[1, 0, 0], [0, c, -s], [0, s, c]]
    )
    rotated = RaySet.from_vectors([r @ np.array(ray.vector) for ray in rays.rays])
    assert len(rotated) == 33
    assert search_coloring(rotated).verdict == "uncolorable"


def test_monotonicity_adding_rays_keeps_uncolorable():
    rays = RaySet.from_file(DATA / "ks33.rays")
    extra = RaySet(rays.rays + (Ray.from_floats([3.0, 1.0, 0.2]),), rays.tolerance)
    assert search_coloring(extra).verdict == "uncolorable"


def test_ray_count_cap():
    rng = np.random.default_rng(1)
    vectors = rng.normal(size=(201, 3))
    with pytest.raises(ValueError):
        search_coloring(RaySet.from_vectors(vectors))


# -- propagation soundness -----------------------------------------------------------


def _assert_propagation_sound(rays):
    structure, valid = brute_force(rays)
    n = len(rays)
    for i in range(n):
        for v in (0, 1):
            completions = [bits for bits in valid if bits[i] == v]
            extended = unit_propagate(structure, Assignment({i: v}), n)
            if extended is None:
                assert not completions, f"propagation refuted a satisfiable seed {i}={v}"
                continue
            for j, w in extended.values.items():
                assert all(bits[j] == w for bits in completions), (
                    f"forced {j}={w} from seed {i}={v} not implied by all completions"
                )


def test_propagation_soundness_bundled_sets():
    for name in ("axes.rays", "axes_diag.rays", "twin_triples.rays"):
        _assert_propagation_sound(RaySet.from_file(DATA / name))


_POOL = [
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1),
    (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
    (2, 1, 0), (1, 2, 0), (0, 2, 1), (1, 0, 2), (1, -2, 0), (2, 0, -1),
    (1, 1, 2), (2, -1, 1), (1, 2, -2),
]


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=len(_POOL) - 1), min_size=3, max_size=9))
def test_propagation_soundness_random_small_sets(indices):
    rays = RaySet.from_vectors([_POOL[i] for i in sorted(indices)])
    _assert_propagation_sound(rays)
    _, valid = brute_force(rays)
    assert search_coloring(rays).colorable == (len(valid) > 0)


# -- minimal core and the argument trace ----------------------------------------------


def test_minimal_core_is_irreducible():
    rays = RaySet.from_file(DATA / "ks33.rays")
    core = minimal_uncolorable_core(rays)
    assert search_coloring(rays.subset(core)).verdict == "uncolorable"
    # removing any single core ray restores colorability
    for drop in core[:3]:
        rest = [i for i in core if i != drop]
        assert search_coloring(rays.subset(rest)).verdict == "colorable"


def test_argument_trace_on_ks33():
    rays = RaySet.from_file(DATA / "ks33.rays")
    trace = ck_argument_trace(rays)
    names = [s.name for s in trace.steps]
    assert names == [
        "twin-perfect-correlation",
        "context-independence",
        "valuation-is-101-assignment",
        "no-101-assignment-exists",
    ]
    assert trace.certificate.verdict == "uncolorable"
    evidence = trace.steps[3].evidence
    assert evidence["nodes_explored"] == KS33_NODES
    assert evidence["minimal_core_size"] >= 3
    assert len(evidence["minimal_core_rays"]) == evidence["minimal_core_size"]
    assert "FIN" in trace.steps[1].premises
    assert "nonlocal" in trace.conclusion


def test_argument_trace_rejects_colorable_sets():
    with pytest.raises(ValueError, match="colorable"):
        ck_argument_trace(RaySet.from_file(DATA / "axes.rays"))
