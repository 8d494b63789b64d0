import hashlib
import itertools
import math
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapselab import ks
from collapselab.errors import ConfigError
from collapselab.ks import (
    Assignment,
    Ray,
    RaySet,
    OrthogonalityStructure,
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
# ck_argument_trace(ks33): searches (whole set once, then one per ray
# dropped), their summed counts, and the core size.
KS33_TRACE_SEARCHES = 34
KS33_TRACE_NODES = 206
KS33_TRACE_PROPAGATIONS = 1364
KS33_CORE = 33


def _ray(components):
    """The exact ray through rational components."""
    return Ray.from_exact([(Fraction(x), Fraction(0)) for x in components])


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
    a = _ray([-1, 2, 0])
    b = _ray([1, -2, 0])
    assert a.vector == b.vector
    assert a.vector[0] > 0
    assert a.exact == b.exact == ((1, 0), (-2, 0), (0, 0))


def test_exact_rays_dedupe_across_sqrt2_scaling():
    # (r2, r2, 0) is the same ray as (1, 1, 0)
    one = Ray.from_exact([(Fraction(1), Fraction(0)), (Fraction(1), Fraction(0)),
                          (Fraction(0), Fraction(0))])
    root = Ray.from_exact([(Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)),
                           (Fraction(0), Fraction(0))])
    assert one.is_parallel(root)
    rays = ks._distinct([one, root], "rays")
    assert len(rays) == 1
    with pytest.raises(ValueError, match="coincide"):
        RaySet((one, root))


def test_exact_orthogonality_decides_sqrt2_cancellation():
    # (1, r2, 0) . (r2, -1, 0) = r2 - r2 = 0, exactly
    a = Ray.from_exact([(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
                        (Fraction(0), Fraction(0))])
    b = Ray.from_exact([(Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)),
                        (Fraction(0), Fraction(0))])
    assert a.is_orthogonal(b)


def _exact_components(path):
    """Every ray line of a ray file as parsed Fraction pairs, duplicates kept."""
    out = []
    for line in Path(path).read_text().splitlines():
        text = line.strip()
        if text and not text.startswith("#"):
            out.append([parse_component(t) for t in text.split()])
    return out


def _q_mul(u, v):
    return (u[0] * v[0] + 2 * u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _q_sub(u, v):
    return (u[0] - v[0], u[1] - v[1])


def _fraction_orthogonal(a, b):
    acc = (Fraction(0), Fraction(0))
    for u, v in zip(a, b):
        p = _q_mul(u, v)
        acc = (acc[0] + p[0], acc[1] + p[1])
    return acc == (0, 0)


def _fraction_parallel(a, b):
    return all(_q_sub(_q_mul(a[i], b[j]), _q_mul(a[j], b[i])) == (0, 0)
               for i, j in ((0, 1), (0, 2), (1, 2)))


# rays with fractions, mixed a + b*r2 terms and scaled duplicates of each other
_MIXED_RAYS = """
0.5+r2 1.5 -2*r2
1+2*r2 3 -4*r2
-3 2.25-r2 0.75
1 -1 1-r2
r2 -r2 -2+r2
-1+r2 0 1
1 1 0
-0.5 -0.5 0
"""


@pytest.mark.parametrize("name", ["axes", "axes_diag", "ks33", "twin_triples", "mixed"])
def test_integer_exact_arithmetic_matches_fractions(name, tmp_path):
    path = DATA / f"{name}.rays"
    if name == "mixed":
        path = tmp_path / "mixed.rays"
        path.write_text(_MIXED_RAYS)
    comps = _exact_components(path)
    rays = [Ray.from_exact(c) for c in comps]
    for ray, c in zip(rays, comps):
        flat = [v for pair in ray.exact for v in pair]
        assert all(type(v) is int for v in flat)
        assert math.gcd(*flat) == 1
        first = next(p for p in ray.exact if p != (0, 0))
        assert first[0] + first[1] * math.sqrt(2) > 0
        assert _fraction_parallel(ray.exact, c)
    for i, j in itertools.combinations_with_replacement(range(len(rays)), 2):
        assert rays[i].is_orthogonal(rays[j]) == _fraction_orthogonal(comps[i], comps[j])
        assert rays[i].is_parallel(rays[j]) == _fraction_parallel(comps[i], comps[j])


# the primitive rays with components in {0, +-1, +-2}, one per direction
_INTEGER_RAYS = [v for v in itertools.product(range(-2, 3), repeat=3)
                 if math.gcd(*v) == 1 and next(c for c in v if c) > 0]


# sha256 of each set's unit vectors, packed as little-endian doubles in ray
# order, as numpy's v / np.linalg.norm(v) gave them when Ray.vector used it
_VECTOR_BITS = {
    "axes": "1332df685c45a61a0ac008a6a653295b8c5655361c1d34b6304b22ec40235fb8",
    "axes_diag": "6c5c2695e873da4d8c2f70d4eff895804a8912cd45383ec05787acae9912f605",
    "ks33": "35c09ece93c35aa746677ee10abba6d1dcb75d1595b745b0ee5567fa050c866a",
    "twin_triples": "79945ac9ea124cc7357997ee4442cb2a06113725375105a89de348bbf1b88b03",
    "integer49": "2365e897f37428c3f0a6943e462dd049af325c855e9e313d5aeb9c4eade54dea",
}


@pytest.mark.parametrize("name", sorted(_VECTOR_BITS))
def test_ray_vectors_keep_their_recorded_numpy_bits(name):
    if name == "integer49":
        rays = RaySet.from_vectors(_INTEGER_RAYS)
        assert len(rays) == 49
    else:
        rays = RaySet.from_file(DATA / f"{name}.rays")
    assert all(type(x) is float for ray in rays.rays for x in ray.vector)
    packed = b"".join(struct.pack("<3d", *ray.vector) for ray in rays.rays)
    assert hashlib.sha256(packed).hexdigest() == _VECTOR_BITS[name]


def test_ray_whose_floats_cancel_is_a_config_error(tmp_path):
    # a + b*r2 with float(a) = -float(b) * sqrt(2): exact and nonzero, but its
    # float image is zero, so it has no unit vector
    comps = []
    for b in (2**60, 2**61 + 12345, 3 * 2**59 + 7):
        a = -int(float(b) * math.sqrt(2.0))
        assert float(a) + float(b) * math.sqrt(2.0) == 0.0
        comps.append(f"{a}+{b}*r2")
    path = tmp_path / "cancel.rays"
    path.write_text("1 0 0\n" + " ".join(comps) + "\n")
    with pytest.raises(ConfigError, match=r"cancel.rays:2: .*cancel to zero"):
        RaySet.from_file(path)


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
        shuffled = RaySet(tuple(rays.rays[i] for i in perm))
        assert search_coloring(shuffled).verdict == "uncolorable"
    small = RaySet.from_file(DATA / "twin_triples.rays")
    perm = rng.permutation(len(small))
    shuffled_small = RaySet(tuple(small.rays[i] for i in perm))
    assert search_coloring(shuffled_small).verdict == "colorable"


def _rational_matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def test_verdict_invariant_under_global_rotation():
    rays = RaySet.from_file(DATA / "ks33.rays")
    # rational rotations (the 3-4-5 and 5-12-13 triangles) keep components in Q[sqrt2]
    c, s = Fraction(3, 5), Fraction(4, 5)
    cx, sx = Fraction(5, 13), Fraction(12, 13)
    r = _rational_matmul([[c, -s, 0], [s, c, 0], [0, 0, 1]],
                         [[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    rotated = RaySet(tuple(
        Ray.from_exact([(sum(r[i][k] * ray.exact[k][0] for k in range(3)),
                         sum(r[i][k] * ray.exact[k][1] for k in range(3))) for i in range(3)])
        for ray in rays.rays))
    assert len(rotated) == 33
    assert len(rotated.structure.pairs) == KS33_PAIRS
    assert len(rotated.structure.triples) == KS33_TRIPLES
    assert search_coloring(rotated).verdict == "uncolorable"


def test_monotonicity_adding_rays_keeps_uncolorable():
    rays = RaySet.from_file(DATA / "ks33.rays")
    extra = RaySet(rays.rays + (_ray([3, 1, Fraction(1, 5)]),))
    assert search_coloring(extra).verdict == "uncolorable"


def test_ray_count_cap():
    vectors = [(1, i, i * i - 7) for i in range(201)]  # pairwise distinct directions
    with pytest.raises(ValueError):
        search_coloring(RaySet.from_vectors(vectors))
    with pytest.raises(ValueError):
        RaySet(tuple(_ray(v) for v in vectors))
    assert len(RaySet.from_vectors(vectors[:200])) == 200


def test_reading_stops_at_the_ray_cap(tmp_path):
    path = tmp_path / "many.rays"
    lines = [f"1 {i} {j}" for i in range(51) for j in range(51)]  # 2601 distinct rays
    path.write_text("\n".join(lines + ["not a ray"]) + "\n")
    with pytest.raises(ConfigError, match=f"{path}: more than 200 distinct rays"):
        RaySet.from_file(path)
    # repeats of one direction are read, and dropped, without limit
    path.write_text("1 1 0\n2 2 0\nr2 r2 0\n" * 300)
    assert len(RaySet.from_file(path)) == 1


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
    assert search_coloring(rays, core).verdict == "uncolorable"
    # removing any single core ray restores colorability, with a 101
    # witness over the remaining rays, in the set's own indices
    for drop in core:
        rest = [i for i in core if i != drop]
        cert = search_coloring(rays, rest)
        assert cert.verdict == "colorable"
        assert sorted(cert.witness.values) == rest
        assert check_assignment(cert.witness, rays.structure.restricted(rest)).valid


def test_minimal_core_reuses_a_given_certificate(monkeypatch):
    rays = RaySet.from_file(DATA / "ks33.rays")
    whole = search_coloring(rays)
    searched = []
    search = ks.search_coloring

    def counting_search(*args):
        searched.append(args[1:])
        return search(*args)

    monkeypatch.setattr(ks, "search_coloring", counting_search)
    assert minimal_uncolorable_core(rays, whole) == minimal_uncolorable_core(rays)
    assert searched.count(()) == 1  # the whole set is searched only when no certificate is given
    axes = RaySet.from_file(DATA / "axes.rays")
    for certificate in (None, search_coloring(axes)):
        with pytest.raises(ValueError, match="colorable"):
            minimal_uncolorable_core(axes, certificate)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 32), min_size=1, max_size=33, unique=True))
def test_restricted_search_equals_search_of_the_subset(within):
    # a restriction searches exactly like a set of only those rays: same
    # verdict and counts, and the same witness up to the renumbering
    rays = RaySet.from_file(DATA / "ks33.rays")
    kept = sorted(within)
    sub = RaySet(tuple(rays.rays[i] for i in kept))
    restricted, alone = search_coloring(rays, within), search_coloring(sub)
    assert (restricted.verdict, restricted.nodes_explored, restricted.propagation_steps) == (
        alone.verdict, alone.nodes_explored, alone.propagation_steps)
    if alone.witness is not None:
        assert restricted.witness.values == {
            kept[i]: v for i, v in alone.witness.values.items()}
    assert rays.structure.restricted(within) == OrthogonalityStructure(
        tuple((kept[i], kept[j]) for i, j in sub.structure.pairs),
        tuple((kept[i], kept[j], kept[k]) for i, j, k in sub.structure.triples))


def test_argument_trace_counts_pinned(monkeypatch):
    counts = {"build": 0, "search": 0, "nodes": 0, "props": 0}
    build, search = ks.build_structure, ks.search_coloring

    def counting_build(rays):
        counts["build"] += 1
        return build(rays)

    def counting_search(*args):
        cert = search(*args)
        counts["search"] += 1
        counts["nodes"] += cert.nodes_explored
        counts["props"] += cert.propagation_steps
        return cert

    monkeypatch.setattr(ks, "build_structure", counting_build)
    monkeypatch.setattr(ks, "search_coloring", counting_search)
    trace = ck_argument_trace(RaySet.from_file(DATA / "ks33.rays"))
    assert counts == {"build": 1, "search": KS33_TRACE_SEARCHES,
                      "nodes": KS33_TRACE_NODES, "props": KS33_TRACE_PROPAGATIONS}
    evidence = trace.steps[3].evidence
    assert evidence["minimal_core_size"] == KS33_CORE
    assert evidence["minimal_core_triples"] == KS33_TRIPLES


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
