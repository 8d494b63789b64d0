"""Kochen-Specker colorability engine and the free-will argument trace.

A "coloring" assigns 0 or 1 to each ray (direction up to sign) so that
every orthogonal triple contains exactly one 0 and no orthogonal pair
is doubly 0 (the 101 rule, forced by the squared-spin sum rule for
spin 1).  ``search_coloring`` decides colorability by exhaustive
backtracking with unit propagation; ``ck_argument_trace`` composes an
uncolorability certificate into the chain of implications that rules
out direction-indexed response functions for the twinned pair.

Ray-set files: one ray per line, three whitespace-separated
components, each a decimal or the symbolic form ``a+b*r2`` meaning
a + b*sqrt(2); ``#`` starts a comment.  Symbolic components are kept
as exact rational pairs so orthogonality is decided exactly; rays
built from raw floats fall back to the set's tolerance.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, InvariantViolationError

MAX_RAYS = 200
DEFAULT_TOLERANCE = 1e-9
MAX_EXPONENT = 324  # decimal exponents beyond a double's range (4.9e-324 ... 1.8e308)
_EXPONENT = re.compile(r"[eE][-+]?(\d[\d_]*)$")

_SQRT2 = math.sqrt(2.0)

# A component is a + b*sqrt2 stored as exact Fractions.
Quad = tuple[Fraction, Fraction]


def _quad_float(q: Quad) -> float:
    return float(q[0]) + float(q[1]) * _SQRT2


def _quad_mul(u: Quad, v: Quad) -> Quad:
    return (u[0] * v[0] + 2 * u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _quad_is_zero(q: Quad) -> bool:
    return q[0] == 0 and q[1] == 0


def _fraction(text: str) -> Fraction:
    """``Fraction(text)``, refusing first an exponent beyond MAX_EXPONENT:
    Fraction expands a decimal exponent into an exact power of ten, so
    ``1e-99999999`` would stall it."""
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or "0") > MAX_EXPONENT:
            raise ValueError(f"the exponent of {text!r} is beyond a double's range")
    return Fraction(text)


def parse_component(token: str) -> Quad:
    """Parse ``a``, ``a+b*r2``, ``a-b*r2``, ``b*r2`` or ``r2`` forms."""
    t = token.strip()
    if not t:
        raise ValueError("empty ray component")
    if "r2" not in t:
        return (_fraction(t), Fraction(0))
    split = None
    for i in range(1, len(t)):
        if t[i] in "+-" and t[i - 1] not in "eE":  # a sign after e/E is an exponent's
            split = i
            break
    if split is None:
        a_part, r_part = "", t
    else:
        a_part, r_part = t[:split], t[split:]
    a = _fraction(a_part) if a_part else Fraction(0)
    sign = Fraction(1)
    if r_part[0] in "+-":
        sign = Fraction(-1) if r_part[0] == "-" else Fraction(1)
        r_part = r_part[1:]
    if not r_part.endswith("r2"):
        raise ValueError(f"malformed component {token!r}")
    body = r_part[:-2]
    if body:
        if not body.endswith("*"):
            raise ValueError(f"malformed component {token!r}")
        b = _fraction(body[:-1])
    else:
        b = Fraction(1)
    return (a, sign * b)


@dataclass(frozen=True)
class Ray:
    """A direction up to sign: canonical unit float vector, plus the
    exact (primitive, sign-fixed) form when components live in Q[sqrt2]."""

    vector: tuple[float, float, float]
    exact: tuple[Quad, Quad, Quad] | None = None

    @classmethod
    def from_floats(cls, v: Iterable[float]) -> "Ray":
        arr = np.asarray(list(v), dtype=float)
        n = float(np.linalg.norm(arr))
        if n < 1e-12:
            raise ValueError("zero vector is not a ray")
        arr = arr / n
        for x in arr:
            if abs(x) > 1e-12:
                if x < 0:
                    arr = -arr
                break
        return cls(tuple(float(x) for x in arr), None)

    @classmethod
    def from_exact(cls, comps: Sequence[Quad]) -> "Ray":
        comps = tuple(comps)
        if all(_quad_is_zero(c) for c in comps):
            raise ValueError("zero vector is not a ray")
        denom = lcm(*[f.denominator for c in comps for f in c])
        ints = [[int(f * denom) for f in c] for c in comps]
        g = 0
        for pair in ints:
            for v in pair:
                g = gcd(g, abs(v))
        ints = [[v // g for v in pair] for pair in ints]
        flip = 1
        for pair in ints:
            val = pair[0] + pair[1] * _SQRT2
            if val != 0.0:
                flip = -1 if val < 0 else 1
                break
        exact = tuple((Fraction(flip * a), Fraction(flip * b)) for a, b in ints)
        floats = np.array([_quad_float(c) for c in exact])
        floats = floats / np.linalg.norm(floats)
        return cls(tuple(float(x) for x in floats), exact)

    def dot_float(self, other: "Ray") -> float:
        return float(np.dot(self.vector, other.vector))

    def is_orthogonal(self, other: "Ray", tol: float) -> bool:
        if self.exact is not None and other.exact is not None:
            acc = (Fraction(0), Fraction(0))
            for u, v in zip(self.exact, other.exact):
                p = _quad_mul(u, v)
                acc = (acc[0] + p[0], acc[1] + p[1])
            return _quad_is_zero(acc)
        return abs(self.dot_float(other)) <= tol

    def is_parallel(self, other: "Ray", tol: float) -> bool:
        if self.exact is not None and other.exact is not None:
            a, b = self.exact, other.exact
            for i, j in ((0, 1), (0, 2), (1, 2)):
                cross = _quad_mul(a[i], b[j])
                back = _quad_mul(a[j], b[i])
                if not _quad_is_zero((cross[0] - back[0], cross[1] - back[1])):
                    return False
            return True
        return abs(self.dot_float(other)) >= 1.0 - tol


@dataclass(frozen=True)
class RaySet:
    """Deduplicated rays with the orthogonality tolerance used for
    float-only pairs."""

    rays: tuple[Ray, ...]
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self) -> None:
        for i in range(len(self.rays)):
            for j in range(i + 1, len(self.rays)):
                if self.rays[i].is_parallel(self.rays[j], self.tolerance):
                    raise ValueError(f"rays {i} and {j} coincide")

    def __len__(self) -> int:
        return len(self.rays)

    @classmethod
    def from_vectors(
        cls, vectors: Iterable[Iterable[float]], tolerance: float = DEFAULT_TOLERANCE
    ) -> "RaySet":
        return cls._dedupe([Ray.from_floats(v) for v in vectors], tolerance)

    @classmethod
    def from_file(cls, path: str | Path, tolerance: float = DEFAULT_TOLERANCE) -> "RaySet":
        rays = []
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            tokens = text.split()
            try:
                if len(tokens) != 3:
                    raise ValueError(f"expected 3 components, got {len(tokens)}")
                rays.append(Ray.from_exact([parse_component(t) for t in tokens]))
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
        return cls._dedupe(rays, tolerance)

    @classmethod
    def _dedupe(cls, rays: list[Ray], tolerance: float) -> "RaySet":
        kept: list[Ray] = []
        for r in rays:
            if not any(r.is_parallel(k, tolerance) for k in kept):
                kept.append(r)
        return cls(tuple(kept), tolerance)

    def subset(self, indices: Iterable[int]) -> "RaySet":
        return RaySet(tuple(self.rays[i] for i in sorted(set(indices))), self.tolerance)


@dataclass(frozen=True)
class OrthogonalityStructure:
    pairs: tuple[tuple[int, int], ...]
    triples: tuple[tuple[int, int, int], ...]

    def ray_indices(self) -> set[int]:
        out: set[int] = set()
        for p in self.pairs:
            out.update(p)
        for t in self.triples:
            out.update(t)
        return out


def build_structure(rays: RaySet) -> OrthogonalityStructure:
    """Enumerate orthogonal pairs and mutually orthogonal triples."""
    n = len(rays)
    pair_set: set[tuple[int, int]] = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rays.rays[i].is_orthogonal(rays.rays[j], rays.tolerance):
                pair_set.add((i, j))
    triples = []
    for i, j in sorted(pair_set):
        for k in range(j + 1, n):
            if (i, k) in pair_set and (j, k) in pair_set:
                triples.append((i, j, k))
    return OrthogonalityStructure(tuple(sorted(pair_set)), tuple(sorted(set(triples))))


@dataclass(frozen=True)
class Assignment:
    """Partial or total valuation ray index -> {0, 1}."""

    values: Mapping[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", dict(self.values))

    def get(self, i: int) -> int | None:
        return self.values.get(i)

    def is_total_over(self, indices: Iterable[int]) -> bool:
        return all(i in self.values for i in indices)


@dataclass(frozen=True)
class CheckResult:
    valid: bool
    violation: str | None = None


def check_assignment(assignment: Assignment, structure: OrthogonalityStructure) -> CheckResult:
    """Validate the 101 rule over every triple and pair of the structure."""
    needed = structure.ray_indices()
    if not assignment.is_total_over(needed):
        raise ValueError("assignment must be total over the rays in the structure")
    for i, j in structure.pairs:
        if assignment.values[i] == 0 and assignment.values[j] == 0:
            return CheckResult(False, f"orthogonal pair ({i}, {j}) is doubly 0")
    for i, j, k in structure.triples:
        total = assignment.values[i] + assignment.values[j] + assignment.values[k]
        if total != 2:
            return CheckResult(
                False, f"triple ({i}, {j}, {k}) sums to {total}, expected exactly one 0"
            )
    return CheckResult(True)


@dataclass(frozen=True)
class SearchCertificate:
    verdict: str  # "colorable" | "uncolorable"
    witness: Assignment | None
    nodes_explored: int
    propagation_steps: int

    @property
    def colorable(self) -> bool:
        return self.verdict == "colorable"


class _Rules:
    """Adjacency views of a structure shared by search and propagation."""

    def __init__(self, n: int, structure: OrthogonalityStructure):
        self.n = n
        self.triples = structure.triples
        self.partners: list[list[int]] = [[] for _ in range(n)]
        for i, j in structure.pairs:
            self.partners[i].append(j)
            self.partners[j].append(i)
        self.triples_of: list[list[int]] = [[] for _ in range(n)]
        for t_idx, (i, j, k) in enumerate(structure.triples):
            self.triples_of[i].append(t_idx)
            self.triples_of[j].append(t_idx)
            self.triples_of[k].append(t_idx)

    def propagate(self, values: list[int], seeds: list[int], trail: list[int]) -> tuple[bool, int]:
        """Exhaust the forcing rules from newly assigned indices.

        Rules: a 0 forces 1 on every orthogonal partner; a triple with
        one 0 forces 1 on its other members; a triple with two 1s
        forces 0 on the third.  Appends forced indices to ``trail`` and
        returns (consistent, forced-assignment count).
        """
        steps = 0
        queue = list(seeds)
        while queue:
            i = queue.pop()
            if values[i] == 0:
                for j in self.partners[i]:
                    if values[j] == 0:
                        return False, steps
                    if values[j] == -1:
                        values[j] = 1
                        trail.append(j)
                        queue.append(j)
                        steps += 1
            for t_idx in self.triples_of[i]:
                zeros = ones = 0
                free = []
                for m in self.triples[t_idx]:
                    if values[m] == 0:
                        zeros += 1
                    elif values[m] == 1:
                        ones += 1
                    else:
                        free.append(m)
                if zeros >= 2 or ones == 3:
                    return False, steps
                if zeros == 1:
                    for m in free:
                        values[m] = 1
                        trail.append(m)
                        queue.append(m)
                        steps += 1
                elif ones == 2 and len(free) == 1:
                    values[free[0]] = 0
                    trail.append(free[0])
                    queue.append(free[0])
                    steps += 1
        return True, steps


def unit_propagate(
    structure: OrthogonalityStructure, assignment: Assignment, n_rays: int
) -> Assignment | None:
    """Close a partial assignment under the forcing rules.

    Returns the extended assignment, or None when the rules derive a
    contradiction.  Every forced value is logically implied: it holds
    in every valid completion of the input (tested against brute-force
    enumeration for small sets).
    """
    rules = _Rules(n_rays, structure)
    values = [-1] * n_rays
    for i, v in assignment.values.items():
        values[i] = v
    ok, _ = rules.propagate(values, list(assignment.values), [])
    if not ok:
        return None
    return Assignment({i: v for i, v in enumerate(values) if v != -1})


def search_coloring(rays: RaySet) -> SearchCertificate:
    """Decide 101-colorability by propagating backtracking search.

    Deterministic: decision variables are ordered by descending triple
    membership count (ties by canonical ray order) and the values 0, 1
    are tried in that order, so node counts are reproducible and can be
    pinned as regression values.
    """
    n = len(rays)
    if n > MAX_RAYS:
        raise ValueError(f"ray count {n} exceeds the search cap {MAX_RAYS}")
    structure = build_structure(rays)
    rules = _Rules(n, structure)

    order = sorted(range(n), key=lambda i: (-len(rules.triples_of[i]), rays.rays[i].vector))
    values = [-1] * n
    nodes = 0
    props = 0

    def dfs(pos: int) -> bool:
        nonlocal nodes, props
        while pos < n and values[order[pos]] != -1:
            pos += 1
        if pos == n:
            return True
        i = order[pos]
        for v in (0, 1):
            nodes += 1
            trail = [i]
            values[i] = v
            ok, steps = rules.propagate(values, [i], trail)
            props += steps
            if ok and dfs(pos + 1):
                return True
            for j in trail:
                values[j] = -1
        return False

    if dfs(0):
        witness = Assignment({i: values[i] for i in range(n)})
        verdict = check_assignment(witness, structure)
        if not verdict.valid:
            raise InvariantViolationError(f"search produced an invalid witness: {verdict.violation}")
        return SearchCertificate("colorable", witness, nodes, props)
    return SearchCertificate("uncolorable", None, nodes, props)


def minimal_uncolorable_core(rays: RaySet) -> tuple[int, ...]:
    """Deletion-minimal uncolorable subset (indices into ``rays``).

    Greedy: drop each ray in turn if the remainder stays uncolorable.
    The result is irreducible (removing any single ray of the core
    makes it colorable), not necessarily globally minimum.
    """
    if search_coloring(rays).colorable:
        raise ValueError("ray set is colorable; it has no uncolorable core")
    current = list(range(len(rays)))
    for i in list(current):
        trial = [j for j in current if j != i]
        if not search_coloring(rays.subset(trial)).colorable:
            current = trial
    return tuple(current)


@dataclass(frozen=True)
class TraceStep:
    name: str
    statement: str
    premises: tuple[str, ...]
    evidence: dict

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "statement": self.statement,
            "premises": list(self.premises),
            "evidence": self.evidence,
        }


@dataclass(frozen=True)
class ArgumentTrace:
    steps: tuple[TraceStep, ...]
    conclusion: str
    certificate: SearchCertificate

    def to_dict(self) -> dict:
        return {
            "steps": [s.to_dict() for s in self.steps],
            "conclusion": self.conclusion,
            "certificate": {
                "verdict": self.certificate.verdict,
                "nodes_explored": self.certificate.nodes_explored,
                "propagation_steps": self.certificate.propagation_steps,
            },
        }


def ck_argument_trace(rays: RaySet) -> ArgumentTrace:
    """Compose the uncolorability certificate into the full argument.

    Premises: TWIN (same-axis squared-spin outcomes of the twinned pair
    always agree; the spin module checks this numerically), FREE (each
    wing's triple is chosen freely), FIN (no influence faster than
    light).  The chain reduces any putative pre-existing response to a
    direction-indexed 101 valuation, which the search refutes.
    """
    certificate = search_coloring(rays)
    if certificate.colorable:
        raise ValueError(
            "ray set is colorable, so no contradiction is derivable from it; "
            "use a Kochen-Specker set"
        )
    structure = build_structure(rays)
    core = minimal_uncolorable_core(rays)
    core_triples = [t for t in structure.triples if all(i in core for i in t)]
    steps = (
        TraceStep(
            "twin-perfect-correlation",
            "Same-axis squared-spin measurements on the two wings of the "
            "total-spin-0 pair give equal outcomes, so one valuation per "
            "direction covers both wings.",
            ("TWIN",),
            {"checked_by": "exact joint table of the spin module (zero mass on disagreement)"},
        ),
        TraceStep(
            "context-independence",
            "The far wing's triple is chosen freely and cannot influence the "
            "near outcome, so the valuation along a direction cannot depend "
            "on the two companion directions of the triple.",
            ("FREE", "FIN"),
            {"reduces": "value(direction, companions) -> value(direction)"},
        ),
        TraceStep(
            "valuation-is-101-assignment",
            "A direction-indexed {0,1} valuation obeying the squared-spin sum "
            "rule is exactly a 101 assignment on the ray set's orthogonality "
            "structure.",
            ("sum rule: one 0 and two 1s per orthogonal triple",),
            {"rays": len(rays), "pairs": len(structure.pairs), "triples": len(structure.triples)},
        ),
        TraceStep(
            "no-101-assignment-exists",
            "Exhaustive propagating search finds no 101 assignment for these "
            "rays; no direction-indexed response function exists.",
            ("search certificate",),
            {
                "nodes_explored": certificate.nodes_explored,
                "propagation_steps": certificate.propagation_steps,
                "minimal_core_size": len(core),
                "minimal_core_rays": [list(rays.rays[i].vector) for i in core],
                "minimal_core_triples": len(core_triples),
            },
        ),
    )
    conclusion = (
        "TWIN, FREE and FIN cannot all hold: predetermined direction-indexed "
        "outcomes are impossible. Keeping TWIN (verified) and FREE leaves the "
        "no-faster-than-light-influence premise (FIN) as the one that fails: "
        "the outcome correlations are nonlocal, though unusable for signaling."
    )
    return ArgumentTrace(steps, conclusion, certificate)
