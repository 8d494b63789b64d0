"""Spin-1 measurement theory and the two-particle total-spin-0 state.

Local basis convention: (m = +1, m = 0, m = -1) eigenstates of S_z,
with hbar = 1.  For a real unit vector u the "Cartesian" ket

    |u> = ux |x> + uy |y> + uz |z>,

with |x> = (|-1> - |+1>)/sqrt2, |y> = i(|+1> + |-1>)/sqrt2, |z> = |0>,
spans the kernel of u.S, and for real u, v one has <u|v> = u.v.  The
squared spin along u is therefore (u.S)^2 = 1 - |u><u|, so every
measurement here reduces to rank-1 projectors and probability tables
can be computed exactly.  Measurements are implemented as projective
collapse with Born weights; the stochastically collapsing pointer
version of the same experiments lives in :mod:`collapselab.scenarios`.

Outcomes are drawn in one place: ``TripleBranches.outcomes`` maps
uniforms to outcomes by the inverse CDF of ``rng.draw_rows``.  The
``singlet`` run (``run_singlet_spacetime``) maps whole blocks of
``rng.uniforms`` through it: a trial's B and A outcomes are its draws 0
and 1 of tag ``rng.OUTCOMES``, and each block of SINGLET_BLOCK trials is
one ``pool`` task.  ``triple_measurement`` is its one-trial case.
Everything else here is exact: probability tables, parameter
independence and outcome dependence.  The module imports neither
trajectory engine (``grw``, ``lindblad``), so a ``singlet`` run loads
neither.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Iterable

import numpy as np

from .errors import InvariantViolationError
from .hilbert import (
    Operator,
    StateVector,
    SubsystemShape,
    apply_on_subsystem,
    expm_hermitian,
)
from .pool import blocks, check_budget, joined, map_indexed
from .report import ExperimentReport
from .rng import OUTCOMES, draw_rows, uniforms

_SQ2I = 1.0 / math.sqrt(2.0)

_SX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) * _SQ2I
_SY = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) * _SQ2I
_SZ = np.diag([1.0, 0.0, -1.0]).astype(complex)

# Columns are the Cartesian kets |x>, |y>, |z| expressed in the
# (m=+1, m=0, m=-1) basis.
_CARTESIAN = np.array(
    [
        [-_SQ2I, 1j * _SQ2I, 0.0],
        [0.0, 0.0, 1.0],
        [_SQ2I, 1j * _SQ2I, 0.0],
    ],
    dtype=complex,
)

DIRECTION_TOL = 1e-12
TRIPLE_TOL = 1e-10


@dataclass(frozen=True)
class Direction:
    """Unit 3-vector."""

    components: tuple[float, float, float]

    def __post_init__(self) -> None:
        c = tuple(float(x) for x in self.components)
        object.__setattr__(self, "components", c)
        if abs(math.sqrt(sum(x * x for x in c)) - 1.0) > DIRECTION_TOL:
            raise ValueError(f"direction {c} is not unit length")

    @classmethod
    def from_vector(cls, v: Iterable[float]) -> "Direction":
        arr = np.asarray(list(v), dtype=float)
        n = float(np.linalg.norm(arr))
        if n < 1e-14:
            raise ValueError("cannot normalize a zero vector")
        return cls(tuple(arr / n))

    def as_array(self) -> np.ndarray:
        return np.array(self.components, dtype=float)

    def dot(self, other: "Direction") -> float:
        return float(np.dot(self.as_array(), other.as_array()))

    def negated(self) -> "Direction":
        return Direction(tuple(-x for x in self.components))


@dataclass(frozen=True)
class OrthoTriple:
    """Right-handed orthonormal triple of directions.

    Mirror (left-handed) input is normalized on construction by
    flipping the third axis; squared spins are parity-even so nothing
    observable changes.
    """

    x: Direction
    y: Direction
    z: Direction

    def __post_init__(self) -> None:
        m = np.column_stack([d.as_array() for d in (self.x, self.y, self.z)])
        gram = m.T @ m - np.eye(3)
        if np.max(np.abs(gram)) > TRIPLE_TOL:
            raise ValueError("axes are not orthonormal within tolerance")
        det = float(np.linalg.det(m))
        if abs(det + 1.0) <= TRIPLE_TOL:
            object.__setattr__(self, "z", self.z.negated())
            det = -det
        if abs(det - 1.0) > TRIPLE_TOL:
            raise ValueError(f"triple determinant {det} is not +-1")

    @classmethod
    def from_vectors(cls, a, b, c) -> "OrthoTriple":
        return cls(Direction.from_vector(a), Direction.from_vector(b), Direction.from_vector(c))

    @classmethod
    def containing(cls, n: Direction) -> "OrthoTriple":
        """Deterministic completion of one axis to a full triple."""
        nv = n.as_array()
        helper = np.array([0.0, 0.0, 1.0]) if abs(nv[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
        u = np.cross(nv, helper)
        u = u / np.linalg.norm(u)
        v = np.cross(nv, u)
        return cls.from_vectors(nv, u, v)

    @property
    def axes(self) -> tuple[Direction, Direction, Direction]:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class TripleOutcome:
    """Squared-spin values on a triple's axes: exactly one 0, two 1s."""

    values: tuple[int, int, int]

    def __post_init__(self) -> None:
        vals = tuple(int(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if sorted(vals) != [0, 1, 1]:
            raise ValueError(f"triple outcome must be a permutation of (0,1,1), got {vals}")

    @property
    def zero_axis(self) -> int:
        return self.values.index(0)

    @classmethod
    def with_zero_at(cls, axis: int) -> "TripleOutcome":
        vals = [1, 1, 1]
        vals[axis] = 0
        return cls(tuple(vals))


def spin_matrices() -> tuple[Operator, Operator, Operator]:
    """Standard spin-1 operators (hbar = 1) in the S_z eigenbasis."""
    return Operator(_SX), Operator(_SY), Operator(_SZ)


def spin_along(n: Direction) -> Operator:
    nx, ny, nz = n.components
    return Operator(nx * _SX + ny * _SY + nz * _SZ)


def squared_spin(n: Direction) -> Operator:
    """(n.S)^2: Hermitian with spectrum (0, 1, 1)."""
    ns = spin_along(n).entries
    return Operator(ns @ ns)


def zero_ket(n: Direction) -> np.ndarray:
    """The (unique up to phase) state with squared spin 0 along n."""
    return _CARTESIAN @ n.as_array().astype(complex)


def zero_projector(n: Direction) -> Operator:
    k = zero_ket(n)
    return Operator(np.outer(k, k.conj()))


def rotation_operator(axis: Direction, angle: float) -> Operator:
    """Spin-1 representation exp(-i * angle * axis.S)."""
    return expm_hermitian(spin_along(axis), -1j * angle)


def rotation_taking_z_to(n: Direction) -> Operator:
    """A rotation operator mapping the +z axis onto n."""
    nv = n.as_array()
    cosang = float(np.clip(nv[2], -1.0, 1.0))
    if cosang > 1.0 - 1e-15:
        return Operator.identity(3)
    if cosang < -1.0 + 1e-15:
        return rotation_operator(Direction((1.0, 0.0, 0.0)), math.pi)
    axis = np.cross([0.0, 0.0, 1.0], nv)
    axis = axis / np.linalg.norm(axis)
    return rotation_operator(Direction.from_vector(axis), math.acos(cosang))


_SINGLET_SHAPE = SubsystemShape((3, 3))


def singlet_state(n: Direction | None = None) -> StateVector:
    """Two spin-1 particles with total spin 0.

    Amplitudes are (|+1,-1> + |-1,+1> - |0,0>)/sqrt3 in the eigenbasis
    of n.S (the standard z basis when ``n`` is omitted).  The state is
    the same for every n up to global phase; tests pin this.
    """
    amps = np.zeros((3, 3), dtype=complex)
    c = 1.0 / math.sqrt(3.0)
    amps[0, 2] = c
    amps[2, 0] = c
    amps[1, 1] = -c
    psi = StateVector(_SINGLET_SHAPE, amps.reshape(-1))
    if n is None:
        return psi
    u = rotation_taking_z_to(n).entries
    rotated = np.kron(u, u) @ psi.amplitudes
    return StateVector(_SINGLET_SHAPE, rotated)


def triple_branches(
    psi: StateVector, particle: int, triple: OrthoTriple
) -> tuple[np.ndarray, list[StateVector]]:
    """Outcome probabilities (one entry per axis holding the 0) and the
    unnormalized post-measurement branches of a triple measurement."""
    if psi.shape.dims[psi.shape.validate_index(particle)] != 3:
        raise ValueError("triple measurement targets a spin-1 (dim 3) factor")
    branches = [apply_on_subsystem(zero_projector(d), particle, psi) for d in triple.axes]
    return np.array([b.norm() ** 2 for b in branches]), branches


class TripleBranches:
    """A triple measurement of one fixed state, for any number of draws:
    the outcome probabilities, checked to sum to 1, and the branches, each
    normalized when its state is first asked for, so a zero-mass branch
    raises only if drawn."""

    def __init__(self, psi: StateVector, particle: int, triple: OrthoTriple) -> None:
        self.probs, self._branches = triple_branches(psi, particle, triple)
        if abs(float(self.probs.sum()) - 1.0) > 1e-10:
            raise InvariantViolationError(
                f"triple outcome probabilities sum to {float(self.probs.sum())}, expected 1"
            )
        self._states: dict[int, StateVector] = {}

    def outcomes(self, u: np.ndarray) -> np.ndarray:
        """The axis holding the 0 for each uniform of ``u``."""
        return draw_rows(np.broadcast_to(self.probs, (len(u), 3)), u)

    def state(self, k: int) -> StateVector:
        """The normalized post-measurement state of outcome ``k``."""
        if k not in self._states:
            self._states[k] = self._branches[k].normalize()
        return self._states[k]


def triple_measurement(
    psi: StateVector, particle: int, triple: OrthoTriple, u: float
) -> tuple[TripleOutcome, StateVector]:
    """Simultaneous squared-spin measurement along a triple's three axes.

    The three commuting squared spins share the eigenbasis made of the
    triple's zero kets; the outcome the uniform ``u`` draws places the
    single 0 on one axis.  Returns the outcome and the normalized
    post-measurement state: the one-trial case of
    ``TripleBranches.outcomes``.
    """
    measurement = TripleBranches(psi, particle, triple)
    k = int(measurement.outcomes(np.array([u]))[0])
    return TripleOutcome.with_zero_at(k), measurement.state(k)


def triple_probability_table(psi: StateVector, particle: int, triple: OrthoTriple) -> np.ndarray:
    """Exact outcome probabilities (one entry per axis holding the 0)."""
    return triple_branches(psi, particle, triple)[0]


def joint_probability_table(triple_a: OrthoTriple, triple_b: OrthoTriple) -> np.ndarray:
    """Exact singlet table P[i, j] = P(a's 0 on axis i, b's 0 on axis j).

    Each joint outcome projects onto a product of zero kets, so the
    probability is a single squared amplitude of the singlet state.
    """
    psi = singlet_state()
    table = np.empty((3, 3), dtype=float)
    for i, u in enumerate(triple_a.axes):
        ku = zero_ket(u)
        for j, v in enumerate(triple_b.axes):
            amp = np.vdot(np.kron(ku, zero_ket(v)), psi.amplitudes)
            table[i, j] = abs(amp) ** 2
    return table


def singlet_b_marginal(n: Direction) -> tuple[float, float]:
    """Exact (P(S^2=1), P(S^2=0)) for particle b along n, no a measurement."""
    psi = singlet_state()
    p0 = apply_on_subsystem(zero_projector(n), 1, psi).norm() ** 2
    return (1.0 - p0, p0)


def parameter_independence_check(triple_a: OrthoTriple, n: Direction) -> float:
    """Max deviation of b's marginal along n with vs without a non-selective
    a-side triple measurement, from exact probability tables."""
    p1_free, p0_free = singlet_b_marginal(n)
    psi = singlet_state()
    pn = zero_projector(n)
    p0_cond = 0.0
    for w, branch in zip(*triple_branches(psi, 0, triple_a)):
        if w < 1e-300:
            continue
        branch = branch.normalize()
        p0_cond += w * (apply_on_subsystem(pn, 1, branch).norm() ** 2)
    p1_cond = 1.0 - p0_cond
    return max(abs(p0_free - p0_cond), abs(p1_free - p1_cond))


@dataclass(frozen=True)
class OutcomeIndependenceReport:
    """Exact conditional structure of same-axis singlet outcomes."""

    joint: dict[tuple[int, int], float]
    conditional: dict[int, dict[int, float]]
    unconditional: dict[int, float]


def outcome_independence_check(n: Direction) -> OutcomeIndependenceReport:
    """P(b outcome | a outcome) along the shared axis n, from exact tables.

    Conditioning flips the unconditional (2/3, 1/3) law to certainty,
    while the marginal itself is untouched; this is outcome dependence
    without parameter dependence.
    """
    triple = OrthoTriple.containing(n)
    t = joint_probability_table(triple, triple)
    p_a0_b0 = t[0, 0]
    p_a0_b1 = float(t[0, 1:].sum())
    p_a1_b0 = float(t[1:, 0].sum())
    p_a1_b1 = float(t[1:, 1:].sum())
    joint = {(0, 0): p_a0_b0, (0, 1): p_a0_b1, (1, 0): p_a1_b0, (1, 1): p_a1_b1}
    p_a0 = p_a0_b0 + p_a0_b1
    p_a1 = p_a1_b0 + p_a1_b1
    conditional = {
        0: {0: p_a0_b0 / p_a0, 1: p_a0_b1 / p_a0},
        1: {0: p_a1_b0 / p_a1, 1: p_a1_b1 / p_a1},
    }
    p1, p0 = singlet_b_marginal(n)
    return OutcomeIndependenceReport(joint, conditional, {1: p1, 0: p0})


# -- singlet pair with spacelike ordering ------------------------------------

SINGLET_BLOCK = 4096  # trials per block of a singlet run


def _triple_as_lists(triple: OrthoTriple | None) -> list[list[float]] | None:
    if triple is None:
        return None
    return [list(d.components) for d in triple.axes]


# squared-spin values on a triple's axes, by the axis that holds the 0
_OUTCOME_VALUES = np.array(
    ["".join(map(str, TripleOutcome.with_zero_at(k).values)) for k in range(3)], dtype=object)


def _present(outcomes: np.ndarray) -> list[int]:
    """The distinct outcome codes (-1 for none, else the zero's axis) in
    ``outcomes``, ascending; np.unique would import numpy.ma (~10 ms)."""
    return (np.flatnonzero(np.bincount(outcomes + 1, minlength=4)) - 1).tolist()


def _singlet_block(
    triple_b: OrthoTriple, triple_a: OrthoTriple | None, measure_b: bool, seed: int,
    trials: range,
) -> dict[str, np.ndarray]:
    """A block's trial columns.  The state and both triples are fixed for
    the run, so B's outcomes are drawn as one array, then A's, grouped by
    the B outcome they follow, and each column indexes its field's values
    by the outcomes.  Each drawn branch is normalized and checked (product
    fidelity included) as measuring the trial's own copy of the pair
    would, so a zero-mass branch raises only if drawn."""
    u = uniforms(seed, trials, OUTCOMES, 2)  # B's draw, then A's
    b, a = np.full(len(trials), -1), np.full(len(trials), -1)
    if measure_b:
        b_measurement = TripleBranches(singlet_state(), 1, triple_b)
        b = b_measurement.outcomes(u[:, 0])
    fidelity = np.zeros(3)  # by B outcome
    for kb in _present(b):
        psi, rows = singlet_state(), b == kb
        if kb >= 0:
            psi = b_measurement.state(kb)
            expected = np.kron(zero_ket(triple_b.axes[kb]), zero_ket(triple_b.axes[kb]))
            fidelity[kb] = abs(np.vdot(expected, psi.amplitudes)) ** 2
            if abs(fidelity[kb] - 1.0) > 1e-12:
                raise InvariantViolationError(
                    f"post-measurement state is not the expected product (fid {fidelity[kb]})"
                )
        if triple_a is not None:
            a_measurement = TripleBranches(psi, 0, triple_a)
            a[rows] = a_measurement.outcomes(u[rows, 1])
            for ka in _present(a[rows]):
                a_measurement.state(ka)  # normalizes the drawn branch, as measuring would
    columns = {"trial": np.arange(trials.start, trials.stop)}
    if measure_b:
        columns.update(b_values=_OUTCOME_VALUES[b], b_zero_axis=b, product_fidelity=fidelity[b])
    if triple_a is not None:
        columns.update(a_values=_OUTCOME_VALUES[a], a_zero_axis=a)
        if measure_b:
            columns["agree_all_axes"] = (a == b).astype(object)
    return columns


def run_singlet_spacetime(
    triple_b: OrthoTriple,
    triple_a: OrthoTriple | None,
    trials: int,
    seed: int,
    *,
    measure_b: bool = True,
    workers: int = 1,
) -> ExperimentReport:
    """B measures first (collapsing the pair to a product of zero kets),
    then A; with equal triples the outcomes agree axis by axis in every
    trial.  Disable ``measure_b`` for the no-B control used by the
    parameter-independence comparison."""
    t0 = time.perf_counter()
    check_budget(seed, trials, "trials")
    columns = joined(map_indexed(
        partial(_singlet_block, triple_b, triple_a, measure_b, seed),
        blocks(trials, SINGLET_BLOCK), workers))
    aggregates: dict = {"trials": trials}
    if measure_b:
        b = columns["b_zero_axis"]
        aggregates["freq_b_zero_axis"] = (np.bincount(b, minlength=3) / trials).tolist()
    if triple_a is not None:
        a = columns["a_zero_axis"]
        aggregates["freq_a_zero_axis"] = (np.bincount(a, minlength=3) / trials).tolist()
    if triple_a is not None and measure_b:
        joint = np.bincount(3 * a + b, minlength=9).reshape(3, 3)
        aggregates["joint_zero_axis_freq"] = (joint / trials).tolist()
        aggregates["agreement_frequency"] = np.count_nonzero(a == b) / trials
        aggregates["exact_joint_table"] = joint_probability_table(triple_a, triple_b).tolist()
    return ExperimentReport(
        scenario="singlet_spacetime",
        config={
            "triple_a": _triple_as_lists(triple_a),
            "triple_b": _triple_as_lists(triple_b),
            "measure_b": measure_b,
            "trials": trials,
        },
        master_seed=seed,
        aggregates=aggregates,
        trials=columns,
        wall_time_s=time.perf_counter() - t0,
    )
