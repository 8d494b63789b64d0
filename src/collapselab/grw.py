"""Stochastic localization dynamics on periodic 1D grids.

Each particle assigned to a grid undergoes Poisson-timed localization
jumps between stretches of exact unitary evolution.  The localization
operator centred at grid point x is diagonal in position with entries

    L(x)|q> = (alpha/pi)^(1/4) exp(-alpha/2 * d(q, x)^2) |q>

where d is the minimal-image periodic distance; the 1D prefactor makes
the completeness sum  sum_k L(x_k)^2 dx = 1  hold on an adequate grid
(alpha*dx^2 <= 0.1 and extent >= 10/sqrt(alpha)).

Jump centres are drawn from p(x_k) = ||L(x_k) psi||^2 dx, renormalized;
pre-normalization mass off by more than 1e-3 raises GridAdequacyError.

Between events the state evolves under the free kinetic Hamiltonian,
which is circulant on the periodic grid and therefore diagonal in the
discrete Fourier basis.  It is passed around as its first column (M
floats, from ``free_hamiltonian``), never as a dense matrix.
``Propagator`` reads its spectrum off the FFT of that column and
advances a state by one FFT, a phase multiply and one inverse FFT.

The engine has an ``equivariant`` mode where all state updates commute
bit-exactly with cyclic grid translations: norms and inner sums use
math.fsum (order-independent, correctly rounded), the propagator is
applied as an fsum circulant matvec, and jump centres come from a
cumulative table anchored at its argmax.  Translating the initial
state by s sites then reproduces the original trajectory translated by
s, for the same random stream.  The default mode uses fast vectorized
kernels with identical statistics and draws centres with the plain
inverse CDF of ``rng.draw_index``, which starts at site 0, so a tie
between maxima cannot move the centre drawn for a given uniform.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, GridAdequacyError, StepConditionError, ZeroNormError
from .hilbert import MAX_TOTAL_DIM, SPECTRAL_TOL, Operator, StateVector, SubsystemShape
from .rng import draw_index
from .schema import NON_NEGATIVE, POSITIVE, check_fields, checked, integer

TRAJECTORY_NORM_TOL = 1e-9
JUMP_MASS_HARD_LIMIT = 1e-3
ZERO_NORM_FLOOR = 1e-14
GRID_POINTS = integer(8, MAX_TOTAL_DIM)


@dataclass(frozen=True)
class GrwParams:
    """Localization model parameters.

    alpha : inverse squared localization width (> 0)
    lam   : jump rate per particle (>= 0); desk-scale runs amplify this
            far above the physical magnitude, always explicitly
    hbar  : action unit
    mass  : particle mass for the free kinetic Hamiltonian
    """

    alpha: float = checked(POSITIVE)
    lam: float = checked(NON_NEGATIVE)
    hbar: float = checked(POSITIVE, default=1.0)
    mass: float = checked(POSITIVE, default=1.0)

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic 1D grid (period = points * spacing)."""

    points: int = checked(GRID_POINTS)
    spacing: float = checked(POSITIVE)
    origin: float = 0.0

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def length(self) -> float:
        return self.points * self.spacing

    def coordinates(self) -> np.ndarray:
        return self.origin + self.spacing * np.arange(self.points)

    def index_of(self, x: float) -> int:
        """Grid index of an on-grid coordinate (error if off-grid)."""
        r = (x - self.origin) / self.spacing
        k = int(round(r))
        if abs(r - k) > 1e-9:
            raise ValueError(f"coordinate {x} is not on the grid")
        return k % self.points

    def min_image(self, dx: float) -> float:
        """Minimal-image displacement for a coordinate difference."""
        return dx - self.length * round(dx / self.length)


@dataclass(frozen=True)
class JumpEvent:
    time: float
    particle: int
    center: float


@dataclass(frozen=True)
class Trajectory:
    """One stochastic realization: its states at the sample times, in
    order, plus its jump record."""

    states: tuple[StateVector, ...]
    jumps: tuple[JumpEvent, ...]


# -- localization operators -------------------------------------------------


@lru_cache(maxsize=128)
def _template(points: int, spacing: float, alpha: float) -> np.ndarray:
    """Diagonal of L centred at site 0, by minimal-image distance."""
    j = np.arange(points)
    dist = np.minimum(j, points - j) * spacing
    g = (alpha / math.pi) ** 0.25 * np.exp(-0.5 * alpha * dist**2)
    g.setflags(write=False)
    return g


def gaussian_template(grid: Grid, alpha: float) -> np.ndarray:
    return _template(grid.points, grid.spacing, alpha)


def even_part(col: np.ndarray) -> np.ndarray:
    """(col[j] + col[-j mod M]) / 2, exactly even, so its circulant is exactly symmetric."""
    return 0.5 * (col + np.roll(col[::-1], 1))


def circulant(col: np.ndarray) -> np.ndarray:
    """The dense circulant with first column ``col``: out[q, p] = col[(q - p) mod M].

    Row q is the length-M window at offset M - 1 - q of ``col`` reversed
    followed by ``col[1:]`` reversed; entries are copied, never computed.
    """
    col = np.asarray(col)
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((col[::-1], col[:0:-1])), col.size
    )
    return windows[::-1].copy()


@lru_cache(maxsize=128)
def _g2_circulant(points: int, spacing: float, alpha: float) -> np.ndarray:
    g2 = _template(points, spacing, alpha) ** 2
    m = circulant(g2)  # symmetric: the template is even
    m.setflags(write=False)
    return m


def localization_operator(grid: Grid, alpha: float, center: float) -> Operator:
    """Gaussian localization operator centred at an on-grid coordinate."""
    k = grid.index_of(center)
    return Operator(np.diag(np.roll(gaussian_template(grid, alpha), k)))


# -- equivariant kernels ----------------------------------------------------


def _abs2(arr: np.ndarray) -> np.ndarray:
    return arr.real**2 + arr.imag**2


def _fsum_norm(vec: np.ndarray) -> float:
    return math.sqrt(math.fsum(_abs2(vec)))


def _circulant_matvec_fsum(col: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """out[q] = sum_p col[(q - p) mod M] vec[p], order-independent sums."""
    m = vec.size
    idx = np.arange(m)
    out = np.empty(m, dtype=complex)
    for q in range(m):
        terms = col[(q - idx) % m] * vec
        out[q] = complex(math.fsum(terms.real), math.fsum(terms.imag))
    return out


# -- jump law ----------------------------------------------------------------


def _position_weights(psi: StateVector, particle: int, grid: Grid) -> np.ndarray:
    k = psi.shape.validate_index(particle)
    if psi.shape.dims[k] != grid.points:
        raise ValueError(
            f"factor {k} has dim {psi.shape.dims[k]}, grid has {grid.points} points"
        )
    t = _abs2(psi.reshaped())
    axes = tuple(i for i in range(len(psi.shape.dims)) if i != k)
    return t.sum(axis=axes) if axes else t


def _raw_jump_table(
    psi: StateVector, particle: int, grid: Grid, params: GrwParams, equivariant: bool
) -> tuple[np.ndarray, float]:
    w = _position_weights(psi, particle, grid)
    g2 = gaussian_template(grid, params.alpha) ** 2
    if equivariant:
        raw = np.array(
            [math.fsum(np.roll(g2, k) * w) for k in range(grid.points)]
        ) * grid.spacing
        total = math.fsum(raw)
    else:
        raw = (_g2_circulant(grid.points, grid.spacing, params.alpha) @ w) * grid.spacing
        total = float(raw.sum())
    return raw, total


def jump_mass(psi: StateVector, particle: int, grid: Grid, params: GrwParams) -> float:
    """Pre-normalization total jump probability; 1 on an adequate grid."""
    return _raw_jump_table(psi, particle, grid, params, equivariant=False)[1]


def jump_density(
    psi: StateVector,
    particle: int,
    grid: Grid,
    params: GrwParams,
    *,
    equivariant: bool = False,
) -> np.ndarray:
    """Probability table over grid points for the next jump centre."""
    raw, total = _raw_jump_table(psi, particle, grid, params, equivariant)
    if abs(total - 1.0) > JUMP_MASS_HARD_LIMIT:
        raise GridAdequacyError(
            f"jump probability mass {total:.6f} deviates from 1 by more than "
            f"{JUMP_MASS_HARD_LIMIT}; grid cannot resolve the localization width"
        )
    return raw / total


def apply_jump(
    psi: StateVector,
    particle: int,
    center: float,
    grid: Grid,
    params: GrwParams,
    *,
    equivariant: bool = False,
) -> StateVector:
    """L(center) psi / ||L(center) psi||, acting on one particle only."""
    k = grid.index_of(center)
    gk = np.roll(gaussian_template(grid, params.alpha), k)
    axis = psi.shape.validate_index(particle)
    shape = [1] * len(psi.shape.dims)
    shape[axis] = grid.points
    arr = (psi.reshaped() * gk.reshape(shape)).reshape(-1)
    norm = _fsum_norm(arr) if equivariant else float(np.linalg.norm(arr))
    if norm < ZERO_NORM_FLOOR:
        raise ZeroNormError(f"jump at {center} hit a zero-probability centre")
    return StateVector(psi.shape, arr / norm)


def sample_jump_times(
    rates: Mapping[int, float], horizon: float, rng: np.random.Generator
) -> list[tuple[float, int]]:
    """Merged per-particle Poisson arrivals, sorted by time.

    Particle p's arrivals are an independent Poisson process of rate
    ``rates[p]`` (exponential inter-arrival times; a zero rate draws
    nothing).  The streams are consumed in ascending particle order and
    simultaneous arrivals keep that order, so the schedule is a
    deterministic function of the generator state.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    events: list[tuple[float, int]] = []
    for p in sorted(rates):
        if rates[p] == 0.0:
            continue
        t = 0.0
        while True:
            t += rng.exponential(1.0 / rates[p])
            if t >= horizon:
                break
            events.append((t, p))
    events.sort()
    return events


# -- Hamiltonians and propagation -------------------------------------------


def free_hamiltonian(grid: Grid, mass: float, hbar: float = 1.0) -> np.ndarray:
    """Kinetic energy p^2/2m on the periodic grid, as the first column of its circulant.

    H[q, p] = col[(q - p) mod M] is real symmetric because ``col`` is even
    (col[j] = col[M - j]); the M floats are returned read-only.
    """
    m = grid.points
    k = 2.0 * math.pi * np.fft.fftfreq(m, d=grid.spacing)
    energy = (hbar * k) ** 2 / (2.0 * mass)
    col = even_part(np.real(np.fft.ifft(energy)))
    col.setflags(write=False)
    return col


class Propagator:
    """Exact unitary advance exp(-i H tau / hbar) for the real symmetric
    circulant H with first column ``col``.

    H is diagonal in the discrete Fourier basis: its eigenvalues are the
    FFT of ``col``, so each advance is ``ifft(phases * fft(psi))`` in
    O(M log M), and the propagator keeps only the M real eigenvalues (in
    FFT order, not sorted).  ``advance_equivariant`` instead applies the
    propagator as an fsum circulant matvec with first column
    ``column(tau)``, which commutes bit-exactly with translations.
    Raises ConfigError for anything but a real 1-D column that is even,
    the condition for H to be symmetric.
    """

    def __init__(self, col: np.ndarray, hbar: float = 1.0):
        col = np.asarray(col)
        if col.ndim != 1 or np.iscomplexobj(col):
            raise ConfigError(f"the Hamiltonian must be the real first column of its circulant, "
                              f"got a {col.dtype} array of shape {col.shape}")
        defect = float(np.max(np.abs(col - np.roll(col[::-1], 1))))
        if not defect <= SPECTRAL_TOL:
            raise ConfigError(f"the Hamiltonian column is not even, so its circulant is not "
                              f"symmetric (defect {defect:.3e})")
        self.hbar = hbar
        self.eigenvalues = np.fft.fft(col).real
        self.max_energy = float(np.max(np.abs(self.eigenvalues)))

    def _phases(self, tau: float) -> np.ndarray:
        return np.exp(self.eigenvalues * (-1j * tau / self.hbar))

    def advance(self, amplitudes: np.ndarray, tau: float) -> np.ndarray:
        return np.fft.ifft(self._phases(tau) * np.fft.fft(amplitudes))

    def column(self, tau: float) -> np.ndarray:
        return np.fft.ifft(self._phases(tau))

    def advance_equivariant(self, amplitudes: np.ndarray, tau: float) -> np.ndarray:
        return _circulant_matvec_fsum(self.column(tau), amplitudes)


def _validate_step(dt: float, propagator: Propagator | None) -> None:
    if dt <= 0:
        raise StepConditionError("dt must be positive")
    if propagator is not None and propagator.max_energy > 0:
        limit = 0.01 * propagator.hbar / propagator.max_energy
        if dt > limit * (1 + 1e-12):
            raise StepConditionError(
                f"dt={dt} exceeds 0.01*hbar/max|E| = {limit:.3e} for this Hamiltonian"
            )


def evolve_trajectory(
    psi0: StateVector,
    propagator: Propagator | None,
    params: GrwParams,
    grid_map: Mapping[int, Grid],
    horizon: float,
    dt: float,
    rng: np.random.Generator,
    *,
    sample_times: Sequence[float] | None = None,
    rate_factors: Mapping[int, float] | None = None,
    equivariant: bool = False,
) -> Trajectory:
    """Run one stochastic realization up to ``horizon``.

    Between events the state is advanced by ``propagator`` (None for no
    Hamiltonian), whose circulant acts on the whole space; build it once
    and reuse it across calls.  At each Poisson jump time a
    centre is drawn from the jump density of the affected particle and
    the localization applied.  Jumps occur only on subsystems present
    in ``grid_map``; ``rate_factors`` scales the base rate per particle
    (used for pointer amplification, always explicit).

    Random stream consumption order: all jump times first (particles in
    ascending index order), then one uniform per jump in time order.
    """
    if abs(psi0.norm() - 1.0) > TRAJECTORY_NORM_TOL:
        raise ValueError("initial state must be normalized")
    for k, grid in grid_map.items():
        psi0.shape.validate_index(k)
        if psi0.shape.dims[k] != grid.points:
            raise ValueError(f"grid for subsystem {k} does not match its dimension")
    if propagator is not None and propagator.eigenvalues.size != psi0.shape.total_dim:
        raise ConfigError(f"the Hamiltonian column has {propagator.eigenvalues.size} entries, "
                          f"the state's total dimension is {psi0.shape.total_dim}")
    _validate_step(dt, propagator)

    if sample_times is None:
        n = max(1, int(math.ceil(horizon / dt - 1e-12)))
        times = list(np.linspace(0.0, horizon, n + 1))
    else:
        times = [float(t) for t in sample_times]
        if any(t < -1e-12 or t > horizon + 1e-12 for t in times) or sorted(times) != times:
            raise ValueError("sample times must be ascending within [0, horizon]")

    factors = rate_factors or {}
    rates = {p: params.lam * float(factors.get(p, 1.0)) for p in grid_map}
    # (time, kind 0=sample/1=jump, payload); samples go first at equal times
    schedule = [(t, 1, p) for t, p in sample_jump_times(rates, horizon, rng)]
    schedule += [(t, 0, -1) for t in times]
    schedule.sort(key=lambda e: (e[0], e[1]))

    single_factor = len(psi0.shape.dims) == 1
    amps = np.array(psi0.amplitudes, dtype=complex)
    now = 0.0
    jumps: list[JumpEvent] = []
    sampled: list[StateVector] = []

    def advance_to(t: float) -> None:
        nonlocal amps, now
        gap = t - now
        if propagator is not None and gap > 0:
            if equivariant and single_factor:
                amps = propagator.advance_equivariant(amps, gap)
            else:
                amps = propagator.advance(amps, gap)
        now = t

    for t, kind, payload in schedule:
        advance_to(t)
        if kind == 0:
            norm = _fsum_norm(amps) if equivariant else float(np.linalg.norm(amps))
            sampled.append(StateVector(psi0.shape, amps / norm))
        else:
            grid = grid_map[payload]
            state = StateVector(psi0.shape, amps)
            table = jump_density(state, payload, grid, params, equivariant=equivariant)
            u = rng.random()
            if equivariant:
                # a cumulative sum anchored at the argmax commutes with cyclic
                # translations of the table whenever the maximum is unique
                anchor = int(np.argmax(table))
                k = (anchor + draw_index(np.roll(table, -anchor), u)) % grid.points
            else:
                k = draw_index(table, u)
            center = grid.origin + k * grid.spacing
            amps = np.array(
                apply_jump(
                    state, payload, center, grid, params, equivariant=equivariant
                ).amplitudes
            )
            jumps.append(JumpEvent(t, payload, center))

    return Trajectory(tuple(sampled), tuple(jumps))


# -- state builders and diagnostics ------------------------------------------


def gaussian_packet(grid: Grid, center: float, width: float) -> StateVector:
    """Normalized packet with position spread ``width`` (minimal image)."""
    x = grid.coordinates()
    d = x - center
    d -= grid.length * np.round(d / grid.length)
    amps = np.exp(-(d**2) / (4.0 * (width * width))).astype(complex)
    norm = float(np.linalg.norm(amps))
    if not norm >= ZERO_NORM_FLOOR:  # zero, or NaN from a width that squares to 0
        raise GridAdequacyError(f"the grid cannot resolve a packet of width {width} at {center}")
    return StateVector(SubsystemShape((grid.points,)), amps / norm)


def superpose(states: Sequence[StateVector], amplitudes: Sequence[complex]) -> StateVector:
    acc = np.zeros_like(states[0].amplitudes)
    for s, a in zip(states, amplitudes):
        acc = acc + a * s.amplitudes
    return StateVector(states[0].shape, acc).normalize()


def two_peak_state(
    grid: Grid, centers: Sequence[float], weights: Sequence[float], width: float
) -> StateVector:
    """Superposition of packets with given probability weights."""
    packets = [gaussian_packet(grid, c, width) for c in centers]
    return superpose(packets, [math.sqrt(w) for w in weights])


def translate_state(psi: StateVector, particle: int, sites: int) -> StateVector:
    """Cyclically shift one factor by an integer number of grid sites."""
    axis = psi.shape.validate_index(particle)
    return StateVector(psi.shape, np.roll(psi.reshaped(), sites, axis=axis).reshape(-1))


def position_distribution(psi: StateVector, particle: int, grid: Grid) -> np.ndarray:
    return _position_weights(psi, particle, grid)


def position_mean(psi: StateVector, particle: int, grid: Grid) -> float:
    w = _position_weights(psi, particle, grid)
    return float(np.dot(w, grid.coordinates()) / w.sum())


def window_mass(psi: StateVector, particle: int, grid: Grid, center: float, halfwidth: float) -> float:
    """Probability mass within a minimal-image window around ``center``."""
    w = _position_weights(psi, particle, grid)
    d = grid.coordinates() - center
    d -= grid.length * np.round(d / grid.length)
    return float(w[np.abs(d) <= halfwidth].sum())
