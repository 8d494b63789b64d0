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

Trajectories are evolved in blocks (``evolve_block``): B realizations
as one complex (B, d) array, in event rounds.  In each round every row
takes its own next event.  Rows advance by their own gaps, with per-row
phases and one row-wise FFT pair.  Rows that jump get their jump tables
from one batched rfft/irfft circular convolution of |psi|^2 with g^2,
draw their centres by the inverse CDF of ``rng.draw_rows`` (the rule of
``rng.draw_index``, which starts at site 0, so a tie between maxima
cannot move the centre drawn for a given uniform), and are localized
and renormalized row by row.  Each row keeps its own random stream and
consumption order, every kernel acts on each row alone and names the
output of each binary operation, so a row's bits do not depend on B;
``BLOCK_BYTES`` bounds the (B, d) array.  There is one default code
path: ``evolve_trajectory`` is a one-row block, and ``jump_density``,
``jump_mass``, ``apply_jump`` and ``Propagator.advance`` run one row of
the block kernels.  No kernel calls BLAS: norms and sums are elementwise
products and ``np.sum``.

The ``equivariant`` mode runs one trajectory at a time, and all its
state updates commute bit-exactly with cyclic grid translations: norms
and inner sums use math.fsum (order-independent, correctly rounded),
the propagator is applied as an fsum circulant matvec, and jump centres
come from a cumulative table anchored at its argmax.  Translating the
initial state by s sites then reproduces the original trajectory
translated by s, for the same random stream.  The default mode has
identical statistics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, GridAdequacyError, StepConditionError, ZeroNormError
from .hilbert import MAX_TOTAL_DIM, SPECTRAL_TOL, Operator, StateVector, SubsystemShape
from .rng import draw_index, draw_rows
from .schema import NON_NEGATIVE, POSITIVE, check_fields, checked, integer

TRAJECTORY_NORM_TOL = 1e-9
JUMP_MASS_HARD_LIMIT = 1e-3
ZERO_NORM_FLOOR = 1e-14
# Bytes of one (B, d) complex array of an evolve_block block: B = 64 rows at
# d = 64, 16 at d = 256.  Larger blocks save little more per-event overhead but
# hold more memory: 512 rows raised the peak RSS of oracle-compare at M = 64,
# K = 10^4 from 50 to 57 MB.
BLOCK_BYTES = 64 * 2**10
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


def localization_operator(grid: Grid, alpha: float, center: float) -> Operator:
    """Gaussian localization operator centred at an on-grid coordinate."""
    k = grid.index_of(center)
    return Operator(np.diag(np.roll(gaussian_template(grid, alpha), k)))


# -- row kernels ---------------------------------------------------------------
#
# Each acts on every row of a C-contiguous complex (n, d) array on its own, and
# every binary operation names its output, so a row's bits do not depend on n.


def block_rows(dim: int) -> int:
    """Rows B of a block of dim-dimensional states: the (B, dim) array fits BLOCK_BYTES."""
    return max(1, BLOCK_BYTES // (np.dtype(complex).itemsize * dim))


def _abs2_rows(rows: np.ndarray) -> np.ndarray:
    """re^2 + im^2 of every amplitude, as a real (n, d) array."""
    flat = rows.view(np.float64)
    squares = np.multiply(flat, flat)
    return np.add(squares[:, 0::2], squares[:, 1::2])


def _row_norms(rows: np.ndarray) -> np.ndarray:
    flat = rows.view(np.float64)
    return np.sqrt(np.sum(np.multiply(flat, flat), axis=1))


def _normalize_rows(rows: np.ndarray, norms: np.ndarray) -> None:
    # multiplying by 1/norm is what dividing a complex array by a float does
    flat = rows.view(np.float64)
    np.multiply(flat, np.divide(1.0, norms)[:, None], out=flat)


def marginal_weights(rows: np.ndarray, shape: SubsystemShape, factor: int) -> np.ndarray:
    """Each row's probabilities over the basis of one factor: an (n, dims[factor]) array."""
    k = shape.validate_index(factor)
    t = _abs2_rows(rows).reshape((len(rows),) + shape.dims)
    axes = tuple(i + 1 for i in range(len(shape.dims)) if i != k)
    return np.sum(t, axis=axes) if axes else t


def mean_positions(weights: np.ndarray, grid: Grid) -> np.ndarray:
    """Mean coordinate of each row of (n, M) position weights."""
    moments = np.sum(np.multiply(weights, grid.coordinates()), axis=1)
    return np.divide(moments, np.sum(weights, axis=1))


def window_masses(weights: np.ndarray, grid: Grid, center: float, halfwidth: float) -> np.ndarray:
    """Each row's mass within a minimal-image window around ``center``."""
    d = grid.coordinates() - center
    d -= grid.length * np.round(d / grid.length)
    # compress keeps the rows C-contiguous, where a boolean index transposes them
    return np.sum(weights.compress(np.abs(d) <= halfwidth, axis=1), axis=1)


# -- equivariant kernels ----------------------------------------------------


def _fsum_norm(vec: np.ndarray) -> float:
    return math.sqrt(math.fsum(_abs2_rows(vec[None, :])[0]))


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
    return marginal_weights(psi.amplitudes[None, :], psi.shape, k)[0]


@lru_cache(maxsize=128)
def _g2_spectrum(points: int, spacing: float, alpha: float) -> np.ndarray:
    # g^2 is exactly even, so its DFT is real; the rounding residue is dropped
    spectrum = np.fft.rfft(_template(points, spacing, alpha) ** 2).real
    spectrum.setflags(write=False)
    return spectrum


def _raw_jump_tables(
    weights: np.ndarray, grid: Grid, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """raw[i, k] = sum_q g^2(k - q) weights[i, q] dx, and each row's total.

    The circular convolution is one batched rfft/irfft pair; an entry that
    rounding leaves below 0 is clipped, so each table is a distribution.
    """
    spectrum = np.fft.rfft(weights, axis=1)
    parts = spectrum.view(np.float64).reshape(spectrum.shape + (2,))
    np.multiply(parts, _g2_spectrum(grid.points, grid.spacing, alpha)[:, None], out=parts)
    raw = np.fft.irfft(spectrum, n=grid.points, axis=1)
    np.multiply(raw, grid.spacing, out=raw)
    np.maximum(raw, 0.0, out=raw)
    return raw, np.sum(raw, axis=1)


def _check_jump_mass(total: np.ndarray) -> None:
    bad = np.abs(np.subtract(total, 1.0)) > JUMP_MASS_HARD_LIMIT
    if bad.any():
        raise GridAdequacyError(
            f"jump probability mass {total[bad.argmax()]:.6f} deviates from 1 by more than "
            f"{JUMP_MASS_HARD_LIMIT}; grid cannot resolve the localization width"
        )


def _jump_tables(weights: np.ndarray, grid: Grid, params: GrwParams) -> np.ndarray:
    """Normalized jump tables, one per row of (n, M) position weights."""
    raw, total = _raw_jump_tables(weights, grid, params.alpha)
    _check_jump_mass(total)
    return np.divide(raw, total[:, None], out=raw)


def _localize(
    rows: np.ndarray, shape: SubsystemShape, particle: int, grid: Grid, alpha: float,
    sites: np.ndarray,
) -> None:
    """L(x_sites[i]) on ``particle`` of row i, then renormalize, in place."""
    m = grid.points
    g = _template(m, grid.spacing, alpha)[(np.arange(m) - sites[:, None]) % m]
    axis = shape.validate_index(particle) + 1
    across = [len(rows)] + [1] * (len(shape.dims) + 1)
    across[axis] = m
    parts = rows.view(np.float64).reshape((len(rows),) + shape.dims + (2,))
    np.multiply(parts, g.reshape(across), out=parts)
    norms = _row_norms(rows)
    zero = norms < ZERO_NORM_FLOOR
    if zero.any():
        center = grid.origin + int(sites[zero.argmax()]) * grid.spacing
        raise ZeroNormError(f"jump at {center} hit a zero-probability centre")
    _normalize_rows(rows, norms)


def jump_mass(psi: StateVector, particle: int, grid: Grid, params: GrwParams) -> float:
    """Pre-normalization total jump probability; 1 on an adequate grid."""
    w = _position_weights(psi, particle, grid)
    return float(_raw_jump_tables(w[None, :], grid, params.alpha)[1][0])


def jump_density(
    psi: StateVector,
    particle: int,
    grid: Grid,
    params: GrwParams,
    *,
    equivariant: bool = False,
) -> np.ndarray:
    """Probability table over grid points for the next jump centre."""
    w = _position_weights(psi, particle, grid)
    if not equivariant:
        return _jump_tables(w[None, :], grid, params)[0]
    g2 = gaussian_template(grid, params.alpha) ** 2
    raw = np.array([math.fsum(np.roll(g2, k) * w) for k in range(grid.points)]) * grid.spacing
    total = math.fsum(raw)
    _check_jump_mass(np.array([total]))
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
    if not equivariant:
        rows = np.array(psi.amplitudes)[None, :]
        _localize(rows, psi.shape, particle, grid, params.alpha, np.array([k]))
        return StateVector(psi.shape, rows[0])
    gk = np.roll(gaussian_template(grid, params.alpha), k)
    axis = psi.shape.validate_index(particle)
    shape = [1] * len(psi.shape.dims)
    shape[axis] = grid.points
    arr = (psi.reshaped() * gk.reshape(shape)).reshape(-1)
    norm = _fsum_norm(arr)
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
    FFT order, not sorted).  ``advance_rows`` advances each row of an
    (n, d) array by its own time; ``advance`` is its one-row case.
    ``advance_equivariant`` instead applies the propagator as an fsum
    circulant matvec with first column ``column(tau)``, which commutes
    bit-exactly with translations.  Raises ConfigError for anything but a
    real 1-D column that is even, the condition for H to be symmetric.
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

    def advance_rows(self, rows: np.ndarray, taus: np.ndarray) -> np.ndarray:
        """Row i of a complex (n, d) array advanced by ``taus[i]``."""
        # exp(0 + i theta) with theta = -(tau / hbar) E: the bits of _phases(tau)
        phases = np.zeros(rows.shape, dtype=complex)
        np.multiply(np.negative(np.divide(taus, self.hbar))[:, None], self.eigenvalues,
                    out=phases.imag)
        np.exp(phases, out=phases)
        spectrum = np.fft.fft(rows, axis=1)
        np.multiply(phases, spectrum, out=spectrum)
        return np.fft.ifft(spectrum, axis=1)

    def advance(self, amplitudes: np.ndarray, tau: float) -> np.ndarray:
        return self.advance_rows(np.asarray(amplitudes)[None, :], np.array([tau]))[0]

    def column(self, tau: float) -> np.ndarray:
        return np.fft.ifft(self._phases(tau))

    def advance_equivariant(self, amplitudes: np.ndarray, tau: float) -> np.ndarray:
        return _circulant_matvec_fsum(self.column(tau), amplitudes)


def validate_step(dt: float, propagator: Propagator | None) -> None:
    if dt <= 0:
        raise StepConditionError("dt must be positive")
    if propagator is not None and propagator.max_energy > 0:
        limit = 0.01 * propagator.hbar / propagator.max_energy
        if dt > limit * (1 + 1e-12):
            raise StepConditionError(
                f"dt={dt} exceeds 0.01*hbar/max|E| = {limit:.3e} for this Hamiltonian"
            )


# -- trajectories --------------------------------------------------------------


def _checked_sample_times(
    psi0: StateVector,
    propagator: Propagator | None,
    grid_map: Mapping[int, Grid],
    horizon: float,
    dt: float,
    sample_times: Sequence[float] | None,
) -> list[float]:
    """The sample times of a run, after the checks on its inputs."""
    if abs(psi0.norm() - 1.0) > TRAJECTORY_NORM_TOL:
        raise ValueError("initial state must be normalized")
    for k, grid in grid_map.items():
        psi0.shape.validate_index(k)
        if psi0.shape.dims[k] != grid.points:
            raise ValueError(f"grid for subsystem {k} does not match its dimension")
    if propagator is not None and propagator.eigenvalues.size != psi0.shape.total_dim:
        raise ConfigError(f"the Hamiltonian column has {propagator.eigenvalues.size} entries, "
                          f"the state's total dimension is {psi0.shape.total_dim}")
    validate_step(dt, propagator)
    if sample_times is None:
        n = max(1, int(math.ceil(horizon / dt - 1e-12)))
        return list(np.linspace(0.0, horizon, n + 1))
    times = [float(t) for t in sample_times]
    if any(t < -1e-12 or t > horizon + 1e-12 for t in times) or sorted(times) != times:
        raise ValueError("sample times must be ascending within [0, horizon]")
    return times


def _rates(
    params: GrwParams, grid_map: Mapping[int, Grid], rate_factors: Mapping[int, float] | None
) -> dict[int, float]:
    factors = rate_factors or {}
    return {p: params.lam * float(factors.get(p, 1.0)) for p in grid_map}


@dataclass(frozen=True)
class Block:
    """Realizations evolved together by ``evolve_block``, one per row.

    ``states[s, i]`` is row i's normalized state at its s-th kept sample
    time.  Row i's jumps are the first ``n_jumps[i]`` entries of row i of
    ``jump_times``, ``jump_particles`` and ``jump_centres``.
    """

    states: np.ndarray
    n_jumps: np.ndarray
    jump_times: np.ndarray
    jump_particles: np.ndarray
    jump_centres: np.ndarray

    def jumps(self, row: int) -> tuple[JumpEvent, ...]:
        n = self.n_jumps[row]
        return tuple(
            JumpEvent(float(t), int(p), float(c))
            for t, p, c in zip(self.jump_times[row, :n], self.jump_particles[row, :n],
                               self.jump_centres[row, :n])
        )


def evolve_block(
    psi0: StateVector,
    propagator: Propagator | None,
    params: GrwParams,
    grid_map: Mapping[int, Grid],
    horizon: float,
    dt: float,
    rngs: Sequence[np.random.Generator],
    *,
    sample_times: Sequence[float] | None = None,
    rate_factors: Mapping[int, float] | None = None,
    final_only: bool = False,
) -> Block:
    """Run one stochastic realization per generator in ``rngs``, all from ``psi0``.

    The arguments mean what they mean for ``evolve_trajectory``; row i
    is the realization that ``evolve_trajectory`` runs on ``rngs[i]``.
    With ``final_only`` only the state at the last sample time is kept.

    The rows form one complex (B, d) array, evolved in event rounds: in
    each round every row takes its own next event.  Rows advance by their
    own gaps; samples are normalized copies; rows that jump draw their
    centres from batched jump tables and are localized row by row.
    """
    times = _checked_sample_times(psi0, propagator, grid_map, horizon, dt, sample_times)
    rates = _rates(params, grid_map, rate_factors)
    n, shape = len(rngs), psi0.shape

    # each row's stream: all its jump times first, then one uniform per jump
    schedules = [sample_jump_times(rates, horizon, rng) for rng in rngs]
    n_jumps = np.array([len(s) for s in schedules], dtype=int)
    width = int(n_jumps.max(initial=0)) + 1  # every row ends in an +inf jump time
    jump_times = np.full((n, width), np.inf)
    jump_particles = np.full((n, width), -1)
    jump_centres = np.zeros((n, width))
    uniforms = np.zeros((n, width))
    for i, (schedule, rng) in enumerate(zip(schedules, rngs)):
        if schedule:
            jump_times[i, :len(schedule)], jump_particles[i, :len(schedule)] = zip(*schedule)
            uniforms[i, :len(schedule)] = rng.random(len(schedule))

    sample_at = np.append(np.array(times, dtype=float), np.inf)
    last = len(times) - 1
    states = np.empty((min(1, len(times)) if final_only else len(times), n, shape.total_dim),
                      dtype=complex)
    amps = np.repeat(np.array(psi0.amplitudes)[None, :], n, axis=0)
    now = np.zeros(n)
    next_jump = np.zeros(n, dtype=int)
    next_sample = np.zeros(n, dtype=int)
    every = np.arange(n)
    while True:
        t_jump = jump_times[every, next_jump]
        t_sample = sample_at[next_sample]
        sampling = t_sample <= t_jump  # a sample goes before a jump at the same time
        t = np.where(sampling, t_sample, t_jump)
        live = t < np.inf
        if not live.any():
            break
        if propagator is not None:
            gap = np.subtract(t, now)
            moving = np.flatnonzero(live & (gap > 0))
            if moving.size:
                amps[moving] = propagator.advance_rows(amps[moving], gap[moving])
        np.copyto(now, t, where=live)

        rows = np.flatnonzero(live & sampling)
        slots = next_sample[rows]
        next_sample[rows] += 1
        if final_only:
            rows = rows[slots == last]
            slots = np.zeros_like(rows)
        if rows.size:
            picked = amps[rows]
            _normalize_rows(picked, _row_norms(picked))
            states[slots, rows] = picked

        jumping = np.flatnonzero(live & ~sampling)
        columns = next_jump[jumping]
        particles = jump_particles[jumping, columns]
        next_jump[jumping] += 1
        for p, grid in grid_map.items():
            mine = particles == p
            if not mine.any():
                continue
            rows, cols = jumping[mine], columns[mine]
            picked = amps[rows]
            tables = _jump_tables(marginal_weights(picked, shape, p), grid, params)
            sites = draw_rows(tables, uniforms[rows, cols])
            _localize(picked, shape, p, grid, params.alpha, sites)
            amps[rows] = picked
            jump_centres[rows, cols] = grid.origin + sites * grid.spacing

    return Block(states, n_jumps, jump_times, jump_particles, jump_centres)


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
    (used for pointer amplification, always explicit).  Without
    ``sample_times`` the state is sampled every ``dt`` from 0.

    Random stream consumption order: all jump times first (particles in
    ascending index order), then one uniform per jump in time order.
    The default mode is a one-row ``evolve_block``.
    """
    if equivariant:
        return _evolve_equivariant(psi0, propagator, params, grid_map, horizon, dt, rng,
                                   sample_times, rate_factors)
    block = evolve_block(psi0, propagator, params, grid_map, horizon, dt, [rng],
                         sample_times=sample_times, rate_factors=rate_factors)
    return Trajectory(tuple(StateVector(psi0.shape, s[0]) for s in block.states), block.jumps(0))


def _evolve_equivariant(
    psi0: StateVector,
    propagator: Propagator | None,
    params: GrwParams,
    grid_map: Mapping[int, Grid],
    horizon: float,
    dt: float,
    rng: np.random.Generator,
    sample_times: Sequence[float] | None,
    rate_factors: Mapping[int, float] | None,
) -> Trajectory:
    times = _checked_sample_times(psi0, propagator, grid_map, horizon, dt, sample_times)
    rates = _rates(params, grid_map, rate_factors)
    # (time, kind 0=sample/1=jump, payload); samples go first at equal times
    schedule = [(t, 1, p) for t, p in sample_jump_times(rates, horizon, rng)]
    schedule += [(t, 0, -1) for t in times]
    schedule.sort(key=lambda e: (e[0], e[1]))

    single_factor = len(psi0.shape.dims) == 1
    amps = np.array(psi0.amplitudes, dtype=complex)
    now = 0.0
    jumps: list[JumpEvent] = []
    sampled: list[StateVector] = []
    for t, kind, payload in schedule:
        gap = t - now
        if propagator is not None and gap > 0:
            if single_factor:
                amps = propagator.advance_equivariant(amps, gap)
            else:
                amps = propagator.advance(amps, gap)
        now = t
        if kind == 0:
            sampled.append(StateVector(psi0.shape, amps / _fsum_norm(amps)))
            continue
        grid = grid_map[payload]
        state = StateVector(psi0.shape, amps)
        table = jump_density(state, payload, grid, params, equivariant=True)
        # a cumulative sum anchored at the argmax commutes with cyclic
        # translations of the table whenever the maximum is unique
        anchor = int(np.argmax(table))
        k = (anchor + draw_index(np.roll(table, -anchor), rng.random())) % grid.points
        center = grid.origin + k * grid.spacing
        amps = np.array(
            apply_jump(state, payload, center, grid, params, equivariant=True).amplitudes
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
    return float(mean_positions(w[None, :], grid)[0])


def window_mass(psi: StateVector, particle: int, grid: Grid, center: float, halfwidth: float) -> float:
    """Probability mass within a minimal-image window around ``center``."""
    w = _position_weights(psi, particle, grid)
    return float(window_masses(w[None, :], grid, center, halfwidth)[0])
