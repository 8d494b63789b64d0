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

Trajectories are evolved in windows (``evolve_block``).  A window draws
the jump schedules of all its trials first, in batches of B trials, and
stably sorts the trials by event count.  Blocks of B sorted trials then
run as one complex (B, d) array, in event rounds: in each round every
row takes its own next event, and a block runs as many rounds as its
busiest row, so blocks of like trials run fewer rounds.  Rows advance by
their own gaps, with per-row phases and one row-wise FFT pair computed
in place.  Rows that jump get their jump tables from one batched
rfft/irfft circular convolution of |psi|^2 with g^2, draw their centres
by the inverse CDF of ``rng.draw_rows`` (which starts at site 0, so a
tie between maxima cannot move the centre drawn for a given uniform),
and are localized and renormalized row by row.  Each row's states go to
its trial's slot, so the caller sees the trials in its own order.  Every
draw of a row is addressed by its (seed, trial, index, tag), every
kernel acts on each row alone and names the output of each binary
operation, so a row's bits depend neither on B nor on the rows it is
evolved with.  ``block_rows`` sizes a block at 64 rows or 256 KiB of the
(B, d) array, whichever is more, so the fixed cost of a round is shared
by at least 64 rows.  There is one default code path:
``evolve_trajectory`` is a one-trial window, and ``jump_density``,
``jump_mass``, ``apply_jump`` and ``Propagator.advance`` run one row of
the block kernels.  No kernel calls BLAS: norms and sums are elementwise
products and ``np.sum``.

The ``equivariant`` mode runs one trajectory at a time, and all its
state updates commute bit-exactly with cyclic grid translations: norms
and inner sums use math.fsum (order-independent, correctly rounded),
the propagator is applied as an fsum circulant matvec, and jump centres
come from a cumulative table anchored at its argmax.  Translating the
initial state by s sites then reproduces the original trajectory
translated by s, for the same seed and trial.  The default mode has
identical statistics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigError, GridAdequacyError, StepConditionError, ZeroNormError
from .hilbert import MAX_TOTAL_DIM, SPECTRAL_TOL, Operator, StateVector, SubsystemShape
from .rng import JUMPS, draw_rows, uniforms
from .schema import NON_NEGATIVE, POSITIVE, check_fields, checked, integer

TRAJECTORY_NORM_TOL = 1e-9
JUMP_MASS_HARD_LIMIT = 1e-3
ZERO_NORM_FLOOR = 1e-14
# A block of evolve_block holds at least BLOCK_MIN_ROWS rows and at least
# BLOCK_BYTES in its (B, d) complex array: B = 1024 at d = 16, 256 at d = 64 and
# 64 for every d >= 256.  Each event round costs a roughly fixed number of ufunc
# and FFT calls, and a block takes as many rounds as its busiest row: an
# oracle-compare at M = 64, K = 10^4 (seed 1) ran 2345 rounds in 64-row blocks of
# trials in trial order and runs 411 in 256-row blocks sorted by event count.
# Its peak RSS is no higher than with 64-row blocks (a block's states go
# straight to the caller's array); 512 KiB blocks would raise it by 0.4 MB.
BLOCK_MIN_ROWS = 64
BLOCK_BYTES = 256 * 2**10
# Rows per call of a row kernel that allocates temporaries (gathers, phases,
# squares, jump tables): whatever B is, a block holds one (B, d) array of
# amplitudes and temporaries of at most KERNEL_ROWS rows.
KERNEL_ROWS = 64
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


@lru_cache(maxsize=128)
def _shifted_templates(points: int, spacing: float, alpha: float) -> np.ndarray:
    """Row j is the template shifted to centre (points - j) mod points: a
    read-only (points, points) view of the template repeated twice."""
    g = _template(points, spacing, alpha)
    return np.lib.stride_tricks.sliding_window_view(np.concatenate((g, g)), points)[:points]


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


def _pieces(n: int) -> Iterator[slice]:
    """Rows 0 .. n - 1 in slices of KERNEL_ROWS."""
    return (slice(start, start + KERNEL_ROWS) for start in range(0, n, KERNEL_ROWS))


def block_rows(dim: int) -> int:
    """Rows B of a block of dim-dimensional states: BLOCK_MIN_ROWS, or as many
    as fill BLOCK_BYTES of the (B, dim) array if that is more."""
    return max(BLOCK_MIN_ROWS, BLOCK_BYTES // (np.dtype(complex).itemsize * dim))


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
    g = _shifted_templates(m, grid.spacing, alpha)[np.subtract(m, sites) % m]
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
    rates: Mapping[int, float], horizon: float, seed: int, trials: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Merged per-particle Poisson arrivals of each trial, sorted by time,
    each with the uniform that draws its centre.

    Particle p's arrivals are a Poisson process of rate ``rates[p]``: for
    its k-th arrival, draw 2k of tag ``rng.JUMPS + p`` gives the gap
    -log1p(-u) / rate before it and draw 2k + 1 its centre uniform.  They
    are drawn in rounds over the trials still short of the horizon;
    simultaneous arrivals keep ascending particle order.  Returns the jump
    counts and (n, max count + 1) arrays of times (+inf after the last),
    particles (-1 after the last) and centre uniforms, row i for
    ``trials[i]``.
    """
    n_jumps, *events = _jump_events(rates, horizon, seed, trials)
    return (n_jumps, *_schedule_rows(n_jumps, np.cumsum(n_jumps) - n_jumps, events))


def _jump_events(
    rates: Mapping[int, float], horizon: float, seed: int, trials: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The arrivals of ``sample_jump_times`` as the jump counts and, trial
    after trial and in time order within a trial, each jump's time, particle
    and centre uniform."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    trials, n = np.asarray(trials), len(trials)
    kind = np.min_scalar_type(-1 - max(rates, default=0))  # holds every particle and -1
    events = [(np.zeros(0, dtype=int), np.zeros(0), np.zeros(0, dtype=kind), np.zeros(0))]
    for p in sorted(rates):
        if rates[p] == 0.0:
            continue
        mean = rates[p] * horizon
        # arrivals per round: nearly every trial passes the horizon in the first
        size = 4 * math.ceil(min(mean / 4 + math.sqrt(mean) + 1, 2**10))
        live, now, start = np.arange(n), np.zeros((n, 1)), 0
        while live.size:
            u = uniforms(seed, trials[live], JUMPS + p, start + 2 * size, start)
            gaps = -np.log1p(-u[:, 0::2])
            # a running sum from each row's last arrival, so rounds do not move its bits
            t = np.cumsum(np.concatenate((now, gaps / rates[p]), axis=1), axis=1)[:, 1:]
            r, c = np.nonzero(t < horizon)
            events.append((live[r], t[r, c], np.full(r.size, p, dtype=kind), u[r, 2 * c + 1]))
            short = t[:, -1] < horizon
            live, now, start = live[short], t[short, -1:], start + 2 * size
    rows, times, particles, centres = (np.concatenate(x) for x in zip(*events))
    order = np.lexsort((particles, times, rows))
    return np.bincount(rows, minlength=n), times[order], particles[order], centres[order]


def _schedule_rows(
    counts: np.ndarray, starts: np.ndarray, events: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The padded schedule of the trials whose ``counts[i]`` jumps are entries
    ``starts[i]`` on of the ``_jump_events`` arrays ``events``: (n, max count
    + 1) arrays of times (+inf after the last), particles (-1 after the last)
    and centre uniforms."""
    columns = np.arange(int(counts.max(initial=0)) + 1)  # every row ends in an +inf time
    held = columns < counts[:, None]
    index = np.add(starts[:, None], columns)[held]
    tables = (np.full(held.shape, np.inf), np.full(held.shape, -1, dtype=events[1].dtype),
              np.zeros(held.shape))
    for table, values in zip(tables, events):
        table[held] = values[index]
    return tables


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

    def advance_rows(
        self, rows: np.ndarray, taus: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Row i of a complex (n, d) array advanced by ``taus[i]``, written to
        ``out`` (which may be ``rows`` itself, for an advance in place) or to a
        new array.  The transforms write their output in place and the phases
        are applied KERNEL_ROWS rows at a time, so the only temporary is a
        (KERNEL_ROWS, d) array of phases."""
        spectrum = np.fft.fft(rows, axis=1, out=out)
        for piece in _pieces(len(spectrum)):
            part = spectrum[piece]
            # exp(0 + i theta) with theta = -(tau / hbar) E: the bits of _phases(tau)
            phases = np.zeros(part.shape, dtype=complex)
            np.multiply(np.negative(np.divide(taus[piece], self.hbar))[:, None],
                        self.eigenvalues, out=phases.imag)
            np.exp(phases, out=phases)
            np.multiply(phases, part, out=part)
        return np.fft.ifft(spectrum, axis=1, out=spectrum)

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
    time.  ``jump_times``, ``jump_particles`` and ``jump_centres`` list
    every jump, row after row and in time order within a row: row i's
    ``n_jumps[i]`` jumps follow those of rows 0 .. i - 1.  ``rounds`` is
    the number of event rounds the blocks of the window ran.
    """

    states: np.ndarray
    n_jumps: np.ndarray
    jump_times: np.ndarray
    jump_particles: np.ndarray
    jump_centres: np.ndarray
    rounds: int

    def jumps(self, row: int) -> tuple[JumpEvent, ...]:
        mine = slice(int(np.sum(self.n_jumps[:row])), int(np.sum(self.n_jumps[:row + 1])))
        return tuple(
            JumpEvent(float(t), int(p), float(c))
            for t, p, c in zip(self.jump_times[mine], self.jump_particles[mine],
                               self.jump_centres[mine])
        )


def _window_events(
    rates: Mapping[int, float], horizon: float, seed: int, trials: Sequence[int], batch: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``_jump_events`` of ``trials``, drawn in batches of at most ``batch``
    trials: a batch's draws peak at a few arrays of its own size."""
    parts = [_jump_events(rates, horizon, seed, trials[start:start + batch])
             for start in range(0, len(trials), batch) or [0]]
    return tuple(np.concatenate(x) for x in zip(*parts))


def evolve_block(
    psi0: StateVector,
    propagator: Propagator | None,
    params: GrwParams,
    grid_map: Mapping[int, Grid],
    horizon: float,
    dt: float,
    seed: int,
    trials: Sequence[int],
    *,
    sample_times: Sequence[float] | None = None,
    rate_factors: Mapping[int, float] | None = None,
    final_only: bool = False,
    out: np.ndarray | None = None,
) -> Block:
    """Run one stochastic realization per trial in ``trials``, all from ``psi0``.

    The arguments mean what they mean for ``evolve_trajectory``; row i
    is the realization that ``evolve_trajectory`` runs for trial
    ``trials[i]`` of ``seed``.  With ``final_only`` only the state at
    the last sample time is kept.  The states go to a new (kept samples,
    n, d) array, or to the first n rows of ``out``, a complex (kept
    samples, >= n, d) array, and ``Block.states`` is that view.

    The trials form one window.  Their jump schedules are drawn once, in
    batches of B = ``block_rows(d)`` trials, and the trials are stably
    sorted by event count (every trial has the same samples, so by jump
    count).  Each run of B sorted trials is one block, evolved by
    ``_evolve_rows`` into its trials' slots.
    """
    times = _checked_sample_times(psi0, propagator, grid_map, horizon, dt, sample_times)
    rates = _rates(params, grid_map, rate_factors)
    rows = block_rows(psi0.shape.total_dim)
    n_jumps, *events = _window_events(rates, horizon, seed, trials, rows)
    starts = np.cumsum(n_jumps) - n_jumps
    n = len(n_jumps)
    # a block copies its rows' centre uniforms first, so each becomes the centre it draws
    jump_centres = events[2]
    kept = min(1, len(times)) if final_only else len(times)
    if out is None:
        out = np.empty((kept, n, psi0.shape.total_dim), dtype=complex)
    states = out[:, :n]
    sample_at = np.append(np.array(times, dtype=float), np.inf)
    order = np.argsort(n_jumps, kind="stable")
    rounds = 0
    for start in range(0, n, rows):
        slots = order[start:start + rows]
        schedule = _schedule_rows(n_jumps[slots], starts[slots], events)
        rounds += _evolve_rows(psi0, propagator, params, grid_map, sample_at, len(times) - kept,
                               schedule, slots, starts[slots], states, jump_centres)
    return Block(states, n_jumps, events[0], events[1], jump_centres, rounds)


def _evolve_rows(
    psi0: StateVector, propagator: Propagator | None, params: GrwParams,
    grid_map: Mapping[int, Grid], sample_at: np.ndarray, first_kept: int,
    schedule: tuple[np.ndarray, np.ndarray, np.ndarray], slots: np.ndarray,
    starts: np.ndarray, states: np.ndarray, jump_centres: np.ndarray,
) -> int:
    """Evolve one block and return the event rounds it ran.

    Row i starts at ``psi0`` and runs row i of the padded ``schedule``
    (``_schedule_rows``).  Its states at the sample times ``sample_at``
    (+inf last), from the ``first_kept``-th on, go to
    ``states[:, slots[i]]``, and its k-th jump centre to
    ``jump_centres[starts[i] + k]``.  A round where every row moves
    advances the block in place; otherwise the moving rows are gathered.
    """
    shape = psi0.shape
    jump_times, jump_particles, centre_draws = schedule
    n = len(slots)
    amps = np.repeat(np.array(psi0.amplitudes)[None, :], n, axis=0)
    now = np.zeros(n)
    next_jump = np.zeros(n, dtype=int)
    next_sample = np.zeros(n, dtype=int)
    every = np.arange(n)
    rounds = 0
    while True:
        t_jump = jump_times[every, next_jump]
        t_sample = sample_at[next_sample]
        sampling = t_sample <= t_jump  # a sample goes before a jump at the same time
        t = np.where(sampling, t_sample, t_jump)
        live = t < np.inf
        if not live.any():
            return rounds
        rounds += 1
        if propagator is not None:
            gap = np.subtract(t, now)
            moving = live & (gap > 0)
            if moving.all():
                propagator.advance_rows(amps, gap, out=amps)
            else:
                moved = np.flatnonzero(moving)
                for piece in _pieces(moved.size):
                    rows = moved[piece]
                    picked = amps[rows]
                    amps[rows] = propagator.advance_rows(picked, gap[rows], out=picked)
        np.copyto(now, t, where=live)

        rows = np.flatnonzero(live & sampling)
        kept = next_sample[rows] - first_kept
        next_sample[rows] += 1
        rows, kept = rows[kept >= 0], kept[kept >= 0]
        for piece in _pieces(rows.size):
            picked = amps[rows[piece]]
            _normalize_rows(picked, _row_norms(picked))
            states[kept[piece], slots[rows[piece]]] = picked

        jumping = np.flatnonzero(live & ~sampling)
        columns = next_jump[jumping]
        particles = jump_particles[jumping, columns]
        next_jump[jumping] += 1
        for p, grid in grid_map.items():
            mine = particles == p
            p_rows, p_cols = jumping[mine], columns[mine]
            for piece in _pieces(p_rows.size):
                rows, cols = p_rows[piece], p_cols[piece]
                picked = amps[rows]
                tables = _jump_tables(marginal_weights(picked, shape, p), grid, params)
                sites = draw_rows(tables, centre_draws[rows, cols])
                _localize(picked, shape, p, grid, params.alpha, sites)
                amps[rows] = picked
                jump_centres[starts[rows] + cols] = grid.origin + sites * grid.spacing


def evolve_trajectory(
    psi0: StateVector,
    propagator: Propagator | None,
    params: GrwParams,
    grid_map: Mapping[int, Grid],
    horizon: float,
    dt: float,
    seed: int,
    trial: int,
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

    Random draws: the realization is trial ``trial`` of master seed
    ``seed`` (``rng``).  For particle p's k-th jump, draw 2k of tag
    ``rng.JUMPS + p`` gives the gap before it (inverse-CDF exponential)
    and draw 2k + 1 its centre (``sample_jump_times``).  Both modes use
    the same draws; the default mode is a one-trial ``evolve_block``.
    """
    if equivariant:
        return _evolve_equivariant(psi0, propagator, params, grid_map, horizon, dt, seed,
                                   trial, sample_times, rate_factors)
    block = evolve_block(psi0, propagator, params, grid_map, horizon, dt, seed, [trial],
                         sample_times=sample_times, rate_factors=rate_factors)
    return Trajectory(tuple(StateVector(psi0.shape, s[0]) for s in block.states), block.jumps(0))


def _evolve_equivariant(
    psi0: StateVector, propagator: Propagator | None, params: GrwParams,
    grid_map: Mapping[int, Grid], horizon: float, dt: float, seed: int, trial: int,
    sample_times: Sequence[float] | None, rate_factors: Mapping[int, float] | None,
) -> Trajectory:
    times = _checked_sample_times(psi0, propagator, grid_map, horizon, dt, sample_times)
    rates = _rates(params, grid_map, rate_factors)
    n_jumps, jump_times, jump_particles, centre_draws = sample_jump_times(
        rates, horizon, seed, [trial])
    count = int(n_jumps[0])
    # (time, kind 0=sample/1=jump, payload); samples go first at equal times
    schedule = [(t, 1, p) for t, p in zip(jump_times[0, :count].tolist(),
                                          jump_particles[0, :count].tolist())]
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
        u = centre_draws[:, len(jumps)]
        k = (anchor + int(draw_rows(np.roll(table, -anchor)[None, :], u)[0])) % grid.points
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
    unresolved = f"the grid cannot resolve a packet of width {width} at {center}"
    spread = 4.0 * (width * width)
    if not spread > 0.0:  # the width squares to 0
        raise GridAdequacyError(unresolved)
    with np.errstate(over="ignore"):  # a site far out in widths: exp(-inf) = 0
        amps = np.exp(-(d**2) / spread).astype(complex)
    norm = float(np.linalg.norm(amps))
    if not norm >= ZERO_NORM_FLOOR:  # narrower than the spacing, between grid points
        raise GridAdequacyError(unresolved)
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
