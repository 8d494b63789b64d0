"""Stochastic localization dynamics on periodic 1D grids.

Each particle assigned to a grid undergoes Poisson-timed localization
jumps between stretches of exact unitary evolution.  The localization
operator centred at grid point x is diagonal in position with entries

    L(x)|q> = (alpha/pi)^(1/4) exp(-alpha/2 * d(q, x)^2) |q>

where d is the minimal-image periodic distance; the 1D prefactor makes
the completeness sum  sum_k L(x_k)^2 dx = 1  hold on an adequate grid
(alpha*dx^2 <= 0.1 and extent >= 10/sqrt(alpha)).

Jump centres follow p(x_k) = ||L(x_k) psi||^2 dx, the circular
convolution of the position weights w = |psi|^2 with g^2, g being the
diagonal of L(0).  A centre is a site j drawn from w by the inverse CDF
of ``rng.draw_rows`` (which starts at site 0, so a tie between maxima
cannot move the site drawn for a given uniform) plus an offset o drawn
from one cached cumulative table of g^2 per grid, mod M
(``_draw_centres``).  A grid whose sum g^2 dx, the mass of p, is off 1
by more than 1e-3 raises GridAdequacyError at its first jump.

Between events the state evolves under the free kinetic Hamiltonian,
which is circulant on the periodic grid and therefore diagonal in the
discrete Fourier basis.  It is passed around as its first column (M
floats, from ``free_hamiltonian``), never as a dense matrix.
``Propagator`` reads its spectrum off the FFT of that column and
advances a state by one FFT, a phase multiply and one inverse FFT.

Trajectories are evolved in windows (``evolve_block``).  A window draws
the jump schedules of all its trials first, in batches of
``block_rows(d)`` trials, and stably sorts the trials by event count.
Blocks of B sorted trials then run in event rounds: in each round every
row takes its own next event, and a block runs as many rounds as its
busiest row, so blocks of like trials run fewer rounds.  Rows that jump
draw their centres and are localized and renormalized row by row.  Each
row's states go to its trial's slot, so the caller sees the trials in
its own order.  Every draw of a row is addressed by its (seed, trial,
index, tag), every kernel acts on each row alone and names the output
of each binary operation, so a row's bits depend neither on B nor on
the rows it is evolved with.

Three engines run on that one event loop (``_evolve_rows``), and the
input picks the engine.  With a propagator a block is one complex
(B, d) array of amplitudes (``_Amplitudes``): rows advance by their own
gaps, with per-row phases and one row-wise FFT pair computed in place,
and gathered rows are handled KERNEL_ROWS at a time.  Without one every
event is a localization, and localizations are diagonal in position and
commute, so row i's state is psi0 times a real multiplier F_p[i], an
M-vector, along each localized factor p (``_Multipliers``).  A jump on p
draws its site from the weights F_p^2 W_p, where W_p is |psi0|^2
contracted with the other factors' F^2 (one fixed M-vector when p is
the only localized factor), and multiplies F_p by g / ||.||, the norm
taken with the same weights.  Complex amplitudes are formed only at
sample times, KERNEL_ROWS rows at a time.  ``block_rows`` sizes a block
at 64 rows or 256 KiB of what a round touches, whichever is more: the
(B, d) amplitudes, or B rows of M floats per localized factor.
``evolve_trajectory`` is a one-trial window, and ``apply_jump`` and
``Propagator.advance`` run one row of the amplitude kernels.  No kernel
calls BLAS: norms and sums are elementwise products, ``np.sum`` and
``math.fsum``.  ``jump_density`` is the reference law that the centre
draw samples, one dense circular sum, and no run calls it.

The third engine (``_Equivariant``) holds one row whose state updates
commute bit-exactly with cyclic grid translations, and
``evolve_equivariant`` runs one trial on it: norms and inner sums use
math.fsum (order-independent, correctly rounded), the propagator is
applied as an fsum circulant matvec on a single grid factor, and a jump
site comes from a cumulative sum of the weights anchored at a maximum (of
tied maxima, the one whose rotation of the weights is lexicographically
greatest).  Unless the weights are periodic, translating the initial
state by s sites then reproduces the original trajectory translated by s,
for the same seed and trial.  It takes the same jump times as
``evolve_block``, from the same loop, and has the same statistics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterator, Mapping, Sequence

import numpy as np

from .configs import GRID_POINTS
from .errors import ConfigError, GridAdequacyError, StepConditionError, ZeroNormError
from .hilbert import SPECTRAL_TOL, StateVector, SubsystemShape
from .rng import JUMPS, OFFSETS, draw_rows, uniforms
from .schema import NON_NEGATIVE, POSITIVE, check_fields, checked

TRAJECTORY_NORM_TOL = 1e-9
JUMP_MASS_HARD_LIMIT = 1e-3
ZERO_NORM_FLOOR = 1e-14
# A block of evolve_block holds at least BLOCK_MIN_ROWS rows and at least
# BLOCK_BYTES in the array a round touches.  With a propagator that is the
# (B, d) complex amplitudes: B = 1024 at d = 16, 256 at d = 64 and 64 for every
# d >= 256.  Without one it is B rows of real multipliers, M floats per localized
# factor: B = 512 at M = 64.  Each event round costs a roughly fixed number of
# ufunc and FFT calls, and a block takes as many rounds as its busiest row: a
# free-H oracle-compare at M = 64, K = 10^4 (seed 1) ran 2345 rounds in 64-row
# blocks of trials in trial order and runs 411 in 256-row blocks sorted by event
# count; a serial epr --trials 4000 --seed 1 ran 1759 in 64-row blocks of
# amplitudes and runs 332 in one 512-row block of multipliers per window.
# Peak RSS is no higher than with 64-row blocks (a block's states go straight
# to the caller's array); 512 KiB blocks of amplitudes would raise it by 0.4 MB.
BLOCK_MIN_ROWS = 64
BLOCK_BYTES = 256 * 2**10
# Rows per call of a row kernel that allocates complex temporaries (gathers,
# phases, squares, position weights; amplitudes formed from multipliers): whatever B
# is, a block holds its (B, d) amplitudes or (B, M) multipliers, and complex
# temporaries of at most KERNEL_ROWS rows.
KERNEL_ROWS = 64


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


# -- row kernels ---------------------------------------------------------------
#
# Each acts on every row of a C-contiguous complex (n, d) array on its own, and
# every binary operation names its output, so a row's bits do not depend on n.


def _pieces(n: int) -> Iterator[slice]:
    """Rows 0 .. n - 1 in slices of KERNEL_ROWS."""
    return (slice(start, start + KERNEL_ROWS) for start in range(0, n, KERNEL_ROWS))


def block_rows(dim: int, itemsize: int = np.dtype(complex).itemsize) -> int:
    """Rows B of a block whose rows hold ``dim`` numbers of ``itemsize`` bytes
    (complex amplitudes by default): BLOCK_MIN_ROWS, or as many as fill
    BLOCK_BYTES of the (B, dim) array if that is more."""
    return max(BLOCK_MIN_ROWS, BLOCK_BYTES // (itemsize * dim))


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
    """Each row's probabilities over the basis of one factor: an (n, dims[factor])
    array, computed KERNEL_ROWS rows at a time."""
    return factor_marginals(rows, shape, [factor])[0]


def factor_marginals(
    rows: np.ndarray, shape: SubsystemShape, factors: Sequence[int]
) -> list[np.ndarray]:
    """``marginal_weights`` of each of ``factors``, in order, with each
    KERNEL_ROWS piece of rows squared once for all of them."""
    ks = [shape.validate_index(k) for k in factors]
    outs = [np.empty((len(rows), shape.dims[k])) for k in ks]
    for piece in _pieces(len(rows)):
        t = _abs2_rows(rows[piece]).reshape((-1,) + shape.dims)
        for k, out in zip(ks, outs):
            axes = tuple(i + 1 for i in range(len(shape.dims)) if i != k)
            out[piece] = np.sum(t, axis=axes) if axes else t
    return outs


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


# -- jump law ----------------------------------------------------------------


@lru_cache(maxsize=128)
def _offset_cdf(points: int, spacing: float, alpha: float) -> np.ndarray:
    """Cumulative sums of g^2 over a jump centre's offsets 0 .. points - 1
    from its site, after the grid's completeness check: sum g^2 dx, the
    jump mass of any normalized state, is within JUMP_MASS_HARD_LIMIT of 1."""
    cdf = np.cumsum(np.square(_template(points, spacing, alpha)))
    mass = float(cdf[-1]) * spacing
    if abs(mass - 1.0) > JUMP_MASS_HARD_LIMIT:
        raise GridAdequacyError(
            f"jump probability mass {mass:.6f} deviates from 1 by more than "
            f"{JUMP_MASS_HARD_LIMIT}; grid cannot resolve the localization width"
        )
    cdf.setflags(write=False)
    return cdf


def _draw_centres(weights: np.ndarray, draws: np.ndarray, grid: Grid, alpha: float) -> np.ndarray:
    """The jump centre of each row of (n, M) position weights w, by row i of
    (n, 2) uniforms ``draws``: a site j drawn from w by its u (``draw_rows``)
    plus an offset o drawn from g^2 by its v, mod M.  P(j + o = k) =
    sum_q w[q] g^2(k - q) is the jump law, and no table of it is built."""
    cdf = _offset_cdf(grid.points, grid.spacing, alpha)
    offsets = np.searchsorted(cdf, np.multiply(draws[:, 1], cdf[-1]), side="right")
    sites = draw_rows(weights, draws[:, 0])
    return np.add(sites, np.minimum(offsets, grid.points - 1)) % grid.points


def _localize(
    rows: np.ndarray, shape: SubsystemShape, particle: int, grid: Grid, alpha: float,
    sites: np.ndarray,
) -> None:
    """L(x_sites[i]) on ``particle`` of row i, then renormalize, in place."""
    g = _templates_at(grid, alpha, sites)
    axis = shape.validate_index(particle) + 1
    across = [len(rows)] + [1] * (len(shape.dims) + 1)
    across[axis] = grid.points
    parts = rows.view(np.float64).reshape((len(rows),) + shape.dims + (2,))
    np.multiply(parts, g.reshape(across), out=parts)
    norms = _row_norms(rows)
    _check_norms(norms, grid, sites)
    _normalize_rows(rows, norms)


def _templates_at(grid: Grid, alpha: float, sites: np.ndarray) -> np.ndarray:
    """Row i is the diagonal of L centred at site ``sites[i]``."""
    m = grid.points
    return _shifted_templates(m, grid.spacing, alpha)[np.subtract(m, sites) % m]


def _check_norms(norms: np.ndarray, grid: Grid, sites: np.ndarray) -> None:
    zero = norms < ZERO_NORM_FLOOR
    if zero.any():
        center = grid.origin + int(sites[zero.argmax()]) * grid.spacing
        raise ZeroNormError(f"jump at {center} hit a zero-probability centre")


def jump_density(psi: StateVector, particle: int, grid: Grid, params: GrwParams) -> np.ndarray:
    """Probability table over grid points for the next jump centre, the law
    that ``_draw_centres`` samples: circulant(g^2) @ w, normalized."""
    _offset_cdf(grid.points, grid.spacing, params.alpha)  # the grid's completeness check
    w = marginal_weights(psi.amplitudes[None, :], psi.shape, particle)[0]
    if w.size != grid.points:
        raise ValueError(f"factor {particle} has dim {w.size}, grid has {grid.points} points")
    table = circulant(np.square(gaussian_template(grid, params.alpha))) @ w
    return table / table.sum()


def apply_jump(
    psi: StateVector, particle: int, center: float, grid: Grid, params: GrwParams
) -> StateVector:
    """L(center) psi / ||L(center) psi||, acting on one particle only."""
    rows = np.array(psi.amplitudes)[None, :]
    _localize(rows, psi.shape, particle, grid, params.alpha, np.array([grid.index_of(center)]))
    return StateVector(psi.shape, rows[0])


def sample_jump_times(
    rates: Mapping[int, float], horizon: float, seed: int, trials: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Merged per-particle Poisson arrivals of each trial, sorted by time,
    each with the two uniforms that draw its centre.

    Particle p's arrivals are a Poisson process of rate ``rates[p]``: for
    its k-th arrival, draw 2k of tag ``rng.JUMPS + p`` gives the gap
    -log1p(-u) / rate before it, draw 2k + 1 the uniform u of its centre's
    site and draw k of tag ``rng.OFFSETS + p`` the uniform v of the
    centre's offset (``_draw_centres``).  They are drawn in rounds over the
    trials still short of the horizon; simultaneous arrivals keep ascending
    particle order.  Returns the jump counts, (n, max count + 1) arrays of
    times (+inf after the last) and particles (-1 after the last), and the
    (n, max count + 1, 2) uniforms (u, v), row i for ``trials[i]``.
    """
    n_jumps, *events = _jump_events(rates, horizon, seed, trials)
    return (n_jumps, *_schedule_rows(n_jumps, np.cumsum(n_jumps) - n_jumps, events))


def _jump_events(
    rates: Mapping[int, float], horizon: float, seed: int, trials: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The arrivals of ``sample_jump_times`` as the jump counts and, trial
    after trial and in time order within a trial, each jump's time,
    particle and (site, offset) uniforms."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    trials, n = np.asarray(trials), len(trials)
    kind = np.min_scalar_type(-1 - max(rates, default=0))  # holds every particle and -1
    events = [(np.zeros(0, dtype=int), np.zeros(0), np.zeros(0, dtype=kind), np.zeros((0, 2)))]
    for p in sorted(rates):
        if rates[p] == 0.0:
            continue
        mean = rates[p] * horizon
        # arrivals per round: nearly every trial passes the horizon in the first
        size = 4 * math.ceil(min(mean / 4 + math.sqrt(mean) + 1, 2**10))
        live, now, first = np.arange(n), np.zeros((n, 1)), 0  # arrivals first .. first + size - 1
        while live.size:
            u = uniforms(seed, trials[live], JUMPS + p, 2 * (first + size), 2 * first)
            v = uniforms(seed, trials[live], OFFSETS + p, first + size, first)
            gaps = -np.log1p(-u[:, 0::2])
            # a running sum from each row's last arrival, so rounds do not move its bits
            t = np.cumsum(np.concatenate((now, gaps / rates[p]), axis=1), axis=1)[:, 1:]
            r, c = np.nonzero(t < horizon)
            draws = np.stack((u[r, 2 * c + 1], v[r, c]), axis=1)
            events.append((live[r], t[r, c], np.full(r.size, p, dtype=kind), draws))
            short = t[:, -1] < horizon
            live, now, first = live[short], t[short, -1:], first + size
    rows, times, particles, draws = (np.concatenate(x) for x in zip(*events))
    order = np.lexsort((particles, times, rows))
    return np.bincount(rows, minlength=n), times[order], particles[order], draws[order]


def _schedule_rows(
    counts: np.ndarray, starts: np.ndarray, events: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The padded schedule of the trials whose ``counts[i]`` jumps are entries
    ``starts[i]`` on of the ``_jump_events`` arrays ``events``: (n, max count
    + 1) arrays of times (+inf after the last) and particles (-1 after the
    last), and the (n, max count + 1, 2) centre uniforms."""
    columns = np.arange(int(counts.max(initial=0)) + 1)  # every row ends in an +inf time
    held = columns < counts[:, None]
    index = np.add(starts[:, None], columns)[held]
    tables = (np.full(held.shape, np.inf), np.full(held.shape, -1, dtype=events[1].dtype),
              np.zeros(held.shape + (2,)))
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
            # exp(0 + i theta) with theta = -(tau / hbar) E
            phases = np.zeros(part.shape, dtype=complex)
            np.multiply(np.negative(np.divide(taus[piece], self.hbar))[:, None],
                        self.eigenvalues, out=phases.imag)
            np.exp(phases, out=phases)
            np.multiply(phases, part, out=part)
        return np.fft.ifft(spectrum, axis=1, out=spectrum)

    def advance(self, amplitudes: np.ndarray, tau: float) -> np.ndarray:
        return self.advance_rows(np.asarray(amplitudes)[None, :], np.array([tau]))[0]


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
    """Run one stochastic realization per trial in ``trials``, all from
    ``psi0``, up to ``horizon``.

    Between events the state is advanced by ``propagator`` (None for no
    Hamiltonian), whose circulant acts on the whole space; build it once
    and reuse it across calls.  At each Poisson jump time a centre is
    drawn from the jump density of the affected particle and the
    localization applied.  Jumps occur only on subsystems present in
    ``grid_map``; ``rate_factors`` scales the base rate per particle
    (used for pointer amplification, always explicit).  Without
    ``sample_times`` the state is sampled every ``dt`` from 0.

    Random draws: row i is trial ``trials[i]`` of master seed ``seed``
    (``rng``).  For particle p's k-th jump, draw 2k of tag ``rng.JUMPS +
    p`` gives the gap before it (inverse-CDF exponential), draw 2k + 1 the
    site of its centre and draw k of tag ``rng.OFFSETS + p`` the centre's
    offset from that site (``sample_jump_times``).  With ``final_only``
    only the state at the last sample time is kept.  The states go to a
    new (kept samples, n, d) array, or to the first n rows of ``out``, a
    complex (kept samples, >= n, d) array, and ``Block.states`` is that
    view.

    The trials form one window.  Their jump schedules are drawn once, in
    batches of ``block_rows(d)`` trials, and the trials are stably sorted
    by event count (every trial has the same samples, so by jump count).
    Each run of B sorted trials is one block, evolved by ``_evolve_rows``
    into its trials' slots.  The input picks the engine (module
    docstring): with a propagator a block is complex (B, d) amplitudes and
    B = ``block_rows(d)``; without one it is real multipliers, B rows of
    M floats per localized factor, and B = ``block_rows`` of those floats.
    """
    return _evolve_window(psi0, propagator, params, grid_map, horizon, dt, seed, trials,
                          sample_times, rate_factors, final_only, out)


def _evolve_window(
    psi0: StateVector, propagator: Propagator | None, params: GrwParams,
    grid_map: Mapping[int, Grid], horizon: float, dt: float, seed: int, trials: Sequence[int],
    sample_times: Sequence[float] | None, rate_factors: Mapping[int, float] | None,
    final_only: bool = False, out: np.ndarray | None = None, equivariant: bool = False,
) -> Block:
    """``evolve_block`` of these arguments; with ``equivariant`` each trial
    is a one-row block of ``_Equivariant``."""
    times = _checked_sample_times(psi0, propagator, grid_map, horizon, dt, sample_times)
    rates = _rates(params, grid_map, rate_factors)
    dim = psi0.shape.total_dim
    n_jumps, *events = _window_events(rates, horizon, seed, trials, block_rows(dim))
    starts = np.cumsum(n_jumps) - n_jumps
    n = len(n_jumps)
    jump_centres = np.empty_like(events[0])  # every jump's centre is written by its block
    kept = min(1, len(times)) if final_only else len(times)
    if out is None:
        out = np.empty((kept, n, dim), dtype=complex)
    states = out[:, :n]
    sample_at = np.append(np.array(times, dtype=float), np.inf)
    order = np.argsort(n_jumps, kind="stable")
    if equivariant:
        rows, engine = 1, partial(_Equivariant, psi0, propagator, params)
    elif propagator is None:
        points = sum(grid.points for grid in grid_map.values())
        rows = block_rows(max(1, points), np.dtype(float).itemsize)
        engine = partial(_Multipliers, psi0, params, grid_map)
    else:
        rows = block_rows(dim)
        engine = partial(_Amplitudes, psi0, propagator, params)
    rounds = 0
    for start in range(0, n, rows):
        slots = order[start:start + rows]
        schedule = _schedule_rows(n_jumps[slots], starts[slots], events)
        rounds += _evolve_rows(engine(len(slots)), grid_map, sample_at, len(times) - kept,
                               schedule, slots, starts[slots], states, jump_centres)
    return Block(states, n_jumps, events[0], events[1], jump_centres, rounds)


def _evolve_rows(
    engine: _Amplitudes | _Multipliers | _Equivariant, grid_map: Mapping[int, Grid],
    sample_at: np.ndarray, first_kept: int, schedule: tuple[np.ndarray, np.ndarray, np.ndarray],
    slots: np.ndarray, starts: np.ndarray, states: np.ndarray, jump_centres: np.ndarray,
) -> int:
    """Evolve one block and return the event rounds it ran.

    Row i of ``engine`` starts at psi0 and runs row i of the padded
    ``schedule`` (``_schedule_rows``).  Its states at the sample times
    ``sample_at`` (+inf last), from the ``first_kept``-th on, go to
    ``states[:, slots[i]]``, and its k-th jump centre to
    ``jump_centres[starts[i] + k]``.
    """
    jump_times, jump_particles, centre_draws = schedule
    n = len(slots)
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
        engine.advance(t, live)

        rows = np.flatnonzero(live & sampling)
        kept = next_sample[rows] - first_kept
        next_sample[rows] += 1
        rows, kept = rows[kept >= 0], kept[kept >= 0]
        for piece in _pieces(rows.size):
            states[kept[piece], slots[rows[piece]]] = engine.states(rows[piece])

        jumping = np.flatnonzero(live & ~sampling)
        columns = next_jump[jumping]
        particles = jump_particles[jumping, columns]
        next_jump[jumping] += 1
        for p, grid in grid_map.items():
            mine = particles == p
            rows, cols = jumping[mine], columns[mine]
            if rows.size:
                sites = engine.jump(p, grid, rows, centre_draws[rows, cols])
                jump_centres[starts[rows] + cols] = grid.origin + sites * grid.spacing


class _Amplitudes:
    """A block's rows as one complex (n, d) array of amplitudes, advanced
    by a propagator and localized in place.  Gathered rows are handled
    KERNEL_ROWS at a time."""

    def __init__(self, psi0: StateVector, propagator: Propagator, params: GrwParams, n: int):
        self.shape, self.propagator, self.params = psi0.shape, propagator, params
        self.amps = np.repeat(np.array(psi0.amplitudes)[None, :], n, axis=0)
        self.now = np.zeros(n)

    def advance(self, t: np.ndarray, live: np.ndarray) -> None:
        """Every live row to its time ``t``: in place when every row moves,
        otherwise the moving rows are gathered."""
        gap = np.subtract(t, self.now)
        moving = live & (gap > 0)
        if moving.all():
            self.propagator.advance_rows(self.amps, gap, out=self.amps)
        else:
            moved = np.flatnonzero(moving)
            for piece in _pieces(moved.size):
                rows = moved[piece]
                picked = self.amps[rows]
                self.amps[rows] = self.propagator.advance_rows(picked, gap[rows], out=picked)
        np.copyto(self.now, t, where=live)

    def states(self, rows: np.ndarray) -> np.ndarray:
        picked = self.amps[rows]
        _normalize_rows(picked, _row_norms(picked))
        return picked

    def jump(self, p: int, grid: Grid, rows: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """Localize particle p of each row at the centre its uniforms draw; returns the sites."""
        sites = np.empty(rows.size, dtype=int)
        for piece in _pieces(rows.size):
            picked = self.amps[rows[piece]]
            sites[piece] = _draw_centres(marginal_weights(picked, self.shape, p), draws[piece],
                                         grid, self.params.alpha)
            _localize(picked, self.shape, p, grid, self.params.alpha, sites[piece])
            self.amps[rows[piece]] = picked
        return sites


class _Multipliers:
    """A block's rows without a Hamiltonian, as real multipliers: row i's
    state is psi0 times F_p[i] along each localized factor p, and F_p is
    a real (n, M) array.  Amplitudes are formed only at sample times.

    A jump on p draws from the table of F_p^2 W_p, W_p being |psi0|^2
    contracted with the other factors' F^2 (with one localized factor, a
    fixed M-vector), and multiplies F_p by g / ||.||, the norm taken with
    the same weights.
    """

    def __init__(self, psi0: StateVector, params: GrwParams, grid_map: Mapping[int, Grid],
                 n: int):
        self.psi0, self.params = psi0, params
        self.factors = {p: np.ones((n, grid.points)) for p, grid in grid_map.items()}
        amplitudes = psi0.amplitudes[None, :]
        if len(grid_map) == 1:
            self.marginal = marginal_weights(amplitudes, psi0.shape, *grid_map)[0]
        else:
            self.marginal = None
            self.probabilities = _abs2_rows(amplitudes).reshape(psi0.shape.dims)

    def advance(self, t: np.ndarray, live: np.ndarray) -> None:
        """Nothing moves between events without a Hamiltonian."""

    def _across(self, n: int, p: int) -> list[int]:
        """The shape that lays an (n, M) array along factor p of (n,) + dims."""
        across = [n] + [1] * len(self.psi0.shape.dims)
        across[p + 1] = self.psi0.shape.dims[p]
        return across

    def _others(self, p: int, rows: np.ndarray) -> np.ndarray:
        """W_p of each row, or the one W_p of every row."""
        if self.marginal is not None:
            return self.marginal
        t = self.probabilities
        for q, f in self.factors.items():
            if q != p:
                t = np.multiply(t, np.square(f[rows]).reshape(self._across(rows.size, q)))
        return np.sum(t, axis=tuple(i + 1 for i in range(t.ndim - 1) if i != p))

    def states(self, rows: np.ndarray) -> np.ndarray:
        scale = np.ones([rows.size] + [1] * len(self.psi0.shape.dims))
        for p, f in self.factors.items():
            scale = np.multiply(scale, f[rows].reshape(self._across(rows.size, p)))
        amps = self.psi0.reshaped()
        out = np.empty(np.broadcast_shapes(scale.shape, amps.shape), dtype=complex)
        np.multiply(amps.real, scale, out=out.real)
        np.multiply(amps.imag, scale, out=out.imag)
        out = out.reshape(rows.size, -1)
        _normalize_rows(out, _row_norms(out))
        return out

    def jump(self, p: int, grid: Grid, rows: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """Localize particle p of each row at the centre its uniforms draw; returns the sites."""
        factor = self.factors[p]
        every = rows.size == len(factor)
        f = factor if every else factor[rows]
        w = self._others(p, rows)
        sites = _draw_centres(np.multiply(np.square(f), w), draws, grid, self.params.alpha)
        np.multiply(f, _templates_at(grid, self.params.alpha, sites), out=f)
        norms = np.sqrt(np.sum(np.multiply(np.square(f), w), axis=1))
        _check_norms(norms, grid, sites)
        _normalize_rows(f, norms)
        if not every:
            factor[rows] = f
        return sites


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
) -> Trajectory:
    """Trial ``trial`` of ``seed`` as a one-trial ``evolve_block``, whose
    arguments these are, with its states and its jump record."""
    block = evolve_block(psi0, propagator, params, grid_map, horizon, dt, seed, [trial],
                         sample_times=sample_times, rate_factors=rate_factors)
    return _trajectory(block, psi0.shape)


def _trajectory(block: Block, shape: SubsystemShape) -> Trajectory:
    """The states and jump record of a one-trial block."""
    return Trajectory(tuple(StateVector(shape, s[0]) for s in block.states), block.jumps(0))


# -- translation-equivariant trajectories ------------------------------------


def evolve_equivariant(
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
) -> Trajectory:
    """Trial ``trial`` of ``seed`` as a one-row ``_Equivariant`` block, with
    state updates that commute bit-exactly with cyclic grid translations
    (module docstring).

    The arguments, draws, jump times and jump particles are those of
    ``evolve_trajectory``.  On several grid factors the propagator is
    ``Propagator.advance``, so with a Hamiltonian only single-factor runs
    are bit-exact.  A jump centre is drawn by the same uniforms from the
    same law, but its site from a cumulative sum anchored at a maximum of
    the weights (``_Equivariant.centres``), so it may differ from the one
    ``evolve_trajectory`` draws.
    """
    block = _evolve_window(psi0, propagator, params, grid_map, horizon, dt, seed, [trial],
                           sample_times, rate_factors, equivariant=True)
    return _trajectory(block, psi0.shape)


class _Equivariant:
    """One row, advanced, sampled and localized by the fsum kernels below."""

    def __init__(self, psi0: StateVector, propagator: Propagator | None, params: GrwParams,
                 n: int):
        self.shape, self.propagator, self.params = psi0.shape, propagator, params
        self.amps = np.array(psi0.amplitudes, dtype=complex)
        self.now = 0.0

    def advance(self, t: np.ndarray, live: np.ndarray) -> None:
        """The row to its time ``t[0]``; the loop calls this only while it is live."""
        gap = t[0] - self.now
        if self.propagator is not None and gap > 0:
            if len(self.shape.dims) == 1:
                self.amps = _fsum_advance(self.propagator, self.amps, gap)
            else:
                self.amps = self.propagator.advance(self.amps, gap)
        self.now = t[0]

    def states(self, rows: np.ndarray) -> np.ndarray:
        return (self.amps / _fsum_norm(self.amps))[None, :]

    def jump(self, p: int, grid: Grid, rows: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """Localize particle p at the centre its uniforms draw; returns the site."""
        k = int(self.centres(p, grid, draws)[0])
        self.amps = _fsum_localize(self.amps, self.shape, p, grid, self.params.alpha, k)
        return np.array([k])

    def centres(self, p: int, grid: Grid, draws: np.ndarray) -> np.ndarray:
        """Particle p's centre for each row of (n, 2) uniforms ``draws``, its
        site's cumulative sum anchored at a maximum of the weights: of tied
        maxima, the one whose rotation of the weights to the front is
        lexicographically greatest.  That commutes with cyclic translations
        unless the weights are periodic."""
        w = marginal_weights(self.amps[None, :], self.shape, p)[0]
        anchor = max(np.flatnonzero(w == w.max()).tolist(),
                     key=lambda a: np.roll(w, -a).tolist())
        drawn = _draw_centres(np.roll(w, -anchor)[None, :], draws, grid, self.params.alpha)
        return np.add(anchor, drawn) % grid.points


def _fsum_norm(vec: np.ndarray) -> float:
    return math.sqrt(math.fsum(_abs2_rows(vec[None, :])[0]))


def _fsum_advance(propagator: Propagator, vec: np.ndarray, tau: float) -> np.ndarray:
    """exp(-i H tau / hbar) vec as out[q] = sum_p col[(q - p) mod M] vec[p],
    with col the propagator's first column and order-independent sums."""
    col = np.fft.ifft(np.exp(propagator.eigenvalues * (-1j * tau / propagator.hbar)))
    m = vec.size
    idx = np.arange(m)
    out = np.empty(m, dtype=complex)
    for q in range(m):
        terms = col[(q - idx) % m] * vec
        out[q] = complex(math.fsum(terms.real), math.fsum(terms.imag))
    return out


def _fsum_localize(
    amps: np.ndarray, shape: SubsystemShape, particle: int, grid: Grid, alpha: float, k: int
) -> np.ndarray:
    """L(x_k) on ``particle``, renormalized by an fsum norm."""
    across = [1] * len(shape.dims)
    across[shape.validate_index(particle)] = grid.points
    g = np.roll(gaussian_template(grid, alpha), k)
    arr = (amps.reshape(shape.dims) * g.reshape(across)).reshape(-1)
    norm = _fsum_norm(arr)
    _check_norms(np.array([norm]), grid, np.array([k]))
    return arr / norm


# -- state builders ------------------------------------------------------------


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


def two_peak_state(
    grid: Grid, centers: Sequence[float], weights: Sequence[float], width: float
) -> StateVector:
    """Superposition of packets with given probability weights."""
    acc = np.zeros(grid.points, dtype=complex)
    for c, w in zip(centers, weights):
        acc = acc + math.sqrt(w) * gaussian_packet(grid, c, width).amplitudes
    return StateVector(SubsystemShape((grid.points,)), acc).normalize()


def translate_state(psi: StateVector, particle: int, sites: int) -> StateVector:
    """Cyclically shift one factor by an integer number of grid sites."""
    axis = psi.shape.validate_index(particle)
    return StateVector(psi.shape, np.roll(psi.reshaped(), sites, axis=axis).reshape(-1))
