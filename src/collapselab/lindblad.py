"""Deterministic ensemble dynamics for the localization model.

The statistical operator of a jump-unravelled ensemble obeys

    d rho / dt = -(i/hbar) [H, rho]
                 - lam * sum_n ( rho - sum_k L_n(x_k) rho L_n(x_k) dx )

with the sum over jump centres discretized on exactly the same grids
the trajectory engine uses (the two must discretize identically for
ensemble comparisons to mean anything).  Because every L is diagonal
in position, the centre sum acts entrywise: on a single grid factor

    (sum_k L_k rho L_k dx)[q, p] = C[q, p] * rho[q, p],
    C[q, p] = sum_k g(q - k) g(p - k) dx,

which for an adequate grid matches the closed form
exp(-alpha (x_q - x_p)^2 / 4); tests pin both routes against each
other and against the literal operator sum.

The whole dissipator is therefore one elementwise product lam R * rho
with the real, symmetric rate array R = sum_n C_n - n (each C_n
broadcast along the other factors).  R is built once per integration.
C is circulant: its first column is the circular autocorrelation of
the template g, from one rfft/irfft pair, made exactly even so that R
is exactly symmetric.

Without a Hamiltonian every entry of rho decays on its own, so the
integration is the closed form

    rho(t) = rho0 * exp(t lam R)    (entrywise),

with no time steps; it is exactly Hermitian for a Hermitian rho0
because R is exactly symmetric.

With a Hamiltonian the state is exp(t L) rho0 for the Liouvillian
L rho = lam R * rho - (i/hbar)[H, rho], computed as a truncated Taylor
series (the ``expmv`` scheme of Al-Mohy and Higham, "Computing the
action of the matrix exponential", SIAM J. Sci. Comput. 33(2), 488-511,
2011).  The time line is cut at 0, the snapshot times and the horizon;
each interval of length Delta takes s = ceil(Delta ||L|| / theta)
substeps of length tau = Delta / s, so tau ||L|| <= theta =
TAYLOR_THETA = 4, with

    ||L|| <= 2 max|E| / hbar + lam max|R|

in the Hilbert-Schmidt norm (max|E| is ``Propagator.max_energy``).
A substep adds the terms T_k = (tau / k) L T_(k-1), T_0 = rho, until two
consecutive terms fall below the unit roundoff of the running sum,
||T_k|| + ||T_(k-1)|| <= 2^-53 ||rho||, and never past k =
MAX_TAYLOR_TERMS = 32: for tau ||L|| <= 4 the terms after it sum to
less than 10^-17 of the substep's starting norm (4^33 / 33! < 2^-53 / 10).
Long substeps are what make the series cheap: the term count grows
far slower than the substep, so the default free-H oracle, at
Delta ||L|| ~ 2.5 per checkpoint interval, takes one substep per
interval.  Snapshot times need not fall on any grid.

Each term is one right-hand side, and the commutator costs one matrix
product.  With K = H rho,

    [H, rho] = H rho - rho H = K - K^dagger,

because rho H = (H rho)^dagger when both H and rho are Hermitian.

H is the real symmetric circulant, on the whole space, of the first
column the caller passes (``grw.free_hamiltonian`` makes it); its
column must be even (``integrate_with_snapshots`` rejects one that is
not) and have the state's total dimension.  It is built densely once
per integration, and every series term and state stays Hermitian to
the last bit: K - K^dagger is exactly anti-Hermitian, R is exactly
symmetric and each term is scaled by a real number, so each term is
Hermitian and so is their sum.  Callers of ``lindblad_rhs`` must pass
a Hermitian rho for the same reason.  K is one real GEMM, H applied to
rho viewed as a (d, 2d) float64 array (real and imaginary parts
interleaved along each row), and the result is viewed back as complex.
For a single grid an FFT route exists (rho stored as sigma(kappa, r),
the FFT over q of rho[q, q - r]), but below M = 512 it is slower than
this GEMM.

An ensemble of K trajectories is compared with the oracle one window at
a time (``Mixture``): a window of trajectories writes its checkpoint
states into a buffer of at most max(MIXTURE_BUFFER_BYTES, one
MIXTURE_CHUNK of checkpoint states), which is folded into the
checkpoints * d^2 sums before the next window overwrites it, so the
comparison never holds O(K * checkpoints * d) amplitudes.
``mixture_bytes`` counts the sums, the
buffer and the working rows of a window, and the oracle budget includes
them for an ensemble comparison.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, GridAdequacyError, InvariantViolationError
from .grw import Grid, GrwParams, Propagator, circulant, even_part, gaussian_template
from .hilbert import SPECTRAL_TOL, DensityMatrix, SubsystemShape
from .schema import POSITIVE, check_fields, checked

TRACE_TOL = 1e-8
HERMITICITY_TOL = 1e-8
POSITIVITY_FLOOR = -1e-6
UNIT_ROUNDOFF = 2.0**-53
TAYLOR_THETA = 4.0  # bound of tau ||L|| for one Taylor substep
MAX_TAYLOR_TERMS = 32  # right-hand sides per substep; 4^33/33! < UNIT_ROUNDOFF / 10
MIXTURE_CHUNK = 256  # trials stacked per GEMM in Mixture.fold; fixes the summation order
# Amplitudes of a Mixture's buffer, one window of trajectories.  A window
# sorts its trials by event count (``grw.evolve_block``), so a larger buffer
# makes blocks of more alike trials and fewer event rounds; 8 MB holds the
# 10^4-trial M = 64 benchmark run in five windows.
MIXTURE_BUFFER_BYTES = 8 * 2**20


@dataclass(frozen=True)
class LindbladConfig:
    """Integration window: the final time ``horizon``, and ``dt``, the time
    step of the trajectories compared with the oracle.  The oracle never
    steps by dt; the runs validate it against the Hamiltonian
    (``grw.validate_step``)."""

    dt: float = checked(POSITIVE)
    horizon: float = checked(POSITIVE)

    def __post_init__(self) -> None:
        check_fields(self)


def taylor_substeps(horizon: float, norm: float, snapshots: int) -> float:
    """Upper bound of the Taylor substeps of one integration: ceil(horizon
    ||L|| / TAYLOR_THETA) over the whole window plus one partial substep
    per snapshot interval (inf when horizon ||L|| overflows)."""
    work = horizon * norm / TAYLOR_THETA
    return float(math.ceil(work) + snapshots) if math.isfinite(work) else math.inf


def oracle_cost(dim: int, substeps: float, snapshots: int, free: bool) -> tuple[float, int]:
    """Estimated flops and live bytes of one integration on a dim-dimensional space.

    The flops are those of the Taylor series' GEMMs: at most
    MAX_TAYLOR_TERMS right-hand sides per substep, each one (d, d) x
    (d, 2d) real GEMM; without H the closed form does O(d^2) work per
    time and none are counted.  The bytes are complex rho, the real rate
    array and one complex d x d per snapshot, plus, with H, the real
    dense H, the two series terms and the two commutator work arrays.
    """
    d2 = dim * dim
    if not free:
        return 0, (16 + 8 + 16 * snapshots) * d2
    return substeps * MAX_TAYLOR_TERMS * 4 * dim**3, (16 + 8 + 16 * snapshots + 8 + 4 * 16) * d2


# Ten times the largest oracle that RK4 ran in the tests or the benchmark,
# oracle-compare's free H at M = 256 (500 steps, 4 checkpoints).
MAX_ORACLE_FLOPS = 1_342_177_280_000
MAX_ORACLE_BYTES = 136_314_880


def _mixture_capacity(checkpoints: int, dim: int) -> int:
    """Trajectories a Mixture buffers: MIXTURE_BUFFER_BYTES, but at least MIXTURE_CHUNK."""
    chunk_bytes = checkpoints * MIXTURE_CHUNK * dim * np.dtype(complex).itemsize
    return MIXTURE_CHUNK * max(1, MIXTURE_BUFFER_BYTES // chunk_bytes)


def mixture_bytes(dim: int, checkpoints: int, block_rows: int) -> int:
    """Live bytes of comparing a trajectory ensemble with the oracle in
    windows: the checkpoints * d^2 mixture sums, the buffer the windows are
    evolved into, and the larger of one block's (B, d) amplitudes (B =
    ``block_rows``, at most a window) and the MIXTURE_CHUNK conjugated rows
    a fold multiplies."""
    capacity = _mixture_capacity(checkpoints, dim)
    rows = max(min(block_rows, capacity), MIXTURE_CHUNK)
    return np.dtype(complex).itemsize * (checkpoints * (dim * dim + capacity * dim) + rows * dim)


def generator_norm(propagator: Propagator, rate_bound: float) -> float:
    """Hilbert-Schmidt bound of the Liouvillian, 2 max|E| / hbar + max|lam R|,
    for the Hamiltonian of ``propagator`` and max|lam R| <= ``rate_bound``.
    Before R is built, lam times the number of grids bounds it: each C_n
    has entries in [0, 1] up to the grid's completeness defect."""
    return 2.0 * propagator.max_energy / propagator.hbar + rate_bound


def check_oracle_budget(
    dim: int,
    norm: float | None,
    config: LindbladConfig,
    snapshots: int,
    block_rows: int = 0,
) -> None:
    """Reject an integration whose estimated cost exceeds the oracle budget.

    ``norm`` bounds the Liouvillian of an integration with a Hamiltonian
    (``generator_norm``) and is None without one, where the closed form
    takes no substeps.  ``integrate_with_snapshots`` runs the check
    first; the scenarios also run it before they build the d x d initial
    state.  With ``block_rows``, the oracle's snapshots are compared with
    an ensemble evolved in blocks of that many trajectories, and the
    bytes include ``mixture_bytes``.
    """
    free = norm is not None
    substeps = taylor_substeps(config.horizon, norm, snapshots) if free else 0
    flops, nbytes = oracle_cost(dim, substeps, snapshots, free)
    if block_rows:
        nbytes += mixture_bytes(dim, snapshots, block_rows)
    if flops > MAX_ORACLE_FLOPS or nbytes > MAX_ORACLE_BYTES:
        raise ConfigError(
            f"the oracle on a {dim}-dimensional space needs {flops:.3g} flops and "
            f"{nbytes / 1e6:.0f} MB of live arrays, over the work budget of "
            f"{MAX_ORACLE_FLOPS:.3g} flops and {MAX_ORACLE_BYTES / 1e6:.0f} MB; lower the "
            f"keys 'points', 'horizon', 'lambda' or 'checkpoints'"
        )


@lru_cache(maxsize=128)
def _overlap_kernel(points: int, spacing: float, alpha: float) -> np.ndarray:
    g = gaussian_template(Grid(points, spacing), alpha)
    spectrum = np.fft.rfft(g)
    # circular autocorrelation of g: col[j] = sum_k g(k + j) g(k) dx
    col = np.fft.irfft(spectrum.real**2 + spectrum.imag**2, n=points) * spacing
    kernel = circulant(even_part(col))
    kernel.setflags(write=False)
    return kernel


def overlap_kernel(grid: Grid, alpha: float) -> np.ndarray:
    """C[q, p] = sum_k g(q-k) g(p-k) dx on the given grid."""
    return _overlap_kernel(grid.points, grid.spacing, alpha)


def dephasing_rate(params: GrwParams, x: float, xp: float) -> float:
    """Closed-form off-diagonal decay rate lam * (1 - exp(-alpha dx^2 / 4))."""
    return params.lam * (1.0 - math.exp(-params.alpha * (x - xp) ** 2 / 4.0))


def _rate_array(
    shape: SubsystemShape, grids: Mapping[int, Grid], alpha: float
) -> np.ndarray:
    """R = sum_n C_n - n as a real (d, d) array, each C_n on its own factor."""
    dims = shape.dims
    n = len(dims)
    rate = np.zeros(dims + dims)
    for k in sorted(grids):
        shape.validate_index(k)
        grid = grids[k]
        if dims[k] != grid.points:
            raise ValueError(f"grid for subsystem {k} does not match its dimension")
        full = [1] * (2 * n)
        full[k] = dims[k]
        full[n + k] = dims[k]
        rate += overlap_kernel(grid, alpha).reshape(full)
    rate -= len(grids)
    d = shape.total_dim
    return rate.reshape(d, d)


def _hamiltonian_matrix(col: np.ndarray | None, d: int) -> np.ndarray | None:
    """The dense real circulant with first column ``col`` on a d-dimensional space."""
    if col is None:
        return None
    col = np.asarray(col)
    if col.shape != (d,) or np.iscomplexobj(col):
        raise ConfigError(f"the Hamiltonian column must be {d} real entries, the state's total "
                          f"dimension; got a {col.dtype} array of shape {col.shape}")
    return circulant(col)


def _rhs(
    rho: np.ndarray,
    h: np.ndarray | None,
    hbar: float,
    rates: np.ndarray,
    out: np.ndarray,
    work: tuple[np.ndarray, np.ndarray] | None,
) -> np.ndarray:
    """lam R * rho - (i/hbar)(K - K^dagger) with K = H rho, written to ``out``.

    rho, ``out`` and the two ``work`` arrays (for K and its transpose,
    needed only when there is an H) are C-contiguous complex (d, d).
    """
    np.multiply(rates, rho, out=out)
    if h is not None:
        d = rho.shape[0]
        k, comm = work
        flat = rho.view(np.float64).reshape(d, 2 * d)
        np.matmul(h, flat, out=k.view(np.float64).reshape(d, 2 * d))
        np.copyto(comm, k.T)  # a contiguous copy transposes faster than a strided read
        np.conjugate(comm, out=comm)
        np.subtract(k, comm, out=comm)
        comm *= -1j / hbar
        out += comm
    return out


def _work(rho: np.ndarray, h: np.ndarray | None) -> tuple[np.ndarray, np.ndarray] | None:
    return None if h is None else (np.empty_like(rho), np.empty_like(rho))


def lindblad_rhs(
    rho: DensityMatrix,
    hamiltonian: np.ndarray | None,
    params: GrwParams,
    grids: Mapping[int, Grid],
) -> np.ndarray:
    """Time derivative of the statistical operator (Hermitian, traceless).

    ``hamiltonian`` is H's first column and must be even (see the module
    docstring).
    """
    h = _hamiltonian_matrix(hamiltonian, rho.shape.total_dim)
    rates = params.lam * _rate_array(rho.shape, grids, params.alpha)
    entries = np.ascontiguousarray(rho.entries)
    return _rhs(entries, h, params.hbar, rates, np.empty_like(entries), _work(entries, h))


def _taylor(
    rho: np.ndarray,
    h: np.ndarray,
    hbar: float,
    rates: np.ndarray,
    span: float,
    norm: float,
    buffers: tuple[np.ndarray, np.ndarray],
    work: tuple[np.ndarray, np.ndarray],
) -> None:
    """rho <- exp(span L) rho in place, in ceil(span * norm / TAYLOR_THETA)
    substeps of at most MAX_TAYLOR_TERMS right-hand sides each."""
    substeps = max(1, math.ceil(span * norm / TAYLOR_THETA))
    tau = span / substeps
    for _ in range(substeps):
        term, nxt = buffers
        np.copyto(term, rho)
        size = np.linalg.norm(rho)
        for k in range(1, MAX_TAYLOR_TERMS + 1):
            _rhs(term, h, hbar, rates, nxt, work)
            nxt *= tau / k
            rho += nxt
            previous, size = size, np.linalg.norm(nxt)
            term, nxt = nxt, term
            if size + previous <= UNIT_ROUNDOFF * np.linalg.norm(rho):
                break


def integrate_with_snapshots(
    rho0: DensityMatrix,
    hamiltonian: np.ndarray | None,
    params: GrwParams,
    grids: Mapping[int, Grid],
    config: LindbladConfig,
    snapshot_times: Sequence[float] = (),
) -> tuple[DensityMatrix, dict[float, DensityMatrix]]:
    """The statistical operator at the horizon and at each snapshot time.

    Without a Hamiltonian each state is the closed form rho0 * exp(t lam R).
    With one, each state is exp(t L) rho0 from the truncated Taylor series
    of the module docstring, carried from one snapshot time to the next.
    Snapshot times may be any in [0, horizon]; ``config.dt`` plays no part.
    The final state is always returned.
    """
    shape = rho0.shape
    d = shape.total_dim
    for t in snapshot_times:
        if not 0.0 <= t <= config.horizon + 1e-12:
            raise ConfigError(f"snapshot time {t} lies outside [0, horizon = {config.horizon}]")
    norm = propagator = None
    if hamiltonian is not None:
        propagator = Propagator(hamiltonian, params.hbar)
        norm = generator_norm(propagator, params.lam * len(grids))
    check_oracle_budget(d, norm, config, len(snapshot_times))
    h = _hamiltonian_matrix(hamiltonian, d)

    rates = params.lam * _rate_array(shape, grids, params.alpha)
    # d tr(rho)/dt = sum_q rates[q, q] rho[q, q] vanishes only where each grid's
    # completeness sum is 1; every returned state must keep its trace to SPECTRAL_TOL
    drift = float(np.max(np.abs(np.diagonal(rates)))) * config.horizon
    if not drift <= SPECTRAL_TOL:
        raise GridAdequacyError(f"the grid's completeness defect drifts the trace by "
                                f"{drift:.3e}; it cannot resolve the localization width")
    if hamiltonian is None:
        rho = rho0.entries * np.exp(config.horizon * rates)
        snapshots = {float(t): DensityMatrix(shape, rho0.entries * np.exp(t * rates))
                     for t in snapshot_times}
    else:
        norm = generator_norm(propagator, float(np.max(np.abs(rates))))  # R's own bound
        state = np.array(rho0.entries, dtype=complex, order="C")  # _rhs views it as float rows
        buffers, work = (np.empty_like(state), np.empty_like(state)), _work(state, h)
        wanted = {float(t) for t in snapshot_times}
        targets = sorted(wanted | {config.horizon})
        snapshots = {}
        now = 0.0
        for target in targets:
            if target > now:
                _taylor(state, h, params.hbar, rates, target - now, norm, buffers, work)
                now = target
            if target in wanted:
                snapshots[target] = DensityMatrix(shape, state)
            if target == config.horizon:
                rho = state if target == targets[-1] else state.copy()

    trace_defect = abs(complex(np.trace(rho)) - 1.0)
    if trace_defect > TRACE_TOL:
        raise InvariantViolationError(f"trace drifted by {trace_defect:.3e}")
    herm_defect = float(np.max(np.abs(rho - rho.conj().T)))
    if herm_defect > HERMITICITY_TOL:
        raise InvariantViolationError(f"hermiticity drifted by {herm_defect:.3e}")
    final = DensityMatrix(shape, rho)
    min_eig = final.min_eigenvalue()
    if min_eig < POSITIVITY_FLOOR:
        raise InvariantViolationError(f"minimum eigenvalue {min_eig:.3e} below floor")
    return final, snapshots


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2) ||a - b||_1 via the spectrum of the Hermitian difference."""
    w = np.linalg.eigvalsh(a.entries - b.entries)
    return 0.5 * float(np.sum(np.abs(w)))


@dataclass(frozen=True)
class EnsembleComparison:
    time: float
    size: int
    distance: float
    threshold: float

    @property
    def within_threshold(self) -> bool:
        return self.distance <= self.threshold


def ensemble_compare(
    mixture_sum: np.ndarray, size: int, rho_oracle: DensityMatrix, at: float
) -> EnsembleComparison:
    """Trace distance between the empirical mixture and the oracle at time ``at``.

    ``mixture_sum`` is the sum of psi psi^dagger over ``size`` trajectory
    states (``Mixture.fold`` adds it up).  The threshold 5/sqrt(K) is
    the standard Monte Carlo error scale with an explicit safety factor.
    """
    if size < 1:
        raise ValueError("ensemble is empty")
    rho_mc = DensityMatrix(rho_oracle.shape, mixture_sum / size)
    return EnsembleComparison(
        time=at,
        size=size,
        distance=trace_distance(rho_mc, rho_oracle),
        threshold=5.0 / math.sqrt(size),
    )


class Mixture:
    """Sums of psi psi^dagger at each of ``times`` over a trajectory ensemble.

    ``buffer`` is a (checkpoints, capacity, d) array of at most
    MIXTURE_BUFFER_BYTES, and at least MIXTURE_CHUNK rows: room for one
    window of trajectories, whose producer writes their states there
    (``grw.evolve_block(out=buffer)``).  ``fold`` adds the states of a
    window, from the buffer or from any array, to the sums: each
    MIXTURE_CHUNK rows' psi psi^dagger from one GEMM.  Every fold but the
    last must take a whole number of chunks; then the sums do not depend on
    how the trajectories are split into windows and blocks.
    """

    def __init__(self, times: Sequence[float], dim: int):
        self.times = list(times)
        self.sums = np.zeros((len(self.times), dim, dim), dtype=complex)
        capacity = _mixture_capacity(len(self.times), dim)
        self.buffer = np.empty((len(self.times), capacity, dim), dtype=complex)
        self.size = 0

    @property
    def capacity(self) -> int:
        return self.buffer.shape[1]

    def fold(self, states: np.ndarray) -> None:
        """Add the rows of (checkpoints, n, d) ``states``."""
        checkpoints, dim = len(self.times), self.sums.shape[1]
        if states.ndim != 3 or states.shape[0] != checkpoints or states.shape[2] != dim:
            raise ValueError(f"a block of shape {states.shape} does not hold states at the "
                             f"oracle's {checkpoints} times on its {dim}-dimensional space")
        if self.size % MIXTURE_CHUNK:
            raise ValueError("only the last fold may take a partial chunk")
        for total, rows in zip(self.sums, states):
            for start in range(0, rows.shape[0], MIXTURE_CHUNK):
                chunk = rows[start:start + MIXTURE_CHUNK]
                total += chunk.T @ chunk.conj()
        self.size += states.shape[1]

    def compare(self, oracle: Mapping[float, DensityMatrix]) -> list[EnsembleComparison]:
        """The mixture against the oracle state at each of its times."""
        return [ensemble_compare(total, self.size, oracle[t], t)
                for total, t in zip(self.sums, self.times)]
