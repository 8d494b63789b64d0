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

With a Hamiltonian the integration is classical fixed-step RK4, and
the commutator costs one matrix product.  With K = H rho,

    [H, rho] = H rho - rho H = K - K^dagger,

because rho H = (H rho)^dagger when both H and rho are Hermitian.

H is the real symmetric circulant, on the whole space, of the first
column the caller passes (``grw.free_hamiltonian`` makes it); its
column must be even (``integrate_with_snapshots`` rejects one that is
not) and have the state's total dimension.  It is built densely once
per integration, and every RK4 stage rho stays Hermitian to the last
bit: K - K^dagger is exactly anti-Hermitian and R is exactly symmetric,
so each stage adds a Hermitian increment to a Hermitian state.
Callers of ``lindblad_rhs`` must pass a Hermitian rho for the same
reason.  K is one real GEMM, H applied to rho viewed as a (d, 2d)
float64 array (real and imaginary parts interleaved along each row),
and the result is viewed back as complex.  For a single grid an FFT
route exists (rho stored as sigma(kappa, r), the FFT over q of
rho[q, q - r]), but below M = 512 it is slower than this GEMM.

An ensemble of K trajectories is compared with the oracle as it
streams (``compare_mixtures``): each trajectory's checkpoint states
are copied into a bounded buffer and the trajectory is dropped, so the
comparison holds at most max(MIXTURE_BUFFER_BYTES, one MIXTURE_CHUNK of
checkpoint states) of amplitudes plus the checkpoints * d^2 sums, not
O(K * checkpoints * d).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, GridAdequacyError, InvariantViolationError, StepConditionError
from .grw import Grid, GrwParams, Propagator, circulant, even_part, gaussian_template
from .hilbert import SPECTRAL_TOL, DensityMatrix, StateVector, SubsystemShape
from .schema import POSITIVE, check_fields, checked

STEP_BUDGET = 0.05
TRACE_TOL = 1e-8
HERMITICITY_TOL = 1e-8
POSITIVITY_FLOOR = -1e-6
MIXTURE_CHUNK = 256  # trials stacked per GEMM in compare_mixtures; fixes the summation order
# Amplitudes compare_mixtures buffers between runs of GEMMs.  A threaded BLAS
# call leaves its helper threads spinning for ~80 ms; folding every chunk
# kept a core spinning through the whole 10^4-trial M = 64 benchmark run (CPU
# time 3.0 s -> 5.2 s); an 8 MB buffer folds that run in five bursts.
MIXTURE_BUFFER_BYTES = 8 * 2**20
MAX_RK4_STEPS = 10**5  # work budget; the largest shipped integrations take 500 steps


@dataclass(frozen=True)
class LindbladConfig:
    """Integration window: RK4 step dt (used only with a Hamiltonian), final time horizon."""

    dt: float = checked(POSITIVE)
    horizon: float = checked(POSITIVE)

    def __post_init__(self) -> None:
        check_fields(self)


def _steps(config: LindbladConfig) -> int:
    return max(1, int(math.ceil(config.horizon / config.dt - 1e-12)))


def oracle_cost(dim: int, steps: int, snapshots: int, free: bool) -> tuple[int, int]:
    """Estimated flops and live bytes of one integration on a dim-dimensional space.

    The flops are those of the RK4 GEMMs, 4 RHS per step of one
    (d, d) x (d, 2d) real GEMM each; without H the closed form does
    O(d^2) work per time and none are counted.  The bytes are complex
    rho, the real rate array and one complex d x d per snapshot, plus,
    with H, the real dense H, the four RK4 stages, the stage input and
    the two commutator work arrays.
    """
    d2 = dim * dim
    if not free:
        return 0, (16 + 8 + 16 * snapshots) * d2
    return steps * 4 * 4 * dim**3, (16 + 8 + 16 * snapshots + 8 + 7 * 16) * d2


# Ten times the largest tier-1 or benchmark oracle, oracle-compare's free
# H at M = 256 (500 steps, 4 checkpoints): 1.3e12 flops and 136 MB.
MAX_ORACLE_FLOPS, MAX_ORACLE_BYTES = (10 * c for c in oracle_cost(256, 500, 4, True))


def check_oracle_budget(
    dim: int, free: bool, config: LindbladConfig, snapshots: int
) -> None:
    """Reject an integration whose estimated cost exceeds the oracle budget.

    ``integrate_with_snapshots`` runs it first; the scenarios also run it
    before they build the d x d initial state.  Only an integration with
    a Hamiltonian takes RK4 steps, so only it is held to MAX_RK4_STEPS.
    """
    steps = 0
    if free:
        if not config.horizon / config.dt <= MAX_RK4_STEPS:
            raise ConfigError(f"horizon / dt = {config.horizon / config.dt:.3g} RK4 steps "
                              f"exceed the work budget of {MAX_RK4_STEPS:.3g}")
        steps = _steps(config)
    flops, nbytes = oracle_cost(dim, steps, snapshots, free)
    if flops > MAX_ORACLE_FLOPS or nbytes > MAX_ORACLE_BYTES:
        raise ConfigError(
            f"the oracle on a {dim}-dimensional space needs {flops:.3g} flops and "
            f"{nbytes / 1e6:.0f} MB of live arrays, over the work budget of "
            f"{MAX_ORACLE_FLOPS:.3g} flops and {MAX_ORACLE_BYTES / 1e6:.0f} MB; lower the "
            f"keys 'points', 'horizon' or 'checkpoints', or raise 'dt'"
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


def _check_step(
    config: LindbladConfig, params: GrwParams, n_particles: int, hamiltonian: np.ndarray
) -> None:
    h_scale = Propagator(hamiltonian, params.hbar).max_energy / params.hbar
    budget = config.dt * (params.lam * n_particles + h_scale)
    if budget > STEP_BUDGET * (1 + 1e-12):
        raise StepConditionError(
            f"dt*(lam*N + |H|/hbar) = {budget:.4f} exceeds the step budget {STEP_BUDGET}"
        )


def _snapshot_steps(h_step: float, snapshot_times: Sequence[float]) -> dict[int, float]:
    wanted: dict[int, float] = {}
    for t in snapshot_times:
        steps = t / h_step
        if abs(steps - round(steps)) > 1e-6:
            raise ConfigError(
                f"snapshot time {t} does not land on an integrator step (dt={h_step})"
            )
        wanted[int(round(steps))] = float(t)
    return wanted


def _rk4(
    rho0: DensityMatrix,
    h: np.ndarray,
    hbar: float,
    rates: np.ndarray,
    n_steps: int,
    h_step: float,
    wanted: Mapping[int, float],
) -> tuple[np.ndarray, dict[float, DensityMatrix]]:
    rho = np.array(rho0.entries, dtype=complex, order="C")  # _rhs views it as float rows
    snapshots: dict[float, DensityMatrix] = {}
    if 0 in wanted:
        snapshots[wanted[0]] = DensityMatrix(rho0.shape, rho)

    # Stages and their inputs live in buffers allocated once: ~10^4 fresh
    # d x d temporaries per run otherwise churn the heap.  The arithmetic
    # is that of rho + (h/6) (k1 + 2 k2 + 2 k3 + k4), in the same order.
    k1, k2, k3, k4, stage = (np.empty_like(rho) for _ in range(5))
    work = _work(rho, h)
    half = 0.5 * h_step
    for step in range(1, n_steps + 1):
        _rhs(rho, h, hbar, rates, k1, work)
        np.add(rho, np.multiply(half, k1, out=stage), out=stage)
        _rhs(stage, h, hbar, rates, k2, work)
        np.add(rho, np.multiply(half, k2, out=stage), out=stage)
        _rhs(stage, h, hbar, rates, k3, work)
        np.add(rho, np.multiply(h_step, k3, out=stage), out=stage)
        _rhs(stage, h, hbar, rates, k4, work)
        np.multiply(2.0, k2, out=k2)
        np.add(k1, k2, out=k1)
        np.multiply(2.0, k3, out=k3)
        np.add(k1, k3, out=k1)
        np.add(k1, k4, out=k1)
        np.multiply(h_step / 6.0, k1, out=k1)
        np.add(rho, k1, out=rho)
        if step in wanted:
            snapshots[wanted[step]] = DensityMatrix(rho0.shape, rho)
    return rho, snapshots


def integrate_with_snapshots(
    rho0: DensityMatrix,
    hamiltonian: np.ndarray | None,
    params: GrwParams,
    grids: Mapping[int, Grid],
    config: LindbladConfig,
    snapshot_times: Sequence[float] = (),
) -> tuple[DensityMatrix, dict[float, DensityMatrix]]:
    """The statistical operator at the horizon and at each snapshot time.

    Without a Hamiltonian each state is the closed form rho0 * exp(t lam R)
    and ``config.dt`` plays no part.  With one, the integration is
    classical 4-stage fixed-step RK4: dt must meet the step budget and
    the snapshot times must land on step boundaries (choose dt so that
    they divide the horizon).  The final state is always returned.
    """
    shape = rho0.shape
    check_oracle_budget(shape.total_dim, hamiltonian is not None, config, len(snapshot_times))
    if hamiltonian is not None:
        _check_step(config, params, len(grids), hamiltonian)
        h = _hamiltonian_matrix(hamiltonian, shape.total_dim)
        n_steps = _steps(config)
        h_step = config.horizon / n_steps
        wanted = _snapshot_steps(h_step, snapshot_times)

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
        rho, snapshots = _rk4(rho0, h, params.hbar, rates, n_steps, h_step, wanted)

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


def integrate(
    rho0: DensityMatrix,
    hamiltonian: np.ndarray | None,
    params: GrwParams,
    grids: Mapping[int, Grid],
    config: LindbladConfig,
) -> DensityMatrix:
    """Statistical operator at the horizon (see integrate_with_snapshots)."""
    final, _ = integrate_with_snapshots(rho0, hamiltonian, params, grids, config)
    return final


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
    states (``compare_mixtures`` folds it).  The threshold 5/sqrt(K) is
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


def compare_mixtures(
    samples: Iterable[Sequence[StateVector]], oracle: Mapping[float, DensityMatrix]
) -> list[EnsembleComparison]:
    """The trajectory mixture against the oracle at each of its times.

    Each item of ``samples`` is one trajectory's states at the oracle's
    times, in the mapping's order.  The states are folded in as they
    arrive: copied into a (checkpoints, rows, d) buffer of at most
    MIXTURE_BUFFER_BYTES (and at least MIXTURE_CHUNK rows), so no
    trajectory has to be kept.  When the buffer is full, and once more
    at the end, each checkpoint's sum gains psi psi^dagger of every
    MIXTURE_CHUNK rows from one GEMM.
    """
    times = list(oracle)
    d = oracle[times[0]].shape.total_dim
    sums = np.zeros((len(times), d, d), dtype=complex)
    chunk_bytes = len(times) * MIXTURE_CHUNK * d * np.dtype(complex).itemsize
    capacity = MIXTURE_CHUNK * max(1, MIXTURE_BUFFER_BYTES // chunk_bytes)
    buffer = np.empty((len(times), capacity, d), dtype=complex)

    def fold(rows: int) -> None:
        for total, states in zip(sums, buffer[:, :rows]):
            for start in range(0, rows, MIXTURE_CHUNK):
                chunk = states[start:start + MIXTURE_CHUNK]
                total += chunk.T @ chunk.conj()

    size = 0
    for states in samples:
        if len(states) != len(times):
            raise ValueError(f"a trajectory has {len(states)} checkpoint states, "
                             f"the oracle {len(times)}")
        row = size % capacity
        for block, state in zip(buffer, states):
            block[row] = state.amplitudes
        size += 1
        if row == capacity - 1:
            fold(capacity)
    if size % capacity:
        fold(size % capacity)
    return [ensemble_compare(total, size, oracle[t], t) for total, t in zip(sums, times)]
