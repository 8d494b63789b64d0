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

The commutator costs one matrix product.  With K = H rho,

    [H, rho] = H rho - rho H = K - K^dagger,

because rho H = (H rho)^dagger when both H and rho are Hermitian.  H is
Hermitian by contract (``integrate_with_snapshots`` rejects one that
is not), and every RK4 stage rho stays Hermitian to the last bit: K - K^dagger
is exactly anti-Hermitian and R is exactly symmetric, so each stage
adds a Hermitian increment to a Hermitian state.  Callers of
``lindblad_rhs`` must pass a Hermitian rho for the same reason.

H has real entries whenever it is a real symmetric matrix, as the free
Hamiltonian always is.  K is then one real GEMM, H.real applied to
rho viewed as a (d, 2d) float64 array (real and imaginary parts
interleaved along each row), and the result is viewed back as complex.
A second real GEMM with H.imag is added only when H has an imaginary
part.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, GridAdequacyError, InvariantViolationError, StepConditionError
from .grw import Grid, GrwParams, gaussian_template
from .hilbert import SPECTRAL_TOL, DensityMatrix, Operator, SubsystemShape
from .schema import POSITIVE, check_fields, checked

STEP_BUDGET = 0.05
TRACE_TOL = 1e-8
HERMITICITY_TOL = 1e-8
POSITIVITY_FLOOR = -1e-6
MIXTURE_CHUNK = 256  # trials stacked per GEMM in ensemble_compare; bounds peak memory
MAX_RK4_STEPS = 10**5  # work budget; the largest shipped integrations take 500 steps


@dataclass(frozen=True)
class LindbladConfig:
    """Fixed-step integration window: step dt, final time horizon."""

    dt: float = checked(POSITIVE)
    horizon: float = checked(POSITIVE)

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.horizon / self.dt <= MAX_RK4_STEPS:
            raise ConfigError(f"horizon / dt = {self.horizon / self.dt:.3g} RK4 steps exceed "
                              f"the work budget of {MAX_RK4_STEPS:.3g}")


@lru_cache(maxsize=128)
def _overlap_kernel(points: int, spacing: float, alpha: float) -> np.ndarray:
    g = np.asarray(gaussian_template(Grid(points, spacing), alpha))
    cols = np.stack([np.roll(g, k) for k in range(points)], axis=1)  # cols[q, k]
    kernel = (cols @ cols.T) * spacing
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


def _hamiltonian_parts(hamiltonian: Operator | None) -> tuple[np.ndarray, ...]:
    """H.real, plus H.imag when it is nonzero, as contiguous float64 arrays."""
    if hamiltonian is None:
        return ()
    h = hamiltonian.entries
    if np.any(h.imag):
        return np.ascontiguousarray(h.real), np.ascontiguousarray(h.imag)
    return (np.ascontiguousarray(h.real),)


def _rhs(
    rho: np.ndarray,
    h_parts: tuple[np.ndarray, ...],
    hbar: float,
    rates: np.ndarray,
) -> np.ndarray:
    """lam R * rho - (i/hbar)(K - K^dagger) with K = H rho; rho C-contiguous."""
    out = rates * rho
    if h_parts:
        d = rho.shape[0]
        flat = rho.view(np.float64).reshape(d, 2 * d)
        k = (h_parts[0] @ flat).view(complex)
        if len(h_parts) == 2:
            k += 1j * (h_parts[1] @ flat).view(complex)
        comm = np.ascontiguousarray(k.T)  # a contiguous copy transposes faster than a strided read
        np.conjugate(comm, out=comm)
        np.subtract(k, comm, out=comm)
        comm *= -1j / hbar
        out += comm
    return out


def lindblad_rhs(
    rho: DensityMatrix,
    hamiltonian: Operator | None,
    params: GrwParams,
    grids: Mapping[int, Grid],
) -> np.ndarray:
    """Time derivative of the statistical operator (Hermitian, traceless).

    ``hamiltonian`` must be Hermitian (see the module docstring).
    """
    rates = params.lam * _rate_array(rho.shape, grids, params.alpha)
    return _rhs(
        np.ascontiguousarray(rho.entries),
        _hamiltonian_parts(hamiltonian),
        params.hbar,
        rates,
    )


def _check_step(
    config: LindbladConfig,
    params: GrwParams,
    n_particles: int,
    hamiltonian: Operator | None,
) -> None:
    h_scale = 0.0
    if hamiltonian is not None:
        if not hamiltonian.is_hermitian():
            raise ConfigError("the Hamiltonian must be Hermitian")
        h_scale = float(np.max(np.abs(np.linalg.eigvalsh(hamiltonian.entries)))) / params.hbar
    budget = config.dt * (params.lam * n_particles + h_scale)
    if budget > STEP_BUDGET * (1 + 1e-12):
        raise StepConditionError(
            f"dt*(lam*N + |H|/hbar) = {budget:.4f} exceeds the step budget {STEP_BUDGET}"
        )


def integrate_with_snapshots(
    rho0: DensityMatrix,
    hamiltonian: Operator | None,
    params: GrwParams,
    grids: Mapping[int, Grid],
    config: LindbladConfig,
    snapshot_times: Sequence[float] = (),
) -> tuple[DensityMatrix, dict[float, DensityMatrix]]:
    """Classical 4-stage fixed-step integration up to the horizon.

    Snapshot times must land on step boundaries (choose dt so that they
    divide the horizon); the final state is always returned.
    """
    _check_step(config, params, len(grids), hamiltonian)
    n_steps = max(1, int(math.ceil(config.horizon / config.dt - 1e-12)))
    h_step = config.horizon / n_steps

    wanted: dict[int, float] = {}
    for t in snapshot_times:
        steps = t / h_step
        if abs(steps - round(steps)) > 1e-6:
            raise ConfigError(
                f"snapshot time {t} does not land on an integrator step (dt={h_step})"
            )
        wanted[int(round(steps))] = float(t)

    rates = params.lam * _rate_array(rho0.shape, grids, params.alpha)
    # d tr(rho)/dt = sum_q rates[q, q] rho[q, q] vanishes only where each grid's
    # completeness sum is 1; every returned state must keep its trace to SPECTRAL_TOL
    drift = float(np.max(np.abs(np.diagonal(rates)))) * config.horizon
    if not drift <= SPECTRAL_TOL:
        raise GridAdequacyError(f"the grid's completeness defect drifts the trace by "
                                f"{drift:.3e}; it cannot resolve the localization width")
    h_parts = _hamiltonian_parts(hamiltonian)
    hbar = params.hbar
    rho = np.array(rho0.entries, dtype=complex, order="C")  # _rhs views it as float rows
    snapshots: dict[float, DensityMatrix] = {}
    if 0 in wanted:
        snapshots[wanted[0]] = DensityMatrix(rho0.shape, rho)

    for step in range(1, n_steps + 1):
        k1 = _rhs(rho, h_parts, hbar, rates)
        k2 = _rhs(rho + 0.5 * h_step * k1, h_parts, hbar, rates)
        k3 = _rhs(rho + 0.5 * h_step * k2, h_parts, hbar, rates)
        k4 = _rhs(rho + h_step * k3, h_parts, hbar, rates)
        rho = rho + (h_step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step in wanted:
            snapshots[wanted[step]] = DensityMatrix(rho0.shape, rho)

    trace_defect = abs(complex(np.trace(rho)) - 1.0)
    if trace_defect > TRACE_TOL:
        raise InvariantViolationError(f"trace drifted by {trace_defect:.3e}")
    herm_defect = float(np.max(np.abs(rho - rho.conj().T)))
    if herm_defect > HERMITICITY_TOL:
        raise InvariantViolationError(f"hermiticity drifted by {herm_defect:.3e}")
    final = DensityMatrix(rho0.shape, rho)
    min_eig = final.min_eigenvalue()
    if min_eig < POSITIVITY_FLOOR:
        raise InvariantViolationError(f"minimum eigenvalue {min_eig:.3e} below floor")
    return final, snapshots


def integrate(
    rho0: DensityMatrix,
    hamiltonian: Operator | None,
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
    trajectories: Sequence, rho_oracle: DensityMatrix, at: float
) -> EnsembleComparison:
    """Trace distance between the empirical trajectory mixture and the oracle.

    The threshold 5/sqrt(K) is the standard Monte Carlo error scale
    with an explicit safety factor.
    """
    if not trajectories:
        raise ValueError("ensemble is empty")
    d = rho_oracle.shape.total_dim
    acc = np.zeros((d, d), dtype=complex)
    for start in range(0, len(trajectories), MIXTURE_CHUNK):
        chunk = trajectories[start:start + MIXTURE_CHUNK]
        states = np.stack([traj.state_at(at).amplitudes for traj in chunk])
        acc += states.T @ states.conj()  # sum of psi psi^dagger over the chunk
    acc /= len(trajectories)
    rho_mc = DensityMatrix(rho_oracle.shape, acc)
    return EnsembleComparison(
        time=at,
        size=len(trajectories),
        distance=trace_distance(rho_mc, rho_oracle),
        threshold=5.0 / math.sqrt(len(trajectories)),
    )
