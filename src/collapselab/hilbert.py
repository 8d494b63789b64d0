"""Dense complex linear algebra over small composite Hilbert spaces.

States live on tensor products of small factors (spin-1 triplets, 1D
position grids).  Indexing is row-major with the first factor varying
slowest, so ``tensor_product(a, b)`` places factor ``a`` first; the
basis-state tests pin this convention.

All objects are immutable after construction and every operation is a
pure function, so values can be shared freely across workers.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable

import numpy as np

from .configs import MAX_TOTAL_DIM

# Tolerances fixed for the whole package; total dimensions are small
# enough (<= 4096) that these are comfortably achievable.
ALGEBRAIC_TOL = 1e-12
SPECTRAL_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-9


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SubsystemShape:
    """Ordered factor dimensions of a composite space."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValueError("shape needs at least one factor")
        if any(d < 2 for d in dims):
            raise ValueError(f"every factor dimension must be >= 2, got {dims}")
        if prod(dims) > MAX_TOTAL_DIM:
            raise ValueError(
                f"total dimension {prod(dims)} exceeds the dense-storage cap {MAX_TOTAL_DIM}"
            )

    @property
    def total_dim(self) -> int:
        return prod(self.dims)

    def validate_index(self, k: int) -> int:
        if not 0 <= k < len(self.dims):
            raise ValueError(f"subsystem index {k} out of range for {self.dims}")
        return k

    def concat(self, other: "SubsystemShape") -> "SubsystemShape":
        return SubsystemShape(self.dims + other.dims)


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over a composite space, row-major layout."""

    shape: SubsystemShape
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != self.shape.total_dim:
            raise ValueError(
                f"amplitude count {amps.size} does not match shape {self.shape.dims}"
            )
        object.__setattr__(self, "amplitudes", _frozen(amps))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalize(self) -> "StateVector":
        n = self.norm()
        if n < 1e-14:
            raise ValueError("cannot normalize a zero state")
        return StateVector(self.shape, self.amplitudes / n)

    def reshaped(self) -> np.ndarray:
        """Amplitudes viewed as an array with one axis per factor."""
        return self.amplitudes.reshape(self.shape.dims)

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(self.shape, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class Operator:
    """Dense square operator on one factor or on a whole composite space."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        ent = np.asarray(self.entries, dtype=complex)
        if ent.ndim != 2 or ent.shape[0] != ent.shape[1]:
            raise ValueError(f"operator entries must be square, got {ent.shape}")
        object.__setattr__(self, "entries", _frozen(ent))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @staticmethod
    def identity(dim: int) -> "Operator":
        return Operator(np.eye(dim, dtype=complex))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace operator on a composite space.

    Hermiticity and trace are validated on construction.  Positivity
    (smallest eigenvalue >= -1e-8 nominally) costs a full spectrum, so
    it is checked on demand via :meth:`min_eigenvalue`.
    """

    shape: SubsystemShape
    entries: np.ndarray

    def __post_init__(self) -> None:
        ent = np.asarray(self.entries, dtype=complex)
        d = self.shape.total_dim
        if ent.shape != (d, d):
            raise ValueError(f"entries shape {ent.shape} does not match total dim {d}")
        herm_defect = float(np.max(np.abs(ent - ent.conj().T)))
        if herm_defect > SPECTRAL_TOL:
            raise ValueError(f"density matrix not Hermitian (defect {herm_defect:.3e})")
        tr = complex(np.trace(ent))
        if abs(tr - 1.0) > SPECTRAL_TOL:
            raise ValueError(f"density matrix trace {tr} is not 1")
        object.__setattr__(self, "entries", _frozen(ent))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.entries)[0])


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Composite state a (x) b, factor ``a`` first (slowest index)."""
    return StateVector(a.shape.concat(b.shape), np.kron(a.amplitudes, b.amplitudes))


def apply_on_subsystem(op: Operator, k: int, psi: StateVector) -> StateVector:
    """Apply ``op`` to factor ``k`` only, i.e. (I x ... x op x ... x I) psi.

    Does not normalize the result.
    """
    k = psi.shape.validate_index(k)
    if op.dim != psi.shape.dims[k]:
        raise ValueError(
            f"operator dim {op.dim} does not match factor {k} dim {psi.shape.dims[k]}"
        )
    arr = psi.reshaped()
    out = np.tensordot(op.entries, arr, axes=([1], [k]))
    out = np.moveaxis(out, 0, k)
    return StateVector(psi.shape, out.reshape(-1))


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state on the ``keep`` factors (ascending order)."""
    dims = rho.shape.dims
    n = len(dims)
    keep_t = tuple(sorted(set(int(k) for k in keep)))
    if not keep_t:
        raise ValueError("keep set must be non-empty")
    for k in keep_t:
        if not 0 <= k < n:
            raise ValueError(f"subsystem index {k} out of range for {dims}")
    traced = tuple(i for i in range(n) if i not in keep_t)
    t = rho.entries.reshape(dims + dims)
    perm = keep_t + traced
    t = t.transpose(perm + tuple(n + p for p in perm))
    dk = prod(dims[i] for i in keep_t)
    dt = prod(dims[i] for i in traced) if traced else 1
    t = t.reshape(dk, dt, dk, dt)
    reduced = np.einsum("abcb->ac", t)
    return DensityMatrix(SubsystemShape(tuple(dims[i] for i in keep_t)), reduced)


def hermitian_eig(op: Operator) -> tuple[np.ndarray, np.ndarray]:
    """Spectrum of a Hermitian operator.

    Returns (eigenvalues ascending, eigenvectors as orthonormal columns).
    Raises ValueError for inputs that are not Hermitian within the
    spectral tolerance.
    """
    defect = float(np.max(np.abs(op.entries - op.entries.conj().T)))
    if defect > SPECTRAL_TOL:
        raise ValueError(f"operator is not Hermitian (defect {defect:.3e})")
    w, v = np.linalg.eigh(op.entries)
    return w, v


def expm_hermitian(generator: Operator, scale: complex) -> Operator:
    """exp(scale * G) for Hermitian G, via its eigendecomposition."""
    w, v = hermitian_eig(generator)
    return Operator((v * np.exp(scale * w)) @ v.conj().T)
