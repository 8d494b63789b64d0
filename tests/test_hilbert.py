import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapselab.hilbert import (
    ALGEBRAIC_TOL,
    MAX_TOTAL_DIM,
    DensityMatrix,
    Operator,
    StateVector,
    SubsystemShape,
    apply_on_subsystem,
    hermitian_eig,
    partial_trace,
    tensor_product,
)
from collapselab.spin import Direction, squared_spin
from dense_helpers import embed


def basis_state(dims, index):
    amps = np.zeros(int(np.prod(dims)), dtype=complex)
    amps[index] = 1.0
    return StateVector(SubsystemShape(tuple(dims)), amps)


def random_state(rng, dims):
    amps = rng.normal(size=int(np.prod(dims))) + 1j * rng.normal(size=int(np.prod(dims)))
    return StateVector(SubsystemShape(tuple(dims)), amps).normalize()


# -- shapes -------------------------------------------------------------------


def test_shape_validation():
    with pytest.raises(ValueError):
        SubsystemShape(())
    with pytest.raises(ValueError):
        SubsystemShape((1, 3))
    with pytest.raises(ValueError):
        SubsystemShape((64, 65))  # 4160 > cap
    assert SubsystemShape((64, 64)).total_dim == MAX_TOTAL_DIM


# -- tensor product -----------------------------------------------------------


def test_tensor_product_basis_case():
    out = tensor_product(basis_state((2,), 0), basis_state((2,), 0))
    assert out.shape.dims == (2, 2)
    expected = np.zeros(4)
    expected[0] = 1.0
    np.testing.assert_allclose(out.amplitudes, expected, atol=0)


def test_tensor_product_norm_multiplicative():
    rng = np.random.default_rng(3)
    a = random_state(rng, (3,))
    b = random_state(rng, (4,))
    assert abs(tensor_product(a, b).norm() - 1.0) <= ALGEBRAIC_TOL
    a2 = StateVector(a.shape, 2.0 * a.amplitudes)
    assert abs(tensor_product(a2, b).norm() - 2.0) <= 1e-11


def test_tensor_product_row_major_first_factor_slowest():
    plus = StateVector(SubsystemShape((2,)), np.array([1, 1]) / math.sqrt(2))
    zero = basis_state((2,), 0)
    out = tensor_product(plus, zero)
    np.testing.assert_allclose(
        out.amplitudes, np.array([1, 0, 1, 0]) / math.sqrt(2), atol=1e-15
    )


# -- apply_on_subsystem -------------------------------------------------------


def test_apply_identity_leaves_state():
    rng = np.random.default_rng(5)
    psi = random_state(rng, (2, 3, 2))
    out = apply_on_subsystem(Operator.identity(3), 1, psi)
    np.testing.assert_allclose(out.amplitudes, psi.amplitudes, atol=0)


def test_apply_flip_on_first_factor():
    flip = Operator(np.array([[0, 1], [1, 0]], dtype=complex))
    out = apply_on_subsystem(flip, 0, basis_state((2, 2), 0))
    np.testing.assert_allclose(out.amplitudes, basis_state((2, 2), 2).amplitudes, atol=0)


def test_apply_diagonal_factorizes():
    rng = np.random.default_rng(7)
    a = random_state(rng, (3,))
    b = random_state(rng, (4,))
    d = Operator(np.diag(rng.normal(size=4)).astype(complex))
    left = apply_on_subsystem(d, 1, tensor_product(a, b))
    right = tensor_product(a, StateVector(b.shape, d.entries @ b.amplitudes))
    np.testing.assert_allclose(left.amplitudes, right.amplitudes, atol=1e-14)


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_on_subsystem(Operator.identity(3), 0, basis_state((2, 2), 0))


def test_apply_commutes_across_distinct_subsystems():
    rng = np.random.default_rng(11)
    psi = random_state(rng, (2, 3, 2))
    a = Operator(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    b = Operator(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    ab = apply_on_subsystem(b, 2, apply_on_subsystem(a, 0, psi))
    ba = apply_on_subsystem(a, 0, apply_on_subsystem(b, 2, psi))
    assert np.max(np.abs(ab.amplitudes - ba.amplitudes)) <= ALGEBRAIC_TOL


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_apply_commutes_property(seed):
    rng = np.random.default_rng(seed)
    psi = random_state(rng, (2, 2, 3))
    i, j = 0, rng.integers(1, 3)
    di, dj = psi.shape.dims[i], psi.shape.dims[j]
    a = Operator(rng.normal(size=(di, di)) + 1j * rng.normal(size=(di, di)))
    b = Operator(rng.normal(size=(dj, dj)) + 1j * rng.normal(size=(dj, dj)))
    ab = apply_on_subsystem(b, j, apply_on_subsystem(a, i, psi))
    ba = apply_on_subsystem(a, i, apply_on_subsystem(b, j, psi))
    assert np.max(np.abs(ab.amplitudes - ba.amplitudes)) <= ALGEBRAIC_TOL


# -- normalization ------------------------------------------------------------


def test_normalize_idempotent():
    rng = np.random.default_rng(13)
    psi = StateVector(SubsystemShape((5,)), rng.normal(size=5) + 1j * rng.normal(size=5))
    once = psi.normalize()
    twice = once.normalize()
    assert np.max(np.abs(once.amplitudes - twice.amplitudes)) <= ALGEBRAIC_TOL


def test_normalize_zero_state_rejected():
    with pytest.raises(ValueError):
        StateVector(SubsystemShape((2,)), np.zeros(2)).normalize()


# -- partial trace ------------------------------------------------------------


def test_partial_trace_product_state():
    rng = np.random.default_rng(17)
    a = random_state(rng, (3,))
    b = random_state(rng, (4,))
    rho = tensor_product(a, b).density_matrix()
    red = partial_trace(rho, keep=(0,))
    np.testing.assert_allclose(red.entries, a.density_matrix().entries, atol=1e-12)


def test_partial_trace_maximally_entangled_qubits():
    bell = StateVector(SubsystemShape((2, 2)), np.array([1, 0, 0, 1]) / math.sqrt(2))
    for keep in ((0,), (1,)):
        red = partial_trace(bell.density_matrix(), keep=keep)
        np.testing.assert_allclose(red.entries, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_singlet_by_direct_computation():
    # independent oracle: explicit 9x9 sum over the traced index
    c = 1.0 / math.sqrt(3.0)
    amps = np.zeros((3, 3), dtype=complex)
    amps[0, 2] = c
    amps[2, 0] = c
    amps[1, 1] = -c
    rho9 = np.outer(amps.reshape(-1), amps.reshape(-1).conj())
    direct = np.zeros((3, 3), dtype=complex)
    for mb in range(3):
        for mb2 in range(3):
            for ma in range(3):
                direct[mb, mb2] += rho9[3 * ma + mb, 3 * ma + mb2]
    psi = StateVector(SubsystemShape((3, 3)), amps.reshape(-1))
    red = partial_trace(psi.density_matrix(), keep=(1,))
    np.testing.assert_allclose(red.entries, direct, atol=1e-14)
    np.testing.assert_allclose(red.entries, np.eye(3) / 3.0, atol=1e-14)


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(19)
    psi = random_state(rng, (2, 3, 2))
    red = partial_trace(psi.density_matrix(), keep=(0, 2))
    assert abs(np.trace(red.entries) - 1.0) <= 1e-10
    assert np.max(np.abs(red.entries - red.entries.conj().T)) <= 1e-10


def test_partial_trace_invalid_inputs():
    rho = basis_state((2, 2), 0).density_matrix()
    with pytest.raises(ValueError):
        partial_trace(rho, keep=())
    with pytest.raises(ValueError):
        partial_trace(rho, keep=(2,))


# -- hermitian_eig ------------------------------------------------------------


def test_eig_diagonal():
    w, v = hermitian_eig(Operator(np.diag([1.0, 0.0, -1.0])))
    np.testing.assert_allclose(w, [-1.0, 0.0, 1.0], atol=1e-14)
    # columns are standard basis vectors, ordered by ascending eigenvalue
    np.testing.assert_allclose(np.abs(v), np.eye(3)[:, ::-1], atol=1e-12)


def test_eig_squared_spin_spectrum():
    rng = np.random.default_rng(23)
    for _ in range(5):
        n = Direction.from_vector(rng.normal(size=3))
        w, _ = hermitian_eig(squared_spin(n))
        np.testing.assert_allclose(w, [0.0, 1.0, 1.0], atol=1e-10)


def test_eig_reconstruction_random_hermitian():
    rng = np.random.default_rng(29)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = Operator(m + m.conj().T)
    w, v = hermitian_eig(h)
    recon = (v * w) @ v.conj().T
    assert np.max(np.abs(recon - h.entries)) <= 1e-9
    assert np.max(np.abs(v.conj().T @ v - np.eye(6))) <= 1e-10
    assert np.max(np.abs(h.entries @ v - v * w)) <= 1e-9


def test_eig_recovers_constructed_spectrum():
    rng = np.random.default_rng(31)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    lam = np.array([-2.0, -0.5, 0.0, 1.0, 3.0])
    h = Operator((q * lam) @ q.conj().T)
    w, _ = hermitian_eig(h)
    np.testing.assert_allclose(w, lam, atol=1e-9)


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eig(Operator(np.array([[0.0, 1.0], [0.0, 0.0]])))


# -- density matrices and embedding ------------------------------------------


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(SubsystemShape((2,)), np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        DensityMatrix(SubsystemShape((2,)), np.eye(2))  # trace 2


def test_embed_matches_apply():
    rng = np.random.default_rng(37)
    shape = SubsystemShape((2, 3, 2))
    psi = random_state(rng, shape.dims)
    op = Operator(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    via_embed = embed(op, 1, shape).entries @ psi.amplitudes
    via_apply = apply_on_subsystem(op, 1, psi).amplitudes
    np.testing.assert_allclose(via_embed, via_apply, atol=1e-12)
