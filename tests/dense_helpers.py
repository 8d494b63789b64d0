"""Dense reference objects that only the tests use: a localization
operator as a full diagonal matrix, an operator embedded in a composite
space by Kronecker products, and a random orthonormal triple.  The
package itself never builds these; they check its structured kernels."""
import numpy as np

from collapselab.grw import Grid, gaussian_template
from collapselab.hilbert import Operator, SubsystemShape
from collapselab.spin import OrthoTriple


def localization_operator(grid: Grid, alpha: float, center: float) -> Operator:
    """Gaussian localization operator centred at an on-grid coordinate."""
    k = grid.index_of(center)
    return Operator(np.diag(np.roll(gaussian_template(grid, alpha), k)))


def embed(op: Operator, k: int, shape: SubsystemShape) -> Operator:
    """Dense I x ... x op x ... x I on the composite space."""
    shape.validate_index(k)
    if op.dim != shape.dims[k]:
        raise ValueError("operator dim does not match the addressed factor")
    out = np.array([[1.0 + 0j]])
    for i, d in enumerate(shape.dims):
        out = np.kron(out, op.entries if i == k else np.eye(d))
    return Operator(out)


def random_triple(rng: np.random.Generator) -> OrthoTriple:
    """A right-handed triple from a Haar-random orthogonal matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))  # unique QR, uniform over O(3)
    return OrthoTriple.from_vectors(q[:, 0], q[:, 1], q[:, 2])
