"""Dual functionals for the three basis families and the global projector.

Each basis function owns one functional: patch-interior functions pair with
tensor products of univariate local-interpolation duals applied to the
pullback; edge trace functions pair with S+ duals of the edge trace; edge
derivative functions pair with S- duals of the scaled transversal derivative
(h/p) grad(phi) . d along the edge; vertex functions pair with scaled point
derivatives at the vertex. Summing coefficient-times-basis over all
functionals yields the global projector, which reproduces every member of
the space.

Fields that are members of the space are sampled through the extraction
matrices, several members at once when given a coefficient matrix; the
functionals applied once to the identity coefficient block give the
biorthogonality matrix D C. Both field classes also sample whole tensor
grids by sum factorization (``grid_values``), which the L2 fit uses; the
functionals here sample scattered points (``values``).
"""

import numpy as np
import scipy.sparse

from .bspline import dual_functional_weights
from .errors import InvalidConfigError
from .gluing import transversal_vector
from .multipatch import CORNER_UV
from .space import physical_derivatives

__all__ = [
    "AnalyticField",
    "SpaceField",
    "patch_dual",
    "edge_dual",
    "vertex_dual",
    "project",
    "biorthogonality_matrix",
]


def rotate_uv(uv, k):
    """Apply the quarter-turn map k times to parametric points."""
    uv = np.atleast_2d(np.asarray(uv, dtype=float))
    for _ in range(k % 4):
        uv = np.column_stack([1.0 - uv[:, 1], uv[:, 0]])
    return uv


class AnalyticField:
    """Scalar field given by physical-coordinate callables.

    ``grad`` and ``hess`` may be omitted when only values are consumed
    (plain L2 fitting); the projector needs all three.
    """

    def __init__(self, geometry, value, grad=None, hess=None):
        self.geometry = geometry
        self._value = value
        self._grad = grad
        self._hess = hess

    def values(self, patch, uv):
        x = self.geometry.patches[patch].point(uv)
        return np.asarray(self._value(x), dtype=float)

    def grid_values(self, patch, x1, x2):
        """Values on the x1-major flattened tensor grid x1 x x2."""
        x = self.geometry.patches[patch].grid_jet(x1, x2, 0)[:, 0, 0]
        return np.asarray(self._value(x), dtype=float)

    def gradients(self, patch, uv):
        if self._grad is None:
            raise InvalidConfigError("field has no gradient sampler")
        x = self.geometry.patches[patch].point(uv)
        return np.asarray(self._grad(x), dtype=float)

    def hessians(self, patch, uv):
        if self._hess is None:
            raise InvalidConfigError("field has no Hessian sampler")
        x = self.geometry.patches[patch].point(uv)
        return np.asarray(self._hess(x), dtype=float)


class SpaceField:
    """Member of the space given by a coefficient vector.

    A (dim, k) coefficient matrix, dense or sparse, stands for k members at
    once; every sample then carries an axis of length k after the first.
    Samples come from the sparse jet matrices of the patch's tensor B-splines
    times its extraction matrix.
    """

    def __init__(self, space, coeffs):
        self.space = space
        self.geometry = space.geometry
        self.coeffs = coeffs

    def _jets(self, patch, uv, order):
        fj = self.space.evaluate(self.coeffs, patch, uv, order)
        gj = self.geometry.patches[patch].jet(uv, order)
        return fj, gj

    def values(self, patch, uv):
        fj, _ = self._jets(patch, np.atleast_2d(uv), 0)
        return fj[:, 0, 0]

    def grid_values(self, patch, x1, x2):
        """Values on the x1-major flattened tensor grid x1 x x2, for a
        dense coefficient vector or matrix."""
        grid = self.space.tspace.spline(self.space.combine(self.coeffs, patch))
        return grid.grid_jet(x1, x2, 0)[:, 0, 0]

    def gradients(self, patch, uv):
        fj, gj = self._jets(patch, np.atleast_2d(uv), 1)
        _, grad, _ = physical_derivatives(gj, fj)
        return grad

    def hessians(self, patch, uv):
        fj, gj = self._jets(patch, np.atleast_2d(uv), 2)
        _, _, hess = physical_derivatives(gj, fj)
        return hess


def patch_dual(space, patch, j, field):
    """Tensor-product local dual of the pullback onto one patch."""
    j1, j2 = j
    pts1, w1 = dual_functional_weights(space.usp, j1)
    pts2, w2 = dual_functional_weights(space.usp, j2)
    uv = np.column_stack(
        [np.repeat(pts1, len(pts2)), np.tile(pts2, len(pts1))]
    )
    vals = field.values(patch, uv)
    vals = vals.reshape((len(pts1), len(pts2)) + vals.shape[1:])
    return np.einsum("i,ij...,j->...", w1, vals, w2)


def edge_dual(space, eid, index, field):
    """Edge functional: S+ dual of the trace, or S- dual of the scaled
    transversal derivative, both sampled from the first standard-form patch."""
    j, s = index
    asm = space.edge_assembly[eid]
    ipatch, rot = asm.side1
    if s == 0:
        pts, w = dual_functional_weights(space.splus, j)
        uv = rotate_uv(np.column_stack([np.zeros_like(pts), pts]), rot)
        return w @ field.values(ipatch, uv)
    pts, w = dual_functional_weights(space.sminus, j)
    uv = rotate_uv(np.column_stack([np.zeros_like(pts), pts]), rot)
    d, _ = transversal_vector(asm.gluing, asm.P1, pts)
    grads = field.gradients(ipatch, uv)
    hp = space.config.h / space.config.p
    return w @ (hp * np.einsum("m...i,mi->m...", grads, d))


def vertex_dual(space, vid, j, field):
    """Scaled point derivative at the vertex: d^j phi(x) / sigma^|j|."""
    j1, j2 = j
    asm = space.vertex_assembly[vid]
    ipatch, corner = asm.vertex.corners[0]
    uv = CORNER_UV[corner : corner + 1]
    order = j1 + j2
    if order == 0:
        val = field.values(ipatch, uv)[0]
    elif order == 1:
        g = field.gradients(ipatch, uv)[0]
        val = g[..., 0] if j1 else g[..., 1]
    else:
        H = field.hessians(ipatch, uv)[0]
        val = H[..., 0, 0] if j1 == 2 else (H[..., 1, 1] if j2 == 2 else H[..., 0, 1])
    return val / asm.sigma**order


def dual_apply(space, a, field):
    """Apply the functional paired with basis function a.

    Returns a number for a single field and a length-k vector for a
    SpaceField of k members.
    """
    fid = space.functions[a].id
    if fid.kind == "patch":
        return patch_dual(space, fid.owner, fid.index, field)
    if fid.kind == "edge":
        return edge_dual(space, fid.owner, fid.index, field)
    return vertex_dual(space, fid.owner, fid.index, field)


def project(space, field):
    """Global projector: coefficient a is functional a applied to the field.

    Reproduces members of the space; for general C2 fields it is a local
    quasi-interpolant. A SpaceField of k members gives a (dim, k) matrix.
    """
    return np.array([dual_apply(space, a, field) for a in range(space.dim)])


def biorthogonality_matrix(space):
    """Matrix D C of all functionals applied to all basis functions.

    The functionals see every basis function at once as the identity
    coefficient block; the result equals the identity when basis and dual
    basis are biorthogonal.
    """
    basis = SpaceField(space, scipy.sparse.identity(space.dim, format="csr"))
    return project(space, basis)
