"""Dual functionals for the three basis families and the global projector.

Each basis function owns one functional, and the functionals of one entity
share their samples, so they are applied one entity at a time: the functionals
of a patch are tensor products of univariate local-interpolation duals applied
to the pullback; those of an edge are S+ duals of the edge trace and S- duals
of the scaled transversal derivative (h/p) grad(phi) . d; those of a vertex
are the six scaled point derivatives at the vertex. Patch and edge functionals
sample every element once at the points of ``bspline.local_duals`` (one
tensor grid per patch, one pass along one side per edge) and gather each
function's samples by its element. Concatenated in the order of the basis
they give the global projector, which reproduces every member of the space.

A field is sampled through ``grid_values`` on a tensor grid (the patch
functionals and the L2 fit) and through ``jets`` at scattered points (the
edge and vertex functionals): physical value, gradient and Hessian up to the
requested order. Members of the space are sampled through the extraction
matrices, several members at once when given a coefficient matrix, so the
functionals applied once to the identity coefficient block give the
biorthogonality matrix D C.
"""

import numpy as np

from .bspline import local_duals
from .errors import InvalidConfigError
from .gluing import transversal_vector
from .multipatch import CORNER_UV, rotate_uv
from .space import _edge_index_set, physical_derivatives

__all__ = [
    "AnalyticField",
    "SpaceField",
    "patch_duals",
    "edge_duals",
    "vertex_duals",
    "project",
    "biorthogonality_matrix",
]


class AnalyticField:
    """Scalar field given by physical-coordinate callables.

    ``grad`` and ``hess`` may be omitted when only values are consumed
    (plain L2 fitting); the projector needs all three.
    """

    def __init__(self, geometry, value, grad=None, hess=None):
        self.geometry = geometry
        self._samplers = (value, grad, hess)

    def jets(self, patch, uv, order):
        """Value, then gradient (order >= 1), then Hessian (order 2)."""
        samplers = self._samplers[: order + 1]
        if any(s is None for s in samplers):
            raise InvalidConfigError(
                f"field has no derivative sampler of order {order}"
            )
        x = self.geometry.patches[patch].point(uv)
        return tuple(np.asarray(s(x), dtype=float) for s in samplers)

    def grid_values(self, patch, x1, x2):
        """Values on the x1-major flattened tensor grid x1 x x2."""
        x = self.geometry.patches[patch].grid_jet(x1, x2, 0)[:, 0, 0]
        return np.asarray(self._samplers[0](x), dtype=float)


class SpaceField:
    """Member of the space given by a coefficient vector.

    A (dim, k) coefficient matrix stands for k members at once; every sample
    then carries an axis of length k after the first. Samples come from the
    sparse jet matrices of the patch's tensor B-splines times its extraction
    matrix.
    """

    def __init__(self, space, coeffs):
        self.space = space
        self.geometry = space.geometry
        self.coeffs = coeffs

    def jets(self, patch, uv, order):
        """Value, then gradient (order >= 1), then Hessian (order 2); values
        alone need no patch map."""
        uv = np.atleast_2d(uv)
        fj = self.space.evaluate(self.coeffs, patch, uv, order)
        if order == 0:
            return (fj[:, 0, 0],)
        gj = self.geometry.patches[patch].jet(uv, order)
        return physical_derivatives(gj, fj)[: order + 1]

    def grid_values(self, patch, x1, x2):
        """Values on the x1-major flattened tensor grid x1 x x2."""
        grid = self.space.tspace.spline(self.space.combine(self.coeffs, patch))
        return grid.grid_jet(x1, x2, 0)[:, 0, 0]


def patch_duals(space, i, field):
    """Tensor-product local duals of the pullback onto patch i.

    One tensor grid of every element's dual points per direction; the
    interior indices are read from it one direction at a time.
    """
    duals = local_duals(space.usp)
    x = duals.points.ravel()
    vals = field.grid_values(i, x, x)
    vals = vals.reshape((len(x), len(x)) + vals.shape[1:])
    inner = slice(2, space.N - 2)
    out = duals.apply(duals.apply(vals, inner).swapaxes(0, 1), inner).swapaxes(0, 1)
    return out.reshape((-1,) + out.shape[2:])


def edge_duals(space, eid, field):
    """S+ duals of the trace, then S- duals of the scaled transversal
    derivative, sampled in one pass along the first standard-form side."""
    idx = _edge_index_set(space.sminus.N)
    plus, minus = local_duals(space.splus), local_duals(space.sminus)
    tp, dp = plus.points.ravel(), minus.points.ravel()
    asm = space.edge_assembly[eid]
    ipatch, rot = asm.side1
    t = np.concatenate([tp, dp])
    uv = rotate_uv(np.column_stack([np.zeros_like(t), t]), rot)
    val, grad = field.jets(ipatch, uv, 1)
    d, _ = transversal_vector(asm.gluing, asm.P1, dp)
    hp = space.config.h / space.config.p
    deriv = hp * np.einsum("m...i,mi->m...", grad[len(tp) :], d)
    return np.concatenate([
        plus.apply(val[: len(tp)], [j for j, s in idx if s == 0]),
        minus.apply(deriv, [j for j, s in idx if s == 1]),
    ])


def vertex_duals(space, vid, field):
    """Scaled point derivatives d^j phi(x) / sigma^|j| at the vertex, in
    ``VERTEX_INDEX_ORDER``."""
    asm = space.vertex_assembly[vid]
    ipatch, corner = asm.vertex.corners[0]
    val, g, H = field.jets(ipatch, CORNER_UV[corner : corner + 1], 2)
    s = asm.sigma
    g, H = g[0] / s, H[0] / s**2
    return np.stack(
        [val[0], g[..., 0], g[..., 1], H[..., 0, 0], H[..., 0, 1], H[..., 1, 1]]
    )


def project(space, field):
    """Global projector: coefficient a is functional a applied to the field.

    Reproduces members of the space; for general C2 fields it is a local
    quasi-interpolant. A SpaceField of k members gives a (dim, k) matrix.
    """
    mp = space.geometry
    blocks = [patch_duals(space, i, field) for i in range(len(mp.patches))]
    blocks += [edge_duals(space, e.id, field) for e in mp.edges]
    blocks += [vertex_duals(space, v.id, field) for v in mp.vertices]
    return np.concatenate(blocks)


def biorthogonality_matrix(space):
    """Matrix D C of all functionals applied to all basis functions.

    The functionals see every basis function at once as the identity
    coefficient block; the result equals the identity when basis and dual
    basis are biorthogonal.
    """
    return project(space, SpaceField(space, np.eye(space.dim)))
