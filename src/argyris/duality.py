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

A field is sampled through one method, ``jets``, on a tensor grid: physical
value, gradient and Hessian up to the requested order. The patch functionals
and the L2 fit sample the full grid of a patch, the edge functionals a side
(a grid with one singleton direction, ``rotate_grid``) and the vertex
functionals a 1 x 1 corner grid. Members of the space are sampled through
the extraction matrices, several members at once when given a coefficient
matrix.

The biorthogonality matrix D C is read entity by entity, without a (rows,
dim) array: an edge's or vertex's functionals, applied once to unit
coefficients on the rows of one patch they see, multiply those rows of C[i];
a patch's are one univariate table in both directions over C[i]'s entries.
"""

import numpy as np

from .bspline import TensorSpline, _basis_values, local_duals
from .errors import InvalidConfigError
from .gluing import transversal_vector
from .multipatch import edge_frames, rotate_grid
from .space import CSRMatrix, _edge_index_set, physical_derivatives

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

    def jets(self, patch, x1, x2, order):
        """Value, then gradient (order >= 1), then Hessian (order 2), on the
        x1-major flattened tensor grid x1 x x2."""
        samplers = self._samplers[: order + 1]
        if any(s is None for s in samplers):
            raise InvalidConfigError(
                f"field has no derivative sampler of order {order}"
            )
        x = self.geometry.patches[patch].grid_jet(x1, x2, 0)[:, 0, 0]
        return tuple(np.asarray(s(x), dtype=float) for s in samplers)


class SpaceField:
    """Member of the space given by a coefficient vector.

    A (dim, k) coefficient matrix stands for k members at once; every sample
    then carries an axis of length k after the first. Samples come from the
    member's coefficient grid on the patch (its extraction matrix times the
    coefficients), evaluated like the patch map by sum factorization.
    """

    def __init__(self, space, coeffs):
        self.space = space
        self.geometry = space.geometry
        self.coeffs = coeffs

    def _grid(self, patch):  # the coefficient grids (N, N) or (N, N, k)
        return self.space.combine(self.coeffs, patch)

    def jets(self, patch, x1, x2, order):
        """Value, then gradient (order >= 1), then Hessian (order 2), on the
        x1-major flattened tensor grid x1 x x2; values alone need no patch
        map."""
        fj = TensorSpline(self.space.config, self._grid(patch)).grid_jet(x1, x2, order)
        if order == 0:
            return (fj[:, 0, 0],)
        gj = self.geometry.patches[patch].grid_jet(x1, x2, order)
        return physical_derivatives(gj, fj)[: order + 1]


class _UnitField(SpaceField):
    """Member k has the one unit coefficient at flat position rows[k] of the
    grid of whichever patch a functional samples; ``coeffs`` holds these
    flat (N*N, k) grids."""

    def __init__(self, space, rows):
        super().__init__(space, np.zeros((space.N**2, len(rows))))
        self.coeffs[rows, np.arange(len(rows))] = 1.0

    def _grid(self, patch):
        return self.coeffs.reshape(self.space.shape + (-1,))


def patch_duals(space, i, field):
    """Tensor-product local duals of the pullback onto patch i.

    One tensor grid of every element's dual points per direction; the
    interior indices are read from it one direction at a time.
    """
    space.block("patch", i)
    duals = local_duals(space.config)
    x = duals.points.ravel()
    vals = field.jets(i, x, x, 0)[0]
    vals = vals.reshape((len(x), len(x)) + vals.shape[1:])
    inner = slice(2, space.N - 2)
    out = duals.apply(duals.apply(vals, inner).swapaxes(0, 1), inner).swapaxes(0, 1)
    return out.reshape((-1,) + out.shape[2:])


def edge_duals(space, eid, field):
    """S+ duals of the trace, then S- duals of the scaled transversal
    derivative, sampled in one pass along the first standard-form side."""
    space.block("edge", eid)
    idx = _edge_index_set(space.sminus.N)
    plus, minus = local_duals(space.splus), local_duals(space.sminus)
    tp, dp = plus.points.ravel(), minus.points.ravel()
    (ipatch, rot), *_ = edge_frames(space.geometry.edges[eid])
    t = np.concatenate([tp, dp])
    val, grad = field.jets(ipatch, *rotate_grid([0.0], t, rot), 1)
    P1 = space.geometry.patches[ipatch].rotate(rot)
    d, _ = transversal_vector(space.gluing[eid], P1, dp)
    hp = space.config.h / space.config.p
    deriv = hp * np.einsum("m...i,mi->m...", grad[len(tp) :], d)
    return np.concatenate([
        plus.apply(val[: len(tp)], [j for j, s in idx if s == 0]),
        minus.apply(deriv, [j for j, s in idx if s == 1]),
    ])


def vertex_duals(space, vid, field):
    """Scaled point derivatives d^j phi(x) / sigma^|j| at the vertex, in
    ``VERTEX_INDEX_ORDER``."""
    space.block("vertex", vid)
    ipatch, corner = space.geometry.vertices[vid].corners[0]
    val, g, H = field.jets(ipatch, *rotate_grid([0.0], [0.0], corner), 2)
    s = space.sigma(vid)
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


def _local_block(space, kind, owner, ipatch, rows):
    """Triplets of the rows of D C of an edge or vertex whose functionals read
    only these rows of patch ipatch: the functionals of unit coefficients
    there times those rows of C[ipatch], over the columns they touch."""
    duals = edge_duals if kind == "edge" else vertex_duals
    D = duals(space, owner, _UnitField(space, rows))  # (functionals, rows)
    at, cols, vals = space.C[ipatch].entries(rows)
    cols, col_at = np.unique(cols, return_inverse=True)
    B = np.zeros((len(rows), len(cols)))
    B[at, col_at] = vals
    out = space.block(kind, owner).start + np.arange(len(D))
    return np.repeat(out, len(cols)), np.tile(cols, len(D)), (D @ B).ravel()


def _patch_block(space, i):
    """Triplets of the rows of D C of patch i: (L x L) C[i], with L (N-4, N)
    the inner local duals applied to the basis, over the stored entries of
    C[i] and the nonzeros of the two columns of L each one meets."""
    cfg, N, C = space.config, space.N, space.C[i]
    duals = local_duals(cfg)
    L = duals.apply(_basis_values(cfg, duals.points.ravel()), slice(2, N - 2))
    # nz[:, a]: the rows of the nonzeros of column a of L first; Lnz their values
    nz = np.argsort(L == 0, axis=0, kind="stable")[: (L != 0).sum(axis=0).max()]
    Lnz = np.take_along_axis(L, nz, axis=0)
    a, b = np.divmod(C.row_ids, N)
    vals = Lnz[:, None, a] * Lnz[None, :, b] * C.data  # (w, w, nnz)
    k1, k2, at = np.nonzero(vals)
    rows = space.block("patch", i).start + nz[k1, a[at]] * (N - 4) + nz[k2, b[at]]
    return rows, C.indices[at], vals[k1, k2, at]


def biorthogonality_matrix(space):
    """Matrix D C of all functionals applied to all basis functions, a (dim, dim)
    ``CSRMatrix`` read off the rows each functional sees; it equals the
    identity when basis and dual basis are biorthogonal."""
    mp, R = space.geometry, space._rows
    blocks = [_patch_block(space, i) for i in range(len(mp.patches))]
    for e in mp.edges:
        (ipatch, rot), *_ = edge_frames(e)
        blocks.append(_local_block(space, "edge", e.id, ipatch, R[rot][:2].ravel()))
    for v in mp.vertices:
        ipatch, corner = v.corners[0]
        blocks.append(_local_block(space, "vertex", v.id, ipatch, R[corner][:3, :3].ravel()))
    triplets = (np.concatenate(t) for t in zip(*blocks))
    return CSRMatrix.from_triplets(*triplets, (space.dim, space.dim))
