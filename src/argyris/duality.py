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

What an edge's or vertex's functionals read of the geometry is fixed per
space, so it is sampled on first use and kept in the space's table
(``_entity_geometry``): per edge the side grid, the patch map's order-1 jets
there and the transversal direction d formed from those same jets; per
vertex the order-2 corner jets. Fields take these jets instead of sampling
the patch map, so D C and the projector share one sample per entity.

The biorthogonality matrix D C is read entity by entity, without a (rows,
dim) array: an edge's or vertex's functionals, applied once to unit
coefficients on the rows of one patch they see, multiply those rows of C[i];
a patch's are one univariate table in both directions over C[i]'s entries.
The parametric jets of a unit coefficient are products of one basis-table
column per direction (``_UnitField``), so no coefficient grid is formed.
"""

import numpy as np

from .bspline import TensorSpline, _basis_values, local_duals
from .errors import InvalidConfigError
from .gluing import _transversal
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

#: linear part of one quarter turn of the parameters (``rotate_grid``)
_TURN = np.array([[0, -1], [1, 0]])


class AnalyticField:
    """Scalar field given by physical-coordinate callables.

    ``grad`` and ``hess`` may be omitted when only values are consumed
    (plain L2 fitting); the projector needs all three.
    """

    def __init__(self, geometry, value, grad=None, hess=None):
        self.geometry = geometry
        self._samplers = (value, grad, hess)

    def jets(self, patch, x1, x2, order, geo=None):
        """Value, then gradient (order >= 1), then Hessian (order 2), on the
        x1-major flattened tensor grid x1 x x2. ``geo``, the patch map's
        ``grid_jet`` on that grid when the caller has it, saves sampling it."""
        samplers = self._samplers[: order + 1]
        if any(s is None for s in samplers):
            raise InvalidConfigError(
                f"field has no derivative sampler of order {order}"
            )
        if geo is None:
            geo = self.geometry.patches[patch].grid_jet(x1, x2, 0)
        x = geo[:, 0, 0]
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

    def _parametric(self, patch, x1, x2, order):
        """Parametric jets (m, d, d) or (m, d, d, k) on the grid."""
        grid = self.space.combine(self.coeffs, patch)
        return TensorSpline(self.space.config, grid).grid_jet(x1, x2, order)

    def jets(self, patch, x1, x2, order, geo=None):
        """Value, then gradient (order >= 1), then Hessian (order 2), on the
        x1-major flattened tensor grid x1 x x2; values alone need no patch
        map. ``geo``, the patch map's ``grid_jet`` on that grid of at least
        this order when the caller has it, saves sampling it."""
        fj = self._parametric(patch, x1, x2, order)
        if order == 0:
            return (fj[:, 0, 0],)
        if geo is None:
            geo = self.geometry.patches[patch].grid_jet(x1, x2, order)
        return physical_derivatives(geo, fj)[: order + 1]


class _UnitField(SpaceField):
    """Member k has the one unit coefficient at flat position rows[k] = (i, j)
    of the grid of whichever patch a functional samples. Its parametric jets
    are B_i^(a)(x1) B_j^(b)(x2): one column of the basis table per direction,
    in O(len(rows) * (len(x1) + len(x2))) work for a side or a corner."""

    def __init__(self, space, rows):
        self.space = space
        self.geometry = space.geometry
        self.index = np.divmod(rows, space.N)

    def _parametric(self, patch, x1, x2, order):
        cfg = self.space.config
        A, B = (
            np.stack([_basis_values(cfg, x, a)[:, i] for a in range(order + 1)], axis=1)
            for x, i in zip((x1, x2), self.index)
        )  # (len(x1), d, k) and (len(x2), d, k)
        out = A[:, None, :, None] * B[None, :, None]
        return out.reshape((-1,) + out.shape[2:])


def _entity_geometry(space, kind, owner):
    """The patch, the grid factors and the patch map's jets there that the
    functionals of an edge or vertex read, and for an edge the transversal
    direction d at its S- points; sampled once per space and entity, and
    kept in the space's table.

    An edge's grid runs along the first standard-form side through its S+
    and then its S- dual points, with jets of order 1, from which d is
    formed in the standard-form frame. A vertex's grid is the corner of
    ``corners[0]``, with jets of order 2.
    """
    key = (kind, owner)
    entry = space._dual_geometry.get(key)
    if entry is not None:
        return entry
    mp = space.geometry
    if kind == "edge":
        (ipatch, rot), *_ = edge_frames(mp.edges[owner])
        tp, dp = (local_duals(s).points.ravel() for s in (space.splus, space.sminus))
        grid = rotate_grid([0.0], np.concatenate([tp, dp]), rot)
        jet = mp.patches[ipatch].grid_jet(*grid, 1)
        # the turned patch is F(rho(xi)), and rho has linear part _TURN^rot
        DF = np.stack([jet[len(tp) :, 1, 0], jet[len(tp) :, 0, 1]], axis=-1)
        DF = DF @ np.linalg.matrix_power(_TURN, rot)
        d = _transversal(space.gluing[owner], DF[..., 0], DF[..., 1], dp)
        entry = (ipatch, grid, jet, d)
    else:
        ipatch, corner = mp.vertices[owner].corners[0]
        grid = rotate_grid([0.0], [0.0], corner)
        entry = (ipatch, grid, mp.patches[ipatch].grid_jet(*grid, 2))
    for a in (*grid, *entry[2:]):
        a.setflags(write=False)
    space._dual_geometry[key] = entry
    return entry


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
    ipatch, grid, jet, d = _entity_geometry(space, "edge", eid)
    val, grad = field.jets(ipatch, *grid, 1, geo=jet)
    m = plus.points.size
    hp = space.config.h / space.config.p
    deriv = hp * np.einsum("m...i,mi->m...", grad[m:], d)
    return np.concatenate([
        plus.apply(val[:m], [j for j, s in idx if s == 0]),
        minus.apply(deriv, [j for j, s in idx if s == 1]),
    ])


def vertex_duals(space, vid, field):
    """Scaled point derivatives d^j phi(x) / sigma^|j| at the vertex, in
    ``VERTEX_INDEX_ORDER``."""
    space.block("vertex", vid)
    ipatch, grid, jet = _entity_geometry(space, "vertex", vid)
    val, g, H = field.jets(ipatch, *grid, 2, geo=jet)
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
