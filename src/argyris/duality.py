"""Dual functionals for the three basis families and the global projector.

Each basis function owns one functional. A patch's functionals are tensor
products of univariate local-interpolation duals applied to the pullback,
read off one tensor grid of every element's dual points. An edge's are S+
duals of the trace and S- duals of the scaled transversal derivative
(h/p) grad(phi) . d along its first standard-form side, sampled at the S+
and then the S- dual points; a vertex's are the six scaled derivatives
d^j phi / sigma^|j| at the corner of ``corners[0]``. Concatenated in the
order of the basis they give the global projector, which reproduces every
member of the space.

In its standard-form frame every edge carries the same functionals, and so
does every vertex: only the geometry and the gluing data differ. So the
functionals of one kind are applied to all of its entities in one pass, with
a leading entity axis. What they read is fixed per space and kept in one
stacked table per kind (``_entities``, in the space's ``_dual_geometry``),
filled on first use and never by the build. It holds no extraction matrix,
so a changed ``C`` is always read:

* the rows each entity sees: the two coefficient layers next to an edge, the
  3x3 corner block of a vertex. In the standard-form frame their unit
  coefficients have the same parametric jets for every entity of a kind
  (``_unit_jets``: outer products of basis-table columns), so the frame's
  quarter turn is only a permutation of the rows;
* the patch map's jets there: on an edge its control points on those rows
  times that table, and d = (d1 F + beta1 d2 F) / alpha1 at the S- points;
  at a vertex the corner jets the build read, so D C shares their rounding;
* the functionals applied to the unit coefficients, (entities, functionals,
  rows). For a function on the patch grad(phi) . d is
  (d1 phi + beta1 d2 phi) / alpha1 in the standard-form frame, so an edge's
  need only its gluing data; a vertex's take one ``physical_derivatives``
  call over all vertices.

A member of the space gives these functionals times its coefficients on the
rows, and D C is them times those rows of the stacked extraction matrix, in
one batched product per kind, written as its entity blocks' CSR rows in
order. A field given in physical coordinates is sampled at the stacked
points and takes the same functionals.
"""

from typing import NamedTuple

import numpy as np

from .bspline import TensorSpline, _basis_values, local_duals
from .errors import InvalidConfigError
from .gluing import _pv
from .multipatch import edge_frames
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

    def at(self, x, order):
        """Value, then gradient (order >= 1), then Hessian (order 2) at the
        physical points x (m, 2)."""
        samplers = self._samplers[: order + 1]
        if any(s is None for s in samplers):
            raise InvalidConfigError(
                f"field has no derivative sampler of order {order}"
            )
        return tuple(np.asarray(s(x), dtype=float) for s in samplers)

    def jets(self, patch, x1, x2, order):
        """``at`` on the x1-major flattened tensor grid x1 x x2 of a patch."""
        x = self.geometry.patches[patch].grid_jet(x1, x2, 0)[:, 0, 0]
        return self.at(x, order)


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

    def jets(self, patch, x1, x2, order):
        """Value, then gradient (order >= 1), then Hessian (order 2), on the
        x1-major flattened tensor grid x1 x x2; values alone need no patch
        map."""
        grid = self.space.combine(self.coeffs, patch)
        fj = TensorSpline(self.space.config, grid).grid_jet(x1, x2, order)
        if order == 0:
            return (fj[:, 0, 0],)
        geo = self.geometry.patches[patch].grid_jet(x1, x2, order)
        return physical_derivatives(geo, fj)[: order + 1]

    def _on_rows(self, rows):
        """Coefficients (len(rows),) or (len(rows), k) of the members on rows
        of the stacked patch grids, where position (a, b) of patch i is row
        (i N + a) N + b."""
        coeffs = np.asarray(self.coeffs, dtype=float)
        self.space._check_coeffs(coeffs)
        return CSRMatrix.take_stacked(self.space.C, rows) @ coeffs


class _Entities(NamedTuple):
    """What the functionals of all edges or all vertices read, one entity
    per entry of axis 0."""

    rows: np.ndarray  # (K, r) rows of the stacked patch grids each one sees
    jets: np.ndarray  # (K, m, d, d, 2) patch-map jets, standard-form frame
    d: np.ndarray | None  # edges: (K, m-, 2) transversal direction, S- points
    sigma: np.ndarray | None  # vertices: (K,) derivative scaling
    duals: np.ndarray  # (K, functionals, r) functionals of the unit rows


def _side_points(space):
    """Where an edge's functionals sample its standard-form side {xi1 = 0}:
    the S+ dual points, then the S- dual points."""
    return [local_duals(s).points.ravel() for s in (space.splus, space.sminus)]


def _unit_jets(space, kind, points=None):
    """Parametric jets (m, d, d, r), in the standard-form frame, of the unit
    coefficients on the r rows an edge (order 1, at the points (0, x2) of its
    side: the given ``points`` x2, by default the side points of its
    functionals) or a vertex (order 2, its corner) sees: B_i^(a)(x1)
    B_j^(b)(x2), one basis-table column per direction. They are the same for
    every entity of the kind."""
    if kind == "edge":  # layers 0, 1 across the side, all N along it
        x2 = np.concatenate(_side_points(space)) if points is None else points
        shape, order = (2, space.N), 1
    else:
        x2, shape, order = np.array([0.0]), (3, 3), 2
    A, B = (
        np.stack([_basis_values(space.config, x, a)[:, :k] for a in range(order + 1)], axis=1)
        for x, k in zip(([0.0], x2), shape)
    )  # (1, d, shape[0]) and (len(x2), d, shape[1])
    out = A[:, None, :, None, :, None] * B[None, :, None, :, None, :]
    return out.reshape(len(x2), order + 1, order + 1, -1)


def _edge_functionals(space, val, deriv):
    """S+ duals of trace samples ``val`` at the S+ points, then S- duals of
    (h/p) times transversal-derivative samples ``deriv`` at the S- points,
    both along axis 0; the two parts broadcast against each other."""
    idx = _edge_index_set(space.sminus.N)
    plus, minus = local_duals(space.splus), local_duals(space.sminus)
    hp = space.config.h / space.config.p
    parts = [
        plus.apply(val, [j for j, s in idx if s == 0]),
        minus.apply(hp * deriv, [j for j, s in idx if s == 1]),
    ]
    shape = np.broadcast_shapes(*(a.shape[1:] for a in parts))
    return np.concatenate([np.broadcast_to(a, a.shape[:1] + shape) for a in parts])


def _vertex_functionals(sigma, val, grad, hess):
    """Scaled point derivatives d^j phi / sigma^|j| in ``VERTEX_INDEX_ORDER``,
    along axis 1, from physical samples with the vertex axis first."""
    s = sigma.reshape((-1,) + (1,) * (val.ndim - 1))
    g, H = grad / s[..., None], hess / (s**2)[..., None, None]
    return np.stack(
        [val, g[..., 0], g[..., 1], H[..., 0, 0], H[..., 0, 1], H[..., 1, 1]], axis=1
    )


def _entities(space, kind):
    """The stacked table of all edges or all vertices, in id order; filled on
    first use and kept in the space's ``_dual_geometry``.

    An edge reads the two layers next to the first standard-form side, its
    patch-map jets of order 1 there, and d from those jets; a vertex the
    3x3 corner block of ``corners[0]``, jets of order 2 and sigma.
    """
    key = (kind, "all")
    table = space._dual_geometry.get(key)
    if table is not None:
        return table
    mp, N = space.geometry, space.N
    if kind == "edge":
        frames, block = [edge_frames(e)[0] for e in mp.edges], (slice(0, 2),)
    else:
        frames, block = [v.corners[0] for v in mp.vertices], (slice(0, 3), slice(0, 3))
    rows = np.array([i * N * N + space._rows[k][block].ravel() for i, k in frames])
    U = _unit_jets(space, kind)
    net = np.concatenate([P.net.reshape(-1, 2) for P in mp.patches])[rows]
    if kind == "edge":
        jets = (U.reshape(-1, U.shape[-1]) @ net).reshape(len(rows), *U.shape[:3], 2)
        tp, dp = _side_points(space)
        a1, b1 = (
            np.array([_pv(getattr(space.gluing[e.id], name), dp) for e in mp.edges])[..., None]
            for name in ("alpha1", "beta1")
        )  # (E, m-, 1)
        d = (jets[:, len(tp):, 1, 0] + b1 * jets[:, len(tp):, 0, 1]) / a1
        unit_d = (U[len(tp):, 1, 0] + b1 * U[len(tp):, 0, 1]) / a1  # (E, m-, r)
        duals = _edge_functionals(space, U[: len(tp), None, 0, 0], unit_d.swapaxes(0, 1))
        table = _Entities(rows, jets, d, None, duals.swapaxes(0, 1))
    else:
        # the corner jets the build read, so that D C sees its rounding
        jets = space._corner_jets(net.reshape(-1, 1, 3, 3, 2))
        sigma = np.array([space.sigma(v.id) for v in mp.vertices])
        units = np.broadcast_to(U[0], (len(rows),) + U.shape[1:])
        duals = _vertex_functionals(sigma, *physical_derivatives(jets[:, 0], units))
        table = _Entities(rows, jets, None, sigma, duals)
    table = table._replace(duals=np.ascontiguousarray(table.duals))
    for a in table:
        if a is not None:
            a.setflags(write=False)
    space._dual_geometry[key] = table
    return table


def _entity_duals(space, kind, field):
    """The functionals of every edge or every vertex applied to a field,
    (entities, functionals, ...), in one pass."""
    T = _entities(space, kind)
    if isinstance(field, SpaceField):
        K, r = T.rows.shape
        c = field._on_rows(T.rows.ravel())
        return (T.duals @ c.reshape(K, r, -1)).reshape(T.duals.shape[:2] + c.shape[1:])
    x = T.jets[:, :, 0, 0]  # (K, m, 2)
    if kind == "vertex":
        return _vertex_functionals(T.sigma, *field.at(x[:, 0], 2))
    val, grad = (a.reshape(x.shape[:2] + a.shape[1:]) for a in field.at(x.reshape(-1, 2), 1))
    tp = x.shape[1] - T.d.shape[1]  # the S+ points come first, then the S- points
    deriv = (grad[:, tp:] * T.d).sum(axis=-1)
    return _edge_functionals(space, val[:, :tp].T, deriv.T).T


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
    derivative: edge eid's rows of the pass over all edges."""
    space.block("edge", eid)
    return _entity_duals(space, "edge", field)[eid]


def vertex_duals(space, vid, field):
    """Scaled point derivatives d^j phi(x) / sigma^|j| at the vertex, in
    ``VERTEX_INDEX_ORDER``: vertex vid's rows of the pass over all vertices."""
    space.block("vertex", vid)
    return _entity_duals(space, "vertex", field)[vid]


def project(space, field):
    """Global projector: coefficient a is functional a applied to the field.

    Reproduces members of the space; for general C2 fields it is a local
    quasi-interpolant. A SpaceField of k members gives a (dim, k) matrix.
    """
    blocks = [patch_duals(space, i, field) for i in range(len(space.geometry.patches))]
    for kind in ("edge", "vertex"):
        out = _entity_duals(space, kind, field)
        blocks.append(out.reshape((-1,) + out.shape[2:]))
    return np.concatenate(blocks)


def _dual_band(cfg):
    """The band of L (N-4, N), the inner local duals applied to the basis:
    row a is nonzero only on the p+1 functions s_a, ..., s_a + p active on
    the element its dual samples. Returns those values (N-4, p+1) and s."""
    duals = local_duals(cfg)
    inner = slice(2, cfg.N - 2)
    first, ders = cfg.basis_ders(duals.points.ravel(), 0)
    n, k = duals.points.shape
    e = duals.element[inner]
    L = np.einsum("jq,jqk->jk", duals.weights[inner], ders[:, 0].reshape(n, k, k)[e])
    return L, first.reshape(n, k)[e, 0]


def _patch_rows(space, S):
    """Triplets, in CSR order, of the rows of D C of all patches: row (a, b)
    of patch i is the sum of L[a, s_a + k1] L[b, s_b + k2] C_i[(s_a + k1,
    s_b + k2)] over L's band, with C_i the rows of patch i in the stacked
    extraction matrix S."""
    cfg, N, dim = space.config, space.N, space.dim
    L, s = _dual_band(cfg)
    band = s[:, None] + np.arange(cfg.p + 1)  # (N-4, p+1)
    w = (L[:, None, :, None] * L[None, :, None, :]).reshape((N - 4) ** 2, -1)
    grid = (band[:, None, :, None] * N + band[None, :, None, :]).reshape(w.shape)
    out, k = np.nonzero(w)  # the stencil of each row of a patch block, in row order
    patches = np.arange(len(space.C))[:, None]
    B = S.take((patches * N * N + grid[out, k]).ravel())
    counts = np.diff(B.indptr)
    rows = np.repeat((space._layout["patch"][0] + patches * (N - 4) ** 2 + out).ravel(), counts)
    vals = np.repeat(np.tile(w[out, k], len(space.C)), counts) * B.data
    key = rows * dim + B.indices
    order = np.argsort(key, kind="stable")  # rows are grouped: this sorts each row's columns
    key = key[order]
    first = np.concatenate([[True], key[1:] != key[:-1]])
    sums = np.bincount(np.cumsum(first) - 1, weights=vals[order])
    return rows[first], B.indices[order][first], sums


def _entity_rows(space, kind, S):
    """Triplets, in CSR order, of the rows of D C of all edges or all
    vertices: each entity's functionals of its unit rows times those rows of
    the stacked extraction matrix S, over the columns they touch, in one
    batched product."""
    T = _entities(space, kind)
    K, nf, r = T.duals.shape
    B = S.take(T.rows.ravel())
    ent, at = np.divmod(B.row_ids, r)
    # the sorted distinct columns of entity e are cols[lo[e]:lo[e + 1]]
    key, slot = np.unique(ent * space.dim + B.indices, return_inverse=True)
    owner, cols = np.divmod(key, space.dim)
    lo = np.searchsorted(owner, np.arange(K + 1))
    width = np.diff(lo)
    local = np.arange(len(key)) - lo[owner]
    dense = np.zeros((K, r, width.max(initial=0)))
    dense[ent, at, local[slot]] = B.data
    e, f, u = np.nonzero(np.broadcast_to(
        (np.arange(dense.shape[2]) < width[:, None])[:, None], (K, nf, dense.shape[2])
    ))
    rows = space._layout[kind][0] + e * nf + f
    return rows, cols[lo[e] + u], (T.duals @ dense)[e, f, u]


def biorthogonality_matrix(space):
    """Matrix D C of all functionals applied to all basis functions, a (dim, dim)
    ``CSRMatrix`` read off the rows each functional sees; it equals the
    identity when basis and dual basis are biorthogonal."""
    S = CSRMatrix.vstack(space.C)
    blocks = [_patch_rows(space, S)] + [_entity_rows(space, k, S) for k in ("edge", "vertex")]
    triplets = (np.concatenate(t) for t in zip(*blocks))
    return CSRMatrix.from_sorted_triplets(*triplets, (space.dim, space.dim))
