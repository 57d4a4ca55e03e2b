"""Dual functionals for the three basis families and the global projector.

Each basis function owns one functional. A patch's functionals are tensor
products of univariate local-interpolation duals applied to the pullback,
read off one tensor grid of every element's dual points. An edge's are S+
duals of the trace and S- duals of the scaled transversal derivative
(h/p) grad(phi) . d along its first standard-form side, sampled at the S+
and then the S- dual points; a vertex's are the six scaled derivatives
d^j phi / sigma^|j| at the corner of ``corners[0]``. Concatenated in the
order of the basis they give the global projector, ``project``, the one
function that applies them to a field: it reproduces every member of the
space, and one entity's functionals are its rows ``space.block(kind, id)``.

Each functional reads a member through its coefficients on a few rows of
the stacked patch grids alone, so the functionals are one sparse matrix D
(dim, patches N*N), as the basis is one extraction matrix C (Borden, Scott,
Evans & Hughes, IJNME 2011): the projector of the member with coefficients
x is D C x, and D C is the biorthogonality matrix. The local duals return a
tensor spline's coefficients exactly (de Boor & Fix, 1973), so a patch row
is one 1.0. Every edge carries the same functionals in its standard-form
frame, and so does every vertex, so the rows of a kind come from one
stacked table (``_entities``) of the rows each functional reads off
``space._strips`` (the band of one element in the two layers next to an
edge, the 3x3 corner block of a vertex), the patch map's jets there
(``space._map_jets``, as the build and the audit read them) and the
functionals of the unit coefficients, from the unit-jet table
``bspline._unit_jets``. For a function on the patch, grad(phi) . d is (d1
phi + beta1 d2 phi) / alpha1 in that frame, so an edge's need only its
gluing data. D and the tables depend on the geometry and the gluing only:
they are made on first use, never by the build, and kept in the space's
``_dual_geometry``, so a changed C is always read. A field given in
physical coordinates is sampled at the tables' stacked points instead.
"""

from typing import NamedTuple

import numpy as np

from .bspline import TensorSpline, _real, _unit_jets, local_duals
from .errors import InvalidConfigError
from .gluing import _pv
from .multipatch import _knot_insertion
from .space import CSRMatrix, _edge_index_set, physical_derivatives

__all__ = [
    "AnalyticField",
    "SpaceField",
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
        physical points x (m, 2), read-only (m,), (m, 2) and (m, 2, 2): a
        sampler's finite values broadcast to its shape (a constant may do)."""
        samplers = self._samplers[: order + 1]
        if any(s is None for s in samplers):
            raise InvalidConfigError(
                f"field has no derivative sampler of order {order}"
            )
        out = []
        for k, (s, what) in enumerate(zip(samplers, ("value", "gradient", "Hessian"))):
            name = f"field {what} sampler {getattr(s, '__qualname__', s)!r}"
            v, shape = _real(s(x), name), (len(x),) + (2,) * k
            try:
                out.append(np.broadcast_to(v, shape))
            except ValueError:
                raise InvalidConfigError(f"{name} returned shape {v.shape}, not {shape}") from None
            if not np.isfinite(v).all():
                raise InvalidConfigError(f"{name} returned non-finite values")
        return tuple(out)

    def jets(self, patch, x1, x2, order):
        """``at`` on the x1-major flattened tensor grid x1 x x2 of a patch."""
        x = self.geometry.patches[patch].grid_jet(x1, x2, 0)[:, 0, 0]
        return self.at(x, order)


class SpaceField:
    """Member of the space given by a coefficient vector.

    A (dim, k) coefficient matrix stands for k members at once; every sample
    then carries an axis of length k after the first. Samples come from the
    member's coefficient grid on the patch (its extraction matrix times the
    coefficients), evaluated like the patch map by sum factorization; the
    dual functionals read the grids themselves and sample nothing.
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


class _Entities(NamedTuple):
    """What the functionals of all edges or all vertices read, one entity
    per entry of axis 0."""

    rows: np.ndarray  # (K, functionals, b) rows of the stacked patch grids each reads
    jets: np.ndarray  # (K, m, d, d, 2) patch-map jets, standard-form frame
    d: np.ndarray | None  # edges: (K, m-, 2) transversal direction, S- points
    sigma: np.ndarray | None  # vertices: (K,) derivative scaling
    duals: np.ndarray  # (K, functionals, b) functionals of the unit rows


def _edge_parts(space):
    """The S+ duals with the indices of the trace functionals, then the S-."""
    idx = _edge_index_set(space.sminus.N)
    return [(local_duals(s), np.array([j for j, t in idx if t == part], dtype=int))
            for part, s in enumerate((space.splus, space.sminus))]


def _edge_functionals(space, val, deriv):
    """S+ duals of trace samples ``val`` at the S+ points, then S- duals of
    (h/p) times transversal-derivative samples ``deriv`` at the S- points,
    both along axis 0; the two parts broadcast against each other."""
    hp = space.config.h / space.config.p
    parts = [d.apply(f, j) for (d, j), f in zip(_edge_parts(space), (val, hp * deriv))]
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

    An edge reads the band of one element in the two layers next to its
    first standard-form side per functional, its patch-map jets of order 1
    there, and d from those jets; a vertex the 3x3 corner block of
    ``corners[0]``, jets of order 2 and sigma.
    """
    table = space._dual_geometry.get(kind)
    if table is not None:
        return table
    owner, sign, rows = space._strips(kind)
    rows, owner = rows[sign > 0], owner[sign > 0]  # an edge's first side, every corner
    if kind == "edge":  # sampled at the S+ dual points, then at the S- ones
        (plus, jp), (minus, jm) = _edge_parts(space)
        tp, dp = plus.points.ravel(), minus.points.ravel()
        points, order = np.r_[tp, dp], 1
    else:  # corners[0] of every vertex
        rows, points, order = rows[np.unique(owner, return_index=True)[1]], [0.0], 2
    seen = rows.reshape(len(rows), -1)
    U, pos = _unit_jets(space.config, points, order)  # (b, d, d, m), (b, m)
    jets = space._map_jets(rows, points, order)
    if kind == "edge":
        a1, b1 = (np.array([_pv(getattr(space.gluing[e.id], name), dp)
                            for e in space.geometry.edges])[..., None]
                  for name in ("alpha1", "beta1"))  # (E, m-, 1)
        d = (jets[:, len(tp):, 1, 0] + b1 * jets[:, len(tp):, 0, 1]) / a1
        unit_d = (U[:, 1, 0, len(tp):].T + b1 * U[:, 0, 1, len(tp):].T) / a1  # (E, m-, b)
        duals = _edge_functionals(space, U[:, None, 0, 0, : len(tp)].T, unit_d.swapaxes(0, 1))
        # a functional reads the dual points of one element, which share its
        # band; the S+ points come element by element
        band = pos[:, : plus.points.size : plus.points.shape[1]].T
        element = np.r_[plus.element[jp], minus.element[jm]]
        table = _Entities(seen[:, band[element]], jets, d, None, duals.swapaxes(0, 1))
    else:
        # the corner jets the build read, so that D C sees its rounding
        sigma = space._sigma
        unit = np.moveaxis(U[..., 0], 0, -1)  # (d, d, b), the same at every corner
        units = np.broadcast_to(unit, (len(seen),) + unit.shape)
        duals = _vertex_functionals(sigma, *physical_derivatives(jets[:, 0], units))
        rows = np.broadcast_to(seen[:, None, pos[:, 0]], duals.shape)
        table = _Entities(rows, jets, None, sigma, duals)
    for a in table:
        if a is not None:
            a.setflags(write=False)
    space._dual_geometry[kind] = table
    return table


def _entity_duals(space, kind, field):
    """The functionals of every edge or every vertex applied to a field in
    physical coordinates, (entities, functionals), in one pass over the
    stacked points."""
    T = _entities(space, kind)
    x = T.jets[:, :, 0, 0]  # (K, m, 2)
    if kind == "vertex":
        return _vertex_functionals(T.sigma, *field.at(x[:, 0], 2))
    val, grad = (a.reshape(x.shape[:2] + a.shape[1:]) for a in field.at(x.reshape(-1, 2), 1))
    tp = x.shape[1] - T.d.shape[1]  # the S+ points come first, then the S- points
    deriv = (grad[:, tp:] * T.d).sum(axis=-1)
    return _edge_functionals(space, val[:, :tp].T, deriv.T).T


def project(space, field):
    """Global projector: coefficient a is functional a applied to the field.

    Reproduces members of the space; for general C2 fields it is a local
    quasi-interpolant. A SpaceField of k members gives a (dim, k) matrix,
    D C x. A field in physical coordinates is sampled on one tensor grid of
    every element's dual points per patch, whose interior indices are read
    one direction at a time, then at the stacked points of all edges and of
    all vertices. One entity's functionals are ``project(space,
    field)[space.block(kind, id)]``. A field bound to another geometry than
    the space's is refused.
    """
    space._check_field(field)
    if isinstance(field, SpaceField):
        return dual_matrix(space) @ (space.C @ space._coeffs(field.coeffs))
    duals = local_duals(space.config)
    x, inner = duals.points.ravel(), slice(2, space.N - 2)
    blocks = []
    for i in range(len(space.geometry.patches)):
        vals = field.jets(i, x, x, 0)[0].reshape(len(x), len(x))
        out = duals.apply(duals.apply(vals, inner).swapaxes(0, 1), inner).swapaxes(0, 1)
        blocks.append(out.ravel())
    blocks += [_entity_duals(space, kind, field).ravel() for kind in ("edge", "vertex")]
    return np.concatenate(blocks)


def dual_matrix(space):
    """D (dim, patches N*N), the dual functionals on the stacked coefficient
    grids of ``C`` as a ``CSRMatrix``, made once per space. The local duals
    return a tensor spline's coefficients exactly, so row (a1, a2) of patch
    i selects its coefficient there: one 1.0 in column i N^2 + a1 N + a2. An
    edge's or a vertex's rows are its functionals of the unit coefficients
    on the band each one reads (``_entities``), sorted once per entity, so D
    comes out in CSR order without a sort."""
    D = space._dual_geometry.get("D")
    if D is not None:
        return D
    N, P = space.N, len(space.geometry.patches)
    inner = np.arange(2, N - 2)
    cols = ((np.arange(P)[:, None, None] * N + inner[:, None]) * N + inner).ravel()
    # (entries per row, columns, values) of the rows of each kind, in order
    parts = [(np.ones_like(cols), cols, np.ones(len(cols)))]
    for kind in ("edge", "vertex"):
        T = _entities(space, kind)
        order = np.argsort(T.rows, axis=2)
        duals = np.take_along_axis(T.duals, order, axis=2)
        e, f, j = np.nonzero(duals)
        parts.append((np.count_nonzero(duals, axis=2).ravel(),
                      np.take_along_axis(T.rows, order, axis=2)[e, f, j], duals[e, f, j]))
    counts, cols, vals = (np.concatenate(t) for t in zip(*parts))
    D = CSRMatrix(np.r_[0, np.cumsum(counts)], cols, vals, (space.dim, P * N * N))
    D.data.setflags(write=False)
    space._dual_geometry["D"] = D
    return D


def _prolong(space, member):
    """Coefficients in ``space`` of ``member``, a ``SpaceField`` of one
    member of a coarser space that ``space`` refines: D applied to its
    coefficient grids after knot insertion, (R (x) R)(C_H c_H), with R from
    ``multipatch._knot_insertion``. Under refinement with the same gluing the
    spaces nest, so the member comes back exactly. A member of another p or
    r, of another patch count or of a mesh whose n does not divide the fine
    n is refused. D and its tables serve this call alone: they are not kept
    in ``_dual_geometry``."""
    coarse, fine, P = member.space, space.config, len(space.geometry.patches)
    cfg = coarse.config
    if ((cfg.p, cfg.r) != (fine.p, fine.r) or fine.n % cfg.n
            or len(coarse.geometry.patches) != P):
        raise InvalidConfigError(
            f"a member of {cfg} on {len(coarse.geometry.patches)} patches does not "
            f"nest in {fine} on {P}"
        )
    R = _knot_insertion(cfg, fine)
    grids = R @ (coarse.C @ coarse._coeffs(member.coeffs)).reshape(P, cfg.N, cfg.N) @ R.T
    kept = dict(space._dual_geometry)
    x = dual_matrix(space) @ grids.ravel()
    space._dual_geometry.clear()  # in place: a copy of the space shares it
    space._dual_geometry.update(kept)
    return x


def biorthogonality_matrix(space):
    """Matrix D C of all functionals applied to all basis functions, a (dim,
    dim) ``CSRMatrix``; it equals the identity when basis and dual basis are
    biorthogonal."""
    return dual_matrix(space) @ space.C
