"""Construction of the C1 smooth space over an AS-G1 multi-patch domain.

Every basis function is a fixed tensor-spline coefficient grid on each patch,
so the space is one linear map from global coefficients to the patches'
(N, N) coefficient grids, stacked one after another: the extraction matrix
``C`` of shape (patches*N*N, dim) (Borden, Scott, Evans & Hughes, IJNME
2011), in a minimal numpy CSR type (``CSRMatrix``), with position (a1, a2)
of patch i in row (i N + a1) N + a2. Every consumer is a product of C, or of
its transpose, with a dense array, or the product D C with the matrix D of
the dual functionals (``duality``). The columns come in three families:

* patch-interior functions: single B-splines with two vanishing coefficient
  layers on every side of their patch;
* edge functions: on each side of an edge, the two coefficient layers next
  to it are one fixed linear map of the function's trace coefficients T in
  S+ (degree p, smoothness r+1) and of its transversal-derivative
  coefficients V in S- (degree p-1, smoothness r), through the edge's
  linear gluing data; edge function j is this map at a unit T or V;
* vertex functions: six per vertex, the alternating-sum Hermite interpolants
  of the scaled C2 data diag(sigma^|j|). Each edge slot around the vertex
  has a (5, 6) matrix taking a C2 datum to the end values of T and V, one
  formula for all slots (before a boundary vertex's first corner, on its
  transposed jets), and each patch corner a (4, 6) matrix taking it to the
  jet whose 2x2 corner coefficients both slots share; a function is the
  layers of its two slots minus that corner block.

Each family is built in one pass over stacked arrays, as pieces (rows,
columns, values) straight from these layers, all its sides in one
``_side_layers`` call. ``_strips`` gives the rows next to every edge side
and vertex corner to the build, the dual functionals and the audit, and
``_map_jets`` the patch maps' jets there. C is the sum of all pieces, so
``CSRMatrix.from_triplets`` sums the corner block of two slots. All products
entering the pullbacks (alpha times an S- spline, beta times a derivative of
an S+ spline) are degree p piecewise polynomials of smoothness r, so the
extraction matrix is exact up to rounding. Of an edge the space keeps only
its gluing data ``gluing[eid]``, which also build the space on the
refinement of its geometry (``_refined``), and of a vertex only sigma; the dual
functionals and the audit read the rest off the geometry (the functionals
keep what they read, and D, in ``_dual_geometry``).

The basis is numbered by entity blocks: all patches, then all edges, then all
vertices, each entity owning a contiguous run whose length depends on (p, r,
n) alone; ``block`` and ``basis_id`` translate by arithmetic.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bspline import (_basis_values, _drop_noise, _integer, _real, _strip_jets, _unit_jets,
                      derived_edge_spaces, represent_exactly)
from .errors import ConformityError, InvalidConfigError
from .gluing import GluingData, _transversal_from_jet, boundary_gluing, fit_asg1
from .multipatch import (CONFORMITY_TOL, _knot_insertion, edge_frames, rotate_net,
                         vertex_surrounding_edges)

__all__ = [
    "BasisId",
    "CSRMatrix",
    "C2Data",
    "ArgyrisSpace",
    "space_dimension",
    "VERTEX_INDEX_ORDER",
]

#: enumeration order of the six per-vertex monomial slots (j1, j2), |j| <= 2
VERTEX_INDEX_ORDER = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


@dataclass(frozen=True)
class BasisId:
    """Address of a basis function: family, owning entity, local index."""

    kind: str  # 'patch' | 'edge' | 'vertex'
    owner: int
    index: tuple


@dataclass
class C2Data:
    """Value, gradient and (symmetric) Hessian of a function at one point."""

    value: float
    grad: np.ndarray
    hess: np.ndarray

    def __post_init__(self):
        value, grad, hess = (
            np.asarray(x, dtype=float) for x in (self.value, self.grad, self.hess)
        )
        if value.ndim or grad.size != 2 or hess.size != 4:
            raise InvalidConfigError("C2 data must have shapes (), (2,) and (2, 2)")
        self.value = float(value)
        self.grad, self.hess = grad.reshape(2), hess.reshape(2, 2)
        if abs(self.hess[0, 1] - self.hess[1, 0]) > 1e-12 * (
            1.0 + np.abs(self.hess).max()
        ):
            raise InvalidConfigError("Hessian data must be symmetric")
        if not all(np.isfinite(x).all() for x in (self.value, self.grad, self.hess)):
            raise InvalidConfigError("C2 data must be finite")


def _block_sizes(config):
    """Number of basis functions one patch, one edge and one vertex own."""
    config.check_argyris()
    p, r, n = config.p, config.r, config.n
    Nm = (p - r - 1) * (n - 1) + p
    return {"patch": (config.N - 4) ** 2, "edge": 2 * Nm - 9, "vertex": 6}


def space_dimension(mp, config=None):
    """Dimension and per-family breakdown, from the topology counts of a
    MultiPatch alone, under its own config or the given one."""
    counts = (len(mp.patches), len(mp.edges), len(mp.vertices))
    sizes = _block_sizes(config or mp.config)
    breakdown = {kind: k * sizes[kind] for kind, k in zip(sizes, counts)}
    return sum(breakdown.values()), breakdown


def _edge_index_set(Nm):
    """Interior edge indices: (j1, 0) traces and (j1, 1) derivatives."""
    trace = [(j, 0) for j in range(3, Nm - 2)]
    deriv = [(j, 1) for j in range(2, Nm - 2)]
    return trace + deriv


# Linear forms in a C2 datum (v, g0, g1, H00, H01, H11) at the vertex, for
# stacks of vectors (..., 2): its value, its derivative g.a along a curve
# with velocity a, and its mixed second derivative a^T H b + g.ab along a map
# with first derivatives a, b and mixed derivative ab; each form (..., 6).
_VALUE = np.eye(6)[0]


def _d2(a, b, ab):
    z = np.zeros(a.shape[:-1])
    return np.stack([z, ab[..., 0], ab[..., 1], a[..., 0] * b[..., 0],
                     a[..., 0] * b[..., 1] + a[..., 1] * b[..., 0], a[..., 1] * b[..., 1]], axis=-1)


def _d1(a):  # g.a: the second-order form at first derivatives 0 and mixed one a
    return _d2(0.0 * a, 0.0 * a, a)


def _edge_data(t0, t0p, d0, d0p, hp):
    """(..., 5, 6) edge data of slots at their vertex: value, first and second
    tangential derivative, then the first two (h/p)-scaled transversal ones,
    for traces with tangent t0, t0' and transversal direction d0, d0'."""
    value = np.broadcast_to(_VALUE, t0.shape[:-1] + (6,))
    return np.stack([value, _d1(t0), _d2(t0, t0, t0p), hp * _d1(d0), hp * _d2(t0, d0, d0p)], -2)


#: rows of A that one step of the sparse product ``A @ B`` reads
_PRODUCT_ROWS = 1 << 12


def _sorted(key, bound):
    """Integer keys in [0, bound) sorted, and where each came from, ties in
    the order given: a plain sort of each key with its place in the low
    bits, which is faster than a stable argsort where it fits in 63 bits."""
    bits = len(key).bit_length()
    if int(bound).bit_length() + bits > 62:
        at = np.argsort(key, kind="stable")
        return key[at], at
    key = np.sort(key << bits | np.arange(len(key)))
    return key >> bits, key & ((1 << bits) - 1)


class CSRMatrix:
    """Compressed sparse rows in numpy: row i holds ``data[indptr[i]:
    indptr[i+1]]`` in the columns ``indices[indptr[i]:indptr[i+1]]``, sorted
    and without repeats. Products with dense arrays, ``A @ x`` and
    ``y @ A``, and with another such matrix, ``A @ B``, are index
    arithmetic."""

    __array_ufunc__ = None  # so that ndarray @ CSRMatrix calls __rmatmul__

    def __init__(self, indptr, indices, data, shape):
        self.indptr, self.indices, self.data = indptr, indices, data
        self.shape = tuple(shape)

    @classmethod
    def from_triplets(cls, rows, cols, vals, shape):
        """Values ``vals`` at (rows, cols); repeated positions are summed in
        the order given and zero sums are dropped."""
        key = np.asarray(rows, dtype=np.int64) * shape[1] + np.asarray(cols, dtype=np.int64)
        key, at = _sorted(key, shape[0] * shape[1])
        new = np.diff(key, prepend=-1) != 0
        vals = np.bincount(np.cumsum(new) - 1, np.asarray(vals, dtype=float)[at])
        vals = vals.astype(float, copy=False)  # an empty weight array gives integers
        keep = vals != 0.0
        rows, cols = np.divmod(key[new][keep], shape[1])
        indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=shape[0]))]
        return cls(indptr, cols, vals[keep], shape)

    @property
    def nnz(self):
        return len(self.data)

    @cached_property
    def row_ids(self):
        """Row of every stored entry (read-only)."""
        ids = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        ids.setflags(write=False)
        return ids

    def take(self, rows):
        """The given rows, in that order, as a (len(rows), ncols) matrix."""
        rows = np.asarray(rows)
        lo = self.indptr[rows]
        counts = self.indptr[rows + 1] - lo
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        at = np.repeat(lo - indptr[:-1], counts) + np.arange(indptr[-1])
        return CSRMatrix(indptr, self.indices[at], self.data[at], (len(rows), self.shape[1]))

    def row_block(self, start, stop):
        """The rows start..stop-1 as a (stop - start, ncols) matrix that
        shares this one's entries."""
        lo, hi = self.indptr[start], self.indptr[stop]
        return CSRMatrix(self.indptr[start : stop + 1] - lo, self.indices[lo:hi],
                         self.data[lo:hi], (stop - start, self.shape[1]))

    def diagonal(self):
        """The entries (i, i) as a dense vector."""
        out = np.zeros(min(self.shape))
        on = self.row_ids == self.indices
        out[self.indices[on]] = self.data[on]
        return out

    def toarray(self):
        out = np.zeros(self.shape)
        out[self.row_ids, self.indices] = self.data
        return out

    def __matmul__(self, x):
        """A @ x for a dense real vector (n,) or array (n, ...), or a ``CSRMatrix``.
        Each entry of the result adds its terms to 0 one by one in stored
        order, so a column of x gives the same digits alone as among others."""
        if isinstance(x, CSRMatrix):
            return self._times_sparse(x)
        x = _real(x, "the operand of a sparse product")
        k = math.prod(x.shape[1:])
        if x.ndim == 1:
            keys, terms = self.row_ids, self.data * x[self.indices]
        else:  # entry by entry, so that every (row, column) sums in stored order
            keys = (self.row_ids[:, None] * k + np.arange(k)).ravel()
            terms = (self.data[:, None] * x.reshape(len(x), k)[self.indices]).ravel()
        # an empty weight array makes bincount return integers
        out = np.bincount(keys, terms, self.shape[0] * k).astype(float, copy=False)
        return out.reshape((self.shape[0],) + x.shape[1:])

    def __rmatmul__(self, y):
        """y @ A for a dense real vector (m,) or array (..., m), summed in stored
        order like ``A @ x``."""
        y = _real(y, "the operand of a sparse product")
        flat = y.reshape(-1, self.shape[0])
        k = len(flat)
        keys = (np.arange(k)[:, None] * self.shape[1] + self.indices).ravel()
        terms = (flat[:, self.row_ids] * self.data).ravel()
        out = np.bincount(keys, terms, k * self.shape[1]).astype(float, copy=False)
        return out.reshape(y.shape[:-1] + (self.shape[1],))

    def _times_sparse(self, B):
        """A @ B: every stored entry (r, k) of A times row k of B, the terms
        of each (r, column) summed in stored order, exact zeros dropped. A is
        read ``_PRODUCT_ROWS`` rows at a time, which bounds the temporaries."""
        ncols, parts = B.shape[1], []
        for r0 in range(0, max(self.shape[0], 1), _PRODUCT_ROWS):
            A = self.row_block(r0, min(r0 + _PRODUCT_ROWS, self.shape[0]))
            Bk = B.take(A.indices)  # the row of B each stored entry of A multiplies
            key = A.row_ids[Bk.row_ids] * ncols + Bk.indices
            order = np.argsort(key, kind="stable")  # each row's terms, by column
            key = key[order]
            first = np.diff(key, prepend=-1) != 0
            terms = (A.data[Bk.row_ids] * Bk.data)[order]
            sums = np.bincount(np.cumsum(first) - 1, terms).astype(float, copy=False)
            keep = sums != 0.0
            rows, cols = np.divmod(key[first][keep], ncols)
            parts.append((np.bincount(rows, minlength=A.shape[0]), cols, sums[keep]))
        counts, indices, data = (np.concatenate(t) for t in zip(*parts))
        return CSRMatrix(np.r_[0, np.cumsum(counts)], indices, data, (self.shape[0], ncols))


class ArgyrisSpace:
    """The assembled smooth space over a validated multi-patch geometry.

    ``C`` is the (patches * N*N, dim) ``CSRMatrix`` extraction matrix: column
    a holds the flattened (N, N) tensor-spline coefficient grids of basis
    function a on every patch, one after another, so that row (i N + a1) N +
    a2 is position (a1, a2) of patch i; ``extraction(i)`` is the rows of
    patch i. Column a belongs to the entity whose ``block`` holds a;
    ``basis_id(a)`` names it. ``config`` is the univariate space of
    the geometry's patches, and ``splus``, ``sminus`` its edge spaces.
    """

    def __init__(self, geometry):
        cfg = geometry.config
        self.dim, self.breakdown = space_dimension(geometry, cfg)  # checks cfg
        # family -> (position of its first function, functions per entity)
        sizes = _block_sizes(cfg)
        starts = np.cumsum([0, *self.breakdown.values()])
        self._layout = {kind: (int(a), sizes[kind]) for kind, a in zip(sizes, starts)}
        self.geometry = geometry
        self.config = cfg
        self.splus, self.sminus = derived_edge_spaces(cfg)
        self.N = cfg.N
        self.shape = (self.N, self.N)
        # _rows[k][a, b]: row in a patch's extraction matrix of position
        # (a, b) of its grid seen in the frame rotated by k quarter turns
        self._rows = np.array([rotate_net(np.arange(self.N**2).reshape(self.shape), k)
                               for k in range(4)])

        # S+ basis and its derivative, re-expressed in S^{p,r} and S-
        self._rep_plus = represent_exactly(
            cfg, lambda x: _basis_values(self.splus, x)
        )  # (N, N+)
        self._der_plus = represent_exactly(
            self.sminus, lambda x: _basis_values(self.splus, x, 1)
        )  # (N-, N+)
        # S- basis and x times it in S^{p,r}: the product of (a + b x) with
        # an S- spline v has coefficients (a E + b X) v
        self._E = represent_exactly(cfg, lambda x: _basis_values(self.sminus, x))
        self._X = represent_exactly(
            cfg, lambda x: x[:, None] * _basis_values(self.sminus, x)
        )  # both (N, N-)

        # corner Hermite map: the 2x2 corner coefficients of a tensor spline,
        # flattened, are this matrix times its flattened jet (f, f_v, f_u, f_uv)
        _, ders = cfg.basis_ders(np.array([0.0]), 1)
        inv = np.linalg.inv(ders[0][:2, :2])
        self._corner_map = _drop_noise(np.kron(inv, inv))
        # S+ coefficients (N+, 3) of the spline with end jet (f, f', f'') at 0
        # and vanishing elsewhere, and the S- ones (N-, 2) for the jet (f, f')
        _, dp = self.splus.basis_ders(np.array([0.0]), 2)
        self._aplus = np.zeros((self.splus.N, 3))
        self._aplus[:3] = _drop_noise(np.linalg.inv(dp[0][:3, :3]))
        _, dm = self.sminus.basis_ders(np.array([0.0]), 1)
        self._aminus = np.zeros((self.sminus.N, 2))
        self._aminus[:2] = _drop_noise(np.linalg.inv(dm[0][:2, :2]))

        # edge id -> GluingData, the edge's standard-form gluing; a space made
        # by ``_refined`` starts with the data of the space it refines
        self.gluing = self.__dict__.get("gluing", {})
        # what the dual functionals read of the geometry and the gluing: per
        # kind the table of all edges or all vertices, and the dual matrix D;
        # filled on first use by ``duality``, never by the build
        self._dual_geometry = {}
        # the control points of all patches on the rows of the stacked grids
        self._net = np.concatenate([P.net.reshape(-1, 2) for P in geometry.patches])
        self.C = self._build()

    def _refined(self, geometry):
        """The space on ``geometry``, the dyadic refinement ``refine`` of this
        space's geometry, built on this space's gluing data.

        The gluing data belong to the map, which refinement keeps, and
        ``fit_asg1`` certified the edge determinants on the whole edge and
        decided AS-G1 exactly per element, so a refit would return the same
        data up to rounding. A geometry that is not this refinement is
        refused: the data would not be its own.
        """
        cfg, fine, coarse = self.config, geometry.config, self.geometry
        nested = ((fine.p, fine.r, fine.n) == (cfg.p, cfg.r, 2 * cfg.n)
                  and len(geometry.patches) == len(coarse.patches)
                  and [(e.id, e.locals) for e in geometry.edges]
                  == [(e.id, e.locals) for e in coarse.edges])
        if nested:
            R = _knot_insertion(cfg, fine)
            nested = all(
                np.abs(R @ np.moveaxis(P.net, -1, 0) @ R.T - np.moveaxis(Q.net, -1, 0)).max()
                <= CONFORMITY_TOL * max(1.0, np.abs(P.net).max())
                for P, Q in zip(coarse.patches, geometry.patches))
        if not nested:
            raise InvalidConfigError("geometry is not the refinement of this space's geometry")
        space = object.__new__(type(self))
        space.gluing = dict(self.gluing)
        space.__init__(geometry)
        return space

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build(self):
        """Assemble the extraction matrix from the pieces of the three families.

        Each builder covers every entity of its family and returns pieces
        (rows of the stacked patch grids, columns, values), broadcast against
        each other; their nonzero entries make one ``CSRMatrix``, in which a
        position written by several pieces holds their sum in piece order.
        """
        def nonzero(piece):
            rows, cols, vals = np.broadcast_arrays(*piece)
            keep = vals != 0.0
            return rows[keep], cols[keep], vals[keep]

        # map lets go of each family's pieces before the next family is built
        triplets = [t for build in (self.build_patch_interior, self.build_edge_functions,
                                    self.build_vertex_functions) for t in map(nonzero, build())]
        shape = (len(self.geometry.patches) * self.N**2, self.dim)
        return CSRMatrix.from_triplets(*(np.concatenate(t) for t in zip(*triplets)), shape)

    def build_patch_interior(self):
        """Unit-coefficient B-splines with indices in {2..N-3}^2 on every patch."""
        start, k = self._layout["patch"]
        i = np.arange(len(self.geometry.patches))[:, None]
        rows = i * self.N**2 + self._rows[0][2:-2, 2:-2].ravel()
        return [(rows, start + i * k + np.arange(k), 1.0)]

    def _strips(self, kind):
        """Owner (S,), sign (S,) and rows (S, L, N) of the L layers next to
        every edge side (L = 2), or both sides of every vertex corner (L = 3):
        the {xi1 = 0} side (+1) or the transposed {xi2 = 0} side (-1) of a
        standard-form frame, an edge's in ``edge_frames`` order, a corner's
        before (-1) and after (+1) it, layer 0 on the side."""
        mp = self.geometry
        if kind == "edge":
            sides = [(e.id, i, k, s) for e in mp.edges for (i, k), s in zip(edge_frames(e), (1, -1))]
        else:
            sides = [(v.id, i, k, s) for v in mp.vertices for i, k in v.corners for s in (-1, 1)]
        owner, patch, turns, sign = (np.array(t) for t in zip(*sides))
        L, R = (2 if kind == "edge" else 3), self._rows
        rows = np.where(sign[:, None, None] > 0, R[turns, :L], R[turns, :, :L].swapaxes(1, 2))
        return owner, sign, rows + patch[:, None, None] * self.N**2

    def _map_jets(self, rows, points, order):
        """Patch-map jets (S, m, d, d, 2), d = order + 1, at the points (0,
        x2) of S sides with ``_strips`` rows (S, L, N), or (S, L N)."""
        T = _unit_jets(self.config, points, order)
        net = self._net[rows.reshape(len(rows), -1)[:, T.pos]].swapaxes(0, 1)  # (b, S, m, 2)
        return _strip_jets(T.jets[:, :, :, None, :, None], net).transpose(2, 3, 0, 1, 4)

    def _side_layers(self, T, V, alpha, beta, sign):
        """Values (S, 2, N, k) of the two coefficient layers next to an edge,
        on S sides at once.

        On side s, column f maps S+ trace coefficients T[:, f] and S-
        coefficients V[:, f] of the (h/p)-scaled transversal derivative (T, V
        shared by all sides, or (S, N+, k) and (S, N-, k)) to

            u0 = T,   u1 = u0 - (h/p) beta_s T' + sign_s alpha_s V

        in S^{p,r}, for linear gluing data alpha, beta (S, 2), on the {xi1 = 0}
        side (sign +1, the patch before the edge) or the {xi2 = 0} side (sign
        -1, the patch after it) of ``_strips``.
        """
        hp = self.config.h / self.config.p

        def times(c, v):  # coefficients of (c0 + c1 x) v for an S- spline v
            return (c[:, 0, None, None] * self._E + c[:, 1, None, None] * self._X) @ v

        u0 = self._rep_plus @ T
        u1 = u0 - hp * times(beta, self._der_plus @ T)
        u1 += sign[:, None, None] * times(alpha, V)
        return np.stack(np.broadcast_arrays(u0, u1), axis=1)

    def build_edge_functions(self):
        """Edge basis of all edges: traces from S+, transversal derivatives from S-.

        The trace function (j, 0) has the layers of T = e_j, V = 0 and the
        derivative function (j, 1) those of T = 0, V = e_j, on the {xi1 = 0}
        side of the first standard-form patch (sign +1) and on the {xi2 = 0}
        side of the second (sign -1), all sides in one ``_side_layers`` call.
        Boundary edges have one side, with alpha = 1, beta = 0.
        """
        mp = self.geometry
        j, s = np.array(_edge_index_set(self.sminus.N)).T
        T, V = (np.eye(n)[:, j] * (s == b) for n, b in ((self.splus.N, 0), (self.sminus.N, 1)))
        for edge in mp.edges:  # ``_refined`` carries the data over
            if edge.id in self.gluing or not edge.is_interface:
                self.gluing.setdefault(edge.id, boundary_gluing())
                continue
            try:
                self.gluing[edge.id] = fit_asg1(*(mp.patches[i].rotate(k)
                                                  for i, k in edge_frames(edge)))
            except ConformityError as exc:
                raise ConformityError(f"interface {edge.id}: {exc}") from None
        owner, sign, rows = self._strips("edge")
        glue = [(g.alpha1, g.beta1) if s > 0 else (g.alpha2, g.beta2)
                for g, s in zip((self.gluing[e] for e in owner), sign)]
        layers = self._side_layers(T, V, *(np.array(t) for t in zip(*glue)), sign)
        start, k = self._layout["edge"]
        return [(rows[..., None], start + owner[:, None, None, None] * k + np.arange(k), layers)]

    def build_vertex_functions(self):
        """Six functions per vertex, dual to scaled derivatives of order <= 2.

        Function j is the alternating-sum Hermite interpolant of the C2 datum
        sigma^|j| e_j, so the six data form diag(sigma^|j|). On every
        surrounding patch the functions are the side layers of the two edge
        slots there, with S+ and S- end coefficients given by the slot's edge
        data times the data, minus the 2x2 corner block of the patch's corner
        data times the data, which both slots contain.

        One formula gives the edge data of every slot of every vertex: the
        slot after a corner reads the corner's jets through the gluing of the
        edge after it, the corner's patch first. The slot before a corner is
        the previous corner's; before a boundary vertex's first corner it is
        the formula on that corner's transposed jets with alpha1 = -1,
        beta1 = 0 (d = -d2F, d' = -d1d2F), its side alpha = 1, beta = 0. The
        pieces stack the corner blocks negated, then the sides before (sign
        -1) and after (sign +1) each corner: C sums each position in order.
        """
        mp, h, p = self.geometry, self.config.h, self.config.p
        owner, sign, rows = self._strips("vertex")
        vid = owner[sign > 0]
        K = len(vid)
        # jets[c, a, b] = d^a d^b F / dxi1^a dxi2^b at corner c in its
        # standard-form frame, read off the 3x3 corner block of its net
        jets = self._map_jets(rows[sign > 0], [0.0], 2)[:, 0]

        # the topology walk: slot c < K follows corner c, slot K + b precedes
        # the first corner of the b-th boundary vertex; before[c] is the slot
        # preceding corner c
        glue, before, first = [], [], []
        for vertex in mp.vertices:
            ring = vertex_surrounding_edges(mp, vertex)
            c0 = len(glue)
            for corner, edge in zip(vertex.corners, ring[1:] + ring[:1]):
                g = self.gluing[edge.id]
                glue.append(g if edge.locals[0] == corner else g.reversed())
            before += [len(glue) - 1 if vertex.is_interior else K + len(first)]
            before += range(c0, len(glue) - 1)
            first += [] if vertex.is_interior else [c0]
        one, zero = np.array([1.0, 0.0]), np.zeros(2)  # boundary slots: alpha1 = -1, alpha2 = 1
        slots = glue + [GluingData(-one, zero, one, zero, np.zeros(3), 0.0, True)] * len(first)
        pairs = [(slots[s], g) for s, g in zip(before, glue)]  # sides read alpha2, then alpha1
        alpha = np.array([x for b, a in pairs for x in (b.alpha2, a.alpha1)])
        beta = np.array([x for b, a in pairs for x in (b.beta2, a.beta1)])

        # sigma per vertex, the scales sigma^|j| per corner, the corner blocks
        jac = np.stack([jets[:, 1, 0], jets[:, 0, 1]], axis=-1).reshape(K, 1, 4)
        norms = np.sqrt(jac @ jac.reshape(K, 4, 1)).ravel()  # the Jacobians' Frobenius norms
        self._sigma = 1.0 / (h / (p * np.bincount(vid)) * np.bincount(vid, norms))
        scale = np.float_power(self._sigma[:, None], np.sum(VERTEX_INDEX_ORDER, axis=1))[vid]
        # the jet (f, f_v, f_u, f_uv) of each datum pulled back to the patch
        u, v = jets[:, 1, 0], jets[:, 0, 1]
        corner_data = np.stack([np.broadcast_to(_VALUE, (K, 6)), _d1(v), _d1(u),
                                _d2(u, v, jets[:, 1, 1])], axis=1)
        corner = -(self._corner_map @ (corner_data * scale[:, None])).reshape(K, 2, 2, 6)

        # every slot's (5, 6) edge data times the data, and its S+ and S- ends
        J = np.concatenate([jets, jets[first].swapaxes(1, 2)])
        a1, b1 = (np.array([getattr(g, n) for g in slots]) for n in ("alpha1", "beta1"))
        d, dp = _transversal_from_jet(a1, b1, J, np.zeros(len(J)))
        D = _edge_data(J[:, 0, 1], J[:, 0, 2], d, dp, h / p) * np.r_[scale, scale[first]][:, None]
        T, V = self._aplus @ D[:, :3], self._aminus @ D[:, 3:]

        side = np.stack([before, np.arange(K)], axis=1).ravel()  # the slot of each side
        layers = self._side_layers(T[side], V[side], alpha, beta, sign)
        cols = self._layout["vertex"][0] + vid[:, None, None, None] * 6 + np.arange(6)
        # the rows of the side after a corner start with the corner's 2x2 block
        return [(rows[1::2, :2, :2, None], cols, corner),
                (rows[:, :2, :, None], np.repeat(cols, 2, axis=0), layers)]

    def vertex_projector(self, vid, data):
        """Alternating-sum Hermite interpolant of C2 data at one vertex.

        Returns its coefficient vector (dim,): the vertex's six basis
        functions carry the data scaled by sigma^-|j|, so it matches value,
        gradient and Hessian of the data at the vertex from every surrounding
        patch and is identically zero when the data is zero.
        """
        g, H = data.grad, data.hess
        slot_data = (data.value, g[0], g[1], H[0, 0], H[0, 1], H[1, 1])
        sig = self.sigma(vid)
        coeffs = np.zeros(self.dim)
        coeffs[self.block("vertex", vid)] = [
            value / sig ** sum(j) for j, value in zip(VERTEX_INDEX_ORDER, slot_data)
        ]
        return coeffs

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def block(self, kind, owner):
        """Positions of the basis functions that one entity owns: patch,
        edge or vertex ``owner``."""
        if kind not in self._layout:
            raise InvalidConfigError(f"unknown basis family {kind!r}")
        start, size = self._layout[kind]
        owner = _integer(owner, f"{kind} id")
        if not 0 <= owner < self.breakdown[kind] // size:
            raise InvalidConfigError(f"{kind} id {owner} out of range")
        return slice(start + owner * size, start + (owner + 1) * size)

    def basis_id(self, a):
        """Family, owning entity and local index of basis function a: (j1, j2)
        for a patch, (j, 0) trace or (j, 1) derivative for an edge, the
        derivative order (j1, j2) for a vertex."""
        a = _integer(a, "basis index")
        if not 0 <= a < self.dim:
            raise InvalidConfigError(f"basis index {a} out of range (dim {self.dim})")
        for kind, (start, size) in self._layout.items():
            if a < start + self.breakdown[kind]:
                break
        owner, local = divmod(a - start, size)
        if kind == "patch":
            index = (2 + local // (self.N - 4), 2 + local % (self.N - 4))
        elif kind == "edge":
            index = _edge_index_set(self.sminus.N)[local]
        else:
            index = VERTEX_INDEX_ORDER[local]
        return BasisId(kind, owner, index)

    def sigma(self, vid):
        self.block("vertex", vid)
        return self._sigma[vid]

    def _coeffs(self, coeffs):
        """``coeffs`` as a real (dim,) or (dim, k) array of finite values."""
        coeffs = _real(coeffs, "coefficient array")
        if coeffs.ndim not in (1, 2) or coeffs.shape[0] != self.dim:
            raise InvalidConfigError(
                f"coefficient array has shape {coeffs.shape}, expected "
                f"({self.dim},) or ({self.dim}, k)"
            )
        if not np.isfinite(coeffs).all():
            raise InvalidConfigError("coefficient array has non-finite entries")
        return coeffs

    def _check_field(self, field):
        """Refuse a field bound to another geometry object than the space's:
        its samples would be read on the wrong patch maps."""
        if field.geometry is not self.geometry:
            raise InvalidConfigError("the field is bound to another geometry than the space")

    def combine(self, coeffs, patch):
        """Dense coefficient grid (N, N) of sum_a coeffs[a] * function_a on a
        patch; a (dim, k) coefficient matrix gives k grids, (N, N, k)."""
        coeffs = self._coeffs(coeffs)
        return (self.extraction(patch) @ coeffs).reshape(self.shape + coeffs.shape[1:])

    def extraction(self, patch):
        """The (N*N, dim) extraction matrix of a patch: its rows of ``C``,
        sharing their entries."""
        self.block("patch", patch)
        return self.C.row_block(patch * self.N**2, (patch + 1) * self.N**2)


def physical_derivatives(geo_jet, f_jet):
    """Convert parametric jets to physical value/gradient/Hessian.

    ``geo_jet``: (m, d, d, 2) patch-map derivatives; ``f_jet``: (m, d, d),
    or (m, d, d, k) for k functions at once, with d = 3, or d = 2 when no
    Hessian is wanted. Returns (values (m,), gradients (m, 2), Hessians
    (m, 2, 2) or None for d = 2); k functions add an axis of length k after
    the first.
    """
    m, d = f_jet.shape[:2]
    extra = f_jet.shape[3:]
    k = int(np.prod(extra, dtype=int))
    f = f_jet.reshape(m, d, d, k)
    # Jinv[q, a, i] = dxi_a / dx_i, so grad^T = (grad_xi f)^T Jinv
    Jinv = np.linalg.inv(np.stack([geo_jet[:, 1, 0], geo_jet[:, 0, 1]], axis=-1))
    grad = np.stack([f[:, 1, 0], f[:, 0, 1]], axis=-1) @ Jinv  # (m, k, 2)
    hess = None
    if d > 2:
        # jet index (i1, 2 - i1) of the second derivative d^2 / dxi_a dxi_b;
        # H[q, f, a, b] = d^2 f / dxi_a dxi_b - grad f . d^2 F / dxi_a dxi_b
        i1 = np.array([[2, 1], [1, 0]])
        F2 = geo_jet[:, i1, 2 - i1].reshape(m, 4, 2)
        H = f[:, i1, 2 - i1].reshape(m, 4, k).transpose(0, 2, 1) - grad @ F2.transpose(0, 2, 1)
        hess = Jinv.transpose(0, 2, 1)[:, None] @ H.reshape(m, k, 2, 2) @ Jinv[:, None]
        hess = hess.reshape((m,) + extra + (2, 2))
    return f[:, 0, 0].reshape((m,) + extra), grad.reshape((m,) + extra + (2,)), hess
