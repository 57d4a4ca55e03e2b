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
  has a (5, 6) matrix taking a C2 datum to the end values of T and V, and
  each patch corner a (4, 6) matrix taking it to the jet whose 2x2 corner
  coefficients both slots share; a function is the layers of its two slots
  minus that corner block.

The columns are written as triplets straight from these layers, with the
rows found by the index permutation of the patch's standard-form rotation
(``_rows``). All products entering the pullbacks (alpha times an S- spline,
beta times a derivative of an S+ spline) are degree p piecewise polynomials
of smoothness r, so the extraction matrix is exact up to rounding. Of an
edge the space keeps only its gluing data ``gluing[eid]``, and of a vertex
only sigma; the dual functionals and the audit read the rest off the geometry
(the functionals keep what they read, and D, in ``_dual_geometry``).

The basis is numbered by entity blocks: all patches, then all edges, then all
vertices, each entity owning a contiguous run whose length depends on (p, r,
n) alone; ``block`` and ``basis_id`` translate by arithmetic.
"""

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bspline import _basis_values, _drop_noise, derived_edge_spaces, represent_exactly
from .errors import ArgyrisError, InvalidConfigError
from .gluing import DEFAULT_TOL, _transversal_from_jet, boundary_gluing, fit_asg1
from .multipatch import edge_frames, rotate_net, vertex_surrounding_edges

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


# Linear forms in a C2 datum (v, g0, g1, H00, H01, H11) at the vertex: its
# value, its derivative g.a along a curve with velocity a, and its mixed
# second derivative a^T H b + g.ab along a map with first derivatives a, b
# and mixed derivative ab.
_VALUE = np.eye(6)[0]


def _d1(a):
    return np.array([0.0, a[0], a[1], 0.0, 0.0, 0.0])


def _d2(a, b, ab):
    return np.array(
        [0.0, ab[0], ab[1], a[0] * b[0], a[0] * b[1] + a[1] * b[0], a[1] * b[1]]
    )


def _edge_data(t0, t0p, d0, d0p, hp):
    """(5, 6) edge data of a slot at the vertex: value, first and second
    tangential derivative, then the first two (h/p)-scaled transversal ones,
    for a trace with tangent t0, t0' and transversal direction d0, d0'."""
    return np.stack(
        [_VALUE, _d1(t0), _d2(t0, t0, t0p), hp * _d1(d0), hp * _d2(t0, d0, d0p)]
    )


#: rows of A that one step of the sparse product ``A @ B`` reads
_PRODUCT_ROWS = 1 << 12


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
        key, at = np.unique(np.asarray(rows, dtype=np.int64) * shape[1] + cols,
                            return_inverse=True)
        vals = np.bincount(at, weights=vals, minlength=len(key)).astype(float, copy=False)
        keep = vals != 0.0
        rows, cols = np.divmod(key[keep], shape[1])
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
        """A @ x for a dense vector (n,) or array (n, ...), or a ``CSRMatrix``.
        Each entry of the result adds its terms to 0 one by one in stored
        order, so a column of x gives the same digits alone as among others."""
        if isinstance(x, CSRMatrix):
            return self._times_sparse(x)
        x = np.asarray(x, dtype=float)
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
        """y @ A for a dense vector (m,) or array (..., m), summed in stored
        order like ``A @ x``."""
        y = np.asarray(y, dtype=float)
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


def _coo(pieces):
    """Triplets (rows, columns, values) of the columns given by pieces (rows,
    values), values of shape rows.shape + (k,), keeping nonzero values only;
    no row may repeat."""
    rows = np.concatenate([r.ravel() for r, _ in pieces])
    vals = np.concatenate([v.reshape(r.size, -1) for r, v in pieces])
    i, cols = np.nonzero(vals)
    return rows[i], cols, vals[i, cols]


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

    def __init__(self, geometry, tol=DEFAULT_TOL):
        cfg = geometry.config
        cfg.check_argyris()
        self.geometry = geometry
        self.config = cfg
        self.tol = tol
        self.splus, self.sminus = derived_edge_spaces(cfg)
        self.N = cfg.N
        self.shape = (self.N, self.N)
        # _rows[k][a, b]: row in a patch's extraction matrix of position
        # (a, b) of its grid seen in the frame rotated by k quarter turns
        self._rows = [rotate_net(np.arange(self.N**2).reshape(self.shape), k)
                      for k in range(4)]

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

        # _ends[a, i]: a-th derivative at 0 of basis function i (corner jets)
        _, ders = cfg.basis_ders(np.array([0.0]), 2)
        self._ends = ders[0][:, :3]
        # corner Hermite map: the 2x2 corner coefficients of a tensor spline,
        # flattened, are this matrix times its flattened jet (f, f_v, f_u, f_uv)
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

        self.dim, self.breakdown = space_dimension(geometry, cfg)
        # family -> (position of its first function, functions per entity)
        sizes = _block_sizes(cfg)
        starts = np.cumsum([0, *self.breakdown.values()])
        self._layout = {kind: (int(a), sizes[kind]) for kind, a in zip(sizes, starts)}
        self.gluing = {}  # edge id -> GluingData, the edge's standard-form gluing
        self._sigma = {}  # vertex id -> sigma
        # what the dual functionals read of the geometry and the gluing: per
        # kind the table of all edges or all vertices, and the dual matrix D;
        # filled on first use by ``duality``, never by the build
        self._dual_geometry = {}
        self.C = self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build(self):
        """Assemble the extraction matrix, entity block by entity block.

        Each builder returns its column count and, per patch it touches, its
        extraction columns as triplets (rows of the patch's grid, columns,
        values), which land in the block of its entity and in the rows of the
        patch.
        """
        mp = self.geometry
        families = [("patch", i, self.build_patch_interior(i))
                    for i in range(len(mp.patches))]
        families += [("edge", e.id, self.build_edge_functions(e.id)) for e in mp.edges]
        families += [("vertex", v.id, self.build_vertex_functions(v.id))
                     for v in mp.vertices]
        triplets = []
        for kind, owner, (k, columns) in families:
            block = self.block(kind, owner)
            if k != block.stop - block.start:
                raise ArgyrisError(
                    f"dimension bookkeeping broke: formula gives "
                    f"{block.stop - block.start} functions per {kind}, build gives {k}"
                )
            for i, (rows, cols, vals) in columns.items():
                triplets.append((rows + i * self.N**2, cols + block.start, vals))
        shape = (len(mp.patches) * self.N**2, self.dim)
        return CSRMatrix.from_triplets(*(np.concatenate(t) for t in zip(*triplets)), shape)

    def build_patch_interior(self, i):
        """Unit-coefficient B-splines with indices in {2..N-3}^2."""
        N = self.N
        inner = np.arange(2, N - 2)
        rows = (inner[:, None] * N + inner).ravel()
        k = rows.size
        return k, {i: (rows, np.arange(k), np.ones(k))}

    def _mult_rep(self, sminus_coeffs, lin):
        """Coefficients in S^{p,r} of (lin[0] + lin[1]*x) times an S- spline.

        Accepts a matrix of splines (one per column)."""
        return (lin[0] * self._E + lin[1] * self._X) @ sminus_coeffs

    def _side_layers(self, T, V, alpha, beta, role):
        """The two coefficient layers (2, N, k) next to an edge on one side.

        Column f maps S+ trace coefficients T[:, f] and S- coefficients
        V[:, f] of the (h/p)-scaled transversal derivative to

            u0 = T,   u1 = u0 - (h/p) beta T' +- alpha V

        in S^{p,r}, with + on the patch before the edge (role 1) and - on the
        patch after it (role 2).
        """
        hp = self.config.h / self.config.p
        u0 = self._rep_plus @ T
        u1 = u0 - hp * self._mult_rep(self._der_plus @ T, beta)
        w = self._mult_rep(V, alpha)
        return np.stack([u0, u1 + w if role == 1 else u1 - w])

    def build_edge_functions(self, eid):
        """Edge basis: traces from S+ and transversal derivatives from S-.

        The trace function (j, 0) has the layers of T = e_j, V = 0 and the
        derivative function (j, 1) those of T = 0, V = e_j, on the {xi1 = 0}
        side of the first standard-form patch (role 1) and on the {xi2 = 0}
        side of the second (role 2). Boundary edges use role 1 with
        alpha = 1, beta = 0.
        """
        mp = self.geometry
        edge = mp.edges[eid]
        frames = edge_frames(edge)
        if edge.is_interface:
            g = fit_asg1(*(mp.patches[i].rotate(k) for i, k in frames), tol=self.tol)
        else:
            g = boundary_gluing()
        self.gluing[eid] = g
        idx = _edge_index_set(self.sminus.N)
        k = len(idx)
        T = np.zeros((self.splus.N, k))
        V = np.zeros((self.sminus.N, k))
        for f, (j, s) in enumerate(idx):
            (V if s else T)[j, f] = 1.0

        columns = {}
        roles = ((1, g.alpha1, g.beta1), (2, g.alpha2, g.beta2))
        for (ipatch, rot), (role, alpha, beta) in zip(frames, roles):
            # layers {xi1 = 0, 1} of the first patch, {xi2 = 0, 1} of the second
            R = self._rows[rot]
            rows = R[:2] if role == 1 else R[:, :2].T
            layers = self._side_layers(T, V, alpha, beta, role)
            columns[ipatch] = _coo([(rows, layers)])
        return k, columns

    def build_vertex_functions(self, vid):
        """Six functions per vertex, dual to scaled derivatives of order <= 2.

        Function j is the alternating-sum Hermite interpolant of the C2 datum
        sigma^|j| e_j, so the six data form diag(sigma^|j|). On every
        surrounding patch the functions are the side layers of the two edge
        slots there, with S+ and S- end coefficients given by the slot's edge
        data times the data, minus the 2x2 corner block of the patch's corner
        data times the data, which both slots contain. Slot ell is edge ell
        of ``vertex_surrounding_edges``, between patches ell-1 and ell.
        """
        mp = self.geometry
        vertex = mp.vertices[vid]
        ring = vertex_surrounding_edges(mp, vertex)
        nu = vertex.valence
        h, p = self.config.h, self.config.p
        hp = h / p

        # jets[ell][a, b] = d^a d^b F / dxi1^a dxi2^b at the vertex of patch ell
        # in its standard-form frame, read off the 3x3 corner block of its net;
        # sigma, the slots and the corner data are read from them
        blocks = [mp.patches[i].net.reshape(-1, 2)[self._rows[c][:3, :3]]
                  for i, c in vertex.corners]
        jets = self._corner_jets(np.array(blocks))
        jacobians = [np.stack([J[1, 0], J[0, 1]], axis=-1) for J in jets]
        sigma = 1.0 / (h / (p * nu) * sum(np.linalg.norm(Jac) for Jac in jacobians))
        self._sigma[vid] = sigma
        scale = np.array([sigma ** sum(j) for j in VERTEX_INDEX_ORDER])

        # slot ell: its (5, 6) edge data times the data, and the gluing
        # (alpha, beta) seen from the patch before (role 1) and after (role 2)
        slots = []
        for ell, edge in enumerate(ring):
            if ell == 0 and not edge.is_interface:
                # boundary edge on the {xi2 = 0} side of the first patch
                J = jets[0]
                data = _edge_data(J[1, 0], J[2, 0], -J[0, 1], -J[1, 1], hp)
                roles = {2: (np.array([1.0, 0.0]), np.zeros(2))}
            else:
                # the edge was fitted with its first listed side as patch 1
                # (a boundary edge after the last patch: alpha1 = 1, beta1 = 0,
                # so d = d1F); reverse when that is patch ell rather than ell-1
                corner = vertex.corners[(ell - 1) % nu]
                g = self.gluing[edge.id]
                if edge.locals[0] != corner:
                    g = g.reversed()
                J = jets[(ell - 1) % nu]
                d, dp = _transversal_from_jet(g, J[None], np.zeros(1))
                data = _edge_data(J[0, 1], J[0, 2], d[0], dp[0], hp)
                roles = {1: (g.alpha1, g.beta1), 2: (g.alpha2, g.beta2)}
            slots.append((data * scale, roles))

        columns = {}
        for ell, (ipatch, rot) in enumerate(vertex.corners):
            layers = {}
            around = ((slots[ell], 2), (slots[(ell + 1) % len(slots)], 1))
            for (D, roles), role in around:
                T, V = self._aplus @ D[:3], self._aminus @ D[3:]
                layers[role] = self._side_layers(T, V, *roles[role], role)
            # the jet (f, f_v, f_u, f_uv) of the datum pulled back to the
            # patch; its 2x2 corner block lies in both sides' layers and is
            # summed here, so every position is written once
            J = jets[ell]
            corner_data = np.stack(
                [_VALUE, _d1(J[0, 1]), _d1(J[1, 0]), _d2(J[1, 0], J[0, 1], J[1, 1])]
            )
            corner = (
                -(self._corner_map @ (corner_data * scale)).reshape(2, 2, 6)
                + layers[2][:, :2].swapaxes(0, 1)
                + layers[1][:, :2]
            )
            R = self._rows[rot]
            columns[ipatch] = _coo([
                (R[:2, :2], corner),
                (R[:2, 2:], layers[1][:, 2:]),
                (R[2:, :2].T, layers[2][:, 2:]),
            ])
        return len(VERTEX_INDEX_ORDER), columns

    def _corner_jets(self, blocks):
        """d^a d^b f / dxi1^a dxi2^b, a, b <= 2, at the corner (0, 0) of
        tensor splines f with 3x3 corner coefficient blocks (..., 3, 3, c):
        (..., 3, 3, c)."""
        return np.einsum("ai,...ijc,bj->...abc", self._ends, blocks, self._ends)

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
        owner = operator.index(owner)
        if not 0 <= owner < self.breakdown[kind] // size:
            raise InvalidConfigError(f"{kind} id {owner} out of range")
        return slice(start + owner * size, start + (owner + 1) * size)

    def basis_id(self, a):
        """Family, owning entity and local index of basis function a: (j1, j2)
        for a patch, (j, 0) trace or (j, 1) derivative for an edge, the
        derivative order (j1, j2) for a vertex."""
        a = operator.index(a)
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

    def _check_coeffs(self, coeffs):
        if coeffs.ndim not in (1, 2) or coeffs.shape[0] != self.dim:
            raise InvalidConfigError(
                f"coefficient array has shape {coeffs.shape}, expected "
                f"({self.dim},) or ({self.dim}, k)"
            )
        if not np.isfinite(coeffs).all():
            raise InvalidConfigError("coefficient array has non-finite entries")

    def _check_field(self, field):
        """Refuse a field bound to another geometry object than the space's:
        its samples would be read on the wrong patch maps."""
        if field.geometry is not self.geometry:
            raise InvalidConfigError("the field is bound to another geometry than the space")

    def combine(self, coeffs, patch):
        """Dense coefficient grid (N, N) of sum_a coeffs[a] * function_a on a
        patch; a (dim, k) coefficient matrix gives k grids, (N, N, k)."""
        coeffs = np.asarray(coeffs, dtype=float)
        self._check_coeffs(coeffs)
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
