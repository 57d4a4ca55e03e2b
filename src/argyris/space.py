"""Construction of the C1 smooth space over an AS-G1 multi-patch domain.

Every basis function is a fixed tensor-spline coefficient grid on each patch,
so the space is one linear map per patch from global coefficients to the
patch's (N, N) coefficient grid. It is stored as a sparse extraction matrix
``C[i]`` of shape (N*N, dim) per patch (Borden, Scott, Evans & Hughes,
IJNME 2011); every consumer is a sparse product with it. The columns come in
three families:

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

The columns are written as sparse triplets straight from these layers, with
the rows found by the index permutation of the patch's standard-form
rotation. All products entering the pullbacks (alpha times an S- spline,
beta times a derivative of an S+ spline) are degree p piecewise polynomials
of smoothness r, so the extraction matrices are exact up to rounding.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .bspline import UnivariateSpace, TensorSpace, _basis_values, _drop_noise, \
    derived_edge_spaces, represent_exactly
from .errors import ArgyrisError, InvalidConfigError
from .gluing import _transversal_from_jet, boundary_gluing, fit_asg1
from .multipatch import rotate_net, standard_form_vertex

__all__ = [
    "BasisId",
    "C2Data",
    "ArgyrisFunction",
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
        self.grad = np.asarray(self.grad, dtype=float).reshape(2)
        self.hess = np.asarray(self.hess, dtype=float).reshape(2, 2)
        if abs(self.hess[0, 1] - self.hess[1, 0]) > 1e-12 * (
            1.0 + np.abs(self.hess).max()
        ):
            raise InvalidConfigError("Hessian data must be symmetric")
        if not all(np.isfinite(x).all() for x in (self.value, self.grad, self.hess)):
            raise InvalidConfigError("C2 data must be finite")


class ArgyrisFunction:
    """Member of the space viewed through the extraction matrices.

    ``id`` names it; ``coeffs`` is its coefficient vector in the basis, the
    unit vector for a basis function.
    """

    def __init__(self, space, fid, coeffs=None):
        self.space = space
        self.id = fid
        self._coeffs = coeffs

    @property
    def coeffs(self):
        if self._coeffs is not None:
            return self._coeffs
        unit = np.zeros(self.space.dim)
        unit[self.space.index_of[self.id]] = 1.0
        return unit

    @property
    def support(self):
        """Patches on which the function is not identically zero."""
        c = self.coeffs
        return {i for i in range(len(self.space.C)) if self.space.combine(c, i).any()}

    def dense_grid(self, shape, patch):
        return self.space.combine(self.coeffs, patch).reshape(shape)


def space_dimension(mp, config=None):
    """Dimension and per-family breakdown, from topology counts alone.

    ``mp`` may be a MultiPatch or a bare (patches, edges, vertices) count
    triple; the latter needs an explicit config.
    """
    if isinstance(mp, tuple):
        n_patches, n_edges, n_vertices = mp
        if config is None:
            raise InvalidConfigError("count triples need an explicit config")
    else:
        n_patches = len(mp.patches)
        n_edges = len(mp.edges)
        n_vertices = len(mp.vertices)
        config = config or mp.config
    config.check_argyris()
    p, r, n = config.p, config.r, config.n
    N = (p - r) * (n - 1) + p + 1
    Nm = (p - r - 1) * (n - 1) + p
    per_patch = (N - 4) ** 2
    per_edge = 2 * Nm - 9
    counts = {
        "patch": n_patches * per_patch,
        "edge": n_edges * per_edge,
        "vertex": n_vertices * 6,
    }
    return sum(counts.values()), counts


def _edge_index_set(Nm):
    """Interior edge indices: (j1, 0) traces and (j1, 1) derivatives."""
    trace = [(j, 0) for j in range(3, Nm - 2)]
    deriv = [(j, 1) for j in range(2, Nm - 2)]
    return trace + deriv


class _EdgeAssembly:
    """Standard-form data of one edge, kept for dual functionals."""

    __slots__ = ("side1", "side2", "P1", "gluing")

    def __init__(self, side1, side2, P1, gluing):
        self.side1 = side1  # (patch index, rotation applied)
        self.side2 = side2
        self.P1 = P1
        self.gluing = gluing


class _VertexAssembly:
    """Standard-form data of one vertex: rotated patches, edge slots and the
    (4, 6) corner-data matrix of every surrounding patch."""

    __slots__ = ("vertex", "rotated", "sigma", "slots", "corner_data")

    def __init__(self, vertex, rotated, sigma, slots, corner_data):
        self.vertex = vertex
        self.rotated = rotated
        self.sigma = sigma
        self.slots = slots
        self.corner_data = corner_data


class _EdgeSlot:
    """One edge around a vertex: its (5, 6) edge-data matrix and the gluing
    polynomials seen from the patches before (role 1) and after (role 2) the
    edge in counterclockwise order."""

    __slots__ = ("data", "a1", "b1", "a2", "b2")

    def __init__(self, data, a1, b1, a2, b2):
        self.data = data
        self.a1 = a1  # alpha/beta monomial coeffs per role; None when absent
        self.b1 = b1
        self.a2 = a2
        self.b2 = b2


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


def _coo(size, pieces):
    """Sparse columns (size, k) from pieces (rows, values) with values of
    shape rows.shape + (k,), keeping nonzero values only; no row may repeat."""
    rows = np.concatenate([r.ravel() for r, _ in pieces])
    vals = np.concatenate([v.reshape(r.size, -1) for r, v in pieces])
    i, cols = np.nonzero(vals)
    return scipy.sparse.coo_matrix(
        (vals[i, cols], (rows[i], cols)), shape=(size, vals.shape[1])
    )


class ArgyrisSpace:
    """The assembled smooth space over a validated multi-patch geometry.

    ``C[i]`` is the sparse (N*N, dim) extraction matrix of patch i: column a
    holds the flattened (N, N) tensor-spline coefficient grid of basis
    function a on that patch.
    """

    def __init__(self, geometry, tol=1e-9):
        cfg = geometry.config
        cfg.check_argyris()
        self.geometry = geometry
        self.config = cfg
        self.tol = tol
        self.usp = UnivariateSpace(cfg.p, cfg.r, cfg.n)
        self.tspace = TensorSpace(self.usp)
        self.splus, self.sminus = derived_edge_spaces(self.usp)
        self.N = self.usp.N
        self.shape = (self.N, self.N)
        # _rows[k][a, b]: extraction row of position (a, b) of a patch's grid
        # seen in the frame rotated by k quarter turns
        self._rows = [rotate_net(np.arange(self.N**2).reshape(self.shape), k)
                      for k in range(4)]

        # S+ basis and its derivative, re-expressed in S^{p,r} and S-
        self._rep_plus = represent_exactly(
            self.usp, lambda x: _basis_values(self.splus, x)
        )  # (N, N+)
        self._der_plus = represent_exactly(
            self.sminus, lambda x: _basis_values(self.splus, x, 1)
        )  # (N-, N+)
        # S- basis and x times it in S^{p,r}: the product of (a + b x) with
        # an S- spline v has coefficients (a E + b X) v
        self._E = represent_exactly(self.usp, lambda x: _basis_values(self.sminus, x))
        self._X = represent_exactly(
            self.usp, lambda x: x[:, None] * _basis_values(self.sminus, x)
        )  # both (N, N-)

        # corner Hermite map: the 2x2 corner coefficients of a tensor spline,
        # flattened, are this matrix times its flattened jet (f, f_v, f_u, f_uv)
        _, ders = self.usp.basis_ders(np.array([0.0]), 1)
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

        self.functions = []
        self.index_of = {}
        self.edge_assembly = {}
        self.vertex_assembly = {}
        self.C = self._build()

        expected, breakdown = space_dimension(geometry, cfg)
        self.breakdown = breakdown
        if expected != len(self.functions):
            raise ArgyrisError(
                f"dimension bookkeeping broke: formula gives {expected}, "
                f"enumeration gives {len(self.functions)}"
            )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build(self):
        """Enumerate the basis and assemble the extraction matrices.

        Each builder returns the ids of its functions and, per patch it
        touches, their extraction columns.
        """
        mp = self.geometry
        families = [self.build_patch_interior(i) for i in range(len(mp.patches))]
        families += [self.build_edge_functions(e.id) for e in mp.edges]
        families += [self.build_vertex_functions(v.id) for v in mp.vertices]
        triplets = [([], [], []) for _ in mp.patches]
        for ids, columns in families:
            offset = len(self.functions)
            for fid in ids:
                self.index_of[fid] = len(self.functions)
                self.functions.append(ArgyrisFunction(self, fid))
            for i, cols in columns.items():
                triplets[i][0].append(cols.row)
                triplets[i][1].append(cols.col + offset)
                triplets[i][2].append(cols.data)
        shape = (self.N * self.N, len(self.functions))
        return [
            scipy.sparse.csr_matrix(
                (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                shape=shape,
            )
            for rows, cols, vals in triplets
        ]

    def build_patch_interior(self, i):
        """Unit-coefficient B-splines with indices in {2..N-3}^2."""
        N = self.N
        inner = range(2, N - 2)
        ids = [BasisId("patch", i, (j1, j2)) for j1 in inner for j2 in inner]
        rows = [j1 * N + j2 for j1 in inner for j2 in inner]
        k = len(rows)
        cols = scipy.sparse.coo_matrix(
            (np.ones(k), (rows, np.arange(k))), shape=(N * N, k)
        )
        return ids, {i: cols}

    def _edge_assembly_for(self, eid):
        mp = self.geometry
        edge = mp.edges[eid]
        if edge.is_interface:
            (i1, k1), (i2, k2) = edge.locals
            P1 = mp.patches[i1].rotate(k1)
            P2 = mp.patches[i2].rotate((k2 - 1) % 4)
            g = fit_asg1(P1, P2, tol=self.tol)
            return _EdgeAssembly((i1, k1), (i2, (k2 - 1) % 4), P1, g)
        (i1, k1), = edge.locals
        P1 = mp.patches[i1].rotate(k1)
        return _EdgeAssembly((i1, k1), None, P1, boundary_gluing(P1))

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
        asm = self._edge_assembly_for(eid)
        self.edge_assembly[eid] = asm
        idx = _edge_index_set(self.sminus.N)
        k = len(idx)
        T = np.zeros((self.splus.N, k))
        V = np.zeros((self.sminus.N, k))
        for f, (j, s) in enumerate(idx):
            (V if s else T)[j, f] = 1.0

        g = asm.gluing
        sides = [(asm.side1, 1, g.alpha1, g.beta1)]
        if asm.side2 is not None:
            sides.append((asm.side2, 2, g.alpha2, g.beta2))
        columns = {}
        for (ipatch, rot), role, alpha, beta in sides:
            # layers {xi1 = 0, 1} of the first patch, {xi2 = 0, 1} of the second
            R = self._rows[rot]
            rows = R[:2] if role == 1 else R[:, :2].T
            layers = self._side_layers(T, V, alpha, beta, role)
            columns[ipatch] = _coo(self.N**2, [(rows, layers)])
        return [BasisId("edge", eid, j) for j in idx], columns

    def _vertex_assembly_for(self, vid):
        mp = self.geometry
        vertex = mp.vertices[vid]
        rotated = standard_form_vertex(mp, vertex)
        nu = vertex.valence
        h, p = self.config.h, self.config.p
        hp = h / p

        # jets[ell][a, b] = d^a d^b F / dxi1^a dxi2^b of rotated patch ell at
        # the vertex; sigma, the slots and the corner data are read from them
        jets = [P.jet(np.zeros((1, 2)), 2)[0] for P in rotated]
        jacobians = [np.stack([J[1, 0], J[0, 1]], axis=-1) for J in jets]
        sigma = 1.0 / (h / (p * nu) * sum(np.linalg.norm(Jac) for Jac in jacobians))
        # the jet (f, f_v, f_u, f_uv) of the datum pulled back to each patch
        corner_data = [
            np.stack([_VALUE, _d1(J[0, 1]), _d1(J[1, 0]), _d2(J[1, 0], J[0, 1], J[1, 1])])
            for J in jets
        ]

        one, zero = np.array([1.0, 0.0]), np.zeros(2)
        slots = []
        nslots = nu if vertex.is_interior else nu + 1
        for ell in range(nslots):
            if vertex.is_interior or 0 < ell < nu:
                # the interface between patches ell-1 and ell was fitted with
                # the edge's first listed side as patch 1; reverse otherwise
                corner = vertex.corners[(ell - 1) % nu]
                edge = mp.edge_of_side[corner]
                g = self.edge_assembly[edge.id].gluing
                if edge.locals[0] != corner:
                    g = g.reversed()
                J = jets[(ell - 1) % nu]
                d, dp = _transversal_from_jet(g, J[None], np.zeros(1))
                data = _edge_data(J[0, 1], J[0, 2], d[0], dp[0], hp)
                slot = _EdgeSlot(data, g.alpha1, g.beta1, g.alpha2, g.beta2)
            elif ell == 0:
                # boundary edge on the {xi2 = 0} side of the first patch
                J = jets[0]
                data = _edge_data(J[1, 0], J[2, 0], -J[0, 1], -J[1, 1], hp)
                slot = _EdgeSlot(data, None, None, one, zero)
            else:
                # boundary edge on the {xi1 = 0} side of the last patch
                J = jets[nu - 1]
                data = _edge_data(J[0, 1], J[0, 2], J[1, 0], J[1, 1], hp)
                slot = _EdgeSlot(data, one, zero, None, None)
            slots.append(slot)
        return _VertexAssembly(vertex, rotated, sigma, slots, corner_data)

    def build_vertex_functions(self, vid):
        """Six functions per vertex, dual to scaled derivatives of order <= 2.

        Function j is the alternating-sum Hermite interpolant of the C2 datum
        sigma^|j| e_j, so the six data form diag(sigma^|j|). On every
        surrounding patch the functions are the side layers of the two edge
        slots there, with S+ and S- end coefficients given by the slot's edge
        data times the data, minus the 2x2 corner block of the patch's corner
        data times the data, which both slots contain.
        """
        asm = self._vertex_assembly_for(vid)
        self.vertex_assembly[vid] = asm
        scale = np.array([asm.sigma ** sum(j) for j in VERTEX_INDEX_ORDER])
        nslots = len(asm.slots)
        columns = {}
        for ell, (ipatch, rot) in enumerate(asm.vertex.corners):
            layers = {}
            for slot, role in (
                (asm.slots[ell], 2), (asm.slots[(ell + 1) % nslots], 1)
            ):
                D = slot.data * scale
                T, V = self._aplus @ D[:3], self._aminus @ D[3:]
                alpha, beta = (slot.a1, slot.b1) if role == 1 else (slot.a2, slot.b2)
                layers[role] = self._side_layers(T, V, alpha, beta, role)
            # the 2x2 corner block lies in both sides' layers and is summed
            # here, so every position is written once
            corner = (
                -(self._corner_map @ (asm.corner_data[ell] * scale)).reshape(2, 2, 6)
                + layers[2][:, :2].swapaxes(0, 1)
                + layers[1][:, :2]
            )
            R = self._rows[rot]
            columns[ipatch] = _coo(self.N**2, [
                (R[:2, :2], corner),
                (R[:2, 2:], layers[1][:, 2:]),
                (R[2:, :2].T, layers[2][:, 2:]),
            ])
        return [BasisId("vertex", vid, j) for j in VERTEX_INDEX_ORDER], columns

    def vertex_projector(self, vid, data):
        """Alternating-sum Hermite interpolant of C2 data at one vertex.

        It is the combination of the vertex's six basis functions with the
        data scaled by sigma^-|j| as coefficients, so it matches value,
        gradient and Hessian of the data at the vertex from every surrounding
        patch and is identically zero when the data is zero.
        """
        g, H = data.grad, data.hess
        slot_data = (data.value, g[0], g[1], H[0, 0], H[0, 1], H[1, 1])
        sig = self.sigma(vid)
        coeffs = np.zeros(self.dim)
        for j, value in zip(VERTEX_INDEX_ORDER, slot_data):
            coeffs[self.index_of[BasisId("vertex", vid, j)]] = value / sig ** sum(j)
        return ArgyrisFunction(self, BasisId("vertex", vid, None), coeffs)

    # ------------------------------------------------------------------
    # queries and evaluation
    # ------------------------------------------------------------------

    @property
    def dim(self):
        return len(self.functions)

    def dimension(self):
        """Total dimension with the per-family breakdown (formula-checked)."""
        return self.dim, dict(self.breakdown)

    def sigma(self, vid):
        if vid not in self.vertex_assembly:
            raise InvalidConfigError(f"vertex id {vid} out of range")
        return self.vertex_assembly[vid].sigma

    def _check_coeffs(self, coeffs):
        if coeffs.ndim not in (1, 2) or coeffs.shape[0] != self.dim:
            raise InvalidConfigError(
                f"coefficient array has shape {coeffs.shape}, expected "
                f"({self.dim},) or ({self.dim}, k)"
            )

    def combine(self, coeffs, patch):
        """Dense coefficient grid (N, N) of sum_a coeffs[a] * function_a on a
        patch; a (dim, k) coefficient matrix gives k grids, (N, N, k)."""
        coeffs = np.asarray(coeffs, dtype=float)
        self._check_coeffs(coeffs)
        return (self.C[patch] @ coeffs).reshape(self.shape + coeffs.shape[1:])

    def evaluate(self, coeffs, patch, uv, nderiv=0):
        """Parametric jet of a coefficient vector on one patch.

        Returns an (m, nderiv+1, nderiv+1) array of mixed partial
        derivatives; pair it with the patch Jacobian for physical ones. A
        (dim, k) coefficient matrix adds a trailing axis of length k.
        """
        if not 0 <= patch < len(self.C):
            raise InvalidConfigError(f"patch index {patch} out of range")
        coeffs = np.asarray(coeffs, dtype=float)
        self._check_coeffs(coeffs)
        uv = np.atleast_2d(uv)
        jets = self.tspace.jet_matrix(uv, nderiv) @ (self.C[patch] @ coeffs)
        return jets.reshape((len(uv), nderiv + 1, nderiv + 1) + coeffs.shape[1:])

    def function_jet(self, a, patch, uv, nderiv=0):
        """Parametric jet of basis function a on one patch (zero off-support)."""
        return self.evaluate(self.functions[a].coeffs, patch, uv, nderiv)


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
    f = np.moveaxis(f_jet.reshape(m, d, d, int(np.prod(extra, dtype=int))), 3, 1)
    Fu = geo_jet[:, 1, 0, :]
    Fv = geo_jet[:, 0, 1, :]
    J = np.stack([Fu, Fv], axis=-1)[:, None]  # J[:, 0, i, d] = dF_i / dxi_d
    val = f[:, :, 0, 0]
    rhs = np.stack([f[:, :, 1, 0], f[:, :, 0, 1]], axis=-1)
    JT = np.swapaxes(J, 2, 3)
    grad = np.linalg.solve(JT, rhs[..., None])[..., 0]
    hess = None
    if d > 2:
        Hpar = np.empty(f.shape[:2] + (2, 2))
        Hpar[:, :, 0, 0] = f[:, :, 2, 0]
        Hpar[:, :, 0, 1] = Hpar[:, :, 1, 0] = f[:, :, 1, 1]
        Hpar[:, :, 1, 1] = f[:, :, 0, 2]
        for k in range(2):
            Fk = np.empty((m, 1, 2, 2))
            Fk[:, 0, 0, 0] = geo_jet[:, 2, 0, k]
            Fk[:, 0, 0, 1] = Fk[:, 0, 1, 0] = geo_jet[:, 1, 1, k]
            Fk[:, 0, 1, 1] = geo_jet[:, 0, 2, k]
            Hpar -= grad[:, :, k, None, None] * Fk
        Jinv = np.linalg.inv(J)
        hess = np.swapaxes(Jinv, 2, 3) @ Hpar @ Jinv
        hess = hess.reshape((m,) + extra + (2, 2))
    return val.reshape((m,) + extra), grad.reshape((m,) + extra + (2,)), hess
