"""Construction of the C1 smooth space over an AS-G1 multi-patch domain.

Every basis function is a fixed tensor-spline coefficient grid on each patch,
so the space is one linear map per patch from global coefficients to the
patch's (N, N) coefficient grid. It is stored as a sparse extraction matrix
``C[i]`` of shape (N*N, dim) per patch (Borden, Scott, Evans & Hughes,
IJNME 2011); every consumer is a sparse product with it. The columns come in
three families:

* patch-interior functions: single B-splines with two vanishing coefficient
  layers on every side of their patch;
* edge functions: built on the trace space S+ (degree p, smoothness r+1) and
  the transversal-derivative space S- (degree p-1, smoothness r), coupled
  across an interface through its linear gluing data;
* vertex functions: six per vertex, produced by an alternating sum of local
  Hermite projectors that interpolates value, gradient and Hessian at the
  vertex from every surrounding patch.

All products entering the pullbacks (alpha times an S- spline, beta times a
derivative of an S+ spline) are degree p piecewise polynomials of smoothness
r, so the extraction matrices are exact up to rounding.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .bspline import UnivariateSpace, TensorSpace, _basis_values, \
    derived_edge_spaces, represent_exactly
from .errors import ArgyrisError, InvalidConfigError
from .gluing import boundary_gluing, fit_asg1, transversal_vector
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

    __slots__ = ("edge", "side1", "side2", "P1", "P2", "gluing")

    def __init__(self, edge, side1, side2, P1, P2, gluing):
        self.edge = edge
        self.side1 = side1  # (patch index, rotation applied)
        self.side2 = side2
        self.P1 = P1
        self.P2 = P2
        self.gluing = gluing


class _VertexAssembly:
    """Standard-form data of one vertex: rotated patches and edge slots."""

    __slots__ = ("vertex", "rotated", "sigma", "point", "slots")

    def __init__(self, vertex, rotated, sigma, point, slots):
        self.vertex = vertex
        self.rotated = rotated
        self.sigma = sigma
        self.point = point
        self.slots = slots


class _EdgeSlot:
    """One edge around a vertex: tangent/transversal data at the vertex and
    the gluing polynomials seen from the patches before (role 1) and after
    (role 2) the edge in counterclockwise order."""

    __slots__ = ("t0", "t0p", "d0", "d0p", "a1", "b1", "a2", "b2")

    def __init__(self, t0, t0p, d0, d0p, a1, b1, a2, b2):
        self.t0 = t0
        self.t0p = t0p
        self.d0 = d0
        self.d0p = d0p
        self.a1 = a1  # alpha/beta monomial coeffs per role; None when absent
        self.b1 = b1
        self.a2 = a2
        self.b2 = b2


def _columns(grids, rot):
    """Extraction columns (N*N, k) of k coefficient grids stacked as (N, N, k)
    in the frame of a patch rotated by ``rot`` quarter turns."""
    grids = rotate_net(grids, (4 - rot) % 4)
    return scipy.sparse.coo_matrix(grids.reshape(-1, grids.shape[-1]))


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

        # corner Hermite matrix: [f(0); f'(0)] = M @ (first two coefficients)
        _, ders = self.usp.basis_ders(np.array([0.0]), 1)
        self._corner_inv = np.linalg.inv(ders[0][:2, :2])
        # endpoint bases of S+ (order 2) and S- (order 1)
        _, dp = self.splus.basis_ders(np.array([0.0]), 2)
        self._aplus = np.linalg.inv(dp[0][:3, :3])
        _, dm = self.sminus.basis_ders(np.array([0.0]), 1)
        self._aminus = np.linalg.inv(dm[0][:2, :2])

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
            return _EdgeAssembly(edge, (i1, k1), (i2, (k2 - 1) % 4), P1, P2, g)
        (i1, k1), = edge.locals
        P1 = mp.patches[i1].rotate(k1)
        return _EdgeAssembly(edge, (i1, k1), None, P1, None, boundary_gluing(P1))

    def _mult_rep(self, sminus_coeffs, lin):
        """Coefficients in S^{p,r} of (lin[0] + lin[1]*x) times an S- spline.

        Accepts a matrix of splines (one per column)."""
        return (lin[0] * self._E + lin[1] * self._X) @ sminus_coeffs

    def _edge_side_layers(self, gl, role):
        """Coefficient layers of all edge basis functions on one side.

        Returns (U0, U1, W): U0/U1 are (N, N+) with column j the S^{p,r}
        coefficients of b+_j and of beta*(b+_j)', W is (N, N-) with column j
        the coefficients of alpha*b-_j.
        """
        if role == 1:
            alpha = np.asarray(gl.alpha1)
            beta = np.asarray(gl.beta1)
        else:
            alpha = np.asarray(gl.alpha2)
            beta = np.asarray(gl.beta2)
        U0 = self._rep_plus
        U1 = self._mult_rep(self._der_plus, beta)
        W = self._mult_rep(np.eye(self.sminus.N), alpha)
        return U0, U1, W

    def build_edge_functions(self, eid):
        """Edge basis: traces from S+ and transversal derivatives from S-.

        On the first standard-form patch the pullback occupies the first two
        coefficient layers next to the edge,

            b+_j(xi2) (b0 + b1)(xi1) - beta1(xi2) (b+_j)'(xi2) (h/p) b1(xi1)

        for the trace family and alpha1(xi2) b-_j(xi2) b1(xi1) for the
        derivative family; the second patch carries the mirrored form with
        -alpha2. Boundary edges use the first form with alpha = 1, beta = 0.
        """
        asm = self._edge_assembly_for(eid)
        self.edge_assembly[eid] = asm
        N = self.N
        hp = self.config.h / self.config.p
        idx = _edge_index_set(self.sminus.N)
        trace = [j for j, s in idx if s == 0]
        deriv = [j for j, s in idx if s == 1]
        nt = len(trace)

        sides = [(asm.side1, 1)]
        if asm.side2 is not None:
            sides.append((asm.side2, 2))
        columns = {}
        for (ipatch, rot), role in sides:
            U0, U1, W = self._edge_side_layers(asm.gluing, role)
            # layers {xi1 = 0} and the next one; the second side is the transpose
            grids = np.zeros((N, N, len(idx)))
            grids[0, :, :nt] = U0[:, trace]
            grids[1, :, :nt] = U0[:, trace] - hp * U1[:, trace]
            grids[1, :, nt:] = W[:, deriv] if role == 1 else -W[:, deriv]
            if role == 2:
                grids = grids.swapaxes(0, 1)
            columns[ipatch] = _columns(grids, rot)
        return [BasisId("edge", eid, j) for j in idx], columns

    def _vertex_assembly_for(self, vid):
        mp = self.geometry
        vertex = mp.vertices[vid]
        rotated = standard_form_vertex(mp, vertex)
        nu = vertex.valence
        h, p = self.config.h, self.config.p

        grads = [P.jacobian(np.zeros((1, 2)))[0] for P in rotated]
        sigma = 1.0 / (h / (p * nu) * sum(np.linalg.norm(g) for g in grads))
        point = rotated[0].corner(0)

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
                Pprev = rotated[(ell - 1) % nu]
                jet = Pprev.jet(np.zeros((1, 2)), 2)[0]
                t0, t0p = jet[0, 1], jet[0, 2]
                d, dp = transversal_vector(g, Pprev, np.array([0.0]))
                slot = _EdgeSlot(
                    t0, t0p, d[0], dp[0], g.alpha1, g.beta1, g.alpha2, g.beta2
                )
            elif ell == 0:
                # boundary edge on the {xi2 = 0} side of the first patch
                jet = rotated[0].jet(np.zeros((1, 2)), 2)[0]
                one = np.array([1.0, 0.0])
                zero = np.zeros(2)
                slot = _EdgeSlot(
                    jet[1, 0], jet[2, 0], -jet[0, 1], -jet[1, 1],
                    None, None, one, zero,
                )
            else:
                # boundary edge on the {xi1 = 0} side of the last patch
                jet = rotated[nu - 1].jet(np.zeros((1, 2)), 2)[0]
                one = np.array([1.0, 0.0])
                zero = np.zeros(2)
                slot = _EdgeSlot(
                    jet[0, 1], jet[0, 2], jet[1, 0], jet[1, 1],
                    one, zero, None, None,
                )
            slots.append(slot)
        return _VertexAssembly(vertex, rotated, sigma, point, slots)

    def _edge_term_grid(self, slot, data, role):
        """Grid of the local edge-space Hermite interpolant on one patch."""
        hp = self.config.h / self.config.p
        g, H = data.grad, data.hess
        d0v = np.array(
            [
                data.value,
                g @ slot.t0,
                slot.t0 @ H @ slot.t0 + g @ slot.t0p,
                hp * (g @ slot.d0),
                hp * (slot.t0 @ H @ slot.d0 + g @ slot.d0p),
            ]
        )
        tvec = np.zeros(self.splus.N)
        tvec[:3] = self._aplus @ d0v[:3]
        wvec = np.zeros(self.sminus.N)
        wvec[:2] = self._aminus @ d0v[3:]

        alpha, beta = (slot.a1, slot.b1) if role == 1 else (slot.a2, slot.b2)
        u0 = self._rep_plus @ tvec
        u1 = self._mult_rep(self._der_plus @ tvec, beta)
        w = self._mult_rep(wvec, alpha)
        grid = np.zeros((self.N, self.N))
        if role == 1:
            grid[0, :] = u0
            grid[1, :] = u0 - hp * u1 + w
        else:
            grid[:, 0] = u0
            grid[:, 1] = u0 - hp * u1 - w
        return grid

    def _corner_term_grid(self, P, data):
        jet = P.jet(np.zeros((1, 2)), 2)[0]
        Fu, Fv, Fuv = jet[1, 0], jet[0, 1], jet[1, 1]
        g, H = data.grad, data.hess
        fjet = np.array(
            [
                [data.value, g @ Fv],
                [g @ Fu, Fu @ H @ Fv + g @ Fuv],
            ]
        )
        E = self._corner_inv @ fjet @ self._corner_inv.T
        grid = np.zeros((self.N, self.N))
        grid[:2, :2] = E
        return grid

    def build_vertex_functions(self, vid):
        """Six functions per vertex, dual to scaled derivatives of order <= 2.

        Each is the alternating-sum Hermite interpolant of C2 data at the
        vertex: on every surrounding patch, the two local edge-space
        interpolants minus the corner interpolant they share.
        """
        asm = self._vertex_assembly_for(vid)
        self.vertex_assembly[vid] = asm
        sig = asm.sigma
        data = []
        for (j1, j2) in VERTEX_INDEX_ORDER:
            order = j1 + j2
            val = sig**order if order == 0 else 0.0
            grad = np.zeros(2)
            hess = np.zeros((2, 2))
            if order == 1:
                grad[0 if j1 else 1] = sig
            elif order == 2:
                if (j1, j2) == (2, 0):
                    hess[0, 0] = sig**2
                elif (j1, j2) == (0, 2):
                    hess[1, 1] = sig**2
                else:
                    hess[0, 1] = hess[1, 0] = sig**2
            data.append(C2Data(val, grad, hess))
        nslots = len(asm.slots)
        columns = {}
        for ell, (ipatch, rot) in enumerate(asm.vertex.corners):
            grids = [
                -self._corner_term_grid(asm.rotated[ell], d)
                + self._edge_term_grid(asm.slots[ell], d, role=2)
                + self._edge_term_grid(asm.slots[(ell + 1) % nslots], d, role=1)
                for d in data
            ]
            columns[ipatch] = _columns(np.stack(grids, axis=-1), rot)
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
