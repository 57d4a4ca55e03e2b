"""L2 approximation on the smooth space and the study harness around it.

Element-wise tensor Gauss quadrature gives each patch's |det DF|-weighted
tensor B-spline mass M_i and load vector b_i; the rows C_i of patch i in the
space's extraction matrix C turn them into the mass matrix sum_i C_i^T M_i
C_i and the load vector sum_i C_i^T b_i. The quadrature nodes of a patch
form a tensor grid, so the patch map and its Jacobian, the target field and
the fitted member are sampled there by sum factorization (``Patch.grid_jet``,
``jets`` of the field classes): per-direction basis tables, each made once
per (space, nodes, derivative order), instead of a basis evaluation at every
node. The mass and the load of a fit share the |det DF| weights of every
patch: ``l2_fit`` passes those its mass was made with to
``assemble_rhs(weights=...)``. With A0 the (m, N) basis
values at the m nodes of one direction and W the weights on the node grid,
b_i is A0^T (W o z) A0 for target samples z. The mass is never assembled:
``assemble_mass`` returns a ``MassOperator`` that applies M_i to a
coefficient grid U by sum factorization, A0^T (W o (A0 U A0^T)) A0, between
the products with C_i and C_i^T (Antolin, Buffa, Calabro, Martinelli &
Sangalli, CMAME 2015; Sangalli & Tani, CMAME 2018). It stores only what the
preconditioner needs. An interior column is one B-spline (a1, a2) times v,
so the diagonal there is v^2 ((A0^2)^T W A0^2)[a1, a2]. The edge and vertex
columns live on the two coefficient layers next to the sides, so their
block G is an integral over the ring of elements next to the sides. It is
assembled element by element, each element's few columns by the same sum
factorization, batched over the elements and summed by
``CSRMatrix.from_triplets``, so G costs O(n); it is mirrored from its upper
triangle, so it is exactly symmetric.
The normal equations are solved by preconditioned conjugate gradients
(``solver``); ``FitResult`` records the iteration count, the Lanczos
condition estimate and the time of each stage. A fit may start CG from a
member of a coarser space that its space refines: the spaces nest under
refinement with the same gluing, so the member is written exactly in the
finer space, as D_h (R (x) R)(C_H c_H) with R the knot insertion and D_h
the dual functionals (``duality._prolong``). The convergence driver fits a
target function on a sequence of nested dyadic refinements, each level
built on the gluing data fitted once on the coarsest mesh and started from
the fit of the level before (nested iteration), and tabulates
errors with estimated convergence rates ecr = log2(e_coarse / e_fine).
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .bspline import _basis_values, _chebpts, _integer, _real, _strip_jets, _unit_jets
from .duality import AnalyticField, SpaceField, _prolong
from .errors import ArgyrisError, InvalidConfigError
from .multipatch import refine, rotate_net
from .solver import _solve_scaled
from .space import ArgyrisSpace, CSRMatrix, _sorted, physical_derivatives

__all__ = [
    "QuadratureRule",
    "FitResult",
    "ConvergenceTable",
    "MassOperator",
    "assemble_mass",
    "assemble_rhs",
    "l2_fit",
    "convergence_study",
    "smoothness_report",
    "SmoothnessReport",
    "cos_sin_field",
]

#: most Gauss points per element and direction a rule may have
MAX_QUADRATURE_ORDER = 64


class QuadratureRule:
    """Per-element tensor Gauss rule on [0, 1], ``order`` points per direction."""

    def __init__(self, n, order):
        n, order = _integer(n, "n"), _integer(order, "order")
        if n < 1:
            raise InvalidConfigError(f"quadrature needs n >= 1 elements, got {n}")
        if not 1 <= order <= MAX_QUADRATURE_ORDER:
            raise InvalidConfigError(
                f"quadrature order must be in 1..{MAX_QUADRATURE_ORDER}, got {order}"
            )
        x, w = np.polynomial.legendre.leggauss(order)
        self.n = n
        self.order = order
        e = np.arange(n)[:, None]
        self.nodes = (e + (x[None, :] + 1.0) / 2.0) / n  # (n, order)
        self.weights = np.broadcast_to(w[None, :] / (2.0 * n), (n, order)).copy()


def _check_rule(space, rule):
    """The given rule, or the default p+2 points per direction, checked
    against the mesh of the space."""
    if rule is None:
        return QuadratureRule(space.config.n, space.config.p + 2)
    if rule.n != space.config.n:
        raise InvalidConfigError(
            f"quadrature rule is for n={rule.n} elements, the space has "
            f"n={space.config.n}"
        )
    return rule


def _patch_weights(space, i, rule):
    """Quadrature weights times |det DF| on the tensor grid of one patch, an
    (m, m) array over the m nodes of each direction; det DF needs
    first-derivative tables only."""
    patch = space.geometry.patches[i]
    x = rule.nodes.ravel()
    A0, A1 = (_basis_values(patch.space, x, d) for d in (0, 1))
    X, Y = np.moveaxis(patch.net, -1, 0)
    det = A1 @ (X @ A0.T)  # formed in place: the grid is large at the error rule
    det *= A0 @ (Y @ A1.T)
    t = A1 @ (Y @ A0.T)
    t *= A0 @ (X @ A1.T)
    det -= t
    np.abs(det, out=det)
    w = rule.weights.ravel()
    det *= np.outer(w, w)
    return det


#: most elements whose blocks of G are formed in one batch
_ELEMENTS_PER_BATCH = 64


def _interface_mass(space, W, rule, start):
    """The block G = sum_i C_G^T M_i C_G of the columns C_G of C from
    ``start`` on, the edge and vertex functions, as a ``CSRMatrix`` in their
    local numbering, with W the patches' weights (``_patch_weights``).

    Those columns live on the two coefficient layers next to the sides,
    which p - r >= 2 keeps on the ring of elements next to the sides. The
    ring is cut into pinwheel strips, one per side s, each seen in the frame
    turned s quarter turns (the symmetric node grid maps onto itself): the
    elements (0, 0..n-2), or the single element when n = 1. An element e of
    a strip has g^2 nodes and (p+1)^2 active rows; the block Z_e of the K
    columns that touch those rows takes the values X_e = (across (x)
    along_e) Z_e there, and the element adds the upper triangle of
    X_e^T (w_e o X_e). The elements are batched, so G costs O(n), and G is
    mirrored once from the summed upper triangle, so it is exactly symmetric.
    """
    cfg, C = space.config, space.C
    p, n, g, N = cfg.p, rule.n, rule.order, space.N
    mult, ne, sides, size = p - cfg.r, max(n - 1, 1), 4 if n > 1 else 1, space.dim - start
    entry = np.flatnonzero(C.indices >= start)
    patch, a, b = np.unravel_index(C.row_ids[entry], (len(W), N, N))
    layer = np.minimum(np.arange(N), np.arange(N)[::-1])  # counted from the nearer side
    if np.minimum(layer[a], layer[b]).max(initial=0) > 1:
        raise ArgyrisError("an edge or vertex function reaches beyond the two "
                           "layers next to the sides of a patch")
    # each entry on every element e of every strip s whose rows hold it, at
    # its row (a, b - e mult) there, with (a, b) its position in frame s;
    # the elements are numbered e first, so that the end elements, which
    # meet the most columns, come together
    parts = []
    for s in range(sides):
        on = np.flatnonzero(a <= p)
        e = b[on] // mult - np.arange(-(-(p + 1) // mult))[:, None]
        t, k = np.nonzero((e >= 0) & (e < ne) & (b[on] - e * mult <= p))
        e, k = e[t, k], on[k]
        parts.append(((e * len(W) + patch[k]) * sides + s, a[k] * (p + 1) + b[k] - e * mult, entry[k]))
        a, b = b, N - 1 - a  # a quarter turn, as in rotate_net
    el, local, entry = map(np.concatenate, zip(*parts))
    del parts, patch, a, b, on, e, t, k
    # sorted by element and column: the K columns that touch each element in
    # order, and each entry's slot among them
    key, by = _sorted(el * size + C.indices[entry] - start, len(W) * sides * ne * size)
    local, val, new = local[by], C.data[entry[by]], np.diff(key, prepend=-1) != 0
    el, column = np.divmod(key[new], size)
    count = np.bincount(el, minlength=len(W) * sides * ne)
    first = np.cumsum(count) - count
    slot = np.cumsum(new) - 1
    el = el[slot]
    slot -= first[el]
    del key, by, entry, new
    cut = np.searchsorted(el, np.arange(0, len(count) + _ELEMENTS_PER_BATCH, _ELEMENTS_PER_BATCH))
    # the element tables: across, along_e, and w_e in the frame of its strip
    A0 = _basis_values(cfg, rule.nodes.ravel())
    e = np.arange(ne)[:, None, None]
    along = A0[e * g + np.arange(g)[:, None], e * mult + np.arange(p + 1)]  # (ne, g, p+1)
    w = np.stack([rotate_net(W.transpose(1, 2, 0), s)[:g, : ne * g] for s in range(sides)])
    w = w.reshape(sides, g, ne, g, -1).transpose(2, 4, 0, 1, 3).reshape(-1, g * g, 1)
    # the upper triangle of every element's block, a batch of elements at a
    # time, each padded to the most columns in its batch
    parts = []
    for lo, i0, i1 in zip(range(0, len(count), _ELEMENTS_PER_BATCH), cut, cut[1:]):
        ids = np.arange(lo, min(lo + _ELEMENTS_PER_BATCH, len(count)))
        K = count[ids].max()
        Z = np.zeros((len(ids), p + 1, p + 1, K))
        Z.reshape(len(ids), -1, K)[el[i0:i1] - lo, local[i0:i1], slot[i0:i1]] = val[i0:i1]
        X = (along[ids // (len(W) * sides), None] @ Z).reshape(len(ids), p + 1, -1)
        X = (A0[:g, : p + 1] @ X).reshape(len(ids), g * g, K)
        r, c = np.nonzero(np.arange(K)[:, None] <= np.arange(K))
        keep = c < count[ids, None]  # no padded column
        k = column[first[ids, None] + np.minimum(np.arange(K), count[ids, None] - 1)]
        E = (X.transpose(0, 2, 1) @ (X * w[ids]))[:, r, c]
        parts.append((k[:, r][keep], k[:, c][keep], E[keep]))
    del el, local, val, slot, Z, X, E
    rows, cols, vals = map(np.concatenate, zip(*parts))
    del parts
    U = CSRMatrix.from_triplets(rows, cols, vals, (size, size))
    off = U.row_ids != U.indices
    return CSRMatrix.from_triplets(np.r_[U.row_ids, U.indices[off]], np.r_[U.indices, U.row_ids[off]],
                                   np.r_[U.data, U.data[off]], U.shape)


class MassOperator:
    """The mass matrix sum_i C_i^T M_i C_i, applied without assembling it.

    ``M @ x`` maps a coefficient vector (dim,) or matrix (dim, k) by the
    space's extraction matrix ``C`` (patches * N*N, dim) to the tensor
    coefficient grids U_i, applies each patch mass by sum factorization,
    A0^T (W_i o (A0 U_i A0^T)) A0, with A0 the (m, N) basis values at the m
    quadrature nodes of a direction and W_i the patch's |det DF| weights on
    the node grid, and maps back by C^T. Two parts are stored, because the
    preconditioner needs them: the ``diagonal`` (dim,) and ``interface``,
    the exactly symmetric block of the edge and vertex functions (the
    positions ``start``..dim) as a ``CSRMatrix``, assembled element by
    element over the ring next to the sides (``_interface_mass``). ``M @ x``
    refuses an x whose length is not dim, or a complex one.
    """

    def __init__(self, C, A0, W, diagonal, interface, start):
        self.C = C
        self._A0 = A0
        self._W = W  # (patches, m, m)
        self.diagonal = diagonal
        self.interface = interface
        self.start = start
        self.shape = (len(diagonal),) * 2

    @property
    def nnz(self):
        """Stored entries: the diagonal and the interface block."""
        return len(self.diagonal) + self.interface.nnz

    def scaled(self, s):
        """The operator diag(s) M diag(s)."""
        G, t = self.interface, s[self.start :]
        G = CSRMatrix(G.indptr, G.indices, G.data * (t[G.row_ids] * t[G.indices]), G.shape)
        C = CSRMatrix(self.C.indptr, self.C.indices, self.C.data * s[self.C.indices],
                      self.C.shape)
        return MassOperator(C, self._A0, self._W, self.diagonal * s * s, G, self.start)

    def __matmul__(self, x):
        x = _real(x, "the operand of the mass")
        if x.ndim == 0 or len(x) != self.shape[1]:
            raise InvalidConfigError(f"the mass applies to {self.shape[1]} coefficients, "
                                     f"got an array of shape {x.shape}")
        A0, P = self._A0, len(self._W)
        N = A0.shape[1]
        U = (self.C @ x).reshape(P, N, N, -1).transpose(3, 0, 1, 2)  # (k, patches, N, N)
        T = A0 @ U @ A0.T  # weighted in place: one (k, patches, m, m) temporary
        V = A0.T @ np.multiply(T, self._W, out=T) @ A0
        return (V.reshape(len(V), -1) @ self.C).T.reshape(x.shape)


def assemble_mass(space, rule=None):
    """The mass matrix sum_patches int phi_a phi_b |det DF| as a
    ``MassOperator``: its diagonal and its edge and vertex block are
    assembled, the block element by element in O(n) time and memory, and
    the rest is applied by sum factorization."""
    rule = _check_rule(space, rule)
    ni, P, N = space.breakdown["patch"], len(space.geometry.patches), space.N
    W = np.stack([_patch_weights(space, i, rule) for i in range(P)])
    A0 = _basis_values(space.config, rule.nodes.ravel())
    # an interior column is one B-spline (a1, a2) of patch i times v: its
    # mass is v^2 ((A0^2)^T W_i A0^2)[a1, a2]
    C = space.C
    inside = C.indices < ni
    col, v = C.indices[inside], C.data[inside]
    if np.bincount(col, minlength=1).max() > 1:
        raise ArgyrisError("an interior function is more than one B-spline on a patch")
    patch, a1, a2 = np.unravel_index(C.row_ids[inside], (P, N, N))
    interior = np.bincount(col, v * v * (A0.T**2 @ W @ A0**2)[patch, a1, a2], ni)
    G = _interface_mass(space, W, rule, ni)
    return MassOperator(C, A0, W, np.concatenate([interior, G.diagonal()]), G, ni)


def assemble_rhs(space, fld, rule=None, *, weights=None):
    """Load vector int z phi_a |det DF| for a field with a ``jets`` sampler.

    On each patch the tensor B-spline load vector is A0^T (W o z) A0, with
    A0 the (m, N) basis values at the m quadrature nodes per direction and
    W the patch's |det DF| weights on the rule: the given ``weights`` of the
    patches in order (``l2_fit`` passes those its mass was made with), else
    made here. Weights that are not one (m, m) grid per patch, and a field
    bound to another geometry than the space's, are refused.
    """
    rule = _check_rule(space, rule)
    space._check_field(fld)
    P, m = len(space.geometry.patches), rule.nodes.size
    if weights is None:
        weights = (_patch_weights(space, i, rule) for i in range(P))
    else:
        weights = list(weights) if np.iterable(weights) else []
        if [np.shape(W) for W in weights] != [(m, m)] * P:
            raise InvalidConfigError(f"weights must be {P} patch grids of shape ({m}, {m})")
    x = rule.nodes.ravel()
    A0 = _basis_values(space.config, x)
    rhs = np.zeros(space.dim)
    for i, W in enumerate(weights):
        Wz = np.ravel(W) * fld.jets(i, x, x, 0)[0]
        rhs += (A0.T @ Wz.reshape(len(x), len(x)) @ A0).ravel() @ space.extraction(i)
    return rhs


def _integral_sq(space, coeffs, fld, rule):
    """int (u_c - z)^2 and int z^2 by the same element-wise quadrature."""
    x = rule.nodes.ravel()
    u_c = SpaceField(space, coeffs)
    total = 0.0
    zz = 0.0
    for i in range(len(space.geometry.patches)):
        W = _patch_weights(space, i, rule).ravel()
        z = fld.jets(i, x, x, 0)[0]
        u = u_c.jets(i, x, x, 0)[0]
        zz += float((W * z**2).sum())
        total += float((W * (u - z) ** 2).sum())
    return total, zz


@dataclass
class FitResult:
    coeffs: np.ndarray
    rel_error: float
    h: float
    dim: int
    galerkin_residual: float
    assemble_seconds: float
    solve_seconds: float
    error_seconds: float
    cg_iterations: int
    cond_estimate: float


def l2_fit(space, fld, rule=None, *, start=None):
    """Least-squares fit of a field in the smooth space.

    Solves the diagonally scaled normal equations by conjugate gradients to
    a relative residual of CG_RTOL, preconditioned by fast diagonalization
    on the patch interiors and an exact solve with the edge and vertex
    block (``solver``); the relative L2 error is integrated
    with a verification rule three orders finer than the assembly rule, so
    the reported value is quadrature-saturated at every level. A rule whose
    nodes do not determine the univariate space (too few points per element)
    leaves the mass singular and is refused.

    ``start``, a ``SpaceField`` of one member of a coarser space that this
    one refines (the fit of the level before, say), is where CG starts: the
    member written exactly in this space (``duality._prolong``), which the
    solve stage and its ``solve_seconds`` include. A start that does not
    nest is refused, and nothing of it is kept once prolonged.
    """
    rule = _check_rule(space, rule)
    cfg = space.config
    if np.linalg.matrix_rank(_basis_values(cfg, rule.nodes.ravel())) < cfg.N:
        raise InvalidConfigError(
            f"quadrature of {rule.order} points per element gives {cfg.n * rule.order} "
            f"nodes per direction, which do not determine the {cfg.N} B-splines"
        )
    t0 = time.perf_counter()
    M = assemble_mass(space, rule)
    rhs = assemble_rhs(space, fld, rule, weights=M._W)
    t1 = time.perf_counter()
    if start is not None and not (isinstance(start, SpaceField) and np.ndim(start.coeffs) == 1):
        raise InvalidConfigError("a start must be a SpaceField of one member")
    x0 = None if start is None else _prolong(space, start)
    del start  # the coarser level, freed here when the caller holds none of it
    coeffs, iterations, cond = _solve_scaled(space, M, rhs, x0)
    t2 = time.perf_counter()
    res = float(np.linalg.norm(M @ coeffs - rhs) / max(np.linalg.norm(rhs), 1e-300))
    del M, rhs  # freed before the error integral, whose finer grids set the peak
    t3 = time.perf_counter()
    err_rule = QuadratureRule(rule.n, min(rule.order + 3, MAX_QUADRATURE_ORDER))
    err2, zz = _integral_sq(space, coeffs, fld, err_rule)
    t4 = time.perf_counter()
    rel = float(np.sqrt(max(err2, 0.0) / zz)) if zz > 0 else float(np.sqrt(max(err2, 0.0)))
    return FitResult(
        coeffs=coeffs,
        rel_error=rel,
        h=space.config.h,
        dim=space.dim,
        galerkin_residual=res,
        assemble_seconds=t1 - t0,
        solve_seconds=t2 - t1,
        error_seconds=t4 - t3,
        cg_iterations=iterations,
        cond_estimate=cond,
    )


IN_SPACE_FLOOR = 1e-10


@dataclass
class ConvergenceTable:
    """Rows (h, dim, relative error, ecr); the first ecr is undefined."""

    rows: list = field(default_factory=list)

    def add(self, h, dim, err):
        ecr = None
        if self.rows:
            prev = self.rows[-1]
            if err > 0 and prev[2] > IN_SPACE_FLOOR and err > IN_SPACE_FLOOR:
                ecr = self.ecr_convention(prev[2], err)
        self.rows.append((h, dim, err, ecr))

    @staticmethod
    def ecr_convention(e_coarse, e_fine):
        """The tabulated rate: log2 of the error ratio of consecutive levels."""
        return float(np.log2(e_coarse / e_fine))

    def to_text(self):
        lines = [f"{'h':>10} {'dim':>8} {'rel_l2_error':>14} {'ecr':>7}"]
        for h, dim, err, ecr in self.rows:
            denom = round(1.0 / h)
            ecr_s = "-" if ecr is None else f"{ecr:.2f}"
            lines.append(f"{'1/' + str(denom):>10} {dim:>8d} {err:>14.3e} {ecr_s:>7}")
        return "\n".join(lines)

    def to_csv(self):
        lines = ["h,dim,rel_l2_error,ecr"]
        for h, dim, err, ecr in self.rows:
            ecr_s = "" if ecr is None else f"{ecr:.17g}"
            lines.append(f"{h:.17g},{dim},{err:.17g},{ecr_s}")
        return "\n".join(lines) + "\n"


def convergence_study(mp, make_field, levels):
    """Fit on a sequence of nested dyadic refinements of a geometry.

    ``make_field(geometry)`` binds the target function to each refined
    geometry; levels are h, h/2, h/4, ... starting from the input mesh. The
    gluing data are fitted once, on the input mesh: they belong to the map,
    which refinement keeps, so every later level is built from them
    (``ArgyrisSpace._refined``) and AS-G1 is decided once for the study.
    The spaces nest, so every level after the first starts CG from the fit
    of the level before (nested iteration: Brandt, Math. Comp. 1977).
    """
    if _integer(levels, "levels") < 1:
        raise InvalidConfigError(f"need at least one level, got {levels}")
    table = ConvergenceTable()
    results = []
    space, coarser = ArgyrisSpace(mp), []
    for lvl in range(levels):
        if lvl > 0:
            space = space._refined(refine(space.geometry))
        # popped, so that l2_fit holds the coarser level alone and frees it
        # before the solve
        r = l2_fit(space, make_field(space.geometry),
                   start=coarser.pop() if coarser else None)
        coarser.append(SpaceField(space, r.coeffs))
        table.add(r.h, r.dim, r.rel_error)
        results.append(r)
    return table, results


def cos_sin_field(mp):
    """The smooth benchmark target 2 cos(x1) sin(x2) with its derivatives."""

    def value(x):
        return 2.0 * np.cos(x[:, 0]) * np.sin(x[:, 1])

    def grad(x):
        return np.stack(
            [-2.0 * np.sin(x[:, 0]) * np.sin(x[:, 1]),
             2.0 * np.cos(x[:, 0]) * np.cos(x[:, 1])], axis=1
        )

    def hess(x):
        out = np.empty((len(x), 2, 2))
        out[:, 0, 0] = -2.0 * np.cos(x[:, 0]) * np.sin(x[:, 1])
        out[:, 0, 1] = out[:, 1, 0] = -2.0 * np.sin(x[:, 0]) * np.cos(x[:, 1])
        out[:, 1, 1] = -2.0 * np.cos(x[:, 0]) * np.sin(x[:, 1])
        return out

    return AnalyticField(mp, value, grad, hess)


# ----------------------------------------------------------------------------
# smoothness audit
# ----------------------------------------------------------------------------


#: a vertex passes when each member's C2 jump is below max(1e-8,
#: C2_FLOOR_FACTOR * floor), with floor the member's round-off floor there
#: (``smoothness_report``); 64 is ten times the largest jump/floor ratio seen
#: on correct spaces, 6.4 on two_patch_curved_asg1 at (4, 2, 32)
C2_FLOOR_FACTOR = 64.0


@dataclass
class SmoothnessReport:
    """Worst relative jumps of value/gradient across interfaces and of second
    derivatives at vertices, with the offending basis ids.

    A vertex row is (vertex, jump, worst function, excess): excess is the
    largest jump of a member over its own bound max(1e-8, C2_FLOOR_FACTOR *
    floor), so the vertex passes when it is below 1. A NaN in any row shows
    in the maxima and fails ``passed``."""

    edge_rows: list
    vertex_rows: list

    @property
    def max_c1_jump(self):
        return float(np.max([r[1:3] for r in self.edge_rows], initial=0.0))

    @property
    def max_c2_jump(self):
        return float(np.max([r[1] for r in self.vertex_rows], initial=0.0))

    @property
    def max_c2_excess(self):
        return float(np.max([r[3] for r in self.vertex_rows], initial=0.0))

    def passed(self):
        return self.max_c1_jump < 1e-9 and self.max_c2_excess < 1.0


#: most (side, sample) points one batch of ``smoothness_report`` samples,
#: unless one entity has more; a batch holds whole entities
_REPORT_BATCH = 1 << 9


def _report_batches(space, kind, members, scores):
    """Scores of the members of every interface (``kind`` "edge") or vertex,
    one batch of whole entities after another.

    An interface has two sides and a vertex its corners (``space._strips``),
    sampled at the 3p Chebyshev points of every element or at the corner,
    so the samples come in groups of 3p or of one. At a sample only the nb
    band rows of a side are nonzero, the same for all samples of a group,
    with the unit jets of ``bspline._unit_jets``, the table the dual
    functionals read. So an entity's pairs (member, group) are those with a
    coefficient stored on a band row of one of its sides. The members are
    the basis (``members`` None) or the columns of a coefficient matrix. The
    pairs of an (entity, group) take slots 0, 1, ... in column order on every
    side; the slots' jets are their band coefficients read by
    ``_strip_jets``, and the patch map's are ``space._map_jets``. One
    ``physical_derivatives`` call takes every (side, sample, slot) of a batch
    of at most ``_REPORT_BATCH`` (side, sample) points.

    ``scores(values, gradients, hessians, floor)`` reads arrays (entities,
    sides, samples, slots, ...), where an entity with fewer sides than
    another of the batch repeats its last, and at corners the round-off scale
    ``floor`` eps ||J^-1||^2 max|net| sum_r |d^2 U_r| (entities, sides, 1,
    1), else None; it returns (entities, samples, slots) arrays. Yields (the
    batch's entities, each pair's entity dim + column, the pairs' maxima of
    each score over their group's samples).
    """
    mp, N, dim, p = space.geometry, space.N, space.dim, space.config.p
    owner, sign, rows = space._strips(kind)
    # both sides of every interface, or a vertex's corners, one sample in one group
    edge = kind == "edge"
    keep = np.array([e.is_interface for e in mp.edges])[owner] if edge else sign > 0
    points, order, per = ((_chebpts(space.config.n, 3 * p).ravel(), 1, 3 * p) if edge
                          else ([0.0], 2, 1))
    if not keep.any():
        return
    owner, rows = np.unique(owner[keep], return_inverse=True)[1], rows[keep]
    # what the rounding of each side's net is relative to
    size = np.abs(space._net).reshape(len(mp.patches), -1).max(1)[rows[:, 0, 0] // N**2]
    rows = rows.reshape(len(rows), -1)
    U, pos = _unit_jets(space.config, points, order)  # (nb, d, d, m), (nb, m)
    band = pos[:, ::per].T  # (groups, nb), the band rows of each group
    (nb, d, _, m), G = U.shape, len(band)
    count = np.bincount(owner)
    at = np.r_[0, np.cumsum(count)]  # the sides of entity e are at[e]:at[e + 1]
    d2U = np.abs(U[..., 0]).sum(0)[[2, 1, 0], [0, 1, 2]].max() if d == 3 else None
    UT = U.reshape(nb, d, d, G, per)
    step = max(1, _REPORT_BATCH // (count.max() * m))
    for e0 in range(0, len(count), step):
        ents = np.arange(e0, min(len(count), e0 + step))
        s0, s1 = at[e0], at[ents[-1] + 1]
        seen = rows[s0:s1][:, band]  # (sides, G, nb)
        B = space.C.take(seen.ravel())
        if members is None:
            pos, col, val = B.row_ids, B.indices, B.data
        else:
            val = (B @ members).ravel()
            pos, col = np.divmod(np.arange(len(val)), members.shape[1])
        side, g, b = np.unravel_index(pos, seen.shape)
        # the pairs, sorted by (entity, group, column), and their slots
        key, pair = np.unique(((owner[s0 + side] - e0) * G + g) * dim + col, return_inverse=True)
        eg, col = np.divmod(key, dim)
        lead = np.flatnonzero(np.diff(eg, prepend=-1))
        slot = np.arange(len(key)) - np.repeat(lead, np.diff(np.r_[lead, len(key)]))
        # the band coefficients of the slots; their jets with a group's samples last
        K = slot.max(initial=0) + 1
        V = np.zeros((nb, K, s1 - s0, G))
        V[b, slot[pair], side, g] = val
        f = _strip_jets(UT, V[..., None]).transpose(3, 4, 5, 0, 1, 2).reshape(-1, d, d, K)
        geo = space._map_jets(rows[s0:s1], points, order).reshape(-1, d, d, 2)
        out = physical_derivatives(geo, f)
        # each pair on every side of its entity, (entities, sides); an entity
        # with fewer sides than another repeats its last, which moves no maximum
        side = at[ents, None] + np.arange(count[ents].max())
        side = np.minimum(side, at[ents + 1, None] - 1) - s0
        out = [a if a is None else a.reshape((s1 - s0, m) + a.shape[1:])[side] for a in out]
        floor = None
        if d2U is not None:
            J = np.stack([geo[:, 1, 0], geo[:, 0, 1]], axis=-1)
            jinv = np.linalg.norm(np.linalg.inv(J), 2, axis=(1, 2)).reshape(-1, m)
            floor = np.finfo(float).eps * d2U * jinv**2 * size[s0:s1, None]
            floor = floor[side, ..., None]
        e, g = np.divmod(eg, G)
        per_pair = [a.reshape(len(a), G, per, -1).max(2)[e, g, slot] for a in scores(*out, floor)]
        yield ents, (e0 + e) * dim + col, per_pair


def smoothness_report(space, coeffs=None):
    """Two-sided continuity audit of the space, or of the members given by a
    coefficient vector (dim,) or the k columns of a matrix (dim, k).

    Per interface: max relative jump of values and physical gradients over
    the 3p Chebyshev points of every element. These decide C1 (Peters,
    "Geometric continuity", Handbook of CAGD, 2002): on an element the value
    jump is a polynomial of degree p, and once the values agree the gradient
    jump vanishes where the (x, y, f) tangent vectors of both sides are
    coplanar, a determinant of degree at most 3p - 1. So a member whose
    jumps vanish at the samples is C1 on the whole interface. Per vertex: max
    relative jump of physical second derivatives between all surrounding
    patches. Relative means divided by max(1, local magnitude). For the
    space, the members of an interface or a vertex are the basis functions
    whose extraction columns touch the two layers next to its sides or the
    3 x 3 blocks at its corners, in sorted order (the first of equal worst
    jumps is named).

    Like the dual functionals, the report reads each kind in one pass in the
    standard-form frame (Collin, Sangalli & Takacs, CAGD 2016), a member only
    where it is nonzero (``_report_batches``), so an interface costs O(n) and
    nothing of size N^2 or N per member is formed.

    Rounding of the control nets perturbs d^2 F, and the physical Hessian
    subtracts grad f . d^2 F, so a C2 jump has a floor that grows like n^3
    for members with a large gradient. A member's floor at a vertex is the
    largest over its corners of eps |grad f| ||J^-1||^2 max|net| sum_r
    |d^2 U_r|: max|net| over the patch, whose size the nets' rounding is
    relative to, and the sum over the corner block's unit rows at their
    largest second derivative. It is relative like the jump, and the vertex
    passes when every member's jump is below max(1e-8, C2_FLOOR_FACTOR *
    floor). The C2 jump reported is the raw one.
    """
    members = None
    if coeffs is not None:
        coeffs = space._coeffs(coeffs)
        members = coeffs.reshape(space.dim, -1)

    def per_entity(kind, scores):
        """(entity, each of its members' scores, their columns) for every
        entity of a kind in order: a member's score is the maximum over its
        pairs."""
        for ents, member, values in _report_batches(space, kind, members, scores):
            order = np.argsort(member, kind="stable")
            member = member[order]
            starts = np.flatnonzero(np.diff(member, prepend=-1))
            ent, col = np.divmod(member[starts], space.dim)
            values = [np.maximum.reduceat(a[order], starts) if len(a) else a for a in values]
            bounds = np.searchsorted(ent, np.r_[ents, ents[-1] + 1])
            for e, lo, hi in zip(ents, bounds[:-1], bounds[1:]):
                yield e, [a[lo:hi] for a in values], col[lo:hi]

    def name(scores, cols):
        """Name of the first member with the largest positive score."""
        if not len(scores) or scores.max() <= 0.0:
            return None
        col = cols[int(np.argmax(scores))]
        if coeffs is None:
            return space.basis_id(col)
        return "coeffs" if coeffs.ndim == 1 else f"coeffs[:, {col}]"

    def edge_scores(v, g, H, floor):
        """Jumps and magnitudes of values and gradients between the two sides
        (the gradient's components one at a time: a reduction over a last
        axis of length 2 is slow)."""
        (gx, gy), (v0, v1) = g.transpose(4, 1, 0, 2, 3), v.swapaxes(0, 1)
        return (np.abs(v0 - v1), np.maximum(np.abs(v0), np.abs(v1)),
                np.maximum(np.abs(gx[0] - gx[1]), np.abs(gy[0] - gy[1])),
                np.maximum(np.abs(gx).max(0), np.abs(gy).max(0)))

    def vertex_scores(v, g, H, floor):
        """Jump of the Hessian from the first corner, its magnitude and the
        round-off floor, the largest over the corners."""
        return (np.abs(H - H[:, :1]).max((1, -2, -1)), np.abs(H).max((1, -2, -1)),
                (np.linalg.norm(g, axis=-1) * floor).max(1))

    mp = space.geometry
    edge_rows = []
    ids = [e.id for e in mp.interfaces()]
    for e, (jv, av, jg, ag), cols in per_entity("edge", edge_scores):
        dv, dg = jv / np.maximum(1.0, av), jg / np.maximum(1.0, ag)
        edge_rows.append((ids[e], dv.max(initial=0.0), dg.max(initial=0.0),
                          name(np.maximum(dv, dg), cols)))

    vertex_rows = []
    for v, (jump, mag, floor), cols in per_entity("vertex", vertex_scores):
        scale = np.maximum(1.0, mag)
        dh, bound = jump / scale, np.maximum(1e-8, C2_FLOOR_FACTOR * floor / scale)
        vertex_rows.append((mp.vertices[v].id, dh.max(initial=0.0), name(dh, cols),
                            (dh / bound).max(initial=0.0)))
    return SmoothnessReport(edge_rows, vertex_rows)
