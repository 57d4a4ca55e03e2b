"""L2 approximation on the smooth space and the study harness around it.

Element-wise tensor Gauss quadrature gives each patch's |det DF|-weighted
tensor B-spline mass M_i and load vector b_i; the space's extraction
matrices C_i turn them into the mass matrix sum_i C_i^T M_i C_i and the
load vector sum_i C_i^T b_i. The quadrature nodes of a patch form a tensor
grid, so the patch map and its Jacobian, the target field and the fitted
member are sampled there by sum factorization (``Patch.grid_jet``, ``jets``
of the field classes): per-direction basis tables, each made once per
(space, nodes, derivative order), instead of a basis evaluation at every
node. A rule keeps the |det DF| weights of every patch it integrated over,
so the mass and the load of a fit share them. With A0 the (m, N) basis
values at the m nodes of one direction and W the weights on the node grid,
b_i is A0^T (W o z) A0 for target samples z, and M_i is sum factorized too:
with K (m, P) the products A0[:, i] A0[:, j] of the P pairs i <= j of 1D
basis functions that share an element, D = K^T W K (P, P) holds every entry
of M_i, which is one gather of D into a CSR pattern fixed per univariate
space (the Kronecker product of the 1D pair patterns). Each patch's
C_i^T M_i C_i is symmetrized before the patches are summed, so the mass is
exactly symmetric without a transpose of the whole matrix.
The normal equations are diagonally scaled, A = S M S with S = diag(M)^-1/2,
and solved by conjugate gradients with a block-diagonal preconditioner that
follows the two families of the basis. The patch-interior functions, which
lead the basis, are unit tensor B-splines, so their block of A is close to
K^ (x) K^ on every patch, with K^ the unit-diagonal 1D B-spline mass of the
interior indices on [0, 1]; it is inverted by fast diagonalization (Sangalli
& Tani, SISC 2016). The few edge and vertex functions form the trailing
block, solved exactly: an edge function couples to another edge or a vertex
only near the edge ends, so each edge's other rows are eliminated by a small
dense inverse onto a separator whose dense Schur complement stops growing
with n. At p = 3 CG then needs about 30 iterations on every mesh. Its
coefficients also give a Lanczos estimate of the condition number of the
preconditioned system; ``FitResult`` records it with the iteration count
and the time of each stage. The convergence driver fits a target function
on a sequence of nested refinements and tabulates errors with estimated
convergence rates ecr = log2(e_coarse / e_fine).
"""

import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse

from .bspline import _basis_values
from .duality import AnalyticField, SpaceField
from .errors import InvalidConfigError, NumericalError
from .gluing import DEFAULT_TOL
from .multipatch import edge_frames, refine, rotate_grid
from .space import ArgyrisSpace, physical_derivatives

__all__ = [
    "QuadratureRule",
    "FitResult",
    "ConvergenceTable",
    "assemble_mass",
    "assemble_rhs",
    "l2_fit",
    "convergence_study",
    "smoothness_report",
    "SmoothnessReport",
    "cos_sin_field",
]

class QuadratureRule:
    """Per-element tensor Gauss rule on [0, 1], ``order`` points per direction."""

    def __init__(self, n, order):
        if n < 1:
            raise InvalidConfigError(f"quadrature needs n >= 1 elements, got {n}")
        if order < 1:
            raise InvalidConfigError(f"quadrature order must be positive, got {order}")
        x, w = np.polynomial.legendre.leggauss(order)
        self.n = n
        self.order = order
        e = np.arange(n)[:, None]
        self.nodes = (e + (x[None, :] + 1.0) / 2.0) / n  # (n, order)
        self.weights = np.broadcast_to(w[None, :] / (2.0 * n), (n, order)).copy()
        self._det_weights = {}  # patch -> its weights of ``_patch_weights``


def _element_dofs(usp):
    """(n, p+1) indices of the basis functions active on each element."""
    return np.arange(usp.n)[:, None] * (usp.p - usp.r) + np.arange(usp.p + 1)


@lru_cache(maxsize=8)
def _mass_pattern(usp):
    """CSR pattern of the tensor B-spline mass of one patch, from the 1D
    pairs of basis functions that share an element; read-only int32 arrays.

    Returns (pairs, indptr, indices, gather): ``pairs`` (2, P) holds the P
    such pairs (i, j) with i <= j. With K[q, k] the product of the two
    functions of pair k at 1D node q and W the weights on the node grid, the
    mass entry of the tensor B-splines (i1, i2) and (j1, j2) is entry
    (pair of i1, j1; pair of i2, j2) of D = K^T W K, and the CSR matrix
    (``indptr``, ``indices``), rows i1 * N + i2 and columns j1 * N + j2, has
    ``data = D.ravel()[gather]``.
    """
    N = usp.N
    dof = _element_dofs(usp)
    # ordered pairs sharing an element, sorted by (i, j)
    code = np.unique((dof[:, :, None] * N + dof[:, None, :]).ravel())
    i, j = np.divmod(code, N)
    pairs, sym = np.unique(np.minimum(i, j) * N + np.maximum(i, j), return_inverse=True)
    # grid (a, b) of ordered pairs is row i[a] * N + i[b], column j[a] * N + j[b];
    # CSR order is by row, then column, which the stable sort keeps
    order = np.argsort((i[:, None] * N + i[None, :]).ravel(), kind="stable")
    a, b = np.divmod(order, len(code))
    counts = np.bincount(i, minlength=N)
    out = tuple(arr.astype(np.int32) for arr in (
        np.stack(np.divmod(pairs, N)),
        np.concatenate([[0], np.cumsum(np.outer(counts, counts).ravel())]),
        j[a] * N + j[b],
        sym[a] * len(pairs) + sym[b],
    ))
    for arr in out:
        arr.setflags(write=False)
    return out


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
    """Quadrature weights times |det DF| on the tensor grid of one patch, as
    a read-only (m, m) array over the m nodes of each direction, made once
    per patch and rule."""
    patch = space.geometry.patches[i]
    W = rule._det_weights.get(patch)
    if W is None:
        x = rule.nodes.ravel()
        J = patch.grid_jet(x, x, 1)
        det = J[:, 1, 0, 0] * J[:, 0, 1, 1] - J[:, 1, 0, 1] * J[:, 0, 1, 0]
        w = rule.weights.ravel()
        W = (np.abs(det) * np.outer(w, w).ravel()).reshape(len(x), len(x))
        W.setflags(write=False)
        rule._det_weights[patch] = W
    return W


def _patch_mass(space, i, rule):
    """|det DF|-weighted mass matrix (N*N, N*N) of the tensor B-splines of
    one patch: D = K^T W K gathered into the pattern of ``_mass_pattern``."""
    (p1, p2), indptr, indices, gather = _mass_pattern(space.config)
    A0 = _basis_values(space.config, rule.nodes.ravel())
    K = A0[:, p1] * A0[:, p2]
    D = K.T @ (_patch_weights(space, i, rule) @ K)
    return scipy.sparse.csr_matrix(
        (D.ravel()[gather], indices, indptr), shape=(space.N**2,) * 2
    )


def assemble_mass(space, rule=None):
    """Sparse symmetric mass matrix sum_patches int phi_a phi_b |det DF|.

    Each patch's C_i^T M_i C_i is symmetrized before the sum, so the sum is
    exactly symmetric without a transpose of the full matrix.
    """
    rule = _check_rule(space, rule)
    M = None
    for i, C in enumerate(space.C):
        B = C.T @ (_patch_mass(space, i, rule) @ C)
        B = B + B.T
        M = B if M is None else M + B
    M.data *= 0.5
    return M


def assemble_rhs(space, fld, rule=None):
    """Load vector int z phi_a |det DF| for a field with a ``jets`` sampler.

    On each patch the tensor B-spline load vector is A0^T (W o z) A0, with
    A0 the (m, N) basis values at the m quadrature nodes per direction.
    """
    rule = _check_rule(space, rule)
    x = rule.nodes.ravel()
    A0 = _basis_values(space.config, x)
    rhs = np.zeros(space.dim)
    for i, C in enumerate(space.C):
        Wz = _patch_weights(space, i, rule).ravel() * fld.jets(i, x, x, 0)[0]
        rhs += C.T @ (A0.T @ Wz.reshape(len(x), len(x)) @ A0).ravel()
    return rhs


def _integral_sq(space, coeffs, fld, rule):
    """int (u_c - z)^2 and int z^2 by the same element-wise quadrature."""
    x = rule.nodes.ravel()
    u_c = SpaceField(space, coeffs)
    total = 0.0
    zz = 0.0
    for i in range(len(space.C)):
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


#: conjugate gradients stop once ||r|| <= CG_RTOL ||b|| on the scaled system
CG_RTOL = 1e-12
CG_MAXITER = 2000


def _lanczos_condition(inv_alpha, beta):
    """lambda_max / lambda_min of the Lanczos matrix of the PCG steps taken.

    With alpha_k, beta_k the PCG coefficients, the matrix is tridiagonal with
    diagonal 1/alpha_k + beta_{k-1}/alpha_{k-1} and off-diagonal
    sqrt(beta_k)/alpha_k (Saad, Iterative Methods for Sparse Linear Systems,
    sec. 6.7.3); its extreme eigenvalues approach those of the preconditioned
    operator. NaN before the first step, and when some beta_k is not
    positive and finite, so that the preconditioner is not positive definite.
    """
    k = len(inv_alpha)
    ia = np.array(inv_alpha)
    b = np.array(beta[: k - 1])
    if k == 0 or not np.all(np.isfinite(b) & (b > 0.0)):
        return float("nan")
    diag = ia.copy()
    diag[1:] += b * ia[:-1]
    off = np.sqrt(b) * ia[:-1]
    T = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    if not np.isfinite(T).all():
        return float("nan")
    lam = np.linalg.eigvalsh(T)
    return float(lam[-1] / lam[0]) if lam[0] > 0.0 else float("inf")


def _pcg(A, b, precond):
    """Preconditioned conjugate gradients for A x = b from x = 0.

    Returns x, the number of iterations and the Lanczos condition estimate of
    the preconditioned operator. Raises NumericalError, with that estimate,
    when ||r|| does not reach CG_RTOL ||b|| within CG_MAXITER iterations or
    a step finds r.z <= 0 or p.Ap <= 0, so that A or the preconditioner is
    not positive definite.
    """
    x = np.zeros_like(b)
    r = b
    stop = CG_RTOL * np.linalg.norm(b)
    z = precond(r)
    rz = r @ z
    p = z
    inv_alpha, beta = [], []
    while np.linalg.norm(r) > stop:
        if len(inv_alpha) == CG_MAXITER:
            reason = f"did not converge in {CG_MAXITER} iterations"
            break
        q = A @ p
        if not rz > 0.0:  # r.z <= 0: the preconditioner is not positive definite
            reason = f"broke down at iteration {len(inv_alpha) + 1}"
            break
        inv_alpha.append((p @ q) / rz)
        if not inv_alpha[-1] > 0.0:
            reason = f"broke down at iteration {len(inv_alpha)}"
            break
        alpha = 1.0 / inv_alpha[-1]
        x += alpha * p
        r = r - alpha * q  # not in place: precond may return r itself
        z = precond(r)
        rz, rz_old = r @ z, rz
        beta.append(rz / rz_old)
        p = z + beta[-1] * p
    else:
        return x, len(inv_alpha), _lanczos_condition(inv_alpha, beta)
    raise NumericalError(
        f"conjugate gradients {reason} (condition estimate "
        f"{_lanczos_condition(inv_alpha, beta):.3e})"
    )


def _unit_interior_mass(usp):
    """K^: the 1D B-spline mass on [0, 1] of the indices 2..N-3, scaled to
    unit diagonal."""
    rule = QuadratureRule(usp.n, usp.p + 1)
    B = _basis_values(usp, rule.nodes.ravel())[:, 2:-2]
    K = B.T @ (rule.weights.ravel()[:, None] * B)
    d = 1.0 / np.sqrt(np.diag(K))
    return d[:, None] * K * d[None, :]


def _interface_solver(G, owner):
    """Exact solve with the edge and vertex block G (CSR) of A, by
    elimination of each edge's own rows onto a separator (Toselli & Widlund,
    *Domain Decomposition Methods*, 2005, ch. 4).

    ``owner`` labels each row of G with its edge, -1 for a vertex row; the
    rows of one edge are contiguous. The separator S is every vertex row and
    every row with an entry in a column of another owner. The remaining rows
    I couple only within their edge, so G_II is block diagonal with one small
    block per edge, inverted densely into the block-diagonal CSR Binv. With
    X = Binv G_IS and the dense Schur complement G_SS - G_SI X, a residual
    (r_I, r_S) maps to y_S = Schur^-1 (r_S - G_SI z) and y_I = z - X y_S,
    z = Binv r_I. The separator is the rows near the ends of the edges, so
    its size stops growing with n. Raises NumericalError when an edge block
    or the Schur complement is singular.
    """
    coo = G.tocoo()
    sep = owner < 0
    sep[coo.row[owner[coo.row] != owner[coo.col]]] = True
    I, S = np.flatnonzero(~sep), np.flatnonzero(sep)
    G_I, G_S = G[I], G[S]
    G_II = G_I[:, I]
    cut = np.flatnonzero(np.diff(owner[I])) + 1  # where the next edge's rows start
    try:
        Binv = scipy.sparse.block_diag([
            np.linalg.inv(G_II[a:b, a:b].toarray())
            for a, b in zip(np.r_[0, cut], np.r_[cut, len(I)])
        ], format="csr")
        X = Binv @ G_I[:, S]
        G_SI = G_S[:, I]
        Sinv = np.linalg.inv(G_S[:, S].toarray() - (G_SI @ X).toarray())
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"interface block of the mass is singular: {exc}") from exc

    def solve(r):
        y = np.empty_like(r)
        z = Binv @ r[I]
        y[S] = Sinv @ (r[S] - G_SI @ z)
        y[I] = z - X @ y[S]
        return y

    return solve


def _block_preconditioner(space, A):
    """Block-diagonal approximate inverse of the Jacobi-scaled mass A.

    The basis starts with the interior B-splines of every patch, (N-4)^2 per
    patch in row-major (j1, j2) order; their block of A is approximated by
    K^ (x) K^ on every patch, which ignores the geometry and is inverted by
    fast diagonalization: with K^ = Q diag(lam) Q^T, a residual block R
    (N-4, N-4) maps to Q (L o Q^T R Q) Q^T, L = 1 / (lam_i lam_j). The
    trailing block of the edge and vertex functions is solved exactly by
    ``_interface_solver``.
    """
    m = space.N - 4
    ni = space.breakdown["patch"]
    owner = np.full(A.shape[0] - ni, -1)
    for e in space.geometry.edges:
        rows = space.block("edge", e.id)
        owner[rows.start - ni : rows.stop - ni] = e.id
    interface = _interface_solver(A[ni:, ni:], owner)
    lam, Q = np.linalg.eigh(_unit_interior_mass(space.config))  # (0, 0) if N <= 4
    L = 1.0 / np.outer(lam, lam)

    def apply(r):
        R = r[:ni].reshape(len(space.C), m, m)
        return np.concatenate([
            (Q @ (L * (Q.T @ R @ Q)) @ Q.T).ravel(), interface(r[ni:])
        ])

    return apply


def _solve_scaled(space, M, rhs):
    """Solution of M c = rhs, the number of PCG iterations it took and the
    condition estimate of the preconditioned scaled system."""
    d = np.asarray(M.diagonal())
    if np.any(d <= 0.0):
        raise NumericalError("mass diagonal is not positive")
    s = 1.0 / np.sqrt(d)
    A = M.tocsr(copy=True)  # S M S, scaled in place by columns, then rows
    A.data *= s[A.indices]
    A.data *= np.repeat(s, np.diff(A.indptr))
    y, iterations, cond = _pcg(A, s * rhs, _block_preconditioner(space, A))
    return s * y, iterations, cond


def l2_fit(space, fld, rule=None):
    """Least-squares fit of a field in the smooth space.

    Solves the diagonally scaled normal equations by conjugate gradients to
    a relative residual of CG_RTOL, preconditioned by fast diagonalization
    on the patch interiors and an exact solve with the edge and vertex
    block (see the module docstring); the relative L2 error is integrated
    with a verification rule three orders finer than the assembly rule, so
    the reported value is quadrature-saturated at every level. A rule whose
    nodes do not determine the univariate space (too few points per element)
    leaves the mass singular and is refused.
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
    rhs = assemble_rhs(space, fld, rule)
    rule._det_weights.clear()  # shared by mass and load, not needed by the solve
    t1 = time.perf_counter()
    coeffs, iterations, cond = _solve_scaled(space, M, rhs)
    t2 = time.perf_counter()
    err_rule = QuadratureRule(rule.n, rule.order + 3)
    err2, zz = _integral_sq(space, coeffs, fld, err_rule)
    t3 = time.perf_counter()
    res = float(np.linalg.norm(M @ coeffs - rhs) / max(np.linalg.norm(rhs), 1e-300))
    rel = float(np.sqrt(max(err2, 0.0) / zz)) if zz > 0 else float(np.sqrt(max(err2, 0.0)))
    return FitResult(
        coeffs=coeffs,
        rel_error=rel,
        h=space.config.h,
        dim=space.dim,
        galerkin_residual=res,
        assemble_seconds=t1 - t0,
        solve_seconds=t2 - t1,
        error_seconds=t3 - t2,
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
                ecr = float(np.log2(prev[2] / err))
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


def convergence_study(mp, make_field, levels, tol=DEFAULT_TOL):
    """Fit on a sequence of nested dyadic refinements of a geometry.

    ``make_field(geometry)`` binds the target function to each refined
    geometry; levels are h, h/2, h/4, ... starting from the input mesh.
    """
    if levels < 1:
        raise InvalidConfigError(f"need at least one level, got {levels}")
    table = ConvergenceTable()
    results = []
    current = mp
    for lvl in range(levels):
        if lvl > 0:
            current = refine(current)
        r = l2_fit(ArgyrisSpace(current, tol=tol), make_field(current))
        table.add(r.h, r.dim, r.rel_error)
        results.append(r)
    return table, results


def cos_sin_field(mp):
    """The smooth benchmark target 2 cos(x1) sin(x2) with its derivatives."""

    def value(x):
        return 2.0 * np.cos(x[:, 0]) * np.sin(x[:, 1])

    def grad(x):
        return np.column_stack(
            [-2.0 * np.sin(x[:, 0]) * np.sin(x[:, 1]),
             2.0 * np.cos(x[:, 0]) * np.cos(x[:, 1])]
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


@dataclass
class SmoothnessReport:
    """Worst relative jumps of value/gradient across interfaces and of second
    derivatives at vertices, with the offending basis ids."""

    edge_rows: list
    vertex_rows: list

    @property
    def max_c1_jump(self):
        return max((max(r[1], r[2]) for r in self.edge_rows), default=0.0)

    @property
    def max_c2_jump(self):
        return max((r[1] for r in self.vertex_rows), default=0.0)

    def passed(self):
        return self.max_c1_jump < 1e-9 and self.max_c2_jump < 1e-8

    def to_text(self):
        lines = ["interface  value_jump  gradient_jump  worst_function"]
        for eid, dv, dg, fid in self.edge_rows:
            lines.append(f"{eid:>9d}  {dv:>10.3e}  {dg:>13.3e}  {fid}")
        lines.append("vertex  hessian_jump  worst_function")
        for vid, dh, fid in self.vertex_rows:
            lines.append(f"{vid:>6d}  {dh:>12.3e}  {fid}")
        return "\n".join(lines)


def smoothness_report(space, coeffs=None, samples_per_edge=200):
    """Two-sided continuity audit of the space, or of the members given by a
    coefficient vector (dim,) or the k columns of a matrix (dim, k).

    Per interface: max relative jump of values and physical gradients over
    sample points. Per vertex: max relative jump of physical second
    derivatives between all surrounding patches. Relative means divided by
    max(1, local magnitude). The jets of all members (for the space, the
    identity coefficient block) come at once from the sparse jet matrix; the
    patch maps are sampled by sum factorization on the same side and corner
    grids.
    """
    if samples_per_edge < 1:
        raise InvalidConfigError(
            f"need at least one sample per edge, got {samples_per_edge}"
        )
    mp = space.geometry
    t = np.linspace(0.0, 1.0, samples_per_edge)
    if coeffs is None:
        members = scipy.sparse.identity(space.dim, format="csr")
    else:
        coeffs = np.asarray(coeffs, dtype=float)
        space._check_coeffs(coeffs)
        members = scipy.sparse.csr_matrix(coeffs.reshape(space.dim, -1))

    def jets(ipatch, grid, order):
        """Sparse (m * (order+1)**2, k) parametric jets of all members on the
        x1-major flattened tensor grid (x1, x2)."""
        uv = np.stack(np.meshgrid(*grid, indexing="ij"), axis=-1).reshape(-1, 2)
        return space.config.jet_matrix(uv, order) @ (space.C[ipatch] @ members)

    def physical(ipatch, grid, order, S, cols):
        geo = mp.patches[ipatch].grid_jet(*grid, order)
        fj = S[:, cols].toarray().reshape(len(geo), order + 1, order + 1, len(cols))
        return physical_derivatives(geo, fj)

    def worst(score, cols):
        """Name of the first member with the largest positive score."""
        if not len(score) or score.max() <= 0.0:
            return None
        col = cols[int(np.argmax(score))]
        if coeffs is None:
            return space.basis_id(col)
        return "coeffs" if coeffs.ndim == 1 else f"coeffs[:, {col}]"

    edge_rows = []
    for e in mp.interfaces():
        (i1, k1), (i2, k2) = edge_frames(e)
        side1 = rotate_grid([0.0], t, k1)
        side2 = rotate_grid(t, [0.0], k2)
        S1, S2 = jets(i1, side1, 1), jets(i2, side2, 1)
        cols = np.union1d(S1.indices, S2.indices)  # members seen on the edge
        v1, g1, _ = physical(i1, side1, 1, S1, cols)
        v2, g2, _ = physical(i2, side2, 1, S2, cols)
        sv = np.maximum(1.0, np.maximum(np.abs(v1).max(0), np.abs(v2).max(0)))
        sg = np.maximum(1.0, np.maximum(np.abs(g1).max((0, 2)), np.abs(g2).max((0, 2))))
        dv = np.abs(v1 - v2).max(0) / sv
        dg = np.abs(g1 - g2).max((0, 2)) / sg
        edge_rows.append((
            e.id, dv.max(initial=0.0), dg.max(initial=0.0),
            worst(np.maximum(dv, dg), cols),
        ))

    vertex_rows = []
    for v in mp.vertices:
        corners = [(ip, rotate_grid([0.0], [0.0], c)) for ip, c in v.corners]
        S = [jets(ip, grid, 2) for ip, grid in corners]
        cols = np.unique(np.concatenate([s.indices for s in S]))
        hs = np.array(
            [physical(ip, grid, 2, s, cols)[2][0] for (ip, grid), s in zip(corners, S)]
        )
        scale = np.maximum(1.0, np.abs(hs).max((0, 2, 3)))
        dh = np.abs(hs - hs[0]).max((0, 2, 3)) / scale
        vertex_rows.append((v.id, dh.max(initial=0.0), worst(dh, cols)))
    return SmoothnessReport(edge_rows, vertex_rows)
