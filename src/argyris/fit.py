"""L2 approximation on the smooth space and the study harness around it.

Element-wise tensor Gauss quadrature gives each patch's |det DF|-weighted
tensor B-spline mass M_i and load vector b_i; the rows C_i of patch i in the
space's extraction matrix C turn them into the mass matrix sum_i C_i^T M_i
C_i and the load vector sum_i C_i^T b_i. The quadrature nodes of a patch
form a tensor grid, so the patch map and its Jacobian, the target field and
the fitted member are sampled there by sum factorization (``Patch.grid_jet``,
``jets`` of the field classes): per-direction basis tables, each made once
per (space, nodes, derivative order), instead of a basis evaluation at every
node. A rule keeps the |det DF| weights of every patch it integrated over,
so the mass and the load of a fit share them. With A0 the (m, N) basis
values at the m nodes of one direction and W the weights on the node grid,
b_i is A0^T (W o z) A0 for target samples z. The mass is never assembled:
``assemble_mass`` returns a ``MassOperator`` that applies M_i to a
coefficient grid U by sum factorization, A0^T (W o (A0 U A0^T)) A0, between
the products with C_i and C_i^T (Antolin, Buffa, Calabro, Martinelli &
Sangalli, CMAME 2015; Sangalli & Tani, CMAME 2018). It stores only what the
preconditioner needs. An interior column is one B-spline (a1, a2) times v,
so the diagonal there is v^2 ((A0^2)^T W A0^2)[a1, a2]. The edge and vertex
columns live on the two coefficient layers next to the sides, so their
block G is an integral over the ring of elements next to the sides, summed
by the same sum factorization over four pinwheel strips of it, and mirrored
from its upper triangle, so G is exactly symmetric.
The normal equations are diagonally scaled, A = S M S with S = diag(M)^-1/2,
and solved by conjugate gradients with a block-diagonal preconditioner that
follows the two families of the basis. The patch-interior functions, which
lead the basis, are unit tensor B-splines, so their block of A is close to
K^ (x) K^ on every patch, with K^ the unit-diagonal 1D B-spline mass of the
interior indices on [0, 1]; it is inverted by fast diagonalization (Sangalli
& Tani, SISC 2016). The few edge and vertex functions form the trailing
block, solved exactly: its rows, ordered by breadth-first levels from a
pseudo-peripheral row (Cuthill & McKee, 1969), make it block tridiagonal,
and block Cholesky needs one small dense factor per level. The order is read
off the sparsity of the block alone, and the levels stay narrow because each
function couples only to its neighbours along the interfaces. At p = 3 CG
then needs about 30 iterations on every mesh. Its coefficients also give a
Lanczos estimate of the condition number of the preconditioned system;
``FitResult`` records it with the iteration count and the time of each
stage. The convergence driver fits a target function on a sequence of
nested refinements and tabulates errors with estimated convergence rates
ecr = log2(e_coarse / e_fine).
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .bspline import _basis_values
from .duality import AnalyticField, SpaceField, _unit_jets
from .errors import ArgyrisError, InvalidConfigError, NumericalError
from .gluing import DEFAULT_TOL
from .multipatch import edge_frames, refine, rotate_net
from .space import ArgyrisSpace, CSRMatrix, physical_derivatives

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


def _distinct(a):
    """Sorted distinct values of an integer array: np.unique without
    return_inverse, whose first call imports numpy.ma (about 15 ms)."""
    a = np.sort(np.ravel(a))
    first = np.ones(len(a), dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return a[first]


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
    det = ((A1 @ (X @ A0.T)) * (A0 @ (Y @ A1.T))
           - (A1 @ (Y @ A0.T)) * (A0 @ (X @ A1.T)))
    w = rule.weights.ravel()
    return np.abs(det) * np.outer(w, w)


def _interface_mass(space, i, W, rule, start):
    """Triplets (rows, columns, values) of the upper triangle of the block
    C_G^T M_i C_G of the columns C_G of C from ``start`` on, the edge and
    vertex functions, in their local numbering.

    Those columns live on the two coefficient layers next to the sides,
    which p - r >= 2 keeps on the ring of elements next to the sides. The
    ring is cut into pinwheel strips, one per side s, each seen in the frame
    turned s quarter turns (the symmetric node grid maps onto itself): the
    elements (0, 0..n-2), or the single element when n = 1. Across a strip
    only the first p+1 layers are active. The values X of the columns on a
    strip are the basis tables across (x) along applied to their dense block
    Z on the active rows, and the strip adds X^T (w o X).
    """
    cfg = space.config
    p, n, g, N = cfg.p, rule.n, rule.order, space.N
    C = space.extraction(i)
    row, col, val = (a[C.indices >= start] for a in (C.row_ids, C.indices, C.data))
    layer = np.minimum(np.arange(N), np.arange(N)[::-1])  # counted from the nearer side
    if np.minimum(layer[row // N], layer[row % N]).max(initial=0) > 1:
        raise ArgyrisError("an edge or vertex function reaches beyond the two "
                           "layers next to the sides of a patch")
    ne = max(n - 1, 1)  # elements along a strip
    L = (ne - 1) * (p - cfg.r) + p + 1  # functions active on them
    A0 = _basis_values(cfg, rule.nodes.ravel())
    across, along = A0[:g, : p + 1], A0[: ne * g, :L]
    parts = []
    for s in range(4) if n > 1 else (0,):
        at = np.full(N * N, -1)  # position of each row in the strip's block
        at[space._rows[s][: p + 1, :L].ravel()] = np.arange((p + 1) * L)
        q = at[row]
        on = q >= 0
        live, k = np.unique(col[on], return_inverse=True)
        Z = np.zeros(((p + 1) * L, len(live)))
        Z[q[on], k] = val[on]
        Y = along @ Z.reshape(p + 1, L, -1)  # each layer along the strip
        X = (across @ Y.reshape(p + 1, -1)).reshape(-1, len(live))  # then across it
        w = rotate_net(W, s)[:g, : ne * g].reshape(-1, 1)
        E = X.T @ (X * w)
        r, c = np.nonzero(np.triu(E))
        parts.append((live[r] - start, live[c] - start, E[r, c]))
    return tuple(map(np.concatenate, zip(*parts)))


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
    positions ``start``..dim) as a ``CSRMatrix``.
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
        x = np.asarray(x, dtype=float)
        A0, P = self._A0, len(self._W)
        N = A0.shape[1]
        U = (self.C @ x).reshape(P, N, N, -1).transpose(3, 0, 1, 2)  # (k, patches, N, N)
        T = A0 @ U @ A0.T  # weighted in place: one (k, patches, m, m) temporary
        V = A0.T @ np.multiply(T, self._W, out=T) @ A0
        return (V.reshape(len(V), -1) @ self.C).T.reshape(x.shape)


def assemble_mass(space, rule=None):
    """The mass matrix sum_patches int phi_a phi_b |det DF| as a
    ``MassOperator``: its diagonal and its edge and vertex block are
    assembled, the rest is applied by sum factorization."""
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
    # the upper triangles of all patches, mirrored: G is exactly symmetric
    rows, cols, vals = map(np.concatenate, zip(*(_interface_mass(space, i, Wi, rule, ni)
                                                 for i, Wi in enumerate(W))))
    off = rows != cols
    G = CSRMatrix.from_triplets(np.r_[rows, cols[off]], np.r_[cols, rows[off]],
                                np.r_[vals, vals[off]], (space.dim - ni,) * 2)
    return MassOperator(C, A0, W, np.concatenate([interior, G.diagonal()]), G, ni)


def assemble_rhs(space, fld, rule=None, *, weights=None):
    """Load vector int z phi_a |det DF| for a field with a ``jets`` sampler.

    On each patch the tensor B-spline load vector is A0^T (W o z) A0, with
    A0 the (m, N) basis values at the m quadrature nodes per direction and
    W the patch's |det DF| weights on the rule: the given ``weights`` of the
    patches in order (``l2_fit`` passes those its mass was made with), else
    made here. A field bound to another geometry than the space's is
    refused.
    """
    rule = _check_rule(space, rule)
    space._check_field(fld)
    if weights is None:
        weights = (_patch_weights(space, i, rule) for i in range(len(space.geometry.patches)))
    x = rule.nodes.ravel()
    A0 = _basis_values(space.config, x)
    rhs = np.zeros(space.dim)
    for i, W in enumerate(weights):
        Wz = W.ravel() * fld.jets(i, x, x, 0)[0]
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


def _levels(G):
    """The rows of a structurally symmetric ``CSRMatrix`` G grouped by
    breadth-first distance (Cuthill & McKee, 1969), as a list of sorted row
    arrays. A stored entry of G joins rows in the same or in adjacent
    levels, so G is block tridiagonal in this order. Each connected part is
    swept twice, from its first row and again from the last row that sweep
    reached, a pseudo-peripheral row, so the levels stay narrow; the next
    part starts one level further on."""
    done = np.zeros(G.shape[0], dtype=bool)
    levels = []
    while not done.all():
        start = int(np.argmin(done))
        for _ in range(2):
            seen = done.copy()
            seen[start] = True
            part = [np.array([start])]
            while True:
                reached = G.take(part[-1]).indices
                reached = _distinct(reached[~seen[reached]])
                if not len(reached):
                    break
                seen[reached] = True
                part.append(reached)
            start = part[-1][-1]
        done = seen
        levels += part
    return levels


def _interface_solver(G):
    """Exact solve with the edge and vertex block G (``CSRMatrix``) of A by
    block Cholesky over the levels of ``_levels``, in which G is block
    tridiagonal: with D_0 = G_00, level k factors D_k = L_k L_k^T, W_k =
    L_k^-1 G_{k,k+1} and D_{k+1} = G_{k+1,k+1} - W_k^T W_k. A residual r maps
    by one forward sweep, z_k = L_k^-1 (r_k - W_{k-1}^T z_{k-1}), and one
    backward sweep, y_k = L_k^-T (z_k - W_k y_{k+1}). The edge and vertex
    functions couple only to their neighbours, so the levels follow the
    interfaces and their width stops growing with n. Raises NumericalError
    when some D_k is not positive definite.
    """
    levels = _levels(G)
    level, pos = np.zeros(G.shape[0], dtype=int), np.zeros(G.shape[0], dtype=int)
    for k, rows in enumerate(levels):
        level[rows], pos[rows] = k, np.arange(len(rows))
    bounds = np.cumsum([0] + [len(rows) for rows in levels])
    Linv, W = [], []
    try:
        for k, rows in enumerate(levels):
            m = len(rows)
            sub = G.take(rows)
            up = level[sub.indices] - k  # 0 in G_{k,k}, 1 in G_{k,k+1}, -1 in G_{k,k-1}
            keep = up >= 0
            block = np.zeros((m, bounds[min(k + 2, len(levels))] - bounds[k]))
            block[sub.row_ids[keep], (pos[sub.indices] + m * up)[keep]] = sub.data[keep]
            D = block[:, :m] - W[-1].T @ W[-1] if k else block[:, :m]
            Linv.append(np.linalg.inv(np.linalg.cholesky(D)))
            W.append(Linv[-1] @ block[:, m:])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"interface block of the mass is singular: {exc}") from exc
    order = np.concatenate(levels)
    rank = np.argsort(order)  # where each row of G sits in the level order

    def solve(r):
        r = np.split(r[order], bounds[1:-1])
        z = [Linv[0] @ r[0]]
        for k in range(1, len(r)):
            z.append(Linv[k] @ (r[k] - W[k - 1].T @ z[-1]))
        y = [Linv[-1].T @ z[-1]]
        for k in reversed(range(len(z) - 1)):
            y.append(Linv[k].T @ (z[k] - W[k] @ y[-1]))
        return np.concatenate(y[::-1])[rank]

    return solve


def _block_preconditioner(space, G):
    """Block-diagonal approximate inverse of the Jacobi-scaled mass A, given
    its edge and vertex block G (``CSRMatrix``).

    The basis starts with the interior B-splines of every patch, (N-4)^2 per
    patch in row-major (j1, j2) order; their block of A is approximated by
    K^ (x) K^ on every patch, which ignores the geometry and is inverted by
    fast diagonalization: with K^ = Q diag(lam) Q^T, a residual block R
    (N-4, N-4) maps to Q (L o Q^T R Q) Q^T, L = 1 / (lam_i lam_j). The
    trailing block G of the edge and vertex functions is solved exactly by
    ``_interface_solver``, from G alone.
    """
    m = space.N - 4
    ni = space.breakdown["patch"]
    interface = _interface_solver(G)
    lam, Q = np.linalg.eigh(_unit_interior_mass(space.config))  # (0, 0) if N <= 4
    L = 1.0 / np.outer(lam, lam)

    def apply(r):
        R = r[:ni].reshape(len(space.geometry.patches), m, m)
        return np.concatenate([
            (Q @ (L * (Q.T @ R @ Q)) @ Q.T).ravel(), interface(r[ni:])
        ])

    return apply


def _solve_scaled(space, M, rhs):
    """Solution of M c = rhs, the number of PCG iterations it took and the
    condition estimate of the preconditioned scaled system A = S M S,
    S = diag(M)^-1/2."""
    d = M.diagonal
    if np.any(d <= 0.0):
        raise NumericalError("mass diagonal is not positive")
    s = 1.0 / np.sqrt(d)
    A = M.scaled(s)
    y, iterations, cond = _pcg(A, s * rhs, _block_preconditioner(space, A.interface))
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
    rhs = assemble_rhs(space, fld, rule, weights=M._W)
    t1 = time.perf_counter()
    coeffs, iterations, cond = _solve_scaled(space, M, rhs)
    t2 = time.perf_counter()
    err_rule = QuadratureRule(rule.n, min(rule.order + 3, MAX_QUADRATURE_ORDER))
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


#: most samples per interface side that ``smoothness_report`` takes
MAX_SAMPLES_PER_EDGE = 10_000

#: most (side, sample) points one batch of ``smoothness_report`` samples,
#: unless one entity has more; a batch holds whole entities
_REPORT_BATCH = 1 << 9


def _check_samples_per_edge(samples_per_edge):
    """Refuse a sample count ``smoothness_report`` does not take."""
    if not 1 <= samples_per_edge <= MAX_SAMPLES_PER_EDGE:
        raise InvalidConfigError(
            f"need 1..{MAX_SAMPLES_PER_EDGE} samples per edge, got {samples_per_edge}"
        )


def _report_batches(space, kind, t, members, scores):
    """Scores of the members of every interface (``kind`` "edge") or vertex,
    one batch of whole entities after another.

    An interface has two sides, the two layers next to it in the
    standard-form frame of either patch (side 2 transposed, so that both are
    (across, along)), sampled at t; a vertex has the 3 x 3 blocks at its
    corners, sampled at the corner. At a sample only the nb band rows of a
    side are nonzero, the same ones for all samples of a group (an element
    along the side), and their unit jets U are the same on every side; both
    come from ``duality._unit_jets``, the table the dual functionals read. So an
    entity's pairs (member, group) are those with a coefficient stored on a
    band row of one of its sides; a member is 0 elsewhere. The members are
    the basis (``members`` None) or the columns of a coefficient matrix. The
    pairs of an (entity, group) take slots 0, 1, ... in column order on every
    side, and a slot's jets are the sum over the band rows of its
    coefficient there times their unit jets, one row at a time, so a
    member's digits do not depend on the others; the patch map's jets are
    its control points on the band rows times the same jets. One
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
    mp, R, N, dim = space.geometry, space._rows, space.N, space.dim
    if kind == "edge":
        sides = [((i1, R[k1][:2]), (i2, R[k2][:, :2].T))
                 for (i1, k1), (i2, k2) in map(edge_frames, mp.interfaces())]
    else:
        sides = [[(i, R[c][:3, :3]) for i, c in v.corners] for v in mp.vertices]
    U, pos = _unit_jets(space, kind, t)  # a vertex is read at its corner alone
    new = np.r_[True, (pos[1:] != pos[:-1]).any(axis=1)]  # a group's first sample
    starts, group, band = np.flatnonzero(new), np.cumsum(new) - 1, pos[new]
    if not sides:
        return
    (m, d), (G, nb) = U.shape[:2], band.shape
    count = np.array([len(s) for s in sides])
    at = np.r_[0, np.cumsum(count)]  # the sides of entity e are at[e]:at[e + 1]
    owner = np.repeat(np.arange(len(sides)), count)
    patch = np.array([i for s in sides for i, _ in s])
    rows = np.array([b.ravel() for s in sides for _, b in s])
    nets = np.concatenate([P.net.reshape(-1, 2) for P in mp.patches])  # on the stacked rows
    size = np.abs(nets).reshape(len(mp.patches), -1).max(1)  # what their rounding is relative to
    d2U = np.abs(U[0]).sum(-1)[[2, 1, 0], [0, 1, 2]].max() if d == 3 else None
    UT = np.ascontiguousarray(U.transpose(3, 1, 2, 0))  # (nb, d, d, m)
    # the unit jets that are not 0 (at order 1 the mixed one is not read)
    nonzero = UT.any(axis=-1) & (np.add.outer(np.arange(d), np.arange(d)) < d)
    terms = [(b, list(zip(*np.nonzero(nonzero[b])))) for b in range(nb)]
    step = max(1, _REPORT_BATCH // (count.max() * m))
    for e0 in range(0, len(count), step):
        ents = np.arange(e0, min(len(count), e0 + step))
        s0, s1 = at[e0], at[ents[-1] + 1]
        seen = (patch[s0:s1, None] * N * N + rows[s0:s1])[:, band]  # (sides, G, nb)
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
        # the band coefficients of the slots, then of the patch map's x and y
        K = slot.max(initial=0) + 1
        V = np.zeros((nb, K + 2, s1 - s0, G))
        V[b, slot[pair], side, g] = val
        V[:, K:] = nets[seen].transpose(2, 3, 0, 1)
        f = np.zeros((d, d) + V.shape[1:3] + (m,))  # samples last: long inner loops
        for b, jets in terms:
            Vb = V[b][..., group]
            for a, c in jets:
                f[a, c] += UT[b, a, c] * Vb
        f = f.transpose(3, 4, 0, 1, 2).reshape(-1, d, d, K + 2)
        out = physical_derivatives(f[..., K:], f[..., :K])
        # each pair on every side of its entity, (entities, sides); an entity
        # with fewer sides than another repeats its last, which moves no maximum
        side = at[ents, None] + np.arange(count[ents].max())
        side = np.minimum(side, at[ents + 1, None] - 1) - s0
        out = [a if a is None else a.reshape((s1 - s0, m) + a.shape[1:])[side] for a in out]
        floor = None
        if d2U is not None:
            J = np.stack([f[:, 1, 0, K:], f[:, 0, 1, K:]], axis=-1)
            jinv = np.linalg.norm(np.linalg.inv(J), 2, axis=(1, 2)).reshape(-1, m)
            floor = np.finfo(float).eps * d2U * jinv**2 * size[patch[s0:s1], None]
            floor = floor[side, ..., None]
        e, g = np.divmod(eg, G)
        per_pair = [np.maximum.reduceat(a, starts, axis=1)[e, g, slot] for a in scores(*out, floor)]
        yield ents, (e0 + e) * dim + col, per_pair


def smoothness_report(space, coeffs=None, samples_per_edge=200):
    """Two-sided continuity audit of the space, or of the members given by a
    coefficient vector (dim,) or the k columns of a matrix (dim, k).

    Per interface: max relative jump of values and physical gradients over
    sample points. Per vertex: max relative jump of physical second
    derivatives between all surrounding patches. Relative means divided by
    max(1, local magnitude). For the space, the members of an interface or a
    vertex are the basis functions whose extraction columns touch the two
    layers next to its sides or the 3 x 3 blocks at its corners, in sorted
    order (the first of equal worst jumps is named).

    Like the dual functionals, the report reads each kind in one pass in the
    standard-form frame (Collin, Sangalli & Takacs, CAGD 2016): both sides of
    every interface see the same unit jets at the samples, and every corner
    the same ones at the vertex (``duality._unit_jets``). The patch maps'
    jets are their control points on the rows times that table, and a
    member is sampled only at the samples where one of its coefficients on
    the rows nonzero there is stored (``_report_batches``). One
    ``physical_derivatives`` call serves all sides or all corners of a batch
    of entities, so the report costs about the same at every n, and nothing
    of size N^2 or N per member is formed.

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
    _check_samples_per_edge(samples_per_edge)
    t = np.linspace(0.0, 1.0, samples_per_edge)
    members = None
    if coeffs is not None:
        coeffs = np.asarray(coeffs, dtype=float)
        space._check_coeffs(coeffs)
        members = coeffs.reshape(space.dim, -1)

    def per_entity(kind, scores):
        """(entity, each of its members' scores, their columns) for every
        entity of a kind in order: a member's score is the maximum over its
        pairs."""
        for ents, member, values in _report_batches(space, kind, t, members, scores):
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
