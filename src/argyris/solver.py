"""Preconditioned conjugate gradients for the mass of an L2 fit.

The normal equations are diagonally scaled, A = S M S with S = diag(M)^-1/2,
and solved by conjugate gradients with a block-diagonal preconditioner that
follows the two families of the basis. The patch-interior functions, which
lead the basis, are unit tensor B-splines, so their block of A is close to
K^ (x) K^ on every patch, with K^ the unit-diagonal 1D B-spline mass of the
interior indices on [0, 1]; it is inverted by fast diagonalization (Sangalli
& Tani, SISC 2016). The few edge and vertex functions form the trailing
block, solved exactly: its rows, ordered by breadth-first levels from a
pseudo-peripheral row (Cuthill & McKee, 1969), make it block tridiagonal,
and block Cholesky needs one small dense factor per level; a solve is then
one matrix-vector product per level and sweep. The order is read off the
sparsity of the block alone, and the levels stay narrow because each
function couples only to its neighbours along the interfaces. At p = 3 CG
then needs about 30 iterations from zero on every mesh, and about half as
many at n = 32 from the prolonged fit of n = 16 (nested iteration: Brandt,
Math. Comp. 1977). Its coefficients also give a Lanczos estimate of the
condition number of the preconditioned system.
"""

import numpy as np

from .bspline import _basis_values
from .errors import NumericalError


def _distinct(a):
    """Sorted distinct values of an integer array: np.unique without
    return_inverse, whose first call imports numpy.ma (about 15 ms)."""
    a = np.sort(np.ravel(a))
    first = np.ones(len(a), dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return a[first]

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


def _pcg(A, b, precond, x0=None):
    """Preconditioned conjugate gradients for A x = b from x = x0 (default 0),
    updated in place.

    Returns x, the number of iterations and the Lanczos condition estimate of
    the preconditioned operator. Raises NumericalError, with that estimate,
    when ||r|| does not reach CG_RTOL ||b|| within CG_MAXITER iterations or
    a step finds r.z <= 0 or p.Ap <= 0, so that A or the preconditioner is
    not positive definite.
    """
    x = np.zeros_like(b) if x0 is None else x0
    r = b if x0 is None else b - A @ x
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
    unit diagonal, by the Gauss rule of p+1 points per element."""
    x, w = np.polynomial.legendre.leggauss(usp.p + 1)
    nodes = (np.arange(usp.n)[:, None] + (x + 1.0) / 2.0) / usp.n
    B = _basis_values(usp, nodes.ravel())[:, 2:-2]
    K = B.T @ (np.tile(w / (2.0 * usp.n), usp.n)[:, None] * B)
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
    backward sweep, y_k = L_k^-T (z_k - W_k y_{k+1}), each level of each
    sweep one product with the level's rows of the sweep's factor, made
    once here. The edge and vertex functions couple only to their
    neighbours, so the levels follow the interfaces and their width stops
    growing with n. Raises NumericalError when some D_k is not positive
    definite.
    """
    levels = _levels(G)
    level, pos = np.zeros(G.shape[0], dtype=int), np.zeros(G.shape[0], dtype=int)
    for k, rows in enumerate(levels):
        level[rows], pos[rows] = k, np.arange(len(rows))
    bounds = np.cumsum([0] + [len(rows) for rows in levels])
    # the rows of level k of the two sweeps' factors: z_k = F_k (z_{k-1}, r_k)
    # with F_k = [-L_k^-1 W_{k-1}^T, L_k^-1], and y_k = B_k (z_k, y_{k+1})
    # with B_k = [L_k^-T, -L_k^-T W_k]
    F, B = [], []
    try:
        for k, rows in enumerate(levels):
            m = len(rows)
            sub = G.take(rows)
            up = level[sub.indices] - k  # 0 in G_{k,k}, 1 in G_{k,k+1}, -1 in G_{k,k-1}
            keep = up >= 0
            block = np.zeros((m, bounds[min(k + 2, len(levels))] - bounds[k]))
            block[sub.row_ids[keep], (pos[sub.indices] + m * up)[keep]] = sub.data[keep]
            D = block[:, :m] - W.T @ W if k else block[:, :m]
            Linv = np.linalg.inv(np.linalg.cholesky(D))
            F.append(np.concatenate([-Linv @ W.T, Linv], axis=1) if k else Linv)
            W = Linv @ block[:, m:]
            B.append(np.concatenate([Linv.T, -Linv.T @ W], axis=1))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"interface block of the mass is singular: {exc}") from exc
    # the work vector t holds r_0, z_0, r_1, z_1, ..., so that each product
    # reads one pair (z_{k-1}, r_k) or (z_k, y_{k+1}) of t; y_k overwrites r_k
    t = np.zeros(2 * G.shape[0])
    c = np.ravel([2 * bounds[:-1], bounds[:-1] + bounds[1:]], order="F")
    pair = [t[c[max(2 * k - 1, 0)] : c[2 * k + 1] if k < len(F) else None] for k in range(len(F) + 1)]
    forward = [(Fk, pair[k], pair[k + 1][: len(Fk)]) for k, Fk in enumerate(F)]
    backward = [(Bk, pair[k + 1], pair[k][-len(Bk) :]) for k, Bk in enumerate(B)]
    where = 2 * bounds[level] + pos  # each row of G in t

    def solve(r):
        t[where] = r
        for Fk, x, out in forward:
            Fk.dot(x, out=out)
        for Bk, x, out in reversed(backward):
            Bk.dot(x, out=out)
        return t[where]

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


def _solve_scaled(space, M, rhs, x0=None):
    """Solution of M c = rhs from c = x0 (default 0), the number of PCG
    iterations it took and the condition estimate of the preconditioned
    scaled system A = S M S, S = diag(M)^-1/2. A given x0 is overwritten
    and returned as the solution: a fit at n = 32 keeps no second vector."""
    d = M.diagonal
    if np.any(d <= 0.0):
        raise NumericalError("mass diagonal is not positive")
    s = 1.0 / np.sqrt(d)
    A = M.scaled(s)
    if x0 is not None:
        x0 /= s
    y, iterations, cond = _pcg(A, s * rhs, _block_preconditioner(space, A.interface), x0)
    y *= s
    return y, iterations, cond
