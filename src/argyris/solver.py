"""Preconditioned conjugate gradients for the mass of an L2 fit.

The normal equations are diagonally scaled, A = S M S with S = diag(M)^-1/2,
and solved by conjugate gradients, preconditioned by symmetric block
Gauss-Seidel over the two families of the basis. The patch interiors'
block is close to K^ (x) K^ on every patch, K^ the unit-diagonal 1D
B-spline mass of the interior indices on [0, 1], and is inverted by fast
diagonalization (Sangalli & Tani, SISC 2016). The edge and vertex block is
solved exactly: breadth-first levels of its rows from a pseudo-peripheral
row (Cuthill & McKee, 1969) make it block tridiagonal, with one small dense
factor per level, and they stay narrow because each function couples only
to its neighbours along the interfaces. That block and its coupling to the
interior rows are assembled over the ring of elements next to the sides.
At p = 3 CG takes about 16 iterations from zero, and 7 at n = 32 from the
prolonged fit of n = 16 (nested iteration: Brandt, Math. Comp. 1977); its
coefficients give a Lanczos estimate of the condition number.
"""

import math

import numpy as np

from .bspline import _basis_values
from .errors import ArgyrisError, NumericalError
from .multipatch import rotate_net
from .space import CSRMatrix, _sorted


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


def _pcg(apply, b, precond, x0=None):
    """Preconditioned conjugate gradients for A x = b, with ``apply(v)`` = A v,
    from x = x0 (default 0), updated in place.

    Returns x, the number of iterations and the Lanczos condition estimate of
    the preconditioned operator. Raises NumericalError, with that estimate,
    when ||r|| does not reach CG_RTOL ||b|| within CG_MAXITER iterations or
    a step finds r.z <= 0 or p.Ap <= 0, so that A or the preconditioner is
    not positive definite. ``precond`` may return r, and either callable an
    array that its next call overwrites; A p is work space once used.
    """
    x = np.zeros_like(b) if x0 is None else x0
    r = b.copy() if x0 is None else b - apply(x)
    stop = CG_RTOL * np.linalg.norm(b)
    z = precond(r)
    rz = r @ z
    p = z.copy()
    inv_alpha, beta = [], []
    while np.linalg.norm(r) > stop:
        if len(inv_alpha) == CG_MAXITER:
            reason = f"did not converge in {CG_MAXITER} iterations"
            break
        q = apply(p)
        if not rz > 0.0:  # r.z <= 0: the preconditioner is not positive definite
            reason = f"broke down at iteration {len(inv_alpha) + 1}"
            break
        inv_alpha.append((p @ q) / rz)
        if not inv_alpha[-1] > 0.0:
            reason = f"broke down at iteration {len(inv_alpha)}"
            break
        alpha = 1.0 / inv_alpha[-1]
        r -= np.multiply(q, alpha, out=q)
        x += np.multiply(p, alpha, out=q)
        z = precond(r)
        rz, rz_old = r @ z, rz
        beta.append(rz / rz_old)
        p *= beta[-1]
        p += z
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
                reached = seen.copy()
                reached[G.take(part[-1]).indices] = True
                reached = np.flatnonzero(reached > seen)  # sorted and new
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
    size = np.array([len(rows) for rows in levels])
    bounds = np.r_[0, np.cumsum(size)]
    # the entries of G_{k,k} and G_{k,k+1}, by level k, at their place in
    # the level's block [G_{k,k}, G_{k,k+1}]
    up = level[G.indices] - level[G.row_ids]  # 0 in G_{k,k}, 1 in G_{k,k+1}, -1 in G_{k,k-1}
    e = np.flatnonzero(up >= 0)
    e = e[np.argsort(level[G.row_ids[e]], kind="stable")]
    cut = np.searchsorted(level[G.row_ids[e]], np.arange(len(levels) + 1))
    row, col = pos[G.row_ids[e]], pos[G.indices[e]] + up[e] * size[level[G.row_ids[e]]]
    # the rows of level k of the two sweeps' factors: z_k = F_k (z_{k-1}, r_k)
    # with F_k = [-L_k^-1 W_{k-1}^T, L_k^-1], and y_k = B_k (z_k, y_{k+1})
    # with B_k = [L_k^-T, -L_k^-T W_k]
    F, B = [], []
    try:
        for k, m in enumerate(size):
            block = np.zeros((m, bounds[min(k + 2, len(levels))] - bounds[k]))
            at = slice(cut[k], cut[k + 1])
            block[row[at], col[at]] = G.data[e[at]]
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


#: most elements whose blocks of G are formed in one batch
_ELEMENTS_PER_BATCH = 64


def _interface_mass(space, W, rule, start):
    """The block G = sum_i C_G^T M_i C_G of the columns C_G of C from
    ``start`` on, the edge and vertex functions, in their own numbering,
    and the coupling C_I^T M_i C_G of the interior columns C_I to them, as
    ``CSRMatrix``, with W the patches' weights (``fit._patch_weights``).

    Those columns live on the two coefficient layers next to the sides,
    which p - r >= 2 keeps on the ring of elements next to the sides. The
    ring is cut into pinwheel strips, one per side s, each seen in the frame
    turned s quarter turns (the symmetric node grid maps onto itself): the
    elements (0, 0..n-2), or the single element when n = 1. The block Z_e of
    the K columns that touch an element's (p+1)^2 rows has the values X_e =
    (across (x) along_e) Z_e at its g^2 nodes. G sums the upper triangles of
    X_e^T (w_e o X_e), batched over elements, and is mirrored with one sort
    of its columns, so it is exactly symmetric; the coupling sums the rows
    of (across (x) along_e)^T (w_e o X_e) at interior B-splines times their
    coefficient. Both cost O(n).
    """
    cfg, C = space.config, space.C
    p, n, g, N, P = cfg.p, rule.n, rule.order, space.N, len(W)
    mult, ne, sides, size = p - cfg.r, max(n - 1, 1), 4 if n > 1 else 1, space.dim - start
    per = ne * sides  # elements on the ring of a patch
    entry = np.flatnonzero(C.indices >= start)
    patch, a, b = np.unravel_index(C.row_ids[entry], (P, N, N))
    layer = np.minimum(np.arange(N), np.arange(N)[::-1])  # counted from the nearer side
    if np.minimum(layer[a], layer[b]).max(initial=0) > 1:
        raise ArgyrisError("an edge or vertex function reaches beyond the two "
                           "layers next to the sides of a patch")
    # each entry on every element e of every strip s whose rows hold it, at
    # its row (a, b - e mult) there, with (a, b) its position in frame s
    parts = []
    for s in range(sides):
        on = np.flatnonzero(a <= p)
        e = b[on] // mult - np.arange(-(-(p + 1) // mult))[:, None]
        t, k = np.nonzero((e >= 0) & (e < ne) & (b[on] - e * mult <= p))
        e, k = e[t, k], on[k]
        parts.append(((patch[k] * ne + e) * sides + s, a[k] * (p + 1) + b[k] - e * mult, entry[k]))
        a, b = b, N - 1 - a  # a quarter turn, as in rotate_net
    el, local, entry = map(np.concatenate, zip(*parts))
    del parts, patch, a, b, on, e, t, k
    # sorted by element and column: the K columns that touch each element in
    # order, and each entry's slot among them
    key, by = _sorted(el * size + C.indices[entry] - start, P * per * size)
    local, val, new = local[by], C.data[entry[by]], np.diff(key, prepend=-1) != 0
    el, column = np.divmod(key[new], size)
    count = np.bincount(el, minlength=P * per)
    first = np.cumsum(count) - count
    slot = np.cumsum(new) - 1
    el = el[slot]
    slot -= first[el]
    del key, by, entry, new
    # the interior rows of every element, by element: the element, the row's
    # place there, and the row's one entry of C (its column and value)
    ids = np.arange(P * per)[:, None]
    a, b = np.divmod(np.arange((p + 1) ** 2), p + 1)
    b = ids // sides % ne * mult + b
    inner, at = np.nonzero((a >= 2) & (a <= N - 3) & (b >= 2) & (b <= N - 3))
    turned = np.stack([rotate_net(np.arange(N * N).reshape(N, N), s) for s in range(sides)])
    icol = C.indptr[inner // per * N * N + turned[inner % sides, a[at], b[inner, at]]]
    icol, ival = C.indices[icol], C.data[icol, None]
    del a, b, turned
    # batches of elements, each padded to the most columns in the batch
    lo = np.arange(0, P * per, _ELEMENTS_PER_BATCH)
    hi = np.minimum(lo + _ELEMENTS_PER_BATCH, P * per)
    A0 = _basis_values(cfg, rule.nodes.ravel())
    e = np.arange(ne)[:, None, None]
    along = A0[e * g + np.arange(g)[:, None], e * mult + np.arange(p + 1)]  # (ne, g, p+1)
    w = np.stack([rotate_net(W.transpose(1, 2, 0), s)[:g, : ne * g] for s in range(sides)])
    w = w.reshape(sides, g, ne, g, -1).transpose(4, 2, 0, 1, 3).reshape(-1, g * g, 1)
    across = A0[:g, : p + 1]
    parts, cparts = [], []
    for lo, hi, i0, i1, j0, j1 in zip(lo, hi, el.searchsorted(lo), el.searchsorted(hi),
                                      inner.searchsorted(lo), inner.searchsorted(hi)):
        K, along_e = count[lo:hi].max(), along[np.arange(lo, hi) // sides % ne, None]
        Z = np.zeros((hi - lo, p + 1, p + 1, K))
        Z.reshape(hi - lo, -1, K)[el[i0:i1] - lo, local[i0:i1], slot[i0:i1]] = val[i0:i1]
        X = (across @ (along_e @ Z).reshape(hi - lo, p + 1, -1)).reshape(hi - lo, -1, K)
        wX = X * w[lo:hi]
        Y = (across.T @ wX.reshape(hi - lo, g, -1)).reshape(hi - lo, p + 1, g, K)
        Y = (along_e.transpose(0, 1, 3, 2) @ Y).reshape(hi - lo, -1, K)
        k = column[first[lo:hi, None] + np.minimum(np.arange(K), count[lo:hi, None] - 1)]
        real = np.arange(K) < count[lo:hi, None]  # no padded column
        r, c = (np.arange(K)[:, None] <= np.arange(K)).nonzero()
        keep = real[:, c]
        parts.append((k[:, r][keep], k[:, c][keep], (X.transpose(0, 2, 1) @ wX)[:, r, c][keep]))
        t = inner[j0:j1] - lo
        keep = real[t]
        cparts.append((icol[j0:j1].repeat(K)[keep.ravel()], k[t][keep],
                       (ival[j0:j1] * Y[t, at[j0:j1]])[keep]))
        del Z, X, wX, Y
    del el, local, val, slot, column, first, inner, at, icol, ival, w
    coupling = CSRMatrix.from_triplets(*map(np.concatenate, zip(*cparts)), (start, size))
    del cparts
    (rows, cols, vals), parts = map(np.concatenate, zip(*parts)), None
    U = CSRMatrix.from_triplets(rows, cols, vals, (size, size))
    del rows, cols, vals
    # row i of G is column i of U's strict upper triangle, which a sort of
    # its columns alone puts in row order, then row i of U
    off = np.flatnonzero(U.row_ids != U.indices)
    low = off[_sorted(U.indices[off], size)[1]]
    cum = np.cumsum(np.bincount(U.indices[off], minlength=size))
    at = np.r_[np.arange(len(low)) + U.indptr[U.indices[low]], np.arange(U.nnz) + cum[U.row_ids]]
    indices, data = np.empty_like(at), np.empty(len(at))
    indices[at], data[at] = np.r_[U.row_ids[low], U.indices], np.r_[U.data[low], U.data]
    G = CSRMatrix(U.indptr + np.r_[0, cum], indices, data, U.shape)
    return G, coupling


def _work(work, i, shape):
    """A view of the given shape into the flat array work[i], which is first
    replaced by a larger one if it is too small: applies that run one after
    the other share their scratch space."""
    if work[i].size < math.prod(shape):
        work[i] = np.empty(math.prod(shape))
    return work[i][: math.prod(shape)].reshape(shape)


def _block_preconditioner(space, G, coupling, work=None):
    """Symmetric block Gauss-Seidel approximate inverse of the Jacobi-scaled
    mass A, given its edge and vertex block G and the interior rows' block
    A_IG in those columns (``CSRMatrix``). The interior block, (N-4)^2 unit
    B-splines per patch in row-major (j1, j2) order, is approximated by
    P_I^-1 = K^ (x) K^: with K^ = Q diag(lam) Q^T, P_I R = Q (L o Q^T R Q)
    Q^T, L = 1 / (lam_i lam_j). A residual (r_I, r_G) maps to z_I = P_I r_I,
    z_G = G^-1 (r_G - A_GI z_I), y_I = z_I - P_I A_IG z_G (Axelsson, 1994;
    Eijkhout & Vassilevski, SIAM Review 33, 1991), which is K^T diag(P_I,
    G^-1) K with K = [I 0; -A_GI P_I I]: positive definite whenever P_I and
    G are, also on curved patches. Each apply overwrites the vector it
    returns; its scratch arrays are taken from ``work`` (``_work``).
    """
    P, m, ni = len(space.geometry.patches), space.N - 4, space.breakdown["patch"]
    interface = _interface_solver(G)
    lam, Q = np.linalg.eigh(_unit_interior_mass(space.config))  # (0, 0) if N <= 4
    L = 1.0 / np.outer(lam, lam)
    rows, cols, vals = coupling.row_ids, coupling.indices, coupling.data
    work = [np.empty(0)] * 3 if work is None else work
    y, t = np.empty(ni + G.shape[0]), _work(work, 0, (coupling.nnz,))
    B1, B2 = _work(work, 1, (P, m, m)), _work(work, 2, (P, m, m))
    yI, yG = y[:ni].reshape(P, m, m), y[ni:]

    def interior(R, out):  # out may be B2
        np.matmul(np.matmul(Q.T, R, out=B1), Q, out=B2)
        np.matmul(np.matmul(Q, np.multiply(L, B2, out=B2), out=B1), Q.T, out=out)

    def apply(r):
        interior(r[:ni].reshape(P, m, m), yI)
        np.multiply(np.take(y, rows, out=t, mode="clip"), vals, out=t)
        yG[:] = interface(r[ni:] - np.bincount(cols, t, len(yG)))
        np.multiply(np.take(yG, cols, out=t, mode="clip"), vals, out=t)
        interior(np.bincount(rows, t, ni).reshape(P, m, m), B2)
        np.subtract(yI, B2, out=yI)
        return y

    return apply


def _mass_apply(M, k=1, work=None):
    """x -> M x for a ``MassOperator`` M and x (dim,) or (dim, k), in work
    arrays made once: the terms of the products with C and C^T, each summed
    in stored order by a bincount (whose outputs are the only arrays an
    apply makes), and A0 U_i, W_i o (A0 U_i A0^T) per patch i; ``work``
    as in ``_work``, shared with the preconditioner within a solve."""
    C, A0, W = M.C, M._A0, M._W
    (rows, dim), (P, m, _), N = C.shape, W.shape, A0.shape[1]
    into = C.row_ids if k == 1 else (C.row_ids[:, None] * k + np.arange(k)).ravel()
    back = C.indices if k == 1 else (np.arange(k)[:, None] * dim + C.indices).ravel()
    work = [np.empty(0)] * 3 if work is None else work
    t, T, V = _work(work, 0, (C.nnz * k,)), _work(work, 1, (k, m, m)), _work(work, 2, (k, P, N, N))
    AU = np.empty((k, m, N))
    TA = AU.reshape(k, N, m)  # A0^T T overwrites A0 U, which it no longer needs

    def apply(x):
        np.take(x.reshape(dim, k), C.indices, axis=0, out=t.reshape(-1, k), mode="clip")
        np.multiply(t.reshape(-1, k), C.data[:, None], out=t.reshape(-1, k))
        U = np.bincount(into, t, rows * k).reshape(P, N, N, k).transpose(3, 0, 1, 2)
        for i in range(P):  # A0^T (W_i o (A0 U_i A0^T)) A0, one patch at a time
            np.matmul(np.matmul(A0, U[:, i], out=AU), A0.T, out=T)
            np.matmul(np.matmul(A0.T, np.multiply(T, W[i], out=T), out=TA), A0, out=V[:, i])
        np.take(V.reshape(k, rows), C.row_ids, axis=1, out=t.reshape(k, -1), mode="clip")
        np.multiply(t.reshape(k, -1), C.data, out=t.reshape(k, -1))
        return np.bincount(back, t, k * dim).reshape(k, dim).T.reshape(x.shape)

    return apply


def _solve_scaled(space, M, rhs, x0=None):
    """Solution of M c = rhs from c = x0 (default 0), the number of PCG
    iterations it took and the condition estimate of the preconditioned
    scaled system A = S M S, S = diag(M)^-1/2. A given x0 is overwritten
    and returned as the solution. The work arrays belong to this solve."""
    d = M.diagonal
    if np.any(d <= 0.0):
        raise NumericalError("mass diagonal is not positive")
    s = 1.0 / np.sqrt(d)
    A = M.scaled(s)
    if x0 is not None:
        x0 /= s
    work = [np.empty(0)] * 3  # shared by the mass apply and the preconditioner
    apply = _mass_apply(A, 1, work)
    precond = _block_preconditioner(space, A.interface, A.coupling, work)
    y, iterations, cond = _pcg(apply, s * rhs, precond, x0)
    y *= s
    return y, iterations, cond
