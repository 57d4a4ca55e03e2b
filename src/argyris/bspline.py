"""Univariate and tensor-product B-spline spaces on [0, 1] with uniform open knots.

Provides basis/derivative evaluation, the derived edge spaces (degree p with
one order more smoothness, and degree p-1 with the same smoothness) and one
cached table of local dual functionals per univariate space (``local_duals``,
after de Boor & Fix, 1973), which reads every coefficient from samples on one
element. Exact representation from samples, and with it conversions, knot
insertion and products with linear polynomials, is that table applied to one
sample of the function, checked for reproduction. Tensor-product splines are
evaluated at scattered points (``jet``) or, by sum factorization over
per-direction basis tables, on tensor grids (``grid_jet``).
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.sparse
from numpy.polynomial import chebyshev as _cheb

from .errors import DomainError, InvalidConfigError, NotInSpaceError

__all__ = [
    "SpaceConfig",
    "UnivariateSpace",
    "Spline",
    "TensorSpace",
    "TensorSpline",
    "derived_edge_spaces",
    "multiply_by_linear",
    "represent_exactly",
    "convert",
    "dual_functional",
    "local_duals",
]


@dataclass(frozen=True)
class SpaceConfig:
    """Degree, smoothness and mesh resolution of a spline space on [0, 1].

    ``p`` is the polynomial degree, ``r`` the interior continuity order and
    ``n`` the number of (uniform) elements, so the mesh size is ``h = 1/n``.
    """

    p: int
    r: int
    n: int

    def __post_init__(self):
        if self.p < 1:
            raise InvalidConfigError(f"degree must be >= 1, got p={self.p}")
        if self.n < 1:
            raise InvalidConfigError(f"need at least one element, got n={self.n}")
        if self.r < -1:
            raise InvalidConfigError(f"continuity must be >= -1, got r={self.r}")
        if self.r > self.p - 1 and self.n > 1:
            raise InvalidConfigError(
                f"continuity r={self.r} too high for degree p={self.p}"
            )

    @property
    def h(self):
        return 1.0 / self.n

    def check_argyris(self):
        """Enforce the extra constraints needed by the smooth-space build.

        Inside patches the splines must be at least C^1 with r <= p-2, and
        the mesh must resolve the interface index sets, h <= (p-r-1)/(4-r).
        """
        if self.r < 1:
            raise InvalidConfigError("patch splines must be at least C^1 (r >= 1)")
        if self.r > self.p - 2:
            raise InvalidConfigError(
                f"need r <= p-2 for the smooth-space build, got p={self.p}, r={self.r}"
            )
        if self.n * (self.p - self.r - 1) < 4 - self.r:
            raise InvalidConfigError(
                f"mesh too coarse: need n >= {(4 - self.r) / (self.p - self.r - 1):.3g} "
                f"elements per direction, got n={self.n}"
            )


def _chebpts(n, m):
    """(n, m) array: m Chebyshev points of the first kind, ascending, on each
    element of the uniform n-element mesh of [0, 1]."""
    t = np.sort(_cheb.chebpts1(m))
    a, b = np.arange(n)[:, None] / n, np.arange(1, n + 1)[:, None] / n
    return a + (t + 1.0) * 0.5 * (b - a)


class UnivariateSpace:
    """B-spline space of degree p and continuity C^r on a uniform mesh of [0, 1].

    The open knot vector has boundary multiplicity p+1 and interior
    multiplicity p-r, giving dimension N = (p-r)(n-1) + p + 1.
    """

    def __init__(self, p, r, n):
        self.config = SpaceConfig(p, r, n)
        self.p = p
        self.r = r
        self.n = n
        self.h = 1.0 / n
        mult = p - r
        interior = np.repeat(np.arange(1, n) / n, mult)
        self.knots = np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)])
        self.N = (p - r) * (n - 1) + p + 1
        assert self.N == len(self.knots) - p - 1
        self.breakpoints = np.arange(n + 1) / n

    def __repr__(self):
        return f"UnivariateSpace(p={self.p}, r={self.r}, n={self.n}, N={self.N})"

    def __eq__(self, other):
        return (
            isinstance(other, UnivariateSpace)
            and (self.p, self.r, self.n) == (other.p, other.r, other.n)
        )

    def __hash__(self):
        return hash(("UnivariateSpace", self.p, self.r, self.n))

    def element_of(self, x):
        """Element index containing x; right-continuous except at x = 1."""
        e = np.minimum((np.asarray(x) * self.n).astype(int), self.n - 1)
        return e

    def greville(self):
        """Knot averages; linear functions equal their coefficients there."""
        k = self.knots
        return np.array([k[j + 1 : j + self.p + 1].mean() for j in range(self.N)])

    def basis_element_range(self, j):
        """Inclusive range (e0, e1) of elements where basis function j is active."""
        if not 0 <= j < self.N:
            raise IndexError(f"basis index {j} out of range for N={self.N}")
        if self.n == 1:
            return 0, 0
        mult = self.p - self.r
        e0 = max(0, -(-(j - self.p) // mult))
        e1 = min(self.n - 1, j // mult)
        return e0, e1

    def basis_ders(self, xs, nderiv):
        """Evaluate all active basis functions and derivatives at points xs.

        Parameters
        ----------
        xs : array_like
            Evaluation points in [0, 1].
        nderiv : int
            Highest derivative order requested.

        Returns
        -------
        first : (m,) int array
            Index of the first active basis function at each point.
        ders : (m, nderiv+1, p+1) array
            ``ders[q, k, i]`` is the k-th derivative of basis function
            ``first[q] + i`` at ``xs[q]``. At breakpoints the right limit is
            used, except at 1 where the left limit is used.
        """
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if np.any(xs < -1e-14) or np.any(xs > 1.0 + 1e-14):
            raise DomainError(f"points outside [0, 1]: {xs.min()}..{xs.max()}")
        xs = np.clip(xs, 0.0, 1.0)
        p = self.p
        m = len(xs)
        elem = self.element_of(xs)
        span = p + elem * (p - self.r)
        first = span - p
        knots = self.knots

        nd = min(nderiv, p)
        ndu = np.empty((m, p + 1, p + 1))
        ndu[:, 0, 0] = 1.0
        left = np.empty((m, p + 1))
        right = np.empty((m, p + 1))
        for j in range(1, p + 1):
            left[:, j] = xs - knots[span + 1 - j]
            right[:, j] = knots[span + j] - xs
            saved = np.zeros(m)
            for rr in range(j):
                ndu[:, j, rr] = right[:, rr + 1] + left[:, j - rr]
                temp = ndu[:, rr, j - 1] / ndu[:, j, rr]
                ndu[:, rr, j] = saved + right[:, rr + 1] * temp
                saved = left[:, j - rr] * temp
            ndu[:, j, j] = saved

        ders = np.zeros((m, nderiv + 1, p + 1))
        ders[:, 0, :] = ndu[:, :, p]
        a = np.empty((m, 2, p + 1))
        for rr in range(p + 1):
            s1, s2 = 0, 1
            a[:, 0, :] = 0.0
            a[:, 0, 0] = 1.0
            for k in range(1, nd + 1):
                d = np.zeros(m)
                rk = rr - k
                pk = p - k
                if rr >= k:
                    a[:, s2, 0] = a[:, s1, 0] / ndu[:, pk + 1, rk]
                    d = a[:, s2, 0] * ndu[:, rk, pk]
                j1 = 1 if rk >= -1 else -rk
                j2 = k - 1 if rr - 1 <= pk else p - rr
                for j in range(j1, j2 + 1):
                    a[:, s2, j] = (a[:, s1, j] - a[:, s1, j - 1]) / ndu[:, pk + 1, rk + j]
                    d = d + a[:, s2, j] * ndu[:, rk + j, pk]
                if rr <= pk:
                    a[:, s2, k] = -a[:, s1, k - 1] / ndu[:, pk + 1, rr]
                    d = d + a[:, s2, k] * ndu[:, rr, pk]
                ders[:, k, rr] = d
                s1, s2 = s2, s1

        fac = float(p)
        for k in range(1, nd + 1):
            ders[:, k, :] *= fac
            fac *= p - k
        return first, ders

    def basis_function(self, j):
        """Basis function j as a Spline (unit coefficient vector)."""
        c = np.zeros(self.N)
        c[j] = 1.0
        return Spline(self, c)

    def spline(self, coeffs):
        return Spline(self, coeffs)


class Spline:
    """A spline in a UnivariateSpace, stored by its coefficient vector."""

    def __init__(self, space, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (space.N,):
            raise InvalidConfigError(
                f"coefficient vector has length {coeffs.shape}, expected {space.N}"
            )
        self.space = space
        self.coeffs = coeffs

    def __call__(self, xs, deriv=0):
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        first, ders = self.space.basis_ders(xs, deriv)
        idx = first[:, None] + np.arange(self.space.p + 1)[None, :]
        out = np.einsum("mi,mi->m", ders[:, deriv, :], self.coeffs[idx])
        return out

def derived_edge_spaces(space):
    """Edge-trace and edge-derivative spaces attached to a spline space.

    Returns the pair (S_plus, S_minus): S_plus has the same degree and one
    order more interior smoothness, S_minus has degree lowered by one and the
    same smoothness. Both share the breakpoints of the input, and
    dim S_minus = dim S_plus - 1.
    """
    p, r, n = space.p, space.r, space.n
    if r + 1 > p - 1 and n > 1:
        raise InvalidConfigError(
            f"no proper trace space for p={p}, r={r}: need r+1 <= p-1"
        )
    splus = UnivariateSpace(p, min(r + 1, p - 1) if n == 1 else r + 1, n)
    sminus = UnivariateSpace(p - 1, min(r, p - 2) if n == 1 else r, n)
    return splus, sminus


def _basis_values(space, pts, d=0):
    """(m, N) values of the d-th derivatives of all basis functions at pts."""
    first, ders = space.basis_ders(pts, d)
    out = np.zeros((len(pts), space.N))
    cols = first[:, None] + np.arange(space.p + 1)[None, :]
    np.put_along_axis(out, cols, ders[:, d, :], axis=1)
    return out


def _drop_noise(a, rel=1e-13):
    """a with entries |a| <= rel * max(1, max|a|) set to 0: the rounding
    noise left where an exact coefficient is 0."""
    return np.where(np.abs(a) <= rel * max(1.0, np.abs(a).max()), 0.0, a)


def represent_exactly(space, f, tol=1e-10):
    """Coefficients of a function known to lie in the space.

    Samples f once, at the dual points of ``local_duals`` and at p+2 further
    Chebyshev points per element, reads every coefficient through its local
    dual and drops rounding noise (``_drop_noise``). The spline must then
    reproduce f at the further points: a misfit above ``tol`` (relative)
    means f is not a member of the space and raises NotInSpaceError.

    ``f`` may return extra trailing axes (several functions at once); the
    result then carries the same trailing shape after the leading axis N.
    """
    duals = local_duals(space)
    check = _chebpts(space.n, space.p + 2).ravel()
    m = duals.points.size
    y = np.asarray(f(np.concatenate([duals.points.ravel(), check])), dtype=float)
    coeffs = _drop_noise(duals.apply(y[:m]))
    misfit = np.abs(np.tensordot(_basis_values(space, check), coeffs, 1) - y[m:]).max()
    if misfit > tol * max(1.0, np.abs(coeffs).max()):
        raise NotInSpaceError(
            f"local dual representation misses the samples by {misfit:.3e} "
            f"(relative tolerance {tol:.1e}); function is not in {space}"
        )
    return coeffs


def convert(spline, target_space, tol=1e-10):
    """Re-express a spline exactly in a richer space with the same breakpoints."""
    return Spline(target_space, represent_exactly(target_space, spline, tol=tol))


def multiply_by_linear(spline, a, b, tol=1e-10):
    """Exact product of a spline with the linear polynomial a + b*x.

    The result lies in the space of one degree higher and the same interior
    continuity, sharing the breakpoints of the input.
    """
    sp = spline.space
    r = sp.r if sp.n > 1 else sp.p  # single element: any r gives polynomials
    target = UnivariateSpace(sp.p + 1, min(r, sp.p), sp.n)
    return Spline(
        target,
        represent_exactly(target, lambda x: (a + b * x) * spline(x), tol=tol),
    )


class LocalDuals(NamedTuple):
    """Read-only table of the local interpolation duals of a space: the
    Chebyshev points (n, p+1) of every element, the middle element (N,) of
    each basis function's support and the weights (N, p+1) on it, so that
    ``weights[j] @ s(points[element[j]])`` is coefficient j of a spline s.
    """

    points: np.ndarray
    element: np.ndarray
    weights: np.ndarray

    def apply(self, samples, index=slice(None)):
        """Coefficients ``index`` from samples at ``points.ravel()`` (axis 0)."""
        local = samples.reshape(self.points.shape + samples.shape[1:])[self.element[index]]
        return np.einsum("jq,jq...->j...", self.weights[index], local)


@lru_cache(maxsize=64)
def local_duals(space):
    """The ``LocalDuals`` of a space, from one basis evaluation at all element
    points and one batched inverse of the (p+1) x (p+1) collocation matrices."""
    p = space.p
    points = _chebpts(space.n, p + 1)
    first, ders = space.basis_ders(points.ravel(), 0)
    inv = np.linalg.inv(ders[:, 0].reshape(space.n, p + 1, p + 1))
    element = np.array([sum(space.basis_element_range(j)) // 2 for j in range(space.N)])
    weights = inv[element, np.arange(space.N) - first[:: p + 1][element]]
    for a in (points, element, weights):
        a.setflags(write=False)
    return LocalDuals(points, element, weights)


def dual_functional(space, j, f):
    """Apply the local dual functional of basis j to a function sampler."""
    if not 0 <= j < space.N:
        raise IndexError(f"basis index {j} out of range for N={space.N}")
    duals = local_duals(space)
    pts = duals.points[duals.element[j]]
    return float(duals.weights[j] @ np.asarray(f(pts), dtype=float))


class TensorSpace:
    """Tensor product of two univariate spaces (equal factors in this work)."""

    def __init__(self, s1, s2=None):
        self.s1 = s1
        self.s2 = s1 if s2 is None else s2
        self.shape = (self.s1.N, self.s2.N)

    def __eq__(self, other):
        return (
            isinstance(other, TensorSpace)
            and self.s1 == other.s1
            and self.s2 == other.s2
        )

    def __hash__(self):
        return hash(("TensorSpace", self.s1, self.s2))

    def __repr__(self):
        return f"TensorSpace({self.s1}, {self.s2})"

    def spline(self, coeffs):
        return TensorSpline(self, coeffs)

    def jet_matrix(self, uv, nderiv):
        """Sparse map from flattened coefficient grids to jets at points.

        Returns an (m * (nderiv+1)**2, N1 * N2) matrix whose row
        (q, a, b), in C order, holds d^a/dxi1^a d^b/dxi2^b of every tensor
        basis function at uv[q]; column j1 * N2 + j2 is basis (j1, j2). So
        ``jet_matrix(uv, d) @ coeffs.reshape(N1 * N2, ...)`` reshaped to
        (m, d+1, d+1, ...) equals ``TensorSpline(space, coeffs).jet(uv, d)``.
        """
        uv = np.atleast_2d(np.asarray(uv, dtype=float))
        s1, s2 = self.s1, self.s2
        f1, d1 = s1.basis_ders(uv[:, 0], nderiv)
        f2, d2 = s2.basis_ders(uv[:, 1], nderiv)
        i1 = f1[:, None] + np.arange(s1.p + 1)[None, :]
        i2 = f2[:, None] + np.arange(s2.p + 1)[None, :]
        vals = np.einsum("mai,mbj->mabij", d1, d2)
        cols = i1[:, None, None, :, None] * s2.N + i2[:, None, None, None, :]
        cols = np.broadcast_to(cols, vals.shape)
        nrows = vals[..., 0, 0].size
        width = (s1.p + 1) * (s2.p + 1)  # active functions per point
        return scipy.sparse.csr_matrix(
            (vals.ravel(), cols.ravel(), np.arange(0, nrows * width + 1, width)),
            shape=(nrows, s1.N * s2.N),
        )


class TensorSpline:
    """Function in a TensorSpace with an (N1, N2) coefficient grid.

    The last axes of the coefficient array may carry vector components, e.g.
    an (N1, N2, 2) grid describes a planar map.
    """

    def __init__(self, space, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape[:2] != space.shape:
            raise InvalidConfigError(
                f"coefficient grid {coeffs.shape} does not match space {space.shape}"
            )
        self.space = space
        self.coeffs = coeffs

    def jet(self, uv, nderiv):
        """Partial derivatives up to the given order at parametric points.

        Parameters
        ----------
        uv : (m, 2) array
            Parametric evaluation points.
        nderiv : int
            Highest derivative order per direction.

        Returns
        -------
        (m, nderiv+1, nderiv+1, ...) array ``D`` with
        ``D[q, a, b]`` = d^a/dxi1^a d^b/dxi2^b of the function at uv[q].
        """
        uv = np.atleast_2d(np.asarray(uv, dtype=float))
        s1, s2 = self.space.s1, self.space.s2
        f1, d1 = s1.basis_ders(uv[:, 0], nderiv)
        f2, d2 = s2.basis_ders(uv[:, 1], nderiv)
        i1 = f1[:, None] + np.arange(s1.p + 1)[None, :]
        i2 = f2[:, None] + np.arange(s2.p + 1)[None, :]
        W = self.coeffs[i1[:, :, None], i2[:, None, :]]
        if self.coeffs.ndim == 2:
            return np.einsum("mai,mij,mbj->mab", d1, W, d2)
        return np.einsum("mai,mijc,mbj->mabc", d1, W, d2)

    def grid_jet(self, x1, x2, nderiv):
        """``jet`` on the tensor grid x1 x x2, by sum factorization.

        Equals ``jet(uv, nderiv)`` for the x1-major flattened grid
        ``uv[q1 * len(x2) + q2] = (x1[q1], x2[q2])``, with the same one-sided
        limits at breakpoints. Each derivative pair (a, b) is the product
        ``A_a @ coeffs @ B_b^T`` of dense per-direction collocation tables
        (Antolin, Buffa, Calabro, Martinelli & Sangalli, CMAME 2015), so the
        basis is evaluated len(x1) + len(x2) times instead of len(x1) *
        len(x2) times.
        """
        x1 = np.atleast_1d(np.asarray(x1, dtype=float))
        x2 = np.atleast_1d(np.asarray(x2, dtype=float))
        B = np.stack([_basis_values(self.space.s2, x2, b) for b in range(nderiv + 1)])
        # CB[i, q2, b, ...] = sum_j coeffs[i, j, ...] B_b[q2, j]
        CB = np.einsum("brj,ij...->irb...", B, self.coeffs, optimize=True)
        out = np.empty((len(x1),) + CB.shape[1:2] + (nderiv + 1,) + CB.shape[2:])
        for a in range(nderiv + 1):
            out[:, :, a] = np.tensordot(_basis_values(self.space.s1, x1, a), CB, axes=1)
        return out.reshape((len(x1) * len(x2),) + out.shape[2:])

    def __call__(self, uv):
        return self.jet(uv, 0)[:, 0, 0]
