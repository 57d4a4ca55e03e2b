"""The univariate B-spline space S^{p,r}_h on [0, 1] with uniform open knots,
and tensor-product splines on its square.

One frozen ``UnivariateSpace(p, r, n)`` is both the configuration of a
geometry and the space of its patches in both parametric directions. It
provides basis/derivative evaluation, the derived edge spaces (degree p with
one order more smoothness, and degree p-1 with the same smoothness) and one
cached table of local dual functionals per univariate space (``local_duals``,
after de Boor & Fix, 1973), which reads every coefficient from samples on one
element. Exact representation from samples (``represent_exactly``; a
conversion, a knot insertion or a product with a linear polynomial is one
call on a sampler of the result) is that table applied to one sample of the
function, checked for reproduction. Tensor-product splines are
evaluated on tensor grids by sum factorization over per-direction basis
tables (``grid_jet``). Every value and derivative comes from one recurrence
(``UnivariateSpace.basis_ders``): the Cox–de Boor triangle, whose support
lengths also divide in the derivative rule. A basis table (``_basis_values``) is
made once per (space, points, derivative order) and returned read-only to
every later caller while it is among the last 8 MB of tables used, and so
is the unit-jet table through which every reader of an edge strip or a
corner block forms jets (``_unit_jets``, ``_strip_jets``).
"""

import math
import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .errors import DomainError, InvalidConfigError, NotInSpaceError

__all__ = [
    "UnivariateSpace",
    "TensorSpline",
    "derived_edge_spaces",
    "represent_exactly",
    "local_duals",
]


def _chebpts(n, m):
    """(n, m) array: m Chebyshev points of the first kind, ascending, on each
    element of the uniform n-element mesh of [0, 1]."""
    t = np.sort(_cheb.chebpts1(m))
    a, b = np.arange(n)[:, None] / n, np.arange(1, n + 1)[:, None] / n
    return a + (t + 1.0) * 0.5 * (b - a)


def _real(value, name):
    """``value`` as a float array; a complex one is an ``InvalidConfigError``
    naming it, not cut to its real part."""
    value = np.asarray(value)
    if np.iscomplexobj(value):
        raise InvalidConfigError(f"{name} is complex; the space is real")
    return value.astype(float, copy=False)


def _integer(value, name):
    """``value`` as an int (NumPy integers included); anything else is an
    ``InvalidConfigError`` naming the parameter."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidConfigError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True, repr=False)
class UnivariateSpace:
    """B-spline space of degree p and continuity C^r on a uniform mesh of [0, 1].

    ``p`` is the polynomial degree, ``r`` the interior continuity order and
    ``n`` the number of (uniform) elements, so the mesh size is ``h = 1/n``.
    The open knot vector has boundary multiplicity p+1 and interior
    multiplicity p-r, giving dimension N = (p-r)(n-1) + p + 1. Equal (p, r, n)
    give equal spaces, which share every cached table.
    """

    p: int
    r: int
    n: int

    def __post_init__(self):
        for name in ("p", "r", "n"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
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

    def __repr__(self):
        return f"UnivariateSpace(p={self.p}, r={self.r}, n={self.n}, N={self.N})"

    @property
    def h(self):
        return 1.0 / self.n

    @cached_property
    def N(self):
        return (self.p - self.r) * (self.n - 1) + self.p + 1

    @cached_property
    def knots(self):
        p, n = self.p, self.n
        interior = np.repeat(np.arange(1, n) / n, p - self.r)
        return np.concatenate([np.zeros(p + 1), interior, np.ones(p + 1)])

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
            raise InvalidConfigError(f"basis index {j} out of range for N={self.N}")
        if self.n == 1:
            return 0, 0
        mult = self.p - self.r
        e0 = max(0, -(-(j - self.p) // mult))
        e1 = min(self.n - 1, j // mult)
        return e0, e1

    def basis_ders(self, xs, nderiv):
        """First active indices (m,) and derivatives ders (m, nderiv+1, p+1) of
        the active basis functions at points xs in [0, 1]: ``ders[q, k, i]``
        is the k-th derivative of function ``first[q] + i`` at ``xs[q]``, 0
        for k > p. Breakpoints take the right limit, and 1 the left limit.

        The values are the Cox–de Boor triangle in the left/right form (Cox
        1972, de Boor 1972). Its support lengths t_{i+q} - t_i also divide in
        the derivative rule d/dx B_{i,q} = q (B_{i,q-1} / (t_{i+q} - t_i) -
        B_{i+1,q-1} / (t_{i+q+1} - t_{i+1})). k steps of it, with their
        factors q taken together as p!/(p-k)!, take the degree p-k values to
        the k-th derivatives (de Boor, *A Practical Guide to Splines*).
        """
        nderiv = _integer(nderiv, "derivative order")
        if nderiv < 0:
            raise InvalidConfigError(f"derivative order must be an integer >= 0, got {nderiv}")
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        inside = (xs >= -1e-14) & (xs <= 1.0 + 1e-14)
        if not inside.all():
            raise DomainError(f"points outside [0, 1]: {xs[~inside][:4]}")
        xs = np.clip(xs, 0.0, 1.0)
        p, m = self.p, len(xs)
        span = p + self.element_of(xs) * (p - self.r)
        k = np.arange(1, p + 1)[:, None]
        left = xs - self.knots[span + 1 - k]  # left[k-1] = x - t[span+1-k]
        right = self.knots[span + k] - xs  # right[k-1] = t[span+k] - x
        # vals[q] (q+1, m): degree-q values; gaps[q] (q, m): supports of degree q-1
        vals, gaps = [np.ones((1, m))], [None]
        for q in range(1, p + 1):
            gaps.append(right[:q] + left[q - 1 :: -1])
            temp = vals[-1] / gaps[q]
            v = np.zeros((q + 1, m))
            v[:q] = right[:q] * temp
            v[1:] += left[q - 1 :: -1] * temp
            vals.append(v)
        ders = np.zeros((m, nderiv + 1, p + 1))
        ders[:, 0] = vals[p].T
        for k in range(1, min(nderiv, p) + 1):
            d = vals[p - k]
            for q in range(p - k + 1, p + 1):
                u = (1.0 / gaps[q]) * d
                d = np.zeros((q + 1, m))
                d[1:] = u
                d[:q] -= u
            ders[:, k] = math.perm(p, k) * d.T
        return span - p, ders


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


class _TableCache:
    """The most recent basis tables, up to ``limit`` bytes in all, keyed by
    (space, derivative order, point bytes); safe to share between threads."""

    def __init__(self, limit):
        self.limit = limit
        self.nbytes = 0
        self._tables = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            table = self._tables.get(key)
            if table is not None:
                self._tables.move_to_end(key)
            return table

    def put(self, key, table):
        with self._lock:
            if key not in self._tables:
                self._tables[key] = table
                self.nbytes += table.nbytes
            while self.nbytes > self.limit:
                self.nbytes -= self._tables.popitem(last=False)[1].nbytes


_TABLES = _TableCache(8 << 20)


def _basis_values(space, pts, d=0):
    """(m, N) values of the d-th derivatives of all basis functions at pts.

    The table is read-only: an equal (space, points, d) gets the same array
    back while it is among the last 8 MB of tables used.
    """
    pts = np.atleast_1d(np.asarray(pts, dtype=float))
    key = (space, d, pts.tobytes())
    out = _TABLES.get(key)
    if out is None:
        first, ders = space.basis_ders(pts, d)
        out = np.zeros((len(pts), space.N))
        cols = first[:, None] + np.arange(space.p + 1)[None, :]
        np.put_along_axis(out, cols, ders[:, d, :], axis=1)
        out.setflags(write=False)
        _TABLES.put(key, out)
    return out


class _UnitJets(NamedTuple):
    """Jets (b, d, d, m), d = order + 1, of the b unit coefficients active at
    m points (0, x2) on the d layers next to the side {xi1 = 0}, and their
    positions (b, m) in the layers, flattened: unit (i, j) has jets
    B_i^(a)(0) B_j^(c)(x2), 0 for a + c > order. Units whose jets vanish at
    every point are left out, so x2 = 0 reads the d x d corner block."""

    jets: np.ndarray
    pos: np.ndarray
    nbytes = property(lambda self: self.jets.nbytes + self.pos.nbytes)


def _unit_jets(space, points, order):
    """The ``_UnitJets`` at the points along a side, from one ``basis_ders``
    call, read-only and cached like ``_basis_values``."""
    points = np.atleast_1d(np.asarray(points, dtype=float))
    key = ("units", space, order, points.tobytes())
    table = _TABLES.get(key)
    if table is None:
        d = order + 1
        first, ders = space.basis_ders(np.r_[0.0, points], order)
        A, first, B = ders[0, :, :d].T, first[1:], ders[1:].T  # (i, a), (j, c, m)
        along = np.flatnonzero(B.any(axis=(1, 2)))
        low = np.add.outer(np.arange(d), np.arange(d)) <= order
        U = A[:, None, :, None, None] * B[along][None, :, None] * low[:, :, None]
        pos = np.arange(d)[:, None, None] * space.N + first + along[:, None]
        table = _UnitJets(U.reshape(-1, d, d, len(points)), pos.reshape(-1, len(points)))
        for a in table:
            a.setflags(write=False)
        _TABLES.put(key, table)
    return table


def _strip_jets(units, values):
    """Jets out[a, c] = sum_r units[r, a, c] values[r], (d, d, ...), of the
    coefficients ``values`` (b, ...) on the rows of unit jets ``units`` (b,
    d, d, ...). As the unit jets sum to those of 1, the terms, added one row
    at a time, take differences from row 0 and the value adds row 0 back, so
    derivatives round neither at the coefficients' size nor by other rows."""
    d = units.shape[1]
    out = np.zeros((d, d) + np.broadcast_shapes(units.shape[3:], values.shape[1:]))
    for r, a, c in zip(*np.nonzero(units.reshape(units.shape[:3] + (-1,)).any(-1))):
        if r:
            out[a, c] += units[r, a, c] * (values[r] - values[0])
    out[0, 0] += values[0]
    return out


#: relative size below which an exactly represented coefficient is rounding
#: noise of a zero, and relative misfit above which a function is no member
_NOISE = 1e-13
_EXACT_TOL = 1e-10


def _drop_noise(a):
    """a with entries |a| <= _NOISE * max(1, max|a|) set to 0: the rounding
    noise left where an exact coefficient is 0."""
    return np.where(np.abs(a) <= _NOISE * max(1.0, np.abs(a).max()), 0.0, a)


def represent_exactly(space, f):
    """Coefficients of a function known to lie in the space.

    Samples f once, at the dual points of ``local_duals`` and at p+2 further
    Chebyshev points per element, reads every coefficient through its local
    dual and drops rounding noise (``_drop_noise``). The spline must then
    reproduce f at the further points: a misfit above ``_EXACT_TOL``
    (relative), or a sample that is not finite, means f is not a member of
    the space and raises NotInSpaceError.

    ``f`` may return extra trailing axes (several functions at once); the
    result then carries the same trailing shape after the leading axis N.
    """
    duals = local_duals(space)
    check = _chebpts(space.n, space.p + 2).ravel()
    m = duals.points.size
    y = np.asarray(f(np.concatenate([duals.points.ravel(), check])), dtype=float)
    if not np.isfinite(y).all():
        raise NotInSpaceError(f"the function has non-finite samples; it is not in {space}")
    coeffs = _drop_noise(duals.apply(y[:m]))
    misfit = np.abs(np.tensordot(_basis_values(space, check), coeffs, 1) - y[m:]).max()
    if misfit > _EXACT_TOL * max(1.0, np.abs(coeffs).max()):
        raise NotInSpaceError(
            f"local dual representation misses the samples by {misfit:.3e} "
            f"(relative tolerance {_EXACT_TOL:.1e}); function is not in {space}"
        )
    return coeffs


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
        """Coefficients ``index`` (a slice, or a 1-D integer array of indices
        in 0..N-1) from samples at ``points.ravel()`` (axis 0)."""
        if len(samples) != self.points.size:
            raise InvalidConfigError(f"need {self.points.size} samples, got {len(samples)}")
        if not isinstance(index, slice):
            index = np.asarray(index)
            if index.ndim != 1 or index.dtype.kind not in "iu":
                raise InvalidConfigError("coefficient index must be a slice or a 1-D integer array")
            if index.size and not 0 <= index.min() <= index.max() < len(self.weights):
                raise InvalidConfigError(f"coefficient index not in 0..{len(self.weights) - 1}")
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


class TensorSpline:
    """Function on the square of a univariate space, stored by its (N, N)
    coefficient grid.

    The last axes of the coefficient array may carry vector components, e.g.
    an (N, N, 2) grid describes a planar map.
    """

    def __init__(self, space, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape[:2] != (space.N, space.N):
            raise InvalidConfigError(
                f"coefficient grid {coeffs.shape} does not match {space}"
            )
        self.space = space
        self.coeffs = coeffs

    def grid_jet(self, x1, x2, nderiv):
        """Partial derivatives up to the given order on the tensor grid
        x1 x x2, by sum factorization: ``D[q, a, b]`` = d^a/dxi1^a d^b/dxi2^b
        of the function at point q = q1 * len(x2) + q2 of the x1-major
        flattened grid, shape (len(x1) * len(x2), nderiv+1, nderiv+1, ...),
        with the one-sided limits of ``basis_ders`` at breakpoints. Each
        derivative pair (a, b) is the product ``A_a @ coeffs @ B_b^T`` of
        dense per-direction collocation tables (Antolin, Buffa, Calabro,
        Martinelli & Sangalli, CMAME 2015), so the basis is evaluated
        len(x1) + len(x2) times instead of len(x1) * len(x2) times. The
        shorter direction is contracted first: the error integral reads a
        member on blocks of a few rows, and contracts each only once.
        """
        x1 = np.atleast_1d(np.asarray(x1, dtype=float))
        x2 = np.atleast_1d(np.asarray(x2, dtype=float))
        if len(x1) < len(x2):  # contract the shorter direction first
            out = TensorSpline(self.space, self.coeffs.swapaxes(0, 1)).grid_jet(x2, x1, nderiv)
            out = out.reshape((len(x2), len(x1)) + out.shape[1:]).swapaxes(0, 1).swapaxes(2, 3)
            return out.reshape((len(x1) * len(x2),) + out.shape[2:])
        top = _basis_values(self.space, x2, nderiv)  # basis_ders checks the order
        B = np.stack([_basis_values(self.space, x2, b) for b in range(nderiv)] + [top])
        # CB[i, q2, b, ...] = sum_j coeffs[i, j, ...] B_b[q2, j]
        CB = np.tensordot(self.coeffs, B, axes=([1], [2]))
        CB = np.ascontiguousarray(np.moveaxis(CB, (-1, -2), (1, 2)))
        out = np.empty((len(x1),) + CB.shape[1:2] + (nderiv + 1,) + CB.shape[2:])
        for a in range(nderiv + 1):
            out[:, :, a] = np.tensordot(_basis_values(self.space, x1, a), CB, axes=1)
        return out.reshape((len(x1) * len(x2),) + out.shape[2:])
