"""Gluing data along interfaces.

For a pair of patches in standard form, F1(0, t) = F2(t, 0), the geometric
compatibility functions solve

    alpha1(t) d2F2(t, 0) + alpha2(t) d1F1(0, t) + beta(t) d2F1(0, t) = 0.

Read in the frame (d1F1, d2F1), this is alpha2*d1 - alpha1*d2 = 0 and
alpha1*d12 - beta*d1 = 0 in three determinants of edge derivatives. An
interface is analysis-suitable G1 when both hold with linear alphas and a
quadratic beta = alpha1*beta2 + alpha2*beta1 with linear beta1, beta2. The
fit samples both equations at fixed edge nodes as one homogeneous
least-squares system and decides on its relative smallest singular value,
which no linear map of the plane changes (each row scales by its det),
against the fixed ``ASG1_TOL``: the space exists on exact AS-G1 interfaces
alone (Collin, Sangalli & Takacs, CAGD 2016), where it is at rounding level,
and a looser bound would build a space that is not C1. The
same samples certify that d1 and d2 are positive on the whole edge: per
element they determine the Bernstein coefficients of the determinant, which
bound it (Xu, Mourrain, Duvigneau & Galligo, CMAME 2011); the edge
derivatives come from the two layers of each net next to the edge alone
(``bspline._strip_jets``). It returns
stabilized data (alphas close to one, betas of minimal norm). Each
interface is fitted once, and its GluingData is all a space keeps of the
edge; ``GluingData.reversed`` gives the same data seen with the two patches
swapped, as the vertex functions read it on either side.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as _poly

from .bspline import _chebpts, _strip_jets, _unit_jets
from .errors import ConformityError, DegenerateGluingError, NotASG1Error
from .multipatch import CONFORMITY_TOL, _edge_gap

__all__ = [
    "GluingData",
    "fit_asg1",
    "boundary_gluing",
]

#: the relative smallest singular value below which an interface is AS-G1
ASG1_TOL = 1e-9
_SNAP = 1e-11
#: halvings of an element the edge-determinant certificate may take
_MAX_HALVINGS = 12
#: L2(0, 1) Gram matrix of the coefficients (c0, c1, d0, d1) of two linear
#: polynomials c0 + c1 x and d0 + d1 x
_GRAM = np.kron(np.eye(2), [[1.0, 0.5], [0.5, 1.0 / 3.0]])


def _pv(coeffs, x):
    return _poly.polyval(np.asarray(x, dtype=float), coeffs)


@dataclass
class GluingData:
    """Linear gluing data for one interface (monomial coefficients).

    ``alpha2``/``beta2`` are None for boundary edges, which carry the trivial
    data alpha1 = 1, beta1 = 0. ``residual`` is the relative smallest
    singular value of the fit, the number compared with the tolerance.
    """

    alpha1: np.ndarray
    beta1: np.ndarray
    alpha2: np.ndarray | None
    beta2: np.ndarray | None
    beta: np.ndarray
    residual: float
    asg1: bool

    def reversed(self):
        """Data of the same interface with patch roles swapped.

        If F1(0, t) = F2(t, 0), the swapped pair (F2, F1) is in standard form
        with edge parameter s = 1 - t after reorienting both patches; with
        p~(s) = p(1 - s), its data are alpha1' = alpha2~, alpha2' = alpha1~,
        beta1' = -beta2~, beta2' = -beta1~ and beta' = -beta~.
        """
        return GluingData(
            alpha1=_reflect(self.alpha2),
            beta1=-_reflect(self.beta2),
            alpha2=_reflect(self.alpha1),
            beta2=-_reflect(self.beta1),
            beta=-_reflect(self.beta),
            residual=self.residual,
            asg1=self.asg1,
        )


def _reflect(c):
    """Monomial coefficients of s -> c(1 - s), for c of degree at most 2."""
    c0, c1, c2 = (*c, 0.0)[:3]
    return np.array([c2 + c1 + c0, -(c1 + 2.0 * c2), c2])[: len(c)]


def _edge_determinants(F1, F2, xs):
    """(d1, d2, d12) along the edge of a standard-form patch pair: d1(t) =
    det[d1F1, d2F1](0, t), d2(t) = det[d1F2, d2F2](t, 0) and d12(t) =
    det[d2F2(t, 0), d1F1(0, t)], from F1.net[:2] and F2.net[:, :2]."""
    gap = _edge_gap(F1, F2)
    if gap > CONFORMITY_TOL:
        raise ConformityError(
            f"patch pair is not in standard form: edge mismatch {gap:.3e}"
        )
    T = _unit_jets(F1.space, xs, 1)
    j1, j2 = (_strip_jets(T.jets[..., None], layers.reshape(-1, 2)[T.pos])
              for layers in (F1.net[:2], F2.net[:, :2].swapaxes(0, 1)))

    def det(a, b):
        return a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]

    F1u, F1v, F2u, F2v = j1[1, 0], j1[0, 1], j2[0, 1], j2[1, 0]
    return det(F1u, F1v), det(F2u, F2v), det(F2v, F1u)


def _fit_sample_points(p, n):
    # 2(2p+3) Chebyshev points per element oversample the degree 2p dets
    return _chebpts(n, 2 * (2 * p + 3)).ravel()


@lru_cache(maxsize=None)
def _bernstein_fit(p):
    """The (2p+1, 2(2p+3)) matrix that takes the samples of a polynomial of
    degree at most 2p at one element's ``_fit_sample_points`` to its
    Bernstein coefficients on that element (read-only)."""
    t = _chebpts(1, 2 * (2 * p + 3)).ravel()[:, None]
    k = np.arange(2 * p + 1)
    binom = np.array([math.comb(2 * p, j) for j in k], dtype=float)
    B = np.linalg.pinv(binom * t**k * (1.0 - t) ** (2 * p - k))
    B.setflags(write=False)
    return B


def _halves(c):
    """Bernstein coefficients (2k, d+1) of the left halves, then the right
    halves, of k polynomials with coefficients c (k, d+1) (de Casteljau)."""
    left, right = [c[:, 0]], [c[:, -1]]
    while c.shape[1] > 1:
        c = 0.5 * (c[:, :-1] + c[:, 1:])
        left.append(c[:, 0])
        right.append(c[:, -1])
    return np.concatenate([np.stack(left, axis=1), np.stack(right[::-1], axis=1)])


def _certify_positive(D, p, name):
    """Prove the edge determinant ``name`` positive on the whole edge from
    its samples D at ``_fit_sample_points(p, n)``; returns the halvings the
    proof took.

    Per element the samples determine the determinant, a polynomial of
    degree at most 2p, and ``_bernstein_fit`` gives its Bernstein
    coefficients, whose minimum bounds it from below. An element with all
    coefficients positive is certified; the others are halved by de
    Casteljau, whose end coefficients are values of the polynomial, up to
    ``_MAX_HALVINGS`` times. A sample or value <= 0 proves a fold; an
    element still undecided at the last depth is refused. NaN is never
    certified.
    """
    if not np.all(D > 0.0):
        raise ConformityError("edge determinants are not positive; geometry is singular")
    c = D.reshape(-1, 2 * (2 * p + 3)) @ _bernstein_fit(p).T
    elem = np.arange(len(c))
    for depth in range(_MAX_HALVINGS + 1):
        undecided = ~np.all(c > 0.0, axis=1)
        c, elem = c[undecided], elem[undecided]
        if not len(c):
            return depth
        ends = np.all(c[:, [0, -1]] > 0.0, axis=1)
        if not ends.all():
            raise ConformityError(
                f"edge determinant {name} is not positive on element {elem[~ends][0]}; "
                "geometry is singular"
            )
        if depth < _MAX_HALVINGS:
            c, elem = _halves(c), np.tile(elem, 2)
    raise ConformityError(
        f"edge determinant {name} is not certified positive on element {elem[0]} "
        f"of {len(D) // (2 * (2 * p + 3))} after {_MAX_HALVINGS} halvings"
    )


def _split_beta(a1, a2, beta):
    """Linear (beta1, beta2) with a1*beta2 + a2*beta1 = beta, minimal L2 norm.

    The 3x4 coefficient system is underdetermined; when alpha1 and alpha2
    share a root it also loses rank, and a linear split exists only if beta
    stays consistent with it (otherwise the interface violates the
    relative-primality assumption and we refuse it). With _GRAM = R^T R the
    minimum L2(0, 1) norm solution v is R^-1 times the minimum Euclidean norm
    solution w of (C R^-1) w = beta.
    """
    # constraint matrix on (b1_0, b1_1, b2_0, b2_1), rows = monomial coefficients
    C = np.array(
        [
            [a2[0], 0.0, a1[0], 0.0],
            [a2[1], a2[0], a1[1], a1[0]],
            [0.0, a2[1], 0.0, a1[1]],
        ]
    )
    b = np.zeros(3)
    b[: len(beta)] = beta
    L = np.linalg.cholesky(_GRAM)
    w = np.linalg.lstsq(np.linalg.solve(L, C.T).T, b, rcond=1e-12)[0]
    v = np.linalg.solve(L.T, w)
    if np.abs(C @ v - b).max() > 1e-10 * max(1.0, np.abs(b).max()):
        raise DegenerateGluingError(
            "no linear beta split exists: alpha1 and alpha2 share a root"
        )
    return v[:2], v[2:]


def fit_asg1(F1, F2, strict=True):
    """Decide AS-G1 and produce normalized linear gluing data.

    The edge determinants d1 and d2 are first certified positive on the
    whole edge from the fit's own samples (``_certify_positive``): a sample
    <= 0, NaN included, or an element the certificate cannot decide raises
    ConformityError. So positivity holds on the whole edge, not only at the
    samples, and the data serve every refinement of the same map. The
    linear alphas and the quadratic beta are the null vector of one
    7-column least-squares matrix, two rows per edge sample:
    alpha2*d1 - alpha1*d2 = 0 and alpha1*d12 - beta*d1 = 0. The interface is
    accepted when the relative smallest singular value is below the fixed
    ``ASG1_TOL`` (why it is fixed: the module docstring).
    Accepted data is rescaled so the alphas are closest to one in L2, and
    the beta split takes the minimum-norm solution.

    With ``strict`` (default), rejection raises NotASG1Error; otherwise the
    best-effort data is returned with ``asg1 = False``.
    """
    xs = _fit_sample_points(F1.space.p, F1.space.n)
    D1, D2, D12 = _edge_determinants(F1, F2, xs)
    for D, name in ((D1, "d1"), (D2, "d2")):
        _certify_positive(D, F1.space.p, name)

    # columns: monomial coefficients of alpha1 (2), alpha2 (2) and beta (3)
    mono, z = np.vander(xs, 3, increasing=True), np.zeros((len(xs), 3))
    A = np.block([[-D2[:, None] * mono[:, :2], D1[:, None] * mono[:, :2], z],
                  [D12[:, None] * mono[:, :2], z[:, :2], -D1[:, None] * mono]])
    _, svals, Vt = np.linalg.svd(A, full_matrices=False)
    residual = float(svals[-1] / svals[0])
    nullity = int(np.sum(svals < ASG1_TOL * svals[0]))
    accepted = nullity >= 1
    if not accepted and strict:
        raise NotASG1Error(
            f"interface is not analysis-suitable G1: relative fit residual "
            f"{residual:.3e} >= {ASG1_TOL:.1e}",
            residual=residual,
        )

    # straight interfaces leave a null space of dimension > 1; pick the
    # representative minimizing ||alpha1 - 1||^2 + ||alpha2 - 1||^2 in L2(0,1)
    V = Vt[-max(nullity, 1):]
    Va = V[:, :4]
    ell = np.array([1.0, 0.5, 1.0, 0.5])
    v = V.T @ np.linalg.solve(Va @ _GRAM @ Va.T, Va @ ell)
    a1, a2, beta = v[:2], v[2:4], v[4:]
    if accepted:
        for a in (a1, a2):
            if _pv(a, 0.0) <= 0.0 or _pv(a, 1.0) <= 0.0:
                raise ConformityError(
                    "gluing sign condition alpha1*alpha2 > 0 cannot be met"
                )

    b1 = np.zeros(2)
    b2 = np.zeros(2)
    snap = _SNAP * max(1.0, np.abs(_pv(a1, xs)).max(), np.abs(_pv(a2, xs)).max())
    if np.abs(_pv(beta, xs)).max() <= snap:
        beta = np.zeros(3)
        one = np.array([1.0, 0.0])
        if np.abs(a1 - one).max() <= _SNAP and np.abs(a2 - one).max() <= _SNAP:
            a1, a2 = one.copy(), one.copy()
    elif accepted:
        b1, b2 = _split_beta(a1, a2, beta)
    # a rejected interface reports the alphas and the unsplit quadratic only
    return GluingData(
        alpha1=a1,
        beta1=b1,
        alpha2=a2,
        beta2=b2,
        beta=beta,
        residual=residual,
        asg1=accepted,
    )


def boundary_gluing():
    """Trivial gluing data for a boundary edge in standard form."""
    return GluingData(
        alpha1=np.array([1.0, 0.0]),
        beta1=np.zeros(2),
        alpha2=None,
        beta2=None,
        beta=np.zeros(3),
        residual=0.0,
        asg1=True,
    )


def _transversal_from_jet(alpha1, beta1, jet, xs):
    """Transversal direction d(t) along the edge of patch 1, and its
    derivative, from the order-2 jets of patch 1 at (0, xs):
    d(t) = (d1F1(0, t) + beta1(t) d2F1(0, t)) / alpha1(t), and d'(t) the
    analytic derivative of that quotient. The linear alpha1, beta1 are one
    pair of monomial coefficients (2,), or one pair per point (m, 2)."""
    F1u, F1v = jet[:, 1, 0, :], jet[:, 0, 1, :]
    F1uv, F1vv = jet[:, 1, 1, :], jet[:, 0, 2, :]
    a1 = (alpha1[..., 0] + alpha1[..., 1] * xs)[:, None]
    b1 = (beta1[..., 0] + beta1[..., 1] * xs)[:, None]
    d = (F1u + b1 * F1v) / a1
    dnum = F1uv + beta1[..., 1, None] * F1v + b1 * F1vv
    dp = (dnum - alpha1[..., 1, None] * d) / a1
    return d, dp
