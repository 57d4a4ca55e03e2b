"""Gluing data along interfaces.

For a pair of patches in standard form, F1(0, t) = F2(t, 0), the geometric
compatibility functions solving

    alpha1(t) d2F2(t, 0) + alpha2(t) d1F1(0, t) + beta(t) d2F1(0, t) = 0

are determined up to a common factor by three determinants of edge
derivatives. An interface is analysis-suitable G1 when alpha1, alpha2 and the
split beta = alpha1*beta2 + alpha2*beta1 can all be chosen as linear
polynomials; the fit below decides this from the determinants sampled at
fixed edge nodes and returns stabilized data (alphas close to one, betas of
minimal norm). Each interface is fitted once, and its GluingData is all a
space keeps of the edge; ``GluingData.reversed`` gives the same data seen
with the two patches swapped, as the vertex functions read it on either side.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as _poly

from .bspline import _chebpts
from .errors import ConformityError, DegenerateGluingError, NotASG1Error
from .multipatch import CONFORMITY_TOL, _edge_gap

__all__ = [
    "GluingData",
    "fit_asg1",
    "boundary_gluing",
]

DEFAULT_TOL = 1e-9
_SNAP = 1e-11
#: L2(0, 1) Gram matrix of the coefficients (c0, c1, d0, d1) of two linear
#: polynomials c0 + c1 x and d0 + d1 x
_GRAM = np.kron(np.eye(2), [[1.0, 0.5], [0.5, 1.0 / 3.0]])


def _pv(coeffs, x):
    return _poly.polyval(np.asarray(x, dtype=float), coeffs)


@dataclass
class GluingData:
    """Linear gluing data for one interface (monomial coefficients).

    ``alpha2``/``beta2`` are None for boundary edges, which carry the trivial
    data alpha1 = 1, beta1 = 0.
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


def _edge_jets(F1, F2, xs):
    """First derivatives of a standard-form patch pair along the edge."""
    gap = _edge_gap(F1, F2)
    if gap > CONFORMITY_TOL:
        raise ConformityError(
            f"patch pair is not in standard form: edge mismatch {gap:.3e}"
        )
    j1 = F1.grid_jet([0.0], xs, 1)
    j2 = F2.grid_jet(xs, [0.0], 1)
    return {
        "F1u": j1[:, 1, 0, :],
        "F1v": j1[:, 0, 1, :],
        "F2u": j2[:, 1, 0, :],
        "F2v": j2[:, 0, 1, :],
    }


def _determinants(j):
    """(d1, d2, d12) with d1(t) = det[d1F1, d2F1](0, t), d2(t) = det[d1F2,
    d2F2](t, 0) and d12(t) = det[d2F2(t, 0), d1F1(0, t)], from ``_edge_jets``."""

    def det(a, b):
        return a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]

    return det(j["F1u"], j["F1v"]), det(j["F2u"], j["F2v"]), det(j["F2v"], j["F1u"])


def _fit_sample_points(p, n):
    # 2(2p+3) Chebyshev points per element oversample the degree 2p dets
    return _chebpts(n, 2 * (2 * p + 3)).ravel()


def _g1_defect(j, a1, a2, beta, xs):
    res = (
        _pv(a1, xs)[:, None] * j["F2v"]
        + _pv(a2, xs)[:, None] * j["F1u"]
        + _pv(beta, xs)[:, None] * j["F1v"]
    )
    scale = (np.linalg.norm(j["F1u"], axis=1) + np.linalg.norm(j["F1v"], axis=1)).max()
    return float(np.linalg.norm(res, axis=1).max() / scale)


def _split_beta(a1, a2, beta):
    """Linear (beta1, beta2) with a1*beta2 + a2*beta1 = beta, minimal L2 norm.

    The 3x4 coefficient system is underdetermined; when alpha1 and alpha2
    share a root it also loses rank, and a linear split exists only if beta
    stays consistent with the reduced system (otherwise the interface
    violates the relative-primality assumption and we refuse it).
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
    U, s, _ = np.linalg.svd(C)
    rank = int(np.sum(s > 1e-12 * s[0]))
    bh = U.T @ b
    scale = max(1.0, np.abs(b).max())
    if rank < 3 and np.abs(bh[rank:]).max() > 1e-10 * scale:
        raise DegenerateGluingError(
            "no linear beta split exists: alpha1 and alpha2 share a root"
        )
    Cr = (U.T @ C)[:rank]
    lam = np.linalg.solve(Cr @ np.linalg.solve(_GRAM, Cr.T), bh[:rank])
    v = np.linalg.solve(_GRAM, Cr.T @ lam)
    if np.abs(C @ v - b).max() > 1e-10 * scale:
        raise DegenerateGluingError("beta split constraints could not be met")
    return v[:2].copy(), v[2:].copy()


def fit_asg1(F1, F2, tol=DEFAULT_TOL, strict=True):
    """Decide AS-G1 and produce normalized linear gluing data.

    A linear pair (p, q) minimizing ||d1*q - d2*p|| over dense edge samples is
    found in the null space of a 4-column least-squares matrix;
    the interface is accepted when the relative smallest singular value is
    below ``tol``. Accepted data is rescaled so the alphas are closest to one
    in L2, beta is fitted to the determinants at the same nodes, and the beta
    split takes the minimum-norm solution.

    With ``strict`` (default), rejection raises NotASG1Error; otherwise the
    best-effort data is returned with ``asg1 = False``.
    """
    xs = _fit_sample_points(F1.space.p, F1.space.n)
    jets = _edge_jets(F1, F2, xs)
    D1, D2, D12 = _determinants(jets)
    if D1.min() <= 0.0 or D2.min() <= 0.0:
        raise ConformityError("edge determinants are not positive; geometry is singular")

    A = np.stack([-D2, -xs * D2, D1, xs * D1], axis=1)
    _, svals, Vt = np.linalg.svd(A, full_matrices=False)
    rel_residual = float(svals[-1] / svals[0])

    nullity = int(np.sum(svals < tol * svals[0]))
    accepted = nullity >= 1
    if not accepted and strict:
        raise NotASG1Error(
            f"interface is not analysis-suitable G1: relative fit residual "
            f"{rel_residual:.3e} >= {tol:.1e}",
            residual=rel_residual,
        )

    # straight interfaces leave a null space of dimension > 1; pick the
    # representative minimizing ||alpha1 - 1||^2 + ||alpha2 - 1||^2 in L2(0,1)
    V = Vt[-max(nullity, 1):]
    ell = np.array([1.0, 0.5, 1.0, 0.5])
    coef = np.linalg.solve(V @ _GRAM @ V.T, V @ ell)
    v = V.T @ coef
    a1 = v[:2].copy()
    a2 = v[2:].copy()
    if accepted:
        for a in (a1, a2):
            if _pv(a, 0.0) <= 0.0 or _pv(a, 1.0) <= 0.0:
                raise ConformityError(
                    "gluing sign condition alpha1*alpha2 > 0 cannot be met"
                )

    g = _pv(a1, xs) * D12 / D1
    beta = _poly.polyfit(xs, g, 2)
    snap = _SNAP * max(1.0, np.abs(_pv(a1, xs)).max(), np.abs(_pv(a2, xs)).max())
    if np.abs(g).max() <= snap:
        beta = np.zeros(3)
        b1 = np.zeros(2)
        b2 = np.zeros(2)
        one = np.array([1.0, 0.0])
        if np.abs(a1 - one).max() <= _SNAP and np.abs(a2 - one).max() <= _SNAP:
            a1, a2 = one.copy(), one.copy()
    elif accepted:
        b1, b2 = _split_beta(a1, a2, beta)
    else:
        # rejected: report the alphas and the unsplit quadratic only
        b1 = np.zeros(2)
        b2 = np.zeros(2)

    defect = _g1_defect(jets, a1, a2, beta, xs)
    residual = rel_residual if not accepted else defect
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


def _transversal_from_jet(g, jet, xs):
    """Transversal direction d(t) along the edge of patch 1, and its
    derivative, from the order-2 jets of patch 1 at (0, xs):
    d(t) = (d1F1(0, t) + beta1(t) d2F1(0, t)) / alpha1(t), and d'(t) the
    analytic derivative of that quotient."""
    F1u, F1v = jet[:, 1, 0, :], jet[:, 0, 1, :]
    F1uv, F1vv = jet[:, 1, 1, :], jet[:, 0, 2, :]
    a1 = _pv(g.alpha1, xs)[:, None]
    b1 = _pv(g.beta1, xs)[:, None]
    d = (F1u + b1 * F1v) / a1
    dnum = F1uv + g.beta1[1] * F1v + b1 * F1vv
    dp = (dnum - g.alpha1[1] * d) / a1
    return d, dp
