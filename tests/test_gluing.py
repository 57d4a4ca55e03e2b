import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from argyris import (
    Patch,
    UnivariateSpace,
    boundary_gluing,
    builtin_geometry,
    fit_asg1,
    standard_form_edge,
)
from argyris.errors import ConformityError, NotASG1Error
from argyris.gluing import _determinants, _edge_jets, _transversal_from_jet
from conftest import pointwise_jet


def interface_pair(mp, k=0):
    return standard_form_edge(mp, mp.interfaces()[k])


def determinants(F1, F2, xs):
    """(d1, d2, d12) of a standard-form pair at xs, as ``fit_asg1`` reads them."""
    return _determinants(_edge_jets(F1, F2, xs))


def transversal(g, F1, xs):
    """Transversal vector d and d' along the edge of patch 1, as the space reads them."""
    return _transversal_from_jet(g, F1.grid_jet([0.0], xs, 2), xs)


def test_translated_squares_determinants(mp_two):
    F1, F2 = interface_pair(mp_two)
    xs = np.linspace(0, 1, 33)
    d1, d2, d12 = determinants(F1, F2, xs)
    np.testing.assert_allclose(d12, 0.0, atol=1e-14)
    np.testing.assert_allclose(d1, d2, atol=1e-14)
    # patch 1 here is the identity square: unit Jacobian determinant
    np.testing.assert_allclose(d1, 1.0, atol=1e-14)


def test_determinants_match_finite_difference_oracle(mp_three):
    # the patches are bilinear, so the second-order stencils have no
    # truncation error and the step only trades against rounding: at 1e-6
    # rounding alone reaches ~2e-9 of the scale, at 1e-4 ~2e-11
    xs = np.linspace(1e-3, 1 - 1e-3, 100)
    eps = 1e-4

    def point(F, uv):
        # an evaluator independent of the sum factorization under test
        return pointwise_jet(F.space, F.net, uv, 0)[:, 0, 0]

    def fd_central(F, uv, axis):
        d = np.zeros(2)
        d[axis] = eps
        return (point(F, uv + d) - point(F, uv - d)) / (2 * eps)

    def fd_onesided(F, uv, axis):
        # second-order stencil into the domain (the edge sits on its boundary)
        d = np.zeros(2)
        d[axis] = eps
        return (-3 * point(F, uv) + 4 * point(F, uv + d) - point(F, uv + 2 * d)) / (
            2 * eps
        )

    uv1 = np.column_stack([np.zeros_like(xs), xs])
    uv2 = np.column_stack([xs, np.zeros_like(xs)])
    for k in range(len(mp_three.interfaces())):
        F1, F2 = interface_pair(mp_three, k)
        e1, e2, e12 = determinants(F1, F2, xs)
        a1 = fd_onesided(F1, uv1, 0)
        a2 = fd_central(F1, uv1, 1)
        b1 = fd_central(F2, uv2, 0)
        b2 = fd_onesided(F2, uv2, 1)
        d1 = a1[:, 0] * a2[:, 1] - a1[:, 1] * a2[:, 0]
        d2 = b1[:, 0] * b2[:, 1] - b1[:, 1] * b2[:, 0]
        d12 = b2[:, 0] * a1[:, 1] - b2[:, 1] * a1[:, 0]
        scale = max(1.0, np.abs(d1).max())
        assert np.abs(e1 - d1).max() < 1e-9 * scale
        assert np.abs(e2 - d2).max() < 1e-9 * scale
        assert np.abs(e12 - d12).max() < 1e-9 * scale


def test_fit_requires_standard_form(mp_two):
    F1, F2 = interface_pair(mp_two)
    with pytest.raises(ConformityError):
        fit_asg1(F1, F1)


def test_parametric_continuity_special_case(mp_two):
    g = fit_asg1(*interface_pair(mp_two))
    assert g.asg1
    np.testing.assert_array_equal(g.alpha1, [1.0, 0.0])
    np.testing.assert_array_equal(g.alpha2, [1.0, 0.0])
    np.testing.assert_array_equal(g.beta1, [0.0, 0.0])
    np.testing.assert_array_equal(g.beta2, [0.0, 0.0])
    np.testing.assert_array_equal(g.beta, [0.0, 0.0, 0.0])
    assert g.residual < 1e-14


@pytest.mark.parametrize(
    "fixture", ["mp_three", "mp_five", "mp_lshape", "mp_curved"]
)
def test_builtin_interfaces_accepted(request, fixture):
    mp = request.getfixturevalue(fixture)
    for e in mp.interfaces():
        g = fit_asg1(*standard_form_edge(mp, e))
        assert g.asg1
        assert g.residual < 1e-10


def test_g1_residual_invariant(mp_three):
    xs = np.linspace(0, 1, 200)
    for e in mp_three.interfaces():
        F1, F2 = standard_form_edge(mp_three, e)
        g = fit_asg1(F1, F2)
        z = np.zeros_like(xs)
        j1 = F1.jet(np.column_stack([z, xs]), 1)
        j2 = F2.jet(np.column_stack([xs, z]), 1)
        res = (
            P.polyval(xs, g.alpha1)[:, None] * j2[:, 0, 1, :]
            + P.polyval(xs, g.alpha2)[:, None] * j1[:, 1, 0, :]
            + P.polyval(xs, g.beta)[:, None] * j1[:, 0, 1, :]
        )
        scale = (
            np.linalg.norm(j1[:, 1, 0, :], axis=1)
            + np.linalg.norm(j1[:, 0, 1, :], axis=1)
        ).max()
        assert np.abs(np.linalg.norm(res, axis=1)).max() / scale < 1e-9


def test_beta_split_consistency(mp_three, mp_five, mp_curved):
    for mp in (mp_three, mp_five, mp_curved):
        for e in mp.interfaces():
            g = fit_asg1(*standard_form_edge(mp, e))
            comb = P.polyadd(
                P.polymul(g.alpha1, g.beta2), P.polymul(g.alpha2, g.beta1)
            )
            full = np.zeros(3)
            full[: len(comb)] += comb
            assert np.abs(full - g.beta).max() < 1e-12


def test_sign_condition_on_unit_interval(mp_three, mp_five):
    for mp in (mp_three, mp_five):
        for e in mp.interfaces():
            g = fit_asg1(*standard_form_edge(mp, e))
            prod = P.polymul(g.alpha1, g.alpha2)
            for x in (0.0, 0.5, 1.0):
                assert P.polyval(x, prod) > 0.0
            # quadratic positivity: positive endpoints and either no interior
            # critical point or a positive one
            c0, c1, c2 = np.pad(prod, (0, 3 - len(prod)))[:3]
            if c2 != 0.0:
                xc = -c1 / (2 * c2)
                if 0.0 < xc < 1.0:
                    assert P.polyval(xc, prod) > 0.0


def test_non_asg1_rejected(mp_non_asg1):
    F1, F2 = interface_pair(mp_non_asg1)
    with pytest.raises(NotASG1Error) as exc:
        fit_asg1(F1, F2)
    assert exc.value.residual >= 1e-4
    g = fit_asg1(F1, F2, strict=False)
    assert not g.asg1
    assert g.residual >= 1e-4


def test_rejection_stable_under_densified_sampling():
    # the smallest singular value stays away from zero as the mesh refines
    for n in (4, 8):
        mp = builtin_geometry("two_patch_generic_non_asg1", UnivariateSpace(3, 1, n))
        g = fit_asg1(*interface_pair(mp), strict=False)
        assert g.residual >= 1e-4


def test_scale_equivariance(mp_three):
    F1, F2 = interface_pair(mp_three)
    g = fit_asg1(F1, F2)
    gs = fit_asg1(Patch(F1.space, 2.0 * F1.net), Patch(F2.space, 2.0 * F2.net))
    assert gs.asg1 == g.asg1
    np.testing.assert_allclose(gs.alpha1, g.alpha1, atol=1e-12)
    np.testing.assert_allclose(gs.alpha2, g.alpha2, atol=1e-12)


def test_transversal_parametric_case(mp_two):
    F1, F2 = interface_pair(mp_two)
    g = fit_asg1(F1, F2)
    xs = np.linspace(0, 1, 21)
    d, dp = transversal(g, F1, xs)
    jet = F1.jet(np.column_stack([np.zeros_like(xs), xs]), 1)
    np.testing.assert_allclose(d, jet[:, 1, 0, :], atol=1e-14)


def test_transversal_defining_identity(mp_three):
    xs = np.linspace(0, 1, 50)
    for e in mp_three.interfaces():
        F1, F2 = standard_form_edge(mp_three, e)
        g = fit_asg1(F1, F2)
        d, _ = transversal(g, F1, xs)
        jet = F1.jet(np.column_stack([np.zeros_like(xs), xs]), 1)
        lhs = P.polyval(xs, g.alpha1)[:, None] * d
        rhs = jet[:, 1, 0, :] + P.polyval(xs, g.beta1)[:, None] * jet[:, 0, 1, :]
        assert np.abs(lhs - rhs).max() < 1e-12


def test_transversal_two_sided_identity(mp_three):
    xs = np.linspace(0, 1, 50)
    for e in mp_three.interfaces():
        F1, F2 = standard_form_edge(mp_three, e)
        g = fit_asg1(F1, F2)
        d, _ = transversal(g, F1, xs)
        jet2 = F2.jet(np.column_stack([xs, np.zeros_like(xs)]), 1)
        rhs = jet2[:, 0, 1, :] + P.polyval(xs, g.beta2)[:, None] * jet2[:, 1, 0, :]
        assert np.abs(-P.polyval(xs, g.alpha2)[:, None] * d - rhs).max() < 1e-10


def test_transversal_derivative_is_analytic(mp_curved):
    F1, F2 = interface_pair(mp_curved)
    g = fit_asg1(F1, F2)
    xs = np.linspace(0.05, 0.95, 20)
    _, dp = transversal(g, F1, xs)
    dplus, _ = transversal(g, F1, xs + 1e-6)
    dminus, _ = transversal(g, F1, xs - 1e-6)
    fd = (dplus - dminus) / 2e-6
    assert np.abs(dp - fd).max() < 1e-6 * max(1.0, np.abs(dp).max())


def test_boundary_gluing(mp_two):
    e = [e for e in mp_two.edges if not e.is_interface][0]
    F1, _ = standard_form_edge(mp_two, e)
    g = boundary_gluing()
    assert g.alpha2 is None
    np.testing.assert_array_equal(g.alpha1, [1.0, 0.0])
    np.testing.assert_array_equal(g.beta1, [0.0, 0.0])
    xs = np.linspace(0, 1, 11)
    d, _ = transversal(g, F1, xs)
    jet = F1.jet(np.column_stack([np.zeros_like(xs), xs]), 1)
    np.testing.assert_allclose(d, jet[:, 1, 0, :], atol=1e-14)


def test_reflect_matches_taylor_reference():
    # the closed form of s -> c(1 - s) against the Taylor expansion at 1,
    # which adds the same terms in the same order
    import math

    from argyris.gluing import _reflect

    rng = np.random.default_rng(7)
    for n in (2, 3):
        for _ in range(500):
            c = rng.standard_normal(n) * 10.0 ** rng.integers(-16, 3, n)
            taylor = [P.polyval(1.0, P.polyder(c, k)) / math.factorial(k) for k in range(n)]
            np.testing.assert_array_equal(
                _reflect(c), np.array(taylor) * (-1.0) ** np.arange(n)
            )


def test_beta_split_degenerate_when_inconsistent():
    # alphas sharing a root at 0 cannot split a beta with beta(0) != 0
    from argyris.errors import DegenerateGluingError
    from argyris.gluing import _split_beta

    with pytest.raises(DegenerateGluingError):
        _split_beta(np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
    # but a consistent rank-deficient system still splits (minimum norm)
    b1, b2 = _split_beta(np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(b1, [0.5, 0.0], atol=1e-14)
    np.testing.assert_allclose(b2, [0.5, 0.0], atol=1e-14)
