import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from argyris import (
    ArgyrisSpace,
    MultiPatch,
    Patch,
    UnivariateSpace,
    boundary_gluing,
    builtin_geometry,
    convergence_study,
    fit_asg1,
    infer_topology,
    load_geometry,
    represent_exactly,
    save_geometry,
    smoothness_report,
    standard_form_edge,
)
from argyris.bspline import _strip_jets, _unit_jets
from argyris.cli import main
from argyris.errors import ConformityError, NotASG1Error
from argyris.geometries import BUILTIN_NAMES
from argyris.gluing import (ASG1_TOL, _certify_positive, _edge_determinants,
                            _fit_sample_points, _transversal_from_jet)
from argyris.multipatch import edge_frames, rotate_net
from conftest import patch_point, pointwise_jet


def interface_pair(mp, k=0):
    return standard_form_edge(mp, mp.interfaces()[k])


def transversal(g, F1, xs):
    """Transversal vector d and d' along the edge of patch 1, as the space reads them."""
    return _transversal_from_jet(g.alpha1, g.beta1, F1.grid_jet([0.0], xs, 2), xs)


def test_translated_squares_determinants(mp_two):
    F1, F2 = interface_pair(mp_two)
    xs = np.linspace(0, 1, 33)
    d1, d2, d12 = _edge_determinants(F1, F2, xs)
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

    def fd_central(F, uv, axis):
        d = np.zeros(2)
        d[axis] = eps
        return (patch_point(F, uv + d) - patch_point(F, uv - d)) / (2 * eps)

    def fd_onesided(F, uv, axis):
        # second-order stencil into the domain (the edge sits on its boundary)
        d = np.zeros(2)
        d[axis] = eps
        f0, f1, f2 = (patch_point(F, uv + k * d) for k in range(3))
        return (-3 * f0 + 4 * f1 - f2) / (2 * eps)

    uv1 = np.column_stack([np.zeros_like(xs), xs])
    uv2 = np.column_stack([xs, np.zeros_like(xs)])
    for k in range(len(mp_three.interfaces())):
        F1, F2 = interface_pair(mp_three, k)
        e1, e2, e12 = _edge_determinants(F1, F2, xs)
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
        j1 = pointwise_jet(F1.space, F1.net, np.column_stack([z, xs]), 1)
        j2 = pointwise_jet(F2.space, F2.net, np.column_stack([xs, z]), 1)
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


def test_slide_along_interface_rejected(mp_two):
    # sliding layer 1 along the interface by a cubic in the Greville
    # abscissae keeps alpha2*d1 = alpha1*d2 with linear alphas, but
    # alpha1*d12/d1 is no quadratic: a fit of the alphas alone accepted this
    # interface (residual 4.6e-2) and built a space with C1 jump 9.3e-2
    cfg = mp_two.config
    (i, k), _ = edge_frames(mp_two.interfaces()[0])
    patches = list(mp_two.patches)
    net = patches[i].net.copy()
    view, g = rotate_net(net, k), cfg.greville()
    t = view[0, -1] - view[0, 0]
    view[1] += (0.2 * (g**3 - 1.5 * g**2 + 0.5 * g))[:, None] * (t / np.linalg.norm(t))
    patches[i] = Patch(cfg, net)
    with pytest.raises(NotASG1Error):
        ArgyrisSpace(MultiPatch(cfg, patches, mp_two.edges, mp_two.vertices))


def test_space_refuses_the_interface_a_loose_tolerance_accepted(mp_non_asg1):
    # a tolerance of 0.042 used to build dim 129 here with C1 jump 0.43; the
    # fixed tolerance refuses it with the residual it measured
    with pytest.raises(NotASG1Error) as exc:
        ArgyrisSpace(mp_non_asg1)
    assert ASG1_TOL == 1e-9
    assert exc.value.residual > 1e-2 > ASG1_TOL


@pytest.mark.parametrize("call", ["fit_asg1", "ArgyrisSpace", "convergence_study",
                                  "smoothness_report"])
def test_removed_knobs_are_unknown_keywords(mp_three, call):
    # the AS-G1 tolerance and the audit's sample points are fixed by the
    # library; neither can be passed any more
    calls = {
        "fit_asg1": lambda: fit_asg1(*interface_pair(mp_three), tol=0.042),
        "ArgyrisSpace": lambda: ArgyrisSpace(mp_three, tol=0.042),
        "convergence_study": lambda: convergence_study(mp_three, None, 1, tol=0.042),
        "smoothness_report": lambda: smoothness_report(ArgyrisSpace(mp_three),
                                                       samples_per_edge=20),
    }
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        calls[call]()


def test_rejection_stable_under_densified_sampling():
    # the smallest singular value stays away from zero as the mesh refines
    for n in (4, 8):
        mp = builtin_geometry("two_patch_generic_non_asg1", UnivariateSpace(3, 1, n))
        g = fit_asg1(*interface_pair(mp), strict=False)
        assert g.residual >= 1e-4


def test_scale_equivariance(cfg4):
    # each row of the fit is a determinant, which a linear map L of the plane
    # scales by det L: the verdict, the alphas and the relative residual stay
    c, s = np.cos(0.7), np.sin(0.7)
    maps = [np.diag([1e3, 1.0]), np.diag([1.0, 1e-2]), np.array([[1.0, 3.0], [0.0, 1.0]]),
            np.array([[c, -s], [s, c]])]
    for name in BUILTIN_NAMES:
        mp = builtin_geometry(name, cfg4)
        for e in mp.interfaces():
            F1, F2 = standard_form_edge(mp, e)
            g = fit_asg1(F1, F2, strict=False)
            for L in maps:
                gs = fit_asg1(*(Patch(F.space, F.net @ L.T) for F in (F1, F2)), strict=False)
                assert gs.asg1 == g.asg1
                np.testing.assert_allclose(gs.alpha1, g.alpha1, atol=1e-12)
                np.testing.assert_allclose(gs.alpha2, g.alpha2, atol=1e-12)
                if not g.asg1:
                    np.testing.assert_allclose(gs.residual, g.residual, rtol=1e-12)


def test_transversal_parametric_case(mp_two):
    F1, F2 = interface_pair(mp_two)
    g = fit_asg1(F1, F2)
    xs = np.linspace(0, 1, 21)
    d, dp = transversal(g, F1, xs)
    jet = pointwise_jet(F1.space, F1.net, np.column_stack([np.zeros_like(xs), xs]), 1)
    np.testing.assert_allclose(d, jet[:, 1, 0, :], atol=1e-14)


def test_transversal_defining_identity(mp_three):
    xs = np.linspace(0, 1, 50)
    for e in mp_three.interfaces():
        F1, F2 = standard_form_edge(mp_three, e)
        g = fit_asg1(F1, F2)
        d, _ = transversal(g, F1, xs)
        jet = pointwise_jet(F1.space, F1.net, np.column_stack([np.zeros_like(xs), xs]), 1)
        lhs = P.polyval(xs, g.alpha1)[:, None] * d
        rhs = jet[:, 1, 0, :] + P.polyval(xs, g.beta1)[:, None] * jet[:, 0, 1, :]
        assert np.abs(lhs - rhs).max() < 1e-12


def test_transversal_two_sided_identity(mp_three):
    xs = np.linspace(0, 1, 50)
    for e in mp_three.interfaces():
        F1, F2 = standard_form_edge(mp_three, e)
        g = fit_asg1(F1, F2)
        d, _ = transversal(g, F1, xs)
        jet2 = pointwise_jet(F2.space, F2.net, np.column_stack([xs, np.zeros_like(xs)]), 1)
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
    jet = pointwise_jet(F1.space, F1.net, np.column_stack([np.zeros_like(xs), xs]), 1)
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


def mirrored_fold(cfg):
    """A standard-form pair mirrored across the straight interface x = 0, so
    alpha = 1 and beta = 0, whose edge determinants d1 = d2 = 1 + K((t - a)^2
    - eps) dip below zero between two adjacent fit samples and are positive
    at all of them. Patch 1 is y = v and x = the identity net plus the
    normal offset (h/p) K((t - a)^2 - eps) on layer 1 and beyond, so det DF
    = x_u < 0 only next to (0, a); the gap is the one whose middle lies
    farthest from the validation grid, which therefore misses the fold."""
    p, n, h = cfg.p, cfg.n, cfg.h
    xs = _fit_sample_points(p, n)
    grid = np.linspace(0.0, 1.0, 10 * n + 1)
    mids, half = 0.5 * (xs[1:] + xs[:-1]), 0.5 * np.diff(xs)
    k = np.argmax(np.abs(mids[:, None] - grid).min(axis=1) / half)
    a, eps = mids[k], 0.5 * half[k] ** 2  # below the squared distance to every sample
    K = 2.0 / eps  # d(a) = -1
    X = np.repeat(cfg.greville()[:, None], cfg.N, axis=1)
    X[1:] += represent_exactly(cfg, lambda t: (h / p) * K * ((t - a) ** 2 - eps))
    Y = np.repeat(cfg.greville()[None, :], cfg.N, axis=0)
    F1 = Patch(cfg, np.stack([X, Y], axis=-1))
    F2 = Patch(cfg, np.stack([-X, Y], axis=-1).swapaxes(0, 1))
    D1, D2, D12 = _edge_determinants(F1, F2, xs)
    assert D1.min() > 0.0 and D2.min() > 0.0 and np.abs(D12).max() < 1e-15 * D1.max()
    t = np.linspace(a - half[k], a + half[k], 101)
    assert _edge_determinants(F1, F2, t)[0].min() < -0.99
    return F1, F2


def test_fold_between_the_fit_samples_is_refused(cfg4, tmp_path, capsys):
    # every sample of the fit reads d1, d2 > 0, so a sampled sign test
    # accepted this pair as AS-G1 with alpha = 1, beta = 0; the Bernstein
    # certificate finds the fold, and so does the CLI (exit 1)
    F1, F2 = mirrored_fold(cfg4)
    with pytest.raises(ConformityError, match="d1 is not positive on element 2"):
        fit_asg1(F1, F2)
    path = tmp_path / "fold.txt"
    save_geometry(infer_topology(cfg4, [F1, F2]), path)  # validation passes
    assert main(["gluing", "--geometry", str(path)]) == 1
    assert "edge determinant d1 is not positive" in capsys.readouterr().err
    with pytest.raises(ConformityError, match="interface .*: edge determinant d1"):
        ArgyrisSpace(load_geometry(path))


@pytest.mark.parametrize("p,r,n", [(3, 1, 4), (4, 2, 6)])
def test_strip_reader_matches_grid_jet_at_every_turn(p, r, n):
    # the one reader of the layers next to a side against the reference sum
    # factorization over the whole net: on random nets, at all four quarter
    # turns of both sides, the jets on the two (order 1) and three (order 2)
    # layers next to {xi1 = 0}, and the fit's d1, d2 and d12 from the two
    # layers of each side, agree to 1e-13 relative
    cfg = UnivariateSpace(p, r, n)
    rng = np.random.default_rng(7)
    xs = _fit_sample_points(p, n)

    def det(a, b):
        return a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]

    for k1 in range(4):
        for k2 in range(4):
            F1 = Patch(cfg, rng.standard_normal((cfg.N, cfg.N, 2))).rotate(k1)
            net = rotate_net(rng.standard_normal((cfg.N, cfg.N, 2)), k2).copy()
            net[:, 0] = F1.net[0]  # the traces agree: F1(0, t) = F2(t, 0)
            F2 = Patch(cfg, net)
            for order in (1, 2):
                T = _unit_jets(cfg, xs, order)
                got = _strip_jets(T.jets[..., None], F1.net[: order + 1].reshape(-1, 2)[T.pos])
                ref = F1.grid_jet([0.0], xs, order)
                for a in range(order + 1):
                    for c in range(order + 1 - a):
                        scale = np.abs(ref[:, a, c]).max()
                        assert np.abs(got[a, c] - ref[:, a, c]).max() <= 1e-13 * scale
            j1, j2 = F1.grid_jet([0.0], xs, 1), F2.grid_jet(xs, [0.0], 1)
            F1u, F1v, F2u, F2v = j1[:, 1, 0], j1[:, 0, 1], j2[:, 1, 0], j2[:, 0, 1]
            refs = det(F1u, F1v), det(F2u, F2v), det(F2v, F1u)
            for got, want in zip(_edge_determinants(F1, F2, xs), refs):
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("p,r,n", [(3, 1, 4), (4, 2, 6), (5, 1, 8), (3, 1, 3)])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_edge_determinants_certified_without_halving(name, p, r, n):
    # at the degree settings the CI audits run, the Bernstein coefficients of
    # every element are positive at once
    mp = builtin_geometry(name, UnivariateSpace(p, r, n))
    xs = _fit_sample_points(p, n)
    for e in mp.interfaces():
        D1, D2, _ = _edge_determinants(*standard_form_edge(mp, e), xs)
        assert _certify_positive(D1, p, "d1") == _certify_positive(D2, p, "d2") == 0


def test_certificate_halves_an_undecided_element_and_stops_at_its_depth():
    # (t - 1/2)^2 + c on one element: for small c > 0 the middle Bernstein
    # coefficient is negative, and halving decides it; a double root (c = 0)
    # reaches a zero end value, and a root pair closer than the last halving
    # stays undecided and is refused
    p, xs = 3, _fit_sample_points(3, 1)

    def d(c, a=0.5):
        return (xs - a) ** 2 + c

    assert _certify_positive(d(1e-2), p, "d1") == 1
    with pytest.raises(ConformityError, match="not positive on element 0"):
        _certify_positive(d(0.0), p, "d1")
    with pytest.raises(ConformityError, match="not certified positive on element 0 of 1"):
        _certify_positive(d(-1e-12, a=0.5 + 2.0**-14), p, "d1")
    # two elements, both still undecided after one halving: the fold is
    # named on its own element, 1, not on the first undecided one
    x2 = _fit_sample_points(p, 2)
    D = np.where(x2 < 0.5, (x2 - 1 / 6) ** 2 + 1e-6, (x2 - 0.75) ** 2 - 1e-4)
    with pytest.raises(ConformityError, match="not positive on element 1;"):
        _certify_positive(D, p, "d2")
    for bad in (np.nan, np.inf):
        D = d(1e-2)
        D[3] = bad
        with pytest.raises(ConformityError):
            _certify_positive(D, p, "d1")


def test_bernstein_fit_and_halves_reproduce_the_polynomial():
    # the fixed matrix recovers the Bernstein coefficients of any degree 2p
    # polynomial from one element's samples, and the two halves describe the
    # same polynomial on [0, 1/2] and [1/2, 1]
    import math

    from argyris.gluing import _bernstein_fit, _halves

    def bernstein(c, t):
        d = c.shape[1] - 1
        k = np.arange(d + 1)
        binom = np.array([math.comb(d, j) for j in k])
        return (binom * t[:, None] ** k * (1 - t[:, None]) ** (d - k)) @ c.T

    rng = np.random.default_rng(3)
    t = np.linspace(0.0, 1.0, 9)
    for p in (3, 4, 5):
        c = rng.standard_normal((3, 2 * p + 1))
        samples = bernstein(c, _fit_sample_points(p, 1)).T
        np.testing.assert_allclose(samples @ _bernstein_fit(p).T, c, atol=1e-12)
        h = _halves(c)
        np.testing.assert_allclose(bernstein(h[:3], t), bernstein(c, t / 2), atol=1e-13)
        np.testing.assert_allclose(bernstein(h[3:], t), bernstein(c, (1 + t) / 2), atol=1e-13)


def test_nan_control_point_is_a_conformity_error(mp_two):
    # the NaN made every sample NaN, NaN <= 0 is False, and the fit stopped
    # in the SVD with a bare LinAlgError ("SVD did not converge"). The fit
    # reads the two layers next to the edge, so the NaN sits on layer 1
    F1, F2 = interface_pair(mp_two)
    net = F1.net.copy()
    net[1, 5] = np.nan
    with pytest.raises(ConformityError, match="not positive"):
        fit_asg1(Patch(F1.space, net), F2)


def test_nan_control_point_off_the_fit_layers_fails_validation(mp_two):
    # a NaN on layer 2 of the first patch of the interface, which the fit
    # never reads, is refused when the geometry is validated
    i, k = edge_frames(mp_two.interfaces()[0])[0]
    net = mp_two.patches[i].net.copy()
    rotate_net(net, k)[2, 5] = np.nan  # a view: writes into net
    patches = list(mp_two.patches)
    patches[i] = Patch(mp_two.config, net)
    with pytest.raises(ConformityError):
        MultiPatch(mp_two.config, patches, mp_two.edges, mp_two.vertices)
