"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from argyris import (
    AnalyticField,
    ArgyrisSpace,
    C2Data,
    ConvergenceTable,
    QuadratureRule,
    SpaceField,
    UnivariateSpace,
    assemble_mass,
    biorthogonality_matrix,
    builtin_geometry,
    convergence_study,
    cos_sin_field,
    fit_asg1,
    physical_derivatives,
    project,
    smoothness_report,
    space_dimension,
    standard_form_edge,
)
from argyris.errors import NotASG1Error
from argyris.fit import _integral_sq
from argyris.multipatch import CORNER_UV
from conftest import member_jet
from test_bspline import oracle_deriv, oracle_knots

ASG1_BUILTINS = (
    "two_patch_bilinear",
    "three_patch_bilinear",
    "five_patch_bilinear",
    "lshape_bilinear",
    "two_patch_curved_asg1",
)


def report(k, name):
    print(f"ACCEPTANCE {k} ({name}): PASS")


def test_criterion_1_dimension_reproduction():
    t0 = time.perf_counter()
    # the dimension depends on the topology counts alone, read here from the
    # coarsest geometry under each finer config
    three = builtin_geometry("three_patch_bilinear", UnivariateSpace(3, 1, 4))
    five = builtin_geometry("five_patch_bilinear", UnivariateSpace(3, 1, 4))
    for mp, counts in ((three, (3, 9, 7)), (five, (5, 15, 11))):  # patches, edges, vertices
        assert (len(mp.patches), len(mp.edges), len(mp.vertices)) == counts
    expect_three = {4: 177, 8: 729, 16: 2985, 32: 12105}
    expect_five = {4: 291, 8: 1211, 16: 4971, 32: 20171}
    for n, want in expect_three.items():
        total, _ = space_dimension(three, UnivariateSpace(3, 1, n))
        assert total == want
    for n, want in expect_five.items():
        total, _ = space_dimension(five, UnivariateSpace(3, 1, n))
        assert total == want
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, "dimension reproduction h=1/4..1/32")


@pytest.mark.parametrize("name", ["three_patch_bilinear", "five_patch_bilinear"])
def test_criterion_2_convergence_order(name):
    t0 = time.perf_counter()
    mp = builtin_geometry(name, UnivariateSpace(3, 1, 4))
    table, _ = convergence_study(mp, cos_sin_field, 4)
    errs = [row[2] for row in table.rows]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    for _, _, _, ecr in table.rows[-2:]:
        assert 3.7 <= ecr <= 4.3
    assert time.perf_counter() - t0 < 300.0
    report(2, f"O(h^4) convergence on {name}")


def test_criterion_3_ecr_convention():
    assert round(ConvergenceTable.ecr_convention(7.46e-3, 3.03e-4), 2) == 4.62
    report(3, "ecr convention check against tabulated values")


def test_criterion_4_global_biorthogonality(sp_two, sp_three):
    rng = np.random.default_rng(42)
    for sp in (sp_two, sp_three):
        M = biorthogonality_matrix(sp).toarray()
        assert np.abs(M - np.eye(sp.dim)).max() < 1e-9
        c = rng.normal(size=sp.dim)
        c2 = project(sp, SpaceField(sp, c))
        assert np.abs(c2 - c).max() < 1e-9 * max(1.0, np.abs(c).max())
    report(4, "dual-vs-basis identity and projector reproduction at n=4")


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("name", ASG1_BUILTINS)
def test_criterion_5_smoothness_suite(name, n, request):
    if n == 4 and name == "two_patch_bilinear":
        sp = request.getfixturevalue("sp_two")
    elif n == 4 and name == "three_patch_bilinear":
        sp = request.getfixturevalue("sp_three")
    else:
        sp = ArgyrisSpace(builtin_geometry(name, UnivariateSpace(3, 1, n)))
    rep = smoothness_report(sp, samples_per_edge=200)
    assert rep.max_c1_jump < 1e-9
    assert rep.max_c2_jump < 1e-8
    report(5, f"C1/C2 smoothness of every basis function, {name} n={n}")


@pytest.mark.parametrize("name", ["three_patch_bilinear", "lshape_bilinear"])
def test_criterion_6_vertex_projector(name, request):
    sp = (
        request.getfixturevalue("sp_three")
        if name == "three_patch_bilinear"
        else ArgyrisSpace(builtin_geometry(name, UnivariateSpace(3, 1, 4)))
    )
    mp = sp.geometry
    rng = np.random.default_rng(6)
    from argyris import TensorSpline

    for v in mp.vertices:
        # exact annihilation of zero data
        c = sp.vertex_projector(v.id, C2Data(0.0, np.zeros(2), np.zeros((2, 2))))
        assert not (sp.C @ c).any()
        for _ in range(20):
            val = rng.normal()
            g = rng.normal(size=2)
            H = rng.normal(size=(2, 2))
            H = 0.5 * (H + H.T)
            c = sp.vertex_projector(v.id, C2Data(val, g, H))
            for ip, corner in v.corners:
                uv = CORNER_UV[corner : corner + 1]
                gj = mp.patches[ip].jet(uv, 2)
                fj = TensorSpline(sp.config, sp.combine(c, ip)).jet(uv, 2)
                # physical interpolation up to second order
                vv, gg, hh = physical_derivatives(gj, fj)
                assert abs(vv[0] - val) < 1e-9
                assert np.abs(gg[0] - g).max() < 1e-9
                assert np.abs(hh[0] - H).max() < 1e-9
                # parametric interpolation: chain-rule jets of the data
                Fu, Fv = gj[0, 1, 0], gj[0, 0, 1]
                Fuu, Fuv, Fvv = gj[0, 2, 0], gj[0, 1, 1], gj[0, 0, 2]
                want = {
                    (0, 0): val,
                    (1, 0): g @ Fu,
                    (0, 1): g @ Fv,
                    (2, 0): Fu @ H @ Fu + g @ Fuu,
                    (1, 1): Fu @ H @ Fv + g @ Fuv,
                    (0, 2): Fv @ H @ Fv + g @ Fvv,
                }
                for (m1, m2), w in want.items():
                    assert abs(fj[0, m1, m2] - w) < 1e-9 * max(1.0, abs(w))
    report(6, f"vertex projector interpolation and annihilation on {name}")


def test_criterion_7_asg1_classifier():
    for name in ASG1_BUILTINS:
        mp = builtin_geometry(name, UnivariateSpace(3, 1, 4))
        for e in mp.interfaces():
            g = fit_asg1(*standard_form_edge(mp, e))
            assert g.asg1
            assert g.residual < 1e-10
    mp = builtin_geometry("two_patch_generic_non_asg1", UnivariateSpace(3, 1, 4))
    with pytest.raises(NotASG1Error) as exc:
        fit_asg1(*standard_form_edge(mp, mp.interfaces()[0]))
    assert exc.value.residual >= 1e-4
    # parametric continuity: footnote special case, exact
    mp = builtin_geometry("two_patch_bilinear", UnivariateSpace(3, 1, 4))
    g = fit_asg1(*standard_form_edge(mp, mp.interfaces()[0]))
    assert np.array_equal(g.alpha1, [1.0, 0.0]) and np.array_equal(g.alpha2, [1.0, 0.0])
    assert not g.beta.any() and not g.beta1.any() and not g.beta2.any()
    report(7, "AS-G1 classifier accepts/rejects with the stated margins")


def test_criterion_8_polynomial_reproduction(request):
    targets = [
        ("1", lambda x: np.ones(len(x)), lambda x: np.zeros((len(x), 2))),
        (
            "x1",
            lambda x: x[:, 0].copy(),
            lambda x: np.column_stack([np.ones(len(x)), np.zeros(len(x))]),
        ),
        (
            "x2",
            lambda x: x[:, 1].copy(),
            lambda x: np.column_stack([np.zeros(len(x)), np.ones(len(x))]),
        ),
    ]
    zero_hess = lambda x: np.zeros((len(x), 2, 2))
    for name in ASG1_BUILTINS:
        if name == "two_patch_bilinear":
            sp = request.getfixturevalue("sp_two")
        elif name == "three_patch_bilinear":
            sp = request.getfixturevalue("sp_three")
        else:
            sp = ArgyrisSpace(builtin_geometry(name, UnivariateSpace(3, 1, 4)))
        rule = QuadratureRule(sp.config.n, sp.config.p + 3)
        for tname, f, g in targets:
            fld = AnalyticField(sp.geometry, f, g, zero_hess)
            c = project(sp, fld)
            err2, zz = _integral_sq(sp, c, fld, rule)
            rel = np.sqrt(max(err2, 0.0) / zz)
            assert rel < 1e-9, f"{tname} on {name}: {rel:.2e}"
    report(8, "projector reproduces constants and linear coordinates")


def test_criterion_9_oracle_equivalences(sp_two):
    # (a) basis evaluation against the exact rational recursion
    rng = np.random.default_rng(9)
    for (p, r, n) in [(3, 1, 4), (4, 2, 3)]:
        sp = UnivariateSpace(p, r, n)
        kn = oracle_knots(p, r, n)
        xs = [Fraction(q).limit_denominator(32) for q in rng.uniform(0, 1, 5)]
        for x in xs:
            first, ders = sp.basis_ders([float(x)], 1)
            for k in (0, 1):
                for i in range(p + 1):
                    ref = float(oracle_deriv(kn, first[0] + i, p, x, k))
                    assert abs(ders[0, k, i] - ref) < 1e-12 * max(1.0, abs(ref))
    # (b) mass entries against a refined-quadrature oracle
    M1 = assemble_mass(sp_two, QuadratureRule(4, 5))
    M2 = assemble_mass(sp_two, QuadratureRule(4, 10))
    eye = np.eye(sp_two.dim)
    assert np.abs(M1 @ eye - M2 @ eye).max() < 1e-10 * np.abs(M2 @ eye).max()
    # (c) physical gradients against finite differences of the composition
    mp = sp_two.geometry
    c = rng.normal(size=sp_two.dim)
    uv = rng.uniform(0.05, 0.95, (20, 2))
    eps = 1e-6
    for i in range(2):
        jet = member_jet(sp_two, c, i, uv, 2)
        gj = mp.patches[i].jet(uv, 2)
        _, grad, _ = physical_derivatives(gj, jet)
        J = np.stack([gj[:, 1, 0, :], gj[:, 0, 1, :]], axis=-1)
        for axis in range(2):
            d = np.zeros(2)
            d[axis] = eps
            fp = member_jet(sp_two, c, i, uv + d, 0)[:, 0, 0]
            fm = member_jet(sp_two, c, i, uv - d, 0)[:, 0, 0]
            fd = (fp - fm) / (2 * eps)
            chain = np.einsum("mi,mi->m", grad, J[:, :, axis])
            assert np.abs(fd - chain).max() < 1e-6 * max(1.0, np.abs(fd).max())
    report(9, "evaluation, mass and gradient oracles agree")
