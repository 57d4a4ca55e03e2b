from fractions import Fraction

import numpy as np
import pytest

from argyris import (
    SpaceConfig,
    Spline,
    TensorSpace,
    TensorSpline,
    UnivariateSpace,
    convert,
    derived_edge_spaces,
    dual_functional,
    local_duals,
    multiply_by_linear,
    represent_exactly,
)
from argyris.bspline import _basis_values
from argyris.errors import DomainError, InvalidConfigError, NotInSpaceError


# --- independent Cox-de-Boor oracle in exact rational arithmetic -----------


def oracle_knots(p, r, n):
    k = [Fraction(0)] * (p + 1)
    for i in range(1, n):
        k += [Fraction(i, n)] * (p - r)
    return k + [Fraction(1)] * (p + 1)


def oracle_deriv(knots, j, p, x, k):
    if k == 0:
        if p == 0:
            if x == knots[-1]:
                return Fraction(knots[j] < knots[j + 1] == knots[-1])
            return Fraction(knots[j] <= x < knots[j + 1])
        out = Fraction(0)
        d1 = knots[j + p] - knots[j]
        if d1 > 0:
            out += (x - knots[j]) / d1 * oracle_deriv(knots, j, p - 1, x, 0)
        d2 = knots[j + p + 1] - knots[j + 1]
        if d2 > 0:
            out += (knots[j + p + 1] - x) / d2 * oracle_deriv(knots, j + 1, p - 1, x, 0)
        return out
    out = Fraction(0)
    d1 = knots[j + p] - knots[j]
    if d1 > 0:
        out += Fraction(p) / d1 * oracle_deriv(knots, j, p - 1, x, k - 1)
    d2 = knots[j + p + 1] - knots[j + 1]
    if d2 > 0:
        out -= Fraction(p) / d2 * oracle_deriv(knots, j + 1, p - 1, x, k - 1)
    return out


def test_dimension_and_knots():
    sp = UnivariateSpace(3, 1, 4)
    assert sp.N == 10
    assert sp.knots[0] == 0.0 and sp.knots[-1] == 1.0
    assert np.all(np.diff(sp.knots) >= 0)
    # boundary multiplicity p+1, interior multiplicity p-r
    assert np.count_nonzero(sp.knots == 0.0) == 4
    assert np.count_nonzero(sp.knots == 0.25) == 2


def test_bernstein_endpoint_interpolation():
    sp = UnivariateSpace(3, 1, 1)
    first, ders = sp.basis_ders([0.0], 0)
    assert first[0] == 0
    np.testing.assert_allclose(ders[0, 0], [1.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_partition_of_unity():
    rng = np.random.default_rng(0)
    for (p, r, n) in [(3, 1, 4), (5, 2, 3), (2, 1, 7)]:
        sp = UnivariateSpace(p, r, n)
        xs = rng.uniform(0.0, 1.0, 1000)
        _, ders = sp.basis_ders(xs, 0)
        assert np.abs(ders[:, 0, :].sum(axis=1) - 1.0).max() < 1e-13


def test_frozen_oracle_values_p3_r1_n2():
    # exact values from the rational Cox-de-Boor recursion at x = 1/2
    sp = UnivariateSpace(3, 1, 2)
    first, ders = sp.basis_ders([0.5], 1)
    assert first[0] == 2
    np.testing.assert_allclose(ders[0, 0], [0.5, 0.5, 0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(ders[0, 1], [-3.0, 3.0, 0.0, 0.0], atol=1e-13)


@pytest.mark.parametrize("p,r,n", [(3, 1, 2), (3, 1, 4), (4, 2, 3), (2, 1, 5)])
def test_eval_matches_rational_oracle(p, r, n):
    sp = UnivariateSpace(p, r, n)
    kn = oracle_knots(p, r, n)
    rng = np.random.default_rng(1)
    xs = [Fraction(q).limit_denominator(64) for q in rng.uniform(0, 1, 6)]
    xs += [Fraction(0), Fraction(1), Fraction(1, n)]
    for x in xs:
        first, ders = sp.basis_ders([float(x)], min(2, p))
        for k in range(min(2, p) + 1):
            for i in range(p + 1):
                ref = float(oracle_deriv(kn, first[0] + i, p, x, k))
                assert abs(ders[0, k, i] - ref) < 1e-12 * max(1.0, abs(ref))


def test_domain_error():
    sp = UnivariateSpace(3, 1, 2)
    with pytest.raises(DomainError):
        sp.basis_ders([1.5], 0)


def test_derivative_vs_finite_difference():
    sp = UnivariateSpace(4, 2, 5)
    rng = np.random.default_rng(2)
    c = rng.normal(size=sp.N)
    s = Spline(sp, c)
    xs = rng.uniform(0.05, 0.95, 100)
    d = s(xs, deriv=1)
    fd = (s(xs + 1e-6) - s(xs - 1e-6)) / 2e-6
    assert np.abs(d - fd).max() < 1e-6 * max(1.0, np.abs(d).max())


# --- derived edge spaces ----------------------------------------------------


def test_derived_spaces_dimensions():
    splus, sminus = derived_edge_spaces(UnivariateSpace(3, 1, 4))
    assert (splus.p, splus.r, splus.N) == (3, 2, 7)
    assert (sminus.p, sminus.r, sminus.N) == (2, 1, 6)

    splus, sminus = derived_edge_spaces(UnivariateSpace(5, 2, 2))
    assert splus.N == 8 and sminus.N == 7


def test_derived_spaces_single_element_bernstein():
    splus, sminus = derived_edge_spaces(UnivariateSpace(3, 1, 1))
    assert splus.N == 4 and sminus.N == 3


def test_derived_spaces_invalid():
    with pytest.raises(InvalidConfigError):
        derived_edge_spaces(UnivariateSpace(3, 2, 4))


def test_plus_minus_representable_in_parent():
    usp = UnivariateSpace(3, 1, 4)
    splus, sminus = derived_edge_spaces(usp)
    for j in range(splus.N):
        b = splus.basis_function(j)
        coeffs = represent_exactly(usp, b)  # raises if not representable
        xs = np.linspace(0, 1, 37)
        np.testing.assert_allclose(Spline(usp, coeffs)(xs), b(xs), atol=1e-13)
        dcoeffs = represent_exactly(sminus, lambda x, _b=b: _b(x, deriv=1))
        np.testing.assert_allclose(
            Spline(sminus, dcoeffs)(xs), b(xs, deriv=1), atol=1e-12 * 12
        )


# --- exact products and conversions ----------------------------------------


def test_multiply_constant_spline_by_x_gives_greville():
    sp = UnivariateSpace(3, 1, 4)
    one = Spline(sp, np.ones(sp.N))
    prod = multiply_by_linear(one, 0.0, 1.0)
    np.testing.assert_allclose(prod.coeffs, prod.space.greville(), atol=1e-13)


def test_multiply_by_one_is_degree_elevation():
    sp = UnivariateSpace(2, 1, 3)
    rng = np.random.default_rng(3)
    s = Spline(sp, rng.normal(size=sp.N))
    prod = multiply_by_linear(s, 1.0, 0.0)
    assert prod.space.p == 3
    xs = np.linspace(0, 1, 50)
    np.testing.assert_allclose(prod(xs), s(xs), atol=1e-13)


def test_multiply_bernstein_hand_expansion():
    # b0 of degree 1 is (1-x); x(1-x) has degree-2 Bernstein coefficients (0, 1/2, 0)
    sp = UnivariateSpace(1, 0, 1)
    b0 = sp.basis_function(0)
    prod = multiply_by_linear(b0, 0.0, 1.0)
    np.testing.assert_allclose(prod.coeffs, [0.0, 0.5, 0.0], atol=1e-14)


def test_multiply_matches_pointwise_product():
    rng = np.random.default_rng(4)
    sp = UnivariateSpace(4, 2, 3)
    s = Spline(sp, rng.normal(size=sp.N))
    prod = multiply_by_linear(s, 0.7, -1.3)
    xs = rng.uniform(0, 1, 50)
    ref = (0.7 - 1.3 * xs) * s(xs)
    assert np.abs(prod(xs) - ref).max() < 1e-13 * max(1.0, np.abs(ref).max())


def test_represent_basis_element_is_unit_vector():
    sp = UnivariateSpace(3, 1, 4)
    c = represent_exactly(sp, sp.basis_function(2))
    e2 = np.zeros(sp.N)
    e2[2] = 1.0
    np.testing.assert_allclose(c, e2, atol=1e-13)


def test_represent_linear_gives_greville_values():
    sp = UnivariateSpace(3, 1, 4)
    c = represent_exactly(sp, lambda x: 2.0 - 3.0 * x)
    np.testing.assert_allclose(c, 2.0 - 3.0 * sp.greville(), atol=1e-13)


def test_represent_rejects_off_mesh_kink():
    cases = [
        # C^1 splines: a kink in f' at a non-knot point is not representable
        (UnivariateSpace(3, 1, 4), lambda x: np.maximum(0.0, x - 0.37) ** 2),
        # degree p+1 on C^0 cubics: the two element interpolants agree at the
        # shared knot by symmetry, so only a check off the dual points sees it
        (UnivariateSpace(3, 0, 2), lambda x: x**4),
    ]
    for sp, f in cases:
        with pytest.raises(NotInSpaceError):
            represent_exactly(sp, f)


def test_represent_drops_rounding_noise():
    # knot insertion from 4 to 8 elements has exact zeros off the band of
    # every coarse basis function; none of them may come back as 1e-17
    coarse, fine = UnivariateSpace(3, 1, 4), UnivariateSpace(3, 1, 8)
    R = represent_exactly(fine, lambda x: _basis_values(coarse, x))
    small = (R != 0) & (np.abs(R) <= 1e-13 * np.abs(R).max())
    assert not small.any()


def test_convert_roundtrip():
    coarse = UnivariateSpace(2, 1, 5)
    fine = UnivariateSpace(4, 1, 5)
    rng = np.random.default_rng(5)
    s = Spline(coarse, rng.normal(size=coarse.N))
    t = convert(s, fine)
    xs = np.linspace(0, 1, 41)
    np.testing.assert_allclose(t(xs), s(xs), atol=1e-13)


# --- dual functionals -------------------------------------------------------


@pytest.mark.parametrize(
    "p,r,n",
    [(3, 1, 4), (1, 0, 1), (3, -1, 3), (3, 3, 1), (4, 2, 3), (5, 1, 2), (5, 3, 4)],
)
def test_dual_biorthogonality(p, r, n):
    sp = UnivariateSpace(p, r, n)
    for j in range(sp.N):
        for m in range(sp.N):
            val = dual_functional(sp, j, sp.basis_function(m))
            assert abs(val - (1.0 if m == j else 0.0)) < 1e-12


def test_dual_exact_on_random_splines():
    rng = np.random.default_rng(6)
    sp = UnivariateSpace(4, 2, 6)
    c = rng.normal(size=sp.N)
    s = Spline(sp, c)
    for j in range(sp.N):
        assert abs(dual_functional(sp, j, s) - c[j]) < 1e-12


def test_dual_locality():
    sp = UnivariateSpace(3, 1, 8)
    j = 7
    e0, e1 = sp.basis_element_range(j)
    supp = (sp.breakpoints[e0], sp.breakpoints[e1 + 1])

    def f(x):
        # vanishes on the support of b_j, wiggly elsewhere
        out = np.sin(50.0 * x)
        out[(x >= supp[0]) & (x <= supp[1])] = 0.0
        return out

    assert dual_functional(sp, j, f) == 0.0


def test_local_duals_table_shapes_and_elements():
    sp = UnivariateSpace(4, 2, 3)
    duals = local_duals(sp)
    assert duals.points.shape == (sp.n, sp.p + 1)
    assert duals.weights.shape == (sp.N, sp.p + 1)
    for j, e in enumerate(duals.element):
        e0, e1 = sp.basis_element_range(j)
        assert e == (e0 + e1) // 2
    assert not duals.weights.flags.writeable
    assert local_duals(UnivariateSpace(4, 2, 3)) is duals


def test_config_rejects_multiplicity_above_p_plus_one():
    UnivariateSpace(3, -1, 3)  # discontinuous: multiplicity p+1
    with pytest.raises(InvalidConfigError):
        SpaceConfig(3, -2, 3)
    with pytest.raises(InvalidConfigError):
        UnivariateSpace(3, -3, 1)


def test_tensor_jet_matrix_matches_spline_jet():
    space = TensorSpace(UnivariateSpace(3, 1, 4))
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=space.shape + (3,))
    uv = np.vstack([rng.uniform(0, 1, (10, 2)), [[0.0, 1.0], [0.25, 0.5]]])
    for d in (0, 2):
        want = TensorSpline(space, coeffs).jet(uv, d)
        got = space.jet_matrix(uv, d) @ coeffs.reshape(-1, 3)
        np.testing.assert_allclose(got.reshape(want.shape), want, rtol=1e-13, atol=1e-12)


@pytest.mark.parametrize("extra", [(), (2,)])
def test_tensor_grid_jet_matches_spline_jet(extra):
    # unequal factors and grid lengths, so a swapped direction shows; the
    # grids hold 0, 1 and every breakpoint, where one-sided limits differ
    space = TensorSpace(UnivariateSpace(3, 1, 4), UnivariateSpace(4, 2, 3))
    rng = np.random.default_rng(6)
    coeffs = rng.normal(size=space.shape + extra)
    x1 = np.concatenate([np.arange(5) / 4, rng.uniform(0, 1, 3)])
    x2 = np.concatenate([np.arange(4) / 3, rng.uniform(0, 1, 2)])
    uv = np.column_stack([np.repeat(x1, len(x2)), np.tile(x2, len(x1))])
    spline = TensorSpline(space, coeffs)
    for d in (0, 1, 2):
        want = spline.jet(uv, d)
        got = spline.grid_jet(x1, x2, d)
        assert got.shape == want.shape
        scale = np.abs(want).max()
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * scale)
