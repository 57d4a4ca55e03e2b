import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from argyris import (
    TensorSpline,
    UnivariateSpace,
    derived_edge_spaces,
    local_duals,
    represent_exactly,
)
from argyris.bspline import _TABLES, _basis_values
from argyris.errors import DomainError, InvalidConfigError, NotInSpaceError
from conftest import pointwise_jet


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


@pytest.mark.parametrize(
    "p,r,n",
    [(3, 1, 2), (3, 1, 4), (4, 2, 3), (2, 1, 5),
     (1, 0, 3), (3, -1, 3), (4, 1, 1), (5, 1, 2), (6, 2, 3)],
)
def test_eval_matches_rational_oracle(p, r, n):
    # every order 0..p+1 (those above p read 0) at random points, at every
    # breakpoint (the right limit) and at 1 (the left limit)
    sp = UnivariateSpace(p, r, n)
    kn = oracle_knots(p, r, n)
    rng = np.random.default_rng(1)
    xs = [Fraction(q).limit_denominator(64) for q in rng.uniform(0, 1, 6)]
    xs += [Fraction(k, n) for k in range(n + 1)]
    for x in xs:
        first, ders = sp.basis_ders([float(x)], p + 1)
        for k in range(p + 2):
            for i in range(p + 1):
                ref = float(oracle_deriv(kn, first[0] + i, p, x, k))
                assert abs(ders[0, k, i] - ref) < 1e-12 * max(1.0, abs(ref))


def test_domain_error():
    sp = UnivariateSpace(3, 1, 2)
    for x in (1.5, np.nan, np.inf):
        with pytest.raises(DomainError):
            sp.basis_ders([0.5, x], 0)


def test_derivative_vs_finite_difference():
    sp = UnivariateSpace(4, 2, 5)
    rng = np.random.default_rng(2)
    c = rng.normal(size=sp.N)
    xs = rng.uniform(0.05, 0.95, 100)
    d = _basis_values(sp, xs, 1) @ c
    fd = (_basis_values(sp, xs + 1e-6) @ c - _basis_values(sp, xs - 1e-6) @ c) / 2e-6
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
    # every basis function of S+ at once, one column each; raises if one is
    # not representable
    coeffs = represent_exactly(usp, lambda x: _basis_values(splus, x))
    dcoeffs = represent_exactly(sminus, lambda x: _basis_values(splus, x, 1))
    xs = np.linspace(0, 1, 37)
    np.testing.assert_allclose(
        _basis_values(usp, xs) @ coeffs, _basis_values(splus, xs), atol=1e-13
    )
    np.testing.assert_allclose(
        _basis_values(sminus, xs) @ dcoeffs, _basis_values(splus, xs, 1), atol=1e-12 * 12
    )


# --- exact products and conversions ----------------------------------------
# A product with the linear polynomial a + b x lies in the space of one degree
# more and the same interior continuity: it is represented there exactly.


def test_multiply_constant_spline_by_x_gives_greville():
    sp, target = UnivariateSpace(3, 1, 4), UnivariateSpace(4, 1, 4)
    prod = represent_exactly(target, lambda x: x * (_basis_values(sp, x) @ np.ones(sp.N)))
    np.testing.assert_allclose(prod, target.greville(), atol=1e-13)


def test_multiply_by_one_is_degree_elevation():
    sp, target = UnivariateSpace(2, 1, 3), UnivariateSpace(3, 1, 3)
    rng = np.random.default_rng(3)
    c = rng.normal(size=sp.N)
    prod = represent_exactly(target, lambda x: _basis_values(sp, x) @ c)
    xs = np.linspace(0, 1, 50)
    np.testing.assert_allclose(
        _basis_values(target, xs) @ prod, _basis_values(sp, xs) @ c, atol=1e-13
    )


def test_multiply_bernstein_hand_expansion():
    # b0 of degree 1 is (1-x); x(1-x) has degree-2 Bernstein coefficients (0, 1/2, 0)
    sp, target = UnivariateSpace(1, 0, 1), UnivariateSpace(2, 1, 1)
    prod = represent_exactly(target, lambda x: x * _basis_values(sp, x)[:, 0])
    np.testing.assert_allclose(prod, [0.0, 0.5, 0.0], atol=1e-14)


def test_multiply_matches_pointwise_product():
    rng = np.random.default_rng(4)
    sp, target = UnivariateSpace(4, 2, 3), UnivariateSpace(5, 2, 3)
    c = rng.normal(size=sp.N)
    prod = represent_exactly(target, lambda x: (0.7 - 1.3 * x) * (_basis_values(sp, x) @ c))
    xs = rng.uniform(0, 1, 50)
    ref = (0.7 - 1.3 * xs) * (_basis_values(sp, xs) @ c)
    got = _basis_values(target, xs) @ prod
    assert np.abs(got - ref).max() < 1e-13 * max(1.0, np.abs(ref).max())


def test_represent_basis_element_is_unit_vector():
    sp = UnivariateSpace(3, 1, 4)
    c = represent_exactly(sp, lambda x: _basis_values(sp, x)[:, 2])
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


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_represent_refuses_non_finite_samples(value):
    # NaN or inf samples used to come back as non-finite coefficients, since
    # the misfit check "misfit > tol" is False for NaN
    with pytest.raises(NotInSpaceError, match="non-finite"):
        represent_exactly(UnivariateSpace(3, 1, 4), lambda x: np.full_like(x, value))


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
    c = rng.normal(size=coarse.N)
    t = represent_exactly(fine, lambda x: _basis_values(coarse, x) @ c)
    xs = np.linspace(0, 1, 41)
    np.testing.assert_allclose(
        _basis_values(fine, xs) @ t, _basis_values(coarse, xs) @ c, atol=1e-13
    )


# --- dual functionals -------------------------------------------------------


@pytest.mark.parametrize(
    "p,r,n",
    [(3, 1, 4), (1, 0, 1), (3, -1, 3), (3, 3, 1), (4, 2, 3), (5, 1, 2), (5, 3, 4)],
)
def test_dual_biorthogonality(p, r, n):
    # every dual functional on every basis function at once: the identity
    sp = UnivariateSpace(p, r, n)
    duals = local_duals(sp)
    table = duals.apply(_basis_values(sp, duals.points.ravel()))
    assert np.abs(table - np.eye(sp.N)).max() < 1e-12


def test_dual_exact_on_random_splines():
    rng = np.random.default_rng(6)
    sp = UnivariateSpace(4, 2, 6)
    c = rng.normal(size=sp.N)
    duals = local_duals(sp)
    got = duals.apply(_basis_values(sp, duals.points.ravel()) @ c)
    assert np.abs(got - c).max() < 1e-12


def test_dual_locality():
    sp = UnivariateSpace(3, 1, 8)
    j = 7
    e0, e1 = sp.basis_element_range(j)
    supp = (e0 / sp.n, (e1 + 1) / sp.n)

    def f(x):
        # vanishes on the support of b_j, wiggly elsewhere
        out = np.sin(50.0 * x)
        out[(x >= supp[0]) & (x <= supp[1])] = 0.0
        return out

    duals = local_duals(sp)
    assert duals.apply(f(duals.points.ravel()), [j]).tolist() == [0.0]


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
    for j in (-1, sp.N):
        with pytest.raises(InvalidConfigError):
            sp.basis_element_range(j)
    samples = np.zeros(duals.points.size)
    # out of range, a scalar, a 2-D array, floats
    for index in ([sp.N], [-1], 3, [[1, 2]], [1.0]):
        with pytest.raises(InvalidConfigError):
            duals.apply(samples, index)
    with pytest.raises(InvalidConfigError):
        duals.apply(np.zeros(duals.points.size + 1))


def test_config_rejects_multiplicity_above_p_plus_one():
    UnivariateSpace(3, -1, 3)  # discontinuous: multiplicity p+1
    with pytest.raises(InvalidConfigError):
        UnivariateSpace(3, -2, 3)
    with pytest.raises(InvalidConfigError):
        UnivariateSpace(3, -3, 1)


def test_tensor_jet_matches_spline_jet():
    space = UnivariateSpace(3, 1, 4)
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=(space.N, space.N, 3))
    uv = np.vstack([rng.uniform(0, 1, (10, 2)), [[0.0, 1.0], [0.25, 0.5]]])
    for d in (0, 2):
        want = pointwise_jet(space, coeffs, uv, d)
        # each point alone, as a 1 x 1 tensor grid (sum factorization)
        for q, (u, v) in enumerate(uv):
            one = TensorSpline(space, coeffs).grid_jet([u], [v], d)[0]
            np.testing.assert_allclose(one, want[q], rtol=1e-13, atol=1e-12)


@pytest.mark.parametrize("extra", [(), (2,)])
def test_tensor_grid_jet_matches_spline_jet(extra):
    # unequal grid lengths in both orders and asymmetric coefficients, so a
    # swapped direction in the flipped contraction shows; the grids hold 0, 1
    # and every breakpoint, where one-sided limits differ
    space = UnivariateSpace(3, 1, 4)
    rng = np.random.default_rng(6)
    coeffs = rng.normal(size=(space.N, space.N) + extra)
    assert np.abs(coeffs - coeffs.swapaxes(0, 1)).max() > 1.0
    breaks = np.arange(5) / 4
    long = np.concatenate([breaks, rng.uniform(0, 1, 3)])
    short = np.concatenate([breaks[::-1], rng.uniform(0, 1, 1)])
    spline = TensorSpline(space, coeffs)
    for x1, x2 in ((long, short), (short, long)):
        uv = np.column_stack([np.repeat(x1, len(x2)), np.tile(x2, len(x1))])
        for d in (0, 1, 2):
            want = pointwise_jet(space, coeffs, uv, d)
            got = spline.grid_jet(x1, x2, d)
            assert got.shape == want.shape
            scale = np.abs(want).max()
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * scale)


def test_basis_tables_are_shared_read_only_and_bounded():
    space = UnivariateSpace(3, 1, 8)
    rng = np.random.default_rng(11)
    x = np.concatenate([np.arange(9) / 8, rng.uniform(0, 1, 20)])
    for d in (0, 1, 2):
        table = _basis_values(space, x, d)
        first, ders = space.basis_ders(x, d)
        fresh = np.zeros((len(x), space.N))
        for q in range(len(x)):
            fresh[q, first[q] : first[q] + 4] = ders[q, d]
        np.testing.assert_array_equal(table, fresh)
        assert _basis_values(space, x.copy(), d) is table
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
    # distinct point sets, each about 1.2 MB, and one above the whole bound
    for k in range(20):
        _basis_values(space, rng.uniform(0, 1, 8000), k % 2)
        assert _TABLES.nbytes <= _TABLES.limit
    big = rng.uniform(0, 1, _TABLES.limit // (8 * space.N) + 1)
    assert _basis_values(space, big).shape == (len(big), space.N)
    assert _TABLES.nbytes <= _TABLES.limit
    assert _TABLES.nbytes == sum(t.nbytes for t in _TABLES._tables.values())


def test_basis_tables_under_concurrent_callers():
    # more threads than cores, switching often, on shared and private point
    # sets; a lost update would leave the byte count off the stored tables
    space = UnivariateSpace(3, 1, 8)
    shared = np.linspace(0.0, 1.0, 3000)
    want = _basis_values(space, shared).copy()
    errors = []

    def work(seed):
        rng = np.random.default_rng(seed)
        try:
            for k in range(30):
                np.testing.assert_array_equal(_basis_values(space, shared), want)
                _basis_values(space, rng.uniform(0, 1, 4000), k % 3)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert _TABLES.nbytes == sum(t.nbytes for t in _TABLES._tables.values())
    assert _TABLES.nbytes <= _TABLES.limit
