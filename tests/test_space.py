import numpy as np
import pytest

from argyris import (
    ArgyrisSpace,
    C2Data,
    SpaceConfig,
    builtin_geometry,
    physical_derivatives,
    space_dimension,
    refine,
)
from argyris.errors import InvalidConfigError
from argyris.multipatch import CORNER_UV, rotate_uv
from conftest import square_grid_geometry


def ids_of_kind(space, kind, owner=None):
    return [
        a
        for a, fn in enumerate(space.functions)
        if fn.id.kind == kind and (owner is None or fn.id.owner == owner)
    ]


# --- dimensions ---------------------------------------------------------------


def test_patch_interior_count(sp_three):
    # p=3, r=1, n=4: N = 10, so (N-4)^2 = 36 interior functions per patch
    assert sp_three.N == 10
    assert len(ids_of_kind(sp_three, "patch", 0)) == 36


def test_edge_function_count_and_indices(sp_three):
    eid = sp_three.geometry.interfaces()[0].id
    ids = [sp_three.functions[a].id.index for a in ids_of_kind(sp_three, "edge", eid)]
    assert ids == [(3, 0), (2, 1), (3, 1)]


def test_vertex_function_count(sp_three):
    for v in sp_three.geometry.vertices:
        assert len(ids_of_kind(sp_three, "vertex", v.id)) == 6


@pytest.mark.parametrize(
    "n,expected", [(4, 177), (8, 729), (16, 2985), (32, 12105)]
)
def test_three_patch_dimensions(mp_three, n, expected):
    mp = mp_three
    while mp.config.n < n:
        mp = refine(mp, 2)
    total, parts = space_dimension(mp)
    assert total == expected


@pytest.mark.parametrize("n,expected", [(4, 291), (8, 1211), (16, 4971), (32, 20171)])
def test_five_patch_dimensions(mp_five, n, expected):
    mp = mp_five
    while mp.config.n < n:
        mp = refine(mp, 2)
    assert space_dimension(mp)[0] == expected


def test_dimension_matches_enumeration(sp_two, sp_three):
    for sp in (sp_two, sp_three):
        total, parts = sp.dimension()
        assert total == len(sp.functions) == sum(parts.values())


def test_config_guards():
    with pytest.raises(InvalidConfigError):
        ArgyrisSpace(builtin_geometry("two_patch_bilinear", SpaceConfig(3, 1, 2)))
    with pytest.raises(InvalidConfigError):
        space_dimension(builtin_geometry("two_patch_bilinear", SpaceConfig(3, 2, 8)))


# --- patch-interior functions ---------------------------------------------------


def test_patch_functions_vanish_on_patch_boundary(sp_three):
    mp = sp_three.geometry
    t = np.linspace(0, 1, 25)
    z = np.zeros_like(t)
    o = np.ones_like(t)
    boundary_uv = np.concatenate(
        [
            np.column_stack(c)
            for c in [(z, t), (o, t), (t, z), (t, o)]
        ]
    )
    gj = mp.patches[0].jet(boundary_uv, 2)
    for a in ids_of_kind(sp_three, "patch", 0)[:8]:
        fj = sp_three.function_jet(a, 0, boundary_uv, 2)
        val, grad, _ = physical_derivatives(gj, fj)
        assert np.abs(val).max() < 1e-13
        assert np.abs(grad).max() < 1e-13


def test_patch_function_is_mapped_bspline(sp_three):
    a = ids_of_kind(sp_three, "patch", 1)[0]
    j1, j2 = sp_three.functions[a].id.index
    g = sp_three.usp.greville()
    uv = np.array([[g[j1], g[j2]]])
    got = sp_three.function_jet(a, 1, uv, 0)[0, 0, 0]
    _, d1 = sp_three.usp.basis_ders(uv[:, 0], 0)
    _, d2 = sp_three.usp.basis_ders(uv[:, 1], 0)
    f1, _ = sp_three.usp.basis_ders(uv[:, 0], 0)
    want = (
        sp_three.usp.basis_function(j1)(uv[:, 0])
        * sp_three.usp.basis_function(j2)(uv[:, 1])
    )[0]
    assert abs(got - want) < 1e-14


# --- edge functions -------------------------------------------------------------


def edge_sample_frames(mp, e, t):
    (i1, k1), (i2, k2) = e.locals
    uv1 = rotate_uv(np.column_stack([np.zeros_like(t), t]), k1)
    uv2 = rotate_uv(np.column_stack([t, np.zeros_like(t)]), (k2 - 1) % 4)
    return (i1, uv1), (i2, uv2)


def test_interface_functions_are_c1(sp_three):
    mp = sp_three.geometry
    t = np.linspace(0, 1, 200)
    for e in mp.interfaces():
        (i1, uv1), (i2, uv2) = edge_sample_frames(mp, e, t)
        gj1 = mp.patches[i1].jet(uv1, 2)
        gj2 = mp.patches[i2].jet(uv2, 2)
        for a in ids_of_kind(sp_three, "edge", e.id):
            v1, g1, _ = physical_derivatives(gj1, sp_three.function_jet(a, i1, uv1, 2))
            v2, g2, _ = physical_derivatives(gj2, sp_three.function_jet(a, i2, uv2, 2))
            assert np.abs(v1 - v2).max() < 1e-10
            assert np.abs(g1 - g2).max() < 1e-10


def test_edge_functions_vanish_to_second_order_at_endpoints(sp_three):
    mp = sp_three.geometry
    ends = np.array([[0.0], [1.0]])
    for e in mp.edges:
        asm = sp_three.edge_assembly[e.id]
        i1, rot = asm.side1
        uv = rotate_uv(np.column_stack([np.zeros_like(ends[:, 0]), ends[:, 0]]), rot)
        gj = mp.patches[i1].jet(uv, 2)
        for a in ids_of_kind(sp_three, "edge", e.id):
            fj = sp_three.function_jet(a, i1, uv, 2)
            val, grad, hess = physical_derivatives(gj, fj)
            assert np.abs(val).max() < 1e-11
            assert np.abs(grad).max() < 1e-11
            assert np.abs(hess).max() < 1e-11


def test_edge_trace_and_transversal_reproduction(sp_three):
    # trace of the (j,0) function along the interface equals b+_j; the scaled
    # transversal derivative of the (j,1) function equals b-_j
    from argyris.gluing import transversal_vector

    mp = sp_three.geometry
    t = np.linspace(0, 1, 60)
    hp = sp_three.config.h / sp_three.config.p
    for e in mp.interfaces():
        asm = sp_three.edge_assembly[e.id]
        i1, rot = asm.side1
        uv = rotate_uv(np.column_stack([np.zeros_like(t), t]), rot)
        gj = mp.patches[i1].jet(uv, 2)
        d, _ = transversal_vector(asm.gluing, asm.P1, t)
        for a in ids_of_kind(sp_three, "edge", e.id):
            j, s = sp_three.functions[a].id.index
            fj = sp_three.function_jet(a, i1, uv, 2)
            val, grad, _ = physical_derivatives(gj, fj)
            if s == 0:
                want = sp_three.splus.basis_function(j)(t)
                assert np.abs(val - want).max() < 1e-10
            else:
                got = hp * np.einsum("mi,mi->m", grad, d)
                want = sp_three.sminus.basis_function(j)(t)
                assert np.abs(got - want).max() < 1e-10
                assert np.abs(val).max() < 1e-12


# --- vertex functions -----------------------------------------------------------


def test_vertex_projector_annihilates_zero(sp_three):
    fn = sp_three.vertex_projector(0, C2Data(0.0, np.zeros(2), np.zeros((2, 2))))
    assert fn.support == set()


def test_vertex_projector_value_slot_on_grid(cfg4, mp_grid22):
    sp = ArgyrisSpace(mp_grid22)
    v = [v for v in mp_grid22.vertices if v.is_interior][0]
    fn = sp.vertex_projector(v.id, C2Data(1.0, np.zeros(2), np.zeros((2, 2))))
    assert len(fn.support) == 4
    for ip, c in v.corners:
        uv = CORNER_UV[c : c + 1]
        gj = mp_grid22.patches[ip].jet(uv, 2)
        grid = fn.dense_grid(sp.shape, ip)
        from argyris import TensorSpace, TensorSpline

        fj = TensorSpline(TensorSpace(sp.usp), grid).jet(uv, 2)
        val, grad, hess = physical_derivatives(gj, fj)
        assert abs(val[0] - 1.0) < 1e-11
        assert np.abs(grad).max() < 1e-11
        assert np.abs(hess).max() < 1e-11


def test_vertex_projector_mixed_hessian_slot(sp_three):
    mp = sp_three.geometry
    v = [v for v in mp.vertices if v.is_interior][0]
    H = np.array([[0.0, 1.0], [1.0, 0.0]])
    fn = sp_three.vertex_projector(v.id, C2Data(0.0, np.zeros(2), H))
    from argyris import TensorSpace, TensorSpline

    for ip, c in v.corners:
        uv = CORNER_UV[c : c + 1]
        gj = mp.patches[ip].jet(uv, 2)
        fj = TensorSpline(
            TensorSpace(sp_three.usp), fn.dense_grid(sp_three.shape, ip)
        ).jet(uv, 2)
        val, grad, hess = physical_derivatives(gj, fj)
        assert abs(val[0]) < 1e-9
        assert np.abs(grad).max() < 1e-9
        assert abs(hess[0, 0, 1] - 1.0) < 1e-9
        assert abs(hess[0, 0, 0]) < 1e-9 and abs(hess[0, 1, 1]) < 1e-9
    # C1 across the three incident interfaces
    t = np.linspace(0, 1, 200)
    for e in mp.interfaces():
        (i1, k1), (i2, k2) = e.locals
        uv1 = rotate_uv(np.column_stack([np.zeros_like(t), t]), k1)
        uv2 = rotate_uv(np.column_stack([t, np.zeros_like(t)]), (k2 - 1) % 4)
        gj1 = mp.patches[i1].jet(uv1, 2)
        gj2 = mp.patches[i2].jet(uv2, 2)
        f1 = TensorSpline(
            TensorSpace(sp_three.usp), fn.dense_grid(sp_three.shape, i1)
        ).jet(uv1, 2)
        f2 = TensorSpline(
            TensorSpace(sp_three.usp), fn.dense_grid(sp_three.shape, i2)
        ).jet(uv2, 2)
        v1, g1, _ = physical_derivatives(gj1, f1)
        v2, g2, _ = physical_derivatives(gj2, f2)
        assert np.abs(v1 - v2).max() < 1e-9
        assert np.abs(g1 - g2).max() < 1e-9


@pytest.mark.parametrize(
    "fixture",
    ["mp_two", "mp_three", "mp_five", "mp_lshape", "mp_curved", "mp_asymmetric"],
)
def test_vertex_delta_property(request, fixture):
    # covers boundary vertices (first and last slots) and nonzero alpha slopes
    from argyris.space import VERTEX_INDEX_ORDER

    sp = ArgyrisSpace(request.getfixturevalue(fixture))
    mp = sp.geometry
    for v in mp.vertices:
        sig = sp.sigma(v.id)
        for (j1, j2) in VERTEX_INDEX_ORDER:
            a = sp.index_of[
                next(
                    fid
                    for fid in sp.index_of
                    if fid.kind == "vertex" and fid.owner == v.id and fid.index == (j1, j2)
                )
            ]
            for ip, c in v.corners:
                uv = CORNER_UV[c : c + 1]
                gj = mp.patches[ip].jet(uv, 2)
                fj = sp.function_jet(a, ip, uv, 2)
                val, grad, hess = physical_derivatives(gj, fj)
                got = {
                    (0, 0): val[0],
                    (1, 0): grad[0, 0],
                    (0, 1): grad[0, 1],
                    (2, 0): hess[0, 0, 0],
                    (1, 1): hess[0, 0, 1],
                    (0, 2): hess[0, 1, 1],
                }
                for m, value in got.items():
                    want = sig ** (j1 + j2) if m == (j1, j2) else 0.0
                    assert abs(value - want) < 1e-9 * max(1.0, sig ** (j1 + j2))


def test_vertex_queries_reject_unknown_ids(sp_three):
    data = C2Data(1.0, np.zeros(2), np.zeros((2, 2)))
    for vid in (-1, len(sp_three.geometry.vertices), 99):
        with pytest.raises(InvalidConfigError):
            sp_three.sigma(vid)
        with pytest.raises(InvalidConfigError):
            sp_three.vertex_projector(vid, data)


@pytest.mark.parametrize(
    "value,grad,hess",
    [
        (np.nan, np.zeros(2), np.zeros((2, 2))),
        (np.inf, np.zeros(2), np.zeros((2, 2))),
        (0.0, [1.0, np.nan], np.zeros((2, 2))),
        (0.0, np.zeros(2), [[np.inf, 0.0], [0.0, 1.0]]),
        (0.0, np.zeros(2), [[1.0, np.nan], [np.nan, 1.0]]),
    ],
)
def test_c2data_rejects_non_finite_entries(value, grad, hess):
    # NaN data used to give NaN vertex-projector coefficients
    with pytest.raises(InvalidConfigError):
        C2Data(value, grad, hess)


def test_sigma_formula_on_unit_grid():
    cfg = SpaceConfig(3, 1, 2)  # h = 1/2
    mp = square_grid_geometry(cfg, 2, 2)
    # refine to satisfy the mesh assumption? n=2 < 3 violates it; use n=4, h=1/4
    cfg = SpaceConfig(3, 1, 4)
    mp = square_grid_geometry(cfg, 2, 2)
    sp = ArgyrisSpace(mp)
    v = [v for v in mp.vertices if v.is_interior][0]
    # identity-like patches: Frobenius norm of the gradient is sqrt(2),
    # so sigma = p / (h * sqrt(2))
    want = cfg.p / (cfg.h * np.sqrt(2.0))
    assert abs(sp.sigma(v.id) - want) < 1e-12


# --- evaluation -----------------------------------------------------------------


@pytest.mark.parametrize("p,r,n", [(3, 1, 4), (4, 2, 3)])
@pytest.mark.parametrize(
    "name",
    ["two_patch_bilinear", "three_patch_bilinear", "five_patch_bilinear",
     "lshape_bilinear", "two_patch_curved_asg1"],
)
def test_extraction_matrices_are_canonical_without_stored_zeros(name, p, r, n):
    # stored zeros or duplicates would change the mass sparsity and CG cost
    sp = ArgyrisSpace(builtin_geometry(name, SpaceConfig(p, r, n)))
    for C in sp.C:
        assert C.has_canonical_format
        assert C.nnz == np.count_nonzero(C.data)


def test_fixed_maps_hold_no_rounding_noise(sp_three):
    # exact zeros stay zeros in the 1D maps every extraction column goes through
    for name in ("_rep_plus", "_der_plus", "_E", "_X", "_aplus", "_aminus", "_corner_map"):
        a = getattr(sp_three, name)
        small = (a != 0) & (np.abs(a) <= 1e-13 * max(1.0, np.abs(a).max()))
        assert not small.any(), name


@pytest.mark.parametrize("p,r,n", [(3, 1, 4), (4, 2, 3)])
@pytest.mark.parametrize("name", ["two_patch_bilinear", "lshape_bilinear"])
def test_extraction_matrices_store_no_rounding_noise(name, p, r, n):
    # on axis-aligned squares every exact zero of C comes out as 0; fans keep
    # a few tiny entries that their trigonometric corner data really hold
    sp = ArgyrisSpace(builtin_geometry(name, SpaceConfig(p, r, n)))
    top = max(np.abs(C.data).max() for C in sp.C)
    for C in sp.C:
        assert np.abs(C.data).min() >= 1e-14 * top


def test_evaluate_unit_vector_matches_basis(sp_three):
    a = ids_of_kind(sp_three, "patch", 2)[5]
    j1, j2 = sp_three.functions[a].id.index
    c = np.zeros(sp_three.dim)
    c[a] = 1.0
    rng = np.random.default_rng(0)
    uv = rng.uniform(0, 1, (20, 2))
    got = sp_three.evaluate(c, 2, uv, 0)[:, 0, 0]
    want = sp_three.usp.basis_function(j1)(uv[:, 0]) * sp_three.usp.basis_function(
        j2
    )(uv[:, 1])
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_coefficient_matrix_is_columnwise(sp_three):
    rng = np.random.default_rng(3)
    c = rng.normal(size=(sp_three.dim, 2))
    uv = rng.uniform(0, 1, (7, 2))
    grids = sp_three.combine(c, 1)
    jets = sp_three.evaluate(c, 1, uv, 2)
    for k in range(2):
        np.testing.assert_array_equal(grids[..., k], sp_three.combine(c[:, k], 1))
        np.testing.assert_allclose(
            jets[..., k], sp_three.evaluate(c[:, k], 1, uv, 2), rtol=0, atol=1e-12
        )


def test_linear_products_match_exact_representation(sp_three):
    # (a + b x) v for an S- spline v, from the fixed E/X matrices, against a
    # fresh exact representation of the sampled product
    from argyris import represent_exactly

    sm = sp_three.sminus
    v = np.random.default_rng(4).normal(size=sm.N)
    lin = np.array([0.7, -1.3])
    want = represent_exactly(
        sp_three.usp, lambda x: (lin[0] + lin[1] * x) * sm.spline(v)(x)
    )
    np.testing.assert_allclose(sp_three._mult_rep(v, lin), want, rtol=0, atol=1e-13)


def test_evaluate_zero_coeffs(sp_three):
    c = np.zeros(sp_three.dim)
    uv = np.array([[0.3, 0.7]])
    assert sp_three.evaluate(c, 0, uv, 1).max() == 0.0


def test_evaluate_gradient_vs_finite_difference(sp_three):
    mp = sp_three.geometry
    rng = np.random.default_rng(1)
    c = rng.normal(size=sp_three.dim)
    uv = rng.uniform(0.05, 0.95, (20, 2))
    eps = 1e-6
    for i in range(3):
        jet = sp_three.evaluate(c, i, uv, 2)
        gj = mp.patches[i].jet(uv, 2)
        _, grad, _ = physical_derivatives(gj, jet)
        # physical finite difference through the inverse-free parametric route
        for axis in range(2):
            d = np.zeros(2)
            d[axis] = eps
            fp = sp_three.evaluate(c, i, uv + d, 0)[:, 0, 0]
            fm = sp_three.evaluate(c, i, uv - d, 0)[:, 0, 0]
            par = (fp - fm) / (2 * eps)
            want = jet[:, 1, 0] if axis == 0 else jet[:, 0, 1]
            assert np.abs(par - want).max() < 1e-6 * max(1.0, np.abs(par).max())


def test_evaluate_validates_patch_index(sp_three):
    with pytest.raises(InvalidConfigError):
        sp_three.evaluate(np.zeros(sp_three.dim), 17, np.array([[0.5, 0.5]]))


@pytest.mark.parametrize("p,r,n", [(5, 2, 2), (4, 1, 2), (4, 2, 3)])
def test_other_degrees_stay_smooth(p, r, n):
    from argyris import builtin_geometry, smoothness_report

    mp = builtin_geometry("three_patch_bilinear", SpaceConfig(p, r, n))
    sp = ArgyrisSpace(mp)
    total, parts = space_dimension(mp)
    assert total == sp.dim
    rep = smoothness_report(sp, samples_per_edge=60)
    assert rep.max_c1_jump < 1e-9
    assert rep.max_c2_jump < 1e-8


def test_linear_alpha_interface_space(mp_asymmetric):
    # exercises nonzero alpha slopes in the edge and vertex constructions
    from argyris import biorthogonality_matrix, fit_asg1, smoothness_report
    from argyris.multipatch import standard_form_edge

    g = fit_asg1(*standard_form_edge(mp_asymmetric, mp_asymmetric.interfaces()[0]))
    assert abs(g.alpha1[1]) > 1e-3 and abs(g.alpha2[1]) > 1e-3
    assert np.abs(g.beta1).max() > 1e-3 and np.abs(g.beta2).max() > 1e-3

    sp = ArgyrisSpace(mp_asymmetric)
    rep = smoothness_report(sp, samples_per_edge=150)
    assert rep.max_c1_jump < 1e-9
    assert rep.max_c2_jump < 1e-8
    M = biorthogonality_matrix(sp)
    assert np.abs(M - np.eye(sp.dim)).max() < 1e-9


@pytest.mark.parametrize(
    "fixture",
    ["mp_two", "mp_three", "mp_five", "mp_lshape", "mp_curved", "mp_asymmetric"],
)
def test_vertex_slots_reuse_edge_gluing(request, fixture):
    # each interface is fitted once; every vertex slot, in either orientation,
    # must carry the data a fresh fit of its own patch pair gives
    from argyris import fit_asg1

    sp = ArgyrisSpace(request.getfixturevalue(fixture))
    checked = 0
    for asm in sp.vertex_assembly.values():
        nu = asm.vertex.valence
        for ell, slot in enumerate(asm.slots):
            if not (asm.vertex.is_interior or 0 < ell < nu):
                continue
            g = fit_asg1(asm.rotated[ell - 1], asm.rotated[ell % nu])
            for got, want in (
                (slot.a1, g.alpha1), (slot.b1, g.beta1),
                (slot.a2, g.alpha2), (slot.b2, g.beta2),
            ):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
            checked += 1
    assert checked > 0
