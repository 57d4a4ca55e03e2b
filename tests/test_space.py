import numpy as np
import pytest

from argyris import (
    ArgyrisSpace,
    C2Data,
    builtin_geometry,
    physical_derivatives,
    space_dimension,
    refine,
)
from argyris.errors import InvalidConfigError
from argyris.bspline import _basis_values
from argyris.gluing import _transversal_from_jet
from argyris.multipatch import CORNER_UV, edge_frames
from argyris.space import _PRODUCT_ROWS, BasisId, CSRMatrix, VERTEX_INDEX_ORDER, _edge_index_set
from argyris import TensorSpline, UnivariateSpace, bspline, load_geometry, save_geometry
from argyris.errors import TopologyError
from argyris.multipatch import MultiPatch, Patch, VertexRecord
from conftest import member_jet, pointwise_jet, rotate_grid, square_grid_geometry

AS_G1_BUILTINS = (
    "two_patch_bilinear",
    "three_patch_bilinear",
    "five_patch_bilinear",
    "lshape_bilinear",
    "two_patch_curved_asg1",
)


def turned(x1, x2, k):
    """Points (m, 2) of the side or corner grid x1 x x2 after k quarter turns."""
    return np.column_stack(np.broadcast_arrays(*rotate_grid(x1, x2, k)))


def ids_of_kind(space, kind, owner=None):
    return [
        a
        for a, fid in enumerate(map(space.basis_id, range(space.dim)))
        if fid.kind == kind and (owner is None or fid.owner == owner)
    ]


def unit(space, a):
    """Coefficient vector of basis function a."""
    e = np.zeros(space.dim)
    e[a] = 1.0
    return e


def support(space, c):
    """Patches on which the member with coefficients c is not identically zero."""
    return {i for i in range(len(space.geometry.patches)) if (space.extraction(i) @ c).any()}


# --- dimensions ---------------------------------------------------------------


def test_patch_interior_count(sp_three):
    # p=3, r=1, n=4: N = 10, so (N-4)^2 = 36 interior functions per patch
    assert sp_three.N == 10
    assert len(ids_of_kind(sp_three, "patch", 0)) == 36


def test_edge_function_count_and_indices(sp_three):
    eid = sp_three.geometry.interfaces()[0].id
    ids = [sp_three.basis_id(a).index for a in ids_of_kind(sp_three, "edge", eid)]
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
        mp = refine(mp)
    total, parts = space_dimension(mp)
    assert total == expected


@pytest.mark.parametrize("n,expected", [(4, 291), (8, 1211), (16, 4971), (32, 20171)])
def test_five_patch_dimensions(mp_five, n, expected):
    mp = mp_five
    while mp.config.n < n:
        mp = refine(mp)
    assert space_dimension(mp)[0] == expected


def test_dimension_matches_enumeration(sp_two, sp_three):
    for sp in (sp_two, sp_three):
        total, parts = sp.dim, sp.breakdown
        assert total == sp.C.shape[1] == sum(parts.values())


@pytest.mark.parametrize("p,r,n", [(3, 1, 4), (4, 2, 3)])
@pytest.mark.parametrize("name", AS_G1_BUILTINS)
def test_entity_blocks_number_the_basis(name, p, r, n):
    # the blocks tile 0..dim-1 patch by patch, then edge by edge, then vertex
    # by vertex; basis_id names every column after the block holding it, and
    # each column lives on the patches that touch its entity only
    mp = builtin_geometry(name, UnivariateSpace(p, r, n))
    sp = ArgyrisSpace(mp)
    N = sp.N
    entities = [("patch", i, [(j1, j2) for j1 in range(2, N - 2) for j2 in range(2, N - 2)],
                 {i}) for i in range(len(mp.patches))]
    entities += [("edge", e.id, _edge_index_set(sp.sminus.N), {ip for ip, _ in e.locals})
                 for e in mp.edges]
    entities += [("vertex", v.id, list(VERTEX_INDEX_ORDER), {ip for ip, _ in v.corners})
                 for v in mp.vertices]
    lives_on = [np.bincount(sp.extraction(i).indices, minlength=sp.dim) > 0
                for i in range(len(mp.patches))]  # (dim,) per patch
    stop = 0
    for kind, owner, indices, patches in entities:
        block = sp.block(kind, owner)
        assert (block.start, block.stop) == (stop, stop + len(indices))
        stop = block.stop
        for a, index in zip(range(block.start, block.stop), indices):
            assert sp.basis_id(a) == BasisId(kind, owner, index)
            on = {i for i, mask in enumerate(lives_on) if mask[a]}
            assert on and on <= patches
    assert stop == sp.dim
    for a in (sp.dim, -1):
        with pytest.raises(InvalidConfigError):
            sp.basis_id(a)
    for kind, owner in [("patch", -1), ("patch", len(mp.patches)), ("edge", len(mp.edges)),
                        ("vertex", -1), ("vertex", len(mp.vertices)), ("corner", 0)]:
        with pytest.raises(InvalidConfigError):
            sp.block(kind, owner)


def test_config_guards():
    with pytest.raises(InvalidConfigError):
        ArgyrisSpace(builtin_geometry("two_patch_bilinear", UnivariateSpace(3, 1, 2)))
    with pytest.raises(InvalidConfigError):
        space_dimension(builtin_geometry("two_patch_bilinear", UnivariateSpace(3, 2, 8)))


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
    gj = pointwise_jet(mp.patches[0].space, mp.patches[0].net, boundary_uv, 2)
    for a in ids_of_kind(sp_three, "patch", 0)[:8]:
        fj = member_jet(sp_three, unit(sp_three, a), 0, boundary_uv, 2)
        val, grad, _ = physical_derivatives(gj, fj)
        assert np.abs(val).max() < 1e-13
        assert np.abs(grad).max() < 1e-13


def test_patch_function_is_mapped_bspline(sp_three):
    a = ids_of_kind(sp_three, "patch", 1)[0]
    j1, j2 = sp_three.basis_id(a).index
    g = sp_three.config.greville()
    uv = np.array([[g[j1], g[j2]]])
    got = member_jet(sp_three, unit(sp_three, a), 1, uv, 0)[0, 0, 0]
    _, d1 = sp_three.config.basis_ders(uv[:, 0], 0)
    _, d2 = sp_three.config.basis_ders(uv[:, 1], 0)
    f1, _ = sp_three.config.basis_ders(uv[:, 0], 0)
    want = (
        _basis_values(sp_three.config, uv[:, 0])[:, j1]
        * _basis_values(sp_three.config, uv[:, 1])[:, j2]
    )[0]
    assert abs(got - want) < 1e-14


# --- edge functions -------------------------------------------------------------


def edge_sample_frames(mp, e, t):
    (i1, k1), (i2, k2) = e.locals
    uv1 = turned(0.0, t, k1)
    uv2 = turned(t, 0.0, (k2 - 1) % 4)
    return (i1, uv1), (i2, uv2)


def test_interface_functions_are_c1(sp_three):
    mp = sp_three.geometry
    t = np.linspace(0, 1, 200)
    for e in mp.interfaces():
        (i1, uv1), (i2, uv2) = edge_sample_frames(mp, e, t)
        gj1 = pointwise_jet(mp.patches[i1].space, mp.patches[i1].net, uv1, 2)
        gj2 = pointwise_jet(mp.patches[i2].space, mp.patches[i2].net, uv2, 2)
        for a in ids_of_kind(sp_three, "edge", e.id):
            e = unit(sp_three, a)
            v1, g1, _ = physical_derivatives(gj1, member_jet(sp_three, e, i1, uv1, 2))
            v2, g2, _ = physical_derivatives(gj2, member_jet(sp_three, e, i2, uv2, 2))
            assert np.abs(v1 - v2).max() < 1e-10
            assert np.abs(g1 - g2).max() < 1e-10


def test_edge_functions_vanish_to_second_order_at_endpoints(sp_three):
    mp = sp_three.geometry
    ends = np.array([[0.0], [1.0]])
    for e in mp.edges:
        (i1, rot), *_ = edge_frames(e)
        uv = turned(0.0, ends[:, 0], rot)
        gj = pointwise_jet(mp.patches[i1].space, mp.patches[i1].net, uv, 2)
        for a in ids_of_kind(sp_three, "edge", e.id):
            fj = member_jet(sp_three, unit(sp_three, a), i1, uv, 2)
            val, grad, hess = physical_derivatives(gj, fj)
            assert np.abs(val).max() < 1e-11
            assert np.abs(grad).max() < 1e-11
            assert np.abs(hess).max() < 1e-11


def test_edge_trace_and_transversal_reproduction(sp_three):
    # trace of the (j,0) function along the interface equals b+_j; the scaled
    # transversal derivative of the (j,1) function equals b-_j
    mp = sp_three.geometry
    t = np.linspace(0, 1, 60)
    hp = sp_three.config.h / sp_three.config.p
    for e in mp.interfaces():
        (i1, rot), *_ = edge_frames(e)
        uv = turned(0.0, t, rot)
        gj = pointwise_jet(mp.patches[i1].space, mp.patches[i1].net, uv, 2)
        jet = mp.patches[i1].rotate(rot).grid_jet([0.0], t, 2)
        g = sp_three.gluing[e.id]
        d, _ = _transversal_from_jet(g.alpha1, g.beta1, jet, t)
        for a in ids_of_kind(sp_three, "edge", e.id):
            j, s = sp_three.basis_id(a).index
            fj = member_jet(sp_three, unit(sp_three, a), i1, uv, 2)
            val, grad, _ = physical_derivatives(gj, fj)
            if s == 0:
                want = _basis_values(sp_three.splus, t)[:, j]
                assert np.abs(val - want).max() < 1e-10
            else:
                got = hp * np.einsum("mi,mi->m", grad, d)
                want = _basis_values(sp_three.sminus, t)[:, j]
                assert np.abs(got - want).max() < 1e-10
                assert np.abs(val).max() < 1e-12


# --- vertex functions -----------------------------------------------------------


def test_vertex_projector_annihilates_zero(sp_three):
    c = sp_three.vertex_projector(0, C2Data(0.0, np.zeros(2), np.zeros((2, 2))))
    assert support(sp_three, c) == set()


def test_vertex_projector_value_slot_on_grid(cfg4, mp_grid22):
    sp = ArgyrisSpace(mp_grid22)
    v = [v for v in mp_grid22.vertices if v.is_interior][0]
    c = sp.vertex_projector(v.id, C2Data(1.0, np.zeros(2), np.zeros((2, 2))))
    assert len(support(sp, c)) == 4
    for ip, corner in v.corners:
        uv = CORNER_UV[corner : corner + 1]
        gj = pointwise_jet(mp_grid22.patches[ip].space, mp_grid22.patches[ip].net, uv, 2)
        grid = sp.combine(c, ip)
        fj = pointwise_jet(sp.config, grid, uv, 2)
        val, grad, hess = physical_derivatives(gj, fj)
        assert abs(val[0] - 1.0) < 1e-11
        assert np.abs(grad).max() < 1e-11
        assert np.abs(hess).max() < 1e-11


def test_vertex_projector_mixed_hessian_slot(sp_three):
    mp = sp_three.geometry
    v = [v for v in mp.vertices if v.is_interior][0]
    H = np.array([[0.0, 1.0], [1.0, 0.0]])
    c = sp_three.vertex_projector(v.id, C2Data(0.0, np.zeros(2), H))
    for ip, corner in v.corners:
        uv = CORNER_UV[corner : corner + 1]
        gj = pointwise_jet(mp.patches[ip].space, mp.patches[ip].net, uv, 2)
        fj = pointwise_jet(sp_three.config, sp_three.combine(c, ip), uv, 2)
        val, grad, hess = physical_derivatives(gj, fj)
        assert abs(val[0]) < 1e-9
        assert np.abs(grad).max() < 1e-9
        assert abs(hess[0, 0, 1] - 1.0) < 1e-9
        assert abs(hess[0, 0, 0]) < 1e-9 and abs(hess[0, 1, 1]) < 1e-9
    # C1 across the three incident interfaces
    t = np.linspace(0, 1, 200)
    for e in mp.interfaces():
        (i1, k1), (i2, k2) = e.locals
        uv1 = turned(0.0, t, k1)
        uv2 = turned(t, 0.0, (k2 - 1) % 4)
        gj1 = pointwise_jet(mp.patches[i1].space, mp.patches[i1].net, uv1, 2)
        gj2 = pointwise_jet(mp.patches[i2].space, mp.patches[i2].net, uv2, 2)
        f1 = pointwise_jet(sp_three.config, sp_three.combine(c, i1), uv1, 2)
        f2 = pointwise_jet(sp_three.config, sp_three.combine(c, i2), uv2, 2)
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
    sp = ArgyrisSpace(request.getfixturevalue(fixture))
    mp = sp.geometry
    for v in mp.vertices:
        sig = sp.sigma(v.id)
        for (j1, j2) in VERTEX_INDEX_ORDER:
            a = next(
                a for a in range(sp.dim)
                if sp.basis_id(a) == BasisId("vertex", v.id, (j1, j2))
            )
            for ip, c in v.corners:
                uv = CORNER_UV[c : c + 1]
                gj = pointwise_jet(mp.patches[ip].space, mp.patches[ip].net, uv, 2)
                fj = member_jet(sp, unit(sp, a), ip, uv, 2)
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


@pytest.mark.parametrize(
    "value,grad,hess",
    [
        (np.array([1.0, 2.0]), np.zeros(2), np.zeros((2, 2))),
        (0.0, np.zeros(3), np.zeros((2, 2))),
        (0.0, np.zeros(2), np.zeros((3, 3))),
    ],
)
def test_c2data_rejects_misshapen_entries(value, grad, hess):
    # an array value used to reach the vertex projector as a bare ValueError
    with pytest.raises(InvalidConfigError):
        C2Data(value, grad, hess)


def test_sigma_formula_on_unit_grid():
    cfg = UnivariateSpace(3, 1, 2)  # h = 1/2
    mp = square_grid_geometry(cfg, 2, 2)
    # refine to satisfy the mesh assumption? n=2 < 3 violates it; use n=4, h=1/4
    cfg = UnivariateSpace(3, 1, 4)
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
    sp = ArgyrisSpace(builtin_geometry(name, UnivariateSpace(p, r, n)))
    C = sp.C
    assert C.shape == (len(sp.geometry.patches) * sp.N**2, sp.dim)
    # canonical: column indices strictly increasing within each row
    key = C.row_ids * C.shape[1] + C.indices
    assert (np.diff(key) > 0).all()
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
    sp = ArgyrisSpace(builtin_geometry(name, UnivariateSpace(p, r, n)))
    assert np.abs(sp.C.data).min() >= 1e-14 * np.abs(sp.C.data).max()


def test_evaluate_unit_vector_matches_basis(sp_three):
    a = ids_of_kind(sp_three, "patch", 2)[5]
    j1, j2 = sp_three.basis_id(a).index
    c = np.zeros(sp_three.dim)
    c[a] = 1.0
    rng = np.random.default_rng(0)
    uv = rng.uniform(0, 1, (20, 2))
    got = member_jet(sp_three, c, 2, uv, 0)[:, 0, 0]
    want = (
        _basis_values(sp_three.config, uv[:, 0])[:, j1]
        * _basis_values(sp_three.config, uv[:, 1])[:, j2]
    )
    np.testing.assert_allclose(got, want, atol=1e-14)


def test_coefficient_matrix_is_columnwise(sp_three):
    rng = np.random.default_rng(3)
    c = rng.normal(size=(sp_three.dim, 2))
    uv = rng.uniform(0, 1, (7, 2))
    grids = sp_three.combine(c, 1)
    jets = pointwise_jet(sp_three.config, sp_three.combine(c, 1), uv, 2)
    for k in range(2):
        np.testing.assert_array_equal(grids[..., k], sp_three.combine(c[:, k], 1))
        np.testing.assert_allclose(
            jets[..., k], member_jet(sp_three, c[:, k], 1, uv, 2), rtol=0, atol=1e-12
        )


def test_linear_products_match_exact_representation(sp_three):
    # (a + b x) v for an S- spline v, from the fixed E/X matrices the side
    # layers read, against a fresh exact representation of the sampled product
    from argyris import represent_exactly

    sm = sp_three.sminus
    v = np.random.default_rng(4).normal(size=sm.N)
    lin = np.array([0.7, -1.3])
    want = represent_exactly(
        sp_three.config, lambda x: (lin[0] + lin[1] * x) * (_basis_values(sm, x) @ v)
    )
    got = (lin[0] * sp_three._E + lin[1] * sp_three._X) @ v
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_evaluate_zero_coeffs(sp_three):
    c = np.zeros(sp_three.dim)
    uv = np.array([[0.3, 0.7]])
    assert member_jet(sp_three, c, 0, uv, 1).max() == 0.0


def test_evaluate_gradient_vs_finite_difference(sp_three):
    mp = sp_three.geometry
    rng = np.random.default_rng(1)
    c = rng.normal(size=sp_three.dim)
    uv = rng.uniform(0.05, 0.95, (20, 2))
    eps = 1e-6
    for i in range(3):
        jet = member_jet(sp_three, c, i, uv, 2)
        gj = pointwise_jet(mp.patches[i].space, mp.patches[i].net, uv, 2)
        _, grad, _ = physical_derivatives(gj, jet)
        # physical finite difference through the inverse-free parametric route
        for axis in range(2):
            d = np.zeros(2)
            d[axis] = eps
            fp = member_jet(sp_three, c, i, uv + d, 0)[:, 0, 0]
            fm = member_jet(sp_three, c, i, uv - d, 0)[:, 0, 0]
            par = (fp - fm) / (2 * eps)
            want = jet[:, 1, 0] if axis == 0 else jet[:, 0, 1]
            assert np.abs(par - want).max() < 1e-6 * max(1.0, np.abs(par).max())


@pytest.mark.parametrize("d", [3, 2])
def test_physical_derivatives_of_composed_quadratics(mp_curved, d):
    # f = u o F for k quadratics u(x) = c + g.x + x^T A x / 2 on a curved
    # patch: the forward chain rule gives the parametric jets, and the
    # physical ones must be the value, gradient and Hessian of u at F(xi)
    rng = np.random.default_rng(7)
    k = 3
    c, g = rng.normal(size=k), rng.normal(size=(k, 2))
    A = rng.normal(size=(k, 2, 2))
    A = A + A.swapaxes(1, 2)
    t = np.linspace(0.0, 1.0, 9)
    for patch in mp_curved.patches:
        geo = patch.grid_jet(t, t, 2)  # (m, 3, 3, 2)
        x = geo[:, 0, 0]
        u = c + x @ g.T + 0.5 * np.einsum("mi,kij,mj->mk", x, A, x)
        du = g + np.einsum("kij,mj->mki", A, x)  # (m, k, 2)
        F1 = np.stack([geo[:, 1, 0], geo[:, 0, 1]], axis=1)  # (m, a, i)
        fj = np.zeros((len(x), 3, 3, k))
        fj[:, 0, 0] = u
        fj[:, 1, 0] = np.einsum("mki,mi->mk", du, F1[:, 0])
        fj[:, 0, 1] = np.einsum("mki,mi->mk", du, F1[:, 1])
        for a1, a2, a, b in ((2, 0, 0, 0), (1, 1, 0, 1), (0, 2, 1, 1)):
            fj[:, a1, a2] = np.einsum(
                "kij,mi,mj->mk", A, F1[:, a], F1[:, b]
            ) + np.einsum("mki,mi->mk", du, geo[:, a1, a2])
        val, grad, hess = physical_derivatives(geo[:, :d, :d], fj[:, :d, :d])
        assert val.shape == (len(x), k) and grad.shape == (len(x), k, 2)
        np.testing.assert_allclose(val, u, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad, du, rtol=0, atol=1e-12)
        if d == 2:
            assert hess is None
        else:
            want = np.broadcast_to(A, hess.shape)
            np.testing.assert_allclose(hess, want, rtol=0, atol=1e-12)


def test_evaluate_validates_patch_index(sp_three):
    with pytest.raises(InvalidConfigError):
        member_jet(sp_three, np.zeros(sp_three.dim), 17, np.array([[0.5, 0.5]]), 0)


@pytest.mark.parametrize("method", ["combine", "extraction"])
@pytest.mark.parametrize("patch", [-1, 3, 17])
def test_combine_validates_patch_index(sp_three, method, patch):
    # -1 used to give the last patch's grid (extraction: an empty matrix) and
    # 3 a bare IndexError
    args = (np.zeros(sp_three.dim), patch) if method == "combine" else (patch,)
    with pytest.raises(InvalidConfigError):
        getattr(sp_three, method)(*args)


@pytest.mark.parametrize("p,r,n", [(5, 2, 2), (4, 1, 2), (4, 2, 3)])
def test_other_degrees_stay_smooth(p, r, n):
    from argyris import builtin_geometry, smoothness_report

    mp = builtin_geometry("three_patch_bilinear", UnivariateSpace(p, r, n))
    sp = ArgyrisSpace(mp)
    total, parts = space_dimension(mp)
    assert total == sp.dim
    rep = smoothness_report(sp)
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
    rep = smoothness_report(sp)
    assert rep.max_c1_jump < 1e-9
    assert rep.max_c2_jump < 1e-8
    M = biorthogonality_matrix(sp).toarray()
    assert np.abs(M - np.eye(sp.dim)).max() < 1e-9


@pytest.mark.parametrize(
    "fixture",
    ["mp_two", "mp_three", "mp_five", "mp_lshape", "mp_curved", "mp_asymmetric"],
)
def test_vertex_slots_reuse_edge_gluing(request, fixture, monkeypatch):
    # each interface is fitted once; every vertex slot, in either orientation,
    # must carry the data a fresh fit of its own patch pair gives. Each
    # family takes all its sides in one _side_layers call per build
    from argyris import fit_asg1

    side_layers = ArgyrisSpace._side_layers
    calls = []

    def spy(self, T, V, alpha, beta, sign):
        calls.append((alpha, beta, sign))
        return side_layers(self, T, V, alpha, beta, sign)

    monkeypatch.setattr(ArgyrisSpace, "_side_layers", spy)
    sp = ArgyrisSpace(request.getfixturevalue(fixture))
    assert len(calls) == 2  # the edge family, then the vertex family
    sides = list(zip(*calls[1]))
    # 2 nu sides per vertex, vertex after vertex
    assert len(sides) == sum(2 * v.valence for v in sp.geometry.vertices)
    checked = start = 0
    for v in sp.geometry.vertices:
        nu = v.valence
        vertex_sides, start = sides[start : start + 2 * nu], start + 2 * nu
        # per patch ell: the slot before it (sign -1), then the one after (sign +1)
        assert [sign for *_, sign in vertex_sides] == [-1, 1] * nu
        for n, (alpha, beta, sign) in enumerate(vertex_sides):
            ell = n // 2 + (sign == 1)  # slot ell lies between patches ell-1, ell
            if not (v.is_interior or 0 < ell < nu):
                continue
            pair = v.corners[ell - 1], v.corners[ell % nu]
            g = fit_asg1(*(sp.geometry.patches[p].rotate(c) for p, c in pair))
            want = (g.alpha1, g.beta1) if sign == 1 else (g.alpha2, g.beta2)
            for got, w in zip((alpha, beta), want):
                np.testing.assert_allclose(got, w, rtol=0, atol=1e-13)
            checked += 1
    assert checked > 0


def test_build_samples_tensor_grids_only(monkeypatch):
    # edges and vertices read the patch maps on side and corner grids: a
    # handful of basis evaluations per build, with the basis tables and
    # local duals cached or not
    mp = builtin_geometry("five_patch_bilinear", UnivariateSpace(3, 1, 32))
    basis_ders = UnivariateSpace.basis_ders
    calls = []

    def counting(self, xs, nderiv):
        calls.append(nderiv)
        return basis_ders(self, xs, nderiv)

    monkeypatch.setattr(UnivariateSpace, "basis_ders", counting)
    for cold in (True, False):
        if cold:
            monkeypatch.setattr(bspline, "_TABLES", bspline._TableCache(8 << 20))
            bspline.local_duals.cache_clear()
        calls.clear()
        ArgyrisSpace(mp)
        assert len(calls) <= 15


def test_build_samples_no_tensor_grid(monkeypatch):
    # the gluing fit, the corner jets and the rest of the build read the
    # patch maps' control points on the layers next to a side through the
    # unit-jet table alone; grid_jet serves tensor grids and the tests
    names = ("two_patch_bilinear", "three_patch_bilinear", "five_patch_bilinear",
             "lshape_bilinear", "two_patch_curved_asg1")
    geometries = [builtin_geometry(name, UnivariateSpace(3, 1, 4)) for name in names]

    def refuse(self, x1, x2, nderiv):
        raise AssertionError("the build sampled a tensor grid")

    monkeypatch.setattr(TensorSpline, "grid_jet", refuse)
    for mp in geometries:
        assert ArgyrisSpace(mp).gluing


def test_unvalidated_vertex_out_of_order_fails_the_build(mp_three):
    # geometries built with check=False (as by refine) get the vertex
    # standard-form checks from the build alone
    vertices = [
        VertexRecord(v.id, v.kind, v.corners[::-1]) if v.is_interior else v
        for v in mp_three.vertices
    ]
    mp = MultiPatch(mp_three.config, mp_three.patches, mp_three.edges, vertices,
                    check=False)
    with pytest.raises(TopologyError, match="not consecutive in standard form"):
        ArgyrisSpace(mp)


def test_geometry_and_space_share_one_univariate_space(mp_three, tmp_path):
    # one frozen (p, r, n) space is the geometry's config, the space of every
    # patch in both directions, and the univariate space of the smooth space
    path = tmp_path / "three.txt"
    save_geometry(mp_three, path)
    for mp in (mp_three, refine(mp_three), load_geometry(path)):
        assert isinstance(mp.config, UnivariateSpace)
        for patch in mp.patches:
            assert isinstance(patch, TensorSpline)
            assert patch.space == mp.config
        assert ArgyrisSpace(mp).config is mp.config
    assert refine(mp_three).config == UnivariateSpace(3, 1, 8)


GLUING_FIELDS = ("alpha1", "beta1", "alpha2", "beta2", "beta")


@pytest.mark.parametrize("config,levels", [((3, 1, 4), 3), ((4, 2, 6), 2), ((5, 1, 8), 2)])
@pytest.mark.parametrize("name", AS_G1_BUILTINS)
def test_refined_space_on_carried_gluing_matches_a_rebuild(name, config, levels):
    # a space on refined geometry built from the coarse space's gluing data
    # is the space a fresh fit on the refined geometry gives: same dim, every
    # column of C and all gluing data within 1e-12 (worst seen 4.9e-13 for
    # C, 7.0e-13 for the data)
    import scipy.sparse

    def csc(C):
        return scipy.sparse.csr_matrix((C.data, C.indices, C.indptr), shape=C.shape).tocsc()

    carried = ArgyrisSpace(builtin_geometry(name, UnivariateSpace(*config)))
    for _ in range(levels):
        carried = carried._refined(refine(carried.geometry))
        fresh = ArgyrisSpace(carried.geometry)
        assert carried.dim == fresh.dim
        A, B = csc(carried.C), csc(fresh.C)
        scale = abs(B).max(axis=0).toarray().ravel()
        assert np.all(abs(A - B).max(axis=0).toarray().ravel() <= 1e-12 * scale)
        assert carried.gluing.keys() == fresh.gluing.keys()
        for eid, g in fresh.gluing.items():
            for f in GLUING_FIELDS:
                if getattr(g, f) is not None:
                    np.testing.assert_allclose(getattr(carried.gluing[eid], f), getattr(g, f),
                                               rtol=0, atol=1e-12)


def test_refined_space_fits_no_gluing_and_refuses_other_geometry(mp_three, mp_two, monkeypatch):
    # the carried data serve the refinement of the space's own geometry
    # alone: another mesh, map or topology would get data that are not its own
    import argyris.space

    sp = ArgyrisSpace(mp_three)
    moved = refine(mp_three)
    net = moved.patches[0].net.copy()
    net[3, 3] += 1e-3
    moved.patches[0] = Patch(moved.config, net)
    for other in (mp_three, refine(refine(mp_three)), refine(mp_two), moved):
        with pytest.raises(InvalidConfigError, match="not the refinement"):
            sp._refined(other)
    fits = []
    monkeypatch.setattr(argyris.space, "fit_asg1", lambda *a, **k: fits.append(a))
    fine = sp._refined(refine(mp_three))
    assert fits == []
    assert all(fine.gluing[e] is g for e, g in sp.gluing.items())


# --- sparse product -------------------------------------------------------------


def random_csr(rng, shape, density):
    """A random ``CSRMatrix`` with small integer and fractional entries, and
    every third row empty."""
    A = np.where(rng.random(shape) < density, rng.integers(-3, 4, shape) / 4.0
                 + rng.standard_normal(shape) * (rng.random(shape) < 0.5), 0.0)
    A[::3] = 0.0
    rows, cols = np.nonzero(A)
    return CSRMatrix.from_triplets(rows, cols, A[rows, cols], shape)


def assert_csr_order(M):
    """Columns strictly increasing within each row, no zero stored."""
    assert M.indptr[0] == 0 and M.indptr[-1] == M.nnz and np.all(np.diff(M.indptr) >= 0)
    same_row = M.row_ids[1:] == M.row_ids[:-1]
    assert np.all(np.diff(M.indices)[same_row] > 0) and np.all(M.data != 0.0)


@pytest.mark.parametrize("m,k,n,density", [
    (7, 5, 6, 0.4), (40, 30, 20, 0.1), (30, 40, 20, 0.7), (0, 4, 3, 0.5), (5, 4, 0, 0.5),
    (2 * _PRODUCT_ROWS + 37, 40, 30, 0.02),  # several row blocks of A
])
def test_sparse_product_matches_dense_product(m, k, n, density):
    rng = np.random.default_rng(m + k + n)
    A, B = random_csr(rng, (m, k), density), random_csr(rng, (k, n), density)
    P = A @ B
    assert isinstance(P, CSRMatrix) and P.shape == (m, n)
    assert_csr_order(P)
    np.testing.assert_allclose(P.toarray(), A.toarray() @ B.toarray(), rtol=1e-13, atol=1e-13)
    # each column is A times that column of B, to the last digit
    dense = B.toarray()
    for j in range(min(n, 6)):
        assert np.array_equal(P.toarray()[:, j], A @ dense[:, j])


@pytest.mark.parametrize("k", [0, 1, 3, 17])
def test_dense_product_columns_match_their_products_alone(k):
    # A @ X for X (n, k) is A @ X[:, j] in column j bit for bit, every third
    # row of A empty
    rng = np.random.default_rng(k)
    A = random_csr(rng, (40, 30), 0.2)
    X = rng.standard_normal((30, k))
    P = A @ X
    assert P.shape == (40, k) and P.dtype == float
    for j in range(k):
        assert np.array_equal(P[:, j], A @ X[:, j])
    assert not P[::3].any()
    np.testing.assert_allclose(P, A.toarray() @ X, rtol=1e-13, atol=1e-13)
    assert np.array_equal((A @ X.reshape(30, 1, k))[:, 0], P)


def test_sparse_product_drops_a_sum_that_cancels_to_zero():
    # row 0: 1 * 1 + 1 * (-1) = 0 exactly, not stored; row 1 is empty
    A = CSRMatrix.from_triplets([0, 0, 2], [0, 1, 1], [1.0, 1.0, 2.0], (3, 2))
    B = CSRMatrix.from_triplets([0, 0, 1, 1], [0, 1, 0, 1], [1.0, 3.0, -1.0, 0.5], (2, 2))
    P = A @ B
    assert_csr_order(P)
    assert P.indptr.tolist() == [0, 1, 1, 3]
    assert P.indices.tolist() == [1, 0, 1] and P.data.tolist() == [3.5, -2.0, 1.0]
    assert np.array_equal(P.toarray(), A.toarray() @ B.toarray())
