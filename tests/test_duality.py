import copy
import tracemalloc

import numpy as np
import pytest

from argyris import (
    VERTEX_INDEX_ORDER,
    AnalyticField,
    ArgyrisSpace,
    Patch,
    SpaceField,
    TensorSpline,
    UnivariateSpace,
    biorthogonality_matrix,
    builtin_geometry,
    infer_topology,
    project,
    refine,
)
from argyris import duality
from argyris.bspline import _unit_jets, local_duals
from argyris.duality import _entities, _prolong, dual_matrix
from argyris.fit import cos_sin_field
from argyris.geometries import _fan
from argyris.gluing import _pv
from argyris.multipatch import _knot_insertion, edge_frames
from argyris.space import CSRMatrix, _edge_index_set
from conftest import rotate_grid, square_grid_geometry


def ids_where(space, pred):
    return [a for a in range(space.dim) if pred(space.basis_id(a))]


def position(space, a):
    """Position of basis function a in the block of its owning entity."""
    fid = space.basis_id(a)
    return ids_where(space, lambda i: (i.kind, i.owner) == (fid.kind, fid.owner)).index(a)


def basis_field(space, b):
    """Basis function b as a field: the unit coefficient vector e_b."""
    e = np.zeros(space.dim)
    e[b] = 1.0
    return SpaceField(space, e)


def test_patch_dual_biorthogonal_on_own_family(sp_two):
    patch_ids = ids_where(sp_two, lambda i: i.kind == "patch" and i.owner == 0)
    for a in patch_ids[:6]:
        for b in patch_ids[:6]:
            val = project(sp_two, basis_field(sp_two, b))[sp_two.block("patch", 0)]
            val = val[position(sp_two, a)]
            assert abs(val - (1.0 if a == b else 0.0)) < 1e-12


def test_patch_dual_kills_edge_and_vertex_functions(sp_two):
    others = ids_where(sp_two, lambda i: i.kind != "patch")
    a = ids_where(sp_two, lambda i: i.kind == "patch")[0]
    fid = sp_two.basis_id(a)
    for b in others:
        e = basis_field(sp_two, b).coeffs
        if not (sp_two.extraction(fid.owner) @ e).any():
            continue
        val = project(sp_two, basis_field(sp_two, b))[sp_two.block("patch", fid.owner)]
        val = val[position(sp_two, a)]
        assert abs(val) < 1e-11


def test_patch_dual_of_zero(sp_two):
    zero = SpaceField(sp_two, np.zeros(sp_two.dim))
    fid = sp_two.basis_id(0)
    assert project(sp_two, zero)[sp_two.block("patch", fid.owner)][position(sp_two, 0)] == 0.0


def test_edge_dual_biorthogonal_within_edge(sp_two):
    eid = sp_two.geometry.interfaces()[0].id
    edge_ids = ids_where(sp_two, lambda i: i.kind == "edge" and i.owner == eid)
    for a in edge_ids:
        for b in edge_ids:
            val = project(sp_two, basis_field(sp_two, b))[sp_two.block("edge", eid)]
            val = val[position(sp_two, a)]
            assert abs(val - (1.0 if a == b else 0.0)) < 1e-10


def test_edge_dual_kills_patch_interior(sp_two):
    eid = sp_two.geometry.interfaces()[0].id
    a = ids_where(sp_two, lambda i: i.kind == "edge" and i.owner == eid)[0]
    for b in ids_where(sp_two, lambda i: i.kind == "patch")[:10]:
        val = project(sp_two, basis_field(sp_two, b))[sp_two.block("edge", eid)]
        val = val[position(sp_two, a)]
        assert abs(val) < 1e-12


def test_edge_dual_kills_endpoint_vertex_functions(sp_two):
    eid = sp_two.geometry.interfaces()[0].id
    edge_ids = ids_where(sp_two, lambda i: i.kind == "edge" and i.owner == eid)
    vertex_ids = ids_where(sp_two, lambda i: i.kind == "vertex")
    for a in edge_ids:
        for b in vertex_ids:
            val = project(sp_two, basis_field(sp_two, b))[sp_two.block("edge", eid)]
            val = val[position(sp_two, a)]
            assert abs(val) < 1e-10


def test_vertex_dual_delta(sp_two):
    for v in sp_two.geometry.vertices:
        vids = ids_where(sp_two, lambda i: i.kind == "vertex" and i.owner == v.id)
        for a in vids:
            for b in vids:
                duals = project(sp_two, basis_field(sp_two, b))[sp_two.block("vertex", v.id)]
                val = duals[position(sp_two, a)]
                assert abs(val - (1.0 if a == b else 0.0)) < 1e-9


def test_vertex_dual_kills_edge_interior(sp_two):
    v = sp_two.geometry.vertices[0]
    a = ids_where(sp_two, lambda i: i.kind == "vertex" and i.owner == v.id)[0]
    for b in ids_where(sp_two, lambda i: i.kind == "edge"):
        val = project(sp_two, basis_field(sp_two, b))[sp_two.block("vertex", v.id)]
        val = val[position(sp_two, a)]
        assert abs(val) < 1e-10


def test_vertex_dual_of_linear_coordinate(sp_two):
    mp = sp_two.geometry
    fld = AnalyticField(
        mp,
        lambda x: x[:, 0],
        lambda x: np.column_stack([np.ones(len(x)), np.zeros(len(x))]),
        lambda x: np.zeros((len(x), 2, 2)),
    )
    v = mp.vertices[0]
    sig = sp_two.sigma(v.id)
    got = project(sp_two, fld)[sp_two.block("vertex", v.id)]
    got = got[VERTEX_INDEX_ORDER.index((1, 0))]
    assert abs(got - 1.0 / sig) < 1e-13


def test_project_zero_is_zero(sp_two):
    mp = sp_two.geometry
    zero = AnalyticField(
        mp,
        lambda x: np.zeros(len(x)),
        lambda x: np.zeros((len(x), 2)),
        lambda x: np.zeros((len(x), 2, 2)),
    )
    c = project(sp_two, zero)
    assert np.abs(c).max() == 0.0


def test_project_reproduces_random_member(sp_two):
    rng = np.random.default_rng(11)
    c = rng.normal(size=sp_two.dim)
    c2 = project(sp_two, SpaceField(sp_two, c))
    assert np.abs(c - c2).max() < 1e-9 * max(1.0, np.abs(c).max())


def test_project_reproduces_single_basis_functions(sp_two):
    rng = np.random.default_rng(12)
    picks = rng.choice(sp_two.dim, size=12, replace=False)
    for b in picks:
        c = project(sp_two, basis_field(sp_two, int(b)))
        e = np.zeros(sp_two.dim)
        e[b] = 1.0
        assert np.abs(c - e).max() < 1e-9


def test_space_field_values_need_no_patch_map(sp_three, monkeypatch):
    # values of a member come from its extraction matrices alone
    c = np.random.default_rng(5).standard_normal(sp_three.dim)
    fld = SpaceField(sp_three, c)
    x1, x2 = np.random.default_rng(6).random((2, 7))
    expected = [
        TensorSpline(sp_three.config, sp_three.combine(c, i)).grid_jet(x1, x2, 0)[:, 0, 0]
        for i in range(3)
    ]

    def pointwise(*args):
        raise AssertionError("pointwise evaluation of the patch map")

    monkeypatch.setattr(Patch, "grid_jet", pointwise)
    for i in range(3):
        assert np.array_equal(fld.jets(i, x1, x2, 0)[0], expected[i])
        block = ids_where(sp_three, lambda f: f.kind == "patch" and f.owner == i)
        own = project(sp_three, fld)[sp_three.block("patch", i)]
        assert np.abs(own - c[block]).max() < 1e-9


def test_duals_sample_every_element_once(sp_three):
    # a field in physical coordinates: patch duals read n(p+1) points per
    # direction, and the edge duals of all edges n(p+1) S+ points and n*p S-
    # points per edge in one stacked sample, however many functions share
    # them. A member is never sampled: its functionals are rows of D C x
    class CountingField(AnalyticField):
        def __init__(self, geometry):
            super().__init__(geometry, *cos_sin_field(geometry)._samplers)
            self.samples = []

        def at(self, x, order):
            self.samples.append((len(x), order))
            return super().at(x, order)

    class CountingMember(SpaceField):
        def __init__(self, space, coeffs):
            super().__init__(space, coeffs)
            self.samples = []

        def jets(self, patch, x1, x2, order):
            self.samples.append((len(x1), len(x2)))
            return super().jets(patch, x1, x2, order)

    mp, (n, p) = sp_three.geometry, (sp_three.config.n, sp_three.config.p)
    fld = CountingField(mp)
    c = project(sp_three, cos_sin_field(mp))
    got = project(sp_three, fld)
    block, edge = sp_three.block("patch", 1), sp_three.block("edge", mp.interfaces()[0].id)
    assert np.array_equal(got[block], c[block])
    assert np.array_equal(got[edge], c[edge])
    # one grid per patch, then all edges and all vertices in one sample each
    assert fld.samples == [((n * (p + 1)) ** 2, 0)] * len(mp.patches) + [
        (len(mp.edges) * (n * (p + 1) + n * p), 1), (len(mp.vertices), 2)]
    edges = _entities(sp_three, "edge")
    assert edges.jets.shape[:2] == (len(mp.edges), n * (p + 1) + n * p)
    assert edges.d.shape[1] == n * p
    x = np.cos(np.arange(sp_three.dim))
    member = CountingMember(sp_three, x)
    assert np.abs(project(sp_three, member) - x).max() < 1e-9
    assert np.abs(project(sp_three, member)[block] - x[block]).max() < 1e-9
    assert member.samples == []


def sampled_dual_matrix(space):
    """D C from samples of the members e_j by the public ``SpaceField.jets``
    at the points of the local duals: on the tensor grid of every patch, on
    the first standard-form side of every edge (``rotate_grid``) and at the
    corner of every vertex; an oracle that never reads D."""
    mp, cfg = space.geometry, space.config
    field = SpaceField(space, np.eye(space.dim))
    duals, inner = local_duals(cfg), slice(2, space.N - 2)
    x = duals.points.ravel()
    rows = []
    for i in range(len(mp.patches)):
        vals = field.jets(i, x, x, 0)[0].reshape(len(x), len(x), -1)
        out = duals.apply(duals.apply(vals, inner).swapaxes(0, 1), inner).swapaxes(0, 1)
        rows.append(out.reshape(-1, space.dim))
    plus, minus = local_duals(space.splus), local_duals(space.sminus)
    tp, dp = plus.points.ravel(), minus.points.ravel()
    idx = _edge_index_set(space.sminus.N)
    for e in mp.edges:
        i, k = edge_frames(e)[0]
        g = space.gluing[e.id]
        val = field.jets(i, *rotate_grid([0.0], tp, k), 0)[0]
        grad = field.jets(i, *rotate_grid([0.0], dp, k), 1)[1]  # (m-, dim, 2)
        F = mp.patches[i].rotate(k).grid_jet([0.0], dp, 1)
        d = (F[:, 1, 0] + _pv(g.beta1, dp)[:, None] * F[:, 0, 1]) / _pv(g.alpha1, dp)[:, None]
        deriv = cfg.h / cfg.p * (grad * d[:, None]).sum(-1)
        for duals, f, part in ((plus, val, 0), (minus, deriv, 1)):
            rows.append(duals.apply(f, np.array([j for j, s in idx if s == part], dtype=int)))
    for v in mp.vertices:
        i, k = v.corners[0]
        val, grad, hess = field.jets(i, *rotate_grid([0.0], [0.0], k), 2)
        sigma = space.sigma(v.id)
        g, H = grad[0] / sigma, hess[0] / sigma**2
        rows.append(np.stack([val[0], g[:, 0], g[:, 1], H[:, 0, 0], H[:, 0, 1], H[:, 1, 1]]))
    return np.concatenate(rows)


AS_G1_BUILTINS = ["two_patch_bilinear", "three_patch_bilinear", "five_patch_bilinear",
                  "lshape_bilinear", "two_patch_curved_asg1"]


@pytest.mark.parametrize(
    "name,degrees",
    [(name, (3, 1, 4)) for name in AS_G1_BUILTINS]
    + [("mp_asymmetric", None),
       ("three_patch_bilinear", (4, 2, 3)), ("three_patch_bilinear", (5, 1, 2)),
       ("five_patch_bilinear", (3, 1, 3))],
)
def test_biorthogonality_matrix_matches_dense_identity_reference(request, name, degrees):
    # D C against every functional applied to the identity coefficient
    # block, sampled independently of D; at (3, 1, 3), the coarsest mesh of
    # degree 3, an edge has derivative functions but no trace functions
    if degrees is None:
        mp = request.getfixturevalue(name)
    else:
        mp = builtin_geometry(name, UnivariateSpace(*degrees))
    space = ArgyrisSpace(mp)
    M = biorthogonality_matrix(space)
    assert isinstance(M, CSRMatrix) and M.shape == (space.dim, space.dim)
    # written in CSR order: the columns of each row sorted, none repeated
    # and no zero stored
    same_row = M.row_ids[1:] == M.row_ids[:-1]
    assert np.all(np.diff(M.indices)[same_row] > 0) and np.all(M.data != 0)
    assert np.abs(M.toarray() - sampled_dual_matrix(space)).max() <= 1e-13


@pytest.mark.parametrize("degrees", [(3, 1, 4), (4, 2, 6)])
@pytest.mark.parametrize("name", AS_G1_BUILTINS)
def test_biorthogonality_columns_are_projections_of_basis_functions(name, degrees):
    # D C and the projector of a member are one code path: column j of D C
    # is D (C e_j) to the last digit
    space = ArgyrisSpace(builtin_geometry(name, UnivariateSpace(*degrees)))
    M = biorthogonality_matrix(space).toarray()
    for j in range(space.dim):
        assert np.array_equal(M[:, j], project(space, basis_field(space, j))), j
    assert np.array_equal(M, project(space, SpaceField(space, np.eye(space.dim))))


@pytest.mark.parametrize("degrees", [(3, 1, 4), (4, 2, 6)])
@pytest.mark.parametrize("name", AS_G1_BUILTINS)
def test_dual_matrix_patch_rows_select_their_coefficient(name, degrees):
    # the local duals return a tensor spline's coefficients exactly, so the
    # row of patch function (j1, j2) is one stored 1.0 at that position of
    # its patch grid, and D C's patch rows are identity rows bit for bit
    space = ArgyrisSpace(builtin_geometry(name, UnivariateSpace(*degrees)))
    N, n = space.N, space.breakdown["patch"]
    D = dual_matrix(space).row_block(0, n)
    ids = [space.basis_id(a) for a in range(n)]
    assert np.array_equal(D.indptr, np.arange(n + 1))
    assert np.array_equal(D.indices, [(b.owner * N + b.index[0]) * N + b.index[1] for b in ids])
    assert np.array_equal(D.data, np.ones(n))
    M = biorthogonality_matrix(space).row_block(0, n)
    assert np.array_equal(M.indptr, np.arange(n + 1))
    assert np.array_equal(M.indices, np.arange(n)) and np.array_equal(M.data, np.ones(n))


@pytest.mark.parametrize("degrees", [(3, 1, 4), (4, 2, 6)])
@pytest.mark.parametrize("name", AS_G1_BUILTINS)
def test_spaces_nest_under_refinement(name, degrees):
    # every coarse basis function, its grids refined by knot insertion, is a
    # member of the space on the refined geometry: C_h D_h gives the refined
    # grids back. Columns go a block at a time to bound the dense arrays.
    coarse = ArgyrisSpace(builtin_geometry(name, UnivariateSpace(*degrees)))
    fine = ArgyrisSpace(refine(coarse.geometry))
    P, Nc = len(coarse.geometry.patches), coarse.N
    R = _knot_insertion(coarse.config, fine.config)
    assert R.shape == (fine.N, Nc) and not R.flags.writeable
    D, worst = dual_matrix(fine), 0.0
    for cols in np.array_split(np.arange(coarse.dim), -(-coarse.dim // 128)):
        grids = (coarse.C @ np.eye(coarse.dim)[:, cols]).T.reshape(len(cols), P, Nc, Nc)
        refined = (R @ grids @ R.T).reshape(len(cols), -1).T
        worst = max(worst, np.abs(fine.C @ (D @ refined) - refined).max() / np.abs(refined).max())
    assert worst <= 1e-12


def test_prolongation_reproduces_a_member_and_keeps_no_dual_matrix(sp_three):
    c = np.cos(np.arange(sp_three.dim))
    fine = ArgyrisSpace(refine(sp_three.geometry))
    x = _prolong(fine, SpaceField(sp_three, c))
    assert fine._dual_geometry == {}  # D_h served the prolongation alone
    R = _knot_insertion(sp_three.config, fine.config)
    grids = R @ (sp_three.C @ c).reshape(-1, sp_three.N, sp_three.N) @ R.T
    assert np.abs(fine.C @ x - grids.ravel()).max() < 1e-12 * np.abs(grids).max()
    # a dual matrix made before stays, and the same space gives c back
    D = dual_matrix(sp_three)
    np.testing.assert_allclose(_prolong(sp_three, SpaceField(sp_three, c)), c, rtol=0, atol=1e-12)
    assert dual_matrix(sp_three) is D


def negated_on_patch(C, N, ipatch, a):
    """The stacked extraction matrix C with column a negated in the rows of
    patch ipatch."""
    on = (C.row_ids // N**2 == ipatch) & (C.indices == a)
    return CSRMatrix(C.indptr, C.indices, np.where(on, -C.data, C.data), C.shape)


def test_biorthogonality_matrix_sees_a_negated_vertex_column(sp_three):
    # negate a vertex function on the patch its functionals read: D C must
    # show it, so the functionals really read C and not the build's intent
    space = copy.copy(sp_three)
    ipatch, _ = space.geometry.vertices[0].corners[0]
    a = space.block("vertex", 0).start
    space.C = negated_on_patch(space.C, space.N, ipatch, a)
    assert np.abs(biorthogonality_matrix(sp_three).toarray() - np.eye(space.dim)).max() < 1e-9
    M = biorthogonality_matrix(space).toarray()
    assert np.abs(M - np.eye(space.dim)).max() >= 1.0
    assert M[a, a] == pytest.approx(-1.0, abs=1e-9)


def test_biorthogonality_matrix_cache_holds_geometry_only(sp_three):
    # D C of the unmutated space fills the geometry table, which the copy
    # shares; the mutated copy must still read its own C
    biorthogonality_matrix(sp_three)
    space = copy.copy(sp_three)
    assert space._dual_geometry is sp_three._dual_geometry
    assert set(space._dual_geometry) == {"edge", "vertex", "D"}
    ipatch, _ = space.geometry.vertices[0].corners[0]
    a = space.block("vertex", 0).start
    space.C = negated_on_patch(space.C, space.N, ipatch, a)
    M = biorthogonality_matrix(space).toarray()
    assert M[a, a] == pytest.approx(-1.0, abs=1e-9)
    assert np.abs(biorthogonality_matrix(sp_three).toarray() - np.eye(space.dim)).max() < 1e-9


def test_entity_geometry_sampled_once_and_never_at_order_two_on_an_edge(mp_three, monkeypatch):
    # D C reads the geometry of all edges (order 1) and of all vertices
    # (order 2) in one stacked sample per kind, off the control points on the
    # rows they see; the projector then reuses it, and neither the build nor
    # a member's values sample it
    units, maps, grids = [], [], []
    unit_jets, map_jets, grid_jet = _unit_jets, ArgyrisSpace._map_jets, Patch.grid_jet

    def counting_units(space, points, order):
        units.append(order)
        return unit_jets(space, points, order)

    def counting_maps(self, rows, points, order):
        maps.append((len(rows), order))
        return map_jets(self, rows, points, order)

    def counting_grid(self, x1, x2, nderiv):
        grids.append(nderiv)
        return grid_jet(self, x1, x2, nderiv)

    monkeypatch.setattr(duality, "_unit_jets", counting_units)
    monkeypatch.setattr(ArgyrisSpace, "_map_jets", counting_maps)
    monkeypatch.setattr(Patch, "grid_jet", counting_grid)
    space = ArgyrisSpace(mp_three)
    assert space._dual_geometry == {} and units == []
    built = len(maps), len(grids)
    biorthogonality_matrix(space)
    stacked = [(len(mp_three.edges), 1), (len(mp_three.vertices), 2)]
    assert units == [1, 2]
    assert maps[built[0]:] == stacked
    assert grids[built[1]:] == []
    c = np.cos(np.arange(space.dim))
    assert np.abs(project(space, SpaceField(space, c)) - c).max() < 1e-9
    assert units == [1, 2]
    assert maps[built[0]:] == stacked
    assert grids[built[1]:] == []


@pytest.mark.parametrize("name,n", [("three_patch_bilinear", 4), ("five_patch_bilinear", 8)])
def test_unit_field_jets_match_dense_unit_grids(name, n):
    # the unit jets of an entity kind, in the standard-form frame, are
    # products of basis-table columns, stored for the units active at each
    # sample and scattered here into the dense layout of every row the
    # entity sees. The reference samples one dense (N, N) grid per unit
    # coefficient on the side or corner of the patch in its own frame, for
    # each of the four quarter turns, and turns the derivatives by the chain
    # rule; the stacked patch-map jets match the turned patches sampled alone
    space = ArgyrisSpace(builtin_geometry(name, UnivariateSpace(3, 1, n)))
    N, R, mp = space.N, space._rows, space.geometry
    side = np.concatenate([local_duals(s).points.ravel() for s in (space.splus, space.sminus)])
    for kind, pts, block, order in (("edge", side, (slice(0, 2),), 1),
                                    ("vertex", [0.0], (slice(0, 3),), 2)):
        banded, pos = _unit_jets(space.config, pts, order)
        assert pos.shape == (2 * (space.config.p + 1) if kind == "edge" else 9, len(pts))
        banded, pos = banded.transpose(3, 1, 2, 0), pos.T  # samples first, units last
        U = np.zeros(banded.shape[:3] + (R[0][block].size,))
        np.put_along_axis(U, np.broadcast_to(pos[:, None, None], banded.shape), banded, axis=3)
        for rot in range(4):
            rows = R[rot][block].ravel()
            dense = np.zeros((N * N, len(rows)))
            dense[rows, np.arange(len(rows))] = 1.0
            own = TensorSpline(space.config, dense.reshape(N, N, -1))
            ref = own.grid_jet(*rotate_grid([0.0], pts, rot), order)
            T = np.linalg.matrix_power(np.array([[0, -1], [1, 0]]), rot)
            grad = np.stack([ref[:, 1, 0], ref[:, 0, 1]], axis=-1) @ T
            pairs = [(U[:, 0, 0], ref[:, 0, 0]), (U[:, 1, 0], grad[..., 0]),
                     (U[:, 0, 1], grad[..., 1])]
            if order == 2:
                i1 = np.array([[2, 1], [1, 0]])
                H = T.T @ np.moveaxis(ref[:, i1, 2 - i1], 3, 1) @ T
                pairs.append((U[:, i1, 2 - i1], np.moveaxis(H, 1, 3)))
            assert U.shape == ref.shape
            # the other three turns evaluate the basis at the far end of the
            # knot vector: equal up to rounding relative to each derivative
            for got, want in pairs:
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        table = _entities(space, kind)
        frames = ([edge_frames(e)[0] for e in mp.edges] if kind == "edge"
                  else [v.corners[0] for v in mp.vertices])
        # derivative (a, b) of the map scales like N^(a + b) times its values;
        # the table holds the derivatives of total order <= order, 0 above
        total = np.add.outer(range(order + 1), range(order + 1))[..., None]
        scale, low = float(N) ** total, total <= order
        for jets, (ipatch, rot) in zip(table.jets, frames):
            ref = mp.patches[ipatch].rotate(rot).grid_jet([0.0], pts, order)
            size = max(1.0, np.abs(ref[:, 0, 0]).max())
            assert np.all(np.abs(jets - ref) <= 1e-14 * size * scale, where=low)
            assert np.all(jets[:, ~low[..., 0]] == 0.0)


def test_biorthogonality_matrix_memory_five_patches_n16():
    # D C read off the rows each functional sees; the functionals applied
    # to a dense identity coefficient block take about 895 MB here
    space = ArgyrisSpace(builtin_geometry("five_patch_bilinear", UnivariateSpace(3, 1, 16)))
    tracemalloc.start()
    try:
        M = biorthogonality_matrix(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60 * 2**20
    assert M.shape == (4971, 4971)
    # patch rows hold their diagonal alone; 52 974 entries when they kept
    # the rounding of the univariate dual table
    assert M.nnz < 2 * space.dim


@pytest.mark.parametrize("degrees", [(3, 1, 4), (4, 2, 6)])
@pytest.mark.parametrize("patches", ["grid3x3"] + [f"fan{k}" for k in range(3, 9)])
def test_biorthogonal_and_reproducing_on_grids_and_fans(patches, degrees):
    # every valence 3..8 at an interior vertex, and boundary and interior
    # vertices of valence 2..4 on a grid of squares
    cfg = UnivariateSpace(*degrees)
    if patches == "grid3x3":
        mp = square_grid_geometry(cfg, 3, 3)
    else:
        mp = infer_topology(cfg, _fan(cfg, int(patches[3:])))
    space = ArgyrisSpace(mp)
    M = biorthogonality_matrix(space)
    assert np.abs(M.toarray() - np.eye(space.dim)).max() <= 1e-12
    c = np.cos(np.arange(space.dim))
    assert np.abs(project(space, SpaceField(space, c)) - c).max() <= 1e-12
