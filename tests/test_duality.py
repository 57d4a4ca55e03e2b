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
    edge_duals,
    patch_duals,
    project,
    vertex_duals,
)
from argyris.errors import InvalidConfigError
from argyris.multipatch import edge_frames
from argyris.space import CSRMatrix


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
            val = patch_duals(sp_two, 0, basis_field(sp_two, b))[position(sp_two, a)]
            assert abs(val - (1.0 if a == b else 0.0)) < 1e-12


def test_patch_dual_kills_edge_and_vertex_functions(sp_two):
    others = ids_where(sp_two, lambda i: i.kind != "patch")
    a = ids_where(sp_two, lambda i: i.kind == "patch")[0]
    fid = sp_two.basis_id(a)
    for b in others:
        e = basis_field(sp_two, b).coeffs
        if fid.owner not in {i for i, C in enumerate(sp_two.C) if (C @ e).any()}:
            continue
        val = patch_duals(sp_two, fid.owner, basis_field(sp_two, b))[position(sp_two, a)]
        assert abs(val) < 1e-11


def test_patch_dual_of_zero(sp_two):
    zero = SpaceField(sp_two, np.zeros(sp_two.dim))
    fid = sp_two.basis_id(0)
    assert patch_duals(sp_two, fid.owner, zero)[position(sp_two, 0)] == 0.0


def test_edge_dual_biorthogonal_within_edge(sp_two):
    eid = sp_two.geometry.interfaces()[0].id
    edge_ids = ids_where(sp_two, lambda i: i.kind == "edge" and i.owner == eid)
    for a in edge_ids:
        for b in edge_ids:
            val = edge_duals(sp_two, eid, basis_field(sp_two, b))[position(sp_two, a)]
            assert abs(val - (1.0 if a == b else 0.0)) < 1e-10


def test_edge_dual_kills_patch_interior(sp_two):
    eid = sp_two.geometry.interfaces()[0].id
    a = ids_where(sp_two, lambda i: i.kind == "edge" and i.owner == eid)[0]
    for b in ids_where(sp_two, lambda i: i.kind == "patch")[:10]:
        val = edge_duals(sp_two, eid, basis_field(sp_two, b))[position(sp_two, a)]
        assert abs(val) < 1e-12


def test_edge_dual_kills_endpoint_vertex_functions(sp_two):
    eid = sp_two.geometry.interfaces()[0].id
    edge_ids = ids_where(sp_two, lambda i: i.kind == "edge" and i.owner == eid)
    vertex_ids = ids_where(sp_two, lambda i: i.kind == "vertex")
    for a in edge_ids:
        for b in vertex_ids:
            val = edge_duals(sp_two, eid, basis_field(sp_two, b))[position(sp_two, a)]
            assert abs(val) < 1e-10


@pytest.mark.parametrize(
    "duals,owner",
    [(patch_duals, -1), (patch_duals, 3), (edge_duals, -1), (edge_duals, 99),
     (vertex_duals, -1), (vertex_duals, 99)],
)
def test_duals_reject_unknown_entity_ids(sp_three, duals, owner):
    # patch -1 used to alias patch 2, patch 3 gave an IndexError and an
    # unknown edge or vertex a KeyError
    with pytest.raises(InvalidConfigError):
        duals(sp_three, owner, SpaceField(sp_three, np.zeros(sp_three.dim)))


def test_vertex_dual_delta(sp_two):
    for v in sp_two.geometry.vertices:
        vids = ids_where(sp_two, lambda i: i.kind == "vertex" and i.owner == v.id)
        for a in vids:
            for b in vids:
                duals = vertex_duals(sp_two, v.id, basis_field(sp_two, b))
                val = duals[position(sp_two, a)]
                assert abs(val - (1.0 if a == b else 0.0)) < 1e-9


def test_vertex_dual_kills_edge_interior(sp_two):
    v = sp_two.geometry.vertices[0]
    a = ids_where(sp_two, lambda i: i.kind == "vertex" and i.owner == v.id)[0]
    for b in ids_where(sp_two, lambda i: i.kind == "edge"):
        val = vertex_duals(sp_two, v.id, basis_field(sp_two, b))[position(sp_two, a)]
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
    got = vertex_duals(sp_two, v.id, fld)[VERTEX_INDEX_ORDER.index((1, 0))]
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

    for name in ("point", "jet", "grid_jet"):
        monkeypatch.setattr(Patch, name, pointwise)
    for i in range(3):
        assert np.array_equal(fld.jets(i, x1, x2, 0)[0], expected[i])
        block = ids_where(sp_three, lambda f: f.kind == "patch" and f.owner == i)
        assert np.abs(patch_duals(sp_three, i, fld) - c[block]).max() < 1e-9


def test_duals_sample_every_element_once(sp_three):
    # patch duals read n(p+1) points per direction, edge duals n(p+1) S+
    # points and n*p S- points, however many functions share them
    class CountingField(SpaceField):
        def __init__(self, space, coeffs):
            super().__init__(space, coeffs)
            self.grid = []

        def jets(self, patch, x1, x2, order, geo=None):
            self.grid.append((len(x1), len(x2)))
            return super().jets(patch, x1, x2, order, geo)

    n, p = sp_three.config.n, sp_three.config.p
    c = np.random.default_rng(7).standard_normal(sp_three.dim)
    fld = CountingField(sp_three, c)
    block = ids_where(sp_three, lambda f: f.kind == "patch" and f.owner == 1)
    assert np.abs(patch_duals(sp_three, 1, fld) - c[block]).max() < 1e-9
    assert fld.grid == [(n * (p + 1), n * (p + 1))]
    eid = sp_three.geometry.interfaces()[0].id
    block = ids_where(sp_three, lambda f: f.kind == "edge" and f.owner == eid)
    assert np.abs(edge_duals(sp_three, eid, fld) - c[block]).max() < 1e-9
    assert [a * b for a, b in fld.grid[1:]] == [n * (p + 1) + n * p]


AS_G1_BUILTINS = ["two_patch_bilinear", "three_patch_bilinear", "five_patch_bilinear",
                  "lshape_bilinear", "two_patch_curved_asg1"]


@pytest.mark.parametrize(
    "name,degrees",
    [(name, (3, 1, 4)) for name in AS_G1_BUILTINS]
    + [("mp_asymmetric", None),
       ("three_patch_bilinear", (4, 2, 3)), ("three_patch_bilinear", (5, 1, 2))],
)
def test_biorthogonality_matrix_matches_dense_identity_reference(request, name, degrees):
    # the entity-local sparse D C against every functional applied to the
    # identity coefficient block
    if degrees is None:
        mp = request.getfixturevalue(name)
    else:
        mp = builtin_geometry(name, UnivariateSpace(*degrees))
    space = ArgyrisSpace(mp)
    M = biorthogonality_matrix(space)
    assert isinstance(M, CSRMatrix) and M.shape == (space.dim, space.dim)
    ref = project(space, SpaceField(space, np.eye(space.dim)))
    assert np.abs(M.toarray() - ref).max() <= 1e-13


def test_biorthogonality_matrix_sees_a_negated_vertex_column(sp_three):
    # negate a vertex function on the patch its functionals read: D C must
    # show it, so the functionals really read C and not the build's intent
    space = copy.copy(sp_three)
    ipatch, _ = space.geometry.vertices[0].corners[0]
    a = space.block("vertex", 0).start
    C = space.C[ipatch]
    data = np.where(C.indices == a, -C.data, C.data)
    space.C = list(space.C)
    space.C[ipatch] = CSRMatrix(C.indptr, C.indices, data, C.shape)
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
    assert {kind for kind, _ in space._dual_geometry} == {"edge", "vertex"}
    ipatch, _ = space.geometry.vertices[0].corners[0]
    a = space.block("vertex", 0).start
    C = space.C[ipatch]
    data = np.where(C.indices == a, -C.data, C.data)
    space.C = list(space.C)
    space.C[ipatch] = CSRMatrix(C.indptr, C.indices, data, C.shape)
    M = biorthogonality_matrix(space).toarray()
    assert M[a, a] == pytest.approx(-1.0, abs=1e-9)
    assert np.abs(biorthogonality_matrix(sp_three).toarray() - np.eye(space.dim)).max() < 1e-9


def test_entity_geometry_sampled_once_and_never_at_order_two_on_an_edge(mp_three, monkeypatch):
    # D C samples each edge's side at order 1 and each vertex's corner at
    # order 2, once; the projector then reuses those samples, and neither
    # the build nor a member's values sample them
    calls = []
    grid_jet = Patch.grid_jet

    def counting(self, x1, x2, nderiv):
        calls.append((len(np.atleast_1d(x1)) * len(np.atleast_1d(x2)), nderiv))
        return grid_jet(self, x1, x2, nderiv)

    monkeypatch.setattr(Patch, "grid_jet", counting)
    space = ArgyrisSpace(mp_three)
    assert space._dual_geometry == {}
    built = len(calls)
    biorthogonality_matrix(space)
    sides = calls[built:]
    n_edges, n_vertices = len(mp_three.edges), len(mp_three.vertices)
    assert sorted(order for _, order in sides) == [1] * n_edges + [2] * n_vertices
    assert all(m == 1 for m, order in sides if order == 2)
    assert all(m > 1 for m, order in sides if order == 1)
    c = np.cos(np.arange(space.dim))
    assert np.abs(project(space, SpaceField(space, c)) - c).max() < 1e-9
    assert calls[built + len(sides):] == []


@pytest.mark.parametrize("name,n", [("three_patch_bilinear", 4), ("five_patch_bilinear", 8)])
def test_unit_field_jets_match_dense_unit_grids(name, n):
    # the unit jets are products of basis-table columns; the reference
    # samples one dense (N, N) grid per unit coefficient
    from argyris.duality import _UnitField, _entity_geometry

    space = ArgyrisSpace(builtin_geometry(name, UnivariateSpace(3, 1, n)))
    N, R = space.N, space._rows
    entities = []
    for e in space.geometry.edges:
        (ipatch, rot), *_ = edge_frames(e)
        entities.append((_entity_geometry(space, "edge", e.id), R[rot][:2].ravel()))
    for v in space.geometry.vertices:
        _, corner = v.corners[0]
        entities.append((_entity_geometry(space, "vertex", v.id), R[corner][:3, :3].ravel()))
    for (ipatch, grid, *_), rows in entities:
        dense = np.zeros((N * N, len(rows)))
        dense[rows, np.arange(len(rows))] = 1.0
        for order in (1, 2):
            ref = TensorSpline(space.config, dense.reshape(N, N, -1)).grid_jet(*grid, order)
            got = _UnitField(space, rows)._parametric(ipatch, *grid, order)
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-14


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
