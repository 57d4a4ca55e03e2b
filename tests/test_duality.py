import numpy as np

from argyris import (
    VERTEX_INDEX_ORDER,
    AnalyticField,
    Patch,
    SpaceField,
    edge_duals,
    patch_duals,
    project,
    vertex_duals,
)


def ids_where(space, pred):
    return [a for a, fn in enumerate(space.functions) if pred(fn.id)]


def position(space, a):
    """Position of basis function a in the block of its owning entity."""
    fid = space.functions[a].id
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
    fid = sp_two.functions[a].id
    for b in others:
        if fid.owner not in sp_two.functions[b].support:
            continue
        val = patch_duals(sp_two, fid.owner, basis_field(sp_two, b))[position(sp_two, a)]
        assert abs(val) < 1e-11


def test_patch_dual_of_zero(sp_two):
    zero = SpaceField(sp_two, np.zeros(sp_two.dim))
    fid = sp_two.functions[0].id
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
    uv = np.random.default_rng(6).random((7, 2))
    expected = [sp_three.evaluate(c, i, uv)[:, 0, 0] for i in range(3)]

    def pointwise(*args):
        raise AssertionError("pointwise evaluation of the patch map")

    for name in ("point", "jet"):
        monkeypatch.setattr(Patch, name, pointwise)
    for i in range(3):
        assert np.array_equal(fld.jets(i, uv, 0)[0], expected[i])
        block = ids_where(sp_three, lambda f: f.kind == "patch" and f.owner == i)
        assert np.abs(patch_duals(sp_three, i, fld) - c[block]).max() < 1e-9


def test_duals_sample_every_element_once(sp_three):
    # patch duals read n(p+1) points per direction, edge duals n(p+1) S+
    # points and n*p S- points, however many functions share them
    class CountingField(SpaceField):
        def __init__(self, space, coeffs):
            super().__init__(space, coeffs)
            self.grid, self.points = [], []

        def grid_values(self, patch, x1, x2):
            self.grid.append((len(x1), len(x2)))
            return super().grid_values(patch, x1, x2)

        def jets(self, patch, uv, order):
            self.points.append(len(np.atleast_2d(uv)))
            return super().jets(patch, uv, order)

    n, p = sp_three.config.n, sp_three.config.p
    c = np.random.default_rng(7).standard_normal(sp_three.dim)
    fld = CountingField(sp_three, c)
    block = ids_where(sp_three, lambda f: f.kind == "patch" and f.owner == 1)
    assert np.abs(patch_duals(sp_three, 1, fld) - c[block]).max() < 1e-9
    assert fld.grid == [(n * (p + 1), n * (p + 1))]
    eid = sp_three.geometry.interfaces()[0].id
    block = ids_where(sp_three, lambda f: f.kind == "edge" and f.owner == eid)
    assert np.abs(edge_duals(sp_three, eid, fld) - c[block]).max() < 1e-9
    assert fld.points == [n * (p + 1) + n * p]
