import numpy as np
import pytest

from argyris import (
    ArgyrisSpace,
    EdgeRecord,
    MultiPatch,
    UnivariateSpace,
    VertexRecord,
    check_regularity,
    load_geometry,
    refine,
    save_geometry,
    standard_form_edge,
)
from argyris.errors import ConformityError, GeometryFormatError, TopologyError
from conftest import bilinear_patch


@pytest.fixture(scope="module")
def space():
    return UnivariateSpace(3, 1, 2)


def test_rotate_identity(space):
    patch = bilinear_patch(space, (0, 0), (2, 0), (3, 2), (0, 1))
    np.testing.assert_array_equal(patch.rotate(0).net, patch.net)


def test_rotate_corner_chase(space):
    patch = bilinear_patch(space, (0, 0), (2, 0), (3, 2), (0, 1))
    rot = patch.rotate(1)
    # (F o r)(0,0) = F(1,0)
    np.testing.assert_allclose(rot.corner(0), patch.corner(1), atol=0)


def test_rotate_four_times_identity(space):
    patch = bilinear_patch(space, (0, 0), (2, 0), (3, 2), (0, 1))
    rot = patch.rotate(1).rotate(1).rotate(1).rotate(1)
    np.testing.assert_array_equal(rot.net, patch.net)


def test_rotate_is_exact_reparametrization(space):
    patch = bilinear_patch(space, (0, 0), (2, 0), (3, 2), (0, 1))
    rng = np.random.default_rng(0)
    uv = rng.uniform(0, 1, (100, 2))
    for k in range(4):
        rot = patch.rotate(k)
        ruv = uv.copy()
        for _ in range(k):
            ruv = np.column_stack([1.0 - ruv[:, 1], ruv[:, 0]])
        np.testing.assert_allclose(rot.point(uv), patch.point(ruv), atol=1e-14)


def test_standard_form_edge_two_squares(mp_two):
    e = mp_two.interfaces()[0]
    p1, p2 = standard_form_edge(mp_two, e)
    t = np.linspace(0, 1, 50)
    a = p1.point(np.column_stack([np.zeros_like(t), t]))
    b = p2.point(np.column_stack([t, np.zeros_like(t)]))
    assert np.abs(a - b).max() < 1e-14


def test_standard_form_edge_three_patch(mp_three):
    t = np.linspace(0, 1, 50)
    for e in mp_three.interfaces():
        p1, p2 = standard_form_edge(mp_three, e)
        a = p1.point(np.column_stack([np.zeros_like(t), t]))
        b = p2.point(np.column_stack([t, np.zeros_like(t)]))
        assert np.abs(a - b).max() < 1e-14


def test_standard_form_boundary_edge(mp_single):
    for e in mp_single.edges:
        assert not e.is_interface
        p1, p2 = standard_form_edge(mp_single, e)
        assert p2 is None
        # the edge lies on {xi1 = 0}
        t = np.linspace(0, 1, 20)
        pts = p1.point(np.column_stack([np.zeros_like(t), t]))
        on_boundary = (
            np.abs(pts[:, 0] - 0).max() < 1e-14
            or np.abs(pts[:, 0] - 1).max() < 1e-14
            or np.abs(pts[:, 1] - 0).max() < 1e-14
            or np.abs(pts[:, 1] - 1).max() < 1e-14
        )
        assert on_boundary


def test_standard_form_vertex_grid(mp_grid22):
    interior = [v for v in mp_grid22.vertices if v.is_interior]
    assert len(interior) == 1
    v = interior[0]
    assert v.valence == 4
    rotated = [mp_grid22.patches[p].rotate(c) for p, c in v.corners]
    assert len(rotated) == 4
    for rp in rotated:
        np.testing.assert_allclose(rp.corner(0), [1.0, 1.0], atol=1e-14)


def test_standard_form_vertex_corner(mp_single):
    for v in mp_single.vertices:
        assert v.valence == 1
        ((p, c),) = v.corners
        rp = mp_single.patches[p].rotate(c)
        np.testing.assert_allclose(rp.corner(0), mp_single.patches[p].corner(c), atol=0)


def test_standard_form_vertex_three_patch_cyclic(mp_three):
    v = [v for v in mp_three.vertices if v.is_interior][0]
    rotated = [mp_three.patches[p].rotate(c) for p, c in v.corners]
    t = np.linspace(0, 1, 50)
    for ell in range(3):
        a = rotated[ell].point(np.column_stack([np.zeros_like(t), t]))
        b = rotated[(ell + 1) % 3].point(np.column_stack([t, np.zeros_like(t)]))
        assert np.abs(a - b).max() < 1e-13


def test_regularity_identity(mp_single):
    assert abs(check_regularity(mp_single.patches[0], 20) - 1.0) < 1e-14


def test_regularity_degenerate_quad(space):
    bad = bilinear_patch(space, (0, 0), (1, 0), (1, 0), (0, 1))
    assert check_regularity(bad, 20) <= 0.0


def test_regularity_matches_dense_scan(space):
    quad = bilinear_patch(space, (0, 0), (2, 0), (3, 2), (0, 1))
    got = check_regularity(quad, 200)
    t = np.linspace(0, 1, 200)
    uv = np.stack(np.meshgrid(t, t, indexing="ij"), -1).reshape(-1, 2)
    j = quad.jet(uv, 1)
    J = np.stack([j[:, 1, 0], j[:, 0, 1]], axis=-1)  # J[q, :, d] = dF / dxi_d
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 1, 0] * J[:, 0, 1]
    assert abs(got - det.min()) < 1e-10


def test_refine_identity_square(mp_single):
    fine = refine(mp_single)
    rng = np.random.default_rng(1)
    uv = rng.uniform(0, 1, (100, 2))
    np.testing.assert_allclose(
        fine.patches[0].point(uv), mp_single.patches[0].point(uv), atol=1e-12
    )


def test_refine_dimension_growth():
    sp = UnivariateSpace(3, 1, 2)
    assert sp.N == 6
    assert UnivariateSpace(3, 1, 4).N == 10


def test_refine_three_patch_geometry_invariant(mp_three, mp_curved):
    # the curved nets are not bilinear, so they exercise general knot insertion
    rng = np.random.default_rng(2)
    uv = rng.uniform(0, 1, (100, 2))
    for coarse in (mp_three, mp_curved):
        fine = refine(refine(coarse))
        for i in range(len(coarse.patches)):
            np.testing.assert_allclose(
                fine.patches[i].point(uv), coarse.patches[i].point(uv), atol=1e-12
            )
        for i in range(len(coarse.patches)):
            coarse_min = check_regularity(coarse.patches[i], 33)
            fine_min = check_regularity(fine.patches[i], 33)
            assert fine_min >= coarse_min - 1e-10


@pytest.mark.parametrize(
    "fixture,patches,interfaces,bedges,ivertices,bvertices",
    [
        ("mp_two", 2, 1, 6, 0, 6),
        ("mp_three", 3, 3, 6, 1, 6),
        ("mp_five", 5, 5, 10, 1, 10),
        ("mp_lshape", 3, 2, 8, 0, 8),
    ],
)
def test_builtin_topology_counts(
    request, fixture, patches, interfaces, bedges, ivertices, bvertices
):
    mp = request.getfixturevalue(fixture)
    assert len(mp.patches) == patches
    assert len(mp.interfaces()) == interfaces
    assert len(mp.edges) - len(mp.interfaces()) == bedges
    assert sum(1 for v in mp.vertices if v.is_interior) == ivertices
    assert sum(1 for v in mp.vertices if not v.is_interior) == bvertices


def test_side_and_corner_bijection(mp_three):
    seen_sides = set()
    for e in mp_three.edges:
        for ps in e.locals:
            assert ps not in seen_sides
            seen_sides.add(ps)
    assert seen_sides == {(i, s) for i in range(3) for s in range(4)}
    seen_corners = set()
    for v in mp_three.vertices:
        for pc in v.corners:
            assert pc not in seen_corners
            seen_corners.add(pc)
    assert seen_corners == {(i, c) for i in range(3) for c in range(4)}


# --- geometry file I/O -------------------------------------------------------


def test_save_load_roundtrip(mp_three, tmp_path):
    path = tmp_path / "geo.txt"
    save_geometry(mp_three, path)
    mp2 = load_geometry(path)
    for a, b in zip(mp_three.patches, mp2.patches):
        np.testing.assert_array_equal(a.net, b.net)
    assert [e.locals for e in mp2.edges] == [e.locals for e in mp_three.edges]
    assert [v.corners for v in mp2.vertices] == [v.corners for v in mp_three.vertices]


def test_load_rejects_missing_patch_reference(mp_two, tmp_path):
    path = tmp_path / "geo.txt"
    save_geometry(mp_two, path)
    text = path.read_text().replace("edge 0 interface 0 ", "edge 0 interface 7 ")
    path.write_text(text)
    with pytest.raises(TopologyError, match="edge 0"):
        load_geometry(path)


def test_load_rejects_nonconforming_interface(mp_two, tmp_path):
    path = tmp_path / "geo.txt"
    save_geometry(mp_two, path)
    lines = path.read_text().splitlines()
    # shift one control point of patch 0 by 1e-3
    idx = next(i for i, ln in enumerate(lines) if ln == "patch 0") + 1
    x, y = lines[idx].split()
    lines[idx] = f"{float(x) + 1e-3:.17g} {y}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises((ConformityError, TopologyError), match="1.0"):
        load_geometry(path)


def test_load_rejects_trailing_garbage(mp_two, tmp_path):
    path = tmp_path / "geo.txt"
    save_geometry(mp_two, path)
    path.write_text(path.read_text() + "stray tokens here\n")
    with pytest.raises(GeometryFormatError, match="trailing"):
        load_geometry(path)


def test_load_rejects_non_integer_ids(mp_two, tmp_path):
    path = tmp_path / "geo.txt"
    save_geometry(mp_two, path)
    text = path.read_text()
    for old, new in [
        ("edge 0 interface", "edge zero interface"),
        ("edge 1 boundary 0 1", "edge 1 boundary 0 1.5"),
        ("vertex 2 boundary", "vertex 2.0 boundary"),
    ]:
        path.write_text(text.replace(old, new))
        with pytest.raises(GeometryFormatError, match="bad index"):
            load_geometry(path)


def test_load_rejects_non_finite_coordinates(mp_two, tmp_path):
    path = tmp_path / "geo.txt"
    save_geometry(mp_two, path)
    lines = path.read_text().splitlines()
    idx = next(i for i, ln in enumerate(lines) if ln == "patch 1") + 5
    for bad in ("nan", "inf", "-inf"):
        x, y = lines[idx].split()
        path.write_text("\n".join(lines[:idx] + [f"{x} {bad}"] + lines[idx + 1 :]) + "\n")
        with pytest.raises(GeometryFormatError, match="non-finite"):
            load_geometry(path)


def test_load_rejects_nets_larger_than_the_file(mp_two, tmp_path):
    # a huge degree or element count is refused before anything is allocated
    path = tmp_path / "geo.txt"
    save_geometry(mp_two, path)
    text = path.read_text()
    for old, new in [("p 3", "p 100000"), ("n 4", "n 1000000000000000"), ("r 1", "r -7")]:
        path.write_text(text.replace(f"\n{old}\n", f"\n{new}\n"))
        with pytest.raises(GeometryFormatError, match="too short"):
            load_geometry(path)


def test_unvalidated_interface_mismatch_fails_the_build(mp_two):
    # refine builds with check=False, so the build's conformity check is the
    # only one such geometries get; it compares interface control points
    (i1, k1), _ = mp_two.interfaces()[0].locals
    net = mp_two.patches[i1].rotate(k1).net.copy()
    net[0, 2, 1] += 1e-9  # an interior control point of the interface trace
    patches = list(mp_two.patches)
    patches[i1] = type(patches[i1])(patches[i1].space, net).rotate(-k1)
    mp = MultiPatch(mp_two.config, patches, mp_two.edges, mp_two.vertices, check=False)
    with pytest.raises(ConformityError, match="1.000e-09"):
        ArgyrisSpace(mp)


def test_interface_between_different_spaces_rejected(mp_two):
    patches = list(mp_two.patches)
    other = UnivariateSpace(3, 1, mp_two.config.n + 1)
    patches[1] = bilinear_patch(other, *(patches[1].corner(c) for c in range(4)))
    with pytest.raises(ConformityError, match="different spline spaces"):
        MultiPatch(mp_two.config, patches, mp_two.edges, mp_two.vertices)


@pytest.mark.parametrize("check", [True, False])
def test_patches_off_the_config_space_rejected(mp_three, check):
    # conforming patches that all lie on a finer space than the config used
    # to pass validation and build a space of the config's dimension
    fine = refine(mp_three)
    with pytest.raises(ConformityError, match="different spline spaces"):
        MultiPatch(mp_three.config, fine.patches, fine.edges, fine.vertices, check=check)


def test_nan_control_point_fails_regularity(mp_two):
    patches = list(mp_two.patches)
    net = patches[0].net.copy()
    net[4, 4] = np.nan
    patches[0] = type(patches[0])(patches[0].space, net)
    with pytest.raises(ConformityError, match="singular"):
        MultiPatch(mp_two.config, patches, mp_two.edges, mp_two.vertices)


def test_load_rejects_misnumbered_ids(mp_two, tmp_path):
    # records are looked up by id: a duplicate or permuted id would silently
    # build the wrong edge or vertex functions
    path = tmp_path / "geo.txt"
    save_geometry(mp_two, path)
    text = path.read_text()
    duplicate = text.replace("edge 1 boundary", "edge 0 boundary")
    permuted = text.replace("vertex 1 boundary", "vertex @ boundary")
    permuted = permuted.replace("vertex 2 boundary", "vertex 1 boundary")
    permuted = permuted.replace("vertex @ boundary", "vertex 2 boundary")
    for bad in (duplicate, permuted):
        path.write_text(bad)
        with pytest.raises(TopologyError, match="ids must be"):
            load_geometry(path)


def test_duplicate_side_rejected(mp_two):
    edges = list(mp_two.edges) + [EdgeRecord(len(mp_two.edges), "boundary", [(0, 1)])]
    with pytest.raises(TopologyError):
        MultiPatch(mp_two.config, mp_two.patches, edges, mp_two.vertices, check=False)


def test_vertex_distinct_patches():
    with pytest.raises(TopologyError):
        VertexRecord(0, "interior", [(0, 0), (0, 2)])


def test_vertex_surrounding_edges_conventions(mp_three, mp_lshape):
    from argyris.multipatch import vertex_surrounding_edges

    v = [v for v in mp_three.vertices if v.is_interior][0]
    ring = vertex_surrounding_edges(mp_three, v)
    assert len(ring) == v.valence
    assert all(e.is_interface for e in ring)

    # reentrant corner of the L: three patches, four surrounding edges,
    # boundary edges first and last
    v = next(v for v in mp_lshape.vertices if v.valence == 3)
    ring = vertex_surrounding_edges(mp_lshape, v)
    assert len(ring) == 4
    assert not ring[0].is_interface and not ring[-1].is_interface
    assert ring[1].is_interface and ring[2].is_interface


@pytest.mark.parametrize("fixture", ["mp_three", "mp_five", "mp_lshape", "mp_asymmetric"])
def test_vertex_surrounding_edges_ring_order(request, fixture):
    # edge ell of the ring joins side c of the corner (p, c) of patch ell-1
    # and side c+1 of that of patch ell, for the patches that exist
    from argyris.multipatch import vertex_surrounding_edges

    mp = request.getfixturevalue(fixture)
    for v in mp.vertices:
        nu = v.valence
        for ell, edge in enumerate(vertex_surrounding_edges(mp, v)):
            if v.is_interior or ell > 0:
                assert v.corners[(ell - 1) % nu] in edge.locals
            if v.is_interior or ell < nu:
                p, c = v.corners[ell % nu]
                assert (p, (c + 1) % 4) in edge.locals


def test_interface_recorded_as_two_boundary_edges_is_refused(mp_two):
    # the two patches at each end of the cut still meet geometrically, so
    # only the vertex's edge ring shows that they share no interface; the
    # build of an unvalidated copy runs the same check
    cut = mp_two.interfaces()[0]
    sides = [e.locals for e in mp_two.edges if e is not cut] + [[s] for s in cut.locals]
    edges = [EdgeRecord(i, "interface" if len(s) == 2 else "boundary", s)
             for i, s in enumerate(sides)]
    with pytest.raises(TopologyError, match="share no interface"):
        MultiPatch(mp_two.config, mp_two.patches, edges, mp_two.vertices)
    mp = MultiPatch(mp_two.config, mp_two.patches, edges, mp_two.vertices, check=False)
    with pytest.raises(TopologyError, match="share no interface"):
        ArgyrisSpace(mp)


def test_rotate_grid_matches_quarter_turns_on_sides_and_corners():
    from argyris.multipatch import CORNER_UV, rotate_grid

    t = np.linspace(0.0, 1.0, 7)
    for x1, x2 in (([0.0], t), (t, [0.0]), ([0.0], [0.0])):
        uv = np.stack(np.meshgrid(x1, x2, indexing="ij"), axis=-1).reshape(-1, 2)
        for k in range(-1, 6):
            g1, g2 = rotate_grid(x1, x2, k)
            got = np.stack(np.meshgrid(g1, g2, indexing="ij"), axis=-1).reshape(-1, 2)
            want = uv
            for _ in range(k % 4):  # r(xi1, xi2) = (1 - xi2, xi1), point by point
                want = np.column_stack([1.0 - want[:, 1], want[:, 0]])
            assert np.array_equal(got, want)
    for c in range(4):
        assert np.array_equal(np.concatenate(rotate_grid([0.0], [0.0], c)), CORNER_UV[c])
