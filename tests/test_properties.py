"""Properties of the space over generated geometries.

The geometries are 2x2 grids of bilinear patches with every grid point moved
by at most 0.25. Bilinear multi-patch geometries are always AS-G1 (Collin,
Sangalli & Takacs, CAGD 2016), and the grid has an interior vertex of
valence 4, which no builtin geometry has. A move of at most 0.25 keeps each
patch edge within 30 degrees of its grid direction and at least 0.5 long,
so every corner Jacobian determinant stays above 0.125.
"""

import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from argyris import (
    ArgyrisSpace,
    SpaceConfig,
    SpaceField,
    TensorSpace,
    UnivariateSpace,
    biorthogonality_matrix,
    infer_topology,
    load_geometry,
    project,
    save_geometry,
    smoothness_report,
    space_dimension,
)
from conftest import bilinear_patch

MAX_SHIFT = 0.25

# one (distance, angle) move per point of the 3x3 grid
grid_moves = st.lists(
    st.tuples(st.floats(0.0, MAX_SHIFT), st.floats(0.0, 2.0 * np.pi)),
    min_size=9,
    max_size=9,
)


def jittered_grid(config, moves):
    r, theta = np.array(moves).T
    shift = (r * np.array([np.cos(theta), np.sin(theta)])).T.reshape(3, 3, 2)
    pts = np.stack(np.meshgrid([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], indexing="ij"), -1)
    pts = pts + shift
    ts = TensorSpace(UnivariateSpace(config.p, config.r, config.n))
    patches = [
        bilinear_patch(ts, pts[i, j], pts[i + 1, j], pts[i + 1, j + 1], pts[i, j + 1])
        for i in range(2)
        for j in range(2)
    ]
    return infer_topology(config, patches)


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(grid_moves)
def test_jittered_grid_space(moves):
    mp = jittered_grid(SpaceConfig(3, 1, 4), moves)
    space = ArgyrisSpace(mp)
    assert space.dim == space_dimension(mp)[0]
    M = biorthogonality_matrix(space)
    assert np.abs(M - np.eye(space.dim)).max() < 1e-9
    assert smoothness_report(space).passed()
    # the projector reproduces a random member of the space
    c = np.random.default_rng(0).standard_normal(space.dim)
    assert np.abs(project(space, SpaceField(space, c)) - c).max() < 1e-9


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(grid_moves)
def test_jittered_grid_save_load_roundtrip(moves):
    mp = jittered_grid(SpaceConfig(3, 1, 4), moves)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "geo.txt")
        save_geometry(mp, path)
        back = load_geometry(path)
    assert back.config == mp.config
    for a, b in zip(mp.patches, back.patches):
        assert a.net.tobytes() == b.net.tobytes()
    assert [e.locals for e in back.edges] == [e.locals for e in mp.edges]
    assert [v.corners for v in back.vertices] == [v.corners for v in mp.vertices]
