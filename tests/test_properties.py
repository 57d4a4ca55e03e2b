"""Properties of the space over generated geometries and geometry files.

The geometries are 2x2 grids of bilinear patches with every grid point moved
by at most 0.25. Bilinear multi-patch geometries are always AS-G1 (Collin,
Sangalli & Takacs, CAGD 2016), and the grid has an interior vertex of
valence 4, which no builtin geometry has. A move of at most 0.25 keeps each
patch edge within 30 degrees of its grid direction and at least 0.5 long,
so every corner Jacobian determinant stays above 0.125. The patches are not
parallelograms, so the fit's preconditioner is inexact on their interiors.

On two_patch_bilinear at n = 64 and 256, one edge column scaled by 1.01 on
one patch is a space that is not C1, which the smoothness report must fail
wherever the column lies.

The geometry files are a saved three-patch geometry with a few lines
deleted, duplicated, swapped or cut off, or a few tokens replaced; the
command line must answer each with exit code 0, 1 or 2.
"""

import contextlib
import copy
import functools
import io
import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from argyris import (
    ArgyrisSpace,
    builtin_geometry,
    SpaceField,
    UnivariateSpace,
    assemble_mass,
    assemble_rhs,
    biorthogonality_matrix,
    cos_sin_field,
    infer_topology,
    l2_fit,
    load_geometry,
    project,
    save_geometry,
    smoothness_report,
    space_dimension,
)
from argyris.cli import main
from argyris.space import CSRMatrix
from conftest import bilinear_patch

MAX_SHIFT = 0.25

# valid (p, r, n) for the smooth-space build, other degrees and smoothness
CONFIGS = [
    UnivariateSpace(*c) for c in [(3, 1, 4), (4, 2, 3), (4, 1, 2), (5, 1, 2), (5, 3, 4)]
]

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
    patches = [
        bilinear_patch(config, pts[i, j], pts[i + 1, j], pts[i + 1, j + 1], pts[i, j + 1])
        for i in range(2)
        for j in range(2)
    ]
    return infer_topology(config, patches)


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(grid_moves, st.sampled_from(CONFIGS))
def test_jittered_grid_space(moves, config):
    mp = jittered_grid(config, moves)
    space = ArgyrisSpace(mp)
    assert space.dim == space_dimension(mp)[0]
    M = biorthogonality_matrix(space).toarray()
    assert np.abs(M - np.eye(space.dim)).max() < 1e-9
    assert smoothness_report(space).passed()
    # the projector reproduces a random member of the space
    c = np.random.default_rng(0).standard_normal(space.dim)
    assert np.abs(project(space, SpaceField(space, c)) - c).max() < 1e-9


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(grid_moves)
def test_jittered_grid_save_load_roundtrip(moves):
    mp = jittered_grid(UnivariateSpace(3, 1, 4), moves)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "geo.txt")
        save_geometry(mp, path)
        back = load_geometry(path)
    assert back.config == mp.config
    for a, b in zip(mp.patches, back.patches):
        assert a.net.tobytes() == b.net.tobytes()
    assert [e.locals for e in back.edges] == [e.locals for e in mp.edges]
    assert [v.corners for v in back.vertices] == [v.corners for v in mp.vertices]


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(grid_moves)
def test_jittered_grid_fit_converges_under_gauss_seidel(moves):
    # jittered bilinear patches are not parallelograms, so the fast
    # diagonalization of the interior block is inexact there: the symmetric
    # Gauss-Seidel preconditioner stays positive definite and well
    # conditioned (2.7 when it was added), and the fit is the direct solve's
    mp = jittered_grid(UnivariateSpace(3, 1, 4), moves)
    space, fld = ArgyrisSpace(mp), cos_sin_field(mp)
    res = l2_fit(space, fld)
    assert 0 < res.cg_iterations <= 20 and 1.0 < res.cond_estimate < 4.0
    ref = np.linalg.solve(assemble_mass(space) @ np.eye(space.dim), assemble_rhs(space, fld))
    assert np.linalg.norm(res.coeffs - ref) < 1e-9 * np.linalg.norm(ref)


@functools.cache
def two_patch_space(n):
    return ArgyrisSpace(builtin_geometry("two_patch_bilinear", UnivariateSpace(3, 1, n)))


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([64, 256]), st.integers(0, 10**6), st.sampled_from([0, 1]))
def test_report_fails_every_perturbed_edge_column(n, at, patch):
    # a trace (j, 0) or derivative (j, 1) column scaled on one patch breaks
    # value or gradient continuity on its support; 3p points per element
    # see every support, where a fixed count of equispaced samples let some
    # fall between them once elements outnumbered the samples
    space = copy.copy(two_patch_space(n))
    block = space.block("edge", space.geometry.interfaces()[0].id)
    a = block.start + at % (block.stop - block.start)
    C = space.C
    on = (C.row_ids // space.N**2 == patch) & (C.indices == a)
    space.C = CSRMatrix(C.indptr, C.indices, np.where(on, 1.01 * C.data, C.data), C.shape)
    assert not smoothness_report(space).passed(), space.basis_id(a)


# replacement tokens: malformed, non-finite, small and huge numbers, and
# keywords in the wrong place
TOKENS = ["", "-1", "0", "1", "2", "5", "9", "1000000000000000", "0.5", "1e300",
          "nan", "inf", "x", "patch", "edge", "vertex", "interior", "boundary"]

# a line is picked by an index into the file, negative ones from the end
line_index = st.integers(-10**6, 10**6)
file_mutation = st.one_of(
    st.tuples(st.just("delete"), line_index),
    st.tuples(st.just("duplicate"), line_index),
    st.tuples(st.just("swap"), line_index, line_index),
    st.tuples(st.just("truncate"), line_index),
    st.tuples(st.just("token"), line_index, st.integers(0, 12), st.sampled_from(TOKENS)),
)


def mutate(lines, mutations):
    lines = list(lines)
    for kind, at, *rest in mutations:
        if not lines:
            break
        k = at % len(lines)
        if kind == "delete":
            del lines[k]
        elif kind == "duplicate":
            lines.insert(k, lines[k])
        elif kind == "swap":
            m = rest[0] % len(lines)
            lines[k], lines[m] = lines[m], lines[k]
        elif kind == "truncate":
            lines = lines[:k]
        else:
            tokens = lines[k].split() or [""]
            tokens[rest[0] % len(tokens)] = rest[1]
            lines[k] = " ".join(tokens)
    return lines


@functools.cache
def three_patch_lines():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "geo.txt")
        mp = builtin_geometry("three_patch_bilinear", UnivariateSpace(3, 1, 4))
        save_geometry(mp, path)
        with open(path) as fh:
            return tuple(fh.read().splitlines())


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(file_mutation, min_size=1, max_size=3))
def test_mutated_geometry_file_exit_codes(mutations):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "geo.txt")
        with open(path, "w") as fh:
            fh.write("\n".join(mutate(three_patch_lines(), mutations)) + "\n")
        for command in (["geom", "check"], ["space", "dim"], ["gluing"]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(command + ["--geometry", path])
            assert code in (0, 1, 2), (command, mutations)
