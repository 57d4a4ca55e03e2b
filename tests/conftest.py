import numpy as np
import pytest

from argyris import (
    ArgyrisSpace,
    Patch,
    UnivariateSpace,
    builtin_geometry,
    infer_topology,
)


def pointwise_jet(space, coeffs, uv, nderiv):
    """Jet (m, nderiv+1, nderiv+1, ...) of the tensor spline with coefficient
    grid ``coeffs`` on the square of a univariate space at points uv (m, 2):
    the active (p+1) x (p+1) coefficients of every point gathered and
    contracted with its basis values. A reference independent of the sum
    factorization of ``TensorSpline.grid_jet``."""
    uv = np.atleast_2d(np.asarray(uv, dtype=float))
    f1, d1 = space.basis_ders(uv[:, 0], nderiv)
    f2, d2 = space.basis_ders(uv[:, 1], nderiv)
    i1 = f1[:, None] + np.arange(space.p + 1)[None, :]
    i2 = f2[:, None] + np.arange(space.p + 1)[None, :]
    W = np.asarray(coeffs, dtype=float)[i1[:, :, None], i2[:, None, :]]
    return np.einsum("mai,mij...,mbj->mab...", d1, W, d2)


def rotate_grid(x1, x2, k):
    """Factors (x1, x2) of the image of the tensor grid x1 x x2 under k quarter
    turns. With one factor a single point (a side or a corner), point q of
    the x1-major flattened grid maps to point q of the image grid."""
    x1, x2 = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (x1, x2))
    for _ in range(k % 4):
        x1, x2 = 1.0 - x2, x1
    return x1, x2


def member_jet(space, coeffs, patch, uv, nderiv):
    """Parametric jet (m, nderiv+1, nderiv+1, ...) on one patch of the member
    of an ArgyrisSpace with the given coefficients (dim,) or (dim, k)."""
    return pointwise_jet(space.config, space.combine(coeffs, patch), uv, nderiv)


def patch_point(patch, uv):
    """Images (m, 2) of the parametric points uv (m, 2) under a Patch."""
    return pointwise_jet(patch.space, patch.net, uv, 0)[:, 0, 0]


def bilinear_patch(space, c00, c10, c11, c01):
    g = space.greville()
    u, v = g[:, None, None], g[None, :, None]
    c00, c10, c11, c01 = (np.asarray(c, float) for c in (c00, c10, c11, c01))
    net = (1 - u) * (1 - v) * c00 + u * (1 - v) * c10 + u * v * c11 + (1 - u) * v * c01
    return Patch(space, net)


def square_grid_geometry(config, nx, ny):
    """nx-by-ny grid of unit squares (axis-aligned, identity-like patches)."""
    patches = []
    for ix in range(nx):
        for iy in range(ny):
            patches.append(
                bilinear_patch(
                    config,
                    (ix, iy),
                    (ix + 1, iy),
                    (ix + 1, iy + 1),
                    (ix, iy + 1),
                )
            )
    return infer_topology(config, patches)


@pytest.fixture(scope="session")
def cfg4():
    return UnivariateSpace(3, 1, 4)


@pytest.fixture(scope="session")
def mp_two(cfg4):
    return builtin_geometry("two_patch_bilinear", cfg4)


@pytest.fixture(scope="session")
def mp_three(cfg4):
    return builtin_geometry("three_patch_bilinear", cfg4)


@pytest.fixture(scope="session")
def mp_five(cfg4):
    return builtin_geometry("five_patch_bilinear", cfg4)


@pytest.fixture(scope="session")
def mp_lshape(cfg4):
    return builtin_geometry("lshape_bilinear", cfg4)


@pytest.fixture(scope="session")
def mp_curved(cfg4):
    return builtin_geometry("two_patch_curved_asg1", cfg4)


@pytest.fixture(scope="session")
def mp_non_asg1(cfg4):
    return builtin_geometry("two_patch_generic_non_asg1", cfg4)


@pytest.fixture(scope="session")
def sp_two(mp_two):
    return ArgyrisSpace(mp_two)


@pytest.fixture(scope="session")
def sp_three(mp_three):
    return ArgyrisSpace(mp_three)


@pytest.fixture(scope="session")
def mp_grid22(cfg4):
    return square_grid_geometry(cfg4, 2, 2)


@pytest.fixture(scope="session")
def mp_single(cfg4):
    return square_grid_geometry(cfg4, 1, 1)


@pytest.fixture(scope="session")
def mp_asymmetric(cfg4):
    """Two bilinear quads whose interface needs genuinely linear gluing data
    (nonzero alpha slopes and a full-rank beta split)."""
    right = bilinear_patch(cfg4, (0, 0), (1.0, -0.2), (1.3, 1.2), (0, 1))
    left = bilinear_patch(cfg4, (-1.1, -0.3), (0, 0), (0, 1), (-0.8, 1.4))
    return infer_topology(cfg4, [right, left])
