"""Built-in multi-patch test geometries.

All of them are conforming; the bilinear families (and the curved variant
obtained by composing a bilinear multi-patch with a mild polynomial map) admit
linear gluing data at every interface, while ``two_patch_generic_non_asg1``
deliberately does not.
"""

import numpy as np

from .bspline import UnivariateSpace, represent_exactly
from .errors import InvalidConfigError
from .multipatch import Patch, infer_topology

__all__ = ["BUILTIN_NAMES", "builtin_geometry"]

BUILTIN_NAMES = (
    "two_patch_bilinear",
    "three_patch_bilinear",
    "five_patch_bilinear",
    "lshape_bilinear",
    "two_patch_curved_asg1",
    "two_patch_generic_non_asg1",
)


def _bilinear_patch(space, c00, c10, c11, c01):
    # Greville embedding reproduces bilinear maps exactly
    g = space.greville()
    u, v = g[:, None, None], g[None, :, None]
    c00, c10, c11, c01 = (np.asarray(c, dtype=float) for c in (c00, c10, c11, c01))
    net = (
        (1 - u) * (1 - v) * c00
        + u * (1 - v) * c10
        + u * v * c11
        + (1 - u) * v * c01
    )
    return Patch(space, net)


def _fan(space, npatch):
    """npatch quads around the origin inside a regular 2*npatch-gon of
    radius 3."""
    m = 2 * npatch
    ang = 2.0 * np.pi * np.arange(m) / m
    ring = 3.0 * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    c = np.zeros(2)
    return [
        _bilinear_patch(
            space, c, ring[2 * k], ring[(2 * k + 1) % m], ring[(2 * k + 2) % m]
        )
        for k in range(npatch)
    ]


def _two_squares(space):
    right = _bilinear_patch(space, (0, 0), (1, 0), (1, 1), (0, 1))
    left = _bilinear_patch(space, (-1, 0), (0, 0), (0, 1), (-1, 1))
    return [right, left]


def _composed(space, patches, gmap):
    """Nets of gmap o patch, represented exactly in v and then in u."""
    out = []
    for patch in patches:
        def sample(u, v, _p=patch):
            # (len(v), len(u), 2) values on the tensor grid u x v
            x = gmap(_p.grid_jet(u, v, 0)[:, 0, 0])
            return x.reshape(len(u), len(v), 2).swapaxes(0, 1)

        def v_coeffs(u, _s=sample):
            # (len(u), N, 2): v-direction coefficients at each u sample
            return represent_exactly(space, lambda v: _s(u, v)).swapaxes(0, 1)

        out.append(Patch(space, represent_exactly(space, v_coeffs)))
    return out


def builtin_geometry(name, config=None):
    """Construct one of the named test geometries on the square of a
    univariate space (default (p, r, n) = (3, 1, 4))."""
    config = config or UnivariateSpace(3, 1, 4)

    if name == "two_patch_bilinear":
        return infer_topology(config, _two_squares(config))

    if name == "three_patch_bilinear":
        return infer_topology(config, _fan(config, 3))

    if name == "five_patch_bilinear":
        return infer_topology(config, _fan(config, 5))

    if name == "lshape_bilinear":
        a = _bilinear_patch(config, (-1, -1), (0, -1), (0, 0), (-1, 0))
        b = _bilinear_patch(config, (-1, 0), (0, 0), (0, 1), (-1, 1))
        c = _bilinear_patch(config, (0, 0), (1, 0), (1, 1), (0, 1))
        return infer_topology(config, [a, b, c])

    if name == "two_patch_curved_asg1":
        if config.p < 2:
            raise InvalidConfigError("the curved geometry needs degree p >= 2")

        def gmap(x):
            return np.stack(
                [x[:, 0] + 0.1 * x[:, 1] ** 2, x[:, 1] + 0.1 * x[:, 0] ** 2], axis=1
            )

        return infer_topology(config, _composed(config, _two_squares(config), gmap))

    if name == "two_patch_generic_non_asg1":
        rng = np.random.default_rng(20240811)
        amp = 0.2 / config.n  # keep the perturbed net regular on fine meshes
        patches = []
        for patch in _two_squares(config):
            net = patch.net.copy()
            net[1:-1, 1:-1] += rng.uniform(-amp, amp, net[1:-1, 1:-1].shape)
            patches.append(Patch(config, net))
        return infer_topology(config, patches)

    raise InvalidConfigError(
        f"unknown geometry {name!r}; available: {', '.join(BUILTIN_NAMES)}"
    )
