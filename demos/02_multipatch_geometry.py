"""Multi-patch geometries: topology, standard form, refinement, file I/O.

Run:  python demos/02_multipatch_geometry.py
"""

import tempfile
from pathlib import Path

import numpy as np

from argyris import (
    UnivariateSpace,
    builtin_geometry,
    check_regularity,
    load_geometry,
    refine,
    save_geometry,
    standard_form_edge,
)

cfg = UnivariateSpace(3, 1, 4)

for name in ("two_patch_bilinear", "three_patch_bilinear", "five_patch_bilinear",
             "lshape_bilinear"):
    mp = builtin_geometry(name, cfg)
    ni = len(mp.interfaces())
    print(f"{name}: {len(mp.patches)} patches, {ni} interfaces, "
          f"{len(mp.edges) - ni} boundary edges, "
          f"{len(mp.vertices)} vertices")

mp = builtin_geometry("three_patch_bilinear", cfg)

# Every patch map must be orientation-preserving; sample its Jacobian.
for i, patch in enumerate(mp.patches):
    print(f"patch {i}: min Jacobian determinant {check_regularity(patch, 41):.4f}")

# Standard form for an interface: rotate the two neighbors so the shared
# curve is traced identically as F1(0, t) = F2(t, 0).
e = mp.interfaces()[0]
F1, F2 = standard_form_edge(mp, e)
t = np.linspace(0, 1, 5)
a = F1.grid_jet([0.0], t, 0)[:, 0, 0]  # the side {xi1 = 0} of F1
b = F2.grid_jet(t, [0.0], 0)[:, 0, 0]  # the side {xi2 = 0} of F2
print(f"\ninterface {e.id} standard-form gap: {np.abs(a - b).max():.2e}")

# Standard form for the interior vertex: each patch turned by its corner
# number, so the vertex sits at the parametric origin of all three.
v = [v for v in mp.vertices if v.is_interior][0]
rotated = [mp.patches[p].rotate(c) for p, c in v.corners]
print(f"vertex {v.id} (valence {v.valence}) corners:",
      [np.round(rp.corner(0), 12).tolist() for rp in rotated])

# Nested refinement keeps the geometry bit-for-bit (up to rounding); compare
# both maps on a random 8 x 8 tensor grid of parameters.
fine = refine(mp)
x = np.random.default_rng(1).uniform(0, 1, 8)
gap = max(np.abs(P.grid_jet(x, x, 0) - Q.grid_jet(x, x, 0)).max()
          for P, Q in zip(mp.patches, fine.patches))
print(f"\nrefinement 4 -> 8 elements per direction, geometry deviation {gap:.2e}")

# Geometries round-trip through the text format losslessly.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "three_patch.txt"
    save_geometry(mp, path)
    mp2 = load_geometry(path)
    same = all(np.array_equal(mp.patches[i].net, mp2.patches[i].net)
               for i in range(len(mp.patches)))
    print(f"file round-trip control nets identical: {same}")
    print(f"file size: {path.stat().st_size} bytes")
