"""The dual basis as a projector, and the h-refinement study.

Run:  python demos/05_projection_convergence.py   (a few seconds)
"""

import numpy as np

from argyris import (
    AnalyticField,
    ArgyrisSpace,
    SpaceField,
    TensorSpline,
    UnivariateSpace,
    builtin_geometry,
    convergence_study,
    cos_sin_field,
    l2_fit,
    project,
)

cfg = UnivariateSpace(3, 1, 4)
mp = builtin_geometry("three_patch_bilinear", cfg)
space = ArgyrisSpace(mp)

# The dual functionals reproduce every member of the space exactly.
rng = np.random.default_rng(0)
c = rng.normal(size=space.dim)
c2 = project(space, SpaceField(space, c))
print("projector reproduction error on a random member:", np.abs(c - c2).max())

# They also reproduce global linear functions on these geometries.
linear = AnalyticField(
    mp,
    lambda x: 2.0 + x[:, 0] - 3.0 * x[:, 1],
    lambda x: np.column_stack([np.ones(len(x)), -3.0 * np.ones(len(x))]),
    lambda x: np.zeros((len(x), 2, 2)),
)
cl = project(space, linear)
t = rng.uniform(0, 1, 10)  # a random 10 x 10 tensor grid of parameters
worst = 0.0
for i in range(len(mp.patches)):
    got = TensorSpline(space.config, space.combine(cl, i)).grid_jet(t, t, 0)[:, 0, 0]
    x = mp.patches[i].grid_jet(t, t, 0)[:, 0, 0]
    worst = max(worst, np.abs(got - (2.0 + x[:, 0] - 3.0 * x[:, 1])).max())
print("pointwise residual of the projected linear function:", worst)

# A single least-squares fit of the benchmark target 2 cos(x1) sin(x2).
res = l2_fit(space, cos_sin_field(mp))
print(f"\nfit at h=1/4: dim {res.dim}, relative L2 error {res.rel_error:.3e}")

# The study: nested refinements, errors and estimated convergence rates.
# Four levels reach h = 1/32 (dimension 12105) and show the fourth-order
# decay; three levels keep this demo quick.
table, _ = convergence_study(mp, cos_sin_field, 3)
print("\n" + table.to_text())
print("\nCSV form:\n" + table.to_csv())
