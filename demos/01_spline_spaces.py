"""Univariate building blocks: spaces, evaluation, exact representation, duals.

Run:  python demos/01_spline_spaces.py
"""

import numpy as np

from argyris import UnivariateSpace, derived_edge_spaces, local_duals, represent_exactly
from argyris.errors import NotInSpaceError


def basis_table(space, x):
    """(len(x), N): every basis function of a space at the points x, from the
    p + 1 active ones that basis_ders returns at each point."""
    first, ders = space.basis_ders(x, 0)
    out = np.zeros((len(x), space.N))
    np.put_along_axis(out, first[:, None] + np.arange(space.p + 1), ders[:, 0], axis=1)
    return out

# A degree-3, C^1 space on 4 uniform elements. Interior knots carry
# multiplicity p - r = 2, so the dimension is (p-r)(n-1) + p + 1 = 10.
sp = UnivariateSpace(3, 1, 4)
print("space:", sp)
print("knots:", sp.knots)
print("Greville abscissae:", np.round(sp.greville(), 4))

# All active basis functions at a point, with derivatives.
first, ders = sp.basis_ders([0.37], 2)
print(f"\nat x=0.37 the active functions start at index {first[0]}")
print("values:      ", np.round(ders[0, 0], 6), " (sum:", ders[0, 0].sum(), ")")
print("derivatives: ", np.round(ders[0, 1], 6))

# The edge spaces attached to this space: same degree with one more order of
# smoothness, and one degree less with the same smoothness. Their dimensions
# differ by exactly one.
splus, sminus = derived_edge_spaces(sp)
print("\ntrace space:      ", splus)
print("derivative space: ", sminus)

# Exact piecewise-polynomial arithmetic: represent_exactly reads the
# coefficients of a member of a space from one sample of it. A product with a
# linear polynomial lands in the space of one degree more and the same
# continuity with no approximation error; here 1 * x, where 1 is the spline
# with all coefficients one (the basis is a partition of unity).
deg4 = UnivariateSpace(4, 1, 4)
prod = represent_exactly(deg4, lambda x: x * (basis_table(sp, x) @ np.ones(sp.N)))
print("\ncoefficients of x in the degree-4 space:", np.round(prod, 6))
print("(these are the Greville abscissae of that space)")

# Exact conversion: every member of S+ lives in the big space too. One call
# converts the whole basis of S+, one column per function.
R = represent_exactly(sp, lambda x: basis_table(splus, x))
xs = np.linspace(0, 1, 7)
print("\nconversion residual of the trace basis:",
      np.abs(basis_table(sp, xs) @ R - basis_table(splus, xs)).max())

# A function with a kink off the mesh is no member, and is refused.
try:
    represent_exactly(sp, lambda x: np.abs(x - 0.3))
except NotInSpaceError as exc:
    print("|x - 0.3| refused:", exc)

# Local dual functionals: one table per space (points on every element, and
# an element and a weight row per basis function) reads every coefficient of
# a member from its samples at those points.
duals = local_duals(sp)
samples = basis_table(sp, duals.points.ravel())
print("\nduals applied to the basis, max |table - I|:",
      np.abs(duals.apply(samples) - np.eye(sp.N)).max())
rng = np.random.default_rng(0)
c = rng.normal(size=sp.N)
print("dual-functional coefficient recovery error:", np.abs(duals.apply(samples @ c) - c).max())
