"""Building the smooth space: dimensions, basis families, smoothness audit.

Run:  python demos/04_smooth_basis.py
"""

import numpy as np

from argyris import (
    ArgyrisSpace,
    C2Data,
    TensorSpline,
    UnivariateSpace,
    builtin_geometry,
    physical_derivatives,
    smoothness_report,
    space_dimension,
)
from argyris.multipatch import CORNER_UV

cfg = UnivariateSpace(3, 1, 4)
mp = builtin_geometry("three_patch_bilinear", cfg)

# The dimension is pure bookkeeping: it depends only on the topology counts
# and the space parameters, never on the control nets.
total, parts = space_dimension(mp)
print(f"dimension {total} = {parts['patch']} patch-interior "
      f"+ {parts['edge']} edge + {parts['vertex']} vertex")

# A basis function is a column index: the basis lists the functions of all
# patches, then all edges, then all vertices, one contiguous block per entity,
# and basis_id names the family, owner and local index of any column.
space = ArgyrisSpace(mp)
kinds = {}
for a in range(space.dim):
    kind = space.basis_id(a).kind
    kinds[kind] = kinds.get(kind, 0) + 1
print("enumerated:", kinds)

# Edge functions come in two flavors: traces (j, 0) span function values
# along the interface, derivatives (j, 1) span the transversal slope.
eid = mp.interfaces()[0].id
print(f"\ninterface {eid} basis indices:",
      [space.basis_id(a).index for a in range(space.dim)[space.block("edge", eid)]])

# Each vertex carries six functions that interpolate value, gradient and
# Hessian there; their point data is a scaled Kronecker delta.
v = [v for v in mp.vertices if v.is_interior][0]
print(f"\nvertex {v.id}: sigma = {space.sigma(v.id):.6f}")
coeffs = space.vertex_projector(v.id, C2Data(1.0, np.zeros(2), np.zeros((2, 2))))
ip, c = v.corners[0]
# a corner is a 1 x 1 tensor grid
gj = mp.patches[ip].grid_jet(*CORNER_UV[c], 2)
fj = TensorSpline(space.config, space.combine(coeffs, ip)).grid_jet(*CORNER_UV[c], 2)
val, grad, hess = physical_derivatives(gj, fj)
print("value-slot interpolant at the vertex: value", round(val[0], 12),
      "gradient", np.round(grad[0], 12), "Hessian max", np.abs(hess).max())

# The audit measures two-sided jumps of every basis function: values and
# physical gradients across interfaces, at 3p points of every element, which
# decide C1 there, and second derivatives at vertices.
rep = smoothness_report(space)
print(f"\nsmoothness audit: max C1 jump {rep.max_c1_jump:.2e}, "
      f"max C2 vertex jump {rep.max_c2_jump:.2e}")
print("audit passed:", rep.passed())
