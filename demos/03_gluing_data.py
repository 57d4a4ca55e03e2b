"""Gluing data along interfaces and the AS-G1 test.

Run:  python demos/03_gluing_data.py
"""

import numpy as np
from numpy.polynomial import polynomial as P

from argyris import UnivariateSpace, builtin_geometry, fit_asg1, standard_form_edge
from argyris.errors import NotASG1Error


def det(a, b):
    return a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]


cfg = UnivariateSpace(3, 1, 4)

# Two translated unit squares meet with parametric continuity: the edge
# determinants d1 = det[d1F1, d2F1](0, t), d2 = det[d1F2, d2F2](t, 0) and
# d12 = det[d2F2(t, 0), d1F1(0, t)] collapse, and the fitted data is the
# trivial one. grid_jet gives the derivatives d^a d^b F of a patch on a grid,
# here a patch side.
mp = builtin_geometry("two_patch_bilinear", cfg)
F1, F2 = standard_form_edge(mp, mp.interfaces()[0])
t = np.linspace(0, 1, 9)
j1, j2 = F1.grid_jet([0.0], t, 1), F2.grid_jet(t, [0.0], 1)
d1 = det(j1[:, 1, 0], j1[:, 0, 1])
d2 = det(j2[:, 1, 0], j2[:, 0, 1])
d12 = det(j2[:, 0, 1], j1[:, 1, 0])
print("parametric continuity:")
print("  d1:", np.round(d1, 12))
print("  d2:", np.round(d2, 12))
print("  d12:", np.round(d12, 12))
g = fit_asg1(F1, F2)
print("  fitted alpha1:", g.alpha1, "beta:", g.beta, "residual:", g.residual)

# A genuinely angled interface of the three-patch fan: the alphas come out
# linear, beta splits into two linear parts, and the G1 defect is at rounding.
# The transversal vector d = (d1F1 + beta1 d2F1) / alpha1 points across the
# edge; the derivative edge functions take their S- data along it.
mp = builtin_geometry("three_patch_bilinear", cfg)
t = np.array([0.0, 0.5, 1.0])
for e in mp.interfaces():
    F1, F2 = standard_form_edge(mp, e)
    g = fit_asg1(F1, F2)
    print(f"\ninterface {e.id}: AS-G1={g.asg1}, residual {g.residual:.2e}")
    print("  alpha1:", np.round(g.alpha1, 12), " alpha2:", np.round(g.alpha2, 12))
    print("  beta1: ", np.round(g.beta1, 12), " beta2: ", np.round(g.beta2, 12))
    jet = F1.grid_jet([0.0], t, 1)
    a1, b1 = P.polyval(t, g.alpha1)[:, None], P.polyval(t, g.beta1)[:, None]
    d = (jet[:, 1, 0] + b1 * jet[:, 0, 1]) / a1
    print("  transversal d at {0, 1/2, 1}:", np.round(d, 6).tolist())

# The negative control: perturbing interior control points breaks the linear
# compatibility, and the classifier quantifies by how much.
mp = builtin_geometry("two_patch_generic_non_asg1", cfg)
F1, F2 = standard_form_edge(mp, mp.interfaces()[0])
try:
    fit_asg1(F1, F2)
except NotASG1Error as exc:
    print(f"\nperturbed two-patch: rejected, residual {exc.residual:.3e}")
