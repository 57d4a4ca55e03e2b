"""Gluing data along interfaces and the AS-G1 test.

Run:  python demos/03_gluing_data.py
"""

import numpy as np

from argyris import (
    UnivariateSpace,
    builtin_geometry,
    edge_determinants,
    fit_asg1,
    standard_form_edge,
    transversal_vector,
)
from argyris.errors import NotASG1Error

cfg = UnivariateSpace(3, 1, 4)

# Two translated unit squares meet with parametric continuity: the edge
# determinants collapse and the fitted data is the trivial one.
mp = builtin_geometry("two_patch_bilinear", cfg)
F1, F2 = standard_form_edge(mp, mp.interfaces()[0])
d1, d2, d12 = edge_determinants(F1, F2, np.linspace(0, 1, 9))
print("parametric continuity:")
print("  d1:", np.round(d1, 12))
print("  d2:", np.round(d2, 12))
print("  d12:", np.round(d12, 12))
g = fit_asg1(F1, F2)
print("  fitted alpha1:", g.alpha1, "beta:", g.beta, "residual:", g.residual)

# A genuinely angled interface of the three-patch fan: the alphas come out
# linear, beta splits into two linear parts, and the G1 defect is at rounding.
mp = builtin_geometry("three_patch_bilinear", cfg)
for e in mp.interfaces():
    F1, F2 = standard_form_edge(mp, e)
    g = fit_asg1(F1, F2)
    print(f"\ninterface {e.id}: AS-G1={g.asg1}, residual {g.residual:.2e}")
    print("  alpha1:", np.round(g.alpha1, 12), " alpha2:", np.round(g.alpha2, 12))
    print("  beta1: ", np.round(g.beta1, 12), " beta2: ", np.round(g.beta2, 12))
    d, dp = transversal_vector(g, F1, np.array([0.0, 0.5, 1.0]))
    print("  transversal d at {0, 1/2, 1}:", np.round(d, 6).tolist())

# The negative control: perturbing interior control points breaks the linear
# compatibility, and the classifier quantifies by how much.
mp = builtin_geometry("two_patch_generic_non_asg1", cfg)
F1, F2 = standard_form_edge(mp, mp.interfaces()[0])
try:
    fit_asg1(F1, F2)
except NotASG1Error as exc:
    print(f"\nperturbed two-patch: rejected, residual {exc.residual:.3e}")
