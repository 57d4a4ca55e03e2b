"""C1 Argyris-type isogeometric spline spaces on AS-G1 planar multi-patch domains.

The package builds, over a conforming multi-patch spline geometry whose
interfaces admit linear gluing data, a C1-smooth space that is C2 at all
patch vertices, together with an explicit dual basis, the induced
quasi-interpolation projector, and an L2-fitting harness with a convergence
study driver.
"""

from . import errors
from .bspline import (
    TensorSpline,
    UnivariateSpace,
    derived_edge_spaces,
    local_duals,
    represent_exactly,
)
from .duality import (
    AnalyticField,
    SpaceField,
    biorthogonality_matrix,
    project,
)
from .fit import (
    ConvergenceTable,
    FitResult,
    QuadratureRule,
    assemble_mass,
    assemble_rhs,
    convergence_study,
    cos_sin_field,
    l2_fit,
    smoothness_report,
)
from .geometries import BUILTIN_NAMES, builtin_geometry
from .gluing import GluingData, boundary_gluing, fit_asg1
from .multipatch import (
    EdgeRecord,
    MultiPatch,
    Patch,
    VertexRecord,
    check_regularity,
    infer_topology,
    load_geometry,
    refine,
    rotate_net,
    save_geometry,
    standard_form_edge,
)
from .space import (
    ArgyrisSpace,
    BasisId,
    C2Data,
    VERTEX_INDEX_ORDER,
    physical_derivatives,
    space_dimension,
)

__version__ = "0.1.0"
