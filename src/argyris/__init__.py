"""C1 Argyris-type isogeometric spline spaces on AS-G1 planar multi-patch domains.

The package builds, over a conforming multi-patch spline geometry whose
interfaces admit linear gluing data, a C1-smooth space that is C2 at all
patch vertices, together with an explicit dual basis, the induced
quasi-interpolation projector, and an L2-fitting harness with a convergence
study driver.
"""

from . import errors
from .bspline import (
    SpaceConfig,
    Spline,
    TensorSpace,
    TensorSpline,
    UnivariateSpace,
    convert,
    derived_edge_spaces,
    dual_functional,
    local_duals,
    multiply_by_linear,
    represent_exactly,
)
from .duality import (
    AnalyticField,
    SpaceField,
    biorthogonality_matrix,
    edge_duals,
    patch_duals,
    project,
    vertex_duals,
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
from .gluing import (
    GluingData,
    boundary_gluing,
    edge_determinants,
    fit_asg1,
    transversal_vector,
)
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
    rotate_uv,
    save_geometry,
    standard_form_edge,
    standard_form_vertex,
)
from .space import (
    ArgyrisFunction,
    ArgyrisSpace,
    BasisId,
    C2Data,
    VERTEX_INDEX_ORDER,
    physical_derivatives,
    space_dimension,
)

__version__ = "0.1.0"
