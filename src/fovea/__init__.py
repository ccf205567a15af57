"""fovea: exact computations with bound quivers, graded covers and the
functor categories over their module categories."""

__version__ = "0.1.0"

from .linalg import Field, Matrix, Subspace, kernel_basis, rref, solve
from .quiver import (
    BoundQuiver,
    VoltageQuiver,
    Window,
    check_admissible,
    extract_presentation,
    format_quiver,
    is_convex,
    lift_window,
    normalize_presentation,
    opposite_quiver,
    parse_quiver,
    path_basis,
    sub_quiver,
)
from .modules import (
    AlmostSplitSequence,
    Decomposition,
    ModMap,
    Module,
    almost_split_sequence,
    decompose,
    direct_sum,
    dual_module,
    enumerate_indecomposables,
    format_module,
    hom_dim,
    hom_space,
    injective,
    is_indecomposable,
    is_isomorphic,
    map_factor,
    parse_module,
    projective,
    radical_hom,
    right_almost_split,
    simple,
)
from .covering import (
    LayeredModMap,
    LayeredModule,
    layered_hom,
    layered_injective,
    layered_projective,
    layered_simple,
    lift_morphism,
    push_down,
    push_down_map,
    verify_covering_axioms,
    verify_pushdown,
)
from .functors import (
    FpFunctor,
    evaluate,
    evaluate_dim,
    extend_functor,
    fp_functor,
    fp_hom,
    fp_hom_dim,
    functor_length,
    functor_length_cover,
    hom_functor,
    kg_level0_report,
    phi,
    phi_epi_cover,
    phi_hom_identity,
    psi_evaluate,
    restrict_functor,
    simple_functor,
    simple_functor_cover,
    twist_functor,
)
from .repetitive import (
    is_selfinjective,
    repetitive_truncation,
    repetitive_voltage,
    selfinjective_orbit,
)
