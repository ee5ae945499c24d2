"""Rigid folding kinematics of a single degree-6 vertex.

Loop-closure geometry, symmetry-reduced first and second order rigidity
analysis, exhaustive classification of symmetric folding modes on the
equilateral pattern, closed-form evaluators for each foldable family, and
configuration-space sampling with csv/json/obj export.
"""

from types import ModuleType as _ModuleType

from .config_space import (
    AdmissibleRegion,
    ConfigSample,
    CurveTrace,
    ExportReport,
    Samples,
    admissible_region,
    as_samples,
    export,
    load_samples_json,
    make_sample,
    make_samples,
    sweep_model,
    trace_implicit_curve,
)
from .core_geometry import (
    CreasePattern,
    FoldedState,
    closure_residual,
    closure_residuals,
    folded_geometry,
    g60,
    rotation_products,
    self_intersections,
    self_intersects,
)
from .errors import (
    BranchAmbiguityError,
    DomainError,
    InconsistentPointError,
    NoSolutionError,
    NotClosedError,
    NumericalError,
    OutOfRangeError,
    RigidFoldError,
    SingularParameterError,
)
from .fold_models import (
    FoldMode,
    FoldModel,
    OppositesSolution,
    Solved,
    almost_general,
    bowtie,
    bowtie_multiplier,
    bowtie_pattern,
    degree4_fold,
    degree4_multipliers,
    degree4_pattern,
    general_fold,
    general_solve,
    igloo_1dof,
    igloo_pattern,
    igloo_rho1,
    igloo_rho4,
    opposites_pattern,
    opposites_solve,
    pleat_multiplier,
    resch_fold,
    trifold,
    trifold_drive_limit,
    trifold_multiplier,
    trifold_pattern,
    two_pair_complete,
    two_pair_curve_gradient,
    two_pair_curve_residual,
    two_pair_solve,
)
from .second_order_rigidity import (
    ModeSolution,
    VelocityVector,
    first_order_matrix,
    ray_class_values,
    second_order_matrix,
    solve_modes,
    symmetric_mode_solve,
    symmetry_reduced_system,
)
from .symmetry_enumeration import (
    ColorPattern,
    NAMED_PATTERNS,
    NAMED_REPRESENTATIVES,
    Table1Row,
    canonical_form,
    classify_g60,
    enumerate_patterns,
)

__version__ = "0.1.0"

# every public name imported above, the modules themselves excepted
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
