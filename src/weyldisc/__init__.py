"""weyldisc: Weyl disc analysis of singular mixed-order matrix difference
equations on a discrete half-line.

Solve initial value problems for the coupled two-component system,
verify its structural identities (Green's formula, Lagrange identity,
Wronskian constancy, variation of parameters), compute nested Weyl
discs and m-points, classify the equation as limit point or limit
circle, and check two coefficient-based limit-point criteria.
"""

# the one version string: reports and the package metadata read it
__version__ = "0.1.0"

from .backends import big_backend_name  # noqa: E402
from .criteria import (
    CriterionVerdict,
    asymptotic_class,
    ratio_limit_point_check,
    weighted_limit_point_check,
)
from .errors import (
    CoefficientRangeError,
    EvaluationError,
    ExprSyntaxError,
    InadmissibleLambdaError,
    MatchingSingularError,
    NativeOverflowError,
    NumericalInvariantError,
    PrecisionExhaustedError,
    ScenarioError,
    WeyldiscError,
    WindowError,
)
from .expr import parse_coefficient_expr, to_text
from .growth import GrowthClass
from .model import (
    CoefficientSet,
    DerivedSample,
    ExprCoefficient,
    PerturbationDelta,
    PrecisionConfig,
    SpectralPoint,
    TableCoefficient,
    derived_at,
    eval_coefficient,
    spectral_gap,
    split_perturbation,
)
from .recurrence import (
    BoundaryData,
    StepMatrix,
    StepTable,
    Trajectory,
    fundamental_matrix,
    oracle_three_term,
    propagate,
    propagate_backward,
    reconstruct_y2,
    step_matrix,
    step_table,
)
from .scenarios import (
    Scenario,
    builtin_names,
    builtin_scenario,
    load_scenario,
    resolve_scenario,
)
from .structure import (
    VopResult,
    bracket,
    green_defect,
    lagrange_identity_defect,
    quasi_difference,
    vop_reconstruct,
    wronskian,
)
from .weyl import (
    BoundaryAngles,
    ClassificationReport,
    ClassifyOptions,
    CornerValues,
    L2Profile,
    WeylDisc,
    chi,
    classify,
    corner_values,
    fundamental_pair,
    m_point,
    on_circle_defect,
    regular_eigen_residual,
    weyl_disc,
)
