"""Averaging operators, rearrangements and Lorentz norms on finite
atomic metric measure spaces, plus compactness diagnostics for the
averaging operator."""

from .averaging import (
    AveragingKernel,
    average,
    distribution_constant,
    equicontinuity_modulus,
    extremal_pair_function,
    pointwise_bound,
    verify_distribution_inequality,
    verify_operator_bound,
    verify_rearrangement_bound,
)
from .compactness import (
    CoveringReport,
    ProbeRow,
    SimpleApproximation,
    WitnessReport,
    compactness_probe,
    covering_number,
    sample_unit_sphere,
    simple_approximation,
    witness_sequence,
)
from .errors import DomainError, MetricViolationError, NotInSpaceError
from .norms import (
    DOUBLE_STAR,
    PLAIN,
    HolderConstants,
    NormSpec,
    chi_norm_closed_form,
    holder_check,
    holder_constants,
    lebesgue_norm,
    lorentz_norm,
    lorentz_norms,
    norm_equivalence_check,
)
from .rearrange import (
    FunctionOnSpace,
    MaximalProfile,
    StepFunction,
    distribution_function,
    hardy_littlewood_check,
    integrate_step_product,
    maximal_profile,
    rearrangement,
)
from .space import (
    BoundednessReport,
    MetricMeasureSpace,
    ball,
    boundedness_report,
    build_space,
    doubling_constant,
    min_ball_ratio,
    separated_points,
    symm_diff_measure,
    vitali_subfamily,
)

__version__ = "0.1.0"
