"""Cone-constrained monotone mean-variance / mean-variance portfolio engine."""

from .market import (
    CoefficientField,
    DiscountFactor,
    MarketModel,
    PiecewiseRate,
    affine_factor_maps,
    build_model,
    discount_h,
    pricing_kernel,
    pricing_kernel_batch,
)
from .cones import (
    Cone,
    TransformedConePoint,
    cone_from_config,
    cone_inf_quadratic,
    contains,
    full_space,
    generated,
    orthant,
    project_cone,
    project_transformed,
)
from .bsde import (
    BsdeSolution,
    McSolverConfig,
    driver_f,
    positivity_envelope,
    solve_deterministic,
    solve_markovian,
    solve_markovian_many,
    transform_p_to_y,
    transform_p2_to_y,
)
from .strategies import (
    DualCurve,
    EquivalenceReport,
    FeedbackStrategy,
    dual_curve,
    equivalence_check,
    mmv_adversary,
    mmv_feedback,
    mmv_value,
    mv_feedback,
)
from .simulate import (
    Adversary,
    SimBatchResult,
    conservation_residual,
    constant_adversary,
    custom_adversary,
    mv_objective,
    saddle_adversary,
    saddle_scan,
    scaled_minus_phi,
    simulate,
    zero_adversary,
)

__version__ = "0.1.0"
