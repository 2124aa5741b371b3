"""Cone-constrained monotone mean-variance / mean-variance portfolio engine."""

from .market import (
    CoefficientField,
    MarketModel,
    PiecewiseRate,
    affine_factor_maps,
    build_model,
    pricing_kernel_batch,
)
from .cones import (
    Cone,
    cone_from_config,
    full_space,
    generated,
    orthant,
    project_cone,
)
from .bsde import (
    BsdeSolution,
    McSolverConfig,
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
    mmv_adversary,
    mv_objective,
    saddle_scan,
    scaled_minus_phi,
    simulate,
    zero_adversary,
)

__version__ = "0.1.0"
