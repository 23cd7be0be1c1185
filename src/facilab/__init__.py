"""Verification bench for single-facility location mechanisms in normed spaces."""

__version__ = "0.1.0"

from .geometry import (
    EUCLIDEAN,
    GEOM_TOL,
    IMPROVE_MARGIN,
    WEIGHT_TOL,
    Lottery,
    Norm,
    Point,
    Profile,
    centroid,
    expected_distance,
    format_norm,
    parse_norm,
    point,
    point_on_segment_at_distance,
    radius,
    strict_convexity_witness,
)
from .mechanisms import (
    MechanismSpec,
    apply,
    format_mechanism,
    parse_mechanism,
    resolve,
)
from .objectives import (
    Objective,
    OptResult,
    RatioResult,
    approx_ratio,
    cost_mc,
    cost_sc,
    opt_max_cost,
    opt_social_cost,
)
from .properties import (
    PropertyVerdict,
    Witness,
    check_2dictatorship,
    check_cost_continuity,
    check_delta_bound,
    check_group_strategyproof_at,
    check_strategyproof_at,
    check_support_segment,
    check_translation_invariance,
    check_unanimity,
    check_uncompromising,
)
from .search import (
    SearchConfig,
    WorstRatioResult,
    search_gsp_violation,
    search_sp_violation,
    search_worst_ratio,
    structured_profiles,
)
