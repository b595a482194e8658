"""SURE-tuned estimation and the price of tuning.

Tune estimator families by Stein's unbiased risk estimate, then account for
the optimism the tuning itself introduces: analytic excess-degrees-of-freedom
statistics where they exist, implicit differentiation for smooth families,
bootstrap corrections in general, Monte Carlo oracles for everything, and
numerical evaluation of the selection bounds.
"""

from .core import (
    DomainError,
    EstimatorFamily,
    GaussianModel,
    MCEstimate,
    OracleTuning,
    ShapeError,
    TunedBatch,
    TunedFit,
    EdfReport,
    mc_df,
    mc_edf,
    mc_prediction_error,
)
from .shrinkage import (
    ShrinkMeansFamily,
    ShrinkRegressionFamily,
    edf_unbiased_shrink,
    james_stein_positive,
)
from .subsets import (
    DegenerateDesignError,
    SubsetCollection,
    edf_two_model_exact,
    make_all_subsets,
    make_nested,
)
from .softthresh import (
    SoftThreshFamily,
    scan_jumps,
    soft_threshold,
    soft_threshold_risk,
)
from .stein import (
    CurvatureError,
    HeteroShrinkFamily,
    RidgeRotation,
    SmoothFamilyHooks,
    StationarityError,
    edf_implicit_diff,
    exopt_hetero_shrink,
    ridge_as_hetero,
)
from .bootstrap import (
    BootstrapConfig,
    bootstrap_edf,
    corrected_error_estimate,
)
from .bounds import (
    best_subset_constant,
    best_subset_penalty_curve,
    chi_sq_max_bound,
    edf_upper_bound_simplified,
    gas_stations_rotation,
    gaussian_surface_area_ball,
    general_theta_bound,
    nested_bound_tail_split,
    nested_null_edf_bound,
)
from .simulate import (
    PRESETS,
    ConfigError,
    SimSpec,
    parse_config,
    run_simulation,
    theta0_for,
    write_csv,
)

__version__ = "0.1.0"
