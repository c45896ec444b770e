"""Constrained M-estimation over l1 balls with width-based error bounds.

Subpackages by responsibility: :mod:`conewidth.glm` (families and oracles),
:mod:`conewidth.geometry` (cones, projections, width estimators),
:mod:`conewidth.solver` (Frank-Wolfe and projected gradient),
:mod:`conewidth.bounds` (restricted-convexity probes and bound formulas),
:mod:`conewidth.experiment` (sweeps and CSV output), :mod:`conewidth.cli`.
"""

from .bounds import (
    RscEstimate,
    TunedBound,
    bound_report,
    mismatched_bound,
    optimize_t,
    rsc_estimate,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    SweepResult,
    TrialRecord,
    fit_loglog_slope,
    make_truth,
    run_sweep,
    run_trial,
)
from .geometry import (
    ConeModel,
    FeasibleSet,
    WidthEstimate,
    descent_cone,
    gaussian_width_cone,
    global_width_l1,
    lmo_l1_ball,
    localized_width,
    project_l1_ball,
    project_onto_descent_cone,
)
from .glm import (
    GlmFamily,
    ProblemInstance,
    gradient,
    hessian_quadratic_form,
    hessian_weight_lower_bound,
    loss,
    sample_design,
    sample_responses,
    sigma_max,
)
from .solver import SolveReport, frank_wolfe, projected_gradient
from .rng import stream

__version__ = "0.1.0"
