"""Exact simulation and bias analysis for discretized continuous-time
treatment-outcome processes."""

from .estimands import (
    TreatmentPlan,
    identification_bias,
    plan_integral,
    theta_g,
    theta_naive,
    theta_naive_limit,
    true_eta,
)
from .estimation import (
    BootstrapFailureError,
    DegenerateDesignError,
    ZetaReport,
    bootstrap_ci,
    estimate_contrast,
    sensitivity_ratio,
    zeta,
)
from .linalg2 import matexp
from .sde import (
    Grid,
    ModelParams,
    TrajectoryPanel,
    TransitionLaw,
    read_panel_csv,
    simulate_counterfactual,
    simulate_panel,
    subsample_panel,
    transition_law,
    write_panel_csv,
)

__version__ = "0.1.0"
