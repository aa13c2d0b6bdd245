"""Simulation and analysis toolkit for repeated supervised learning
with hidden feedback loops.

The package simulates learning systems that are repeatedly retrained on
data partially contaminated by their own earlier predictions, and provides
the empirical and analytic machinery to classify the long-run behaviour of
the residual distribution: collapse to a point mass (positive feedback
loop), variance blow-up (error amplification), or a stationary regime.
"""

from loopsim.analytic import (
    AnalyticMap,
    DensityFn,
    PsiSequence,
    QuadratureError,
    TestFunction,
    apply_map,
    autonomy_check,
    envelope_norm,
    envelope_step,
    gaussian_density,
    linear_sequence,
    moment_scaling_predict,
    operator_norm_lower_bound,
    power_sequence,
    transformed_support,
    triangle_test_function,
    uniform_density,
    weak_limit_probe,
)
from loopsim.data import Dataset, generate_friedman1, generate_linear
from loopsim.density import (
    SPIKE,
    EmpiricalDistribution,
    InsufficientSampleError,
    MomentSum,
    SaturationError,
    dkw_epsilon,
)
from loopsim.diagnostics import AutonomyFit, autonomy_fit, breusch_pagan, normality_test
from loopsim.engine import (
    SETTING_SAMPLING,
    SETTING_SLIDING,
    STEP_RECORD,
    DiagnosticsReport,
    LoopComplete,
    LoopConfig,
    LoopState,
    SurfaceResult,
    init_state,
    run,
    run_many,
    stddev_surface,
    step,
)
from loopsim.regressors import TrainedModel, fit_huber_line, fit_ridge, fit_sgd, mse, predict

__version__ = "0.3.6"

__all__ = [
    "AnalyticMap",
    "AutonomyFit",
    "Dataset",
    "DensityFn",
    "DiagnosticsReport",
    "EmpiricalDistribution",
    "InsufficientSampleError",
    "LoopComplete",
    "LoopConfig",
    "LoopState",
    "MomentSum",
    "PsiSequence",
    "QuadratureError",
    "SETTING_SAMPLING",
    "SETTING_SLIDING",
    "SPIKE",
    "STEP_RECORD",
    "SaturationError",
    "SurfaceResult",
    "TestFunction",
    "TrainedModel",
    "apply_map",
    "autonomy_check",
    "autonomy_fit",
    "breusch_pagan",
    "dkw_epsilon",
    "envelope_norm",
    "envelope_step",
    "fit_huber_line",
    "fit_ridge",
    "fit_sgd",
    "gaussian_density",
    "generate_friedman1",
    "generate_linear",
    "init_state",
    "linear_sequence",
    "moment_scaling_predict",
    "mse",
    "normality_test",
    "operator_norm_lower_bound",
    "power_sequence",
    "predict",
    "run",
    "run_many",
    "step",
    "stddev_surface",
    "transformed_support",
    "triangle_test_function",
    "uniform_density",
    "weak_limit_probe",
]
