"""Periodic ARMA analysis and forecasting via time-varying Green functions."""

from .model import (
    NON_FINITE_COEFFICIENT,
    NON_POSITIVE_VARIANCE,
    SHAPE_MISMATCH,
    ModelValidationError,
    PeriodicModel,
    SeasonClock,
    Violation,
    validate,
    violations,
)
from .greens import (
    FundamentalMatrix,
    GreenTable,
    build_fundamental,
    error_weights,
    green_coefficients,
    laplace_determinant,
    lu_determinant,
    season_tables,
)
from .solution import SolutionDecomposition, SolutionInput, direct_recursion, general_solution
from .forecast import (
    ForecastOrigin,
    ForecastReport,
    MissingInnovationTailError,
    NonFiniteForecastError,
    mse_profile,
    predict,
)
from .moments import (
    ConvergenceDiagnostic,
    MomentProfile,
    NotConvergentError,
    autocovariance,
    check_convergence,
    default_truncation,
    moment_profile,
    unconditional_mean,
    unconditional_variance,
)
from .vsform import (
    StationarityVerdict,
    VSForm,
    build_vsform,
    companion_matrix,
    par24_restriction,
    stationarity,
    vs_forecast,
    one_period_cross_check,
)
from .sim import McForecastRow, SamplePath, SimPlan, mc_forecast_experiment, replay, simulate

__version__ = "0.1.0"
