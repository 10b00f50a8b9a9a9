"""Linear step-up multiple testing under exchangeable dependence.

The package provides the linear step-up (and step-down) procedures on
realized p-value vectors, three exchangeable dependence models with
their limiting p-value distributions, one crossing/tangency solver against
the rejection line t/alpha, quadrature formulas for the limiting
expected error rate and false discovery rate, exact finite-n identities
for linear-at-zero null distributions, a reproducible Monte Carlo
engine, and a CLI front end.
"""

from .stepup import PValueSample, RejectionResult, ecdf, lsd, lsu
from .models import (
    ExtremeConfig,
    ModelSpec,
    disturbance_cdf,
    f_infinity,
    f_infinity_mixed,
    gamma_at_zero,
    sample_pvalues,
    sample_pvalues_conditional,
    z_of_t,
)
from .crossing import CrossingReport, SolverError, crossing_report
from .quadrature import QuadratureError
from .asymptotics import (
    AsymptoticResult,
    ConditionalLimit,
    LimitConstants,
    conditional_limits,
    eer_fdr_normal,
    eer_fdr_t,
    expected_false_rejections_all_true,
    g_distributions,
    limit_constants,
)
from .exact import (
    BoundarySpec,
    LinearNullSpec,
    boundary_noncrossing_prob,
    exact_fdr_linear,
    restricted_fdr_check,
)
from .montecarlo import (
    SimulationPlan,
    SimulationSummary,
    convergence_study,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "PValueSample", "RejectionResult", "lsu", "lsd", "ecdf",
    "ModelSpec", "ExtremeConfig", "f_infinity", "f_infinity_mixed",
    "gamma_at_zero", "z_of_t", "disturbance_cdf",
    "sample_pvalues", "sample_pvalues_conditional",
    "CrossingReport", "SolverError", "crossing_report",
    "QuadratureError",
    "AsymptoticResult", "ConditionalLimit", "LimitConstants",
    "conditional_limits", "g_distributions",
    "eer_fdr_normal", "eer_fdr_t", "limit_constants",
    "expected_false_rejections_all_true",
    "LinearNullSpec", "BoundarySpec", "exact_fdr_linear",
    "boundary_noncrossing_prob", "restricted_fdr_check",
    "SimulationPlan", "SimulationSummary", "run", "convergence_study",
    "__version__",
]
