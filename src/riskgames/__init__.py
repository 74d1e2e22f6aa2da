"""Risk-averse learning in convex games.

Empirical VaR/CVaR estimation, first-order Nash equilibrium seeking
under CVaR objectives, and empirical validation of the estimator's
concentration and convergence guarantees.
"""

from .analysis import (
    AggregateTrace,
    BoundReport,
    RunTrace,
    fit_rate,
    risk_sums,
    time_averaged_error,
    validate_lemma3,
    validate_lemma4,
)
from .distributions import (
    BinnedVarEstimator,
    EmpiricalDistribution,
    Uniform,
    closed_form,
    dkw_confidence_width,
    empirical_var,
    empirical_var_cvar,
)
from .games import (
    Box,
    CournotGame,
    QuadraticCounterexampleGame,
    StochasticGame,
    UnsupportedGameError,
    decomposition_check,
    evaluate_cost_and_grad,
    exact_gradient_oracle,
    monotonicity_probe,
)
from .learning import (
    GradientEstimate,
    StepSchedule,
    cvar_gradient_estimate,
    run_algorithm1,
    run_unbiased_baseline,
    unbiased_cvar_gradient,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateTrace",
    "BinnedVarEstimator",
    "BoundReport",
    "Box",
    "CournotGame",
    "EmpiricalDistribution",
    "GradientEstimate",
    "QuadraticCounterexampleGame",
    "RunTrace",
    "StepSchedule",
    "StochasticGame",
    "Uniform",
    "UnsupportedGameError",
    "closed_form",
    "cvar_gradient_estimate",
    "decomposition_check",
    "dkw_confidence_width",
    "empirical_var",
    "empirical_var_cvar",
    "evaluate_cost_and_grad",
    "exact_gradient_oracle",
    "fit_rate",
    "monotonicity_probe",
    "risk_sums",
    "run_algorithm1",
    "run_unbiased_baseline",
    "time_averaged_error",
    "unbiased_cvar_gradient",
    "validate_lemma3",
    "validate_lemma4",
]
