"""Risk-averse learning in convex games.

Empirical VaR/CVaR estimation, first-order Nash equilibrium seeking
under CVaR objectives, and empirical validation of the estimator's
concentration and convergence guarantees.
"""

from .analysis import (
    AggregateTrace,
    BoundReport,
    RunTrace,
    density_range,
    fit_rate,
    time_averaged_error,
    validate_lemma3,
    validate_lemma4,
)
from .distributions import (
    Uniform,
    dkw_confidence_width,
    empirical_var,
    empirical_var_cvar,
)
from .games import (
    AffineNoiseGame,
    Box,
    CournotGame,
    QuadraticCounterexampleGame,
    StochasticGame,
    UnsupportedGameError,
    decomposition_check,
    exact_gradient_oracle,
    monotonicity_probe,
)
from .learning import (
    GradientEstimate,
    cvar_gradient_estimate,
    run_algorithm1,
    run_unbiased_baseline,
    unbiased_cvar_gradient,
)

__version__ = "0.1.0"

__all__ = [
    "AffineNoiseGame",
    "AggregateTrace",
    "BoundReport",
    "Box",
    "CournotGame",
    "GradientEstimate",
    "QuadraticCounterexampleGame",
    "RunTrace",
    "StochasticGame",
    "Uniform",
    "UnsupportedGameError",
    "cvar_gradient_estimate",
    "decomposition_check",
    "density_range",
    "dkw_confidence_width",
    "empirical_var",
    "empirical_var_cvar",
    "exact_gradient_oracle",
    "fit_rate",
    "monotonicity_probe",
    "run_algorithm1",
    "run_unbiased_baseline",
    "time_averaged_error",
    "unbiased_cvar_gradient",
    "validate_lemma3",
    "validate_lemma4",
]
