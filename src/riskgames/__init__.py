"""Risk-averse learning in convex games.

Empirical VaR estimation, first-order Nash equilibrium seeking
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
)
from .games import (
    AffineNoiseGame,
    Box,
    CournotGame,
    QuadraticCounterexampleGame,
)
from .learning import (
    run_algorithm1,
    run_unbiased_baseline,
)

__version__ = "0.1.0"

__all__ = [
    "AffineNoiseGame",
    "AggregateTrace",
    "BoundReport",
    "Box",
    "CournotGame",
    "QuadraticCounterexampleGame",
    "RunTrace",
    "Uniform",
    "density_range",
    "dkw_confidence_width",
    "fit_rate",
    "run_algorithm1",
    "run_unbiased_baseline",
    "time_averaged_error",
    "validate_lemma3",
    "validate_lemma4",
]
