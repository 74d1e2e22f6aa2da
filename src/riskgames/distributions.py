"""The VaR estimator for scalar samples, and the uniform law.

Order-statistic quantiles (VaR) of raw sample arrays, read off the
sample EDF as in the paper, whose DKW bound (Lemma 3) covers them; the
uniform law with closed-form VaR (the noise law of the built-in games);
and DKW-based confidence widths for quantile estimates.

Conventions: costs are minimized, so the risky tail is the *upper* tail.
For a risk level ``alpha`` in (0, 1], VaR is the (1 - alpha)-quantile and
CVaR averages the worst ``alpha`` fraction of outcomes; ``alpha = 1``
recovers the plain mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Uniform",
    "check_risk_level",
    "empirical_var",
    "dkw_confidence_width",
]


def check_risk_level(alpha: float) -> float:
    """Validate a risk level, which must lie in (0, 1]. Returns it as float."""
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"risk level must be in (0, 1], got {alpha}")
    return alpha


def _tail_start(t, alpha: float):
    """1-based index k of the (1 - alpha)-quantile order statistic, elementwise in t.

    k is the smallest integer with k/t >= 1 - alpha.  The 1e-9 guard
    absorbs float noise in ``t * (1 - alpha)`` without changing exact
    cases; alpha = 1 lands on k = 1 (the minimum sample).
    """
    return np.maximum(1, np.ceil(np.multiply(t, 1.0 - alpha) - 1e-9)).astype(np.int64)


def empirical_var(values: np.ndarray, alpha: float) -> float:
    """VaR of a raw (unsorted) sample array: the k-th order statistic.

    The k-th smallest sample with k/t >= 1 - alpha, found without a full
    sort (np.partition is linear time).
    """
    check_risk_level(alpha)
    values = np.asarray(values, dtype=np.float64)
    t = values.size
    if t == 0:
        raise ValueError("empty sample set has no quantiles")
    k = _tail_start(t, alpha)
    return float(np.partition(values, k - 1)[k - 1])


@dataclass(frozen=True)
class Uniform:
    """Uniform distribution on [a, b] with closed-form VaR.

    The noise law of the built-in games: VaR_alpha = a + (1 - alpha)(b - a).
    """

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("bounds must be finite")
        if not self.b > self.a:
            raise ValueError(f"need b > a, got a={self.a}, b={self.b}")

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def density_lower_bound(self) -> float:
        """Constant density 1 / (b - a); the p-underbar of the DKW bound."""
        return 1.0 / self.width

    def var(self, alpha: float) -> float:
        check_risk_level(alpha)
        return self.a + (1.0 - alpha) * self.width

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        return rng.uniform(self.a, self.b, size=size)


def dkw_confidence_width(t: int, gamma_bar: float, p_lower: float) -> float:
    """Width epsilon such that P{|VaR estimate - true VaR| > epsilon} <= gamma_bar.

    Inverts the DKW tail 2 exp(-2 t eps^2 p^2) for a sample of size t when
    the cost density is bounded below by ``p_lower`` near the quantile:
    eps = sqrt(ln(2 / gamma_bar)) / (p_lower * sqrt(2 t)). A ``t`` or
    ``p_lower`` that is not finite is a ``ValueError``, like one out of range.
    """
    if not (math.isfinite(t) and t >= 1):
        raise ValueError(f"sample size t must be finite and >= 1, got {t}")
    if not 0.0 < gamma_bar < 1.0:
        raise ValueError(f"confidence level gamma_bar must be in (0, 1), got {gamma_bar}")
    if not (math.isfinite(p_lower) and p_lower > 0.0):
        raise ValueError(f"density lower bound p_lower must be finite and positive, got {p_lower}")
    return math.sqrt(math.log(2.0 / gamma_bar)) / (p_lower * math.sqrt(2.0 * t))
