"""Tail-risk estimators for scalar samples, and the uniform law.

Order-statistic quantiles (VaR) and tail means (CVaR) of raw sample
arrays, a binned approximation, the uniform law with closed-form VaR and
CVaR (the noise law of the built-in games), and DKW-based confidence
widths for quantile estimates.

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
    "empirical_var_cvar",
    "BinnedVarEstimator",
    "dkw_confidence_width",
]


def check_risk_level(alpha: float) -> float:
    """Validate a risk level, which must lie in (0, 1]. Returns it as float."""
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"risk level must be in (0, 1], got {alpha}")
    return alpha


def _tail_start(t: int, alpha: float) -> int:
    """1-based index k of the (1 - alpha)-quantile order statistic.

    k is the smallest integer with k/t >= 1 - alpha.  The 1e-9 guard
    absorbs float noise in ``t * (1 - alpha)`` without changing exact
    cases; alpha = 1 lands on k = 1 (the minimum sample).
    """
    k = math.ceil(t * (1.0 - alpha) - 1e-9)
    return max(1, k)


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


def empirical_var_cvar(values: np.ndarray, alpha: float) -> tuple[float, float]:
    """(VaR, CVaR) of a raw sample array in one pass.

    CVaR is the plug-in value nu + sum((v - nu)_+) / (alpha * t) with nu
    the empirical VaR.
    """
    check_risk_level(alpha)
    values = np.asarray(values, dtype=np.float64)
    t = values.size
    if t == 0:
        raise ValueError("empty sample set has no quantiles")
    k = _tail_start(t, alpha)
    part = np.partition(values, k - 1)
    nu = float(part[k - 1])
    # Elements before k-1 are <= nu, so they contribute nothing to (v - nu)_+.
    tail = part[k - 1 :]
    cvar = nu + float(np.sum(tail - nu)) / (alpha * t)
    return nu, cvar


@dataclass(frozen=True)
class Uniform:
    """Uniform distribution on [a, b] with closed-form VaR and CVaR.

    The noise law of the built-in games: VaR_alpha = a + (1 - alpha)(b - a)
    and CVaR_alpha = a + (1 - alpha/2)(b - a), the midpoint of the upper
    tail.
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

    def cvar(self, alpha: float) -> float:
        check_risk_level(alpha)
        return self.a + (1.0 - 0.5 * alpha) * self.width

    def sample(self, rng: np.random.Generator, size=None) -> np.ndarray:
        return rng.uniform(self.a, self.b, size=size)


@dataclass(frozen=True)
class BinnedVarEstimator:
    """Histogram approximation of the empirical VaR.

    Partitions [min(0, smallest cost), largest cost] into equal-width bins
    and reads the quantile off the binned EDF at bin right edges. This
    trades exactness for a bounded memory footprint; the exact
    order-statistic estimator is the default everywhere.
    """

    num_bins: int = 1000

    def __post_init__(self):
        if self.num_bins < 1:
            raise ValueError("num_bins must be >= 1")

    def __call__(self, values: np.ndarray, alpha: float) -> float:
        check_risk_level(alpha)
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            raise ValueError("empty sample set has no quantiles")
        lo = min(0.0, float(values.min()))
        hi = float(values.max())
        if hi <= lo:
            hi = lo + 1.0
        edges = np.linspace(lo, hi, self.num_bins + 1)
        counts, _ = np.histogram(values, bins=edges)
        cum = np.cumsum(counts) / values.size
        idx = int(np.searchsorted(cum, 1.0 - alpha - 1e-12))
        idx = min(idx, self.num_bins - 1)
        return float(edges[idx + 1])


def dkw_confidence_width(t: int, gamma_bar: float, p_lower: float) -> float:
    """Width epsilon such that P{|VaR estimate - true VaR| > epsilon} <= gamma_bar.

    Inverts the DKW tail 2 exp(-2 t eps^2 p^2) for a sample of size t when
    the cost density is bounded below by ``p_lower`` near the quantile:
    eps = sqrt(ln(2 / gamma_bar)) / (p_lower * sqrt(2 t)).
    """
    if t < 1:
        raise ValueError(f"sample size must be >= 1, got {t}")
    if not 0.0 < gamma_bar < 1.0:
        raise ValueError(f"confidence level must be in (0, 1), got {gamma_bar}")
    if p_lower <= 0.0:
        raise ValueError(f"density lower bound must be positive, got {p_lower}")
    return math.sqrt(math.log(2.0 / gamma_bar)) / (p_lower * math.sqrt(2.0 * t))
