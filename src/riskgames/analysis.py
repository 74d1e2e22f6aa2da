"""Run traces, cross-trial aggregation, and bound validators.

A trace holds one row per episode: row t - 1 is episode t, so the
episode axis is the row index and no trace stores it. The validators
check the theory's inequalities: the DKW-based VaR concentration bound
against the VaR estimate's exact law, and, against simulation, the
accumulated gradient-bias bound along a learning run and the T^{-1/2}
decay of the time-averaged squared distance to equilibrium. All checks
are one-sided (a value at or below the theoretical one passes; the
bounds are not expected to be tight).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .distributions import Uniform, _tail_start, check_risk_level

__all__ = [
    "RunTrace",
    "AggregateTrace",
    "BoundReport",
    "time_averaged_error",
    "fit_rate",
    "validate_lemma3",
    "density_range",
    "validate_lemma4",
]

@dataclass
class RunTrace:
    """Per-episode record of one learning run: the columns of its trial file.

    Every array has one row per episode, row t - 1 for episode t, which
    the trial file's ``t`` column numbers: ``actions[t - 1]`` is the
    joint action played at episode t, so the initial action is row 0 and
    there are exactly ``horizon`` rows. ``nu`` holds the VaR value
    each agent used in its gradient estimate; ``nu_star`` the true VaR at
    the same action. ``err_sq`` is the squared distance to the game's
    equilibrium when one is known. The run's description (game, risk
    levels, step, seed) is not part of the trace. A negative ``err_sq``
    is refused, naming its first episode t as trial-file row t.
    """

    actions: np.ndarray
    nu: np.ndarray
    nu_star: np.ndarray
    err_sq: np.ndarray | None

    def __post_init__(self):
        t = self.actions.shape[0]
        if self.nu.shape[0] != t:
            raise ValueError("trace arrays must have one row per episode")
        if self.nu_star.shape != self.nu.shape:
            raise ValueError("nu_star must match nu in shape")
        if self.err_sq is not None:
            if self.err_sq.shape != (t,):
                raise ValueError("err_sq must have one entry per episode")
            negative = np.flatnonzero(self.err_sq < 0)
            if negative.size:
                row = int(negative[0])
                value = float(self.err_sq[row])
                raise ValueError(f"row {row + 1}, column err_sq: squared distances cannot be negative, got {value!r}")

    @property
    def horizon(self) -> int:
        return int(self.actions.shape[0])

    @property
    def num_agents(self) -> int:
        return int(self.nu.shape[1])


@dataclass
class AggregateTrace:
    """Mean and standard deviation of an error series across trials, per episode."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def from_series(cls, rows) -> "AggregateTrace":
        """Aggregate a list of per-trial series (each of length T).

        Uses the unbiased (n - 1) std denominator; a single trial gets
        zero std. Series of different lengths are a ``ValueError``.
        """
        stack = np.stack([np.asarray(r, dtype=np.float64) for r in rows])
        mean = stack.mean(axis=0)
        std = stack.std(axis=0, ddof=1) if stack.shape[0] > 1 else np.zeros_like(mean)
        return cls(mean=mean, std=std)


@dataclass
class BoundReport:
    """Outcome of one empirical-vs-theoretical comparison.

    ``passed`` is None when the bound does not apply; ``detail`` says why.
    """

    name: str
    empirical: float
    bound: float
    passed: bool | None
    detail: str = ""

    def __str__(self) -> str:
        status = "n/a" if self.passed is None else "pass" if self.passed else "FAIL"
        out = f"[{status}] {self.name}: empirical {self.empirical:.6g} vs bound {self.bound:.6g}"
        return out + (f" ({self.detail})" if self.detail else "")


def time_averaged_error(trace: RunTrace) -> np.ndarray:
    """Running average A_T = (1/T) sum_{t<=T} ||x_t - x*||^2 for every prefix."""
    if trace.err_sq is None:
        raise ValueError("trace has no equilibrium distances")
    return np.cumsum(trace.err_sq) / np.arange(1, trace.horizon + 1, dtype=np.float64)


def fit_rate(series, window: tuple[float, float]) -> float:
    """Log-log OLS slope of an error series over an episode window.

    ``series[t - 1]`` is the value at episode t, for t = 1..T. A series
    decaying like T^(-r) yields slope -r; the fit is invariant to
    positive rescaling of the series. The slope is the closed form
    sum((x - mean x) (y - mean y)) / sum((x - mean x)^2), with x the log
    episodes in the window and y the log values, in elementwise numpy:
    no least-squares solver, so no LAPACK library is loaded.
    """
    lo, hi = window
    episodes = np.arange(1, len(series) + 1)
    mask = (episodes >= lo) & (episodes <= hi)
    if int(mask.sum()) < 2:
        raise ValueError(f"window {window} selects fewer than two points")
    values = np.asarray(series, dtype=np.float64)[mask]
    if np.any(values <= 0):
        raise ValueError(f"series must be positive inside the fit window {window}")
    x, y = np.log(episodes[mask]), np.log(values)
    dx = x - x.mean()
    return float((dx * (y - y.mean())).sum() / (dx * dx).sum())


def _binomial_tail(log_factorials: np.ndarray, u: float, lo: int, hi: int) -> float:
    """P{lo <= Bin(t, u) <= hi} for 0 < u < 1.

    ``log_factorials[n]`` is ``math.lgamma(n + 1)`` for n = 0..t, one pass
    that both of a Lemma-3 row's tails share. Each log-term is
    lgamma(t + 1) - lgamma(j + 1) - lgamma(t - j + 1) + j log u
    + (t - j) log(1 - u), evaluated over all j at once in that order. The
    terms are scaled by the largest, so none overflows, and added with
    ``math.fsum``, largest first: its correctly rounded sum does not depend
    on the order, but a run of rising terms, as in a lower tail, keeps many
    partials and takes about 20 times as long. The terms rise to one peak
    and fall, so ``sorted`` merges two runs.
    """
    t = log_factorials.size - 1
    log_u, log_v = math.log(u), math.log1p(-u)
    j = np.arange(lo, hi + 1)
    logs = log_factorials[t] - log_factorials[j] - log_factorials[t - j] + j * log_u + (t - j) * log_v
    peak = logs.max()
    return math.exp(peak) * math.fsum(sorted(map(math.exp, (logs - peak).tolist()), reverse=True))


def validate_lemma3(
    dist: Uniform,
    alpha: float,
    t: int,
    epsilon: float,
    p_lower: float | None = None,
) -> BoundReport:
    """Check the VaR concentration bound P{|nu_hat - nu*| > eps} <= 2 e^{-2 t eps^2 p^2}.

    nu_hat is the k-th order statistic of t draws from ``dist``, k =
    ``_tail_start(t, alpha)``. In unit terms P{U_(k) <= u} = P{Bin(t, u)
    >= k}, so with w = ``dist.width`` the violation probability is exactly
    P{Bin(t, lo) >= k} + P{Bin(t, hi) <= k - 1} at lo, hi = (1 - alpha)
    -/+ eps / w, a tail being 0 where its point leaves (0, 1). The row
    passes when it is at or below the theoretical tail at ``p_lower``
    (default the distribution's density); an inflated ``p_lower`` shrinks
    that tail below the probability and fails. ``t`` not an integer >= 1,
    or an ``epsilon`` or ``p_lower`` not finite and positive, is a
    ``ValueError``.
    """
    check_risk_level(alpha)
    if not (isinstance(t, numbers.Integral) and t >= 1):
        raise ValueError(f"t must be an integer >= 1, got {t!r}")
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    if p_lower is not None and not (math.isfinite(p_lower) and p_lower > 0.0):
        raise ValueError(f"p_lower must be finite and positive, got {p_lower}")
    p = dist.density_lower_bound if p_lower is None else float(p_lower)
    k = int(_tail_start(t, alpha))
    lo = (1.0 - alpha) - epsilon / dist.width
    hi = (1.0 - alpha) + epsilon / dist.width
    log_factorials = np.fromiter(map(math.lgamma, range(1, t + 2)), np.float64, t + 1)
    below = _binomial_tail(log_factorials, lo, k, t) if lo > 0.0 else 0.0
    above = _binomial_tail(log_factorials, hi, 0, k - 1) if hi < 1.0 else 0.0
    prob = below + above
    bound = min(1.0, 2.0 * math.exp(-2.0 * t * epsilon**2 * p**2))
    return BoundReport(
        name="lemma3",
        empirical=prob,
        bound=bound,
        passed=prob <= bound,
        detail=f"alpha={alpha}, t={t}, eps={epsilon:.6g}, p_lower={p:.4g}, exact",
    )


def density_range(game, trace: RunTrace, agent: int) -> tuple[float, float]:
    """(L0, p_lower) for Lemma 4 along a run of an ``AffineNoiseGame``.

    At joint action x the agent's cost c0 + s xi, with xi ~ U(a, b), is
    uniform with width w = s (b - a), so its density is exactly 1/w: the
    density's Lipschitz constant along the run is 1/min(w) and its lower
    bound 1/max(w). A width of 0 leaves the density unbounded, which is a
    ValueError naming the first such episode.
    """
    slopes = game.cost_line(agent, trace.actions.T)[1]
    widths = slopes * game.noise_distribution(agent).width
    flat = np.flatnonzero(widths <= 0)
    if flat.size:
        raise ValueError(
            f"agent={agent}, cost-law width {float(widths[flat[0]]):.4g} at episode "
            f"{int(flat[0]) + 1}: the density is unbounded there"
        )
    return 1.0 / float(widths.min()), 1.0 / float(widths.max())


def validate_lemma4(
    game, trace: RunTrace, agent: int, alpha: float, gamma: float = 0.05
) -> BoundReport:
    """Check the accumulated gradient-bias bound along one run of ``game``.

    The per-episode bias proxy is (B * L0 / alpha) |nu_t - nu*_t|; its
    running sum must stay below

        sqrt(2) * B * L0 / (alpha * p_lower) * sqrt(ln(2T/gamma)) * sqrt(T')

    for every prefix T' <= T, where the log factor comes from a union
    bound over episodes at per-episode confidence gamma/T. B is the game's
    gradient bound and (L0, p_lower) come from ``density_range``; where
    the cost density is unbounded along the run the bound does not apply,
    and the row has ``passed`` None.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must be in (0, 1)")
    alpha = check_risk_level(alpha)
    try:
        L0, p_lower = density_range(game, trace, agent)
    except ValueError as exc:
        return BoundReport("lemma4", math.nan, math.nan, None, str(exc))
    B = game.grad_bound

    horizon = trace.horizon
    err = np.abs(trace.nu[:, agent] - trace.nu_star[:, agent])
    sums = np.cumsum((B * L0 / alpha) * err)
    prefixes = np.arange(1, horizon + 1, dtype=np.float64)
    log_factor = math.sqrt(math.log(2.0 * horizon / gamma))
    rhs = (math.sqrt(2.0) * B * L0 / (alpha * p_lower)) * log_factor * np.sqrt(prefixes)
    ratios = sums / rhs
    worst = int(np.argmax(ratios))
    return BoundReport(
        name="lemma4",
        empirical=float(sums[-1]),
        bound=float(rhs[-1]),
        passed=bool(np.all(sums <= rhs)),
        detail=(
            f"agent={agent}, gamma={gamma}, worst prefix ratio {ratios[worst]:.4f} "
            f"at T'={worst + 1}, B={B:.4g}, L0={L0:.4g}, p_lower={p_lower:.4g}"
        ),
    )
