"""Run traces, cross-trial aggregation, and empirical bound validators.

The validators check the theory's inequalities against simulation: the
DKW-based VaR concentration bound, the accumulated gradient-bias bound
along a learning run, and the T^{-1/2} decay of the time-averaged
squared distance to equilibrium. All checks are one-sided (empirical at
or below the theoretical value passes; the bounds are not expected to be
tight).
"""

from __future__ import annotations

import math
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

    ``actions[t - 1]`` is the joint action played at episode t (so the
    initial action is row 0 and there are exactly ``horizon`` rows).
    ``nu`` holds the VaR value each agent used in its gradient estimate;
    ``nu_star`` the true VaR at the same action when the game provides
    it. ``err_sq`` is the squared distance to the game's equilibrium
    when one is known. The run's description (game, risk levels, step,
    seed) is not part of the trace.
    """

    episodes: np.ndarray
    actions: np.ndarray
    nu: np.ndarray
    nu_star: np.ndarray | None
    err_sq: np.ndarray | None

    def __post_init__(self):
        t = self.episodes.size
        if self.actions.shape[0] != t or self.nu.shape[0] != t:
            raise ValueError("trace arrays must have one row per episode")
        if self.nu_star is not None and self.nu_star.shape != self.nu.shape:
            raise ValueError("nu_star must match nu in shape")
        if self.err_sq is not None:
            if self.err_sq.shape != (t,):
                raise ValueError("err_sq must have one entry per episode")
            if np.any(self.err_sq < 0):
                raise ValueError("squared distances cannot be negative")

    @property
    def horizon(self) -> int:
        return int(self.episodes.size)

    @property
    def num_agents(self) -> int:
        return int(self.nu.shape[1])


@dataclass
class AggregateTrace:
    """Mean and standard deviation of an error series across trials."""

    episodes: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    n_trials: int

    @classmethod
    def from_series(cls, episodes, rows) -> "AggregateTrace":
        """Aggregate a list of per-trial series (each of length T).

        Uses the unbiased (n - 1) std denominator; a single trial gets
        zero std.
        """
        episodes = np.asarray(episodes)
        stack = np.stack([np.asarray(r, dtype=np.float64) for r in rows])
        if stack.shape[1] != episodes.size:
            raise ValueError("series length must match the episode axis")
        mean = stack.mean(axis=0)
        n = stack.shape[0]
        std = stack.std(axis=0, ddof=1) if n > 1 else np.zeros_like(mean)
        return cls(episodes=episodes, mean=mean, std=std, n_trials=n)


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


def fit_rate(series: AggregateTrace, window: tuple[float, float]) -> float:
    """Log-log OLS slope of a mean error series over an episode window.

    A series decaying like T^(-r) yields slope -r; the fit is invariant
    to positive rescaling of the series.
    """
    lo, hi = window
    mask = (series.episodes >= lo) & (series.episodes <= hi)
    if int(mask.sum()) < 2:
        raise ValueError(f"window {window} selects fewer than two points")
    values = series.mean[mask]
    if np.any(values <= 0):
        raise ValueError("series must be positive inside the fit window")
    slope = np.polyfit(np.log(series.episodes[mask]), np.log(values), 1)[0]
    return float(slope)


def validate_lemma3(
    dist: Uniform,
    alpha: float,
    t: int,
    repeats: int,
    epsilon: float,
    rng: np.random.Generator,
    p_lower: float | None = None,
) -> BoundReport:
    """Check the VaR concentration bound P{|nu_hat - nu*| > eps} <= 2 e^{-2 t eps^2 p^2}.

    Draws ``repeats`` independent samples of size ``t``, estimates the
    VaR each time, and compares the empirical violation frequency with
    the theoretical tail (at the supplied density lower bound, default
    the distribution's true one). Passing allows two binomial standard
    errors of slack; an inflated ``p_lower`` shrinks the claimed bound
    below the true frequency and is reported as a failure.
    """
    check_risk_level(alpha)
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    p = dist.density_lower_bound if p_lower is None else float(p_lower)
    true_var = dist.var(alpha)
    draws = dist.sample(rng, size=(repeats, t))
    k = _tail_start(t, alpha)
    nu_hat = np.partition(draws, k - 1, axis=1)[:, k - 1]
    freq = float(np.mean(np.abs(nu_hat - true_var) > epsilon))
    bound = min(1.0, 2.0 * math.exp(-2.0 * t * epsilon**2 * p**2))
    slack = 2.0 * math.sqrt(bound * (1.0 - bound) / repeats)
    return BoundReport(
        name="lemma3",
        empirical=freq,
        bound=bound,
        passed=freq <= bound + slack,
        detail=f"alpha={alpha}, t={t}, eps={epsilon:.6g}, p_lower={p:.4g}, repeats={repeats}",
    )


def density_range(game, trace: RunTrace, agent: int) -> tuple[float, float]:
    """(L0, p_lower) for Lemma 4 along a run of an ``AffineNoiseGame``.

    At joint action x the agent's cost c0 + s xi, with xi ~ U(a, b), is
    uniform with width w = s (b - a), so its density is exactly 1/w: the
    density's Lipschitz constant along the run is 1/min(w) and its lower
    bound 1/max(w). A width of 0 leaves the density unbounded, which is a
    ValueError naming the first such episode.
    """
    slopes = game.affine_noise(agent, trace.actions.T)[1]
    widths = slopes * game.noise_distribution(agent).width
    flat = np.flatnonzero(widths <= 0)
    if flat.size:
        raise ValueError(
            f"agent={agent}, cost-law width {float(widths[flat[0]]):.4g} at episode "
            f"{int(trace.episodes[flat[0]])}: the density is unbounded there"
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
    if trace.nu_star is None:
        raise ValueError("trace has no true VaR series")
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
