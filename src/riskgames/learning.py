"""First-order risk-averse learning.

Each episode every agent evaluates its noise history at the current
joint action, estimates the VaR of the resulting cost sample, averages
the per-sample gradients over the tail at or above that estimate
(scaled by 1/alpha), and takes a projected gradient step:

    g_i = (1 / (t * alpha_i)) * sum_k 1{J_i(x_t, xi_i^k) >= nu_i}
                                    * grad_i J_i(x_t, xi_i^k)

The exact-VaR baseline runs the identical loop with the estimated
quantile replaced by the game's closed-form VaR, which removes the only
source of bias and isolates its effect.

Two paths compute the same estimate, and a run picks one before its
first episode. When every agent reports its cost as c0 + s * xi in a
scalar noise (``affine_noise``), s must be >= 0, so the cost order is
the noise order and each episode's tail depends on the draws alone. The
run then draws every agent's history before the first episode, and
``_rank_tails`` gives per episode the lowest tail draw xi_(k), the tail
size and the tail sum. The loop holds only the joint action: the
empirical VaR is c0 + s * xi_(k), and the tail gradient is
(count * g0 + g1 * sum of the tail draws) / (t * alpha). Generic games
replay the history: ``cvar_gradient_estimate`` and
``unbiased_cvar_gradient`` re-evaluate every stored draw, O(t) per
episode and O(T^2) per run. The replay is also the reference oracle the
rank path is tested against.

The tail is a set of noise ranks. Algorithm 1 takes the top t - k + 1
draws; the replay orders its rows by (cost, noise) and takes as many.
The exact-VaR baseline takes the draws at or above the noise quantile
q = VaR_alpha(xi); the replay takes the rows with cost above
nu* = c0 + s * q and, among those tied with it, the draws >= q. Rounded
c0 + xi * s is monotone in xi, so both rules pick the same draws, and
where costs tie with the VaR, as at an own action of 0 (s = 0), the tail
still holds about alpha * t draws. The paper's indicator 1{J >= nu}
would there take the whole history and inflate the estimate by 1 / alpha;
the rank rule gives the limit from s > 0, the one-sided CVaR derivative.

An optional sliding window caps the history length; that is a speed
knob, not part of the analyzed algorithm, and is off by default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import RunTrace
from .distributions import _tail_start, check_risk_level, empirical_var
from .games import StochasticGame, UnsupportedGameError

__all__ = [
    "StepSchedule",
    "GradientEstimate",
    "cvar_gradient_estimate",
    "unbiased_cvar_gradient",
    "run_algorithm1",
    "run_unbiased_baseline",
]


@dataclass(frozen=True)
class StepSchedule:
    """Constant step size, either explicit or horizon-tuned.

    ``auto()`` resolves to (D / B) / sqrt(T) where D is the largest
    per-agent action-set diameter and B the game's gradient bound.
    """

    eta: float | None = None

    def __post_init__(self):
        if self.eta is not None and self.eta < 0:
            raise ValueError("step size must be nonnegative")

    @classmethod
    def auto(cls) -> "StepSchedule":
        return cls(None)

    @classmethod
    def constant(cls, eta: float) -> "StepSchedule":
        return cls(float(eta))

    def resolve(self, game: StochasticGame, horizon: int) -> float:
        if self.eta is not None:
            return self.eta
        diameter = max(box.diameter for box in game.action_sets)
        return (diameter / game.grad_bound) / np.sqrt(horizon)


@dataclass
class GradientEstimate:
    """Tail-weighted gradient average, the VaR it used, and the tail size."""

    g: np.ndarray
    var_used: float
    tail_count: int


def _replay_gradient(
    game: StochasticGame, agent: int, x, noise_history, alpha: float, threshold=None
) -> GradientEstimate:
    """Replayed tail average over the top t - k + 1 rows in (cost, noise) order.

    With ``threshold`` = (nu, q) the tail is instead the rows with cost
    above nu plus the rows tied with it whose draw is >= q.
    """
    check_risk_level(alpha)
    noise_history = np.asarray(noise_history, dtype=np.float64)
    if noise_history.ndim != 2 or noise_history.shape[0] == 0:
        raise ValueError("noise history must be a nonempty (t, noise_dim) array")
    costs = game.cost_batch(agent, x, noise_history)
    grads = game.grad_batch(agent, x, noise_history)
    if threshold is None:
        nu = empirical_var(costs, alpha)
        # np.lexsort sorts by its last key first
        order = np.lexsort((*noise_history.T[::-1], costs))
        mask = np.zeros(costs.size, dtype=bool)
        mask[order[_tail_start(costs.size, alpha) - 1 :]] = True
    else:
        nu, q = threshold
        mask = (costs > nu) | ((costs == nu) & (noise_history[:, 0] >= q))
    # the mask keeps history order, so alpha = 1 sums exactly as a plain mean
    g = grads[mask].sum(axis=0) / (costs.size * alpha)
    return GradientEstimate(g=g, var_used=float(nu), tail_count=int(mask.sum()))


def cvar_gradient_estimate(
    game: StochasticGame,
    agent: int,
    x: np.ndarray,
    noise_history: np.ndarray,
    alpha: float,
) -> GradientEstimate:
    """CVaR gradient estimate from the replayed noise history.

    Re-evaluates every stored draw at the current joint action, takes
    the empirical VaR nu of the costs, the k-th smallest, and averages
    the gradients of the t - k + 1 rows at or above rank k in (cost,
    noise) order, scaled by 1 / alpha. Rows tied with nu below that rank
    stay out of the tail.
    """
    return _replay_gradient(game, agent, x, noise_history, alpha)


def unbiased_cvar_gradient(
    game: StochasticGame,
    agent: int,
    x: np.ndarray,
    noise_history: np.ndarray,
    alpha: float,
    exact_var: float | None = None,
) -> GradientEstimate:
    """Same tail average but thresholded at the true VaR of J_i(x, xi).

    With the exact quantile the tail indicator has the correct
    expectation, so this estimator is unbiased for the CVaR gradient.
    Rows whose cost ties with the VaR count when their draw is at or
    above the noise quantile VaR_alpha(xi). The game must supply its
    noise law, and the closed-form VaR unless one is passed in.
    """
    if exact_var is None:
        exact_var = game.exact_var(agent, x, alpha)
    q = game.noise_distribution(agent).var(alpha)
    return _replay_gradient(game, agent, x, noise_history, alpha, (float(exact_var), q))


def _rank_tails(draws, alpha: float, window: int | None, q=None):
    """Per episode t, the tail of the scalar draws[start:t] as noise ranks.

    Returns three arrays over the episodes: the lowest tail draw, the tail
    size and the sum of the tail draws. With ``q`` None the tail is the top
    t - k + 1 draws, as in ``cvar_gradient_estimate``; with ``q`` it is the
    draws >= q, as in ``unbiased_cvar_gradient``, and an empty tail has a
    NaN lowest draw. The draws are kept sorted, with a binary search and
    one shift per insert or eviction.
    """
    draws = draws[:, 0]
    horizon = draws.size
    values = np.empty(horizon if window is None else min(horizon, window))
    low = np.full(horizon, np.nan)
    count = np.empty(horizon, dtype=np.int64)
    total = np.empty(horizon)
    n = 0
    for t in range(horizon):
        if window is not None and t >= window:
            pos = int(values[:n].searchsorted(draws[t - window]))
            values[pos : n - 1] = values[pos + 1 : n]
            n -= 1
        pos = int(values[:n].searchsorted(draws[t]))
        values[pos + 1 : n + 1] = values[pos:n]
        values[pos] = draws[t]
        n += 1
        start = _tail_start(n, alpha) - 1 if q is None else int(values[:n].searchsorted(q))
        if start < n:
            low[t] = values[start]
        count[t] = n - start
        total[t] = values[start:n].sum()
    return low, count, total


def _as_rngs(game: StochasticGame, seed) -> list[np.random.Generator]:
    """Independent per-agent generators spawned from one master seed."""
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in root.spawn(game.num_agents)]


def _run(
    game: StochasticGame,
    alphas,
    horizon: int,
    schedule: StepSchedule,
    x0,
    seed,
    unbiased: bool,
    window: int | None,
    algorithm: str,
) -> RunTrace:
    alphas = [check_risk_level(a) for a in alphas]
    if len(alphas) != game.num_agents:
        raise ValueError("expected one risk level per agent")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if window is not None and window < 1:
        raise ValueError("window must be >= 1 when set")

    num_agents = game.num_agents
    boxes = game.action_sets
    blocks = [game.block_slice(i) for i in range(num_agents)]

    def project(z):
        return np.concatenate([box.project(z[block]) for box, block in zip(boxes, blocks)])

    if x0 is None:
        x = np.concatenate([box.center for box in boxes])
    else:
        x = np.asarray(x0, dtype=np.float64)
        if not game.feasible(x):
            raise ValueError(f"infeasible initial action {x!r}")
        # feasible() allows 1e-9 of slack; start exactly on the box
        x = project(x)
    eta = float(schedule.resolve(game, horizon))

    x_star = game.nash_equilibrium(alphas)
    track_true_var = True
    try:
        game.exact_var(0, x, alphas[0])
    except UnsupportedGameError:
        track_true_var = False
    if unbiased and not track_true_var:
        raise UnsupportedGameError(
            "the exact-VaR baseline needs a game with closed-form VaR"
        )

    rngs = _as_rngs(game, seed)
    histories = np.empty((num_agents, horizon, game.noise_dim))
    for i, (history, rng) in enumerate(zip(histories, rngs)):
        for t in range(horizon):
            history[t] = game.sample_noise(i, rng)
    tails = None
    if all(game.affine_noise(i, x) is not None for i in range(num_agents)):
        tails = []
        for i, (history, alpha) in enumerate(zip(histories, alphas)):
            # the baseline's tail is the draws at or above the noise quantile
            q = game.noise_distribution(i).var(alpha) if unbiased else None
            tails.append(_rank_tails(history, alpha, window, q))

    actions = np.empty((horizon, x.size))
    nu = np.empty((horizon, num_agents))
    nu_star = np.empty((horizon, num_agents)) if track_true_var else None

    for t in range(1, horizon + 1):
        actions[t - 1] = x
        start = 0 if window is None else max(0, t - window)
        grads = []
        for i in range(num_agents):
            true_var = game.exact_var(i, x, alphas[i]) if track_true_var else None
            if tails is None:
                draws = histories[i][start:t]
                if unbiased:
                    est = unbiased_cvar_gradient(game, i, x, draws, alphas[i], true_var)
                else:
                    est = cvar_gradient_estimate(game, i, x, draws, alphas[i])
                nu[t - 1, i] = est.var_used
                grads.append(est.g)
            else:
                c0, s, g0, g1 = game.affine_noise(i, x)
                if s < 0:
                    raise ValueError(f"affine_noise needs a nonnegative noise slope, got {s}")
                low, count, total = tails[i]
                g = (count[t - 1] * g0 + g1 * total[t - 1]) / ((t - start) * alphas[i])
                nu[t - 1, i] = true_var if unbiased else c0 + low[t - 1] * s
                grads.append(np.array(g, ndmin=1))
            if nu_star is not None:
                nu_star[t - 1, i] = true_var
        # simultaneous play: all updates use the same joint action
        x = project(x - eta * np.concatenate(grads))

    err_sq = None
    if x_star is not None:
        d = actions - x_star
        err_sq = (d[:, None, :] @ d[:, :, None]).ravel()

    config = {
        "game": getattr(game, "name", type(game).__name__.lower()),
        "alphas": list(alphas),
        "eta": eta,
        "horizon": horizon,
        "seed": seed if isinstance(seed, int) else repr(seed),
        "algorithm": algorithm,
        "window": window,
        "grad_bound": game.grad_bound,
    }
    return RunTrace(
        episodes=np.arange(1, horizon + 1),
        actions=actions,
        nu=nu,
        nu_star=nu_star,
        err_sq=err_sq,
        x_star=x_star,
        config=config,
    )


def run_algorithm1(
    game: StochasticGame,
    alphas,
    horizon: int,
    schedule: StepSchedule | None = None,
    x0=None,
    seed=0,
    window: int | None = None,
) -> RunTrace:
    """Run the first-order risk-averse learning loop for ``horizon`` episodes.

    All agents play simultaneously; each draws one fresh noise sample per
    episode and estimates its gradient from its whole noise history (or
    the last ``window`` draws if a window is set), with the empirical VaR
    as the threshold. Runs with equal seeds and configuration are
    bit-identical.
    """
    return _run(
        game,
        alphas,
        horizon,
        schedule or StepSchedule.auto(),
        x0,
        seed,
        unbiased=False,
        window=window,
        algorithm="algorithm1",
    )


def run_unbiased_baseline(
    game: StochasticGame,
    alphas,
    horizon: int,
    schedule: StepSchedule | None = None,
    x0=None,
    seed=0,
    window: int | None = None,
) -> RunTrace:
    """Identical loop with the estimated VaR replaced by the exact one."""
    return _run(
        game,
        alphas,
        horizon,
        schedule or StepSchedule.auto(),
        x0,
        seed,
        unbiased=True,
        window=window,
        algorithm="unbiased-fo",
    )
