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
run then draws every agent's history at once, and ``_rank_tails`` gives
per episode the lowest tail draw xi_(k), the tail size and the tail sum.
The loop holds only the joint action: the tail gradient is
(count * g0 + g1 * sum of the tail draws) / (t * alpha), and after the
last episode the recorded VaR is read off the action path, c0 + s * xi_(k)
for Algorithm 1 and c0 + s * VaR_alpha(xi) for the baseline. Generic
games replay the history: ``cvar_gradient_estimate`` and
``unbiased_cvar_gradient`` re-evaluate every stored draw, O(t) per
episode and O(T^2) per run. The replay is also the reference oracle the
rank path is tested against.

A run is one column of a block. ``_run`` plays a block of columns, each
a (seed, algorithm) pair with its own draws, as one recursion over a
(dimension, columns) joint action: on the rank path one ``affine_noise``
call per agent and one clip per episode serve every column, and on the
replay path each column replays its own history in the same loop.
Columns never interact, so each equals its run alone bit for bit.

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
    "GradientEstimate",
    "cvar_gradient_estimate",
    "unbiased_cvar_gradient",
    "run_algorithm1",
    "run_unbiased_baseline",
]


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
    eta: float | None,
    x0,
    window: int | None,
    columns,
) -> list[RunTrace]:
    """Play a block of runs in lockstep, one trace per column.

    Each column is a (seed, algorithm) pair, with algorithm
    "algorithm1" or "unbiased-fo"; all share the game, risk levels,
    horizon, step, start and window; a step of None is tuned to the
    horizon as in ``run_algorithm1``. The columns' generators are spawned
    from their seeds in column order.
    """
    alphas = [check_risk_level(a) for a in alphas]
    if len(alphas) != game.num_agents:
        raise ValueError("expected one risk level per agent")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if window is not None and window < 1:
        raise ValueError("window must be >= 1 when set")
    if eta is None:
        diameter = max(box.diameter for box in game.action_sets)
        eta = (diameter / game.grad_bound) / np.sqrt(horizon)
    elif eta < 0:
        raise ValueError("step size must be nonnegative")
    eta = float(eta)

    num_agents = game.num_agents
    boxes = game.action_sets
    blocks = [game.block_slice(i) for i in range(num_agents)]
    lower = np.concatenate([box.lower for box in boxes])
    upper = np.concatenate([box.upper for box in boxes])

    if x0 is None:
        x = np.concatenate([box.center for box in boxes])
    else:
        x = np.asarray(x0, dtype=np.float64)
        if not game.feasible(x):
            raise ValueError(f"infeasible initial action {x!r}")
        # feasible() allows 1e-9 of slack; start exactly on the box
        x = np.clip(x, lower, upper)

    x_star = game.nash_equilibrium(alphas)
    track_true_var = True
    try:
        game.exact_var(0, x, alphas[0])
    except UnsupportedGameError:
        track_true_var = False
    unbiased = [algorithm == "unbiased-fo" for _, algorithm in columns]
    if any(unbiased) and not track_true_var:
        raise UnsupportedGameError(
            "the exact-VaR baseline needs a game with closed-form VaR"
        )
    affine = all(game.affine_noise(i, x) is not None for i in range(num_agents))

    width = len(columns)
    if affine:
        # per agent, episode and column: lowest tail draw, tail size, tail sum
        low, count, total = (np.empty((num_agents, horizon, width)) for _ in range(3))
    else:
        histories = np.empty((width, num_agents, horizon, game.noise_dim))
    for c, (seed, _) in enumerate(columns):
        for i, rng in enumerate(_as_rngs(game, seed)):
            if affine:
                law = game.noise_distribution(i)
                draws = law.sample(rng, size=horizon)[:, None]
                # the baseline's tail is the draws at or above the noise quantile
                q = law.var(alphas[i]) if unbiased[c] else None
                low[i, :, c], count[i, :, c], total[i, :, c] = _rank_tails(
                    draws, alphas[i], window, q
                )
            else:
                for t in range(horizon):
                    histories[c, i, t] = game.sample_noise(i, rng)

    x = np.repeat(x[:, None], width, axis=1)
    lower, upper = lower[:, None], upper[:, None]
    grads = np.empty_like(x)
    actions = np.empty((width, horizon, x.shape[0]))
    nu = np.empty((width, horizon, num_agents))
    nu_star = np.empty_like(nu) if track_true_var else None

    for t in range(1, horizon + 1):
        actions[:, t - 1] = x.T
        start = 0 if window is None else max(0, t - window)
        for i, block in enumerate(blocks):
            if affine:
                _, _, g0, g1 = game.affine_noise(i, x)
                n_alpha = (t - start) * alphas[i]
                grads[block] = (count[i, t - 1] * g0 + g1 * total[i, t - 1]) / n_alpha
            else:
                for c in range(width):
                    xc = x[:, c]
                    true_var = game.exact_var(i, xc, alphas[i]) if track_true_var else None
                    draws = histories[c, i, start:t]
                    if unbiased[c]:
                        est = unbiased_cvar_gradient(game, i, xc, draws, alphas[i], true_var)
                    else:
                        est = cvar_gradient_estimate(game, i, xc, draws, alphas[i])
                    grads[block, c] = est.g
                    nu[c, t - 1, i] = est.var_used
                    if nu_star is not None:
                        nu_star[c, t - 1, i] = true_var
        # simultaneous play: all updates use the same joint action
        x = np.clip(x - eta * grads, lower, upper)

    if affine:
        for c in range(width):
            path = actions[c].T
            for i, alpha in enumerate(alphas):
                c0, s, _, _ = game.affine_noise(i, path)
                s = np.broadcast_to(s, horizon)
                negative = np.flatnonzero(s < 0)
                if negative.size:
                    k = negative[0]
                    raise ValueError(
                        f"agent {i} at episode {k + 1}: affine_noise needs a "
                        f"nonnegative noise slope, got {s[k]}"
                    )
                true_var = c0 + s * game.noise_distribution(i).var(alpha)
                nu[c, :, i] = true_var if unbiased[c] else c0 + low[i, :, c] * s
                if nu_star is not None:
                    nu_star[c, :, i] = true_var

    traces = []
    for c in range(width):
        err_sq = None
        if x_star is not None:
            d = actions[c] - x_star
            err_sq = (d[:, None, :] @ d[:, :, None]).ravel()
        traces.append(
            RunTrace(
                episodes=np.arange(1, horizon + 1),
                actions=actions[c],
                nu=nu[c],
                nu_star=None if nu_star is None else nu_star[c],
                err_sq=err_sq,
            )
        )
    return traces


def run_algorithm1(
    game: StochasticGame,
    alphas,
    horizon: int,
    eta: float | None = None,
    x0=None,
    seed=0,
    window: int | None = None,
) -> RunTrace:
    """Run the first-order risk-averse learning loop for ``horizon`` episodes.

    All agents play simultaneously; each draws one fresh noise sample per
    episode and estimates its gradient from its whole noise history (or
    the last ``window`` draws if a window is set), with the empirical VaR
    as the threshold. ``eta`` is the constant step size; None, the
    default, tunes it to the horizon as (D / B) / sqrt(T), with D the
    largest per-agent action-set diameter and B the game's gradient
    bound. A negative step is a ``ValueError``. Runs with equal seeds and
    configuration are bit-identical.
    """
    return _run(game, alphas, horizon, eta, x0, window, [(seed, "algorithm1")])[0]


def run_unbiased_baseline(
    game: StochasticGame,
    alphas,
    horizon: int,
    eta: float | None = None,
    x0=None,
    seed=0,
    window: int | None = None,
) -> RunTrace:
    """Identical loop with the estimated VaR replaced by the exact one."""
    return _run(game, alphas, horizon, eta, x0, window, [(seed, "unbiased-fo")])[0]
