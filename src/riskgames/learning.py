"""First-order risk-averse learning.

Each episode every agent draws one scalar noise sample and evaluates its
noise history, the 1-d array of its draws so far, at the current joint
action, estimates the VaR of the resulting cost sample, averages
the per-sample gradients over the tail at or above that estimate
(scaled by 1/alpha), and takes a projected gradient step:

    g_i = (1 / (t * alpha_i)) * sum_k 1{J_i(x_t, xi_i^k) >= nu_i}
                                    * grad_i J_i(x_t, xi_i^k)

The exact-VaR baseline runs the identical loop with the estimated
quantile replaced by the game's closed-form VaR, which removes the only
source of bias and isolates its effect.

Every game is an ``AffineNoiseGame``: each cost is c0 + s * xi in a
scalar noise with s >= 0, so the cost order is the noise order and each
episode's tail depends on the draws alone. ``run_algorithm1`` and
``run_unbiased_baseline`` run on ``_run``. Only Algorithm 1 asks for a
rank: ``_rank_tails`` takes each episode's lowest tail draw xi_(k), tail
size and tail sum in one pass over the draws' ranks, O(T log T) per
series; the baseline's tail size and sum are O(T) ``_window_sums`` of
the draws >= q. The recorded VaRs are read off the action path
afterwards by one ``cost_line`` call per agent, c0 + s * xi_(k) for
Algorithm 1 and c0 + s * VaR_alpha(xi) for the baseline. ``_replay``
takes the same arguments as ``_run``: a plain loop whose estimators
re-evaluate every kept draw through the game's cost and gradient
batches, O(T^2) per run; it is the oracle ``_run`` is tested against.

An episode's step is the gradient (count * g0 + g1 * sum of the tail
draws) / (t * alpha), then a clip to the box. Each game states its
gradient line as affine in the joint action, so with the tails known
before the play every unclipped step is a known affine map
x -> M_t x + b_t, and a clipped coordinate's row is its bound. Algorithm
1 is sequential, but its path is a prefix composition of those maps:
``_scan_play`` composes a block of up to ``_SCAN_BLOCK`` of them in
ceil(log2 L) numpy passes of a Hillis-Steele scan (Blelloch, "Prefix
Sums and Their Applications", 1990), holding the active set, the
clipped coordinates, of the step before the block. A vectorized pass
checks each iterate against the float step from the one before it and
cuts the block where the active set changes or the composition drifts
from that step by more than rounding. The play goes on from the float
step there, one Python-float step per episode while the active set
keeps changing.

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

An optional sliding window caps each estimate's history: a bounded-memory
variant, not the analyzed algorithm, off by default, and not a speedup.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .analysis import RunTrace
from .distributions import _tail_start, check_risk_level, empirical_var
from .games import AffineNoiseGame

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

    g: float
    var_used: float
    tail_count: int


def _replay_gradient(
    game: AffineNoiseGame, agent: int, x, noise_history, alpha: float, threshold=None
) -> GradientEstimate:
    """Replayed tail average over the top t - k + 1 rows in (cost, noise) order.

    With ``threshold`` = (nu, q) the tail is instead the rows with cost
    above nu plus the rows tied with it whose draw is >= q.
    """
    check_risk_level(alpha)
    noise_history = np.asarray(noise_history, dtype=np.float64)
    if noise_history.ndim != 1 or noise_history.size == 0:
        raise ValueError(
            f"noise history must be a nonempty 1-d array of shape (t,), got shape {noise_history.shape}"
        )
    costs = game.cost_batch(agent, x, noise_history)
    grads = game.grad_batch(agent, x, noise_history)
    if threshold is None:
        nu = empirical_var(costs, alpha)
        # np.lexsort sorts by its last key first
        order = np.lexsort((noise_history, costs))
        mask = np.zeros(costs.size, dtype=bool)
        mask[order[_tail_start(costs.size, alpha) - 1 :]] = True
    else:
        nu, q = threshold
        mask = (costs > nu) | ((costs == nu) & (noise_history >= q))
    # the mask keeps history order, so alpha = 1 sums exactly as a plain mean
    g = float(grads[mask].sum() / (costs.size * alpha))
    return GradientEstimate(g=g, var_used=float(nu), tail_count=int(mask.sum()))


def cvar_gradient_estimate(
    game: AffineNoiseGame,
    agent: int,
    x: np.ndarray,
    noise_history: np.ndarray,
    alpha: float,
) -> GradientEstimate:
    """CVaR gradient estimate from the replayed noise history.

    ``noise_history`` is the agent's kept draws, a 1-d array of shape
    (t,). Re-evaluates every stored draw at the current joint action, takes
    the empirical VaR nu of the costs, the k-th smallest, and averages
    the gradients of the t - k + 1 rows at or above rank k in (cost,
    noise) order, scaled by 1 / alpha. Rows tied with nu below that rank
    stay out of the tail.
    """
    return _replay_gradient(game, agent, x, noise_history, alpha)


def unbiased_cvar_gradient(
    game: AffineNoiseGame,
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
    above the noise quantile VaR_alpha(xi). ``exact_var`` defaults to
    the game's closed-form VaR.
    """
    if exact_var is None:
        exact_var = game.exact_var(agent, x, alpha)
    q = game.noise_distribution(agent).var(alpha)
    return _replay_gradient(game, agent, x, noise_history, alpha, (float(exact_var), q))


def _rank_tails(draws, alpha: float, window: int | None):
    """Per episode t, Algorithm 1's tail of draws[start:t], a 1-d array, as noise ranks.

    Returns three arrays over the episodes: the lowest tail draw xi_(k),
    the tail size and the sum of the top t - k + 1 draws, as in
    ``cvar_gradient_estimate``. All episodes at once ask a wavelet matrix
    over the draws' ranks for the k-th smallest draw of their window. Per
    rank bit, highest first, a level holds the prefix count of 0-bits and
    the prefix sum of the 1-bit draws, then stably moves the 0-bits first;
    a query that goes to the 0-bits adds its range's 1-bit draws, all
    above its target, to the tail sum. O(T log T) in all.
    """
    horizon = draws.size
    hi = np.arange(1, horizon + 1)
    lo = np.zeros_like(hi) if window is None else np.maximum(hi - window, 0)
    k = _tail_start(hi - lo, alpha) - 1
    count = hi - lo - k
    rank = np.argsort(np.argsort(draws, kind="stable"))
    values, total = draws, np.zeros(horizon)
    for bit in reversed(range((horizon - 1).bit_length())):
        ones = ((rank >> bit) & 1).astype(bool)
        zeros = np.concatenate(([0], np.cumsum(~ones)))
        sums = np.concatenate(([0.0], np.cumsum(np.where(ones, values, 0.0))))
        z_lo, z_hi = zeros[lo], zeros[hi]
        left = k < z_hi - z_lo
        total += np.where(left, sums[hi] - sums[lo], 0.0)
        k = np.where(left, k, k - (z_hi - z_lo))
        lo = np.where(left, z_lo, zeros[-1] + lo - z_lo)
        hi = np.where(left, z_hi, zeros[-1] + hi - z_hi)
        order = np.argsort(ones, kind="stable")
        rank, values = rank[order], values[order]
    # the tail is never empty, so each leaf holds one draw, the k-th smallest
    low = values[lo]
    return low, count, total + low


def _window_sums(values, window: int | None):
    """Per episode t, the sum of values[start:t]: one prefix-sum difference each."""
    sums = np.concatenate(([0], np.cumsum(values)))
    hi = np.arange(1, sums.size)
    return sums[hi] - sums[0 if window is None else np.maximum(hi - window, 0)]


def _as_rngs(game: AffineNoiseGame, seed) -> list[np.random.Generator]:
    """Independent per-agent generators spawned from one master seed.

    A ``SeedSequence`` is copied before it spawns, so the caller's object
    is not advanced and a second run from it draws the same noise.
    """
    if isinstance(seed, np.random.SeedSequence):
        root = np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size)
    else:
        root = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in root.spawn(game.num_agents)]


def _is_number(value, kind) -> bool:
    """``value`` is of the ``numbers`` ABC ``kind``, numpy's scalars included, and not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _setup(game: AffineNoiseGame, alphas, horizon: int, eta, x0, window):
    """Checked risk levels (an array) and step, start action and the game's bounds."""
    alphas = np.array([check_risk_level(a) for a in alphas])
    if len(alphas) != game.num_agents:
        raise ValueError("expected one risk level per agent")
    if not (_is_number(horizon, numbers.Integral) and horizon >= 1):
        raise ValueError(f"horizon must be an integer >= 1, got horizon={horizon!r}")
    if window is not None and not (_is_number(window, numbers.Integral) and window >= 1):
        raise ValueError(f"window must be an integer >= 1 when set, got window={window!r}")
    lower, upper = game.bounds
    if eta is None:
        eta = (np.max(upper - lower) / game.grad_bound) / np.sqrt(horizon)
    elif not (_is_number(eta, numbers.Real) and 0 <= eta < np.inf):
        raise ValueError(f"step size must be nonnegative and finite, a real and not a bool, got eta={eta!r}")
    eta = float(eta)

    if x0 is None:
        x = 0.5 * (lower + upper)
    else:
        x = np.asarray(x0, dtype=np.float64)
        if not game.feasible(x):
            raise ValueError(f"infeasible initial action {x!r}")
        # feasible() allows 1e-9 of slack; start exactly on the box
        x = np.clip(x, lower, upper)
    return alphas, eta, x, lower, upper


def _trace(actions, nu, nu_star, x_star) -> RunTrace:
    """The trace of one run's (T, agents) actions and VaRs."""
    err_sq = None
    if x_star is not None:
        d = actions - x_star
        err_sq = (d[:, None, :] @ d[:, :, None]).ravel()
    return RunTrace(actions, nu, nu_star, err_sq)


# the play's blocks double from 64 episodes to 1024 along the run, at
# episodes that do not depend on its horizon, so a shorter run plays the
# same prefix; past the first, no block is longer than the play before it,
# and a block's maps, their compositions and its checks, numpy's iteration
# buffers among them, take about 32 float64s per episode of the block
_FIRST_BLOCK, _SCAN_BLOCK = 64, 1024

# steps whose tails a run of float steps turns into Python floats at a time
_FLOAT_CHUNK = 32

# a scanned iterate further from its one-step recomputation than this
# share of its box's magnitude, 256 of its ulps, has lost more than
# rounding to the composition: cancellation, overflow or NaN
_DRIFT = 2.0**-44


def _step(lines, tails, x, eta) -> np.ndarray:
    """Each unclipped float step of ``tails`` from the (agents, L) iterates x.

    ``lines`` holds the gradient coefficients (a0, A, b0, B) as arrays,
    and ``tails`` the steps' (agents, L) tail sizes k, tail sums S and
    (t - start) * alpha. Agent i's step is x_i - eta (k g0 + g1 S) / d
    with g0 = a0_i + A_i . x and g1 = b0_i + B_i . x, summed in
    ``_float_steps``' order.
    """
    a0, A, b0, B = lines
    count, total, denoms = tails
    g0, g1 = A[:, 0, None] * x[0], B[:, 0, None] * x[0]
    for j in range(1, a0.size):
        g0 += A[:, j, None] * x[j]
        g1 += B[:, j, None] * x[j]
    g0 += a0[:, None]
    g1 += b0[:, None]
    return x - eta * ((count * g0 + g1 * total) / denoms)


def _float_steps(terms, tails, x, eta, code, run, wait, bounds, out):
    """Float steps along ``tails`` from x until ``wait`` in a row keep their active set.

    ``terms`` holds each agent's gradient coefficients as (a0, A, b0, B)
    with A and B as (j, coefficient) pairs, nonzero only: a zero term
    adds a zero to the sum, which changes no value. ``tails`` holds the
    steps' (agents, L) tail sizes, tail sums and (t - start) * alpha,
    which become Python floats ``_FLOAT_CHUNK`` steps at a time. ``code``
    is the active set of the step before, per agent -1, 0 or 1 for
    clipped to its lower bound, free or clipped to its upper bound, and
    ``run`` the count of steps in a row before that kept it. Writes the
    iterates to the start of ``out`` and returns their count, the last
    step's active set and the run.
    """
    agents, size = tails[0].shape
    tails = np.stack(tails, axis=1).reshape(3 * agents, size)
    # agent i's k, S and d sit at 3 i, 3 i + 1 and 3 i + 2 of a step's list
    agent_rows = [(i, 3 * i, *line, *box) for i, (line, box) in enumerate(zip(terms, bounds))]
    steps = (
        step for start in range(0, size, _FLOAT_CHUNK) for step in tails[:, start : start + _FLOAT_CHUNK].T.tolist()
    )
    played = []
    for step in steps:
        new, state = [], []
        for i, at, a0, A, b0, B, lo, hi in agent_rows:
            g0 = g1 = 0.0
            for j, a in A:
                g0 += a * x[j]
            for j, b in B:
                g1 += b * x[j]
            v = x[i] - eta * ((step[at] * (a0 + g0) + (b0 + g1) * step[at + 1]) / step[at + 2])
            if v < lo:
                new.append(lo)
                state.append(-1)
            elif v > hi:
                new.append(hi)
                state.append(1)
            else:
                new.append(v)
                state.append(0)
        x = new
        played += x
        if state == code:
            run += 1
        else:
            run, code = 0, state
        if run >= wait:
            break
    count = len(played) // agents
    out[:count] = np.reshape(played, (count, agents))
    return count, code, run


def _compose_prefixes(held) -> None:
    """Hillis-Steele: each of the (agents, agents + 1, L) maps [M | b] becomes its prefix, in place."""
    agents, size = held.shape[0], held.shape[2]
    shift = 1
    while shift < size:
        later, earlier = held[:, :, shift:], held[:, :, :-shift]
        # step t after step t - shift: [M | b] [M' | b'] = [M M' | M b' + b]
        composed = np.einsum("ijt,jkt->ikt", later[:, :agents], earlier)
        composed[:, agents] += later[:, agents]
        held[:, :, shift:] = composed
        shift *= 2


# an overflowing composition is cut by the checks, so it needs no warning
@np.errstate(over="ignore", invalid="ignore")
def _scan(lines, tails, x, eta, code, lower, upper, tol, out):
    """Play the steps of ``tails`` from x at once, holding the active set ``code``.

    Each step is the affine map x -> M x + b, with M_i = e_i - (eta / d)
    (k A_i + S B_i) and b_i = -(eta / d) (k a0_i + S b0_i), and a clipped
    coordinate's row is its bound; ``_compose_prefixes`` composes the maps
    into their prefixes in ceil(log2 L) numpy passes. Each iterate is
    then checked against the float step from the one before it: the
    block is cut at the first step whose active set is not ``code`` or
    whose iterate is NaN, infinite or further than ``tol`` from that
    step, and that step's own value ends the block. Writes the iterates
    to the start of ``out`` and returns their count, the last step's
    active set and whether the block was cut.
    """
    a0, A, b0, B = lines
    count, total, denoms = tails
    agents, size = count.shape
    rate = -eta / denoms
    held = np.empty((agents, agents + 1, size))
    np.multiply(count[:, None], A[:, :, None], out=held[:, :agents])
    held[:, :agents] += total[:, None] * B[:, :, None]
    held[:, :agents] *= rate[:, None]
    np.multiply(count, a0[:, None], out=held[:, agents])
    held[:, agents] += total * b0[:, None]
    held[:, agents] *= rate
    # the flat rows i (agents + 1) + i of held are M's diagonal
    held.reshape(-1, size)[:: agents + 2] += 1.0
    for i, c in enumerate(code):
        if c:
            held[i] = 0.0
            held[i, agents] = upper[i] if c > 0 else lower[i]
    # the first map at x: a constant map, so each prefix's bias is its iterate
    first = held[:, agents, 0].copy()
    for j in range(agents):
        first += held[:, j, 0] * x[j]
    held[:, :, 0] = 0.0
    held[:, agents, 0] = first
    _compose_prefixes(held)
    # the maps are freed before the checks, so the two never add up in memory
    iterates = held[:, agents].copy()
    del held
    y = _step(lines, tails, np.concatenate((x[:, None], iterates[:, :-1]), axis=1), eta)
    low, high = y < lower[:, None], y > upper[:, None]
    step = np.minimum(np.maximum(y, lower[:, None]), upper[:, None])
    # written as a pass, since NaN compares false
    good = np.abs(iterates - step) <= tol[:, None]
    code = np.array(code)[:, None]
    good &= (low == (code < 0)) & (high == (code > 0))
    good = good.all(0)
    cut = int(good.argmin())
    if good[cut]:
        out[:size] = iterates.T
        return size, (high[:, -1].astype(int) - low[:, -1]).tolist(), False
    out[:cut] = iterates[:, :cut].T
    out[cut] = step[:, cut]
    return cut + 1, (high[:, cut].astype(int) - low[:, cut]).tolist(), True


def _scan_play(game, count, total, denoms, eta, x, lower, upper) -> np.ndarray:
    """Play one run as a blocked prefix scan of its affine steps; its (T, agents) action path.

    ``count`` and ``total`` are the run's (agents, T) tail sizes and
    tail sums, and ``denoms`` each agent's and episode's (t - start) *
    alpha. The game is asked once per agent for its gradient
    coefficients, so each unclipped step is an affine map known before
    the play. The run is played in blocks of ``_FIRST_BLOCK`` steps,
    then of as many as the play before them, up to ``_SCAN_BLOCK``.
    ``_scan`` plays from the active set of the step before. After a cut
    the play takes float steps until that many in a row keep their
    active set, a count that doubles with each cut in a row and is 0
    again after a scan that is not cut. So a run that enters or leaves a
    face only a few times costs some numpy passes per block, and one
    whose active set changes every episode a float step per episode.
    """
    agents, horizon = count.shape
    coefficients = [game.gradient_coefficients(i) for i in range(agents)]
    # (a0, A, b0, B): each agent's coefficients, one row per agent
    lines = [np.array(part, dtype=np.float64) for part in zip(*((*g0, *g1) for g0, g1 in coefficients))]
    terms = [
        (a0, [(j, c) for j, c in enumerate(a) if c], b0, [(j, c) for j, c in enumerate(b) if c])
        for (a0, a), (b0, b) in coefficients
    ]
    bounds = list(zip(lower.tolist(), upper.tolist()))
    tol = _DRIFT * np.maximum(np.abs(lower), np.abs(upper))
    path = np.empty((horizon, agents))
    path[0] = x
    # the first steps are float steps, which give the first scan its active set
    code, run, wait = None, 0, 1
    start = 0
    while start < horizon - 1:
        stop = min(start + min(_SCAN_BLOCK, max(_FIRST_BLOCK, start)), horizon - 1)
        t = start
        while t < stop:
            tails = (count[:, t:stop], total[:, t:stop], denoms[:, t:stop])
            out = path[t + 1 : stop + 1]
            if run < wait:
                steps, code, run = _float_steps(terms, tails, path[t].tolist(), eta, code, run, wait, bounds, out)
            else:
                steps, code, cut = _scan(lines, tails, path[t], eta, code, lower, upper, tol, out)
                run, wait = (0, max(1, 2 * wait)) if cut else (run, 0)
            t += steps
        start = stop
    return path


def _run(
    game: AffineNoiseGame, alphas, horizon: int, eta, x0, window, seed, algorithm: str
) -> RunTrace:
    """One run of ``algorithm``, "algorithm1" or "unbiased-fo", on the rank engine.

    Per agent, a ``_rank_tails`` pass gives Algorithm 1's tails, two
    ``_window_sums`` the baseline's. ``_scan_play`` plays the run as a
    blocked prefix scan of its affine steps; the tail arrays are freed
    before the VaRs are read off it.
    """
    alphas, eta, x, lower, upper = _setup(game, alphas, horizon, eta, x0, window)
    num_agents = game.num_agents
    laws = [game.noise_distribution(i) for i in range(num_agents)]
    quantiles = np.array([law.var(alpha) for law, alpha in zip(laws, alphas)])
    denoms = np.minimum(np.arange(1, horizon + 1), window or horizon) * alphas[:, None]
    unbiased = algorithm == "unbiased-fo"

    # per agent and episode: tail size, tail sum and Algorithm 1's lowest tail draw
    low, count, total = (np.empty((num_agents, horizon)) for _ in range(3))
    for i, rng in enumerate(_as_rngs(game, seed)):
        draws = laws[i].sample(rng, size=horizon)
        if unbiased:
            # the baseline's tail is the draws at or above the noise quantile
            tail = draws >= quantiles[i]
            count[i] = _window_sums(tail, window)
            total[i] = _window_sums(np.where(tail, draws, 0.0), window)
        else:
            low[i], count[i], total[i] = _rank_tails(draws, alphas[i], window)
    actions = _scan_play(game, count, total, denoms, eta, x, lower, upper)
    del count, total

    # the VaRs off the (agents, T) action path, one agent at a time
    nu, nu_star = np.empty((num_agents, horizon)), np.empty((num_agents, horizon))
    for i in range(num_agents):
        c0, s = game.cost_line(i, actions.T)
        s = np.broadcast_to(s, horizon)
        negative = np.flatnonzero(s < 0)
        if negative.size:
            k = negative[0]
            raise ValueError(
                f"agent {i} at episode {k + 1}: cost_line needs a nonnegative "
                f"noise slope, got {s[k]}"
            )
        nu_star[i] = c0 + s * quantiles[i]
        nu[i] = nu_star[i] if unbiased else c0 + low[i] * s
    return _trace(actions, nu.T, nu_star.T, game.nash_equilibrium(alphas))


def _replay(
    game: AffineNoiseGame, alphas, horizon: int, eta, x0, window, seed, algorithm: str
) -> RunTrace:
    """One run of ``algorithm``, replaying the kept draws every episode.

    Episode t passes each agent's draws[start:t], all drawn up front with
    ``sample_noise``, to the estimator, and records the game's exact VaR
    as nu*. The oracle for ``_run``.
    """
    alphas, eta, x, lower, upper = _setup(game, alphas, horizon, eta, x0, window)
    unbiased = algorithm == "unbiased-fo"
    nu = np.empty((horizon, game.num_agents))
    nu_star = np.empty_like(nu)
    histories = [
        np.array([game.sample_noise(i, rng) for _ in range(horizon)])
        for i, rng in enumerate(_as_rngs(game, seed))
    ]
    actions = np.empty((horizon, x.size))
    grads = np.empty_like(x)
    for t in range(1, horizon + 1):
        actions[t - 1] = x
        start = 0 if window is None else max(0, t - window)
        for i, history in enumerate(histories):
            nu_star[t - 1, i] = game.exact_var(i, x, alphas[i])
            draws = history[start:t]
            if unbiased:
                est = unbiased_cvar_gradient(game, i, x, draws, alphas[i], nu_star[t - 1, i])
            else:
                est = cvar_gradient_estimate(game, i, x, draws, alphas[i])
            grads[i] = est.g
            nu[t - 1, i] = est.var_used
        x = np.clip(x - eta * grads, lower, upper)
    return _trace(actions, nu, nu_star, game.nash_equilibrium(alphas))


def run_algorithm1(
    game: AffineNoiseGame,
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
    width of the widest action interval and B the game's gradient
    bound. A step that is not a nonnegative finite real, or a horizon or
    window that is not a positive integer, is a ``ValueError``; a bool
    is none of these. Runs with equal seeds and configuration are
    bit-identical.
    """
    return _run(game, alphas, horizon, eta, x0, window, seed, "algorithm1")


def run_unbiased_baseline(
    game: AffineNoiseGame,
    alphas,
    horizon: int,
    eta: float | None = None,
    x0=None,
    seed=0,
    window: int | None = None,
) -> RunTrace:
    """Identical loop with the estimated VaR replaced by the exact one."""
    return _run(game, alphas, horizon, eta, x0, window, seed, "unbiased-fo")
