"""Closed forms, probes and a plug-in CVaR that only the tests ask for.

Each is a function of a noise law, an ``AffineNoiseGame`` or a sample
array, and checks a claim about the games or the estimators rather than
taking part in a run: the closed-form CVaR of the uniform law, the exact
CVaR and CVaR gradient read off a game's cost and gradient lines, a
sampled probe of a game's monotonicity constant, a check of the additive
noise-decomposition structure that the convergence theory relies on, the
plug-in (VaR, CVaR) of a raw sample, the Lemma-3 check drawn as one
matrix, the binomial tail that check sums, in exact rational arithmetic
and one log-term at a time, a plot's pixel text formatted one point at
a time, a curve's plot envelope read off a sort by y, and a run's play
one float step at a time.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial

import numpy as np

from riskgames import plotting
from riskgames.analysis import BoundReport
from riskgames.distributions import _tail_start, check_risk_level


def _nonnegative_slope(game, agent: int, x, quantity: str):
    """The agent's cost line at x, refused where its noise slope is negative."""
    c0, s = game.cost_line(agent, x)
    if s < 0:
        raise ValueError(f"exact {quantity} requires a nonnegative noise slope, got {s}")
    return c0, s


def uniform_cvar(law, alpha: float) -> float:
    """CVaR_alpha of the uniform ``law`` on [a, b]: a + (1 - alpha/2)(b - a).

    The midpoint of the upper tail, which is the worst ``alpha`` fraction
    of outcomes.
    """
    check_risk_level(alpha)
    return law.a + (1.0 - 0.5 * alpha) * law.width


def exact_cvar(game, agent: int, x, alpha: float) -> float:
    """True CVaR of J_i(x, xi_i) at the joint action x: c0 + s CVaR_alpha(xi)."""
    c0, s = _nonnegative_slope(game, agent, x, "CVaR")
    return c0 + s * uniform_cvar(game.noise_distribution(agent), alpha)


def exact_risk_averse_gradient(game, agent: int, x, alpha: float) -> float:
    """Derivative of CVaR_alpha[J_i(x, xi_i)] in the agent's own action."""
    _nonnegative_slope(game, agent, x, "CVaR gradient")
    g0, g1 = game.gradient_line(agent, x)
    return float(g0 + g1 * uniform_cvar(game.noise_distribution(agent), alpha))


def monotonicity_probe(
    game,
    alphas,
    num_pairs: int,
    rng: np.random.Generator,
    direction: np.ndarray | None = None,
    min_separation: float = 1e-6,
) -> float:
    """Sampled lower estimate of the game's monotonicity constant at ``alphas``.

    Draws ``num_pairs`` random pairs (x, x') of joint actions, one float
    per agent, from ``game.bounds`` and returns the minimum of

        sum_i (F_i(x) - F_i(x')) (x_i - x_i') / ||x - x'||^2,

    where F_i(x) = ``exact_risk_averse_gradient(game, i, x, alphas[i])``;
    alpha = 1 for every agent gives the risk-neutral pseudo-gradient.
    This is an upper bound on the true constant m (a certificate would
    need the full infimum). With ``direction`` set, x' is displaced from
    x along that fixed direction only, which probes degenerate
    directions. Pairs closer than ``min_separation`` are rejected;
    exhausting the rejection budget is an error.
    """
    alphas = [check_risk_level(a) for a in alphas]
    if len(alphas) != game.num_agents:
        raise ValueError("expected one risk level per agent")
    if num_pairs < 1:
        raise ValueError("num_pairs must be >= 1")
    lower, upper = game.bounds
    if direction is not None:
        direction = np.asarray(direction, dtype=np.float64)
        if direction.shape != lower.shape or not np.linalg.norm(direction) > 0:
            raise ValueError("direction must be a nonzero joint-space vector")
        direction = direction / np.linalg.norm(direction)
    scale = float(np.max(upper - lower))
    grad = partial(exact_risk_averse_gradient, game)
    best = math.inf
    attempts_left = 100 * num_pairs
    found = 0
    while found < num_pairs:
        if attempts_left <= 0:
            raise RuntimeError(
                "monotonicity probe exhausted its budget of non-degenerate pairs"
            )
        attempts_left -= 1
        x = rng.uniform(lower, upper)
        if direction is None:
            x_alt = rng.uniform(lower, upper)
        else:
            step = rng.uniform(-scale, scale)
            x_alt = np.clip(x + step * direction, lower, upper)
        diff = x - x_alt
        dist = float(np.linalg.norm(diff))
        if dist < min_separation:
            continue
        gaps = [grad(i, x, alpha) - grad(i, x_alt, alpha) for i, alpha in enumerate(alphas)]
        ratio = float(np.dot(gaps, diff)) / (dist * dist)
        best = min(best, ratio)
        found += 1
    return best


def decomposition_check(
    game,
    num_samples: int,
    rng: np.random.Generator,
    tol: float = 1e-9,
) -> bool:
    """Test whether each cost splits as f_i(x_i, xi_i) + g_i(x).

    Under that structure J_i(x, xi) - J_i(x, xi') cannot depend on the
    rivals' actions, so the difference-of-differences across two random
    rival profiles must vanish. Returns True iff every sampled check
    stays below ``tol``.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    lower, upper = game.bounds
    for _ in range(num_samples):
        for agent in range(game.num_agents):
            x = rng.uniform(lower, upper)
            x_alt = rng.uniform(lower, upper)
            # keep the agent's own action fixed, vary only the rivals
            x_alt[agent] = x[agent]
            xis = np.array([game.sample_noise(agent, rng), game.sample_noise(agent, rng)])
            here, there = game.cost_batch(agent, x, xis), game.cost_batch(agent, x_alt, xis)
            delta = (here[0] - here[1]) - (there[0] - there[1])
            if abs(delta) > tol:
                return False
    return True


def empirical_var_cvar(values: np.ndarray, alpha: float) -> tuple[float, float]:
    """(VaR, CVaR) of a raw sample array in one pass.

    CVaR is the plug-in value nu + sum((v - nu)_+) / (alpha * t) with nu
    the empirical VaR, taken as the mean of the worst alpha * t draws:
    every draw above the VaR order statistic in full, and nu with the
    fractional weight that makes up the rest.
    """
    check_risk_level(alpha)
    values = np.asarray(values, dtype=np.float64)
    t = values.size
    if t == 0:
        raise ValueError("empty sample set has no quantiles")
    k = _tail_start(t, alpha)
    part = np.partition(values, k - 1)
    nu = float(part[k - 1])
    # Summing the tail draws themselves, rather than adding their excesses
    # over nu back onto nu, keeps a large |nu| from cancelling against a
    # CVaR near zero. Only the tail sum is rounded; the weighting is exact,
    # so a tail of ties returns nu itself. The exact value is >= nu, and
    # the max keeps CVaR >= VaR when the rounded sum falls an ulp short.
    weight = Fraction(alpha) * t
    above = Fraction(math.fsum(part[k:].tolist()))
    cvar = float((above + (weight - (t - int(k))) * Fraction(nu)) / weight)
    return nu, max(nu, cvar)


def lemma3_one_matrix(dist, alpha: float, t: int, repeats: int, epsilon: float, rng, p_lower=None) -> BoundReport:
    """Monte Carlo estimate of the probability ``analysis.validate_lemma3`` computes exactly.

    All ``repeats`` samples are drawn as one (repeats, t) matrix: one
    ``rng`` call fills it in stream order, each row is partitioned at the
    VaR order statistic, and the report is formed from the violation
    frequency of the row estimates, passing within two binomial standard
    errors of the bound.
    """
    check_risk_level(alpha)
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


def binomial_tail(t: int, u: float, lo: int, hi: int) -> Fraction:
    """P{lo <= Bin(t, u) <= hi} exactly, at the rational value of the float u.

    With u = m/d, the tail is the integer sum of C(t, j) m^j (d - m)^(t - j)
    over d^t, evaluated by Horner's rule in m and d - m.
    """
    f = Fraction(u)
    m, d = f.numerator, f.denominator
    n = d - m
    acc, n_power = 0, 1
    for j in range(hi, lo - 1, -1):
        acc = acc * m + math.comb(t, j) * n_power
        n_power *= n
    return Fraction(acc * m**lo * n ** (t - hi), d**t)


def binomial_tail_terms(t: int, u: float, lo: int, hi: int) -> float:
    """``analysis._binomial_tail`` one log-term at a time, each with its own ``math.lgamma`` calls."""
    log_u, log_v, log_top = math.log(u), math.log1p(-u), math.lgamma(t + 1)
    logs = [
        log_top - math.lgamma(j + 1) - math.lgamma(t - j + 1) + j * log_u + (t - j) * log_v
        for j in range(lo, hi + 1)
    ]
    peak = max(logs)
    return math.exp(peak) * math.fsum([math.exp(x - peak) for x in logs])


def pixel_points(xs, ys, x_range, decades) -> list[str]:
    """``plotting._pixel_points`` one point at a time: ``f"{sx(x):.2f},{sy(y):.2f}"`` per point.

    ``sx`` and ``sy`` are ``plotting.emit_plot``'s scales for a plot of
    the episodes ``x_range`` over the powers of ten ``decades``.
    """
    (x_min, x_max), (y_lo_dec, y_hi_dec) = x_range, decades
    y_floor = 10.0**y_lo_dec

    def sx(x: float) -> float:
        return plotting._LEFT + (x - x_min) / (x_max - x_min or 1.0) * plotting._PLOT_W

    def sy(y: float) -> float:
        yv = math.log10(max(y, y_floor))
        return plotting._TOP + (y_hi_dec - yv) / (y_hi_dec - y_lo_dec) * plotting._PLOT_H

    return [f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs.tolist(), ys.tolist())]


def envelope(column: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``plotting._envelope`` by a stable sort: the indices of the points of a curve that the plot draws.

    ``column`` is each point's pixel column, nondecreasing along the curve.
    A column of at most 4 points keeps them all; a fuller one keeps its
    first, lowest, highest and last point.
    """
    starts = np.flatnonzero(np.r_[True, column[1:] != column[:-1]])
    counts = np.diff(np.r_[starts, column.size])
    ends = starts + counts - 1
    keep = np.repeat(counts <= 4, counts)
    # sorted by y within each column, so a column's lowest point sits at its start
    by_y = np.lexsort((y, column))
    keep[np.r_[starts, ends, by_y[starts], by_y[ends]]] = True
    return np.flatnonzero(keep)


def float_play(game, count, total, denoms, eta, x, lower, upper) -> np.ndarray:
    """``learning._scan_play`` one episode at a time, in Python floats; the (T, agents) action path.

    ``count`` and ``total`` are the run's (agents, T) tail sizes and
    tail sums, and ``denoms`` each agent's and episode's (t - start) *
    alpha. Each episode calls ``gradient_line`` with an int agent and the
    joint action as a list of floats, and clamps each coordinate to its
    bound as ``np.clip`` does, since no ``games.Box`` bound is -0.0.
    """
    agents = range(game.num_agents)
    lower, upper, x = lower.tolist(), upper.tolist(), x.tolist()
    tails = [zip(count[i].tolist(), total[i].tolist(), denoms[i].tolist()) for i in agents]
    played = []
    for episode in zip(*tails):
        played.append(x)
        step = []
        # simultaneous play: all updates use the same joint action
        for i in agents:
            k, tail, d = episode[i]
            g0, g1 = game.gradient_line(i, x)
            v = x[i] - eta * ((k * g0 + g1 * tail) / d)
            step.append(lower[i] if v < lower[i] else upper[i] if v > upper[i] else v)
        x = step
    return np.array(played)
