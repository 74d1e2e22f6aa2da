"""Game models with stochastic costs.

Every game is an ``AffineNoiseGame``: it describes each agent's cost and
gradient as two lines in a scalar uniform noise draw, ``cost_line`` and
``gradient_line``, and derives the cost and gradient batches, noise
draws and the VaR closed form from them. A caller asks for the one line
it uses, so no evaluation computes a half that is thrown away. The
gradient line is affine in the joint action too, and each game states it
once, as its ``gradient_coefficients``. Two
built-in two-agent games: a Cournot duopoly whose risk-averse
equilibrium is unique and computable in closed form, and a quadratic
game whose risk-averse (alpha = 0.5) equilibria form a whole line
segment even though its risk-neutral version is strongly monotone.

An agent's action is a float in an interval, its ``Box``; a joint
action is a float vector with one entry per agent, and ``game.bounds``
is the joint box as a (lower, upper) pair of such vectors. A noise draw
is a float and a history of draws a 1-d array; costs and gradients are
only evaluated over such a history, in one batch call, and a gradient is
the float derivative in the agent's own action.
Each built-in game is a frozen dataclass: its class carries its config
``name`` and its ``default_alphas``, and its fields are its config keys.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .distributions import Uniform, check_risk_level

__all__ = [
    "Box",
    "AffineNoiseGame",
    "CournotGame",
    "QuadraticCounterexampleGame",
]


@dataclass(frozen=True)
class Box:
    """One agent's action set, the interval [lower, upper]."""

    lower: float
    upper: float

    def __post_init__(self):
        # + 0.0 turns a -0.0 bound into 0.0, so that a clamp never meets a
        # zero of the other sign, where np.clip and a clamp by comparisons
        # pick differently
        lo, hi = float(self.lower) + 0.0, float(self.upper) + 0.0
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"bounds must be finite with lower < upper, got [{lo}, {hi}]")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def project(self, x) -> np.ndarray:
        """Euclidean projection onto the interval, a clamp."""
        return np.clip(np.asarray(x, dtype=np.float64), self.lower, self.upper)


def _dot(coefficients, x):
    """sum_j c_j x_j over the agents, in agent order: x is a joint action or an action path."""
    return sum(c * v for c, v in zip(coefficients, x))


class AffineNoiseGame(ABC):
    """N-agent game whose costs are affine in one uniform noise draw per agent.

    Agent i's action is one float in ``action_sets[i]``, and a joint
    action x a float vector of shape (num_agents,) inside ``bounds``.
    A subclass describes agent i by the line in the noise xi of its cost
    at x, ``cost_line(agent, x)``, the coefficients (c0, s) of c0 + s *
    xi; by the coefficients of its gradient's line g0 + g1 * xi, which are
    affine in x, ``gradient_coefficients(agent)``: ((a0, a), (b0, b)) with
    g0 = a0 + a . x and g1 = b0 + b . x; and by
    ``noise_distribution(agent)``, the uniform law U(a, b) of xi. The
    gradient line (g0, g1) at x follows from its coefficients, the cost
    batch and the closed-form VaR from the cost line, the gradient batch
    from the gradient line, and the noise draw from the law. Each cost
    must be convex in the agent's own action, and ``grad_bound`` must
    bound the per-sample gradient over the feasible set and noise
    support. For s >= 0 the cost at x is uniform on [c0 + s a, c0 + s b],
    so

        VaR_alpha = c0 + s VaR_alpha(xi),   CVaR_alpha = c0 + s CVaR_alpha(xi),

    and, CVaR being positively homogeneous, the CVaR gradient is
    g0 + g1 CVaR_alpha(xi).

    ``agent`` is always an int. ``x`` is one joint action, as an array,
    or the (num_agents, T) action path, for which each line coefficient
    is a scalar or a (T,) array. The learning loop asks each agent's
    gradient coefficients once per run and builds its per-episode affine
    maps from them; the VaR read-off after the loop raises a
    ``ValueError`` naming the agent and episode of a negative slope.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # perfbench/tracing.py times these by patching them in each game's
        # own namespace (``vars(CournotGame)``), so every game holds them
        for name in ("cost_batch", "grad_batch", "sample_noise", "exact_var"):
            if name not in vars(cls):
                setattr(cls, name, getattr(cls, name))

    @property
    @abstractmethod
    def num_agents(self) -> int: ...

    @property
    @abstractmethod
    def action_sets(self) -> tuple[Box, ...]: ...

    @property
    @abstractmethod
    def grad_bound(self) -> float:
        """Uniform bound B on the per-sample gradient norm."""

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The joint box as (lower, upper) arrays, one entry per agent."""
        boxes = self.action_sets
        return np.array([box.lower for box in boxes]), np.array([box.upper for box in boxes])

    def feasible(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=np.float64)
        lower, upper = self.bounds
        return x.shape == lower.shape and bool(np.all(x >= lower - tol) and np.all(x <= upper + tol))

    @abstractmethod
    def cost_line(self, agent: int, x) -> tuple:
        """(c0, s): the agent's cost at x is c0 + s * xi."""

    @abstractmethod
    def gradient_coefficients(self, agent: int) -> tuple:
        """((a0, a), (b0, b)): the gradient line at x is g0 = a0 + a . x, g1 = b0 + b . x.

        a and b hold one float per agent.
        """

    def gradient_line(self, agent: int, x) -> tuple:
        """(g0, g1): the derivative of that cost in the agent's own action is g0 + g1 * xi."""
        (a0, a), (b0, b) = self.gradient_coefficients(agent)
        return a0 + _dot(a, x), b0 + _dot(b, x)

    @abstractmethod
    def noise_distribution(self, agent: int) -> Uniform: ...

    def nash_equilibrium(self, alphas) -> np.ndarray | None:
        """Risk-averse Nash equilibrium for the alpha profile, when unique and known."""
        return None

    def sample_noise(self, agent: int, rng: np.random.Generator) -> float:
        return self.noise_distribution(agent).sample(rng)

    def cost_batch(self, agent: int, x, xi_batch) -> np.ndarray:
        """The agent's costs at x for a (t,) history of draws, shape (t,)."""
        c0, s = self.cost_line(agent, x)
        return c0 + xi_batch * s

    def grad_batch(self, agent: int, x, xi_batch) -> np.ndarray:
        """Derivatives of those costs in the agent's own action, shape (t,)."""
        g0, g1 = self.gradient_line(agent, x)
        return g0 + g1 * xi_batch

    def exact_var(self, agent: int, x, alpha: float) -> float:
        """True VaR of J_i(x, xi_i) at the joint action x."""
        c0, s = self.cost_line(agent, x)
        if s < 0:
            raise ValueError(f"exact VaR requires a nonnegative noise slope, got {s}")
        return c0 + s * self.noise_distribution(agent).var(alpha)


@dataclass(frozen=True)
class CournotGame(AffineNoiseGame):
    """Two-firm Cournot market with multiplicative uniform price noise.

    Agent i picks a production level x_i in [0, 1] and pays

        J_i(x, xi_i) = 1 - (2 - x_1 - x_2) x_i + 0.2 x_i + xi_i x_i,

    with xi_i ~ U(0, 1) independent across agents. The cost is an affine
    function of the noise with nonnegative slope x_i, so on the box

        VaR_alpha = c0 + x_i (1 - alpha),   CVaR_alpha = c0 + x_i (1 - alpha / 2),
        grad_i CVaR_alpha = 2 x_i + x_{-i} - 0.8 - alpha / 2,

    with c0 = 1 - (2 - x_1 - x_2) x_i + 0.2 x_i, and the risk-averse
    equilibrium solves the resulting 2x2 linear system. The per-sample
    gradient 2 x_i + x_{-i} - 1.8 + xi_i is bounded by 2.2 over the
    feasible set and noise support. The game has no parameters: a
    dataclass without fields, so that any two configs of it compare equal.
    """

    name = "cournot"
    default_alphas = (0.4, 0.8)
    _BOX = Box(0.0, 1.0)
    _NOISE = Uniform(0.0, 1.0)

    @property
    def num_agents(self) -> int:
        return 2

    @property
    def action_sets(self) -> tuple[Box, ...]:
        return (self._BOX, self._BOX)

    @property
    def grad_bound(self) -> float:
        return 2.2

    def noise_distribution(self, agent: int) -> Uniform:
        return self._NOISE

    def cost_line(self, agent: int, x):
        own = x[agent]
        return 1.0 - (2.0 - (x[0] + x[1])) * own + 0.2 * own, own

    def gradient_coefficients(self, agent: int):
        # 2 x_i + x_{-i} - 1.8 and 1
        slopes = [1.0, 1.0]
        slopes[agent] = 2.0
        return (-1.8, tuple(slopes)), (1.0, (0.0, 0.0))

    def nash_equilibrium(self, alphas) -> np.ndarray:
        """Unique risk-averse equilibrium: solve 2 x_i + x_{-i} = 0.8 + alpha_i / 2.

        The 2x2 system is eliminated by hand, without loading LAPACK, in
        the pivot order of its ``gesv`` (LU with partial pivoting): pivot 2
        in row 0, multiplier 0.5, second pivot 1.5, then back substitution.
        Those operations round as LAPACK's solve does, so x* and every
        ``err_sq`` computed from it keep their bits; Cramer's rule rounds
        differently. The solution is clipped to the box; it is interior
        for every alpha profile in (0, 1]^2.
        """
        alphas = [check_risk_level(a) for a in alphas]
        if len(alphas) != 2:
            raise ValueError("expected one risk level per agent")
        r0, r1 = 0.8 + 0.5 * alphas[0], 0.8 + 0.5 * alphas[1]
        x1 = (r1 - 0.5 * r0) / 1.5
        x0 = (r0 - x1) / 2.0
        return np.clip(np.array([x0, x1]), 0.0, 1.0)


# a, b and d in [1e-50, 1e50] and |c| <= 1e50 keep every scale a run of
# the counterexample and its bound checks derive within about 1e+-200,
# where nothing overflows or underflows: the gradient bound (10/3) a b,
# the noise slope 4 a b^2 / (3 d), the costs |c| + O(a b^2), and the
# noise density 1/d and its square in the Lemma-3 check
_MIN_SCALE, _MAX_SCALE = 1e-50, 1e50


@dataclass(frozen=True)
class QuadraticCounterexampleGame(AffineNoiseGame):
    """Two-agent quadratic game whose noise couples both agents' actions.

    Agent i pays

        J_i(x, xi_i) = c + a x_i^2 + a x_i x_{-i} - a b x_i
                       + (4a / 3d) x_i x_{-i} xi_i,

    with xi_i ~ U(0, d) and actions in [0, b]. The noise term has CVaR
    slope (4a/3)(1 - alpha/2) x_{-i} in x_i, so the CVaR gradient is

        2a x_i + a x_{-i} - a b + (4a/3)(1 - alpha/2) x_{-i}.

    The risk-neutral game is strongly monotone, but at alpha = 0.5 the
    CVaR cost collapses to c + a x_i^2 + 2 a x_i x_{-i} - a b x_i, whose
    pseudo-gradient vanishes on the whole line x_1 + x_2 = b / 2:
    infinitely many risk-averse equilibria, and zero monotonicity along
    (1, -1). At alpha = 1 the cross coefficient is 5a/3 (risk-neutral).
    """

    a: float = 1.0
    b: float = 1.0
    c: float = 0.0
    d: float = 1.0

    name = "quadratic-counterexample"
    default_alphas = (0.5, 0.5)

    def __post_init__(self):
        for field, why in (("a", ""), ("b", " (actions live in [0, b])"), ("d", " (noise lives on [0, d])")):
            value = getattr(self, field)
            if not _MIN_SCALE <= value <= _MAX_SCALE:
                raise ValueError(
                    f"{field}: must be positive and finite, in [{_MIN_SCALE:g}, {_MAX_SCALE:g}]{why}, "
                    f"got {value!r}"
                )
        if not abs(self.c) <= _MAX_SCALE:
            raise ValueError(f"c: must be finite, at most {_MAX_SCALE:g} in magnitude, got {self.c!r}")
        object.__setattr__(self, "_box", Box(0.0, self.b))
        object.__setattr__(self, "_noise", Uniform(0.0, self.d))

    @property
    def num_agents(self) -> int:
        return 2

    @property
    def action_sets(self) -> tuple[Box, ...]:
        return (self._box, self._box)

    @property
    def grad_bound(self) -> float:
        # max of |2a x_i + a x_j - ab + (4a/3d) x_j xi| over the box and noise
        return (10.0 / 3.0) * self.a * self.b

    def noise_distribution(self, agent: int) -> Uniform:
        return self._noise

    def cost_line(self, agent: int, x):
        a = self.a
        own, other = x[agent], x[1 - agent]
        k = 4.0 * a / (3.0 * self.d)
        return self.c + a * own * own + a * own * other - a * self.b * own, k * own * other

    def gradient_coefficients(self, agent: int):
        # 2a x_i + a x_{-i} - a b and (4a / 3d) x_{-i}
        a = self.a
        slopes, noise = [a, a], [4.0 * a / (3.0 * self.d)] * 2
        slopes[agent], noise[agent] = 2.0 * a, 0.0
        return (-a * self.b, tuple(slopes)), (0.0, tuple(noise))

