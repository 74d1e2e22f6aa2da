"""Game models with stochastic costs.

The interface, ``StochasticGame``, and ``AffineNoiseGame``, which derives
costs, gradients, noise draws and the VaR/CVaR closed forms from one
description: each agent's cost and gradient as affine functions of a
uniform noise draw. Two built-in two-agent games use it: a Cournot
duopoly whose risk-averse equilibrium is unique and computable in closed
form, and a quadratic game whose risk-averse (alpha = 0.5) equilibria
form a whole line segment even though its risk-neutral version is
strongly monotone. Also numerical probes for strong monotonicity and for
the additive noise-decomposition structure that the convergence theory
relies on.

Joint actions are flat float vectors; agent ``i`` owns the coordinates
``game.block_slice(i)``. Both built-in games use one coordinate per agent.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .distributions import Uniform, check_risk_level

__all__ = [
    "Box",
    "StochasticGame",
    "AffineNoiseGame",
    "CournotGame",
    "QuadraticCounterexampleGame",
    "UnsupportedGameError",
    "exact_gradient_oracle",
    "monotonicity_probe",
    "decomposition_check",
]


class UnsupportedGameError(RuntimeError):
    """The game does not provide the requested closed-form quantity."""


@dataclass(frozen=True)
class Box:
    """Axis-aligned box action set with componentwise bounds."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=np.float64))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=np.float64))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("bounds must be 1-d arrays of equal length")
        if not np.all(lo < hi):
            raise ValueError("lower bounds must be strictly below upper bounds")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def project(self, x) -> np.ndarray:
        """Euclidean projection; separable for boxes, so a componentwise clamp."""
        return np.clip(np.asarray(x, dtype=np.float64), self.lower, self.upper)

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=np.float64)
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lower, self.upper)


class StochasticGame(ABC):
    """N-agent game with per-agent stochastic costs J_i(x, xi_i).

    Each agent's cost must be convex in its own action block for every
    rival action and noise realization, and the per-sample gradients must
    be bounded by ``grad_bound`` over the feasible set and noise support.
    Noise draws are arrays of shape (noise_dim,); histories stack them as
    (t, noise_dim).
    """

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
    def noise_dim(self) -> int:
        return 1

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(box.dim for box in self.action_sets)

    @property
    def dimension(self) -> int:
        return sum(self.dims)

    def block_slice(self, agent: int) -> slice:
        offsets = np.cumsum((0,) + self.dims)
        return slice(int(offsets[agent]), int(offsets[agent + 1]))

    def feasible(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dimension,):
            return False
        return all(
            box.contains(x[self.block_slice(i)], tol)
            for i, box in enumerate(self.action_sets)
        )

    @abstractmethod
    def sample_noise(self, agent: int, rng: np.random.Generator) -> np.ndarray:
        """One noise draw for the agent, shape (noise_dim,)."""

    @abstractmethod
    def cost(self, agent: int, x: np.ndarray, xi: np.ndarray) -> float: ...

    @abstractmethod
    def grad(self, agent: int, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """Gradient of the agent's cost w.r.t. its own block, shape (d_i,)."""

    def cost_batch(self, agent: int, x: np.ndarray, xi_batch: np.ndarray) -> np.ndarray:
        """Costs for a stack of noise draws, shape (t,). Override for speed."""
        return np.array([self.cost(agent, x, xi) for xi in xi_batch])

    def grad_batch(self, agent: int, x: np.ndarray, xi_batch: np.ndarray) -> np.ndarray:
        """Gradients for a stack of noise draws, shape (t, d_i). Override for speed."""
        return np.stack([self.grad(agent, x, xi) for xi in xi_batch])

    def noise_distribution(self, agent: int) -> Uniform:
        """Closed-form law of the agent's noise, when known."""
        raise UnsupportedGameError(f"{type(self).__name__} has no closed-form noise law")

    def exact_var(self, agent: int, x: np.ndarray, alpha: float) -> float:
        """True VaR of J_i(x, xi_i) at the given joint action, when known."""
        raise UnsupportedGameError(f"{type(self).__name__} has no exact VaR")

    def exact_cvar(self, agent: int, x: np.ndarray, alpha: float) -> float:
        raise UnsupportedGameError(f"{type(self).__name__} has no exact CVaR")

    def exact_risk_averse_gradient(
        self, agent: int, x: np.ndarray, alpha: float
    ) -> np.ndarray:
        """Gradient of CVaR_alpha[J_i(x, xi_i)] w.r.t. the agent's block, when known."""
        raise UnsupportedGameError(f"{type(self).__name__} has no exact CVaR gradient")

    def nash_equilibrium(self, alphas) -> np.ndarray | None:
        """Risk-averse Nash equilibrium for the alpha profile, when unique and known."""
        return None

    def affine_noise(self, agent: int, x: np.ndarray):
        """Coefficients (c0, s, g0, g1) of a cost affine in scalar noise, when known.

        At the joint action x the agent's cost is c0 + s * xi and its
        gradient g0 + g1 * xi for every scalar draw xi (noise_dim 1). The
        contract:

        - s >= 0 at every feasible x; the learning loop raises a
          ``ValueError`` naming the agent and episode of a negative slope.
        - The coefficients broadcast over a (dimension, ...) stack of joint
          actions: at one x, c0 and s are scalars and g0, g1 scalars or
          arrays of shape (d_i,).
        - The game also gives ``noise_distribution(agent)``, whose
          ``sample(rng, size=T)`` is the stream of T single draws of
          ``sample_noise``.

        A game without such a description returns None, the default, and
        the learning loop replays its history.
        """
        return None


class AffineNoiseGame(StochasticGame):
    """A game whose costs are affine in one uniform noise draw per agent.

    A subclass describes agent i by ``affine_noise(agent, x)``, the
    coefficients (c0, s, g0, g1) of its cost c0 + s * xi and gradient
    g0 + g1 * xi at the joint action x, and by ``noise_distribution(agent)``,
    the uniform law U(a, b) of xi. Each agent has one action coordinate, so
    all four coefficients are scalars. Costs, gradients, their batches, the
    noise draw and the closed forms all follow from those two. For s >= 0
    the cost at x is uniform on [c0 + s a, c0 + s b], so

        VaR_alpha = c0 + s VaR_alpha(xi),   CVaR_alpha = c0 + s CVaR_alpha(xi),

    and, CVaR being positively homogeneous, the CVaR gradient is
    g0 + g1 CVaR_alpha(xi). ``affine_noise`` must index ``x[agent]`` as a
    scalar, so that it also broadcasts over a (dimension, ...) stack of
    joint actions.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # perfbench/tracing.py times these by patching them in each game's
        # own namespace (``vars(CournotGame)``), so every game holds them
        for name in ("cost_batch", "grad_batch", "sample_noise", "exact_var"):
            if name not in vars(cls):
                setattr(cls, name, getattr(cls, name))

    @abstractmethod
    def affine_noise(self, agent: int, x: np.ndarray): ...

    @abstractmethod
    def noise_distribution(self, agent: int) -> Uniform: ...

    def _nonnegative_slope(self, agent: int, x, quantity: str):
        coeffs = self.affine_noise(agent, x)
        if coeffs[1] < 0:
            raise ValueError(f"exact {quantity} requires a nonnegative noise slope, got {coeffs[1]}")
        return coeffs

    def sample_noise(self, agent: int, rng: np.random.Generator) -> np.ndarray:
        return self.noise_distribution(agent).sample(rng, size=1)

    def cost(self, agent: int, x, xi) -> float:
        c0, s, _, _ = self.affine_noise(agent, x)
        return c0 + float(np.asarray(xi).ravel()[0]) * s

    def grad(self, agent: int, x, xi) -> np.ndarray:
        _, _, g0, g1 = self.affine_noise(agent, x)
        return np.array([g0 + g1 * float(np.asarray(xi).ravel()[0])])

    def cost_batch(self, agent: int, x, xi_batch) -> np.ndarray:
        c0, s, _, _ = self.affine_noise(agent, x)
        return c0 + xi_batch[:, 0] * s

    def grad_batch(self, agent: int, x, xi_batch) -> np.ndarray:
        _, _, g0, g1 = self.affine_noise(agent, x)
        return (g0 + g1 * xi_batch[:, 0])[:, None]

    def exact_var(self, agent: int, x, alpha: float) -> float:
        c0, s, _, _ = self._nonnegative_slope(agent, x, "VaR")
        return c0 + s * self.noise_distribution(agent).var(alpha)

    def exact_cvar(self, agent: int, x, alpha: float) -> float:
        c0, s, _, _ = self._nonnegative_slope(agent, x, "CVaR")
        return c0 + s * self.noise_distribution(agent).cvar(alpha)

    def exact_risk_averse_gradient(self, agent: int, x, alpha: float) -> np.ndarray:
        _, _, g0, g1 = self._nonnegative_slope(agent, x, "CVaR gradient")
        return np.array([g0 + g1 * self.noise_distribution(agent).cvar(alpha)])


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
    feasible set and noise support.
    """

    name = "cournot"
    _BOX = Box(np.zeros(1), np.ones(1))
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

    def affine_noise(self, agent: int, x):
        own = x[agent]
        c0 = 1.0 - (2.0 - (x[0] + x[1])) * own + 0.2 * own
        return c0, own, 2.0 * own + x[1 - agent] - 1.8, 1.0

    def nash_equilibrium(self, alphas) -> np.ndarray:
        """Unique risk-averse equilibrium: solve 2 x_i + x_{-i} = 0.8 + alpha_i / 2.

        The solution is clipped to the box; it is interior for every
        alpha profile in (0, 1]^2.
        """
        alphas = [check_risk_level(a) for a in alphas]
        if len(alphas) != 2:
            raise ValueError("expected one risk level per agent")
        coeffs = np.array([[2.0, 1.0], [1.0, 2.0]])
        rhs = np.array([0.8 + 0.5 * alphas[0], 0.8 + 0.5 * alphas[1]])
        x = np.linalg.solve(coeffs, rhs)
        return np.clip(x, 0.0, 1.0)


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

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("a must be positive")
        if self.b <= 0:
            raise ValueError("b must be positive (actions live in [0, b])")
        if self.d <= 0:
            raise ValueError("d must be positive (noise lives on [0, d])")
        object.__setattr__(self, "_box", Box(np.zeros(1), np.array([self.b])))
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

    def affine_noise(self, agent: int, x):
        a = self.a
        own, other = x[agent], x[1 - agent]
        k = 4.0 * a / (3.0 * self.d)
        return (
            self.c + a * own * own + a * own * other - a * self.b * own,
            k * own * other,
            2.0 * a * own + a * other - a * self.b,
            k * other,
        )


def exact_gradient_oracle(game: StochasticGame, alphas):
    """Callable (agent, x) -> exact CVaR gradient for a fixed alpha profile.

    alpha = 1 for every agent gives the risk-neutral pseudo-gradient.
    """
    alphas = [check_risk_level(a) for a in alphas]
    if len(alphas) != game.num_agents:
        raise ValueError("expected one risk level per agent")

    def oracle(agent: int, x) -> np.ndarray:
        return game.exact_risk_averse_gradient(agent, x, alphas[agent])

    return oracle


def monotonicity_probe(
    grad_oracle,
    action_sets: tuple[Box, ...],
    num_pairs: int,
    rng: np.random.Generator,
    direction: np.ndarray | None = None,
    min_separation: float = 1e-6,
) -> float:
    """Sampled lower estimate of the game's monotonicity constant.

    Draws ``num_pairs`` random pairs (x, x') from the joint box and
    returns the minimum of

        sum_i <F_i(x) - F_i(x'), x_i - x_i'> / ||x - x'||^2,

    where F_i = grad_oracle(i, .). This is an upper bound on the true
    constant m (a certificate would need the full infimum). With
    ``direction`` set, x' is displaced from x along that fixed direction
    only, which probes degenerate directions. Pairs closer than
    ``min_separation`` are rejected; exhausting the rejection budget is
    an error.
    """
    if num_pairs < 1:
        raise ValueError("num_pairs must be >= 1")
    dims = [box.dim for box in action_sets]
    offsets = np.cumsum([0] + dims)
    dim = offsets[-1]
    lower = np.concatenate([box.lower for box in action_sets])
    upper = np.concatenate([box.upper for box in action_sets])
    if direction is not None:
        direction = np.asarray(direction, dtype=np.float64)
        if direction.shape != (dim,) or not np.linalg.norm(direction) > 0:
            raise ValueError("direction must be a nonzero joint-space vector")
        direction = direction / np.linalg.norm(direction)
    scale = float(np.max(upper - lower))

    def stacked(x):
        return np.concatenate(
            [
                np.asarray(grad_oracle(i, x), dtype=np.float64).ravel()
                for i in range(len(action_sets))
            ]
        )

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
        ratio = float(np.dot(stacked(x) - stacked(x_alt), diff)) / (dist * dist)
        best = min(best, ratio)
        found += 1
    return best


def decomposition_check(
    game: StochasticGame,
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
    for _ in range(num_samples):
        for agent in range(game.num_agents):
            x = np.concatenate([box.sample(rng) for box in game.action_sets])
            x_alt = np.concatenate([box.sample(rng) for box in game.action_sets])
            # keep the agent's own block fixed, vary only the rivals
            blk = game.block_slice(agent)
            x_alt[blk] = x[blk]
            xi = game.sample_noise(agent, rng)
            xi_alt = game.sample_noise(agent, rng)
            delta = (game.cost(agent, x, xi) - game.cost(agent, x, xi_alt)) - (
                game.cost(agent, x_alt, xi) - game.cost(agent, x_alt, xi_alt)
            )
            if abs(delta) > tol:
                return False
    return True
