import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskgames.distributions import Uniform, empirical_var_cvar
from riskgames.games import (
    Box,
    CournotGame,
    QuadraticCounterexampleGame,
    StochasticGame,
    UnsupportedGameError,
    decomposition_check,
    exact_gradient_oracle,
    monotonicity_probe,
)
from riskgames.learning import run_algorithm1

COURNOT = CournotGame()
COUNTER = QuadraticCounterexampleGame(a=1.0, b=1.0, c=0.0, d=1.0)


class MinimalGame(StochasticGame):
    """One-agent quadratic cost with unused noise; exercises interface defaults."""

    _BOX = Box(np.array([-1.0]), np.array([1.0]))

    @property
    def num_agents(self):
        return 1

    @property
    def action_sets(self):
        return (self._BOX,)

    @property
    def grad_bound(self):
        return 2.0

    def sample_noise(self, agent, rng):
        return rng.uniform(0.0, 1.0, size=1)

    def cost(self, agent, x, xi):
        return float(x[0] ** 2)

    def grad(self, agent, x, xi):
        return np.array([2.0 * x[0]])


class TestBox:
    def test_validation(self):
        with pytest.raises(ValueError):
            Box(np.array([0.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            Box(np.array([0.0, 1.0]), np.array([1.0]))

    def test_geometry(self):
        box = Box(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
        assert box.diameter == pytest.approx(np.sqrt(5.0))
        assert np.array_equal(box.center, [0.5, 0.0])
        assert np.array_equal(box.project([1.2, -3.0]), [1.0, -1.0])
        assert box.contains([0.5, 0.0]) and not box.contains([0.5, 2.0])

    def test_sample_inside(self):
        box = Box(np.array([2.0]), np.array([3.0]))
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert box.contains(box.sample(rng), tol=0.0)


class TestCournotEquilibrium:
    def test_paper_alpha_profile(self):
        x = COURNOT.nash_equilibrium([0.4, 0.8])
        assert x == pytest.approx([0.266667, 0.466667], abs=5e-5)

    def test_risk_neutral_profile(self):
        # 2 x_i + x_{-i} = 1.3 for both agents
        x = COURNOT.nash_equilibrium([1.0, 1.0])
        assert x == pytest.approx([1.3 / 3, 1.3 / 3], abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9, 1.0])
    def test_symmetric_profiles_give_equal_actions(self, alpha):
        x = COURNOT.nash_equilibrium([alpha, alpha])
        assert x[0] == pytest.approx(x[1], abs=1e-12)

    def test_stationarity_at_equilibrium(self):
        alphas = [0.4, 0.8]
        x = COURNOT.nash_equilibrium(alphas)
        for agent in (0, 1):
            g = COURNOT.exact_risk_averse_gradient(agent, x, alphas[agent])
            assert np.linalg.norm(g) < 1e-12

    @pytest.mark.parametrize("alphas", [(1.0, 1.0), (0.4, 0.8)])
    def test_brute_force_best_response_cross_check(self, alphas):
        # independent oracle: best-response iteration where each response
        # minimizes a Monte Carlo CVaR estimate over an action grid
        grid = np.linspace(0.0, 1.0, 101)
        rng = np.random.default_rng(99)
        draws = [rng.uniform(0.0, 1.0, size=(20_000, 1)) for _ in (0, 1)]

        def best_response(agent, other_action):
            values = []
            for candidate in grid:
                x = np.empty(2)
                x[agent] = candidate
                x[1 - agent] = other_action
                costs = COURNOT.cost_batch(agent, x, draws[agent])
                values.append(empirical_var_cvar(costs, alphas[agent])[1])
            return grid[int(np.argmin(values))]

        x = np.array([0.5, 0.5])
        for _ in range(25):
            x = np.array([best_response(0, x[1]), best_response(1, x[0])])
        expected = COURNOT.nash_equilibrium(alphas)
        assert x == pytest.approx(expected, abs=0.02)


class TestCostAndGradient:
    def test_zero_production_cost(self):
        # with x_own = 0 the whole cost collapses to the constant 1
        x = np.array([0.0, 0.5])
        for xi in (0.0, 0.3, 1.0):
            cost, grad = COURNOT.cost(0, x, np.array([xi])), COURNOT.grad(0, x, np.array([xi]))
            assert cost == 1.0
            assert grad[0] == pytest.approx(xi - 1.3)

    def test_gradient_vanishes_at_equilibrium_tail_point(self):
        # for the alpha = 0.8 agent the per-sample gradient at xi = 0.6
        # equals its exact CVaR gradient, which is zero at the equilibrium
        x = COURNOT.nash_equilibrium([0.4, 0.8])
        grad = COURNOT.grad(1, x, np.array([0.6]))
        assert abs(grad[0]) < 1e-12

    def test_counterexample_stationary_on_equilibrium_line(self):
        # (0.25, 0.25) lies on x_1 + x_2 = b/2; xi = 0.75 is the alpha = 0.5
        # tail mean of U(0, 1)
        grad = COUNTER.grad(0, np.array([0.25, 0.25]), np.array([0.75]))
        assert abs(grad[0]) < 1e-12
        assert np.linalg.norm(
            COUNTER.exact_risk_averse_gradient(0, np.array([0.25, 0.25]), 0.5)
        ) < 1e-12

    def test_infeasible_action_rejected(self):
        # the learning loop refuses to start outside the boxes
        assert not COURNOT.feasible(np.array([1.5, 0.5]))
        with pytest.raises(ValueError):
            run_algorithm1(COURNOT, (0.4, 0.8), 5, x0=np.array([1.5, 0.5]), seed=0)

    @pytest.mark.parametrize(
        "game,bound", [(COURNOT, 2.2), (COUNTER, 10.0 / 3.0)]
    )
    def test_gradient_bound_audit(self, game, bound):
        rng = np.random.default_rng(17)
        worst = 0.0
        lower = np.concatenate([b.lower for b in game.action_sets])
        upper = np.concatenate([b.upper for b in game.action_sets])
        for _ in range(100):
            x = rng.uniform(lower, upper, size=(1000, 2))
            for agent in (0, 1):
                xi = game.sample_noise(agent, rng)
                for row in x[:: 100]:
                    worst = max(worst, abs(game.grad(agent, row, xi)[0]))
        # vectorized sweep over 1e5 (x, xi) pairs
        xs = rng.uniform(lower, upper, size=(100_000, 2))
        for agent in (0, 1):
            xis = rng.uniform(0.0, 1.0, size=(100_000, 1))
            if isinstance(game, QuadraticCounterexampleGame):
                xis *= game.d
            grads = np.array(
                [game.grad(agent, xs[j], xis[j])[0] for j in range(0, 100_000, 37)]
            )
            worst = max(worst, float(np.max(np.abs(grads))))
        assert worst <= bound + 1e-9
        assert game.grad_bound == pytest.approx(bound)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        xi_batch = rng.uniform(0, 1, size=(50, 1))
        for game in (COURNOT, COUNTER):
            x = np.array([0.3, 0.6]) * game.action_sets[0].upper[0]
            for agent in (0, 1):
                costs = game.cost_batch(agent, x, xi_batch)
                grads = game.grad_batch(agent, x, xi_batch)
                for k in range(50):
                    assert costs[k] == pytest.approx(game.cost(agent, x, xi_batch[k]))
                    assert grads[k, 0] == pytest.approx(game.grad(agent, x, xi_batch[k])[0])

    def test_affine_noise_reproduces_batches(self):
        # bit-exact, since the learning loop reads the VaR off these coefficients
        xi_batch = np.random.default_rng(4).uniform(0, 1, size=(50, 1))
        for game in (COURNOT, COUNTER, QuadraticCounterexampleGame(a=2.0, b=1.5, c=-0.5, d=0.7)):
            upper = game.action_sets[0].upper[0]
            for x in (np.array([0.3, 0.6]) * upper, np.array([0.0, upper])):
                for agent in (0, 1):
                    c0, s, g0, g1 = game.affine_noise(agent, x)
                    assert s >= 0
                    noise = xi_batch[:, 0]
                    assert np.array_equal(c0 + noise * s, game.cost_batch(agent, x, xi_batch))
                    assert np.array_equal(g0 + g1 * noise, game.grad_batch(agent, x, xi_batch)[:, 0])

    def test_default_batch_fallback(self):
        game = MinimalGame()
        xi = np.zeros((4, 1))
        x = np.array([0.5])
        assert np.allclose(game.cost_batch(0, x, xi), 0.25)
        assert game.grad_batch(0, x, xi).shape == (4, 1)


class TestClosedFormsAgainstMonteCarlo:
    def test_cournot_exact_var_cvar(self):
        rng = np.random.default_rng(21)
        x = np.array([0.3, 0.6])
        for agent, alpha in ((0, 0.4), (1, 0.8)):
            costs = COURNOT.cost_batch(agent, x, rng.uniform(0, 1, size=(1_000_000, 1)))
            var, cvar = empirical_var_cvar(costs, alpha)
            assert var == pytest.approx(COURNOT.exact_var(agent, x, alpha), abs=2e-3)
            assert cvar == pytest.approx(COURNOT.exact_cvar(agent, x, alpha), abs=2e-3)

    def test_cournot_gradient_matches_tail_average(self):
        # grad CVaR = E[ 1{J >= true VaR} grad J ] / alpha within 1% at 1e6 draws
        rng = np.random.default_rng(11)
        for x in (np.array([0.3, 0.6]), np.array([0.7, 0.2])):
            for agent, alpha in ((0, 0.4), (1, 0.8)):
                xi = rng.uniform(0, 1, size=(1_000_000, 1))
                costs = COURNOT.cost_batch(agent, x, xi)
                grads = COURNOT.grad_batch(agent, x, xi)[:, 0]
                nu = COURNOT.exact_var(agent, x, alpha)
                mc = float(np.mean(grads * (costs >= nu))) / alpha
                exact = COURNOT.exact_risk_averse_gradient(agent, x, alpha)[0]
                assert mc == pytest.approx(exact, rel=0.01)

    def test_counterexample_cvar_value(self):
        # at (0.3, 0.3) with a=1, b=1, c=0, d=1 the alpha = 0.5 CVaR is
        # 0.09 + 2 * 0.09 - 0.3 = -0.03
        rng = np.random.default_rng(5)
        costs = COUNTER.cost_batch(0, np.array([0.3, 0.3]), rng.uniform(0, 1, size=(1_000_000, 1)))
        _, cvar = empirical_var_cvar(costs, 0.5)
        assert cvar == pytest.approx(-0.03, rel=0.01)
        assert COUNTER.exact_cvar(0, np.array([0.3, 0.3]), 0.5) == pytest.approx(-0.03)

    def test_counterexample_risk_neutral_gradient(self):
        # alpha = 1 reduces to the expected-cost gradient 2a x_i + (5a/3) x_j - ab
        x = np.array([0.4, 0.7])
        g = COUNTER.exact_risk_averse_gradient(0, x, 1.0)[0]
        assert g == pytest.approx(2 * 0.4 + (5 / 3) * 0.7 - 1.0)


class TestDerivedClosedForms:
    """The closed forms derived from ``affine_noise`` against the docstring formulas."""

    @settings(max_examples=200, deadline=None)
    @given(
        u=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        alpha=st.floats(0.0, 1.0, exclude_min=True),
        agent=st.sampled_from([0, 1]),
        params=st.tuples(
            st.floats(0.5, 2.0), st.floats(0.5, 2.0), st.floats(-1.0, 1.0), st.floats(0.5, 2.0)
        ),
    )
    def test_docstring_formulas(self, u, alpha, agent, params):
        x = np.array(u)
        own, other = x[agent], x[1 - agent]
        c0 = 1.0 - (2.0 - own - other) * own + 0.2 * own
        assert COURNOT.exact_var(agent, x, alpha) == pytest.approx(c0 + own * (1 - alpha), abs=1e-12)
        assert COURNOT.exact_cvar(agent, x, alpha) == pytest.approx(
            c0 + own * (1 - alpha / 2), abs=1e-12
        )
        assert COURNOT.exact_risk_averse_gradient(agent, x, alpha)[0] == pytest.approx(
            2 * own + other - 0.8 - alpha / 2, abs=1e-12
        )

        a, b, c, d = params
        game = QuadraticCounterexampleGame(a=a, b=b, c=c, d=d)
        x = x * b
        own, other = x[agent], x[1 - agent]
        expected = 2 * a * own + a * other - a * b + (4 * a / 3) * (1 - alpha / 2) * other
        assert game.exact_risk_averse_gradient(agent, x, alpha)[0] == pytest.approx(expected, abs=1e-12)


class TestStructuralProbes:
    def test_monotonicity_cournot(self):
        oracle = exact_gradient_oracle(COURNOT, [0.4, 0.8])
        m_hat = monotonicity_probe(
            oracle, COURNOT.action_sets, 10_000, np.random.default_rng(1)
        )
        assert 0.95 <= m_hat <= 1.05

    def test_monotonicity_counterexample_degenerate_direction(self):
        oracle = exact_gradient_oracle(COUNTER, [0.5, 0.5])
        ratio = monotonicity_probe(
            oracle,
            COUNTER.action_sets,
            2000,
            np.random.default_rng(2),
            direction=np.array([1.0, -1.0]),
        )
        assert abs(ratio) < 1e-6

    def test_monotonicity_counterexample_risk_neutral(self):
        # the risk-neutral pseudo-gradient Jacobian [[2a, 5a/3], [5a/3, 2a]]
        # has minimum symmetric eigenvalue a/3
        oracle = exact_gradient_oracle(COUNTER, [1.0, 1.0])
        m_hat = monotonicity_probe(
            oracle, COUNTER.action_sets, 10_000, np.random.default_rng(3)
        )
        assert m_hat > 0
        assert m_hat == pytest.approx(1.0 / 3.0, abs=0.05)

    def test_probe_rejects_degenerate_pairs(self):
        oracle = exact_gradient_oracle(COURNOT, [1.0, 1.0])
        with pytest.raises(RuntimeError):
            monotonicity_probe(
                oracle,
                COURNOT.action_sets,
                1,
                np.random.default_rng(4),
                min_separation=1e9,
            )

    def test_probe_validates_inputs(self):
        oracle = exact_gradient_oracle(COURNOT, [1.0, 1.0])
        with pytest.raises(ValueError):
            monotonicity_probe(oracle, COURNOT.action_sets, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            monotonicity_probe(
                oracle,
                COURNOT.action_sets,
                10,
                np.random.default_rng(0),
                direction=np.zeros(2),
            )

    def test_decomposition_check(self):
        rng = np.random.default_rng(8)
        assert decomposition_check(COURNOT, 200, rng) is True
        assert decomposition_check(COUNTER, 200, rng) is False
        assert decomposition_check(MinimalGame(), 50, rng) is True


class TestInterfaceDefaults:
    def test_unsupported_closed_forms(self):
        game = MinimalGame()
        with pytest.raises(UnsupportedGameError):
            game.exact_var(0, np.array([0.0]), 0.5)
        with pytest.raises(UnsupportedGameError):
            game.exact_risk_averse_gradient(0, np.array([0.0]), 0.5)
        with pytest.raises(UnsupportedGameError):
            game.noise_distribution(0)
        assert game.nash_equilibrium([0.5]) is None
        assert game.affine_noise(0, np.array([0.0])) is None

    def test_noise_distributions(self):
        assert COURNOT.noise_distribution(0) == Uniform(0.0, 1.0)
        assert QuadraticCounterexampleGame(d=2.5).noise_distribution(1) == Uniform(0.0, 2.5)

    def test_block_layout(self):
        assert COURNOT.dimension == 2
        assert COURNOT.block_slice(0) == slice(0, 1)
        assert COURNOT.block_slice(1) == slice(1, 2)
        assert COURNOT.feasible(np.array([0.0, 1.0]))
        assert not COURNOT.feasible(np.array([0.0, 1.2]))

    def test_counterexample_parameter_validation(self):
        with pytest.raises(ValueError):
            QuadraticCounterexampleGame(a=-1.0)
        with pytest.raises(ValueError):
            QuadraticCounterexampleGame(d=0.0)
        with pytest.raises(ValueError):
            QuadraticCounterexampleGame(b=-2.0)
