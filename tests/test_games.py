import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskgames.distributions import Uniform
from riskgames.games import Box, CournotGame, QuadraticCounterexampleGame
from riskgames.learning import run_algorithm1

from oracle import (
    decomposition_check,
    empirical_var_cvar,
    exact_cvar,
    exact_risk_averse_gradient,
    monotonicity_probe,
)

COURNOT = CournotGame()
COUNTER = QuadraticCounterexampleGame(a=1.0, b=1.0, c=0.0, d=1.0)


class TestBox:
    def test_validation(self):
        for lower, upper in ((0.0, 0.0), (1.0, 0.0), (0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0)):
            with pytest.raises(ValueError, match="finite with lower < upper"):
                Box(lower, upper)

    def test_geometry(self):
        box = Box(-1, 1)
        assert (box.lower, box.upper) == (-1.0, 1.0) and isinstance(box.lower, float)
        assert np.array_equal(box.project([1.2, -3.0, 0.5]), [1.0, -1.0, 0.5])
        lower, upper = QuadraticCounterexampleGame(b=2.5).bounds
        assert np.array_equal(lower, [0.0, 0.0]) and np.array_equal(upper, [2.5, 2.5])

    def test_sample_inside(self):
        # draws from the joint box are feasible without slack
        rng = np.random.default_rng(0)
        for game in (COURNOT, QuadraticCounterexampleGame(b=2.5)):
            for _ in range(100):
                assert game.feasible(rng.uniform(*game.bounds), tol=0.0)


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
            g = exact_risk_averse_gradient(COURNOT, agent, x, alphas[agent])
            assert np.linalg.norm(g) < 1e-12

    @example(alphas=(0.4, 0.8))
    @example(alphas=(1.0, 1.0))
    @example(alphas=(1e-9, 1.0))
    @given(alphas=st.tuples(*[st.floats(min_value=0.0, max_value=1.0, exclude_min=True)] * 2))
    def test_equals_lapack_solve_bit_for_bit(self, alphas):
        # the hand elimination keeps gesv's pivot order, so x* and every
        # err_sq computed from it keep their bits
        rhs = np.array([0.8 + 0.5 * alphas[0], 0.8 + 0.5 * alphas[1]])
        expected = np.clip(np.linalg.solve(np.array([[2.0, 1.0], [1.0, 2.0]]), rhs), 0.0, 1.0)
        assert np.array_equal(COURNOT.nash_equilibrium(alphas), expected)

    @pytest.mark.parametrize("alphas", [(1.0, 1.0), (0.4, 0.8)])
    def test_brute_force_best_response_cross_check(self, alphas):
        # independent oracle: best-response iteration where each response
        # minimizes a Monte Carlo CVaR estimate over an action grid
        grid = np.linspace(0.0, 1.0, 101)
        rng = np.random.default_rng(99)
        draws = [rng.uniform(0.0, 1.0, size=20_000) for _ in (0, 1)]

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
        xi = np.array([0.0, 0.3, 1.0])
        assert np.all(COURNOT.cost_batch(0, x, xi) == 1.0)
        assert COURNOT.grad_batch(0, x, xi) == pytest.approx(xi - 1.3)

    def test_gradient_vanishes_at_equilibrium_tail_point(self):
        # for the alpha = 0.8 agent the per-sample gradient at xi = 0.6
        # equals its exact CVaR gradient, which is zero at the equilibrium
        x = COURNOT.nash_equilibrium([0.4, 0.8])
        grad = COURNOT.grad_batch(1, x, np.array([0.6]))[0]
        assert abs(grad) < 1e-12

    def test_counterexample_stationary_on_equilibrium_line(self):
        # (0.25, 0.25) lies on x_1 + x_2 = b/2; xi = 0.75 is the alpha = 0.5
        # tail mean of U(0, 1)
        grad = COUNTER.grad_batch(0, np.array([0.25, 0.25]), np.array([0.75]))[0]
        assert abs(grad) < 1e-12
        assert np.linalg.norm(
            exact_risk_averse_gradient(COUNTER, 0, np.array([0.25, 0.25]), 0.5)
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
        lower, upper = game.bounds
        for _ in range(100):
            x = rng.uniform(lower, upper, size=(1000, 2))
            for agent in (0, 1):
                xi = game.sample_noise(agent, rng)
                for row in x[:: 100]:
                    worst = max(worst, abs(game.grad_batch(agent, row, np.array([xi]))[0]))
        # vectorized sweep over 1e5 (x, xi) pairs
        xs = rng.uniform(lower, upper, size=(100_000, 2))
        for agent in (0, 1):
            xis = rng.uniform(0.0, 1.0, size=100_000)
            if isinstance(game, QuadraticCounterexampleGame):
                xis *= game.d
            grads = np.array(
                [game.grad_batch(agent, xs[j], xis[j : j + 1])[0] for j in range(0, 100_000, 37)]
            )
            worst = max(worst, float(np.max(np.abs(grads))))
        assert worst <= bound + 1e-9
        assert game.grad_bound == pytest.approx(bound)

    def test_lines_reproduce_batches(self):
        # bit-exact, since the learning loop steps along the gradient line and
        # reads the VaR off the cost line
        xi_batch = np.random.default_rng(4).uniform(0, 1, size=50)
        for game in (COURNOT, COUNTER, QuadraticCounterexampleGame(a=2.0, b=1.5, c=-0.5, d=0.7)):
            upper = game.action_sets[0].upper
            for x in (np.array([0.3, 0.6]) * upper, np.array([0.0, upper])):
                for agent in (0, 1):
                    (c0, s), (g0, g1) = game.cost_line(agent, x), game.gradient_line(agent, x)
                    assert s >= 0
                    assert np.array_equal(c0 + xi_batch * s, game.cost_batch(agent, x, xi_batch))
                    assert np.array_equal(g0 + g1 * xi_batch, game.grad_batch(agent, x, xi_batch))


class TestClosedFormsAgainstMonteCarlo:
    def test_cournot_exact_var_cvar(self):
        rng = np.random.default_rng(21)
        x = np.array([0.3, 0.6])
        for agent, alpha in ((0, 0.4), (1, 0.8)):
            costs = COURNOT.cost_batch(agent, x, rng.uniform(0, 1, size=1_000_000))
            var, cvar = empirical_var_cvar(costs, alpha)
            assert var == pytest.approx(COURNOT.exact_var(agent, x, alpha), abs=2e-3)
            assert cvar == pytest.approx(exact_cvar(COURNOT, agent, x, alpha), abs=2e-3)

    def test_cournot_gradient_matches_tail_average(self):
        # grad CVaR = E[ 1{J >= true VaR} grad J ] / alpha within 1% at 1e6 draws
        rng = np.random.default_rng(11)
        for x in (np.array([0.3, 0.6]), np.array([0.7, 0.2])):
            for agent, alpha in ((0, 0.4), (1, 0.8)):
                xi = rng.uniform(0, 1, size=1_000_000)
                costs = COURNOT.cost_batch(agent, x, xi)
                grads = COURNOT.grad_batch(agent, x, xi)
                nu = COURNOT.exact_var(agent, x, alpha)
                mc = float(np.mean(grads * (costs >= nu))) / alpha
                exact = exact_risk_averse_gradient(COURNOT, agent, x, alpha)
                assert mc == pytest.approx(exact, rel=0.01)

    def test_counterexample_cvar_value(self):
        # at (0.3, 0.3) with a=1, b=1, c=0, d=1 the alpha = 0.5 CVaR is
        # 0.09 + 2 * 0.09 - 0.3 = -0.03
        rng = np.random.default_rng(5)
        costs = COUNTER.cost_batch(0, np.array([0.3, 0.3]), rng.uniform(0, 1, size=1_000_000))
        _, cvar = empirical_var_cvar(costs, 0.5)
        assert cvar == pytest.approx(-0.03, rel=0.01)
        assert exact_cvar(COUNTER, 0, np.array([0.3, 0.3]), 0.5) == pytest.approx(-0.03)

    def test_counterexample_risk_neutral_gradient(self):
        # alpha = 1 reduces to the expected-cost gradient 2a x_i + (5a/3) x_j - ab
        x = np.array([0.4, 0.7])
        g = exact_risk_averse_gradient(COUNTER, 0, x, 1.0)
        assert g == pytest.approx(2 * 0.4 + (5 / 3) * 0.7 - 1.0)


class TestDerivedClosedForms:
    """The closed forms derived from the cost and gradient lines against the docstring formulas."""

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
        assert exact_cvar(COURNOT, agent, x, alpha) == pytest.approx(
            c0 + own * (1 - alpha / 2), abs=1e-12
        )
        assert exact_risk_averse_gradient(COURNOT, agent, x, alpha) == pytest.approx(
            2 * own + other - 0.8 - alpha / 2, abs=1e-12
        )

        a, b, c, d = params
        game = QuadraticCounterexampleGame(a=a, b=b, c=c, d=d)
        x = x * b
        own, other = x[agent], x[1 - agent]
        expected = 2 * a * own + a * other - a * b + (4 * a / 3) * (1 - alpha / 2) * other
        assert exact_risk_averse_gradient(game, agent, x, alpha) == pytest.approx(expected, abs=1e-12)


class TestStructuralProbes:
    def test_monotonicity_cournot(self):
        m_hat = monotonicity_probe(
            COURNOT, [0.4, 0.8], 10_000, np.random.default_rng(1)
        )
        assert 0.95 <= m_hat <= 1.05

    def test_monotonicity_counterexample_degenerate_direction(self):
        ratio = monotonicity_probe(
            COUNTER,
            [0.5, 0.5],
            2000,
            np.random.default_rng(2),
            direction=np.array([1.0, -1.0]),
        )
        assert abs(ratio) < 1e-6

    def test_monotonicity_counterexample_risk_neutral(self):
        # the risk-neutral pseudo-gradient Jacobian [[2a, 5a/3], [5a/3, 2a]]
        # has minimum symmetric eigenvalue a/3
        m_hat = monotonicity_probe(
            COUNTER, [1.0, 1.0], 10_000, np.random.default_rng(3)
        )
        assert m_hat > 0
        assert m_hat == pytest.approx(1.0 / 3.0, abs=0.05)

    def test_probe_rejects_degenerate_pairs(self):
        with pytest.raises(RuntimeError):
            monotonicity_probe(
                COURNOT,
                [1.0, 1.0],
                1,
                np.random.default_rng(4),
                min_separation=1e9,
            )

    def test_probe_validates_inputs(self):
        with pytest.raises(ValueError):
            monotonicity_probe(COURNOT, [1.0, 1.0], 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            monotonicity_probe(
                COURNOT,
                [1.0, 1.0],
                10,
                np.random.default_rng(0),
                direction=np.zeros(2),
            )

    def test_decomposition_check(self):
        rng = np.random.default_rng(8)
        assert decomposition_check(COURNOT, 200, rng) is True
        assert decomposition_check(COUNTER, 200, rng) is False


class TestInterfaceDefaults:
    def test_noise_distributions(self):
        assert COURNOT.noise_distribution(0) == Uniform(0.0, 1.0)
        assert QuadraticCounterexampleGame(d=2.5).noise_distribution(1) == Uniform(0.0, 2.5)

    def test_action_layout(self):
        # one float per agent: the joint action has shape (num_agents,)
        assert [b.shape for b in COURNOT.bounds] == [(2,), (2,)]
        assert COURNOT.feasible(np.array([0.0, 1.0]))
        assert not COURNOT.feasible(np.array([0.0, 1.2]))
        assert not COURNOT.feasible(np.array([0.5]))
        assert not COURNOT.feasible(np.array([[0.5], [0.5]]))
        assert isinstance(exact_risk_averse_gradient(COURNOT, 0, np.array([0.3, 0.6]), 0.4), float)

    def test_counterexample_parameter_validation(self):
        with pytest.raises(ValueError):
            QuadraticCounterexampleGame(a=-1.0)
        with pytest.raises(ValueError):
            QuadraticCounterexampleGame(d=0.0)
        with pytest.raises(ValueError):
            QuadraticCounterexampleGame(b=-2.0)
        for field, value in (("a", np.inf), ("b", np.inf), ("c", np.nan), ("c", -np.inf), ("d", np.inf)):
            with pytest.raises(ValueError, match=f"^{field}: must be .*finite"):
                QuadraticCounterexampleGame(**{field: value})
        # finite, but a run or its bound checks would overflow or underflow:
        # the gradient bound, the noise slope, the costs or 1/d squared
        for params, field in (
            ({"a": 1e200, "b": 1e200}, "a"),
            ({"a": 1e-300, "b": 1e-300}, "a"),
            ({"b": 1e155}, "b"),
            ({"d": 1e-300}, "d"),
            ({"d": 1e300}, "d"),
            ({"b": 1e-160}, "b"),
            ({"c": -1e300}, "c"),
        ):
            with pytest.raises(ValueError, match=f"^{field}: must be .*finite, .*, got "):
                QuadraticCounterexampleGame(**params)
