import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskgames.distributions import Uniform, _tail_start
from riskgames.games import (
    Box,
    CournotGame,
    QuadraticCounterexampleGame,
    StochasticGame,
    UnsupportedGameError,
)
from riskgames.learning import (
    _rank_tails,
    _run,
    _replay_gradient,
    cvar_gradient_estimate,
    run_algorithm1,
    run_unbiased_baseline,
    unbiased_cvar_gradient,
)

GAME = CournotGame()
ALPHAS = (0.4, 0.8)
NE = GAME.nash_equilibrium(ALPHAS)


class NoClosedFormGame(StochasticGame):
    """Cournot costs without any closed-form helpers."""

    _BOX = Box(np.zeros(1), np.ones(1))

    @property
    def num_agents(self):
        return 2

    @property
    def action_sets(self):
        return (self._BOX, self._BOX)

    @property
    def grad_bound(self):
        return 2.2

    def sample_noise(self, agent, rng):
        return rng.uniform(0.0, 1.0, size=1)

    def cost(self, agent, x, xi):
        return GAME.cost(agent, x, xi)

    def grad(self, agent, x, xi):
        return GAME.grad(agent, x, xi)


class NegativeSlopeGame(NoClosedFormGame):
    """Costs x_i * (1 - xi): affine in the noise with slope -x_i < 0."""

    def noise_distribution(self, agent):
        return Uniform(0.0, 1.0)

    def cost(self, agent, x, xi):
        return x[agent] * (1.0 - xi[0])

    def grad(self, agent, x, xi):
        return np.array([1.0 - xi[0]])

    def affine_noise(self, agent, x):
        return x[agent], -x[agent], 1.0, -1.0


class LateNegativeSlopeGame(NegativeSlopeGame):
    """Agent 1's slope x_1 - 0.45 is positive at the centre; every gradient is
    at least 1, so the first step takes x_1 below 0.45."""

    def affine_noise(self, agent, x):
        return x[agent], x[agent] - 0.45 * agent, 1.0, 1.0


class ReplayGame(StochasticGame):
    """A game with its affine-noise description hidden: forces the replay.

    Every other method forwards to the wrapped game, whose own batches
    and closed forms derive from that description.
    """

    def __init__(self, game):
        self.game = game
        self.name = game.name

    @property
    def num_agents(self):
        return self.game.num_agents

    @property
    def action_sets(self):
        return self.game.action_sets

    @property
    def grad_bound(self):
        return self.game.grad_bound

    def sample_noise(self, agent, rng):
        return self.game.sample_noise(agent, rng)

    def cost(self, agent, x, xi):
        return self.game.cost(agent, x, xi)

    def grad(self, agent, x, xi):
        return self.game.grad(agent, x, xi)

    def cost_batch(self, agent, x, xi_batch):
        return self.game.cost_batch(agent, x, xi_batch)

    def grad_batch(self, agent, x, xi_batch):
        return self.game.grad_batch(agent, x, xi_batch)

    def noise_distribution(self, agent):
        return self.game.noise_distribution(agent)

    def exact_var(self, agent, x, alpha):
        return self.game.exact_var(agent, x, alpha)

    def exact_cvar(self, agent, x, alpha):
        return self.game.exact_cvar(agent, x, alpha)

    def exact_risk_averse_gradient(self, agent, x, alpha):
        return self.game.exact_risk_averse_gradient(agent, x, alpha)

    def nash_equilibrium(self, alphas):
        return self.game.nash_equilibrium(alphas)


class ReplayCournotGame(ReplayGame):
    def __init__(self):
        super().__init__(CournotGame())


class ReplayCounterexampleGame(ReplayGame):
    def __init__(self, *params):
        super().__init__(QuadraticCounterexampleGame(*params))


class TestProjectBox:
    def test_examples(self):
        box = Box(np.zeros(1), np.ones(1))
        assert box.project(np.array([0.5]))[0] == 0.5
        assert box.project(np.array([-0.3]))[0] == 0.0
        box2 = Box(np.zeros(2), np.ones(2))
        assert np.array_equal(box2.project(np.array([1.2, -0.1])), [1.0, 0.0])


class TestStepSchedule:
    def test_auto_resolves_to_horizon_rule(self):
        # the default step is (D / B) / sqrt(T): D = 1 and B = 2.2 on Cournot
        for run in (run_algorithm1, run_unbiased_baseline):
            auto = run(GAME, ALPHAS, 300, seed=1)
            explicit = run(GAME, ALPHAS, 300, eta=(1.0 / 2.2) / np.sqrt(300), seed=1)
            assert np.array_equal(auto.actions, explicit.actions)
            assert np.array_equal(auto.nu, explicit.nu)

    def test_constant(self):
        # an explicit step does not depend on the horizon, so a shorter run is a prefix
        short = run_algorithm1(GAME, ALPHAS, 10, eta=0.01, seed=2)
        long = run_algorithm1(GAME, ALPHAS, 20, eta=0.01, seed=2)
        assert np.array_equal(short.actions, long.actions[:10])
        assert not np.array_equal(
            run_algorithm1(GAME, ALPHAS, 10, seed=2).actions,
            run_algorithm1(GAME, ALPHAS, 20, seed=2).actions[:10],
        )

    def test_negative_rejected(self):
        for run in (run_algorithm1, run_unbiased_baseline):
            with pytest.raises(ValueError, match="step size must be nonnegative"):
                run(GAME, ALPHAS, 10, eta=-1.0)


class TestCvarGradientEstimate:
    def test_single_sample(self):
        xi = np.array([[0.7]])
        x = np.array([0.4, 0.4])
        est = cvar_gradient_estimate(GAME, 0, x, xi, 0.4)
        cost = GAME.cost(0, x, xi[0])
        grad = GAME.grad(0, x, xi[0])
        assert est.var_used == cost
        assert est.tail_count == 1
        assert est.g == pytest.approx(grad / 0.4)

    def test_alpha_one_is_plain_average(self):
        rng = np.random.default_rng(2)
        xi = rng.uniform(0, 1, size=(500, 1))
        x = np.array([0.3, 0.7])
        est = cvar_gradient_estimate(GAME, 1, x, xi, 1.0)
        assert est.tail_count == 500
        assert est.g == pytest.approx(GAME.grad_batch(1, x, xi).mean(axis=0))

    def test_empty_history_rejected(self):
        empty = np.empty((0, 1))
        with pytest.raises(ValueError):
            cvar_gradient_estimate(GAME, 0, NE, empty, 0.4)
        with pytest.raises(ValueError):
            unbiased_cvar_gradient(GAME, 0, NE, empty, 0.4)

    def test_tail_size_without_ties(self):
        rng = np.random.default_rng(3)
        xi = rng.uniform(0, 1, size=(1000, 1))
        x = np.array([0.5, 0.5])
        for alpha in (0.25, 0.4, 0.8):
            est = cvar_gradient_estimate(GAME, 0, x, xi, alpha)
            k = int(np.ceil(1000 * (1 - alpha) - 1e-9))
            assert est.tail_count == 1000 - k + 1

    def test_norm_bound(self):
        # every estimate satisfies ||g|| <= B / alpha
        rng = np.random.default_rng(4)
        for _ in range(50):
            t = int(rng.integers(1, 400))
            xi = rng.uniform(0, 1, size=(t, 1))
            x = rng.uniform(0, 1, size=2)
            alpha = float(rng.uniform(0.05, 1.0))
            est = cvar_gradient_estimate(GAME, 0, x, xi, alpha)
            assert np.linalg.norm(est.g) <= GAME.grad_bound / alpha + 1e-12

    def test_near_zero_at_equilibrium(self):
        rng = np.random.default_rng(12)
        xi = rng.uniform(0, 1, size=(100_000, 1))
        for agent in (0, 1):
            est = cvar_gradient_estimate(GAME, agent, NE, xi, ALPHAS[agent])
            assert abs(est.g[0]) < 0.02

    def test_conditional_unbiasedness(self):
        # with x and nu frozen, the estimator's expectation is the hand
        # integral ((1-q) G + (1-q^2)/2) / alpha, where q is the noise
        # quantile hit by nu and G the deterministic gradient part
        rng = np.random.default_rng(31)
        for agent, alpha, q in ((0, 0.4, 0.2), (1, 0.8, 0.5)):
            base = GAME.cost(agent, NE, np.array([0.0]))
            nu = base + q * NE[agent]
            g_det = 2 * NE[agent] + NE[1 - agent] - 1.8
            expected = ((1 - q) * g_det + (1 - q * q) / 2) / alpha
            xi = rng.uniform(0, 1, size=(1_000_000, 1))
            est = unbiased_cvar_gradient(GAME, agent, NE, xi, alpha, exact_var=nu)
            assert est.g[0] == pytest.approx(expected, rel=0.01)

    def test_unbiased_mean_matches_exact_gradient(self):
        rng = np.random.default_rng(11)
        for x in (np.array([0.3, 0.6]), np.array([0.7, 0.2])):
            for agent in (0, 1):
                xi = rng.uniform(0, 1, size=(1_000_000, 1))
                est = unbiased_cvar_gradient(GAME, agent, x, xi, ALPHAS[agent])
                exact = GAME.exact_risk_averse_gradient(agent, x, ALPHAS[agent])[0]
                assert est.g[0] == pytest.approx(exact, rel=0.005)

    def test_unbiased_requires_closed_form(self):
        xi = np.array([[0.5]])
        with pytest.raises(UnsupportedGameError):
            unbiased_cvar_gradient(NoClosedFormGame(), 0, np.array([0.4, 0.4]), xi, 0.4)

    def test_alpha_one_estimators_coincide(self):
        rng = np.random.default_rng(5)
        xi = rng.uniform(0, 1, size=(200, 1))
        x = np.array([0.6, 0.3])
        a = cvar_gradient_estimate(GAME, 0, x, xi, 1.0)
        b = unbiased_cvar_gradient(GAME, 0, x, xi, 1.0)
        assert a.g[0] == b.g[0]
        assert a.tail_count == b.tail_count == 200


class TestRunLoop:
    def test_minimal_run(self):
        trace = run_algorithm1(GAME, ALPHAS, 1, x0=np.array([0.5, 0.5]), seed=0)
        assert trace.horizon == 1
        assert np.array_equal(trace.actions[0], [0.5, 0.5])
        assert trace.err_sq is not None and trace.nu_star is not None

    def test_zero_step_freezes_iterates(self):
        trace = run_algorithm1(GAME, ALPHAS, 50, eta=0.0, seed=1)
        assert np.all(trace.actions == trace.actions[0])

    def test_iterates_stay_feasible_under_large_steps(self):
        trace = run_algorithm1(GAME, ALPHAS, 200, eta=5.0, seed=2)
        assert np.all(trace.actions >= 0.0) and np.all(trace.actions <= 1.0)

    def test_default_start_is_box_center(self):
        trace = run_algorithm1(GAME, ALPHAS, 1, seed=3)
        assert np.array_equal(trace.actions[0], [0.5, 0.5])

    def test_bit_identical_reruns(self):
        a = run_algorithm1(GAME, ALPHAS, 120, seed=7)
        b = run_algorithm1(GAME, ALPHAS, 120, seed=7)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.nu, b.nu)
        assert np.array_equal(a.err_sq, b.err_sq)

    def test_seeds_matter(self):
        a = run_algorithm1(GAME, ALPHAS, 60, seed=7)
        b = run_algorithm1(GAME, ALPHAS, 60, seed=8)
        assert not np.array_equal(a.actions, b.actions)

    def test_risk_neutral_baseline_coincides(self):
        # at alpha = 1 both estimators average the full history, so the
        # two loops produce bit-identical trajectories under equal seeds
        a = run_algorithm1(GAME, (1.0, 1.0), 3, seed=9)
        b = run_unbiased_baseline(GAME, (1.0, 1.0), 3, seed=9)
        assert np.array_equal(a.actions, b.actions)

    def test_baseline_uses_true_var(self):
        trace = run_unbiased_baseline(GAME, ALPHAS, 40, seed=10)
        assert np.array_equal(trace.nu, trace.nu_star)

    def test_baseline_needs_closed_form(self):
        with pytest.raises(UnsupportedGameError):
            run_unbiased_baseline(NoClosedFormGame(), ALPHAS, 5, seed=0)

    def test_window_covering_horizon_changes_nothing(self):
        a = run_algorithm1(GAME, ALPHAS, 80, seed=11)
        b = run_algorithm1(GAME, ALPHAS, 80, seed=11, window=80)
        assert np.array_equal(a.actions, b.actions)
        assert np.array_equal(a.nu, b.nu)

    def test_window_truncates_history(self):
        a = run_algorithm1(GAME, ALPHAS, 80, seed=11)
        b = run_algorithm1(GAME, ALPHAS, 80, seed=11, window=1)
        assert not np.array_equal(a.nu, b.nu)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            run_algorithm1(GAME, ALPHAS, 0, seed=0)
        with pytest.raises(ValueError):
            run_algorithm1(GAME, ALPHAS, 5, seed=0, window=0)
        with pytest.raises(ValueError):
            run_algorithm1(GAME, ALPHAS, 5, x0=np.array([2.0, 0.5]), seed=0)
        with pytest.raises(ValueError):
            run_algorithm1(GAME, (0.4,), 5, seed=0)

    @pytest.mark.parametrize("x0,start", [([-1e-10, 0.5], [0.0, 0.5]), ([0.5, -1e-10], [0.5, 0.0])])
    def test_start_within_tolerance_is_projected(self, x0, start):
        # feasible() accepts x0 up to 1e-9 outside the box; the run starts on it
        for run in (run_algorithm1, run_unbiased_baseline):
            trace = run(GAME, ALPHAS, 20, x0=x0, seed=14)
            assert np.array_equal(trace.actions[0], start)
            assert np.array_equal(trace.actions, run(GAME, ALPHAS, 20, x0=start, seed=14).actions)

    def test_negative_affine_noise_slope_rejected(self):
        with pytest.raises(ValueError, match=r"^agent 0 at episode 1: .* slope, got -0\.5$"):
            run_algorithm1(NegativeSlopeGame(), ALPHAS, 5, seed=0)
        # a slope that turns negative after the start is named where it first does
        with pytest.raises(ValueError, match=r"^agent 1 at episode 2: .* slope, got -0\.\d+$"):
            run_algorithm1(LateNegativeSlopeGame(), ALPHAS, 5, seed=0)

    def test_trace_metadata(self):
        trace = run_algorithm1(GAME, ALPHAS, 10, seed=13)
        assert np.array_equal(trace.episodes, np.arange(1, 11))
        assert trace.err_sq == pytest.approx(((trace.actions - NE) ** 2).sum(axis=1))


class CountingCournotGame(CournotGame):
    def __init__(self):
        self.exact_var_calls = 0

    def exact_var(self, agent, x, alpha):
        self.exact_var_calls += 1
        return super().exact_var(agent, x, alpha)


class CountingReplayGame(ReplayGame):
    def __init__(self):
        super().__init__(CountingCournotGame())

    @property
    def exact_var_calls(self):
        return self.game.exact_var_calls


class FixedDraws:
    """Stands in for ``st.data()`` in an ``@example``: returns the given draws in order."""

    def __init__(self, *draws):
        self.draws = iter(draws)

    def draw(self, strategy):
        return next(self.draws)


class TestSortedNoise:
    """``_rank_tails`` against the replay on the same draws, episode by episode."""

    draws_strategy = st.lists(
        st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0)),
        min_size=1,
        max_size=40,
    )
    # 1e-17 makes every cost round to the intercept although s > 0
    own_strategy = st.one_of(st.sampled_from([0.0, 1e-17, 1.0]), st.floats(0.0, 1.0))

    @staticmethod
    def loop_estimate(coeffs, tails, t, size, alpha, nu=None):
        """The run loop's (VaR, tail count, gradient) at episode t over ``size`` draws."""
        c0, s, g0, g1 = coeffs
        low, count, total = (a[t - 1] for a in tails)
        g = (count * g0 + g1 * total) / (size * alpha)
        return (c0 + low * s if nu is None else nu), count, np.array(g, ndmin=1)

    @staticmethod
    def assert_same(fast, slow):
        nu, count, g = fast
        assert nu == slow.var_used
        assert count == slow.tail_count
        assert g.shape == slow.g.shape
        assert np.max(np.abs(g - slow.g)) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        draws=draws_strategy,
        own=own_strategy,
        other=st.floats(0.0, 1.0),
        alpha=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
        agent=st.sampled_from([0, 1]),
        window_kind=st.sampled_from([None, "one", "shorter", "covering"]),
        data=st.data(),
    )
    # a subnormal own action: every cost rounds to the intercept although s > 0;
    # data: the threshold at row 0
    @example(
        draws=[0.0, 0.0], own=5e-324, other=0.0, alpha=1.0, agent=0, window_kind=None, data=FixedDraws(0)
    )
    def test_matches_replay_with_ties(self, draws, own, other, alpha, agent, window_kind, data):
        x = np.array([own, other]) if agent == 0 else np.array([other, own])
        horizon = len(draws)
        window = {None: None, "one": 1, "shorter": max(1, horizon // 3), "covering": horizon + 1}[
            window_kind
        ]
        history = np.array(draws)[:, None]
        coeffs = GAME.affine_noise(agent, x)
        # a threshold at a replayed (cost, draw) pair ties with that cost exactly;
        # the exact one is (VaR, noise quantile)
        row = data.draw(st.integers(0, horizon - 1))
        thresholds = (
            None,
            (float(GAME.cost_batch(agent, x, history)[row]), draws[row]),
            (GAME.exact_var(agent, x, alpha), GAME.noise_distribution(agent).var(alpha)),
        )
        for threshold in thresholds:
            nu, q = (None, None) if threshold is None else threshold
            tails = _rank_tails(history, alpha, window, q)
            for t in range(1, horizon + 1):
                kept = history[0 if window is None else max(0, t - window) : t]
                fast = self.loop_estimate(coeffs, tails, t, len(kept), alpha, nu)
                self.assert_same(fast, _replay_gradient(GAME, agent, x, kept, alpha, threshold))
                if threshold is None:
                    assert fast[1] == len(kept) - _tail_start(len(kept), alpha) + 1
                else:
                    assert fast[1] == np.count_nonzero(kept >= q)
            if threshold is None:
                self.assert_same(fast, cvar_gradient_estimate(GAME, agent, x, kept, alpha))
        # the public baseline replays with the exact pair, the last one
        self.assert_same(fast, unbiased_cvar_gradient(GAME, agent, x, kept, alpha))

    @pytest.mark.parametrize("baseline", [False, True], ids=["algorithm1", "baseline"])
    @pytest.mark.parametrize(
        "game,alpha",
        [(CournotGame(), 0.4), (QuadraticCounterexampleGame(), 0.5)],
        ids=["cournot", "counterexample"],
    )
    def test_zero_action_matches_exact_gradient(self, game, alpha, baseline):
        # at x_i = 0 every cost ties with the VaR; the tail is still a set of
        # noise ranks of about alpha * t draws, not the whole history
        t = 10_000
        draws = np.random.default_rng(8).uniform(0, 1, size=(t, 1))
        x = np.array([0.0, 0.5])
        q = game.noise_distribution(0).var(alpha)
        nu = game.exact_var(0, x, alpha) if baseline else None
        tails = _rank_tails(draws, alpha, None, q if baseline else None)
        fast = self.loop_estimate(game.affine_noise(0, x), tails, t, t, alpha, nu)
        replay = unbiased_cvar_gradient if baseline else cvar_gradient_estimate
        self.assert_same(fast, replay(game, 0, x, draws, alpha))
        if baseline:
            assert fast[1] == np.count_nonzero(draws >= q)
        else:
            assert fast[1] == t - _tail_start(t, alpha) + 1
        exact = game.exact_risk_averse_gradient(0, x, alpha)
        assert np.max(np.abs(fast[2] - exact)) < 0.02


class TestSortedPathMatchesReplay:
    """Runs on the built-in games equal runs forced onto the replay."""

    @staticmethod
    def games(kind, params):
        if kind == "cournot":
            return CournotGame(), ReplayCournotGame()
        return QuadraticCounterexampleGame(*params), ReplayCounterexampleGame(*params)

    @staticmethod
    def assert_close(a, b):
        assert np.max(np.abs(a.actions - b.actions)) <= 1e-12
        assert np.max(np.abs(a.nu - b.nu)) <= 1e-12
        for fast, slow in ((a.err_sq, b.err_sq), (a.nu_star, b.nu_star)):
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert np.max(np.abs(fast - slow)) <= 1e-12

    def run_both(self, kind, params, alphas, horizon, window, eta, x0, seed):
        fast, slow = self.games(kind, params)
        x0 = None if x0 is None else np.asarray(x0) * fast.action_sets[0].upper[0]
        kwargs = dict(eta=eta, x0=x0, seed=seed, window=window)
        for run in (run_algorithm1, run_unbiased_baseline):
            a = run(fast, alphas, horizon, **kwargs)
            b = run(slow, alphas, horizon, **kwargs)
            self.assert_close(a, b)
        return a

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["cournot", "counterexample"]),
        params=st.tuples(*[st.floats(0.5, 2.0)] * 2, st.floats(-1.0, 1.0), st.floats(0.5, 2.0)),
        alphas=st.tuples(*[st.one_of(st.just(1.0), st.floats(0.05, 1.0))] * 2),
        horizon=st.integers(1, 60),
        window_kind=st.sampled_from([None, "one", "shorter", "covering"]),
        pinned=st.booleans(),
        x0=st.one_of(
            st.none(),
            st.tuples(*[st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))] * 2),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    # a subnormal own action: every cost rounds to the intercept although s > 0
    @example(
        kind="cournot",
        params=(1.0, 1.0, 0.0, 1.0),
        alphas=(1.0, 1.0),
        horizon=1,
        window_kind=None,
        pinned=False,
        x0=(0.0, 2.2250738585e-313),
        seed=0,
    )
    def test_equivalence(self, kind, params, alphas, horizon, window_kind, pinned, x0, seed):
        window = {
            None: None,
            "one": 1,
            "shorter": max(1, horizon // 3),
            "covering": horizon + seed % 3,
        }[window_kind]
        eta = 5.0 if pinned else None
        self.run_both(kind, params, alphas, horizon, window, eta, x0, seed)

    @pytest.mark.parametrize("window", [None, 1, 7, 40])
    @pytest.mark.parametrize("kind,alphas", [("cournot", (1.0, 0.4)), ("counterexample", (0.5, 1.0))])
    def test_pinned_at_boundary(self, kind, alphas, window):
        # a step of 5 drives the iterates onto the box faces; at x_i = 0 the
        # noise slope is 0 and every cost ties with the VaR
        trace = self.run_both(
            kind, (1.0, 1.0, 0.0, 1.0), alphas, 40, window, 5.0, None, 4
        )
        assert np.any(trace.actions == 0.0)

    def test_one_exact_var_call_per_agent_episode(self):
        # the replay: one probe before the loop, then one call per agent and episode
        game = CountingReplayGame()
        run_unbiased_baseline(game, ALPHAS, 25, seed=0)
        assert game.exact_var_calls == 1 + 2 * 25
        # the rank path reads the VaR off the action path after the loop: the probe only
        game = CountingCournotGame()
        run_unbiased_baseline(game, ALPHAS, 25, seed=0)
        assert game.exact_var_calls == 1


class TestBlock:
    """A lockstep block of columns equals each column run on its own."""

    @staticmethod
    def game(kind, params, replay):
        game = CournotGame() if kind == "cournot" else QuadraticCounterexampleGame(*params)
        return ReplayGame(game) if replay else game

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["cournot", "counterexample"]),
        params=st.tuples(*[st.floats(0.5, 2.0)] * 2, st.floats(-1.0, 1.0), st.floats(0.5, 2.0)),
        replay=st.booleans(),
        alphas=st.tuples(*[st.one_of(st.just(1.0), st.floats(0.05, 1.0))] * 2),
        horizon=st.integers(1, 40),
        window_kind=st.sampled_from([None, "one", "shorter", "covering"]),
        pinned=st.booleans(),
        x0=st.one_of(
            st.none(),
            st.tuples(*[st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))] * 2),
        ),
        # seeds repeat across algorithms and within a block
        columns=st.lists(
            st.tuples(st.integers(0, 3), st.sampled_from(["algorithm1", "unbiased-fo"])),
            min_size=1,
            max_size=5,
        ),
    )
    # a subnormal own action: every cost rounds to the intercept although s > 0
    @example(
        kind="cournot",
        params=(1.0, 1.0, 0.0, 1.0),
        replay=False,
        alphas=(1.0, 1.0),
        horizon=3,
        window_kind=None,
        pinned=False,
        x0=(0.0, 2.2250738585e-313),
        columns=[(0, "unbiased-fo"), (0, "algorithm1"), (1, "algorithm1")],
    )
    def test_columns_equal_single_runs(
        self, kind, params, replay, alphas, horizon, window_kind, pinned, x0, columns
    ):
        game = self.game(kind, params, replay)
        window = {None: None, "one": 1, "shorter": max(1, horizon // 3), "covering": horizon + 1}[
            window_kind
        ]
        eta = 5.0 if pinned else None
        x0 = None if x0 is None else np.asarray(x0) * game.action_sets[0].upper[0]
        block = _run(game, alphas, horizon, eta, x0, window, columns)
        assert len(block) == len(columns)
        for (seed, algorithm), trace in zip(columns, block):
            run = run_algorithm1 if algorithm == "algorithm1" else run_unbiased_baseline
            alone = run(game, alphas, horizon, eta=eta, x0=x0, seed=seed, window=window)
            for field in ("actions", "nu", "nu_star", "err_sq"):
                a, b = getattr(trace, field), getattr(alone, field)
                assert (a is None) == (b is None)
                assert a is None or np.array_equal(a, b)

    def test_pinned_block_reaches_the_faces(self):
        # a step of 5 drives the columns onto the box faces, where x_i = 0 ties every cost
        columns = [(seed, alg) for seed in (4, 5) for alg in ("algorithm1", "unbiased-fo")]
        for game in (CournotGame(), ReplayGame(QuadraticCounterexampleGame())):
            block = _run(game, (1.0, 0.4), 40, 5.0, None, 7, columns)
            for (seed, algorithm), trace in zip(columns, block):
                run = run_algorithm1 if algorithm == "algorithm1" else run_unbiased_baseline
                alone = run(game, (1.0, 0.4), 40, 5.0, seed=seed, window=7)
                assert np.any(trace.actions == 0.0)
                assert np.array_equal(trace.actions, alone.actions)
                assert np.array_equal(trace.nu, alone.nu)
                assert np.array_equal(trace.nu_star, alone.nu_star)


class TestBiasDecay:
    def test_var_error_decays_and_sums_grow_subpolynomially(self, cournot_long_traces):
        # seed-averaged |nu_t - nu*_t| must fall with t, and its running
        # sum must grow no faster (as a log-log slope) than sqrt(T ln T)
        episodes = cournot_long_traces[0].episodes.astype(float)
        mask = episodes >= 100
        reference = np.sqrt(episodes * np.log(episodes))
        ref_slope = np.polyfit(np.log(episodes[mask]), np.log(reference[mask]), 1)[0]
        for agent in (0, 1):
            bias = np.mean(
                [np.abs(t.nu[:, agent] - t.nu_star[:, agent]) for t in cournot_long_traces],
                axis=0,
            )
            assert bias[-1] < 0.5 * bias[99]
            sums = np.cumsum(bias)
            slope = np.polyfit(np.log(episodes[mask]), np.log(sums[mask]), 1)[0]
            assert slope <= ref_slope + 0.05
