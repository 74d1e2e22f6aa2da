from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskgames import learning
from riskgames.analysis import density_range
from riskgames.distributions import Uniform, _tail_start, empirical_var
from riskgames.games import (
    AffineNoiseGame,
    Box,
    CournotGame,
    QuadraticCounterexampleGame,
)
from riskgames.learning import (
    _as_rngs,
    _rank_tails,
    _replay,
    _replay_gradient,
    _run,
    _window_sums,
    cvar_gradient_estimate,
    run_algorithm1,
    run_unbiased_baseline,
    unbiased_cvar_gradient,
)

from oracle import exact_risk_averse_gradient, float_play

GAME = CournotGame()
ALPHAS = (0.4, 0.8)
NE = GAME.nash_equilibrium(ALPHAS)


class NegativeSlopeGame(AffineNoiseGame):
    """Costs x_i * (1 - xi): affine in the noise with slope -x_i < 0."""

    _BOX = Box(0.0, 1.0)

    @property
    def num_agents(self):
        return 2

    @property
    def action_sets(self):
        return (self._BOX, self._BOX)

    @property
    def grad_bound(self):
        return 1.0

    def noise_distribution(self, agent):
        return Uniform(0.0, 1.0)

    def cost_line(self, agent, x):
        return x[agent], -x[agent]

    def gradient_coefficients(self, agent):
        # the gradient line (1, -1) at every x
        return (1.0, (0.0, 0.0)), (-1.0, (0.0, 0.0))


class LateNegativeSlopeGame(NegativeSlopeGame):
    """Agent 1's slope x_1 - 0.45 is positive at the centre; every gradient is
    at least 1, so the first step takes x_1 below 0.45."""

    def cost_line(self, agent, x):
        return x[agent], x[agent] - 0.45 * agent

    def gradient_coefficients(self, agent):
        # the gradient line (1, 1) at every x
        return (1.0, (0.0, 0.0)), (1.0, (0.0, 0.0))


class IntAgentCournotGame(CournotGame):
    """Cournot, but each line and the gradient coefficients refuse an agent that is
    not a Python int and count their calls."""

    def __init__(self):
        self.calls = {"cost_line": 0, "gradient_coefficients": 0, "gradient_line": 0}

    def _ask(self, line, agent):
        if type(agent) is not int:
            raise TypeError(f"{line} takes an int agent, got {type(agent).__name__}")
        self.calls[line] += 1

    def cost_line(self, agent, x):
        self._ask("cost_line", agent)
        return super().cost_line(agent, x)

    def gradient_coefficients(self, agent):
        self._ask("gradient_coefficients", agent)
        return super().gradient_coefficients(agent)

    def gradient_line(self, agent, x):
        self._ask("gradient_line", agent)
        return super().gradient_line(agent, x)


ALGORITHMS = ("algorithm1", "unbiased-fo")

# the rank engine and the replay oracle share one signature:
# (game, alphas, horizon, eta, x0, window, seed, algorithm)
RUNNERS = {"rank": _run, "replay": _replay}


class TestProjectBox:
    def test_examples(self):
        box = Box(0.0, 1.0)
        assert box.project(0.5) == 0.5
        assert box.project(-0.3) == 0.0
        assert np.array_equal(box.project(np.array([1.2, -0.1])), [1.0, 0.0])


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
        for run in RUNNERS.values():
            for algorithm in ALGORITHMS:
                with pytest.raises(ValueError, match="step size must be nonnegative"):
                    run(GAME, ALPHAS, 10, -1.0, None, None, 0, algorithm)

    @pytest.mark.parametrize("run", list(RUNNERS.values()), ids=list(RUNNERS))
    def test_nan_rejected(self, run):
        # a NaN step used to give an all-NaN trace
        for algorithm in ALGORITHMS:
            with pytest.raises(ValueError, match=r"step size .* got eta=nan$"):
                run(GAME, ALPHAS, 5, float("nan"), None, None, 0, algorithm)

    @pytest.mark.parametrize("run", list(RUNNERS.values()), ids=list(RUNNERS))
    def test_infinite_rejected(self, run):
        # an infinite step used to pin the iterates to the box faces
        for algorithm in ALGORITHMS:
            with pytest.raises(ValueError, match=r"step size .* got eta=inf$"):
                run(GAME, ALPHAS, 5, float("inf"), None, None, 0, algorithm)

    @pytest.mark.parametrize("run", list(RUNNERS.values()), ids=list(RUNNERS))
    def test_fractional_window_rejected(self, run):
        # a fractional window used to die inside numpy with an IndexError
        for algorithm in ALGORITHMS:
            with pytest.raises(ValueError, match=r"^window must be .* got window=2\.5$"):
                run(GAME, ALPHAS, 5, None, None, 2.5, 0, algorithm)


class TestCvarGradientEstimate:
    def test_single_sample(self):
        xi = np.array([0.7])
        x = np.array([0.4, 0.4])
        est = cvar_gradient_estimate(GAME, 0, x, xi, 0.4)
        cost = GAME.cost_batch(0, x, xi)[0]
        grad = GAME.grad_batch(0, x, xi)[0]
        assert est.var_used == cost
        assert est.tail_count == 1
        assert est.g == pytest.approx(grad / 0.4)

    def test_alpha_one_is_plain_average(self):
        rng = np.random.default_rng(2)
        xi = rng.uniform(0, 1, size=500)
        x = np.array([0.3, 0.7])
        est = cvar_gradient_estimate(GAME, 1, x, xi, 1.0)
        assert est.tail_count == 500
        assert est.g == pytest.approx(GAME.grad_batch(1, x, xi).mean())

    def test_empty_history_rejected(self):
        empty = np.empty(0)
        with pytest.raises(ValueError):
            cvar_gradient_estimate(GAME, 0, NE, empty, 0.4)
        with pytest.raises(ValueError):
            unbiased_cvar_gradient(GAME, 0, NE, empty, 0.4)

    def test_two_dimensional_history_rejected(self):
        # a history is a 1-d array of scalar draws; a (t, 1) column is an error
        column = np.full((3, 1), 0.5)
        for estimate in (cvar_gradient_estimate, unbiased_cvar_gradient):
            with pytest.raises(ValueError, match=r"1-d array of shape \(t,\), got shape \(3, 1\)$"):
                estimate(GAME, 0, NE, column, 0.4)

    def test_tail_size_without_ties(self):
        rng = np.random.default_rng(3)
        xi = rng.uniform(0, 1, size=1000)
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
            xi = rng.uniform(0, 1, size=t)
            x = rng.uniform(0, 1, size=2)
            alpha = float(rng.uniform(0.05, 1.0))
            est = cvar_gradient_estimate(GAME, 0, x, xi, alpha)
            assert abs(est.g) <= GAME.grad_bound / alpha + 1e-12

    def test_near_zero_at_equilibrium(self):
        rng = np.random.default_rng(12)
        xi = rng.uniform(0, 1, size=100_000)
        for agent in (0, 1):
            est = cvar_gradient_estimate(GAME, agent, NE, xi, ALPHAS[agent])
            assert abs(est.g) < 0.02

    def test_conditional_unbiasedness(self):
        # with x and nu frozen, the estimator's expectation is the hand
        # integral ((1-q) G + (1-q^2)/2) / alpha, where q is the noise
        # quantile hit by nu and G the deterministic gradient part
        rng = np.random.default_rng(31)
        for agent, alpha, q in ((0, 0.4, 0.2), (1, 0.8, 0.5)):
            base = GAME.cost_batch(agent, NE, np.zeros(1))[0]
            nu = base + q * NE[agent]
            g_det = 2 * NE[agent] + NE[1 - agent] - 1.8
            expected = ((1 - q) * g_det + (1 - q * q) / 2) / alpha
            xi = rng.uniform(0, 1, size=1_000_000)
            est = unbiased_cvar_gradient(GAME, agent, NE, xi, alpha, exact_var=nu)
            assert est.g == pytest.approx(expected, rel=0.01)

    def test_unbiased_mean_matches_exact_gradient(self):
        rng = np.random.default_rng(11)
        for x in (np.array([0.3, 0.6]), np.array([0.7, 0.2])):
            for agent in (0, 1):
                xi = rng.uniform(0, 1, size=1_000_000)
                est = unbiased_cvar_gradient(GAME, agent, x, xi, ALPHAS[agent])
                exact = exact_risk_averse_gradient(GAME, agent, x, ALPHAS[agent])
                assert est.g == pytest.approx(exact, rel=0.005)

    def test_alpha_one_estimators_coincide(self):
        rng = np.random.default_rng(5)
        xi = rng.uniform(0, 1, size=200)
        x = np.array([0.6, 0.3])
        a = cvar_gradient_estimate(GAME, 0, x, xi, 1.0)
        b = unbiased_cvar_gradient(GAME, 0, x, xi, 1.0)
        assert a.g == b.g
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

    def test_reused_seed_sequence_gives_equal_runs(self):
        # spawning the per-agent generators must not advance the caller's
        # SeedSequence, so a second run from the same object repeats the first
        root = np.random.SeedSequence(3)
        a = run_algorithm1(GAME, ALPHAS, 50, seed=root)
        b = run_algorithm1(GAME, ALPHAS, 50, seed=root)
        c = run_algorithm1(GAME, ALPHAS, 50, seed=3)
        for other in (b, c):
            assert np.array_equal(a.actions, other.actions)
            assert np.array_equal(a.nu, other.nu)

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

    @pytest.mark.parametrize("window", [None, 7])
    def test_baseline_takes_no_rank_pass(self, monkeypatch, window):
        # the baseline's tail is the draws >= q, a count and a sum: no rank
        want = run_unbiased_baseline(GAME, ALPHAS, 200, seed=12, window=window)

        def refuse(*args):
            raise AssertionError("the baseline asked for a rank pass")

        monkeypatch.setattr(learning, "_rank_tails", refuse)
        got = run_unbiased_baseline(GAME, ALPHAS, 200, seed=12, window=window)
        for field in ("actions", "nu", "nu_star", "err_sq"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field

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
        for run in RUNNERS.values():
            with pytest.raises(ValueError):
                run(GAME, ALPHAS, 0, None, None, None, 0, "algorithm1")
            with pytest.raises(ValueError):
                run(GAME, ALPHAS, 5, None, None, 0, 0, "algorithm1")
            with pytest.raises(ValueError):
                run(GAME, ALPHAS, 5, None, np.array([2.0, 0.5]), None, 0, "algorithm1")
            with pytest.raises(ValueError):
                run(GAME, (0.4,), 5, None, None, None, 0, "algorithm1")

    @pytest.mark.parametrize("run", list(RUNNERS.values()), ids=list(RUNNERS))
    @pytest.mark.parametrize(
        "horizon,eta,window,message",
        [
            (True, None, None, r"^horizon must be an integer >= 1, got horizon=True$"),
            (2.5, None, None, r"^horizon must be an integer >= 1, got horizon=2\.5$"),
            (5, True, None, r"^step size must be nonnegative .* got eta=True$"),
            (5, "0.1", None, r"^step size must be nonnegative .* got eta='0\.1'$"),
            (5, None, True, r"^window must be an integer >= 1 when set, got window=True$"),
        ],
        ids=["bool-horizon", "fractional-horizon", "bool-eta", "string-eta", "bool-window"],
    )
    def test_argument_types_the_runners_cannot_use_rejected(self, run, horizon, eta, window, message):
        # a bool horizon used to raise TypeError, a fractional one numpy's
        # error, and a bool window or step ran as 1
        for algorithm in ALGORITHMS:
            with pytest.raises(ValueError, match=message):
                run(GAME, ALPHAS, horizon, eta, None, window, 0, algorithm)
        with pytest.raises(ValueError, match="horizon"):
            run_algorithm1(GAME, ALPHAS, True)

    def test_numpy_integers_and_floats_accepted(self):
        for run in (run_algorithm1, run_unbiased_baseline):
            plain = run(GAME, ALPHAS, 20, eta=0.01, seed=3, window=5)
            numpy = run(GAME, ALPHAS, np.int64(20), eta=np.float64(0.01), seed=3, window=np.int64(5))
            assert np.array_equal(plain.actions, numpy.actions)
            assert np.array_equal(plain.nu, numpy.nu)

    @pytest.mark.parametrize("x0,start", [([-1e-10, 0.5], [0.0, 0.5]), ([0.5, -1e-10], [0.5, 0.0])])
    def test_start_within_tolerance_is_projected(self, x0, start):
        # feasible() accepts x0 up to 1e-9 outside the box; the run starts on it
        for run in (run_algorithm1, run_unbiased_baseline):
            trace = run(GAME, ALPHAS, 20, x0=x0, seed=14)
            assert np.array_equal(trace.actions[0], start)
            assert np.array_equal(trace.actions, run(GAME, ALPHAS, 20, x0=start, seed=14).actions)

    def test_negative_noise_slope_rejected(self):
        with pytest.raises(ValueError, match=r"^agent 0 at episode 1: .* slope, got -0\.5$"):
            run_algorithm1(NegativeSlopeGame(), ALPHAS, 5, seed=0)
        # a slope that turns negative after the start is named where it first does
        with pytest.raises(ValueError, match=r"^agent 1 at episode 2: .* slope, got -0\.\d+$"):
            run_algorithm1(LateNegativeSlopeGame(), ALPHAS, 5, seed=0)

    def test_trace_metadata(self):
        trace = run_algorithm1(GAME, ALPHAS, 10, seed=13)
        assert trace.horizon == len(trace.actions) == 10
        assert trace.err_sq == pytest.approx(((trace.actions - NE) ** 2).sum(axis=1))

    def test_lines_are_asked_for_one_int_agent_at_a_time(self):
        # the game contract has one calling convention: an int agent, never
        # an array of agents, in the play, the VaR read-off and the Lemma-4
        # constants; the play asks only for the gradient coefficients, once
        # per agent and run, and never for a gradient line, and the read-off
        # only for the cost line, once per agent
        plain = CournotGame()
        for run in (run_algorithm1, run_unbiased_baseline):
            for window in (None, 7):
                strict = IntAgentCournotGame()
                got = run(strict, ALPHAS, 60, seed=9, window=window)
                assert strict.calls == {"cost_line": 2, "gradient_coefficients": 2, "gradient_line": 0}
                want = run(plain, ALPHAS, 60, seed=9, window=window)
                for field in ("actions", "nu", "nu_star", "err_sq"):
                    assert np.array_equal(getattr(got, field), getattr(want, field)), field
                for agent in (0, 1):
                    assert density_range(strict, got, agent) == density_range(plain, want, agent)


class CountingCournotGame(CournotGame):
    def __init__(self):
        self.exact_var_calls = 0

    def exact_var(self, agent, x, alpha):
        self.exact_var_calls += 1
        return super().exact_var(agent, x, alpha)


class FixedDraws:
    """Stands in for ``st.data()`` in an ``@example``: returns the given draws in order."""

    def __init__(self, *draws):
        self.draws = iter(draws)

    def draw(self, strategy):
        return next(self.draws)


def quantile_tails(draws, q, window):
    """The baseline's per-episode tail size and tail sum: window sums of the draws >= q."""
    tail = draws >= q
    return _window_sums(tail, window), _window_sums(np.where(tail, draws, 0.0), window)


class TestSortedNoise:
    """The engine's tails against the replay on the same draws, episode by episode."""

    draws_strategy = st.lists(
        st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0)),
        min_size=1,
        max_size=40,
    )
    # 1e-17 makes every cost round to the intercept although s > 0
    own_strategy = st.one_of(st.sampled_from([0.0, 1e-17, 1.0]), st.floats(0.0, 1.0))

    @staticmethod
    def loop_estimate(game, agent, x, tails, t, size, alpha, nu=None):
        """The run loop's (VaR, tail count, gradient) at episode t over ``size`` draws.

        ``tails`` is ``_rank_tails``' (lowest draw, size, sum) when ``nu`` is
        None, else ``quantile_tails``' (size, sum).
        """
        (c0, s), (g0, g1) = game.cost_line(agent, x), game.gradient_line(agent, x)
        *low, count, total = (a[t - 1] for a in tails)
        g = (count * g0 + g1 * total) / (size * alpha)
        return (c0 + low[0] * s if nu is None else nu), count, g

    @staticmethod
    def assert_same(fast, slow):
        nu, count, g = fast
        assert nu == slow.var_used
        assert count == slow.tail_count
        assert isinstance(slow.g, float)
        assert abs(g - slow.g) <= 1e-12

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
        history = np.array(draws)
        # a threshold at a replayed (cost, draw) pair ties with that cost exactly;
        # the exact one is (VaR, noise quantile)
        row = data.draw(st.integers(0, horizon - 1))
        thresholds = (
            None,
            (float(GAME.cost_batch(agent, x, history)[row]), draws[row]),
            (GAME.exact_var(agent, x, alpha), GAME.noise_distribution(agent).var(alpha)),
        )
        for threshold in thresholds:
            if threshold is None:
                nu, tails = None, _rank_tails(history, alpha, window)
            else:
                nu, q = threshold
                tails = quantile_tails(history, q, window)
            for t in range(1, horizon + 1):
                kept = history[0 if window is None else max(0, t - window) : t]
                fast = self.loop_estimate(GAME, agent, x, tails, t, len(kept), alpha, nu)
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
        draws = np.random.default_rng(8).uniform(0, 1, size=t)
        x = np.array([0.0, 0.5])
        q = game.noise_distribution(0).var(alpha)
        nu = game.exact_var(0, x, alpha) if baseline else None
        tails = quantile_tails(draws, q, None) if baseline else _rank_tails(draws, alpha, None)
        fast = self.loop_estimate(game, 0, x, tails, t, t, alpha, nu)
        replay = unbiased_cvar_gradient if baseline else cvar_gradient_estimate
        self.assert_same(fast, replay(game, 0, x, draws, alpha))
        if baseline:
            assert fast[1] == np.count_nonzero(draws >= q)
        else:
            assert fast[1] == t - _tail_start(t, alpha) + 1
        exact = exact_risk_averse_gradient(game, 0, x, alpha)
        assert abs(fast[2] - exact) < 0.02


class TestRankTailsLongSeries:
    """``_rank_tails`` and ``quantile_tails`` against a fresh sort of every episode's window."""

    @pytest.mark.parametrize("window", [None, 1, 100, "longer"])
    @pytest.mark.parametrize("ties", [False, True], ids=["continuous", "ties"])
    @pytest.mark.parametrize("horizon", [1, 2, 3, 64, 65, 3000])
    def test_matches_sorted_windows(self, horizon, ties, window):
        # past the 40 draws of the hypothesis tests: many rank levels, and
        # 2^k + 1 draws, where one draw alone sets the top rank bit
        rng = np.random.default_rng(horizon)
        if ties:
            draws = rng.choice([0.0, 0.25, 0.5, 1.0], size=horizon)
        else:
            draws = rng.uniform(0.0, 1.0, size=horizon)
        window = horizon + 7 if window == "longer" else window
        alpha = 0.4
        # inside the draws, tied with one; below all of them; above all (empty tail)
        qs = (None, draws[horizon // 2], -1.0, 2.0)
        expected = np.empty((len(qs), 3, horizon))
        for t in range(1, horizon + 1):
            ordered = np.sort(draws[0 if window is None else max(0, t - window) : t])
            for j, q in enumerate(qs):
                if q is None:
                    k = _tail_start(ordered.size, alpha) - 1
                else:
                    k = int(np.searchsorted(ordered, q))
                low = ordered[k] if k < ordered.size else np.nan
                expected[j, :, t - 1] = low, ordered.size - k, ordered[k:].sum()
        for q, (low, count, total) in zip(qs, expected):
            if q is None:
                fast_low, *fast = _rank_tails(draws, alpha, window)
                assert np.array_equal(fast_low, low)
            else:
                fast = quantile_tails(draws, q, window)
            assert np.array_equal(fast[0], count)
            assert np.all(np.abs(fast[1] - total) <= 1e-12 * np.maximum(count, 1))
            assert np.all(fast[1][count == 0] == 0.0)
        # the lowest tail draw of Algorithm 1 is the empirical VaR of the window
        kept = draws[0 if window is None else max(0, horizon - window) :]
        assert expected[0, 0, -1] == empirical_var(kept, alpha)


def built_in_game(kind, params):
    return CournotGame() if kind == "cournot" else QuadraticCounterexampleGame(*params)


def assert_steps(game, trace, alphas, eta, window, seed, algorithm):
    """Each episode of ``trace`` is the replay oracle's at the trace's own iterate.

    The recorded VaR and exact VaR, the squared distance to the
    equilibrium, and the step to the next iterate each agree to 1e-12 with
    the oracle estimator evaluated at that episode's action.
    """
    histories = [
        np.array([game.sample_noise(i, rng) for _ in range(trace.horizon)])
        for i, rng in enumerate(_as_rngs(game, seed))
    ]
    lower, upper = game.bounds
    x_star = game.nash_equilibrium(alphas)
    assert (trace.err_sq is None) == (x_star is None)
    g = np.empty(game.num_agents)
    for t, x in enumerate(trace.actions, 1):
        start = 0 if window is None else max(0, t - window)
        for i, history in enumerate(histories):
            nu_star = game.exact_var(i, x, alphas[i])
            if algorithm == "unbiased-fo":
                est = unbiased_cvar_gradient(game, i, x, history[start:t], alphas[i], nu_star)
            else:
                est = cvar_gradient_estimate(game, i, x, history[start:t], alphas[i])
            assert abs(trace.nu_star[t - 1, i] - nu_star) <= 1e-12
            assert abs(trace.nu[t - 1, i] - est.var_used) <= 1e-12
            g[i] = est.g
        if x_star is not None:
            assert abs(trace.err_sq[t - 1] - np.sum((x - x_star) ** 2)) <= 1e-12
        if t < trace.horizon:
            assert np.max(np.abs(trace.actions[t] - np.clip(x - eta * g, lower, upper))) <= 1e-12


def assert_close(a, b):
    """Traces a and b agree to 1e-12 in every field."""
    assert np.max(np.abs(a.actions - b.actions)) <= 1e-12
    assert np.max(np.abs(a.nu - b.nu)) <= 1e-12
    for fast, slow in ((a.err_sq, b.err_sq), (a.nu_star, b.nu_star)):
        assert (fast is None) == (slow is None)
        if fast is not None:
            assert np.max(np.abs(fast - slow)) <= 1e-12


class TestSortedPathMatchesReplay:
    """Runs on the built-in games equal the replay oracle on the same game."""

    def run_both(self, kind, params, alphas, horizon, window, eta, x0, seed):
        """Both algorithms' rank traces, each checked against the replay oracle.

        At the auto step the whole paths agree to 1e-12. A pinned step of 5
        multiplies a rounding gap between the paths by about 9 at each
        interior step, so there each episode is checked alone, at the rank
        engine's own iterate.
        """
        game = built_in_game(kind, params)
        x0 = None if x0 is None else np.asarray(x0) * game.action_sets[0].upper
        traces = []
        for algorithm in ALGORITHMS:
            a = _run(game, alphas, horizon, eta, x0, window, seed, algorithm)
            b = _replay(game, alphas, horizon, eta, x0, window, seed, algorithm)
            if eta is None:
                assert_close(a, b)
            else:
                assert np.array_equal(a.actions[0], b.actions[0])
                assert_steps(game, a, alphas, eta, window, seed, algorithm)
            traces.append(a)
        return traces

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
    @example(
        kind="cournot",
        params=(1.0, 1.0, 0.0, 1.0),
        alphas=(1.0, 1.0),
        horizon=3,
        window_kind=None,
        pinned=False,
        x0=(0.0, 2.2250738585e-313),
        seed=0,
    )
    @example(
        kind="cournot",
        params=(1.0, 1.0, 0.0, 1.0),
        alphas=(1.0, 1.0),
        horizon=3,
        window_kind=None,
        pinned=False,
        x0=(0.0, 2.2250738585e-313),
        seed=1,
    )
    # interior steps of 5: the rank and replay paths drift 1.03e-12 apart in
    # x1 by episode 8, though every step agrees to rounding
    @example(
        kind="cournot",
        params=(1.0, 1.0, 0.0, 1.0),
        alphas=(1.0, 0.544921875),
        horizon=10,
        window_kind=None,
        pinned=True,
        x0=None,
        seed=19705492,
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
        traces = self.run_both(
            kind, (1.0, 1.0, 0.0, 1.0), alphas, 40, window, 5.0, None, 4
        )
        assert np.any(traces[-1].actions == 0.0)

    @pytest.mark.parametrize("seed", [4, 5])
    @pytest.mark.parametrize("kind", ["cournot", "counterexample"])
    def test_pinned_window_reaches_the_faces(self, kind, seed):
        # a step of 5 drives both algorithms onto the box faces, where x_i = 0
        # ties every cost, while a window of 7 keeps evicting draws
        traces = self.run_both(kind, (1.0, 1.0, 0.0, 1.0), (1.0, 0.4), 40, 7, 5.0, None, seed)
        assert all(np.any(trace.actions == 0.0) for trace in traces)

    def test_one_exact_var_call_per_agent_episode(self):
        # the replay: one call per agent and episode
        game = CountingCournotGame()
        _replay(game, ALPHAS, 25, None, None, None, 0, "unbiased-fo")
        assert game.exact_var_calls == 2 * 25
        # the rank path reads the VaR off the action path after the loop: no call
        game = CountingCournotGame()
        run_unbiased_baseline(game, ALPHAS, 25, seed=0)
        assert game.exact_var_calls == 0


def scanned_play(game, alphas, horizon, eta, x0, window, seed, algorithm):
    """One run's action path and the arguments ``_run`` passed ``_scan_play`` for it."""
    with mock.patch.object(learning, "_scan_play", wraps=learning._scan_play) as play:
        trace = _run(game, alphas, horizon, eta, x0, window, seed, algorithm)
    assert play.call_count == 1
    return trace.actions, play.call_args.args


def observe_blocks(game, alphas, horizon, eta, x0, window, seed, algorithm):
    """The scan's outcomes in one run: (steps played, cut) per ``_scan`` call, and the float steps."""
    scans, floats = [], []

    def scan(*args, scan=learning._scan):
        steps, code, cut = scan(*args)
        scans.append((steps, cut))
        return steps, code, cut

    def float_steps(*args, float_steps=learning._float_steps):
        steps, code, run = float_steps(*args)
        floats.append(steps)
        return steps, code, run

    with mock.patch.object(learning, "_scan", scan), mock.patch.object(learning, "_float_steps", float_steps):
        _run(game, alphas, horizon, eta, x0, window, seed, algorithm)
    return scans, sum(floats)


class TestScanMatchesFloatPlay:
    """The scan play equals the float play, one Python-float step per episode, on the same tails."""

    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(["cournot", "counterexample"]),
        params=st.tuples(*[st.floats(0.5, 2.0)] * 2, st.floats(-1.0, 1.0), st.floats(0.5, 2.0)),
        alphas=st.tuples(*[st.one_of(st.just(1.0), st.floats(0.05, 1.0))] * 2),
        horizon=st.integers(1, learning._SCAN_BLOCK + 80),
        window_kind=st.sampled_from([None, "one", "shorter", "covering"]),
        pinned=st.booleans(),
        # the centre, faces the first step clips back to, faces that hold, and inside
        x0=st.one_of(
            st.none(),
            st.tuples(*[st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))] * 2),
        ),
        seed=st.integers(0, 2**32 - 1),
        algorithm=st.sampled_from(ALGORITHMS),
    )
    # interior steps of 5 multiply their values by up to 9 and bounce both
    # firms between the faces (0, 0) and (1, 1): a restart each episode
    @example(
        kind="cournot",
        params=(1.0, 1.0, 0.0, 1.0),
        alphas=(1.0, 0.4),
        horizon=2000,
        window_kind=None,
        pinned=True,
        x0=None,
        seed=0,
        algorithm="algorithm1",
    )
    # agent 0 leaves and re-enters its face x_0 = 0 as x_1 nears b / 2, where
    # its CVaR gradient vanishes at alpha = 0.5
    @example(
        kind="counterexample",
        params=(1.0, 1.0, 0.0, 1.0),
        alphas=(0.5, 0.5),
        horizon=5000,
        window_kind=None,
        pinned=False,
        x0=(0.0, 1.0),
        seed=0,
        algorithm="unbiased-fo",
    )
    @example(
        kind="counterexample",
        params=(1.0, 1.0, 0.0, 1.0),
        alphas=(0.5, 0.5),
        horizon=5000,
        window_kind=None,
        pinned=False,
        x0=(0.0, 1.0),
        seed=0,
        algorithm="algorithm1",
    )
    # the smallest risk levels, from a face each: slow steps off both faces
    @example(
        kind="cournot",
        params=(1.0, 1.0, 0.0, 1.0),
        alphas=(0.05, 0.05),
        horizon=3000,
        window_kind=None,
        pinned=False,
        x0=(0.0, 1.0),
        seed=0,
        algorithm="algorithm1",
    )
    # a run that ends one step before, at and one step after a block's last step
    @example(
        kind="cournot",
        params=(1.0, 1.0, 0.0, 1.0),
        alphas=(0.4, 0.8),
        horizon=learning._SCAN_BLOCK,
        window_kind=None,
        pinned=False,
        x0=None,
        seed=3,
        algorithm="algorithm1",
    )
    @example(
        kind="cournot",
        params=(1.0, 1.0, 0.0, 1.0),
        alphas=(0.4, 0.8),
        horizon=learning._SCAN_BLOCK + 1,
        window_kind=None,
        pinned=False,
        x0=None,
        seed=3,
        algorithm="unbiased-fo",
    )
    @example(
        kind="counterexample",
        params=(1.0, 1.0, 0.0, 1.0),
        alphas=(0.6, 1.0),
        horizon=learning._SCAN_BLOCK + 2,
        window_kind=None,
        pinned=False,
        x0=None,
        seed=3,
        algorithm="algorithm1",
    )
    # a sliding window: the tails evict as well as grow
    @example(
        kind="cournot",
        params=(1.0, 1.0, 0.0, 1.0),
        alphas=(0.4, 0.8),
        horizon=3000,
        window_kind="shorter",
        pinned=False,
        x0=(1.0, 0.0),
        seed=5,
        algorithm="algorithm1",
    )
    def test_equivalence(self, kind, params, alphas, horizon, window_kind, pinned, x0, seed, algorithm):
        game = built_in_game(kind, params)
        x0 = None if x0 is None else np.asarray(x0) * game.action_sets[0].upper
        window = {None: None, "one": 1, "shorter": max(1, horizon // 3), "covering": horizon + 1}[window_kind]
        eta = 5.0 if pinned else None
        scanned, args = scanned_play(game, alphas, horizon, eta, x0, window, seed, algorithm)
        floats = float_play(*args)
        assert scanned.shape == floats.shape == (horizon, 2)
        assert np.array_equal(scanned[0], floats[0])
        if eta is None:
            assert np.max(np.abs(scanned - floats)) <= 1e-12
            return
        # a step of 5 multiplies a rounding gap between two paths by up to
        # about 12 at each interior step, so there each step is checked
        # alone: the float play's step from the scan's own iterate
        _, count, total, denoms, eta, _, lower, upper = args
        for t in range(horizon - 1):
            tails = (a[:, t : t + 2] for a in (count, total, denoms))
            step = float_play(game, *tails, eta, scanned[t], lower, upper)[1]
            assert np.max(np.abs(scanned[t + 1] - step)) <= 1e-12

    def test_examples_restart(self):
        # the face-leaving counterexample above is cut and restarted, and the
        # bouncing Cournot run takes only float steps, never a scan
        game = QuadraticCounterexampleGame()
        scans, floats = observe_blocks(game, (0.5, 0.5), 5000, None, np.array([0.0, 1.0]), None, 0, "unbiased-fo")
        assert sum(cut for _, cut in scans) >= 10
        assert sum(steps for steps, _ in scans) + floats == 4999
        scans, floats = observe_blocks(CournotGame(), (1.0, 0.4), 2000, 5.0, None, None, 0, "algorithm1")
        assert scans == [] and floats == 1999

    def test_interior_run_scans_whole_blocks(self):
        # the auto step from the centre never leaves the box: two float steps
        # give the first scan its active set, and every block after is one scan
        scans, floats = observe_blocks(GAME, ALPHAS, 5000, None, None, None, 0, "algorithm1")
        assert floats == 2
        assert not any(cut for _, cut in scans)
        assert [steps for steps, _ in scans] == [62, 64, 128, 256, 512, 1024, 1024, 1024, 903]

    @staticmethod
    def scan(a0, A, x, size):
        """``_scan`` on the Cournot box at a step of 1, with k = d = 1 and S = 0: the maps x -> x - a0 - A x."""
        lines = [np.array(a0), np.array(A), np.zeros(2), np.zeros((2, 2))]
        tails = (np.ones((2, size)), np.zeros((2, size)), np.ones((2, size)))
        out = np.full((size, 2), -1.0)
        lower, upper, tol = np.zeros(2), np.ones(2), np.full(2, learning._DRIFT)
        steps, code, cut = learning._scan(lines, tails, np.array(x), 1.0, [0, 0], lower, upper, tol, out)
        return steps, code, cut, out[:steps]

    def test_free_coordinate_leaving_the_box_is_cut_there(self):
        # agent 0 steps up by 2^-50 from 1 - 3 * 2^-50: its fourth step leaves
        # the box by less than the drift tolerance, so only the active-set
        # check cuts it, and the restart is the float step's clip to 1
        delta = 2.0**-50
        assert delta < learning._DRIFT
        steps, code, cut, out = self.scan([-delta, 0.0], [[0.0, 0.0], [0.0, 0.0]], [1.0 - 3 * delta, 0.5], 8)
        assert (steps, code, cut) == (4, [1, 0], True)
        assert out[:, 0].tolist() == [1.0 - 2 * delta, 1.0 - delta, 1.0, 1.0]
        assert np.all(out[:, 1] == 0.5)

    def test_overflowing_composition_is_cut(self):
        # agent 0's maps multiply by 1e10 about its fixed point 0, where it
        # sits, and agent 1's halve about 0.5: every step keeps (0, 0.5), but
        # the composed maps overflow past 30 steps, and inf * 0 is NaN
        steps, code, cut, out = self.scan([0.0, -0.25], [[1.0 - 1e10, 0.0], [0.0, 0.5]], [0.0, 0.5], 64)
        assert cut and 30 <= steps < 64
        assert code == [0, 0]
        assert np.array_equal(out, np.tile([0.0, 0.5], (steps, 1)))


class TestBiasDecay:
    def test_var_error_decays_and_sums_grow_subpolynomially(self, cournot_long_traces):
        # seed-averaged |nu_t - nu*_t| must fall with t, and its running
        # sum must grow no faster (as a log-log slope) than sqrt(T ln T)
        episodes = np.arange(1.0, cournot_long_traces[0].horizon + 1)
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
