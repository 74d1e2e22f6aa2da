import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskgames.analysis import (
    _binomial_tail,
    AggregateTrace,
    BoundReport,
    RunTrace,
    density_range,
    fit_rate,
    time_averaged_error,
    validate_lemma3,
    validate_lemma4,
)
from riskgames.distributions import Uniform, _tail_start, dkw_confidence_width
from riskgames.games import CournotGame, QuadraticCounterexampleGame
from riskgames.learning import run_algorithm1, run_unbiased_baseline

from oracle import binomial_tail, binomial_tail_terms, lemma3_one_matrix

GAME = CournotGame()
ALPHAS = (0.4, 0.8)


def lemma4(trace, agent, **kwargs):
    return validate_lemma4(GAME, trace, agent, ALPHAS[agent], **kwargs)


def trace_with_errors(err_sq):
    err_sq = np.asarray(err_sq, dtype=float)
    t = err_sq.size
    return RunTrace(
        actions=np.full((t, 2), 0.5),
        nu=np.zeros((t, 2)),
        nu_star=np.zeros((t, 2)),
        err_sq=err_sq,
    )


class TestTimeAveragedError:
    def test_constant_series(self):
        out = time_averaged_error(trace_with_errors([3.0] * 7))
        assert np.allclose(out, 3.0)

    def test_hand_example(self):
        out = time_averaged_error(trace_with_errors([4.0, 0.0]))
        assert np.array_equal(out, [4.0, 2.0])

    def test_running_average_stays_between_extremes(self):
        rng = np.random.default_rng(0)
        series = rng.uniform(0.5, 2.0, size=200)
        out = time_averaged_error(trace_with_errors(series))
        running_min = np.minimum.accumulate(series)
        running_max = np.maximum.accumulate(series)
        assert np.all(out >= running_min - 1e-12)
        assert np.all(out <= running_max + 1e-12)

    def test_requires_distances(self):
        trace = trace_with_errors([1.0])
        trace.err_sq = None
        with pytest.raises(ValueError):
            time_averaged_error(trace)


class TestAggregateTrace:
    def test_matches_brute_force(self):
        rows = [np.array([1.0, 2.0, 3.0]), np.array([2.0, 2.0, 5.0]), np.array([3.0, 2.0, 1.0])]
        agg = AggregateTrace.from_series(rows)
        stack = np.stack(rows)
        assert np.array_equal(agg.mean, stack.mean(axis=0))
        assert np.array_equal(agg.std, stack.std(axis=0, ddof=1))

    def test_single_trial_has_zero_std(self):
        agg = AggregateTrace.from_series([np.array([1.0, 2.0])])
        assert np.array_equal(agg.std, [0.0, 0.0])

    def test_length_mismatch(self):
        # ragged trials: series of different lengths do not stack
        with pytest.raises(ValueError):
            AggregateTrace.from_series([np.array([1.0, 2.0]), np.array([1.0])])


class TestFitRate:
    def test_exact_power_law(self):
        t = np.arange(1, 2001, dtype=float)
        assert fit_rate(t**-0.5, (10, 2000)) == pytest.approx(-0.5, abs=1e-12)

    def test_flat_series(self):
        assert fit_rate(np.full(500, 3.0), (10, 500)) == pytest.approx(0.0, abs=1e-12)

    def test_scale_invariance(self):
        t = np.arange(1, 1001, dtype=float)
        series = t**-0.7
        a = fit_rate(series, (5, 1000))
        b = fit_rate(7.3 * series, (5, 1000))
        assert a == pytest.approx(b, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_polyfit(self, data):
        # windows of at least an octave, like the report's (100, T): on
        # narrower ones at late episodes x is nearly collinear with the
        # constant column and np.polyfit's own error grows past 1e-12
        series = data.draw(st.lists(st.floats(1e-6, 1e6), min_size=2, max_size=300))
        lo = data.draw(st.integers(1, len(series) // 2))
        hi = data.draw(st.integers(2 * lo, len(series)))
        episodes = np.arange(lo, hi + 1)
        expected = np.polyfit(np.log(episodes), np.log(series[lo - 1 : hi]), 1)[0]
        assert abs(fit_rate(series, (lo, hi)) - expected) <= 1e-12

    def test_rejects_nonpositive_values(self):
        vals = np.linspace(1.0, -0.5, 100)
        with pytest.raises(ValueError):
            fit_rate(vals, (1, 100))

    def test_rejects_tiny_window(self):
        with pytest.raises(ValueError):
            fit_rate(np.ones(100), (50, 50))


class TestValidateLemma3:
    def test_passes_at_inverted_width(self):
        eps = dkw_confidence_width(1000, 0.05, 1.0)
        rep = validate_lemma3(Uniform(0, 1), 0.4, 1000, eps)
        assert rep.passed
        assert rep.bound == pytest.approx(0.05)

    def test_wide_epsilon_never_violates(self):
        rep = validate_lemma3(Uniform(0, 1), 0.4, 200, 1.0)
        assert rep.empirical == 0.0
        assert rep.passed

    def test_violations_shrink_with_sample_size(self):
        rep_small = validate_lemma3(Uniform(0, 1), 0.4, 250, 0.02)
        rep_large = validate_lemma3(Uniform(0, 1), 0.4, 1000, 0.02)
        assert rep_large.empirical < rep_small.empirical

    def test_bound_formula_fourth_power_scaling(self):
        eps = dkw_confidence_width(1000, 0.05, 1.0)
        b1 = validate_lemma3(Uniform(0, 1), 0.4, 1000, eps).bound
        b4 = validate_lemma3(Uniform(0, 1), 0.4, 4000, eps).bound
        assert b4 == pytest.approx(2.0 * (b1 / 2.0) ** 4, rel=1e-9)

    def test_detects_inflated_density_bound(self):
        # claiming a 10x larger density bound shrinks epsilon and the
        # claimed tail until the true violation probability exposes it
        eps = dkw_confidence_width(1000, 0.05, 10.0)
        rep = validate_lemma3(Uniform(0, 1), 0.4, 1000, eps, p_lower=10.0)
        assert not rep.passed
        assert rep.empirical > rep.bound

    def test_no_slack_at_the_bound(self):
        # at t = 1000 the bound 2 e^{-2 t eps^2 p^2} crosses the exact
        # probability (about 5.56e-3) near p_lower = 1.263
        eps = dkw_confidence_width(1000, 0.05, 1.0)
        below = validate_lemma3(Uniform(0, 1), 0.4, 1000, eps, p_lower=1.25)
        above = validate_lemma3(Uniform(0, 1), 0.4, 1000, eps, p_lower=1.28)
        assert below.passed
        assert above.empirical > above.bound
        assert not above.passed

    def test_input_validation(self):
        # each refusal names its argument
        cases = [
            ("t", {"t": 0}),
            ("t", {"t": -3}),
            ("t", {"t": math.nan}),
            ("t", {"t": math.inf}),
            ("t", {"t": 2.5}),
            ("epsilon", {"epsilon": -1.0}),
            ("epsilon", {"epsilon": 0.0}),
            ("epsilon", {"epsilon": math.nan}),
            ("epsilon", {"epsilon": math.inf}),
            ("p_lower", {"p_lower": 0.0}),
            ("p_lower", {"p_lower": -1.0}),
            ("p_lower", {"p_lower": math.nan}),
            ("p_lower", {"p_lower": math.inf}),
        ]
        for name, change in cases:
            args = {"dist": Uniform(0, 1), "alpha": 0.4, "t": 100, "epsilon": 0.1} | change
            with pytest.raises(ValueError, match=f"^{name} must be"):
                validate_lemma3(**args)

    @pytest.mark.parametrize("alpha", [0.05, 0.4, 0.8, 1.0])
    @pytest.mark.parametrize("t", [1, 7, 10, 100, 1000])
    def test_exact_probability_matches_rational_sum(self, t, alpha):
        # the two binomial tails summed in exact rational arithmetic at the
        # same points: the log-term sum may lose only rounding
        k = int(_tail_start(t, alpha))
        for law in (Uniform(-1.0, 3.0), Uniform(0.0, 3.7)):
            for scale in (0.5, 1.0):
                eps = scale * dkw_confidence_width(t, 0.05, law.density_lower_bound)
                lo = (1.0 - alpha) - eps / law.width
                hi = (1.0 - alpha) + eps / law.width
                want = Fraction(0)
                if lo > 0.0:
                    want += binomial_tail(t, lo, k, t)
                if hi < 1.0:
                    want += binomial_tail(t, hi, 0, k - 1)
                got = validate_lemma3(law, alpha, t, eps).empirical
                assert abs(Fraction(got) - want) <= Fraction(1, 10**12) * want, (law, scale)

    # one draw, one term, and u at the ends of (0, 1); bounds are fractions of t
    @example(t=1, u=0.5, bounds=(0.0, 1.0))
    @example(t=1, u=5e-324, bounds=(1.0, 1.0))
    @example(t=1000, u=math.nextafter(1.0, 0.0), bounds=(0.0, 1.0))
    @example(t=1000, u=1e-300, bounds=(0.4, 0.4))
    @settings(max_examples=200, deadline=None)
    @given(
        t=st.integers(1, 2000),
        u=st.one_of(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            st.sampled_from([5e-324, 1e-300, 1e-12, 1.0 - 1e-12, math.nextafter(1.0, 0.0)]),
        ),
        bounds=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    )
    def test_binomial_tail_is_the_term_loop(self, t, u, bounds):
        # bit for bit: the same IEEE operations in the same order per term
        lo, hi = sorted(int(b * t) for b in bounds)
        log_factorials = np.array([math.lgamma(n + 1) for n in range(t + 1)])
        assert _binomial_tail(log_factorials, u, lo, hi) == binomial_tail_terms(t, u, lo, hi)

    @pytest.mark.parametrize("alpha", [0.05, 0.4, 1.0])
    @pytest.mark.parametrize("t", [1, 7, 1000])
    def test_one_matrix_frequency_within_binomial_error(self, t, alpha):
        # sample sizes on both sides of 2**16 draws, each from
        # default_rng(repeats): the simulated frequency is a binomial
        # proportion around the exact probability
        rows = max(1, 2**16 // t)
        for law in (Uniform(-1.0, 3.0), Uniform(0.0, 3.7)):
            eps = 0.5 * dkw_confidence_width(t, 0.05, law.density_lower_bound)
            exact = validate_lemma3(law, alpha, t, eps).empirical
            for repeats in (1, rows - 1, rows, rows + 1, 1000):
                rng = np.random.default_rng(repeats)
                freq = lemma3_one_matrix(law, alpha, t, repeats, eps, rng).empirical
                error = 2.0 * math.sqrt(exact * (1.0 - exact) / repeats)
                assert abs(freq - exact) <= error, (law, repeats, freq, exact)


class TestValidateLemma4:
    def test_exact_var_trace_sums_to_zero(self):
        trace = run_unbiased_baseline(GAME, ALPHAS, 50, seed=3)
        for agent in (0, 1):
            rep = lemma4(trace, agent)
            assert rep.empirical == 0.0
            assert rep.passed

    def test_single_episode_formula(self):
        trace = run_algorithm1(GAME, ALPHAS, 1, seed=4)
        gamma = 0.05
        agent = 0
        rep = lemma4(trace, agent, gamma=gamma)
        own = trace.actions[0, agent]
        L0 = 1.0 / own
        p = 1.0 / own
        proxy = (2.2 * L0 / ALPHAS[agent]) * abs(trace.nu[0, agent] - trace.nu_star[0, agent])
        bound = math.sqrt(2.0) * 2.2 * L0 / (ALPHAS[agent] * p) * math.sqrt(math.log(2.0 / gamma))
        assert rep.empirical == pytest.approx(proxy)
        assert rep.bound == pytest.approx(bound)
        assert "worst prefix ratio" in rep.detail and " at T'=1, " in rep.detail

    def test_learning_run_stays_under_bound(self):
        trace = run_algorithm1(GAME, ALPHAS, 400, seed=5)
        for agent in (0, 1):
            assert lemma4(trace, agent).passed

    def test_most_long_runs_pass(self, cournot_long_traces):
        # high-probability bound at gamma = 0.05: allow one failure in 20
        passes = sum(
            all(lemma4(t, agent).passed for agent in (0, 1))
            for t in cournot_long_traces[:20]
        )
        assert passes >= 19

    def test_unbounded_density_gives_na_row(self):
        # an own action of 0 leaves the cost density unbounded: no L0, no bound
        trace = run_algorithm1(GAME, ALPHAS, 5, seed=7)
        trace.actions[2, 0] = 0.0
        rep = lemma4(trace, 0)
        assert rep.passed is None
        assert math.isnan(rep.empirical) and math.isnan(rep.bound)
        assert rep.detail == "agent=0, cost-law width 0 at episode 3: the density is unbounded there"
        assert lemma4(trace, 1).passed is not None

    def test_zero_action_guard(self):
        trace = run_algorithm1(GAME, ALPHAS, 5, seed=8)
        trace.actions[2, 0] = 0.0
        with pytest.raises(ValueError, match="agent=0, cost-law width 0 at episode 3"):
            density_range(GAME, trace, 0)
        assert density_range(GAME, trace, 1)

    def test_cournot_density_range_is_own_action_range(self):
        # the Cournot cost law at x is U(c0, c0 + x_i): width x_i
        trace = run_algorithm1(GAME, ALPHAS, 200, seed=9)
        for agent in (0, 1):
            own = trace.actions[:, agent]
            assert density_range(GAME, trace, agent) == (1.0 / own.min(), 1.0 / own.max())

    def test_counterexample_density_range(self):
        # width (4a/3d) x_i x_{-i} * d = (4a/3) x_i x_{-i}
        game = QuadraticCounterexampleGame(a=2.0, b=1.0, c=0.0, d=0.5)
        trace = run_algorithm1(game, (0.5, 0.5), 50, eta=0.01, seed=10)
        widths = (8.0 / 3.0) * trace.actions[:, 0] * trace.actions[:, 1]
        L0, p_lower = density_range(game, trace, 0)
        assert L0 == pytest.approx(1.0 / widths.min(), rel=1e-12)
        assert p_lower == pytest.approx(1.0 / widths.max(), rel=1e-12)


class TestTraceValidation:
    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            RunTrace(
                actions=np.zeros((2, 2)),
                nu=np.zeros((3, 2)),
                nu_star=np.zeros((3, 2)),
                err_sq=None,
            )

    def test_negative_distances_rejected(self):
        with pytest.raises(ValueError):
            trace_with_errors([1.0, -0.5])

    def test_report_formatting(self):
        good = BoundReport("demo", 0.1, 0.5, True, "detail")
        bad = BoundReport("demo", 0.9, 0.5, False)
        assert "pass" in str(good) and "detail" in str(good)
        assert "FAIL" in str(bad)
        assert "n/a" in str(BoundReport("demo", math.nan, math.nan, None, "no bound"))
