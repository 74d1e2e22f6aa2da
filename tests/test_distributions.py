import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riskgames.distributions import (
    Uniform,
    check_risk_level,
    dkw_confidence_width,
    empirical_var,
)
from riskgames.games import QuadraticCounterexampleGame
from riskgames.learning import _rank_tails

from oracle import empirical_var_cvar, exact_cvar, uniform_cvar

FOUR = np.array([1.0, 2.0, 3.0, 4.0])

samples_strategy = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=60,
)
alpha_strategy = st.floats(min_value=0.01, max_value=1.0)


def var_of(samples, alpha):
    return empirical_var(np.asarray(samples, dtype=float), alpha)


def cvar_of(samples, alpha):
    return empirical_var_cvar(np.asarray(samples, dtype=float), alpha)[1]


def rank_tails(values, alpha):
    """Per episode, the lowest tail draw, tail size and tail sum of the history so far."""
    return _rank_tails(np.array(values), alpha, None)


class TestEmpiricalDistribution:
    """The empirical law of a sample, through the estimators the pipeline uses."""

    def test_insert_keeps_order(self):
        # the lowest tail draw is the empirical VaR of the history so far
        values = [1.0, 3.0, 2.0]
        for alpha in (0.01, 0.5, 1.0):
            expected = [var_of(values[:t], alpha) for t in range(1, 4)]
            assert np.array_equal(rank_tails(values, alpha)[0], expected)
        assert np.array_equal(rank_tails(values, 0.01)[0], [1.0, 3.0, 3.0])

    def test_insert_keeps_duplicates(self):
        _, count, total = rank_tails([1.0, 1.0], 1.0)
        assert np.array_equal(count, [1, 2])
        assert np.array_equal(total, [1.0, 2.0])

    def test_edf_right_continuous_and_monotone(self):
        # VaR is the generalized inverse of the right-continuous EDF: it
        # falls as alpha grows, and at 1 - alpha = edf(2) = 0.5 the jump
        # at 2 already counts
        alphas = np.linspace(0.01, 1.0, 200)
        values = np.array([var_of(FOUR, a) for a in alphas])
        assert np.all(np.diff(values) <= 0)
        assert var_of(FOUR, 0.5) == 2.0
        assert var_of(FOUR, 0.5 - 1e-6) == 3.0

    def test_empty_distribution_raises(self):
        for estimator in (empirical_var, empirical_var_cvar):
            with pytest.raises(ValueError):
                estimator(np.array([]), 0.5)

    def test_var_order_statistic(self):
        assert var_of(FOUR, 0.5) == 2.0
        assert var_of(FOUR, 1.0) == 1.0  # 0-quantile is the minimum
        assert var_of(FOUR, 0.25) == 3.0
        assert var_of(FOUR, 0.75) == 1.0

    def test_var_risk_level_validation(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                var_of(FOUR, bad)
            with pytest.raises(ValueError):
                empirical_var_cvar(FOUR, bad)

    def test_cvar_hand_examples(self):
        # nu = 2, tail excess (0 + 0 + 1 + 2) / (0.5 * 4)
        assert empirical_var_cvar(FOUR, 0.5) == (2.0, 3.5)
        assert cvar_of(FOUR, 1.0) == 2.5  # the mean

    @given(samples=samples_strategy)
    @settings(max_examples=60)
    def test_edf_at_order_statistics(self, samples):
        # the k-th smallest of t distinct samples has edf k/t, so it is the
        # VaR at every level 1 - alpha in ((k - 1)/t, k/t]
        unique = sorted(set(samples))
        t = len(unique)
        for k, s in enumerate(unique, start=1):
            assert var_of(unique, 1.0 - (k - 0.5) / t) == s

    @given(samples=samples_strategy, alpha=alpha_strategy)
    @settings(max_examples=100)
    def test_cvar_dominates_var(self, samples, alpha):
        var, cvar = empirical_var_cvar(np.asarray(samples), alpha)
        assert cvar >= var

    @given(samples=samples_strategy, alphas=st.tuples(alpha_strategy, alpha_strategy))
    @settings(max_examples=100)
    def test_cvar_nonincreasing_in_alpha(self, samples, alphas):
        lo, hi = min(alphas), max(alphas)
        mean = float(np.mean(samples))
        assert cvar_of(samples, lo) >= cvar_of(samples, hi) - 1e-9 * (1 + abs(cvar_of(samples, hi)))
        assert cvar_of(samples, hi) >= mean - 1e-9 * (1 + abs(mean))

    @given(
        samples=samples_strategy,
        alpha=alpha_strategy,
        shift=st.floats(min_value=-1e3, max_value=1e3),
    )
    @settings(max_examples=100)
    def test_translation_invariance(self, samples, alpha, shift):
        shifted = np.asarray(samples) + shift
        assert var_of(shifted, alpha) == pytest.approx(var_of(samples, alpha) + shift, rel=1e-9, abs=1e-9)
        assert cvar_of(shifted, alpha) == pytest.approx(cvar_of(samples, alpha) + shift, rel=1e-9, abs=1e-9)

    @given(
        samples=samples_strategy,
        alpha=alpha_strategy,
        scale=st.floats(min_value=1e-3, max_value=1e3),
    )
    # a large VaR far below a CVaR near zero
    @example(samples=[5.960464477539063e-08, -384303.0], alpha=0.5, scale=349.25)
    # draws that nearly cancel: a CVaR near 1e-5 off draws near 1e5
    @example(samples=[1e5 + 6e-8, -1e5], alpha=1.0, scale=349.25)
    @settings(max_examples=100)
    def test_positive_homogeneity(self, samples, alpha, scale):
        scaled = np.asarray(samples) * scale
        assert var_of(scaled, alpha) == pytest.approx(scale * var_of(samples, alpha), rel=1e-9, abs=1e-9)
        # scaling rounds each draw by up to eps / 2 of its size, and the CVaR
        # is a mean of draws with weights summing to 1
        rounding = 2 * np.finfo(float).eps * scale * max(abs(v) for v in samples)
        assert cvar_of(scaled, alpha) == pytest.approx(
            scale * cvar_of(samples, alpha), rel=1e-9, abs=1e-9 + rounding
        )

    @given(samples=samples_strategy, alpha=alpha_strategy)
    @example(
        samples=[0.0, 763226.1559611962, -317411.22950268374, -328837.80588276335,
                 -554354.3159948781, -554359.0, -554352.0, 571142.0],
        alpha=0.7800064318737594,
    )
    # a CVaR in the subnormal range, where the quotient's rounding is absolute
    @example(samples=[0.0, 2.2250738585e-313], alpha=0.875)
    @settings(max_examples=80)
    def test_cvar_solves_variational_form(self, samples, alpha):
        # independent route: CVaR = min over nu of nu + sum((s - nu)_+) / (alpha t),
        # and the minimum of this piecewise-linear objective sits at a sample.
        # The reference is exact. The estimator rounds the sum of the draws
        # above nu and the final quotient, each by at most eps/2 of |nu| plus
        # the tail term, so (t + 2) eps of that bounds its error; but where
        # the quotient lands among the subnormals its rounding is up to half
        # their spacing, 2^-1075, whatever its size, so that term is added.
        # (A sum of floats that lands there is exact.)
        t = len(samples)
        exact_alpha = Fraction(alpha)
        exact = [Fraction(v) for v in samples]
        reference = min(
            nu + sum(max(v - nu, 0) for v in exact) / (exact_alpha * t) for nu in exact
        )
        nu, cvar = empirical_var_cvar(np.asarray(samples), alpha)
        tail = sum(max(v - nu, 0.0) for v in samples) / (alpha * t)
        scale = (t + 2) * np.finfo(float).eps * (abs(nu) + tail)
        assert abs(Fraction(cvar) - reference) <= Fraction(scale) + Fraction(1, 2**1075)

    def test_quantile_consistency_large_sample(self):
        # true 0.6-quantile of U(0,1) is 0.6; tail mean above it is 0.8
        rng = np.random.default_rng(42)
        var, cvar = empirical_var_cvar(rng.uniform(0, 1, 100_000), 0.4)
        assert abs(var - 0.6) < 0.01
        assert abs(cvar - 0.8) < 0.01


class TestRawArrayEstimators:
    def test_matches_class_route(self):
        # np.partition against a full sort of the same samples
        rng = np.random.default_rng(0)
        values = rng.normal(size=257)
        ordered = np.sort(values)
        for alpha in (0.05, 0.3, 0.5, 0.97, 1.0):
            k = max(1, math.ceil(257 * (1 - alpha) - 1e-9))
            nu = ordered[k - 1]
            var, cvar = empirical_var_cvar(values, alpha)
            assert var == nu
            assert cvar == pytest.approx(nu + (ordered[k - 1 :] - nu).sum() / (alpha * 257), rel=1e-12)
            assert empirical_var(values, alpha) == nu

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_var(np.array([]), 0.5)
        with pytest.raises(ValueError):
            empirical_var_cvar(np.array([]), 0.5)


class TestClosedForm:
    def test_uniform_var_cvar(self):
        assert (Uniform(0, 1).var(0.4), uniform_cvar(Uniform(0, 1), 0.4)) == (0.6, 0.8)
        assert (Uniform(0, 1).var(1.0), uniform_cvar(Uniform(0, 1), 1.0)) == (0.0, 0.5)
        for d in (0.5, 1.0, 3.0):
            assert Uniform(0, d).var(0.5) == pytest.approx(0.5 * d)
            assert uniform_cvar(Uniform(0, d), 0.5) == pytest.approx(0.75 * d)

    def test_scaled_uniform_is_affine_uniform(self):
        # the cost c0 + s xi of an affine-noise game, xi ~ U(0, d), is
        # U(c0, c0 + s d): the derived closed forms are that law's
        game = QuadraticCounterexampleGame(a=2.0, b=1.5, c=0.3, d=0.7)
        x = np.array([0.4, 1.1])
        for agent in (0, 1):
            c0, s = game.cost_line(agent, x)
            law = Uniform(c0, c0 + s * 0.7)
            for alpha in (0.2, 0.5, 1.0):
                assert game.exact_var(agent, x, alpha) == pytest.approx(law.var(alpha), abs=1e-12)
                assert exact_cvar(game, agent, x, alpha) == pytest.approx(uniform_cvar(law, alpha), abs=1e-12)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Uniform(1.0, 1.0)
        with pytest.raises(ValueError):
            Uniform(0.0, math.inf)

    def test_density_lower_bound(self):
        assert Uniform(0, 1).density_lower_bound == 1.0
        assert Uniform(0, 4).density_lower_bound == 0.25

    @pytest.mark.parametrize(
        "dist",
        [Uniform(0, 1), Uniform(2, 5), Uniform(-1.0, 1.5)],
    )
    def test_estimators_converge_to_closed_form(self, dist):
        # 100 seeded repeats at t = 1e5; the estimate should sit within
        # 0.01 of the closed form essentially always
        rng = np.random.default_rng(123)
        hits = 0
        for _ in range(100):
            values = dist.sample(rng, 100_000)
            var, cvar = empirical_var_cvar(values, 0.4)
            hits += abs(var - dist.var(0.4)) < 0.01 and abs(cvar - uniform_cvar(dist, 0.4)) < 0.01
        assert hits >= 95


class TestDkwWidth:
    def test_reference_value(self):
        # inversion of 2 exp(-2 t eps^2 p^2) = gamma at t=1000, gamma=0.05, p=1
        eps = dkw_confidence_width(1000, 0.05, 1.0)
        assert eps == pytest.approx(0.042947, abs=1e-5)
        # round trip through the tail formula
        assert 2.0 * math.exp(-2.0 * 1000 * eps**2) == pytest.approx(0.05, rel=1e-12)

    def test_sample_size_scaling(self):
        eps = dkw_confidence_width(500, 0.1, 1.0)
        assert dkw_confidence_width(2000, 0.1, 1.0) == pytest.approx(eps / 2)

    def test_density_scaling(self):
        eps = dkw_confidence_width(500, 0.1, 1.0)
        assert dkw_confidence_width(500, 0.1, 0.5) == pytest.approx(2 * eps)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            dkw_confidence_width(0, 0.05, 1.0)
        with pytest.raises(ValueError):
            dkw_confidence_width(100, 1.5, 1.0)
        with pytest.raises(ValueError):
            dkw_confidence_width(100, 0.05, 0.0)
        # a non-finite t or p_lower would give nan, or a width of 0.0
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="sample size t"):
                dkw_confidence_width(bad, 0.05, 1.0)
            with pytest.raises(ValueError, match="p_lower"):
                dkw_confidence_width(100, 0.05, bad)
        with pytest.raises(ValueError, match="gamma_bar"):
            dkw_confidence_width(100, math.nan, 1.0)


def test_check_risk_level():
    assert check_risk_level(1) == 1.0
    with pytest.raises(ValueError):
        check_risk_level(0.0)
    with pytest.raises(ValueError):
        check_risk_level(1.0001)
