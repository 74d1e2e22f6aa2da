"""Acceptance suite.

One test per exit criterion, each enforcing its stated tolerance and
printing a single PASS/FAIL line with the measured quantities (visible
on the terminal even under output capture).
"""

import numpy as np
import pytest

from riskgames.analysis import fit_rate, time_averaged_error, validate_lemma3
from riskgames.cli import _aggregate, main
from riskgames.distributions import Uniform, dkw_confidence_width
from riskgames.games import CournotGame, QuadraticCounterexampleGame
from riskgames.learning import unbiased_cvar_gradient

from oracle import (
    decomposition_check,
    empirical_var_cvar,
    exact_risk_averse_gradient,
    lemma3_one_matrix,
    monotonicity_probe,
)

TARGET = np.array([0.2667, 0.4667])
ALPHAS = (0.4, 0.8)


@pytest.fixture
def announce(capsys):
    def _announce(label, ok, detail):
        with capsys.disabled():
            print(f"{label} {'PASS' if ok else 'FAIL'}: {detail}")
        return ok

    return _announce


def final_distances(bundle, algorithm):
    return np.array(
        [np.linalg.norm(t.actions[-1] - TARGET) for t in bundle.traces[algorithm]]
    )


def test_a1_equilibrium_convergence(reference_bundle, announce):
    # 20 trials, T = 5000, eta = (1/2.2) T^{-1/2}, x0 = (0.5, 0.5)
    mean_final = float(final_distances(reference_bundle, "algorithm1").mean())
    ok = mean_final < 0.05
    assert announce(
        "A1", ok, f"mean final distance to (0.2667, 0.4667) = {mean_final:.4f} < 0.05"
    )


def test_a2_algorithm_ordering(reference_bundle, announce):
    # the exact-VaR baseline ends at or below the estimator (within 0.02)
    # and the gap between the mean squared-error curves shrinks with t
    sq1 = _aggregate(reference_bundle.traces["algorithm1"])["err_sq"].mean
    squ = _aggregate(reference_bundle.traces["unbiased-fo"])["err_sq"].mean
    ordering = squ[-1] <= sq1[-1] + 0.02
    gap_100 = abs(sq1[99] - squ[99])
    gap_final = abs(sq1[-1] - squ[-1])
    shrinking = gap_final < gap_100
    ok = ordering and shrinking
    assert announce(
        "A2",
        ok,
        f"final mean sq error unbiased {squ[-1]:.2e} vs algorithm1 {sq1[-1]:.2e}; "
        f"curve gap {gap_100:.2e} at t=100 -> {gap_final:.2e} at t=5000",
    )


def test_a3_estimator_oracle(announce):
    # 100 repeats of 1e5 uniform draws; VaR -> 0.6 and CVaR -> 0.8
    rng = np.random.default_rng(3)
    hits = 0
    for _ in range(100):
        values = rng.uniform(0.0, 1.0, 100_000)
        var, cvar = empirical_var_cvar(values, 0.4)
        hits += abs(var - 0.6) < 0.01 and abs(cvar - 0.8) < 0.01
    ok = hits >= 95
    assert announce("A3", ok, f"{hits}/100 repeats within 0.01 of (0.6, 0.8)")


def test_a4_var_concentration(announce):
    # violation frequency of the DKW-derived width at t=1000 stays within
    # two binomial standard errors of the 0.05 tail bound, and the exact
    # violation probability stays at or below the bound itself
    eps = dkw_confidence_width(1000, 0.05, 1.0)
    simulated = lemma3_one_matrix(
        Uniform(0.0, 1.0), 0.4, 1000, 1000, eps, np.random.default_rng(7)
    )
    report = validate_lemma3(Uniform(0.0, 1.0), 0.4, 1000, eps)
    ok = (
        simulated.passed
        and simulated.empirical <= 0.05 + 0.014
        and report.passed
        and report.empirical <= 0.05
    )
    assert announce(
        "A4",
        ok,
        f"violation frequency {simulated.empirical:.4f} <= 0.064 and probability "
        f"{report.empirical:.4g} <= 0.05 at eps={eps:.4f}",
    )


def test_a5_convergence_rate(cournot_long_traces, announce):
    # log-log slope of the 20-seed mean time-averaged squared error
    traces = cournot_long_traces[:20]
    series = np.mean([time_averaged_error(t) for t in traces], axis=0)
    slope = fit_rate(series, (100, 10_000))
    ok = slope <= -0.4
    assert announce("A5", ok, f"rate slope over [1e2, 1e4] = {slope:.3f} <= -0.4")


def test_a6_gradient_identity(announce):
    # at five random profiles with coordinates in [0.1, 1], the Monte
    # Carlo tail-average gradient (exact VaR, 1e6 fresh draws) matches
    # the closed form within 1%, and a central finite difference of the
    # Monte Carlo CVaR (1e7 common draws, h = 1e-3) within 3%
    game = CournotGame()
    rng = np.random.default_rng(13)
    profiles = rng.uniform(0.1, 1.0, size=(5, 2))
    worst_mc, worst_fd = 0.0, 0.0
    h = 1e-3
    for x in profiles:
        for agent in (0, 1):
            alpha = ALPHAS[agent]
            exact = exact_risk_averse_gradient(game, agent, x, alpha)
            xi = rng.uniform(0.0, 1.0, size=1_000_000)
            estimate = unbiased_cvar_gradient(game, agent, x, xi, alpha)
            worst_mc = max(worst_mc, abs(estimate.g - exact) / abs(exact))
            xi_common = rng.uniform(0.0, 1.0, size=10_000_000)
            x_up, x_dn = x.copy(), x.copy()
            x_up[agent] += h
            x_dn[agent] -= h
            _, cvar_up = empirical_var_cvar(game.cost_batch(agent, x_up, xi_common), alpha)
            _, cvar_dn = empirical_var_cvar(game.cost_batch(agent, x_dn, xi_common), alpha)
            fd = (cvar_up - cvar_dn) / (2 * h)
            worst_fd = max(worst_fd, abs(fd - exact) / abs(exact))
    ok = worst_mc < 0.01 and worst_fd < 0.03
    assert announce(
        "A6",
        ok,
        f"worst relative error: Monte Carlo {worst_mc:.3%} < 1%, "
        f"finite difference {worst_fd:.3%} < 3%",
    )


def test_a7_monotonicity_contrast(announce):
    cournot = CournotGame()
    counter = QuadraticCounterexampleGame(a=1.0, b=1.0, c=0.0, d=1.0)
    m_hat = monotonicity_probe(
        cournot,
        ALPHAS,
        10_000,
        np.random.default_rng(1),
    )
    ratio = monotonicity_probe(
        counter,
        (0.5, 0.5),
        2_000,
        np.random.default_rng(2),
        direction=np.array([1.0, -1.0]),
    )
    rng = np.random.default_rng(8)
    decomp_ok = (
        decomposition_check(cournot, 200, rng) is True
        and decomposition_check(counter, 200, rng) is False
    )
    ok = 0.95 <= m_hat <= 1.05 and abs(ratio) < 1e-6 and decomp_ok
    assert announce(
        "A7",
        ok,
        f"m_hat {m_hat:.4f} in [0.95, 1.05]; degenerate-direction ratio {ratio:.2e} < 1e-6; "
        f"decomposition split detected correctly: {decomp_ok}",
    )


def test_a8_reproducible_runs(tmp_path, announce):
    import yaml

    config = {"game": "cournot", "T": 300, "trials": 3, "seed": 11}
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    out1, out2 = tmp_path / "one", tmp_path / "two"
    assert main(["run", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(path), "--out", str(out2)]) == 0
    agg1 = (out1 / "aggregate.csv").read_bytes()
    agg2 = (out2 / "aggregate.csv").read_bytes()
    trials_equal = all(
        (out1 / "trials" / p.name).read_bytes() == p.read_bytes()
        for p in (out2 / "trials").iterdir()
    )
    ok = agg1 == agg2 and trials_equal
    assert announce(
        "A8", ok, "identical configs produced byte-identical aggregate and trial CSVs"
    )
