"""The benchmark's span tracer (perfbench/tracing.py) patches these names.

It looks each one up as ``vars(owner)[attr]``, so a name that moves to a
base class or another module makes a traced benchmark run fail with a
KeyError. This guard fails first, in the test suite.
"""

import pytest

from riskgames import analysis, cli, games, learning

TRACED = [
    (games.CournotGame, "cost_batch"),
    (games.CournotGame, "grad_batch"),
    (games.CournotGame, "sample_noise"),
    (games.CournotGame, "exact_var"),
    (games.Box, "project"),
    (learning, "empirical_var"),
    (learning, "cvar_gradient_estimate"),
    (learning, "unbiased_cvar_gradient"),
    (cli, "run_algorithm1"),
    (cli, "run_unbiased_baseline"),
    (cli, "write_trace_csv"),
    (cli, "write_aggregate_csv"),
    (cli, "read_trace_csv"),
    (cli, "compute_reports"),
    (cli, "emit_plot"),
    (cli, "validate_lemma3"),
    (cli, "validate_lemma4"),
    (cli, "fit_rate"),
    (analysis.AggregateTrace, "from_series"),
]


@pytest.mark.parametrize("owner,attr", TRACED, ids=[f"{o.__name__}.{a}" for o, a in TRACED])
def test_traced_name_lives_on_its_owner(owner, attr):
    assert attr in vars(owner)
    assert callable(getattr(owner, attr))
