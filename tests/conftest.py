"""Shared fixtures.

The two session fixtures below hold the expensive simulation output:
a 20-trial reference experiment (both algorithms, T = 5000) and a
50-seed batch of long Algorithm-1 runs (T = 10^4). They are built once
per session, in parallel, and reused by the learning, analysis, and
acceptance tests. Both go through the experiment runner's scheduler:
each pool task plays one run on the rank engine, ``learning._run``,
which the learning tests hold equal to the replay oracle.
"""

import pytest

from riskgames.cli import _run_trials, _usable_cpus, run_experiment, validate_config

_WORKERS = min(4, _usable_cpus())

REFERENCE_RAW_CONFIG = {
    "game": "cournot",
    "alphas": [0.4, 0.8],
    "T": 5000,
    "trials": 20,
    "seed": 0,
    "eta": "auto",
    "algorithms": ["algorithm1", "unbiased-fo"],
    "x0": [0.5, 0.5],
}

LONG_RAW_CONFIG = {
    "game": "cournot",
    "T": 10_000,
    "trials": 50,
    "seed": 2024,
    "algorithms": ["algorithm1"],
}


@pytest.fixture(scope="session")
def reference_bundle(tmp_path_factory):
    """20 trials of both algorithms at T = 5000 on the Cournot game."""
    out = tmp_path_factory.mktemp("reference-bundle")
    config = validate_config(dict(REFERENCE_RAW_CONFIG))
    return run_experiment(config, out_dir=str(out), workers=_WORKERS)


@pytest.fixture(scope="session")
def cournot_long_traces():
    """50 seeded Algorithm-1 runs at T = 10^4."""
    config = validate_config(dict(LONG_RAW_CONFIG))
    columns = [("algorithm1", idx) for idx in range(config.trials)]
    return list(_run_trials(config, columns, _WORKERS))
