"""Shared fixtures.

The two session fixtures below hold the expensive simulation output:
a 20-trial reference experiment (both algorithms, T = 5000) and a
50-seed batch of long Algorithm-1 runs (T = 10^4). They are built once
per session, in parallel, and reused by the learning, analysis, and
acceptance tests. Each worker plays its share of the runs as one
lockstep block of the rank engine, ``learning._run``, which the learning
tests hold equal to the replay oracle.
"""

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from riskgames.cli import run_experiment, validate_config
from riskgames.games import CournotGame
from riskgames.learning import _run

_WORKERS = min(4, os.cpu_count() or 1)

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

LONG_HORIZON = 10_000
LONG_SEED_COUNT = 50


def _long_block(keys):
    columns = [
        (np.random.SeedSequence(entropy=entropy, spawn_key=spawn_key), "algorithm1")
        for entropy, spawn_key in keys
    ]
    return _run(
        CournotGame(), (0.4, 0.8), LONG_HORIZON, None, np.array([0.5, 0.5]), None, columns
    )


@pytest.fixture(scope="session")
def reference_bundle(tmp_path_factory):
    """20 trials of both algorithms at T = 5000 on the Cournot game."""
    out = tmp_path_factory.mktemp("reference-bundle")
    config = validate_config(dict(REFERENCE_RAW_CONFIG))
    return run_experiment(config, out_dir=str(out), workers=_WORKERS)


@pytest.fixture(scope="session")
def cournot_long_traces():
    """50 seeded Algorithm-1 runs at T = 10^4."""
    seeds = np.random.SeedSequence(2024).spawn(LONG_SEED_COUNT)
    keys = [(s.entropy, s.spawn_key) for s in seeds]
    cuts = [LONG_SEED_COUNT * n // _WORKERS for n in range(_WORKERS + 1)]
    blocks = [keys[a:b] for a, b in zip(cuts, cuts[1:])]
    with ProcessPoolExecutor(max_workers=_WORKERS) as pool:
        return [trace for block in pool.map(_long_block, blocks) for trace in block]
