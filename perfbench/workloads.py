"""Benchmark workloads: riskgames experiment configs, seeded by the caller.

All three play Cournot at alpha = (0.4, 0.8) from x0 = (0.5, 0.5) with
the horizon-tuned step and the exact EDF; they differ in which layer
dominates the run. Sizes are chosen so that one pass of the pipeline
(a workers=1 run, the report, a workers=2 run) takes a few seconds on
2 CPUs, which leaves room for several passes per run and a median.
"""

from __future__ import annotations

_COMMON = {
    "game": "cournot",
    "alphas": [0.4, 0.8],
    "eta": "auto",
    "edf": "exact",
    "x0": [0.5, 0.5],
}

WORKLOADS = {
    # The ROADMAP reference config and the reference_bundle fixture with the
    # trial count cut from 20: moderate trials of both algorithms, where
    # trial batching, pool scaling and trace CSV write/read show.
    "reference": {**_COMMON, "T": 5000, "trials": 2, "algorithms": ["algorithm1", "unbiased-fo"]},
    # No window: the O(T^2) history replay dominates. A rank-indexed
    # estimator must show here; lockstep and CSV changes should not.
    "long-horizon": {**_COMMON, "T": 7000, "trials": 2, "algorithms": ["algorithm1"]},
    # A short sliding history: per-episode Python overhead and output I/O
    # dominate, and the estimator evicts as well as grows.
    "windowed": {
        **_COMMON,
        "T": 10000,
        "trials": 1,
        "window": 100,
        "algorithms": ["algorithm1", "unbiased-fo"],
    },
}


def workload_config(name: str, seed: int) -> dict:
    """The raw config document for one workload at one seed."""
    return {**WORKLOADS[name], "seed": seed}


def episodes(name: str) -> int:
    """Episodes played by one run: trials x algorithms x T."""
    raw = WORKLOADS[name]
    return raw["trials"] * len(raw["algorithms"]) * raw["T"]
