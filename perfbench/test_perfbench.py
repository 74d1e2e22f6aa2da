"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import re
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pipeline  # noqa: E402
from check import fingerprint_episodes, trial_fingerprint, trial_matches  # noqa: E402
from run import declared_metrics, pass_samples  # noqa: E402
from tracing import Tracer, per_layer_metrics, self_times  # noqa: E402

from riskgames import cli  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

SMALL = {
    "game": "cournot",
    "alphas": [0.4, 0.8],
    "T": 50,
    "trials": 1,
    "seed": 3,
    "algorithms": ["algorithm1", "unbiased-fo"],
    "x0": [0.5, 0.5],
}


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    np.testing.assert_allclose(self_times(start, end, parent), [3.0, 2.0, 1.0, 4.0])
    # tracer cost around b ([4.5, 5] and [9, 9.5]) belongs to neither root nor b
    enter = [0.0, 1.0, 2.0, 4.5]
    leave = [10.0, 4.0, 3.0, 9.5]
    np.testing.assert_allclose(self_times(start, end, parent, enter, leave), [2.0, 2.0, 1.0, 4.0])


def test_output_check_flags_a_perturbed_trial(tmp_path):
    bundle = cli.run_experiment(cli.validate_config(dict(SMALL)), out_dir=str(tmp_path / "b"))
    path = bundle.trial_paths[("algorithm1", 0)]
    expected = trial_fingerprint(path, SMALL["T"])
    assert trial_matches(path, SMALL["T"], expected)

    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    row = fingerprint_episodes(SMALL["T"])[2]
    cells = lines[row].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    lines[row] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    assert not trial_matches(path, SMALL["T"], expected)


@pytest.mark.parametrize("traced", [False, True])
def test_emitted_names_are_declared(tmp_path, traced):
    config_path = tmp_path / "config.yaml"
    config_path.write_text(json.dumps(SMALL))
    argv = ["--config", str(config_path), "--work", str(tmp_path / "work")]
    assert pipeline.main(argv + (["--traced"] if traced else [])) == 0
    with open(tmp_path / "work" / "result.json", encoding="utf-8") as fh:
        result = json.load(fh)
    assert all(b["error"] is None for b in result["bundles"])

    emitted = pass_samples(result, "reference", traced)
    end_to_end, per_layer = declared_metrics()
    assert set(emitted) == set(per_layer if traced else end_to_end)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]] + list(end_to_end) + list(per_layer)
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))


def test_cost_batch_rows_count_the_replayed_history(tmp_path):
    config = cli.validate_config({**SMALL, "algorithms": ["algorithm1"]})
    tracer = Tracer()
    with tracer.patched():
        begin = time.perf_counter()
        cli.run_experiment(config, out_dir=str(tmp_path / "b"))
        end = time.perf_counter()
    layers = per_layer_metrics(tracer, begin, end)
    assert layers["games.cost_batch.rows"] == 2 * sum(range(1, 51))
    assert layers["games.cost_batch.calls"] == 2 * 50
    # the wrappers are gone once the block ends
    assert cli.run_algorithm1.__module__ == "riskgames.learning"
