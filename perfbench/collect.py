"""Repeat the benchmark over seeds and summarise the spread of each metric.

    python3 perfbench/collect.py --runs 10 [--workloads reference,windowed] [--out FILE]

Run from the repository root. For each workload it runs ``run.py`` once
per seed (1..runs) untraced, then once traced at seed 0, and reports per
end-to-end metric the median, the quartiles and the spread: the distance
between the quartiles as a share of the median, which must stay within
the metric's bound. With ``--out`` the summary, the environment and the
raw values are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result, environment) of one run.py invocation."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[-2].removeprefix("env "))
    return json.loads(lines[-1]), env


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else None}


def design_shares(layers: dict) -> dict:
    """The traced figures that say whether a workload stresses what it should."""
    # the traced run less the tracer's own cost, i.e. the run the layers cover
    run_s = layers["trace.run_s"] - layers["trace.wrapper_s"]
    replay = (layers["learning.cvar_gradient_estimate.self_s"] + layers["distributions.empirical_var.s"]
              + layers["games.cost_batch.s"] + layers["games.grad_batch.s"])
    return {
        "rows_per_call": layers["games.cost_batch.rows"] / layers["games.cost_batch.calls"],
        "replay_share": replay / run_s,
        "loop_and_csv_share": (layers["learning.run.self_s"] + layers["cli.write_trace_csv.s"]) / run_s,
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs, env = [], None
        for seed in range(1, args.runs + 1):
            result, env = bench(workload, seed, spec["run_seconds"], 0)
            runs.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), file=sys.stderr)
        traced, _ = bench(workload, 0, spec["run_seconds"], 1)
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "per_layer_failed": traced["failed"],
        }
        entry["design"] = design_shares(entry["per_layer"])
        print(f"{workload} traced: {entry['design']}", file=sys.stderr)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            stats = summary(values)
            stats["bound"] = bound
            stats["values"] = values
            entry["end_to_end"][name] = stats
            flag = "" if stats["spread"] <= bound / 3 else "  <-- above bound/3"
            if name != "setup_s" and stats["spread"] > bound:
                steady = False
            print(f"{workload:13s} {name:15s} median {stats['median']:.5g} spread {stats['spread']:.3f} "
                  f"(bound {bound}){flag}", file=sys.stderr)
        report["workloads"][workload] = entry
        report["environment"] = env

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
