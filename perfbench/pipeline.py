"""One pass of the riskgames pipeline, in a fresh process.

    python3 perfbench/pipeline.py --config CFG --work DIR [--traced]

Needs ``src`` on the import path (``run.py`` sets it). Times the set-up
(import, ``load_config``, bundle directory), a ``workers=1`` run, the
``report`` subcommand on that bundle and a ``workers=2`` run, and writes
them to ``DIR/result.json``. With ``--traced`` the ``workers=2`` run is
replaced by a second ``workers=1`` run and its report under the span
tracer, and the per-layer metrics go into the result instead.

Every timed stage is bracketed by a speed probe, and its time is also
given scaled to the reference speed (see ``scaled``). A stage that
raises is recorded with its traceback and the pass goes on, so the
caller can count the failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

# The report takes a fraction of a second, so one pass times it repeatedly.
REPORTS_PER_PASS = 3

# ``probe()`` on an idle 2-vCPU Intel Xeon VM.
PROBE_REFERENCE_S = 0.0034


def probe() -> float:
    """Median of seven runs of a fixed pure-Python loop.

    On a shared host, other tenants' load slows a vCPU by up to half, in
    bursts of milliseconds to minutes (CPU time tracks wall time, so the
    slowdown is in the core, not the scheduler). The loop measures how fast
    this process's core runs right now; it touches nothing of the program.
    """
    times = []
    for _ in range(7):
        begin = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i
        times.append(time.perf_counter() - begin)
    return sorted(times)[3]


def probe_each(cpus) -> float:
    """Mean of ``probe`` pinned to each CPU, for a stage that runs on all of them."""
    here = os.sched_getaffinity(0)
    speeds = []
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        speeds.append(probe())
    os.sched_setaffinity(0, here)
    return sum(speeds) / len(speeds)


def scaled(raw_s: float, before: float, after: float) -> float:
    """A stage's wall time at the reference speed, from the probes around it."""
    return raw_s * PROBE_REFERENCE_S / ((before + after) / 2.0)


def _read(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    # The single-process stages stay on one vCPU, so that the probes around
    # a stage measure the core the stage ran on.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    before = probe()
    start = time.perf_counter()
    from riskgames import cli

    config = cli.load_config(args.config)
    run_dir = os.path.join(args.work, "run")
    os.makedirs(run_dir)
    setup_s = time.perf_counter() - start

    result = {"bundles": [], "reports": [], "raw": {}, "scaled": {}}
    outputs = {}  # key -> (OutputBundle, start, end)

    def record(key, raw_s, probe_before, speed=probe):
        result["raw"].setdefault(key, []).append(raw_s)
        result["scaled"].setdefault(key, []).append(scaled(raw_s, probe_before, speed()))

    record("setup_s", setup_s, before)

    def run(out_dir, workers, key):
        entry = {"dir": os.path.basename(out_dir), "workers": workers, "error": None}
        speed = probe if workers == 1 else lambda: probe_each(cpus)
        try:
            before = speed()
            begin = time.perf_counter()
            bundle = cli.run_experiment(config, out_dir=out_dir, workers=workers)
            end = time.perf_counter()
            record(key, end - begin, before, speed)
            outputs[key] = (bundle, begin, end)
        except Exception:
            entry["error"] = traceback.format_exc()
        result["bundles"].append(entry)

    def reports(bundle_dir, key, count):
        """Run ``report`` on a bundle ``count`` times; each entry keeps the run's bounds."""
        bounds = os.path.join(bundle_dir, "bounds.csv")
        run_bounds = _read(bounds) if os.path.exists(bounds) else None
        for _ in range(count):
            entry = {"dir": os.path.basename(bundle_dir), "bounds_before": run_bounds,
                     "bounds_after": None, "exit": None, "error": None}
            try:
                before = probe()
                begin = time.perf_counter()
                entry["exit"] = cli.main(["report", "--bundle", bundle_dir])
                record(key, time.perf_counter() - begin, before)
                entry["bounds_after"] = _read(bounds)
            except Exception:
                entry["error"] = traceback.format_exc()
            result["reports"].append(entry)

    run(run_dir, 1, "run_wall_s")

    if not args.traced:
        reports(run_dir, "report_wall_s", REPORTS_PER_PASS)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        os.sched_setaffinity(0, cpus)
        run(os.path.join(args.work, "w2"), 2, "run_wall_w2_s")
    else:
        import pickle

        from tracing import Tracer, per_layer_metrics

        traced_dir = os.path.join(args.work, "traced")
        tracer = Tracer()
        with tracer.patched():
            run(traced_dir, 1, "traced_run_wall_s")
            reports(traced_dir, "traced_report_wall_s", 1)
        if "traced_run_wall_s" in outputs and "run_wall_s" in outputs:
            bundle, begin, end = outputs["traced_run_wall_s"]
            layers = per_layer_metrics(tracer, begin, end)
            traces = [t for ts in bundle.traces.values() for t in ts]
            layers["cli.pool.result_bytes"] = sum(len(pickle.dumps(t)) for t in traces)
            layers["trace.run_s"] = end - begin
            untraced = result["scaled"]["run_wall_s"][0]
            layers["trace.overhead_ratio"] = result["scaled"]["traced_run_wall_s"][0] / untraced - 1.0
            result["per_layer"] = layers
        tracer.save(os.path.join(args.work, "spans.npz"))
        os.sched_setaffinity(0, cpus)

    with open(os.path.join(args.work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
