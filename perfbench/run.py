"""riskgames benchmark: one workload at one seed, end to end or traced.

    python3 perfbench/run.py --workload reference --seed 0 --seconds 35 --trace 0

Run from the repository root. The benchmark writes the workload config
for the seed, then repeats a pass of the public pipeline, each in a
fresh process (``pipeline.py``), until the next pass would overrun
``--seconds``. Every pass is checked against the recorded outputs
(``check.py``). Each metric is the median of its samples over the
passes; times are scaled to the reference machine speed (``pipeline.py``)
and the unscaled medians go to standard error.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer breakdown of a traced ``workers=1`` run (see README.md). The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the environment. Exits 2 without a result if the package source is not
there or no pass completed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

from check import BundleCheck, load_fingerprints
from pipeline import REPORTS_PER_PASS
from workloads import WORKLOADS, episodes, workload_config

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

# The whole run must end well inside 180 s, whatever --seconds says.
HARD_LIMIT_S = 170.0


def declared_metrics() -> tuple[dict, dict]:
    """(end_to_end, per_layer) units by name, as declared in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
    }


def run_pass(config_path: str, work: str, traced: bool, timeout: float) -> tuple[dict | None, str]:
    """One pipeline pass in a fresh process group; (result or None, stderr)."""
    os.makedirs(work)
    cmd = [sys.executable, os.path.join(HERE, "pipeline.py"), "--config", config_path, "--work", work]
    if traced:
        cmd.append("--traced")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, HERE, env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        # pool workers share the child's process group; stop them with it
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        return None, f"pass timed out after {timeout:.0f} s\n{err}"
    result_path = os.path.join(work, "result.json")
    if proc.returncode != 0 or not os.path.exists(result_path):
        return None, f"pass exited with code {proc.returncode}\n{err}"
    with open(result_path, "r", encoding="utf-8") as fh:
        return json.load(fh), err


def pass_samples(result: dict, workload: str, traced: bool) -> dict | None:
    """Metric samples of one pass by name, or None if a timed stage did not finish."""
    if traced:
        layers = result.get("per_layer")
        return None if layers is None else {name: [value] for name, value in layers.items()}
    scaled = result["scaled"]
    if not all(k in scaled for k in ("run_wall_s", "run_wall_w2_s", "report_wall_s")):
        return None
    return {
        "setup_s": scaled["setup_s"],
        "run_wall_s": scaled["run_wall_s"],
        "run_wall_w2_s": scaled["run_wall_w2_s"],
        "episodes_per_s": [episodes(workload) / s for s in scaled["run_wall_s"]],
        "report_wall_s": scaled["report_wall_s"],
        "peak_rss_mb": [result["peak_rss_mb"]],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="riskgames benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    traced = bool(args.trace)

    if not os.path.isfile(os.path.join(SRC, "riskgames", "cli.py")):
        print(f"error: no riskgames source under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    units = per_layer if traced else end_to_end
    check = BundleCheck(args.workload, args.seed, load_fingerprints())

    started = time.monotonic()
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    samples: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    durations: list[float] = []
    try:
        config_path = os.path.join(work, "config.yaml")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(workload_config(args.workload, args.seed), fh)  # JSON is valid YAML
        while True:
            pass_start = time.monotonic()
            pass_dir = os.path.join(work, f"pass{len(durations)}")
            remaining = HARD_LIMIT_S - (pass_start - started)
            result, err = run_pass(config_path, pass_dir, traced, remaining)
            if result is None:
                reports = 1 if traced else REPORTS_PER_PASS
                ops = len(check.raw["algorithms"]) * check.raw["trials"] * 2 + reports
                check.attempted += ops
                check.failed += ops
                check.notes.append(err)
            else:
                for bundle in result["bundles"]:
                    check.trials(os.path.join(pass_dir, bundle["dir"]), bundle["error"])
                for entry in result["reports"]:
                    check.report(entry, os.path.join(pass_dir, entry["dir"]))
                for name, values in (pass_samples(result, args.workload, traced) or {}).items():
                    samples.setdefault(name, []).extend(values)
                for name, values in result["raw"].items():
                    raw.setdefault(name, []).extend(values)
                if traced and os.path.exists(os.path.join(pass_dir, "spans.npz")):
                    shutil.copyfile(
                        os.path.join(pass_dir, "spans.npz"),
                        os.path.join(WORK, f"spans-{args.workload}.npz"),
                    )
            shutil.rmtree(pass_dir, ignore_errors=True)
            durations.append(time.monotonic() - pass_start)
            elapsed = time.monotonic() - started
            typical = statistics.median(durations)
            if elapsed + typical > args.seconds or elapsed + 2 * typical > HARD_LIMIT_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for note in check.notes:
        print(note, file=sys.stderr)
    if not samples:
        print("error: no pass completed", file=sys.stderr)
        return 2
    undeclared = sorted(set(samples) - set(units))
    missing = sorted(set(units) - set(samples))
    if undeclared or missing:
        print(f"error: metrics undeclared {undeclared}, missing {missing}", file=sys.stderr)
        return 2

    metrics = {}
    print(f"{args.workload} seed={args.seed} passes={len(durations)}", file=sys.stderr)
    for name in units:
        value = statistics.median(samples[name])
        metrics[name] = {"value": value, "unit": units[name]}
        spread = f"[{min(samples[name]):.6g} .. {max(samples[name]):.6g}]"
        print(f"  {name:45s} {value:14.6g} {units[name]:6s} {spread}", file=sys.stderr)
    for name, values in raw.items():
        print(f"  unscaled {name:36s} {statistics.median(values):14.6g} s", file=sys.stderr)
    print("env " + json.dumps(environment()))
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
