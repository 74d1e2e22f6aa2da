"""Output check for benchmark bundles, and the fingerprints it compares to.

A trial passes when its CSV has one finite row per episode and, for a
seed with a recorded fingerprint, every column matches the fingerprint
to 1e-9 absolute at log-spaced episodes (powers of 4) and the final
row. The tolerance admits the ~2e-15 drift a reordered but equivalent
estimator produces. For other seeds only the A1-style properties are
checked: Algorithm 1's mean final distance to x* is below 0.05 (else
its trials fail), and every bound that passes at seed 0 passes.

A report passes when it exits 0 and its recomputed bounds equal the
run's: same rows and verdicts, numbers within 1e-9 relative, and, for
a fingerprinted seed, the recorded ``passed`` column.

Record fingerprints of the current code (run from the repository root):

    python3 perfbench/check.py --record
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import shutil
import sys

from workloads import WORKLOADS, workload_config

HERE = os.path.dirname(os.path.abspath(__file__))
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
RECORDED_SEEDS = (0, 1, 2, 3)
TOLERANCE = 1e-9
A1_MAX_FINAL_DISTANCE = 0.05


def trial_filename(algorithm: str, index: int) -> str:
    # Mirrors cli.trial_filename: the check reads bundles without importing
    # the package whose outputs it checks.
    return f"{algorithm}-trial{index:03d}.csv"


def fingerprint_episodes(horizon: int) -> list[int]:
    episodes, t = [], 1
    while t < horizon:
        episodes.append(t)
        t *= 4
    return episodes + [horizon]


def read_trial(path, horizon: int) -> tuple[list[str], list[list[float]]]:
    """Header and rows of a trial CSV; raises ValueError if malformed."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    if len(rows) != horizon:
        raise ValueError(f"{path}: {len(rows)} rows, expected {horizon}")
    for t, row in enumerate(rows, start=1):
        if len(row) != len(header) or row[0] != t or not all(math.isfinite(v) for v in row):
            raise ValueError(f"{path}: bad row at episode {t}")
    return header, rows


def trial_fingerprint(path, horizon: int) -> dict:
    header, rows = read_trial(path, horizon)
    episodes = fingerprint_episodes(horizon)
    return {"header": header, "episodes": episodes, "rows": [rows[t - 1] for t in episodes]}


def trial_matches(path, horizon: int, expected: dict | None) -> bool:
    """True when the trial CSV is sane and, if given, matches its fingerprint."""
    try:
        header, rows = read_trial(path, horizon)
    except (OSError, ValueError):
        return False
    if expected is None:
        return True
    if header != expected["header"] or expected["episodes"] != fingerprint_episodes(horizon):
        return False
    for t, want in zip(expected["episodes"], expected["rows"]):
        if any(abs(a - b) > TOLERANCE for a, b in zip(rows[t - 1], want)):
            return False
    return True


def parse_bounds(text: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["name", "empirical", "bound", "passed", "detail"]:
        raise ValueError("not a bounds.csv")
    return rows[1:]


def bounds_agree(before: list[list[str]], after: list[list[str]]) -> bool:
    if len(before) != len(after):
        return False
    for a, b in zip(before, after):
        if (a[0], a[3], a[4]) != (b[0], b[3], b[4]):
            return False
        for x, y in ((float(a[1]), float(b[1])), (float(a[2]), float(b[2]))):
            if not math.isclose(x, y, rel_tol=TOLERANCE, abs_tol=TOLERANCE):
                return False
    return True


def load_fingerprints(path=FINGERPRINTS) -> dict:
    """Recorded fingerprints, refused if a workload changed since recording."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    for name, raw in WORKLOADS.items():
        if data["workloads"].get(name, {}).get("config") != raw:
            raise ValueError(f"fingerprints for workload {name!r} are stale; re-record them")
    return data


class BundleCheck:
    """Counts operations and failures for one workload at one seed."""

    def __init__(self, workload: str, seed: int, fingerprints: dict):
        self.raw = workload_config(workload, seed)
        recorded = fingerprints["workloads"][workload]["seeds"]
        self.expected = recorded.get(str(seed))
        self.default_passed = recorded["0"]["passed"]
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def _fail(self, count: int, note: str):
        self.failed += count
        self.notes.append(note)

    def trials(self, bundle_dir: str, error: str | None) -> None:
        """Check every trial CSV of one run; a run that raised fails them all."""
        raw = self.raw
        names = [trial_filename(a, i) for a in raw["algorithms"] for i in range(raw["trials"])]
        self.attempted += len(names)
        if error is not None:
            self._fail(len(names), f"run in {bundle_dir} raised:\n{error}")
            return
        for name in names:
            expected = None if self.expected is None else self.expected["trials"][name]
            if not trial_matches(os.path.join(bundle_dir, "trials", name), raw["T"], expected):
                self._fail(1, f"{bundle_dir}/trials/{name} failed the output check")
        if self.expected is None:
            self._check_a1(bundle_dir)

    def _check_a1(self, bundle_dir: str) -> None:
        names = [trial_filename("algorithm1", i) for i in range(self.raw["trials"])]
        if "algorithm1" not in self.raw["algorithms"]:
            return
        try:
            finals = []
            for name in names:
                header, rows = read_trial(os.path.join(bundle_dir, "trials", name), self.raw["T"])
                finals.append(math.sqrt(rows[-1][header.index("err_sq")]))
        except (OSError, ValueError):
            return  # already counted by the per-trial check
        mean = sum(finals) / len(finals)
        if not mean < A1_MAX_FINAL_DISTANCE:
            self._fail(len(names), f"{bundle_dir}: mean final distance {mean:.4g} >= {A1_MAX_FINAL_DISTANCE}")

    def report(self, entry: dict, bundle_dir: str) -> None:
        """Check one ``report`` call against the bounds its run wrote."""
        self.attempted += 1
        if entry["error"] is not None or entry["exit"] != 0:
            self._fail(1, f"report on {bundle_dir} failed: {entry['error'] or entry['exit']}")
            return
        try:
            before = parse_bounds(entry["bounds_before"] or "")
            after = parse_bounds(entry["bounds_after"] or "")
        except ValueError as exc:
            self._fail(1, f"report on {bundle_dir}: {exc}")
            return
        passed = [row[3] == "true" for row in before]
        if not bounds_agree(before, after):
            self._fail(1, f"report on {bundle_dir} recomputed different bounds")
        elif self.expected is not None and passed != self.expected["passed"]:
            self._fail(1, f"report on {bundle_dir}: passed column differs from the fingerprint")
        elif self.expected is None and (
            len(passed) != len(self.default_passed)
            or any(want and not got for want, got in zip(self.default_passed, passed))
        ):
            self._fail(1, f"report on {bundle_dir}: a bound that passes at seed 0 fails")


def record(seeds=RECORDED_SEEDS) -> dict:
    """Run every workload at each seed and fingerprint its outputs."""
    from riskgames import cli

    work = os.path.join(HERE, "_work", f"record-{os.getpid()}")
    data = {"tolerance": TOLERANCE, "workloads": {}}
    try:
        for name, raw in WORKLOADS.items():
            entry = {"config": raw, "seeds": {}}
            for seed in seeds:
                out = os.path.join(work, f"{name}-{seed}")
                bundle = cli.run_experiment(cli.validate_config(workload_config(name, seed)), out_dir=out)
                entry["seeds"][str(seed)] = {
                    "trials": {
                        trial_filename(alg, idx): trial_fingerprint(path, raw["T"])
                        for (alg, idx), path in sorted(bundle.trial_paths.items())
                    },
                    "passed": [bool(rep.passed) for rep in bundle.reports],
                }
                print(f"recorded {name} seed {seed}", file=sys.stderr)
            data["workloads"][name] = entry
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Record output fingerprints of the current code.")
    parser.add_argument("--record", action="store_true", required=True)
    parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    data = record()
    with open(FINGERPRINTS, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
