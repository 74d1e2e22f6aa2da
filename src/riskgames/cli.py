"""Config-driven experiment runner and command-line entry point.

Subcommands:

    riskgames run --config cfg.yaml [--out DIR] [--workers N] [--strict]
    riskgames validate --config cfg.yaml
    riskgames report --bundle DIR [--strict]

A run executes every configured algorithm for the configured number of
trials (seeds split deterministically from the master seed), then writes
per-trial trace CSVs, an aggregate CSV, a convergence SVG, a bound
report CSV, and the resolved config. Re-running an identical config
byte-reproduces the CSVs. Progress goes to stderr; data only to files.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import yaml

from .analysis import (
    AggregateTrace,
    BoundReport,
    RunTrace,
    fit_rate,
    time_averaged_error,
    validate_lemma3,
    validate_lemma4,
)
from .distributions import dkw_confidence_width
from .games import CournotGame, QuadraticCounterexampleGame, StochasticGame
# run_algorithm1 and run_unbiased_baseline are not called here; the
# benchmark's span tracer patches them in this namespace
from .learning import _run, run_algorithm1, run_unbiased_baseline
from .plotting import emit_plot

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "OutputBundle",
    "validate_config",
    "load_config",
    "build_game",
    "run_experiment",
    "main",
]

ALGORITHMS = ("algorithm1", "unbiased-fo")

GAME_DEFAULT_ALPHAS = {
    "cournot": (0.4, 0.8),
    "quadratic-counterexample": (0.5, 0.5),
}

_GAME_PARAM_KEYS = ("a", "b", "c", "d")

_KNOWN_KEYS = {
    "game",
    "alphas",
    "T",
    "trials",
    "seed",
    "eta",
    "algorithms",
    "window",
    "edf",
    "x0",
    "out_dir",
    *_GAME_PARAM_KEYS,
}

# lemma-3 report parameters (U-family concentration check at fixed size)
_LEMMA3_T = 1000
_LEMMA3_REPEATS = 1000
_LEMMA3_GAMMA_BAR = 0.05


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


@dataclass(frozen=True)
class ExperimentConfig:
    game: str
    game_params: tuple[tuple[str, float], ...]
    alphas: tuple[float, ...]
    horizon: int
    trials: int
    seed: int
    eta: float | None  # None means the horizon-tuned (D/B)/sqrt(T)
    algorithms: tuple[str, ...]
    window: int | None
    x0: tuple[float, ...]
    out_dir: str | None


def build_game(config: ExperimentConfig) -> StochasticGame:
    if config.game == "cournot":
        return CournotGame()
    if config.game == "quadratic-counterexample":
        return QuadraticCounterexampleGame(**dict(config.game_params))
    raise ConfigError(f"game: unknown game {config.game!r}")


def _require(condition: bool, message: str):
    if not condition:
        raise ConfigError(message)


def _as_int(raw, field: str, minimum: int) -> int:
    _require(isinstance(raw, int) and not isinstance(raw, bool), f"{field}: expected an integer, got {raw!r}")
    _require(raw >= minimum, f"{field}: must be >= {minimum}, got {raw}")
    return raw


def _as_float(raw, field: str) -> float:
    _require(isinstance(raw, (int, float)) and not isinstance(raw, bool), f"{field}: expected a number, got {raw!r}")
    try:
        value = float(raw)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    _require(math.isfinite(value), f"{field}: must be finite, got {raw!r}")
    return value


def validate_config(raw: dict) -> ExperimentConfig:
    """Check a flat key-value document and fill in the documented defaults.

    Defaults: trials=20, seed=0, eta=auto, both algorithms, window off,
    exact EDF, x0 at the box centers, and the built-in risk levels of the
    selected game. Unknown keys are rejected.
    """
    _require(isinstance(raw, dict), f"config: expected a mapping, got {type(raw).__name__}")
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"config: unknown key {sorted(unknown)[0]!r}")

    game = raw.get("game")
    _require(game is not None, "game: required")
    _require(game in GAME_DEFAULT_ALPHAS, f"game: unknown game {game!r}")

    params = {}
    for key in _GAME_PARAM_KEYS:
        if key in raw:
            _require(
                game == "quadratic-counterexample",
                f"{key}: game parameter only applies to quadratic-counterexample",
            )
            params[key] = _as_float(raw[key], key)

    horizon = _as_int(raw.get("T"), "T", 1) if "T" in raw else None
    _require(horizon is not None, "T: required")
    trials = _as_int(raw.get("trials", 20), "trials", 1)
    seed = _as_int(raw.get("seed", 0), "seed", 0)

    raw_eta = raw.get("eta", "auto")
    if raw_eta == "auto":
        eta = None
    else:
        eta = _as_float(raw_eta, "eta")
        _require(eta > 0, f"eta: must be positive or 'auto', got {eta}")

    algorithms = raw.get("algorithms", list(ALGORITHMS))
    _require(
        isinstance(algorithms, (list, tuple)) and len(algorithms) > 0,
        "algorithms: expected a nonempty list",
    )
    for alg in algorithms:
        _require(alg in ALGORITHMS, f"algorithms: unknown algorithm {alg!r} (choose from {list(ALGORITHMS)})")
    _require(len(set(algorithms)) == len(algorithms), "algorithms: duplicate entries")

    raw_window = raw.get("window", 0)
    window = None
    if raw_window not in (0, None):
        window = _as_int(raw_window, "window", 1)

    edf = raw.get("edf", "exact")
    removed = isinstance(edf, str) and edf.startswith("binned")
    _require(not removed, f"edf: the binned EDF was removed, got {edf!r}; use 'exact'")
    _require(edf == "exact", f"edf: expected 'exact', got {edf!r}")

    config = ExperimentConfig(
        game=game,
        game_params=tuple(sorted(params.items())),
        alphas=(),
        horizon=horizon,
        trials=trials,
        seed=seed,
        eta=eta,
        algorithms=tuple(algorithms),
        window=window,
        x0=(),
        out_dir=raw.get("out_dir"),
    )
    game_obj = build_game(config)

    alphas = raw.get("alphas", list(GAME_DEFAULT_ALPHAS[game]))
    _require(isinstance(alphas, (list, tuple)), "alphas: expected a list")
    _require(
        len(alphas) == game_obj.num_agents,
        f"alphas: expected {game_obj.num_agents} entries, got {len(alphas)}",
    )
    checked = []
    for i, a in enumerate(alphas):
        a = _as_float(a, f"alphas[{i}]")
        _require(0.0 < a <= 1.0, f"alphas[{i}]: must be in (0, 1], got {a}")
        checked.append(a)

    if "x0" in raw:
        x0_raw = raw["x0"]
        _require(isinstance(x0_raw, (list, tuple)), "x0: expected a list")
        _require(
            len(x0_raw) == game_obj.dimension,
            f"x0: expected {game_obj.dimension} coordinates, got {len(x0_raw)}",
        )
        x0 = tuple(_as_float(v, f"x0[{i}]") for i, v in enumerate(x0_raw))
        _require(game_obj.feasible(np.array(x0)), "x0: outside the action boxes")
    else:
        x0 = tuple(float(v) for v in np.concatenate([b.center for b in game_obj.action_sets]))

    if config.out_dir is not None:
        _require(isinstance(config.out_dir, str), f"out_dir: expected a string, got {config.out_dir!r}")

    return replace(config, alphas=tuple(checked), x0=x0)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config: not valid YAML ({exc})") from None
    return validate_config(raw if raw is not None else {})


def resolved_document(config: ExperimentConfig) -> dict:
    """Flat dict of the fully resolved config; re-parses to an equal config."""
    doc = {
        "game": config.game,
        "alphas": list(config.alphas),
        "T": config.horizon,
        "trials": config.trials,
        "seed": config.seed,
        "eta": "auto" if config.eta is None else config.eta,
        "algorithms": list(config.algorithms),
        "window": 0 if config.window is None else config.window,
        "edf": "exact",
        "x0": list(config.x0),
    }
    for key, value in config.game_params:
        doc[key] = value
    if config.out_dir is not None:
        doc["out_dir"] = config.out_dir
    return doc


def _trial_seed(config: ExperimentConfig, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(config.seed).spawn(config.trials + 1)[index]


def _report_rng(config: ExperimentConfig) -> np.random.Generator:
    return np.random.default_rng(_trial_seed(config, config.trials))


# cap on a block's tail arrays, three float64s per agent, episode and
# column; one block holds all 40 columns of a two-agent run at T = 10^4
_BLOCK_BYTES = 32 << 20


def _blocks(config: ExperimentConfig, workers: int) -> list[list]:
    """The (algorithm, trial) columns in order, cut into near-equal blocks.

    At least one block per worker, and more only when a block's tail
    arrays would pass ``_BLOCK_BYTES``.
    """
    columns = [(alg, idx) for alg in config.algorithms for idx in range(config.trials)]
    per_block = max(1, _BLOCK_BYTES // (3 * 8 * len(config.alphas) * config.horizon))
    count = min(len(columns), max(workers, math.ceil(len(columns) / per_block)))
    cuts = [len(columns) * n // count for n in range(count + 1)]
    return [columns[a:b] for a, b in zip(cuts, cuts[1:])]


def _run_block(config: ExperimentConfig, block) -> list[RunTrace]:
    """One lockstep run of the block's (algorithm, trial) columns."""
    columns = [(_trial_seed(config, idx), alg) for alg, idx in block]
    return _run(
        build_game(config),
        config.alphas,
        config.horizon,
        config.eta,
        np.array(config.x0),
        config.window,
        columns,
    )


def _run_blocks(config: ExperimentConfig, blocks, workers: int):
    """Each block's traces, in block order; one process per block when parallel."""
    if workers > 1 and len(blocks) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
            yield from pool.map(_run_block, [config] * len(blocks), blocks)
    else:
        yield from map(_run_block, [config] * len(blocks), blocks)


def _all_passed(reports) -> bool:
    """The ``--strict`` rule: no row failed; rows whose bound does not apply are skipped."""
    return all(r.passed is not False for r in reports)


@dataclass
class OutputBundle:
    """Artifacts of one experiment, both on disk and in memory."""

    out_dir: str
    config: ExperimentConfig
    traces: dict
    aggregates: dict
    reports: list
    trial_paths: dict
    aggregate_path: str | None
    plot_path: str | None
    report_path: str
    config_path: str

    @property
    def all_passed(self) -> bool:
        return _all_passed(self.reports)


def trial_filename(algorithm: str, index: int) -> str:
    return f"{algorithm}-trial{index:03d}.csv"


def _write_csv(path, header, rows) -> None:
    """One header line, then the rows. ``csv.writer`` writes a float as its
    repr, which round-trips exactly, and quotes cells that hold commas."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _trial_columns(dim: int, num_agents: int) -> dict[str, list[str]]:
    """Trial-file column names in file order, per ``RunTrace`` field.

    A trace whose ``err_sq`` or ``nu_star`` is None has no such columns.
    """
    return {
        "episodes": ["t"],
        "actions": [f"x{j}" for j in range(dim)],
        "err_sq": ["err_sq"],
        "nu": [f"nu_agent{i}" for i in range(num_agents)],
        "nu_star": [f"nu_star_agent{i}" for i in range(num_agents)],
    }


def write_trace_csv(trace: RunTrace, path) -> None:
    """One row per episode; full round-trip float precision."""
    header, columns = [], []
    for field, names in _trial_columns(trace.actions.shape[1], trace.num_agents).items():
        values = getattr(trace, field)
        if values is not None:
            header += names
            columns += np.reshape(values, (trace.horizon, len(names))).T.tolist()
    _write_csv(path, header, zip(*columns))


def read_trace_csv(path, config: ExperimentConfig) -> RunTrace:
    """Rebuild a RunTrace from a trial CSV of a run of ``config``.

    Raises ``ConfigError``, naming the file, when its header or shape does
    not match what a run of that config writes, when its ``t`` column is
    not 1..T in order, or when a cell is not a finite number or breaks
    ``RunTrace``'s own checks.
    """
    game = build_game(config)
    columns = _trial_columns(game.dimension, game.num_agents)
    if game.nash_equilibrium(config.alphas) is None:
        del columns["err_sq"]
    expected = [name for names in columns.values() for name in names]
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        _require(header == expected, f"trial file {path}: expected columns {expected}, got {header}")
        body = fh.tell()
        _require(
            any(line.strip() for line in fh),
            f"trial file {path}: expected {config.horizon} rows of {len(expected)} values, got 0 rows",
        )
        fh.seek(body)
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"trial file {path}: {exc}") from None
    _require(
        data.shape == (config.horizon, len(expected)),
        f"trial file {path}: expected {config.horizon} rows of {len(expected)} values, "
        f"got {data.shape[0]} of {data.shape[1]}",
    )
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise ConfigError(
            f"trial file {path}: row {row + 1}, column {expected[col]}: "
            f"expected a finite number, got {data[row, col]}"
        )
    _require(
        np.array_equal(data[:, 0], np.arange(1, config.horizon + 1)),
        f"trial file {path}: column t must count episodes 1..{config.horizon} in order",
    )
    ends = np.cumsum([len(names) for names in columns.values()])
    blocks = dict(zip(columns, np.split(data, ends[:-1], axis=1)))
    err_sq = blocks.get("err_sq")
    try:
        return RunTrace(
            episodes=blocks["episodes"][:, 0].astype(int),
            actions=blocks["actions"],
            nu=blocks["nu"],
            nu_star=blocks["nu_star"],
            err_sq=None if err_sq is None else err_sq[:, 0],
        )
    except ValueError as exc:  # a negative squared distance
        raise ConfigError(f"trial file {path}: {exc}") from None


def _aggregate(traces: list[RunTrace]) -> dict:
    episodes = traces[0].episodes
    out = {}
    if traces[0].err_sq is not None:
        out["err_sq"] = AggregateTrace.from_series(episodes, [t.err_sq for t in traces])
        out["dist"] = AggregateTrace.from_series(episodes, [np.sqrt(t.err_sq) for t in traces])
    return out


def write_aggregate_csv(aggregates: dict, algorithms, path) -> None:
    """Columns: t, then mean/std of the squared and plain distance per algorithm."""
    header = ["t"]
    columns = [aggregates[algorithms[0]]["err_sq"].episodes]
    for alg in algorithms:
        sq = aggregates[alg]["err_sq"]
        dist = aggregates[alg]["dist"]
        header += [f"{alg}_mean_err_sq", f"{alg}_std_err_sq", f"{alg}_mean_dist", f"{alg}_std_dist"]
        columns += [sq.mean, sq.std, dist.mean, dist.std]
    _write_csv(path, header, zip(*(column.tolist() for column in columns)))


def compute_reports(config: ExperimentConfig, traces: dict) -> list[BoundReport]:
    """Bound rows for a bundle: VaR concentration, bias accumulation, rate fit.

    The concentration check runs on the game's noise law per agent at a
    fixed sample size; the bias check runs per algorithm-1 trial and
    agent (it needs true VaR values, and a cost density bounded along the
    run, or its row has ``passed`` None); the rate fit needs equilibrium
    distances and a long enough horizon.
    """
    game = build_game(config)
    reports = []
    rng = _report_rng(config)
    for agent, alpha in enumerate(config.alphas):
        dist = game.noise_distribution(agent)
        eps = dkw_confidence_width(_LEMMA3_T, _LEMMA3_GAMMA_BAR, dist.density_lower_bound)
        rep = validate_lemma3(dist, alpha, _LEMMA3_T, _LEMMA3_REPEATS, eps, rng)
        rep.detail = f"agent={agent}, " + rep.detail
        reports.append(rep)

    for trial, trace in enumerate(traces.get("algorithm1", [])):
        if trace.nu_star is None:
            continue
        for agent, alpha in enumerate(config.alphas):
            rep = validate_lemma4(game, trace, agent, alpha)
            rep.detail = f"trial={trial}, " + rep.detail
            reports.append(rep)

    for alg, alg_traces in traces.items():
        if not alg_traces or alg_traces[0].err_sq is None:
            continue
        series = AggregateTrace.from_series(
            alg_traces[0].episodes, [time_averaged_error(t) for t in alg_traces]
        )
        window = (100, config.horizon)
        if config.horizon >= 200:
            slope = fit_rate(series, window)
            reports.append(
                BoundReport(
                    name="rate",
                    empirical=slope,
                    bound=-0.4,
                    passed=slope <= -0.4,
                    detail=f"algorithm={alg}, log-log slope of mean time-averaged sq error over {window}",
                )
            )
    return reports


def write_report_csv(reports: list[BoundReport], path) -> None:
    _write_csv(
        path,
        ["name", "empirical", "bound", "passed", "detail"],
        ([r.name, float(r.empirical), float(r.bound), str(r.passed).lower(), r.detail] for r in reports),
    )


def run_experiment(
    config: ExperimentConfig,
    out_dir: str | None = None,
    workers: int = 1,
    progress=None,
) -> OutputBundle:
    """Execute all configured trials and write the output bundle.

    Each (algorithm, trial) pair is one column of a lockstep run. The
    columns, in (algorithm, trial) order, are cut into one near-equal
    block per worker, or into more blocks when a block's tail arrays
    would pass a fixed byte budget; blocks run in parallel up to
    ``workers``, with one ``progress`` line per finished block. A
    column's trace does not depend on its block, and results are reduced
    in (algorithm, trial) order, so the artifacts do not depend on
    scheduling.
    """
    out_dir = out_dir or config.out_dir or "out"
    os.makedirs(out_dir, exist_ok=True)
    trials_dir = os.path.join(out_dir, "trials")
    os.makedirs(trials_dir, exist_ok=True)

    def say(msg):
        if progress is not None:
            print(msg, file=progress)

    blocks = _blocks(config, workers)
    say(
        f"running {len(config.algorithms) * config.trials} trials in {len(blocks)} blocks "
        f"({config.game}, T={config.horizon}, workers={workers})"
    )
    traces = {alg: [] for alg in config.algorithms}
    for n, (block, results) in enumerate(zip(blocks, _run_blocks(config, blocks, workers)), 1):
        for (alg, _), trace in zip(block, results):
            traces[alg].append(trace)
        say(f"block {n}/{len(blocks)} done: {len(block)} trials")

    trial_paths = {}
    for alg in config.algorithms:
        for idx, trace in enumerate(traces[alg]):
            path = os.path.join(trials_dir, trial_filename(alg, idx))
            write_trace_csv(trace, path)
            trial_paths[(alg, idx)] = path

    aggregates = {alg: _aggregate(traces[alg]) for alg in config.algorithms}
    aggregate_path = None
    plot_path = None
    if all(aggregates[alg] for alg in config.algorithms):
        aggregate_path = os.path.join(out_dir, "aggregate.csv")
        write_aggregate_csv(aggregates, config.algorithms, aggregate_path)
        plot_path = os.path.join(out_dir, "convergence.svg")
        emit_plot(
            [(alg, aggregates[alg]["dist"]) for alg in config.algorithms],
            plot_path,
        )
        say(f"wrote {aggregate_path} and {plot_path}")

    reports = compute_reports(config, traces)
    report_path = os.path.join(out_dir, "bounds.csv")
    write_report_csv(reports, report_path)

    config_path = os.path.join(out_dir, "config.yaml")
    with open(config_path, "w", encoding="utf-8", newline="\n") as fh:
        yaml.safe_dump(resolved_document(config), fh, sort_keys=False)
    say(f"wrote {report_path} and {config_path}")

    return OutputBundle(
        out_dir=out_dir,
        config=config,
        traces=traces,
        aggregates=aggregates,
        reports=reports,
        trial_paths=trial_paths,
        aggregate_path=aggregate_path,
        plot_path=plot_path,
        report_path=report_path,
        config_path=config_path,
    )


def load_bundle_traces(bundle_dir: str) -> tuple[ExperimentConfig, dict]:
    config = load_config(os.path.join(bundle_dir, "config.yaml"))
    traces = {}
    for alg in config.algorithms:
        traces[alg] = []
        for idx in range(config.trials):
            path = os.path.join(bundle_dir, "trials", trial_filename(alg, idx))
            if not os.path.exists(path):
                raise FileNotFoundError(f"bundle is missing trial file {path}")
            traces[alg].append(read_trace_csv(path, config))
    return config, traces


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="riskgames",
        description="Risk-averse learning experiments in convex games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="output directory (default: config out_dir or ./out)")
    p_run.add_argument("--workers", type=int, default=1)
    p_run.add_argument("--strict", action="store_true", help="exit nonzero if any bound report fails")

    p_val = sub.add_parser("validate", help="parse a config file and echo the resolved values")
    p_val.add_argument("--config", required=True)

    p_rep = sub.add_parser("report", help="recompute bound reports from a stored bundle")
    p_rep.add_argument("--bundle", required=True)
    p_rep.add_argument("--strict", action="store_true")

    args = parser.parse_args(argv)

    try:
        if args.command == "validate":
            config = load_config(args.config)
            yaml.safe_dump(resolved_document(config), sys.stdout, sort_keys=False)
            return 0

        if args.command == "run":
            config = load_config(args.config)
            bundle = run_experiment(
                config, out_dir=args.out, workers=max(1, args.workers), progress=sys.stderr
            )
            for rep in bundle.reports:
                print(rep, file=sys.stderr)
            if args.strict and not bundle.all_passed:
                return 1
            return 0

        if args.command == "report":
            config, traces = load_bundle_traces(args.bundle)
            reports = compute_reports(config, traces)
            write_report_csv(reports, os.path.join(args.bundle, "bounds.csv"))
            for rep in reports:
                print(rep)
            if args.strict and not _all_passed(reports):
                return 1
            return 0
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    return 0


if __name__ == "__main__":
    sys.exit(main())
