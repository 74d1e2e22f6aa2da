"""Config-driven experiment runner and command-line entry point.

Subcommands:

    riskgames run --config cfg.yaml [--out DIR] [--workers N] [--strict]
    riskgames validate --config cfg.yaml
    riskgames report --bundle DIR [--strict]

A run executes every configured algorithm for the configured number of
trials (seeds split deterministically from the master seed) and writes
a bundle to ``--out`` (default ``./out``), one directory of these files:

    trials/<alg>-trialNNN.csv  the trace of <alg>'s trial NNN: ``run`` writes, ``report`` reads
    aggregate.csv              mean and std error per algorithm: ``run`` writes
    convergence.svg            mean distance per algorithm: ``run`` writes
    bounds.csv                 the bound rows: ``run`` writes, ``report`` rewrites
    config.yaml                the resolved config: ``run`` writes, ``report`` reads

``config.yaml`` is written last, so a directory without it is no bundle.
A game with no unique equilibrium has no ``aggregate.csv`` or
``convergence.svg``. Re-running an identical config byte-reproduces the
CSVs. The trial and aggregate CSVs hold only finite numbers, in orjson's
shortest text, which reads back to the same float64; the tests pin the
bytes of the orjson version they run under. ``report`` reads a trial file
in the grammar ``read_trace_csv`` states. ``--workers`` must be at least
1; ``run_experiment`` says how a run shares its trials out. Progress goes
to stderr; data only to files.
"""

from __future__ import annotations

import argparse
import csv
import math
import numbers
import os
import pickle
import re
import signal
import sys
from dataclasses import dataclass, fields
from itertools import islice

import numpy as np
import orjson
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
from .games import AffineNoiseGame, CournotGame, QuadraticCounterexampleGame
from .learning import run_algorithm1, run_unbiased_baseline
from .plotting import emit_plot

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "OutputBundle",
    "validate_config",
    "load_config",
    "run_experiment",
    "main",
]

ALGORITHMS = ("algorithm1", "unbiased-fo")

# each game is a dataclass whose class names itself and carries its default
# risk levels, and whose fields are its config parameters
_GAMES = {cls.name: cls for cls in (CournotGame, QuadraticCounterexampleGame)}
_GAME_PARAMS = {name: tuple(f.name for f in fields(cls)) for name, cls in _GAMES.items()}

_CONFIG_KEYS = {
    "game", "alphas", "T", "trials", "seed", "eta", "algorithms", "window", "edf", "x0"
}
_KNOWN_KEYS = _CONFIG_KEYS.union(*_GAME_PARAMS.values())

# lemma-3 report parameters (U-family concentration check at fixed size)
_LEMMA3_T = 1000
_LEMMA3_GAMMA_BAR = 0.05


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A checked config, as ``validate_config`` builds it; ``game`` is the
    built game, whose fields are the config's game parameters."""

    game: AffineNoiseGame
    alphas: tuple[float, ...]
    horizon: int
    trials: int
    seed: int
    eta: float | None  # None means the horizon-tuned (D/B)/sqrt(T)
    algorithms: tuple[str, ...]
    window: int | None
    x0: tuple[float, ...]


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
    exact EDF, and, from the selected game's class, its risk levels
    ``default_alphas`` and x0 at the centre of its ``bounds``. A game's
    parameters are its dataclass fields, and the config holds the game
    built from them. Unknown keys are rejected, ``out_dir`` among them:
    the bundle's directory is an argument of the run, not of its recipe.
    """
    _require(isinstance(raw, dict), f"config: expected a mapping, got {type(raw).__name__}")
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        # keys of mixed types do not sort; the first by text is named
        raise ConfigError(f"config: unknown key {min(unknown, key=str)!r}")

    name = raw.get("game")
    _require(name is not None, "game: required")
    _require(isinstance(name, str) and name in _GAMES, f"game: unknown game {name!r}")

    params = {}
    for key in sorted(set(raw) - _CONFIG_KEYS):
        _require(key in _GAME_PARAMS[name], f"{key}: not a parameter of game {name!r}")
        params[key] = _as_float(raw[key], key)
    try:
        game = _GAMES[name](**params)
    except ValueError as exc:  # the game's own checks name the parameter
        raise ConfigError(str(exc)) from None

    _require("T" in raw, "T: required")
    horizon = _as_int(raw["T"], "T", 1)
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

    raw_window = raw.get("window")
    window = None if raw_window is None else _as_int(raw_window, "window", 0) or None

    edf = raw.get("edf", "exact")
    removed = isinstance(edf, str) and edf.startswith("binned")
    _require(not removed, f"edf: the binned EDF was removed, got {edf!r}; use 'exact'")
    _require(edf == "exact", f"edf: expected 'exact', got {edf!r}")

    alphas = raw.get("alphas", list(game.default_alphas))
    _require(isinstance(alphas, (list, tuple)), "alphas: expected a list")
    _require(
        len(alphas) == game.num_agents,
        f"alphas: expected {game.num_agents} entries, got {len(alphas)}",
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
            len(x0_raw) == game.num_agents,
            f"x0: expected {game.num_agents} coordinates, got {len(x0_raw)}",
        )
        x0 = tuple(_as_float(v, f"x0[{i}]") for i, v in enumerate(x0_raw))
        _require(game.feasible(np.array(x0)), "x0: outside the action boxes")
    else:
        x0 = tuple((0.5 * np.add(*game.bounds)).tolist())

    return ExperimentConfig(
        game=game,
        alphas=tuple(checked),
        horizon=horizon,
        trials=trials,
        seed=seed,
        eta=eta,
        algorithms=tuple(algorithms),
        window=window,
        x0=x0,
    )


class _ConfigLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that also reads ``1e-3`` and ``2E+1`` as floats,
    and refuses a mapping that names a key twice.

    YAML 1.1's float needs a dot, so those would stay strings, and so
    would the ``1e-05`` that ``json.dump`` writes for a small float. A repeated
    key would silently take its last value; merge keys (``<<``) are not
    checked, so an explicit key still overrides a merged one.
    """

    def construct_mapping(self, node, deep=False):
        explicit = [key_node for key_node, _ in node.value if key_node.tag != "tag:yaml.org,2002:merge"]
        mapping = super().construct_mapping(node, deep=deep)  # refuses an unhashable key
        seen = set()
        for key_node in explicit:
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(None, None, f"found duplicate key {key!r}", key_node.start_mark)
            seen.add(key)
        return mapping


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float", re.compile(r"^[-+]?[0-9]+(\.[0-9]*)?[eE][-+]?[0-9]+$"), list("-+0123456789")
)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = yaml.load(fh, Loader=_ConfigLoader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config: not valid YAML ({exc})") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config: not UTF-8 text ({exc})") from None
    return validate_config(raw if raw is not None else {})


def resolved_document(config: ExperimentConfig) -> dict:
    """Flat dict of the fully resolved config; re-parses to an equal config."""
    doc = {
        "game": config.game.name,
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
    for field in fields(config.game):
        doc[field.name] = getattr(config.game, field.name)
    return doc


def _trial_seed(config: ExperimentConfig, index: int) -> np.random.SeedSequence:
    # equal to SeedSequence(seed).spawn(n)[index] for any n > index, but
    # O(1): spawning them all per column was quadratic in the trial count
    return np.random.SeedSequence(config.seed, spawn_key=(index,))


def _run_trial(config: ExperimentConfig, column) -> RunTrace:
    """The trace of one (algorithm, trial) ``column`` of ``config``, by the
    runner this module's name looks up at call time, so a wrapper put there
    sees every serial trial."""
    alg, idx = column
    run = run_algorithm1 if alg == "algorithm1" else run_unbiased_baseline
    seed = _trial_seed(config, idx)
    return run(config.game, config.alphas, config.horizon, config.eta, np.array(config.x0), seed, config.window)


def _run_trials(config: ExperimentConfig, columns, workers: int):
    """Each column's trace, in column order, from ``workers`` forked children.

    With one worker, or one column, the trials run here, one after
    another. Otherwise child w is forked straight from this process,
    pinned to the w-th CPU of its affinity set, and plays the columns
    w, w + W, w + 2W, ... of the W = min(``workers``, columns) children.
    It pickles each trace, or the exception its trial raised, to a pipe
    of its own, and ends in ``os._exit`` on every path, so it never
    returns into its caller's frames. Column j is read from child
    j mod W, so traces arrive in column order, and a trial's exception is
    raised here in its column's place. A child that ends before it
    reports is a ``RuntimeError`` naming the column and the child's exit
    status. However the generator ends, each child is reaped; unless
    every trace was read, each is killed first.
    """
    workers = min(workers, len(columns))
    if workers < 2:
        yield from map(_run_trial, [config] * len(columns), columns)
        return
    # pinning is best effort: a CPU set without an affinity call, or a CPU
    # that sched_setaffinity refuses, leaves the child unpinned
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    pids, readers, finished = [], [], False
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            readers.append(os.fdopen(read_fd, "rb"))
            pid = -1
            try:
                pid = os.fork()
                if pid == 0:
                    cpu = None if cpus is None else cpus[w % len(cpus)]
                    _report_trials(config, columns[w::workers], write_fd, readers, cpu)
            finally:
                if pid == 0:  # _report_trials did not get to its own os._exit
                    os._exit(1)
                os.close(write_fd)
            pids.append(pid)
        for j, column in enumerate(columns):
            try:
                ok, value = pickle.load(readers[j % workers])
            except (EOFError, pickle.UnpicklingError):
                _, status = os.waitpid(pids[j % workers], 0)
                pids[j % workers] = None
                raise RuntimeError(
                    f"trial {column[0]} {column[1]}: its worker exited with status "
                    f"{os.waitstatus_to_exitcode(status)} before it reported"
                ) from None
            if not ok:
                raise value
            # with the last trace read, every child is ending on its own
            finished = j == len(columns) - 1
            yield value
    finally:  # kill before closing the pipes, or a child writing to one would report a broken pipe
        for pid in filter(None, pids):
            if not finished:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for reader in readers:
            reader.close()


def _report_trials(config: ExperimentConfig, columns, write_fd: int, readers, cpu) -> None:
    """A forked child's whole life: play ``columns``, pickle each outcome to ``write_fd``, then exit."""
    status = 1
    try:
        # the parent's pipe ends, this child's own among them: held here,
        # they would keep a pipe whole after the parent is gone, and its
        # writer blocked for good
        for reader in readers:
            reader.close()
        if cpu is not None:
            try:
                os.sched_setaffinity(0, {cpu})
            except (AttributeError, OSError):
                pass
        with os.fdopen(write_fd, "wb") as out:
            for column in columns:
                try:
                    outcome = (True, _run_trial(config, column))
                except Exception as exc:  # raised again in the parent, in its column's place
                    outcome = (False, exc)
                out.write(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
                out.flush()
                if not outcome[0]:
                    break
        status = 0
    except Exception:  # the parent names the column; the traceback says why
        sys.excepthook(*sys.exc_info())
    finally:
        os._exit(status)


def _usable_cpus() -> int:
    """The CPUs a run may spread its trials over.

    This process's affinity set where the OS has one, else its CPU count.
    Where there is no ``os.fork`` to start a worker with, as on Windows,
    it is 1, so the run is serial: there is no second, spawn-based runner.
    """
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _all_passed(reports) -> bool:
    """The ``--strict`` rule: no row failed; rows whose bound does not apply are skipped."""
    return all(r.passed is not False for r in reports)


@dataclass
class OutputBundle:
    """``out_dir``, where a run wrote its bundle; per algorithm its trials'
    ``traces``, for analysis; its bound ``reports``, which ``--strict`` judges."""

    out_dir: str
    traces: dict
    reports: list

    @property
    def trial_paths(self) -> dict:
        """Each (algorithm, trial) column's file, as ``perfbench/check.py`` reads them."""
        trials = len(next(iter(self.traces.values())))
        return dict(zip(*_trial_files(self.traces, trials, os.path.join(self.out_dir, "trials"))[:2]))


def trial_filename(algorithm: str, index: int) -> str:
    return f"{algorithm}-trial{index:03d}.csv"


def _trial_files(algorithms, trials: int, trials_dir: str):
    """A bundle's (algorithm, trial) columns in file order, each column's path in
    ``trials_dir``, and the sorted paths of the files there that no column names."""
    columns = [(alg, idx) for alg in algorithms for idx in range(trials)]
    paths = [os.path.join(trials_dir, trial_filename(alg, idx)) for alg, idx in columns]
    listed = os.listdir(trials_dir) if os.path.isdir(trials_dir) else []
    extra = sorted(set(listed).difference(map(os.path.basename, paths)))
    return columns, paths, [os.path.join(trials_dir, name) for name in extra]


# rows per chunk of orjson calls: bounds the bytes a write or a read holds
# at once beside the whole block, about 105 bytes a cell of text, bytes
# objects and parsed floats, so about 210 KiB for a trial chunk of t and 7
# cells a row; smaller chunks only add calls
_CSV_CHUNK_ROWS = 256

def _write_numeric_csv(path, header, block) -> None:
    """One header line, then per row of ``block`` its number ``t`` and its cells.

    A chunk of ``_CSV_CHUNK_ROWS`` rows is two ``orjson.dumps`` calls of
    orjson's numpy serializer, which takes only a C-ordered array, one of
    the chunk as float64 and one of its ``t`` values, joined row by row:
    each float in orjson's shortest text, which reads back to the same
    float64 whatever layout (``1e16``, ``0.000012345``) orjson picks.
    Chunks bound the bytes held at once. A NaN or infinite cell, which
    ``read_trace_csv`` refuses, is a ``ValueError`` naming the path, its
    row ``t`` and its column, raised before the file is opened.
    """
    block = np.ascontiguousarray(block, dtype=np.float64)
    # a NaN or infinite cell makes the min or the max one, without a mask the size of the block
    if not np.isfinite([block.min(), block.max()]).all():
        row, col = np.argwhere(~np.isfinite(block))[0]
        raise ValueError(
            f"numeric file {path}: row {row + 1}, column {header[col + 1]}: "
            f"expected a finite number, got {block[row, col].item()!r}"
        )
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode())
        for start in range(0, len(block), _CSV_CHUNK_ROWS):
            chunk = block[start : start + _CSV_CHUNK_ROWS]
            ts = orjson.dumps(np.arange(start + 1, start + len(chunk) + 1), option=orjson.OPT_SERIALIZE_NUMPY)
            rows = orjson.dumps(chunk, option=orjson.OPT_SERIALIZE_NUMPY)
            # [1,2] and [[a,b],[c,d]] to "\n1,a,b\n2,c,d"
            fh.write(b"\n")
            fh.write(b"\n".join(map(b",".join, zip(ts[1:-1].split(b","), rows[2:-2].split(b"],[")))))
        fh.write(b"\n")


def _trial_columns(num_agents: int) -> dict[str, list[str]]:
    """Trial-file column names after ``t``, in file order, per ``RunTrace`` field.

    ``err_sq`` is the one optional column: a trace of a game with no
    unique equilibrium has it None, and its file has no such column.
    """
    return {
        "actions": [f"x{j}" for j in range(num_agents)],
        "err_sq": ["err_sq"],
        "nu": [f"nu_agent{i}" for i in range(num_agents)],
        "nu_star": [f"nu_star_agent{i}" for i in range(num_agents)],
    }


def write_trace_csv(trace: RunTrace, path) -> None:
    """One row per episode; full round-trip float precision."""
    header, blocks = ["t"], []
    for field, names in _trial_columns(trace.num_agents).items():
        values = getattr(trace, field)
        if values is not None:
            header += names
            blocks.append(np.reshape(values, (trace.horizon, len(names))))
    _write_numeric_csv(path, header, np.hstack(blocks))


# the bytes of a JSON number; a trial file's rows hold no others but "," and "\n"
_NUMBER_BYTES = b"0123456789.eE+-"


def _row_fault(fh, chunk: bytes, first_row: int, expected: list[str], horizon: int) -> str:
    """Why rows ``first_row``.. of trial file ``fh`` to its end are not rows of ``expected`` numbers.

    Those rows are ``chunk``, read before ``fh``'s position, and the rest of ``fh``.
    It names the first row that is not that many JSON numbers, ``t`` equal
    to its number, ended by ``"\\n"``, and its column when one cell is at
    fault. Bytes that are not UTF-8 text are named first, whatever else is
    wrong, with their row and their offset in the file.
    """
    offset = fh.tell() - len(chunk)
    body = chunk + fh.read()
    try:
        body.decode("utf-8")
    except UnicodeDecodeError as exc:
        row = first_row + body.count(b"\n", 0, exc.start)
        byte = f"{body[exc.start]:#04x} at byte {offset + exc.start} of the file"
        return f"row {row}: not UTF-8 text ({exc.reason} {byte})"
    *lines, unended = body.split(b"\n")
    for row, line in enumerate(lines, first_row):
        cells = line.split(b",")
        if len(cells) != len(expected):
            return f"row {row}: expected {len(expected)} comma-separated values, got {len(cells)} in {line[:80]!r}"
        for name, cell in zip(expected, cells):
            try:
                if cell.translate(None, _NUMBER_BYTES):  # orjson alone would take "true" or " 1"
                    raise ValueError
                orjson.loads(cell)
            except ValueError:
                return f"row {row}, column {name}: expected a finite number, got {cell[:40]!r}"
        if orjson.loads(cells[0]) != row:
            return f"row {row}, column t: expected {row}, got {cells[0][:40]!r}"
    if unended:
        return f"row {first_row + len(lines)}: expected a newline at its end, got {unended[-80:]!r}"
    return f"expected {horizon} rows of {len(expected)} values, got {first_row - 1 + len(lines)} rows"


def read_trace_csv(path, config: ExperimentConfig) -> RunTrace:
    """Rebuild a RunTrace from a trial CSV of a run of ``config``.

    The file must hold what ``write_trace_csv`` writes for that config,
    up to the layout of its numbers, and nothing else: one header line
    naming its columns, then T rows, each ``t`` and the row's cells as
    JSON numbers in any layout, separated by commas and ended by
    ``"\\n"``. So a file in ``repr``'s layout, which the writer used
    before it took orjson's shortest text, reads back to the same floats.
    Whitespace, comments, blank lines and ``"\\r\\n"`` are refused. The
    rows are read ``_CSV_CHUNK_ROWS`` at a time into one preallocated
    array. A chunk is accepted when its bytes have the writer's shape and
    alphabet, orjson parses them and its ``t`` column counts on;
    ``_row_fault`` alone explains a refusal.

    Raises ``ConfigError``, naming the file, when it is not UTF-8 text,
    when its header or shape does not match what a run of that config
    writes, when its ``t`` column is not 1..T in order, or when a cell is
    not a finite number or breaks ``RunTrace``'s own checks. A fault in
    the rows also names its row, and its column when it is in one cell.
    """
    columns = _trial_columns(config.game.num_agents)
    if config.game.nash_equilibrium(config.alphas) is None:
        del columns["err_sq"]
    expected = ["t"] + [name for names in columns.values() for name in names]
    # what is left of a well-formed row once its numbers are deleted
    row_shape = b"," * (len(expected) - 1) + b"\n"
    with open(path, "rb") as fh:
        try:
            header = fh.readline().decode("utf-8").removesuffix("\n").split(",")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"trial file {path}: header is not UTF-8 text ({exc})") from None
        _require(header == expected, f"trial file {path}: expected columns {expected}, got {header}")
        # a row takes at least two bytes a cell, so a file too short
        # for T rows is refused before T rows are allocated
        if os.fstat(fh.fileno()).st_size - fh.tell() < config.horizon * 2 * len(expected):
            raise ConfigError(f"trial file {path}: {_row_fault(fh, b'', 1, expected, config.horizon)}")
        data = np.empty((config.horizon, len(expected)))
        for start in range(0, config.horizon, _CSV_CHUNK_ROWS):
            rows = data[start : start + _CSV_CHUNK_ROWS]
            chunk = b"".join(islice(fh, len(rows)))
            try:  # orjson.JSONDecodeError is a ValueError
                if chunk.translate(None, _NUMBER_BYTES) != row_shape * len(rows):
                    raise ValueError
                values = orjson.loads(b"[%s]" % chunk[:-1].replace(b"\n", b","))
                rows[:] = np.fromiter(values, np.float64, rows.size).reshape(rows.shape)
                if not np.array_equal(rows[:, 0], np.arange(start + 1, start + len(rows) + 1)):
                    raise ValueError
            except ValueError:
                fault = _row_fault(fh, chunk, start + 1, expected, config.horizon)
                raise ConfigError(f"trial file {path}: {fault}") from None
        rest = fh.read()
        if rest:
            fault = _row_fault(fh, rest, config.horizon + 1, expected, config.horizon)
            raise ConfigError(f"trial file {path}: {fault}")
    ends = np.cumsum([len(names) for names in columns.values()])
    blocks = dict(zip(columns, np.split(data[:, 1:], ends[:-1], axis=1)))
    err_sq = blocks.get("err_sq")
    try:
        return RunTrace(
            actions=blocks["actions"],
            nu=blocks["nu"],
            nu_star=blocks["nu_star"],
            err_sq=None if err_sq is None else err_sq[:, 0],
        )
    except ValueError as exc:  # a negative squared distance
        raise ConfigError(f"trial file {path}: {exc}") from None


def _aggregate(traces: list[RunTrace]) -> dict:
    return {
        "err_sq": AggregateTrace.from_series([t.err_sq for t in traces]),
        "dist": AggregateTrace.from_series([np.sqrt(t.err_sq) for t in traces]),
    }


def write_aggregate_csv(aggregates: dict, algorithms, path) -> None:
    """Columns: t, then mean/std of the squared and plain distance per algorithm."""
    header, columns = ["t"], []
    for alg in algorithms:
        sq = aggregates[alg]["err_sq"]
        dist = aggregates[alg]["dist"]
        header += [f"{alg}_mean_err_sq", f"{alg}_std_err_sq", f"{alg}_mean_dist", f"{alg}_std_dist"]
        columns += [sq.mean, sq.std, dist.mean, dist.std]
    _write_numeric_csv(path, header, np.column_stack(columns))


def compute_reports(config: ExperimentConfig, traces: dict) -> list[BoundReport]:
    """Bound rows for a bundle: VaR concentration, bias accumulation, rate fit.

    The concentration check reads the exact law of the VaR estimate from
    a fixed-size sample of each agent's noise law, so its rows depend on
    the game and the risk levels, not on the seed or the traces; the
    bias check runs per algorithm-1 trial and agent (where the cost
    density is unbounded along the run its row has ``passed`` None); the
    rate fit needs equilibrium distances and a long enough horizon, and
    its row has ``passed`` None where the mean error is not positive
    throughout the fit window.
    """
    reports = []
    for agent, alpha in enumerate(config.alphas):
        dist = config.game.noise_distribution(agent)
        eps = dkw_confidence_width(_LEMMA3_T, _LEMMA3_GAMMA_BAR, dist.density_lower_bound)
        rep = validate_lemma3(dist, alpha, _LEMMA3_T, eps)
        rep.detail = f"agent={agent}, " + rep.detail
        reports.append(rep)

    for trial, trace in enumerate(traces.get("algorithm1", [])):
        for agent, alpha in enumerate(config.alphas):
            rep = validate_lemma4(config.game, trace, agent, alpha)
            rep.detail = f"trial={trial}, " + rep.detail
            reports.append(rep)

    for alg, alg_traces in traces.items():
        if config.horizon < 200 or not alg_traces or alg_traces[0].err_sq is None:
            continue
        errors = [time_averaged_error(t) for t in alg_traces]
        window = (100, config.horizon)
        try:
            slope = fit_rate(np.mean(errors, axis=0), window)
        except ValueError as exc:  # a run that never leaves the equilibrium
            reports.append(BoundReport("rate", math.nan, -0.4, None, f"algorithm={alg}, {exc}"))
            continue
        worst = int(np.argmax([e[-1] for e in errors]))
        reports.append(
            BoundReport(
                name="rate",
                empirical=slope,
                bound=-0.4,
                passed=slope <= -0.4,
                detail=(
                    f"algorithm={alg}, log-log slope of mean time-averaged sq error "
                    f"over {window}, worst trial={worst} with final value {errors[worst][-1]:.4g}"
                ),
            )
        )
    return reports


def write_report_csv(reports: list[BoundReport], path) -> None:
    """``bounds.csv``: a header line, then one row per report.

    It goes through ``csv.writer``, which quotes the commas that
    ``detail`` cells hold. The numeric files go through ``_write_numeric_csv``.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["name", "empirical", "bound", "passed", "detail"])
        writer.writerows(
            [r.name, float(r.empirical), float(r.bound), str(r.passed).lower(), r.detail] for r in reports
        )


def run_experiment(
    config: ExperimentConfig,
    out_dir: str,
    workers: int = 1,
    progress=None,
) -> OutputBundle:
    """Execute all configured trials and write their bundle in ``out_dir``.

    Each (algorithm, trial) pair is one ``run_algorithm1`` or
    ``run_unbiased_baseline`` call. The run starts min(``workers``, usable
    CPUs, pairs) processes, the count its first ``progress`` line names;
    beyond one, ``_run_trials`` forks that many children, each pinned to
    a CPU and given every W-th pair, and where there is no ``os.fork``
    the run is serial. Each trial's file is written here as its trace
    arrives, before its ``progress`` line. A trial's trace depends only
    on the config and its index, and traces arrive in (algorithm, trial)
    order, so the artifacts do not depend on scheduling. However the run
    ends, no child outlives it. ``workers`` that is a bool, not an
    integer (``1.5`` and ``2.0`` included) or below 1 is a
    ``ValueError``, raised before any directory is made.

    ``out_dir`` may hold an earlier bundle, whose files the run
    overwrites. A file there that the run would not overwrite, a trial
    file its config does not name or an ``aggregate.csv`` or
    ``convergence.svg`` of a game it plots none for, would leave a bundle
    that contradicts its config; the first such file, trial files first,
    is a ``FileExistsError``, raised before any trial runs or any file is
    written. Otherwise the earlier ``config.yaml`` is removed before the
    first trial file is written and the new one written last, so a run
    that ends early leaves no bundle that ``report`` reads.
    """
    if not isinstance(workers, numbers.Integral) or isinstance(workers, bool):
        raise ValueError(f"workers: expected an integer, got {workers!r}")
    if workers < 1:
        raise ValueError(f"workers: must be >= 1, got {workers}")
    trials_dir = os.path.join(out_dir, "trials")
    columns, paths, stale = _trial_files(config.algorithms, config.trials, trials_dir)
    aggregate_csv, plot_svg = (os.path.join(out_dir, name) for name in ("aggregate.csv", "convergence.svg"))
    plotted = config.game.nash_equilibrium(config.alphas) is not None
    if not plotted:
        stale += [path for path in (aggregate_csv, plot_svg) if os.path.lexists(path)]
    if stale:
        raise FileExistsError(
            f"output directory holds {stale[0]}, which this config does not write; "
            "remove it or choose another output directory"
        )
    os.makedirs(trials_dir, exist_ok=True)
    config_yaml = os.path.join(out_dir, "config.yaml")
    if os.path.lexists(config_yaml):
        os.remove(config_yaml)

    def say(msg):
        if progress is not None:
            print(msg, file=progress)

    # the processes the run starts: no more than a CPU or a column each
    workers = min(workers, _usable_cpus(), len(columns))
    say(f"running {len(columns)} trials ({config.game.name}, T={config.horizon}, workers={workers})")
    traces = {alg: [] for alg in config.algorithms}
    trials = _run_trials(config, columns, workers)
    try:
        for n, ((alg, idx), path, trace) in enumerate(zip(columns, paths, trials), 1):
            write_trace_csv(trace, path)
            traces[alg].append(trace)
            say(f"trial {n}/{len(columns)} done: {alg} {idx}")
    finally:  # reaps the children now, though a kept traceback holds this frame
        trials.close()

    if plotted:
        aggregates = {alg: _aggregate(traces[alg]) for alg in config.algorithms}
        write_aggregate_csv(aggregates, config.algorithms, aggregate_csv)
        emit_plot(
            [(alg, aggregates[alg]["dist"]) for alg in config.algorithms],
            plot_svg,
        )
        say(f"wrote {aggregate_csv} and {plot_svg}")

    reports = compute_reports(config, traces)
    bounds_csv = os.path.join(out_dir, "bounds.csv")
    write_report_csv(reports, bounds_csv)

    with open(config_yaml, "w", encoding="utf-8", newline="\n") as fh:
        yaml.safe_dump(resolved_document(config), fh, sort_keys=False)
    say(f"wrote {bounds_csv} and {config_yaml}")

    return OutputBundle(out_dir=out_dir, traces=traces, reports=reports)


def load_bundle_traces(bundle_dir: str) -> tuple[ExperimentConfig, dict]:
    """A bundle's config and traces; a trial file the config does not name (a
    ``ConfigError``) or a missing one (``FileNotFoundError``) is refused before any is read."""
    config = load_config(os.path.join(bundle_dir, "config.yaml"))
    columns, paths, extra = _trial_files(config.algorithms, config.trials, os.path.join(bundle_dir, "trials"))
    if extra:
        raise ConfigError(f"bundle has trial file {extra[0]}, which its config.yaml does not name")
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        raise FileNotFoundError(f"bundle is missing trial file {missing[0]}")
    traces = {alg: [] for alg in config.algorithms}
    for (alg, _), path in zip(columns, paths):
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
    p_run.add_argument("--out", default="out", help="directory the bundle is written to (default: ./out)")
    p_run.add_argument("--workers", type=int, default=1)
    p_run.add_argument("--strict", action="store_true", help="exit nonzero if any bound report fails")

    p_val = sub.add_parser("validate", help="parse a config file and echo the resolved values")
    p_val.add_argument("--config", required=True)

    p_rep = sub.add_parser("report", help="recompute bound reports from a stored bundle")
    p_rep.add_argument("--bundle", required=True)
    p_rep.add_argument("--strict", action="store_true")

    args = parser.parse_args(argv)
    if args.command == "run" and args.workers < 1:
        p_run.error(f"argument --workers: must be >= 1, got {args.workers}")
    if args.command == "run" and not args.out:  # an unset shell variable would write into the working directory
        p_run.error("argument --out: expected a nonempty path")

    try:
        if args.command == "validate":
            config = load_config(args.config)
            yaml.safe_dump(resolved_document(config), sys.stdout, sort_keys=False)
            return 0

        if args.command == "run":
            config = load_config(args.config)
            bundle = run_experiment(config, args.out, workers=args.workers, progress=sys.stderr)
            for rep in bundle.reports:
                print(rep, file=sys.stderr)
            if args.strict and not _all_passed(bundle.reports):
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
