import csv
import hashlib
import inspect
import io
import json
import math
import os
import re
import signal
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from dataclasses import fields, replace
from decimal import Decimal
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from riskgames import cli
from riskgames.analysis import AggregateTrace, RunTrace, time_averaged_error
from riskgames.cli import (
    ConfigError,
    build_game,
    load_bundle_traces,
    load_config,
    main,
    read_trace_csv,
    resolved_document,
    run_experiment,
    trial_filename,
    validate_config,
    write_aggregate_csv,
    write_trace_csv,
    _aggregate,
    _run_trial,
    _write_numeric_csv,
)
from riskgames.learning import run_algorithm1, run_unbiased_baseline
from riskgames import plotting
from riskgames.plotting import emit_plot

from oracle import envelope, pixel_points

SVG = "{http://www.w3.org/2000/svg}"
PLOT_W = int(plotting._WIDTH - plotting._LEFT - plotting._RIGHT)

SMALL_RAW = {"game": "cournot", "T": 40, "trials": 2, "seed": 5}

# the bundle of PINNED_RAW, byte for byte
PINNED_RAW = {"game": "cournot", "T": 3, "trials": 1, "seed": 5}
PINNED_TRIAL = """\
t,x0,x1,err_sq,nu_agent0,nu_agent1,nu_star_agent0,nu_star_agent1
1,0.5,0.5,0.05555555555555557,0.7207618659459418,1.0544472499778554,0.8999999999999999,0.7
2,0.5383651012879839,0.3002582934900498,0.10151178603896244,0.6468643541235757,0.9010909015890165,0.8054474473265683,0.7713903598128051
3,0.5769346312413517,0.264400068008458,0.13717798677407894,0.623129270473282,0.913619949822496,0.7930735669726203,0.7994088428859925
"""
PINNED_AGGREGATE = """\
t,algorithm1_mean_err_sq,algorithm1_std_err_sq,algorithm1_mean_dist,algorithm1_std_dist,unbiased-fo_mean_err_sq,unbiased-fo_std_err_sq,unbiased-fo_mean_dist,unbiased-fo_std_dist
1,0.05555555555555557,0.0,0.23570226039551587,0.0,0.05555555555555557,0.0,0.23570226039551587,0.0
2,0.10151178603896244,0.0,0.31860914305613147,0.0,0.0821361911077327,0.0,0.2865941225980266,0.0
3,0.13717798677407894,0.0,0.3703754672951206,0.0,0.09042344520500972,0.0,0.300704913835823,0.0
"""

# sha256 of every CSV of a bundle; a speedup must leave these bytes alone.
# The writer's contract is orjson's shortest text, which reads back exactly
# under any orjson version; these pin its bytes under the one tested with.
GOLDEN_BUNDLES = {
    "cournot": (
        {"game": "cournot", "T": 400, "trials": 2, "seed": 0},
        {
            "trials/algorithm1-trial000.csv": "6df1efcfd1d03175dcbfa90f64ba56815c4877fe3aaa39ea3620930c8ff4c7d9",
            "trials/algorithm1-trial001.csv": "1621da4d03f9726787263de6e7bbf3efcd26ef2d089a4cd3c090991f309f5f61",
            "trials/unbiased-fo-trial000.csv": "6cbfa817e1dd3d447184cee28827abf4f3d3a1298566b9b9c52b40f7b3d83788",
            "trials/unbiased-fo-trial001.csv": "d4fc8344e5d933f51481b2199997f758849e06a42788a70febb1a0c53db3451e",
            "aggregate.csv": "9b441c6f9cb749fdad90c60b10fd8210b7dfee76468fcbc809d8dcd6f472d0ac",
            "bounds.csv": "62b72392454b25ed7be4345ea654edea935f1a0d8083bdf6595cd8a4099e46bc",
        },
    ),
    "windowed": (
        {"game": "cournot", "T": 400, "trials": 2, "seed": 0, "window": 50},
        {
            "trials/algorithm1-trial000.csv": "e612263bdf3d129124daa2f6763d00c21150d39ec4da9b6fa6006d937ef2c911",
            "trials/algorithm1-trial001.csv": "1a20de2692e326cf29568f9966d123f865ff4ee6f04316ce66c9bbf6c838b6ab",
            "trials/unbiased-fo-trial000.csv": "9cc0791c110f626ad40120977280c720640b60ad5da699791cdd95307637b99d",
            "trials/unbiased-fo-trial001.csv": "e1c5fa493867327be73bf55ff9391507f38b137f9da54ac40a41bef70d588a49",
            "aggregate.csv": "42f6ccf6ea84b88ee336b71f9cd096009391defca75a6af81406fb09bf6b2286",
            "bounds.csv": "695da2e985354490adfc9e397acf5a3d8b085ee2f8f64c83d80f3116a6f4218b",
        },
    ),
    "pinned": (
        {"game": "quadratic-counterexample", "alphas": [0.5, 1.0], "T": 400, "trials": 2, "seed": 0, "eta": 5.0},
        {
            "trials/algorithm1-trial000.csv": "cbb575a1aec214a08e022157057e8503d7b9151585a11248f729aa4c95b647cf",
            "trials/algorithm1-trial001.csv": "ade5adc12ec0b4af7ff6862eebeadb5c7ed825a8913dd7715913b58e36e3e243",
            "trials/unbiased-fo-trial000.csv": "1eec756ff11dc36e4c5f02033b663fbafa547784b11e23918089ab272ed4fdef",
            "trials/unbiased-fo-trial001.csv": "1eec756ff11dc36e4c5f02033b663fbafa547784b11e23918089ab272ed4fdef",
            "bounds.csv": "59597fd13124e1ef72a577c76e60ba569a2ae7bcaf5255f2284e7bf144c37226",
        },
    ),
}

# sha256 of convergence.svg of each golden bundle that draws one; the
# counterexample has no error curves, so no plot
GOLDEN_PLOTS = {
    "cournot": "958d831d193bd87760f049992df001420bd731225a966fbe52d8bd124420dd99",
    "windowed": "107b39fe6f63e06f31d9e8ed7f5a270cad3be8b34c28ca3aa8209816458b42e3",
}


def csv_writer_bytes(header, episodes, block) -> bytes:
    """What ``csv.writer`` writes for a header and per episode ``t`` and that row of ``block``.

    Each float is its ``repr``: the layout trial files were written in
    before the writer took orjson's shortest text.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([t, *row] for t, row in zip(episodes.tolist(), block.tolist()))
    return buf.getvalue().encode()


def assert_numeric_file(path, header, block) -> None:
    """``path`` holds ``header``, then per row of ``block`` its number ``t`` and its cells.

    ``csv.reader`` parses it, and the file is those rows joined by commas
    and ``"\\n"``, with no quoting. ``t`` is ``str(t)``. Every cell of
    ``block`` is finite; its cell has ``repr``'s shortest digits, in any
    layout, and reads back to the same bits.
    """
    text = Path(path).read_text()
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert text == "".join(",".join(row) + "\n" for row in rows)
    assert rows[0] == header
    assert len(rows) == len(block) + 1
    for t, (row, values) in enumerate(zip(rows[1:], block.tolist()), 1):
        assert row[0] == str(t)
        assert len(row) == len(values) + 1, t
        for cell, value in zip(row[1:], values):
            assert math.isfinite(value), (t, cell, value)
            assert Decimal(cell) == Decimal(repr(value)), (t, cell, value)
            assert struct.pack("<d", float(cell)) == struct.pack("<d", value), (t, cell, value)


# a positive float of any magnitude, uniform in its binary exponent
_LOG_UNIFORM = st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True), st.integers(-1074, 1023))
_SIGNED_LOG_UNIFORM = st.builds(lambda sign, size: sign * size, st.sampled_from([-1.0, 1.0]), _LOG_UNIFORM)

# a plot coordinate in [24, 696]: any, an exact tie x.xx5 (a multiple of 1/8),
# or a double next to x.xx5
_PIXEL = st.one_of(
    st.floats(24.0, 696.0),
    st.integers(24 * 8, 696 * 8).map(lambda k: k / 8),
    st.builds(
        lambda k, toward: math.nextafter((k + 0.5) / 100, toward),
        st.integers(2400, 69599),
        st.sampled_from([0.0, 1000.0]),
    ),
)

# any float64 bit pattern: NaNs with any payload, infinities, signed zeros, subnormals
_ANY_FLOAT64 = st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])


# one row with a cell of each kind that orjson lays out unlike repr: the
# 1e-5 decade and exponents; and -0.0 and the smallest subnormal
MIXED_ROW = [1.2345e-05, -5e-05, 1e-05, 1e16, -1.5e-07, 2.5e-300, -0.0, 5e-324, 0.1]


def finite_bit_patterns(seed: int, shape) -> np.ndarray:
    """Random float64 bit patterns of ``shape``; a NaN or an infinity has its lowest exponent bit cleared."""
    bits = np.random.default_rng(seed).integers(0, 2**64, size=shape, dtype=np.uint64)
    bits[(bits >> 52) & 0x7FF == 0x7FF] ^= 1 << 52
    return bits.view(np.float64)


def chunk_edge_block(rows: int) -> np.ndarray:
    """``rows`` rows of random finite float64 bit patterns, with ``MIXED_ROW`` as every 100th row and the last."""
    block = finite_bit_patterns(rows, (rows, len(MIXED_ROW)))
    block[::100] = MIXED_ROW
    block[-1] = MIXED_ROW
    return block


@st.composite
def float_blocks(draw, finite=False):
    """A float64 block of 1-40 rows and 1-3 columns; with ``finite`` no NaN or infinite cells."""
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 3))
    floats = st.floats(allow_nan=not finite, allow_infinity=not finite)
    any_bits = _ANY_FLOAT64.filter(math.isfinite) if finite else _ANY_FLOAT64
    cells = draw(st.lists(st.one_of(floats, any_bits), min_size=rows * cols, max_size=rows * cols))
    return np.array(cells, dtype=np.float64).reshape(rows, cols)


@pytest.fixture(scope="module")
def small_trial(tmp_path_factory):
    """The config of ``SMALL_RAW`` (T = 40) and the bytes of one of its trial files."""
    config = validate_config(dict(SMALL_RAW))
    path = tmp_path_factory.mktemp("small-trial") / "trial.csv"
    write_trace_csv(cli._run_trial(config, ("unbiased-fo", 1)), path)
    return config, path.read_bytes()


def write_config(tmp_path, raw, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return str(path)


def pin_cpus(monkeypatch, count):
    """Make this process see ``count`` usable CPUs, with or without an affinity call."""
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def record_forks(monkeypatch) -> list:
    """Count the processes a run forks: the list gets the forking pid once per ``os.fork``."""
    forks, fork = [], os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


@contextmanager
def time_limit(seconds: float):
    """End the block with a ``TimeoutError`` in place of a hang, after ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# each numeric config field as YAML text around a number's literal, and how
# to read the field back from the config
NUMERIC_FIELDS = [
    ("a", "game: quadratic-counterexample\na: {}\n", lambda cfg: dict(cfg.game_params)["a"]),
    ("b", "game: quadratic-counterexample\nb: {}\n", lambda cfg: dict(cfg.game_params)["b"]),
    ("c", "game: quadratic-counterexample\nc: {}\n", lambda cfg: dict(cfg.game_params)["c"]),
    ("d", "game: quadratic-counterexample\nd: {}\n", lambda cfg: dict(cfg.game_params)["d"]),
    ("eta", "game: cournot\neta: {}\n", lambda cfg: cfg.eta),
    ("alphas[1]", "game: cournot\nalphas: [0.4, {}]\n", lambda cfg: cfg.alphas[1]),
    ("x0[0]", "game: cournot\nx0: [{}, 0.5]\n", lambda cfg: cfg.x0[0]),
]


class TestValidateConfig:
    def test_defaults_fill_in(self):
        cfg = validate_config({"game": "cournot", "T": 5000})
        assert cfg.alphas == (0.4, 0.8)
        assert cfg.trials == 20
        assert cfg.seed == 0
        assert cfg.eta is None
        assert cfg.algorithms == ("algorithm1", "unbiased-fo")
        assert cfg.window is None
        assert resolved_document(cfg)["edf"] == "exact"
        assert cfg.x0 == (0.5, 0.5)

    def test_counterexample_parameters(self):
        cfg = validate_config(
            {
                "game": "quadratic-counterexample",
                "a": 1,
                "b": 1,
                "c": 0,
                "d": 1,
                "alphas": [0.5, 0.5],
                "T": 10,
            }
        )
        assert dict(cfg.game_params) == {"a": 1.0, "b": 1.0, "c": 0.0, "d": 1.0}
        game = build_game(cfg)
        assert game.num_agents == 2

    @pytest.mark.parametrize(
        "raw,fragment",
        [
            ({"T": 10}, "game"),
            ({"game": "nosuch", "T": 10}, "unknown game"),
            ({"game": "cournot"}, "T"),
            ({"game": "cournot", "T": 0}, "T"),
            ({"game": "cournot", "T": 10, "bogus": 1}, "unknown key"),
            ({"game": "cournot", "T": 10, "alphas": [1.5, 0.5]}, "alphas[0]"),
            ({"game": "cournot", "T": 10, "alphas": [0.4]}, "alphas"),
            ({"game": "cournot", "T": 10, "alphas": "x"}, "alphas"),
            ({"game": "cournot", "T": 10, "trials": 0}, "trials"),
            ({"game": "cournot", "T": 10, "seed": -1}, "seed"),
            ({"game": "cournot", "T": 10, "eta": -0.1}, "eta"),
            ({"game": "cournot", "T": 10, "eta": "fast"}, "eta"),
            ({"game": "cournot", "T": 10, "algorithms": []}, "algorithms"),
            ({"game": "cournot", "T": 10, "algorithms": ["zo"]}, "algorithms"),
            ({"game": "cournot", "T": 10, "algorithms": ["algorithm1", "algorithm1"]}, "algorithms"),
            ({"game": "cournot", "T": 10, "window": -2}, "window"),
            ({"game": "cournot", "T": 10, "edf": "binned"}, "edf"),
            ({"game": "cournot", "T": 10, "edf": "sorted"}, "edf"),
            ({"game": "cournot", "T": 10, "edf": 3}, "edf"),
            ({"game": "cournot", "T": 10, "x0": [0.5]}, "x0"),
            ({"game": "cournot", "T": 10, "x0": [1.5, 0.5]}, "x0"),
            ({"game": "cournot", "T": 10, "a": 1.0}, "a"),
            ({"game": "cournot", "T": "many"}, "T"),
            ([1, 2], "mapping"),
            ({"game": "cournot", "T": 10, "edf": "binned:200"}, "edf: the binned EDF was removed"),
            ({"game": "quadratic-counterexample", "T": 10, "a": -1}, "a: must be positive"),
            ({"game": "quadratic-counterexample", "T": 10, "b": 0}, "b: must be positive"),
            ({"game": "quadratic-counterexample", "T": 10, "d": 0}, "d: must be positive"),
            ({"game": [1], "T": 10}, "game: unknown game"),
            ({"game": "cournot", "T": 10, "window": False}, "window"),
            ({"game": "cournot", "T": 10, "window": 0.0}, "window"),
        ],
    )
    def test_rejections_name_the_field(self, raw, fragment):
        with pytest.raises(ConfigError) as err:
            validate_config(raw)
        assert fragment in str(err.value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400])
    @pytest.mark.parametrize(
        "field,make",
        [
            ("a", lambda v: {"game": "quadratic-counterexample", "a": v}),
            ("b", lambda v: {"game": "quadratic-counterexample", "b": v}),
            ("c", lambda v: {"game": "quadratic-counterexample", "c": v}),
            ("d", lambda v: {"game": "quadratic-counterexample", "d": v}),
            ("eta", lambda v: {"game": "cournot", "eta": v}),
            ("alphas[1]", lambda v: {"game": "cournot", "alphas": [0.4, v]}),
            ("x0[0]", lambda v: {"game": "cournot", "x0": [v, 0.5]}),
        ],
    )
    def test_non_finite_numbers_rejected(self, field, make, value):
        with pytest.raises(ConfigError) as err:
            validate_config({**make(value), "T": 10})
        assert str(err.value).startswith(f"{field}: must be finite")

    def test_window_zero_means_off(self):
        cfg = validate_config({"game": "cournot", "T": 10, "window": 0})
        assert cfg.window is None
        cfg = validate_config({"game": "cournot", "T": 10, "window": 25})
        assert cfg.window == 25

    @pytest.mark.parametrize("literal", ["1e-3", "2E+1"])
    @pytest.mark.parametrize("field,text,read", NUMERIC_FIELDS, ids=[f[0] for f in NUMERIC_FIELDS])
    def test_an_exponent_without_a_dot_is_a_number(self, tmp_path, field, text, read, literal):
        # YAML 1.1 reads 1e-3 as a string; the config loader reads it as
        # JSON and YAML 1.2 do. 20 is outside an alpha's range and the box
        path = tmp_path / "config.yaml"
        path.write_text(text.format(literal) + "T: 10\n", encoding="utf-8")
        out_of_range = {
            ("alphas[1]", "2E+1"): "alphas[1]: must be in (0, 1], got 20.0",
            ("x0[0]", "2E+1"): "x0: outside the action boxes",
        }
        if (field, literal) in out_of_range:
            with pytest.raises(ConfigError, match=re.escape(out_of_range[field, literal])):
                load_config(str(path))
        else:
            assert read(load_config(str(path))) == float(literal)

    @pytest.mark.parametrize("field,text,read", NUMERIC_FIELDS, ids=[f[0] for f in NUMERIC_FIELDS])
    def test_an_overflowing_exponent_is_not_finite(self, tmp_path, field, text, read):
        path = tmp_path / "config.yaml"
        path.write_text(text.format("1e400") + "T: 10\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(f"{field}: must be finite, got inf")):
            load_config(str(path))

    def test_a_quoted_exponent_stays_a_string(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("game: cournot\nT: 10\neta: '1e5'\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape("eta: expected a number, got '1e5'")):
            load_config(str(path))

    def test_a_config_that_json_dump_wrote_loads(self, tmp_path):
        # json.dump writes 1e-05 for a small float, YAML 1.1 a string
        raw = {"game": "quadratic-counterexample", "T": 10, "eta": 1e-05, "a": 1e-50, "x0": [5e-1, 0.5]}
        path = tmp_path / "config.yaml"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert '"eta": 1e-05' in path.read_text(encoding="utf-8")
        cfg = load_config(str(path))
        assert (cfg.eta, dict(cfg.game_params)["a"], cfg.x0) == (1e-05, 1e-50, (0.5, 0.5))
        # and the resolved document, as a run writes it, loads back to the same config
        resolved = tmp_path / "resolved.yaml"
        resolved.write_text(yaml.safe_dump(resolved_document(cfg), sort_keys=False), encoding="utf-8")
        assert load_config(str(resolved)) == cfg

    def test_resolved_document_round_trips(self):
        for raw in (
            SMALL_RAW,
            {"game": "cournot", "T": 7, "eta": 0.01, "window": 3, "edf": "exact"},
            {"game": "quadratic-counterexample", "a": 2.0, "d": 0.5, "T": 9},
        ):
            cfg = validate_config(dict(raw))
            doc = resolved_document(cfg)
            reparsed = validate_config(yaml.safe_load(yaml.safe_dump(doc)))
            assert reparsed == cfg


class TestBundle:
    def test_minimal_bundle(self, tmp_path):
        cfg = validate_config({"game": "cournot", "T": 1, "trials": 1})
        bundle = run_experiment(cfg, out_dir=str(tmp_path / "out"))
        trial = bundle.trial_paths[("algorithm1", 0)]
        with open(trial) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2  # header plus the single episode
        assert rows[0][:4] == ["t", "x0", "x1", "err_sq"]
        assert os.path.exists(bundle.report_path)
        assert os.path.exists(bundle.config_path)
        assert bundle.aggregate_path and os.path.exists(bundle.aggregate_path)
        # too short for a rate fit: only concentration and bias rows
        assert all(r.name in ("lemma3", "lemma4") for r in bundle.reports)

    def test_csv_round_trip_preserves_floats(self, tmp_path):
        cournot = validate_config(SMALL_RAW)
        counter = validate_config({"game": "quadratic-counterexample", "T": 25})
        extreme = run_algorithm1(build_game(cournot), (0.4, 0.8), 4, seed=3)
        extreme.actions[0] = [-0.0, 5e-324]
        extreme.nu[1] = [1.7976931348623157e308, -1.7976931348623157e308]
        extreme.nu_star[2] = [0.30000000000000004, 2.2250738585072014e-308]
        extreme.err_sq[:] = [-0.0, 5e-324, 1.2345678901234567e-5, 1.7976931348623157e308]
        cases = [
            (cournot, run_algorithm1(build_game(cournot), (0.4, 0.8), 25, seed=3)),
            (cournot, run_algorithm1(build_game(cournot), (0.4, 0.8), 1, seed=3)),
            (counter, run_algorithm1(build_game(counter), (0.5, 0.5), 25, seed=3)),
            (cournot, extreme),
        ]
        for index, (config, trace) in enumerate(cases):
            path = tmp_path / f"trace{index}.csv"
            write_trace_csv(trace, path)
            # the reader checks the row count against the config's horizon
            back = read_trace_csv(path, replace(config, horizon=trace.horizon))
            # every field, so that one the file does not hold fails here
            for field in (f.name for f in fields(RunTrace)):
                ours, theirs = getattr(back, field), getattr(trace, field)
                assert (ours is None) == (theirs is None), field
                if ours is not None:
                    assert ours.shape == theirs.shape, field
                    assert np.array_equal(ours.view(np.int64), theirs.view(np.int64)), field
        assert cases[2][1].err_sq is None and cases[2][1].nu_star is not None

    def test_trial_file_in_repr_layout_reads_back(self, tmp_path):
        # a bundle written before the writer took orjson's shortest text has
        # every float as its repr, 1e-5 decade and two-digit exponents included
        config = validate_config({**SMALL_RAW, "T": 4})
        trace = run_algorithm1(build_game(config), (0.4, 0.8), 4, seed=3)
        trace.actions[0] = [1.2345e-05, 5e-05]
        trace.nu[1] = [1e16, -2.5e300]
        trace.nu_star[2] = [1.5e-06, -9.999999999999999e-05]
        trace.err_sq[:] = [1e-05, 1.5e-07, 1e22, 5e-324]
        header = ["t", "x0", "x1", "err_sq", "nu_agent0", "nu_agent1", "nu_star_agent0", "nu_star_agent1"]
        block = np.column_stack([trace.actions, trace.err_sq, trace.nu, trace.nu_star])
        old = csv_writer_bytes(header, np.arange(1, 5), block)
        for cell in (b",1.2345e-05,", b",1e+16,", b",1.5e-06,", b",1e+22,"):
            assert cell in old
        path = tmp_path / "old.csv"
        path.write_bytes(old)
        write_trace_csv(trace, tmp_path / "new.csv")
        assert (tmp_path / "new.csv").read_bytes() != old
        back = read_trace_csv(path, config)
        for field in ("actions", "err_sq", "nu", "nu_star"):
            assert np.array_equal(getattr(back, field).view(np.int64), getattr(trace, field).view(np.int64)), field

    def test_bundle_bytes_are_pinned(self, tmp_path):
        bundle = run_experiment(validate_config(dict(PINNED_RAW)), out_dir=str(tmp_path / "pinned"))
        with open(bundle.trial_paths[("algorithm1", 0)], "rb") as fh:
            assert fh.read() == PINNED_TRIAL.encode()
        with open(bundle.aggregate_path, "rb") as fh:
            assert fh.read() == PINNED_AGGREGATE.encode()

    @pytest.mark.parametrize("name", list(GOLDEN_BUNDLES))
    def test_bundle_hashes_are_pinned(self, tmp_path, name):
        # both algorithms at T = 400: no window, a 50-draw window, and steps
        # that pin the counterexample game to its box faces (no error curves,
        # so no aggregate.csv)
        raw, expected = GOLDEN_BUNDLES[name]
        run_experiment(validate_config(dict(raw)), out_dir=str(tmp_path))
        paths = sorted(tmp_path.glob("trials/*.csv")) + sorted(tmp_path.glob("*.csv"))
        digests = {
            path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in paths
        }
        assert digests == expected

    @pytest.mark.parametrize("name", list(GOLDEN_PLOTS))
    def test_plot_bytes_are_pinned(self, tmp_path, name):
        bundle = run_experiment(validate_config(dict(GOLDEN_BUNDLES[name][0])), out_dir=str(tmp_path))
        assert hashlib.sha256(Path(bundle.plot_path).read_bytes()).hexdigest() == GOLDEN_PLOTS[name]

    def test_numeric_writers_match_csv_writer(self, tmp_path):
        def assert_trace_file(path, trace):
            header, columns = ["t"], []
            header += [f"x{j}" for j in range(trace.actions.shape[1])]
            columns += list(trace.actions.T)
            if trace.err_sq is not None:
                header.append("err_sq")
                columns.append(trace.err_sq)
            header += [f"nu_agent{i}" for i in range(trace.num_agents)]
            columns += list(trace.nu.T)
            header += [f"nu_star_agent{i}" for i in range(trace.num_agents)]
            columns += list(trace.nu_star.T)
            assert_numeric_file(path, header, np.column_stack(columns))

        cournot = build_game(validate_config(SMALL_RAW))
        counter = build_game(validate_config({"game": "quadratic-counterexample", "T": 25}))
        extreme = run_algorithm1(cournot, (0.4, 0.8), 4, seed=3)
        extreme.actions[0] = [-0.0, 5e-324]
        extreme.nu[1] = [1.7976931348623157e308, -1.7976931348623157e308]
        extreme.nu_star[2] = [0.30000000000000004, 2.2250738585072014e-308]
        extreme.err_sq[:] = [-0.0, 5e-324, 1.2345678901234567e-5, 1.7976931348623157e308]
        cases = {
            "extreme": extreme,
            "one-episode": run_algorithm1(cournot, (0.4, 0.8), 1, seed=3),
            "counterexample": run_algorithm1(counter, (0.5, 0.5), 25, seed=3),
        }
        assert cases["counterexample"].err_sq is None
        for name, trace in cases.items():
            path = tmp_path / f"{name}.csv"
            write_trace_csv(trace, path)
            assert_trace_file(path, trace)

        runs = {
            "algorithm1": [run_algorithm1(cournot, (0.4, 0.8), 30, seed=s) for s in (1, 2)],
            "unbiased-fo": [run_unbiased_baseline(cournot, (0.4, 0.8), 30, seed=s) for s in (1, 2)],
        }
        aggregates = {alg: _aggregate(traces) for alg, traces in runs.items()}
        header, columns = ["t"], []
        for alg, agg in aggregates.items():
            for kind, stat in (("err_sq", "mean"), ("err_sq", "std"), ("dist", "mean"), ("dist", "std")):
                header.append(f"{alg}_{stat}_{kind}")
                columns.append(getattr(agg[kind], stat))
        path = tmp_path / "aggregate.csv"
        write_aggregate_csv(aggregates, list(runs), path)
        assert_numeric_file(path, header, np.column_stack(columns))

    # the edges of orjson's layout, where it stops writing what repr writes
    @example(
        block=np.array(
            [[9.999999999999999e-05, 1e-4, 1e-5, -1.2345e-05, 9.999999999999999e-06, 9999999999999998.0, 1e16]]
        ).T
    )
    # the cells that orjson lays out unlike repr: the 1e-5 decade's ends,
    # one-digit and positive exponents, and the float range's ends
    @example(
        block=np.array(
            [
                [1e-05, -1e-05, 1.0000000000000002e-05, 9.999999999999999e-05, 5e-05, 1e-06],
                [9e-10, 1e-10, 1e16, 1.5e300, 5e-324, -5e-05],
            ]
        )
    )
    # such cells, -0.0 and the smallest subnormal mixed in one row
    @example(block=np.array([MIXED_ROW]))
    # a chunk of rows, one row short of it and one past it, ending on that row
    @example(block=chunk_edge_block(cli._CSV_CHUNK_ROWS - 1))
    @example(block=chunk_edge_block(cli._CSV_CHUNK_ROWS))
    @example(block=chunk_edge_block(cli._CSV_CHUNK_ROWS + 1))
    # more than two chunks of rows, so that chunk boundaries are crossed
    @example(block=finite_bit_patterns(0, (2 * cli._CSV_CHUNK_ROWS + 5, 3)))
    @given(block=float_blocks(finite=True))
    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_numeric_writer_writes_what_csv_writer_writes(self, tmp_path, block):
        header = ["t"] + [f"c{j}" for j in range(block.shape[1])]
        path = tmp_path / "block.csv"
        _write_numeric_csv(path, header, block)
        assert_numeric_file(path, header, block)

    @pytest.mark.parametrize("ranges", [[(1e-5, 1e-4)], [(1e-10, 1e-5), (1e15, 1e17)]])
    def test_numeric_writer_matches_csv_writer_on_orjson_layouts(self, tmp_path, ranges):
        # 10^5 random bit patterns of both signs in each set of ranges: the
        # 1e-5 decade, which orjson writes as 0.0000ddd, and where it writes
        # an exponent without repr's sign or second digit
        rng = np.random.default_rng(11)
        ends = np.array(ranges).view(np.int64)
        bits = np.concatenate([rng.integers(lo, hi, size=10**5 // len(ends)) for lo, hi in ends])
        block = (bits.view(np.float64) * rng.choice([-1.0, 1.0], size=bits.size)).reshape(-1, 4)
        header = ["t"] + [f"c{j}" for j in range(block.shape[1])]
        path = tmp_path / "block.csv"
        _write_numeric_csv(path, header, block)
        assert_numeric_file(path, header, block)

    def test_numeric_writer_peak_does_not_grow_with_rows(self, tmp_path):
        # the writer holds one chunk of rows at a time, 170-180 bytes per
        # cell as measured; a whole 10^4-row file in memory breaks this cap
        width = 3
        cap = 256 * cli._CSV_CHUNK_ROWS * (1 + width)
        header = ["t"] + [f"c{j}" for j in range(width)]
        rng = np.random.default_rng(0)
        for rows in (10**4, 10**5):
            # a quarter of the cells below 1e-4, which orjson writes as 0.0000ddd or with an exponent
            block = rng.random((rows, width)) * 10.0 ** rng.integers(-5, 3, size=(rows, width))
            tracemalloc.start()
            try:
                _write_numeric_csv(tmp_path / "block.csv", header, block)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= cap, rows

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_numeric_writer_refuses_a_non_finite_cell(self, tmp_path, value):
        # read_trace_csv refuses such a cell; the writer names the first one
        # and leaves no file
        header = ["t", "c0", "c1", "c2"]
        block = np.ones((2 * cli._CSV_CHUNK_ROWS, 3))
        block[cli._CSV_CHUNK_ROWS + 6, 2] = value
        block[-1] = value
        path = tmp_path / "block.csv"
        with pytest.raises(ValueError) as info:
            _write_numeric_csv(path, header, block)
        row = cli._CSV_CHUNK_ROWS + 7
        assert str(info.value) == f"numeric file {path}: row {row}, column c2: expected a finite number, got {value!r}"
        assert not path.exists()

    @pytest.mark.parametrize("layout", [lambda block: block.astype(np.float32), np.asfortranarray], ids=["float32", "fortran"])
    def test_numeric_writer_takes_a_block_as_its_c_ordered_float64_copy(self, tmp_path, layout):
        # orjson's numpy serializer refuses an array that is not C-ordered
        # and writes a float32 array's own shortest digits
        header = ["t", "c0", "c1", "c2"]
        block = layout(np.random.default_rng(4).random((cli._CSV_CHUNK_ROWS + 3, 3)) * [1e-6, 1.0, 1e6])
        copy = np.array(block, dtype=np.float64, order="C")
        _write_numeric_csv(tmp_path / "block.csv", header, block)
        _write_numeric_csv(tmp_path / "copy.csv", header, copy)
        assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "copy.csv").read_bytes()
        assert_numeric_file(tmp_path / "block.csv", header, copy)

    # the edges of the float range, and -0.0
    @example(
        block=np.array([[-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]]).T,
        game="cournot",
    )
    # one row, T = 1
    @example(block=np.array([[1.2345678901234567e-5]]), game="cournot")
    # more than two chunks of rows, so that chunk boundaries are crossed
    @example(
        block=np.random.default_rng(0).standard_normal((2 * cli._CSV_CHUNK_ROWS + 5, 3))
        * 10.0 ** np.random.default_rng(1).integers(-300, 300, size=(2 * cli._CSV_CHUNK_ROWS + 5, 3)),
        game="cournot",
    )
    # a file without err_sq
    @example(block=np.array([[0.5, -3.0], [1e-300, 7.0]]), game="quadratic-counterexample")
    @given(block=float_blocks(), game=st.sampled_from(["cournot", "quadratic-counterexample"]))
    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_reader_reads_what_np_loadtxt_reads(self, tmp_path, block, game):
        # the block's cells, repeated to fill a trial file of the game's layout
        config = validate_config({"game": game, "T": len(block)})
        header = ["t", "x0", "x1", "err_sq", "nu_agent0", "nu_agent1", "nu_star_agent0", "nu_star_agent1"]
        if build_game(config).nash_equilibrium(config.alphas) is None:
            header.remove("err_sq")
        cells = np.resize(block, (len(block), len(header) - 1))
        if "err_sq" in header:
            cells[:, 2] = np.abs(cells[:, 2])  # a trace's squared distances are not negative
        path = tmp_path / "trial.csv"
        if not np.isfinite(cells).all():
            # the writer refuses such a file, so csv.writer writes it
            path.write_bytes(csv_writer_bytes(header, np.arange(1, len(cells) + 1), cells))
            with pytest.raises(ConfigError, match="expected a finite number"):
                read_trace_csv(path, config)
            return
        _write_numeric_csv(path, header, cells)
        trace = read_trace_csv(path, config)
        err_sq = [] if trace.err_sq is None else [trace.err_sq[:, None]]
        ours = np.hstack([trace.actions, *err_sq, trace.nu, trace.nu_star])
        theirs = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(theirs[:, 0], np.arange(1, len(block) + 1))
        assert np.array_equal(ours.view(np.int64), theirs[:, 1:].view(np.int64))

    @given(data=st.data())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_reader_names_the_row_of_a_one_byte_edit(self, tmp_path, small_trial, data):
        # one row walk explains every refusal of the body: it names the
        # edited row, or the next when a "\n" split the row in two
        config, text = small_trial
        pos = data.draw(st.integers(0, len(text) - 1), label="position")
        new = data.draw(st.integers(0, 255), label="byte")
        path = tmp_path / "trial.csv"
        path.write_bytes(text[:pos] + bytes([new]) + text[pos + 1 :])
        try:
            read_trace_csv(path, config)
            return
        except ConfigError as exc:
            message = str(exc)
        row = text[:pos].count(b"\n")  # the header is line 0
        if row == 0:
            return
        if new >= 0x80:  # a lone non-ASCII byte is not UTF-8
            assert "not UTF-8 text" in message
        rows = (row, row + 1) if new == ord("\n") else (row,)
        assert any(re.search(rf"\brow {r}[:,] ", message) for r in rows), (pos, new, message)

    def test_reader_peak_does_not_grow_with_rows(self, tmp_path):
        # the reader holds one chunk of rows at a time besides the array
        # its trace is a view of, 100-110 bytes per cell as measured; a
        # whole 10^4-row file in memory breaks this cap
        header = ["t", "x0", "x1", "err_sq", "nu_agent0", "nu_agent1", "nu_star_agent0", "nu_star_agent1"]
        width = len(header)
        cap = 160 * cli._CSV_CHUNK_ROWS * width
        rng = np.random.default_rng(0)
        for rows in (10**4, 10**5):
            block = rng.random((rows, width - 1)) * 10.0 ** rng.integers(-5, 3, size=(rows, width - 1))
            _write_numeric_csv(tmp_path / "trial.csv", header, block)
            config = validate_config({"game": "cournot", "T": rows})
            tracemalloc.start()
            try:
                trace = read_trace_csv(tmp_path / "trial.csv", config)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            held = trace.actions.base
            assert held.shape == (rows, width) and trace.nu.base is held
            assert peak - held.nbytes <= cap, rows

    def test_run_experiment_rejects_fewer_than_one_worker(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="workers: must be >= 1, got 0"):
            run_experiment(validate_config(dict(SMALL_RAW)), out_dir=str(out), workers=0)
        assert not out.exists()

    @pytest.mark.parametrize("workers", [1.5, 2.0, True, "2"])
    def test_run_experiment_rejects_a_non_integer_worker_count(self, tmp_path, workers):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=re.escape(f"workers: expected an integer, got {workers!r}")):
            run_experiment(validate_config(dict(SMALL_RAW)), out_dir=str(out), workers=workers)
        assert not out.exists()

    @pytest.mark.parametrize("raw", [SMALL_RAW, {**SMALL_RAW, "T": 200}], ids=["T40", "rate-row"])
    def test_run_and_report_call_no_lapack(self, tmp_path, monkeypatch, raw):
        # the equilibrium and the rate slope are closed forms: a run and a
        # report load no LAPACK library (T = 200 also fits a rate row)
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK was called")

        for module, name in ((np.linalg, "solve"), (np.linalg, "lstsq"), (np, "polyfit")):
            monkeypatch.setattr(module, name, refuse)
        out = str(tmp_path / "bundle")
        bundle = run_experiment(validate_config(dict(raw)), out_dir=out)
        assert any(r.name == "rate" for r in bundle.reports) == (raw["T"] >= 200)
        assert main(["report", "--bundle", out]) == 0

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = validate_config(dict(SMALL_RAW))
        b1 = run_experiment(cfg, out_dir=str(tmp_path / "one"))
        b2 = run_experiment(cfg, out_dir=str(tmp_path / "two"))
        for paths in (("aggregate.csv",), ("bounds.csv",), ("config.yaml",)):
            p1 = os.path.join(b1.out_dir, *paths)
            p2 = os.path.join(b2.out_dir, *paths)
            assert Path(p1).read_bytes() == Path(p2).read_bytes()
        for key, path in b1.trial_paths.items():
            other = b2.trial_paths[key]
            assert Path(path).read_bytes() == Path(other).read_bytes()

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        # 3 workers share the 4 trials unevenly; workers are capped at the
        # usable CPUs, so pin a count that does not cap them
        pin_cpus(monkeypatch, 4)
        cfg = validate_config(dict(SMALL_RAW))
        serial = run_experiment(cfg, out_dir=str(tmp_path / "serial"), workers=1)
        for workers in (2, 3):
            parallel = run_experiment(cfg, out_dir=str(tmp_path / f"w{workers}"), workers=workers)
            for name in ("aggregate.csv", "bounds.csv"):
                with open(os.path.join(serial.out_dir, name), "rb") as a:
                    with open(os.path.join(parallel.out_dir, name), "rb") as b:
                        assert a.read() == b.read()
            assert parallel.trial_paths.keys() == serial.trial_paths.keys()
            for key, path in serial.trial_paths.items():
                with open(path, "rb") as a, open(parallel.trial_paths[key], "rb") as b:
                    assert a.read() == b.read()

    def test_workers_capped_at_cpu_count(self, tmp_path, monkeypatch):
        # a run forks all its workers at once, so --workers 500 must not
        # fork 500 processes
        forks = record_forks(monkeypatch)
        pin_cpus(monkeypatch, 2)
        cfg = validate_config(dict(SMALL_RAW))
        serial = run_experiment(cfg, out_dir=str(tmp_path / "serial"), workers=1)
        assert forks == []
        wide = run_experiment(cfg, out_dir=str(tmp_path / "wide"), workers=500)
        assert 0 < len(forks) <= 2
        assert wide.trial_paths.keys() == serial.trial_paths.keys()
        for key, path in serial.trial_paths.items():
            with open(path, "rb") as a, open(wide.trial_paths[key], "rb") as b:
                assert a.read() == b.read()

    @pytest.mark.parametrize("affinity", [True, False], ids=["affinity", "no-affinity"])
    def test_workers_capped_at_the_usable_cpus(self, tmp_path, monkeypatch, affinity):
        # under taskset or a container's CPU set the process may run on
        # fewer CPUs than the host has; without an affinity call the CPU
        # count is the cap
        forks = record_forks(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 8 if affinity else 3)
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 6}, raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        cfg = validate_config(dict(SMALL_RAW))
        run_experiment(cfg, out_dir=str(tmp_path / "out"), workers=8)
        assert len(forks) == 3

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_one_progress_line_per_trial(self, tmp_path, capsys, monkeypatch, workers):
        pin_cpus(monkeypatch, 8)
        progress = io.StringIO()
        cfg = validate_config(dict(SMALL_RAW))
        run_experiment(cfg, out_dir=str(tmp_path / "out"), workers=workers, progress=progress)
        lines = progress.getvalue().splitlines()
        # the processes the run starts: no more than one per trial
        assert lines[0] == f"running 4 trials (cournot, T=40, workers={min(workers, 4)})"
        done = [line for line in lines if line.startswith("trial ")]
        # in (algorithm, trial) order, whatever the scheduling
        assert done == [
            f"trial {n}/4 done: {alg} {idx}"
            for n, (alg, idx) in enumerate(
                [(a, i) for a in ("algorithm1", "unbiased-fo") for i in range(2)], 1
            )
        ]
        # data only goes to files
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_trial_file_is_written_before_its_progress_line(self, tmp_path, monkeypatch, workers):
        pin_cpus(monkeypatch, 2)
        trials = tmp_path / "out" / "trials"
        seen = []

        class Progress:
            def write(self, text):
                if text.startswith("trial "):
                    alg, idx = text.split(": ")[1].split()
                    path = trials / trial_filename(alg, int(idx))
                    assert path.exists(), text
                    assert len(path.read_text().splitlines()) == 1 + SMALL_RAW["T"], text
                    seen.append(text)

        cfg = validate_config(dict(SMALL_RAW))
        run_experiment(cfg, out_dir=str(tmp_path / "out"), workers=workers, progress=Progress())
        assert len(seen) == 4

    def test_a_run_of_one_trial_is_serial_and_says_so(self, tmp_path, monkeypatch):
        forks = record_forks(monkeypatch)
        pin_cpus(monkeypatch, 2)
        progress = io.StringIO()
        cfg = validate_config({**SMALL_RAW, "trials": 1, "algorithms": ["algorithm1"]})
        run_experiment(cfg, out_dir=str(tmp_path / "out"), workers=2, progress=progress)
        assert progress.getvalue().splitlines()[0] == "running 1 trials (cournot, T=40, workers=1)"
        assert forks == []

    def test_without_fork_a_run_is_serial(self, tmp_path, monkeypatch):
        # where there is no os.fork, as on Windows, one CPU is usable
        pin_cpus(monkeypatch, 4)
        monkeypatch.delattr(os, "fork")
        progress = io.StringIO()
        cfg = validate_config(dict(SMALL_RAW))
        serial = run_experiment(cfg, out_dir=str(tmp_path / "serial"), workers=1)
        run = run_experiment(cfg, out_dir=str(tmp_path / "out"), workers=4, progress=progress)
        assert progress.getvalue().splitlines()[0] == "running 4 trials (cournot, T=40, workers=1)"
        for key, path in serial.trial_paths.items():
            assert Path(path).read_bytes() == Path(run.trial_paths[key]).read_bytes()

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable CPUs"
    )
    def test_each_worker_is_a_process_pinned_to_a_cpu_of_its_own(self, monkeypatch):
        # forked children inherit this fake: each column reports where it ran
        monkeypatch.setattr(cli, "_run_trial", lambda config, column: (os.getpid(), os.sched_getaffinity(0)))
        cfg = validate_config(dict(SMALL_RAW))
        columns = [("algorithm1", idx) for idx in range(4)]
        with time_limit(60):
            where = list(cli._run_trials(cfg, columns, 2))
        assert [pid for pid, _ in where[:2]] == [pid for pid, _ in where[2:]]
        (pid0, cpus0), (pid1, cpus1) = where[:2]
        assert len({pid0, pid1, os.getpid()}) == 3
        assert len(cpus0) == len(cpus1) == 1 and cpus0 != cpus1
        assert cpus0 | cpus1 <= os.sched_getaffinity(0)
        assert_no_child_left()

    def test_a_trial_that_raises_in_a_worker_raises_in_its_place(self, tmp_path, monkeypatch):
        # the third of four trials raises in a child; the two before it are
        # written, with their progress lines, and the fourth is not
        pin_cpus(monkeypatch, 2)
        here, run_trial = os.getpid(), cli._run_trial

        def third_raises(config, column):
            if column == ("unbiased-fo", 0):
                raise ValueError(f"trial failed in process {os.getpid()}")
            return run_trial(config, column)

        monkeypatch.setattr(cli, "_run_trial", third_raises)
        progress = io.StringIO()
        out = tmp_path / "out"
        with time_limit(60), pytest.raises(ValueError, match=r"trial failed in process \d+") as err:
            run_experiment(validate_config(dict(SMALL_RAW)), out_dir=str(out), workers=2, progress=progress)
        assert str(err.value) != f"trial failed in process {here}"
        assert sorted(os.listdir(out / "trials")) == [trial_filename("algorithm1", idx) for idx in range(2)]
        done = progress.getvalue().splitlines()[1:]
        assert done == ["trial 1/4 done: algorithm1 0", "trial 2/4 done: algorithm1 1"]
        assert_no_child_left()

    def test_a_worker_that_dies_is_an_error_naming_its_trial(self, tmp_path, monkeypatch):
        pin_cpus(monkeypatch, 2)
        here, run_trial = os.getpid(), cli._run_trial

        def third_dies(config, column):
            if column == ("unbiased-fo", 0):
                if os.getpid() == here:  # a serial run must not end this process
                    raise AssertionError("the trial ran in the parent")
                os._exit(3)
            return run_trial(config, column)

        monkeypatch.setattr(cli, "_run_trial", third_dies)
        message = "trial unbiased-fo 0: its worker exited with status 3 before it reported"
        with time_limit(60), pytest.raises(RuntimeError, match=re.escape(message)):
            run_experiment(validate_config(dict(SMALL_RAW)), out_dir=str(tmp_path / "out"), workers=2)
        assert_no_child_left()

    def test_no_worker_outlives_its_run(self, tmp_path, monkeypatch):
        # after a whole run, a run whose trial file cannot be written, and
        # a generator closed after its first trace, every child is reaped
        pin_cpus(monkeypatch, 2)
        cfg = validate_config({**SMALL_RAW, "trials": 4})

        def refuse(trace, path):
            raise OSError(f"cannot write {path}")

        with time_limit(60):
            run_experiment(cfg, out_dir=str(tmp_path / "whole"), workers=2)
            assert_no_child_left()
            with monkeypatch.context() as patched:
                patched.setattr(cli, "write_trace_csv", refuse)
                with pytest.raises(OSError, match="cannot write"):
                    run_experiment(cfg, out_dir=str(tmp_path / "refused"), workers=2)
            assert_no_child_left()
            trials = cli._run_trials(cfg, [("algorithm1", idx) for idx in range(4)], 2)
            assert next(trials).horizon == cfg.horizon
            trials.close()
            assert_no_child_left()

    def test_serial_trials_call_the_public_runners(self, tmp_path, monkeypatch):
        # a wrapper on cli's names sees every serial trial, as the
        # benchmark's span tracer needs: each runner once per trial
        calls = {"run_algorithm1": [], "run_unbiased_baseline": []}
        for name, seen in calls.items():

            def counted(*args, runner=getattr(cli, name), seen=seen, **kwargs):
                seen.append(inspect.signature(runner).bind(*args, **kwargs).arguments["seed"].spawn_key)
                return runner(*args, **kwargs)

            monkeypatch.setattr(cli, name, counted)
        run_experiment(validate_config({**SMALL_RAW, "trials": 3}), out_dir=str(tmp_path / "out"), workers=1)
        assert calls == {"run_algorithm1": [(0,), (1,), (2,)], "run_unbiased_baseline": [(0,), (1,), (2,)]}

    @pytest.mark.parametrize("window", [None, 100])
    @pytest.mark.parametrize("algorithm", ["algorithm1", "unbiased-fo"])
    def test_a_trial_peaks_within_34_floats_per_episode(self, algorithm, window):
        # a first run imports what the engine loads lazily, which is no trial's cost
        _run_trial(validate_config({"game": "cournot", "T": 2, "trials": 1}), ("algorithm1", 0))
        # below T = 4096 the float play's chunk is a quarter of the run
        for horizon in (5000, 300):
            # per episode: up to 24 float64s for the run being played and
            # 5 per agent for the trace it returns
            cap = 8 * horizon * (24 + 5 * 2)
            cfg = validate_config({"game": "cournot", "T": horizon, "trials": 1, "window": window})
            tracemalloc.start()
            try:
                _run_trial(cfg, (algorithm, 0))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= cap, horizon

    def test_seeding_is_linear_in_trials(self, tmp_path, monkeypatch):
        # every column's seed used to spawn all trials + 1 children
        spawned = []

        class CountingSeedSequence(np.random.SeedSequence):
            def spawn(self, n_children):
                spawned.append(n_children)
                return super().spawn(n_children)

        monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
        children = []
        for trials in (5, 20):
            spawned.clear()
            cfg = validate_config({"game": "cournot", "T": 1, "trials": trials})
            run_experiment(cfg, out_dir=str(tmp_path / str(trials)))
            children.append(sum(spawned))
        assert children[1] <= 4 * children[0]

    def test_counterexample_bundle_has_no_error_curves(self, tmp_path):
        cfg = validate_config(
            {
                "game": "quadratic-counterexample",
                "T": 10,
                "trials": 1,
                "algorithms": ["algorithm1"],
            }
        )
        bundle = run_experiment(cfg, out_dir=str(tmp_path / "counter"))
        assert bundle.aggregate_path is None
        assert bundle.plot_path is None
        trace = bundle.traces["algorithm1"][0]
        assert trace.err_sq is None

    @staticmethod
    def snapshot(root):
        return {
            path: (path.read_bytes(), path.stat().st_mtime_ns) for path in sorted(root.rglob("*")) if path.is_file()
        }

    @pytest.mark.parametrize(
        "first,second,stale",
        [
            ({**SMALL_RAW, "trials": 3}, SMALL_RAW, "trials/algorithm1-trial002.csv"),
            (SMALL_RAW, {**SMALL_RAW, "game": "quadratic-counterexample"}, "aggregate.csv"),
        ],
        ids=["fewer-trials", "no-plot"],
    )
    def test_run_refuses_a_bundle_it_would_not_overwrite(self, tmp_path, capsys, first, second, stale):
        # a file left from an earlier bundle would contradict the new config:
        # refused, exit 2, before any trial runs, with every file untouched
        run_experiment(validate_config(dict(first)), out_dir=str(tmp_path))
        before = self.snapshot(tmp_path)
        with pytest.raises(FileExistsError, match=re.escape(str(tmp_path / stale))):
            run_experiment(validate_config(dict(second)), out_dir=str(tmp_path))
        config_path = tmp_path.parent / f"{tmp_path.name}-second.yaml"
        config_path.write_text(yaml.safe_dump(second), encoding="utf-8")
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path)]) == 2
        assert str(tmp_path / stale) in capsys.readouterr().err
        assert self.snapshot(tmp_path) == before
        # the same config again overwrites its own bundle
        run_experiment(validate_config(dict(first)), out_dir=str(tmp_path))
        assert main(["report", "--bundle", str(tmp_path)]) == 0

    def test_counterexample_bundle_has_lemma4_rows(self, tmp_path):
        cfg = validate_config(
            {"game": "quadratic-counterexample", "T": 300, "trials": 1, "algorithms": ["algorithm1"]}
        )
        bundle = run_experiment(cfg, out_dir=str(tmp_path / "counter"))
        rows = [r for r in bundle.reports if r.name == "lemma4"]
        assert [r.detail.split(", ")[:2] for r in rows] == [["trial=0", "agent=0"], ["trial=0", "agent=1"]]
        assert all(r.passed for r in rows)

    def test_rate_rows_name_their_worst_trial(self, reference_bundle):
        rows = [r for r in reference_bundle.reports if r.name == "rate"]
        assert len(rows) == 2
        for row, (alg, traces) in zip(rows, reference_bundle.traces.items()):
            finals = [time_averaged_error(trace)[-1] for trace in traces]
            worst = int(np.argmax(finals))
            assert row.detail.startswith(f"algorithm={alg}, ")
            assert row.detail.endswith(f", worst trial={worst} with final value {finals[worst]:.4g}")

    def test_report_recomputation_matches(self, tmp_path):
        cfg = validate_config(dict(SMALL_RAW))
        bundle = run_experiment(cfg, out_dir=str(tmp_path / "out"))
        original = Path(bundle.report_path).read_bytes()
        loaded_cfg, traces = load_bundle_traces(bundle.out_dir)
        assert loaded_cfg == cfg
        from riskgames.cli import compute_reports, write_report_csv

        reports = compute_reports(loaded_cfg, traces)
        write_report_csv(reports, bundle.report_path)
        assert Path(bundle.report_path).read_bytes() == original


class TestPlot:
    @staticmethod
    def agg(values, std=None):
        values = np.asarray(values, dtype=float)
        std = np.zeros_like(values) if std is None else np.asarray(std, dtype=float)
        return AggregateTrace(mean=values, std=std)

    def test_constant_series_is_horizontal(self, tmp_path):
        path = tmp_path / "flat.svg"
        emit_plot([("flat", self.agg(np.full(50, 0.1)))], path)
        text = path.read_text()
        polyline = text.split('<polyline points="')[1].split('"')[0]
        ys = {pt.split(",")[1] for pt in polyline.split()}
        assert len(ys) == 1

    def test_zero_series_lies_on_the_floor(self, tmp_path):
        # no positive mean: the axis floor is 1 and the curve is drawn on it
        path = tmp_path / "zero.svg"
        emit_plot([("still", self.agg(np.zeros(50)))], path)
        text = path.read_text()
        assert ">1e0</text>" in text
        polyline = text.split('<polyline points="')[1].split('"')[0]
        ys = {pt.split(",")[1] for pt in polyline.split()}
        assert ys == {f"{plotting._HEIGHT - plotting._BOTTOM:.2f}"}

    def test_least_subnormal_mean_lies_on_the_floor(self, tmp_path):
        # floor(log10(5e-324)) is -324, but 10.0**-324 is 0.0: the floor is 1e-323
        path = tmp_path / "tiny.svg"
        emit_plot([("tiny", self.agg([1.0, 5e-324, 0.0]))], path)
        text = path.read_text()
        assert ">1e-323</text>" in text and ">1e-324</text>" not in text
        # the first gridline is the floor's
        floor_y = text.split('<line ')[1].split('y1="')[1].split('"')[0]
        polyline = text.split('<polyline points="')[1].split('"')[0]
        ys = [pt.split(",")[1] for pt in polyline.split()]
        assert ys[1] == ys[2] == floor_y

    def test_two_series_have_legend_and_distinct_colors(self, tmp_path):
        path = tmp_path / "two.svg"
        emit_plot(
            [
                ("algorithm1", self.agg(1.0 / np.arange(1, 100), std=0.1 / np.arange(1, 100))),
                ("unbiased-fo", self.agg(0.5 / np.arange(1, 100))),
            ],
            path,
        )
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 2
        assert "algorithm1" in text and "unbiased-fo" in text
        assert "#1f77b4" in text and "#d62728" in text
        assert "<script" not in text

    def test_empty_input_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot([], tmp_path / "x.svg")

    @pytest.mark.parametrize(
        "mean, std, episode",
        [
            ([1.0, 0.5, np.nan, 0.2], None, 3),
            ([1.0, 0.5, 0.3, 0.2], [0.0, np.nan, 0.0, np.nan], 2),
            ([1.0, np.inf, 0.3], None, 2),
            ([1.0, 0.5, -np.inf], None, 3),
            ([1.0, 0.5, 0.3], [0.0, 0.0, np.inf], 3),
            ([], None, None),
        ],
        ids=["nan-mean", "nan-std", "inf-mean", "minus-inf-mean", "inf-std", "empty"],
    )
    def test_series_it_cannot_draw_is_refused_before_writing(self, tmp_path, mean, std, episode):
        # a NaN used to be drawn as "nan" coordinates, -inf on the floor, +inf
        # to raise OverflowError and an empty series numpy's zero-size error
        path = tmp_path / "bad.svg"
        series = [("fine", self.agg([1.0, 0.5])), ("bad<label>", self.agg(mean, std))]
        with pytest.raises(ValueError) as info:
            emit_plot(series, path)
        message = str(info.value)
        assert "'bad<label>'" in message
        assert (f"at episode {episode}" in message) if episode else ("no episodes" in message)
        assert not path.exists()

    # T = 5000 and 10^4, a constant curve, and ties between signed zeros and subnormals
    @example(runs=[40] * 125, pool=[0.5, 0.25, 0.5000000000000001], blocks=1, seed=0)
    @example(runs=[16, 17] * 303 + [1], pool=[1.0, -1.0, 0.0], blocks=7, seed=1)
    @example(runs=[9] * 50, pool=[3.0], blocks=1, seed=2)
    @example(runs=[6, 1, 40, 5], pool=[0.0, -0.0, 5e-324, -5e-324], blocks=3, seed=3)
    @given(
        runs=st.lists(st.integers(1, 40), min_size=1, max_size=120),
        # few distinct values, so a column's extremes tie: rounded floats,
        # signed zeros, subnormals; a pool of one is a constant curve
        pool=st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
                st.floats(allow_nan=False, allow_infinity=False).map(lambda v: round(v, 1)),
            ),
            min_size=1,
            max_size=6,
        ),
        # y holds each drawn value for this many points: constant runs across columns
        blocks=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_envelope_is_the_sort_oracle(self, runs, pool, blocks, seed):
        column = np.repeat(np.arange(len(runs)), runs).astype(float)
        draws = np.random.default_rng(seed).choice(np.array(pool), -(-column.size // blocks))
        y = np.repeat(draws, blocks)[: column.size]
        assert np.array_equal(plotting._envelope(column, y), envelope(column, y))

    def test_label_is_escaped_as_saxutils_escapes_it(self, tmp_path):
        # &, < and > become entities and the quotes stay, which html.escape would not keep
        label = """a&b<c>d"e'f"""
        path = tmp_path / "label.svg"
        emit_plot([(label, self.agg(np.full(5, 0.1)))], path)
        assert f'font-family="sans-serif">{escape(label)}</text>' in path.read_text()
        assert label in [el.text for el in ET.parse(path).getroot().iter(SVG + "text")]

    @staticmethod
    def curves(path):
        """Each series' mean line, upper band edge and lower band edge, as
        lists of "x,y" strings in episode order."""
        root = ET.parse(path).getroot()
        lines = [el.get("points").split() for el in root.iter(SVG + "polyline")]
        bands = [el.get("points").split() for el in root.iter(SVG + "polygon")]
        out = []
        for line, band in zip(lines, bands):
            # the band runs along the upper edge to the last episode, then back
            last_x = line[-1].split(",")[0]
            turn = [pt.split(",")[0] for pt in band].index(last_x) + 1
            out += [line, band[:turn], band[turn:][::-1]]
        return out

    def render(self, tmp_path, monkeypatch, series):
        emit_plot(series, tmp_path / "envelope.svg")
        with monkeypatch.context() as patch:
            patch.setattr(plotting, "_envelope", lambda column, y: np.arange(column.size))
            emit_plot(series, tmp_path / "full.svg")
        return tmp_path / "envelope.svg", tmp_path / "full.svg"

    def noisy(self, horizon, seed):
        rng = np.random.default_rng(seed)
        t = np.arange(1, horizon + 1)
        mean = np.exp(rng.normal(size=horizon)) / np.sqrt(t)
        # a band that often crosses zero, so the lower edge sits on the floor
        return self.agg(mean, std=mean * rng.uniform(0.2, 1.5, horizon))

    def test_long_series_keep_a_per_column_envelope(self, tmp_path, monkeypatch):
        horizon = 10_000
        series = [("a", self.noisy(horizon, 1)), ("b", self.noisy(horizon, 2))]
        envelope, full = self.render(tmp_path, monkeypatch, series)
        for kept, every in zip(self.curves(envelope), self.curves(full)):
            assert len(every) == horizon
            assert kept[0] == every[0] and kept[-1] == every[-1]
            # x at 2 decimals names the episode: 0.06 px apart here
            index = {pt.split(",")[0]: i for i, pt in enumerate(every)}
            assert len(index) == horizon
            rows = np.array([index[pt.split(",")[0]] for pt in kept])
            assert np.all(np.diff(rows) > 0)
            assert all(every[i] == pt for i, pt in zip(rows, kept))
            column = np.floor(np.arange(horizon) / (horizon - 1) * PLOT_W).astype(int)
            counts = np.bincount(column[rows], minlength=PLOT_W + 1)
            assert counts.min() >= 1 and counts.max() <= 4
            # each column's first and last point, and its lowest and highest y
            starts = np.flatnonzero(np.diff(column, prepend=-1))
            ends = np.r_[starts[1:] - 1, horizon - 1]
            assert set(starts) | set(ends) <= set(rows)
            kept_y = np.array([float(pt.split(",")[1]) for pt in kept])
            every_y = np.array([float(pt.split(",")[1]) for pt in every])
            kept_starts = np.r_[0, np.cumsum(counts)[:-1]]
            for reduce in (np.minimum.reduceat, np.maximum.reduceat):
                assert np.array_equal(reduce(kept_y, kept_starts), reduce(every_y, starts))
        assert os.path.getsize(envelope) < os.path.getsize(full) / 4

    @pytest.mark.parametrize("horizon", [1, 2, 50, 2000])
    def test_short_series_draw_every_point(self, tmp_path, monkeypatch, horizon):
        # at T = 2000 a column holds 3 or 4 points, so first, lowest,
        # highest and last alone would drop some
        envelope, full = self.render(tmp_path, monkeypatch, [("a", self.noisy(horizon, 3))])
        assert envelope.read_bytes() == full.read_bytes()
        assert [len(c) for c in self.curves(envelope)] == [horizon] * 3

    # a constant series, values at, just below and far below the floor, and
    # values above the top decade, which the plot draws on its top edge
    @example(ys=[0.1] * 50, decades=(-2, 0))
    @example(ys=[1e-3, 9.999999999999998e-4, 0.0, -0.0, -1.0, 5e-324, 1e-3, 2.0], decades=(-3, 1))
    @example(ys=[0.25], decades=(-1, 0))
    @example(ys=[11.0, 1e308, 10.0], decades=(0, 1))
    @given(
        ys=st.lists(
            st.one_of(st.floats(allow_nan=False, allow_infinity=False), _SIGNED_LOG_UNIFORM),
            min_size=1,
            max_size=60,
        ),
        decades=st.tuples(st.integers(plotting._MIN_DECADE, 300), st.integers(1, 20)).map(lambda d: (d[0], d[0] + d[1])),
    )
    def test_bulk_points_are_the_per_point_text(self, ys, decades):
        # the points a plot can ask for: finite, and none above its top decade,
        # which emit_plot takes at or above the highest mean + std
        ys = np.minimum(ys, 10.0 ** min(decades[1], 308))
        xs = np.arange(1.0, ys.size + 1)
        x_range = (1.0, float(ys.size))
        assert plotting._pixel_points(xs, ys, x_range, decades) == pixel_points(xs, ys, x_range, decades)

    # a plot's corners; exact ties x.125, x.375, x.625 and x.875, which round
    # half to even; x.xx5's neighbours one ulp either side, at both digit counts
    @example(points=[(24.0, 24.0), (696.0, 696.0), (24.0, 696.0)])
    @example(points=[(24.125, 24.375), (99.625, 99.875), (100.125, 695.875)])
    @example(
        points=[
            (math.nextafter(24.005, 0.0), math.nextafter(24.005, 1000.0)),
            (math.nextafter(99.995, 0.0), math.nextafter(99.995, 1000.0)),
            (math.nextafter(695.995, 0.0), math.nextafter(695.995, 1000.0)),
            (24.005, 99.995),
        ]
    )
    @given(points=st.lists(st.tuples(_PIXEL, _PIXEL), min_size=1, max_size=40))
    def test_two_decimals_is_percent_format(self, points):
        px, py = np.array(points).T
        assert plotting._two_decimals(px, py) == ["%.2f,%.2f" % point for point in points]

    def test_reference_plot_is_well_formed(self, reference_bundle):
        root = ET.parse(reference_bundle.plot_path).getroot()
        assert root.tag == SVG + "svg"
        assert len(list(root.iter(SVG + "polyline"))) == 2
        for curve in self.curves(reference_bundle.plot_path):
            assert 4 < len(curve) <= 4 * (PLOT_W + 1)


class TestMain:
    def test_validate_subcommand(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_RAW)
        assert main(["validate", "--config", path]) == 0
        echoed = yaml.safe_load(capsys.readouterr().out)
        assert validate_config(echoed) == validate_config(SMALL_RAW)

    def test_validate_rejects_bad_config(self, tmp_path, capsys):
        path = write_config(tmp_path, {"game": "cournot", "T": 10, "alphas": [2.0, 0.5]})
        assert main(["validate", "--config", path]) == 2
        assert "alphas[0]" in capsys.readouterr().err

    def test_validate_rejects_yaml_nan(self, tmp_path, capsys):
        path = tmp_path / "config.yaml"
        path.write_text("game: quadratic-counterexample\nT: 10\nd: .nan\n", encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == 2
        assert "d: must be finite" in capsys.readouterr().err

    def test_validate_rejects_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "config.yaml"
        path.write_bytes(b"game: cournot\nT: 10\nout_dir: caf\xe9\n")
        assert main(["validate", "--config", str(path)]) == 2
        assert "error: config: not UTF-8 text" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "--config", "/nonexistent/cfg.yaml"]) == 2

    def test_run_and_report(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_RAW)
        out = str(tmp_path / "bundle")
        assert main(["run", "--config", path, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "convergence.svg"))
        assert main(["report", "--bundle", out]) == 0
        assert "lemma3" in capsys.readouterr().out

    # finite parameters that used to crash a run, or make it write a bundle
    # that report refuses
    @example(a=1e200, b=1e200, c=0.0, d=1.0)
    @example(a=1e-300, b=1e-300, c=0.0, d=1.0)
    @example(a=1.0, b=1e155, c=0.0, d=1.0)
    @example(a=1.0, b=1.0, c=0.0, d=1e-300)
    @example(a=1.0, b=1.0, c=0.0, d=1e300)
    @example(a=1.0, b=1e-160, c=0.0, d=1.0)
    # the corners of the accepted range
    @example(a=1e50, b=1e50, c=1e50, d=1e-50)
    @example(a=1e-50, b=1e-50, c=-1e50, d=1e50)
    @example(a=1e50, b=1e-50, c=-1e50, d=1e50)
    @given(a=_LOG_UNIFORM, b=_LOG_UNIFORM, c=_SIGNED_LOG_UNIFORM, d=_LOG_UNIFORM)
    @settings(max_examples=60, deadline=None)
    def test_counterexample_parameters_are_refused_or_run_and_report(self, a, b, c, d):
        raw = {"game": "quadratic-counterexample", "T": 5, "trials": 1, "a": a, "b": b, "c": c, "d": d}
        try:
            validate_config(raw)
        except ConfigError as exc:
            assert str(exc)[:3] in ("a: ", "b: ", "c: ", "d: "), exc
            return
        with tempfile.TemporaryDirectory() as tmp:
            path, out = os.path.join(tmp, "config.yaml"), os.path.join(tmp, "bundle")
            with open(path, "w", encoding="utf-8") as fh:
                yaml.safe_dump(raw, fh)
            assert main(["run", "--config", path, "--out", out]) == 0
            assert main(["report", "--bundle", out]) == 0
            for traces in load_bundle_traces(out)[1].values():
                for trace in traces:
                    for cells in (trace.actions, trace.nu, trace.nu_star):
                        assert np.all(np.isfinite(cells))
            with open(os.path.join(out, "bounds.csv"), encoding="utf-8") as fh:
                for row in csv.DictReader(fh):
                    # a row whose bound does not apply reads nan
                    applies = row["passed"] != "none"
                    assert not applies or math.isfinite(float(row["empirical"])), row
                    assert not applies or math.isfinite(float(row["bound"])), row

    @pytest.mark.parametrize("workers", ["0", "-4"])
    def test_run_rejects_fewer_than_one_worker(self, tmp_path, capsys, workers):
        out = tmp_path / "bundle"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--workers", workers, "--config", write_config(tmp_path, SMALL_RAW), "--out", str(out)])
        assert exc.value.code == 2
        assert f"argument --workers: must be >= 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()

    def test_run_strict_passes_on_good_bundle(self, tmp_path):
        path = write_config(tmp_path, SMALL_RAW)
        assert main(["run", "--config", path, "--out", str(tmp_path / "b"), "--strict"]) == 0

    def test_start_on_box_face(self, tmp_path):
        # at x_0 = 0 the cost law has width 0 and the lemma-4 bound has no
        # density to work with: its row is kept, marked as not applying
        raw = {"game": "cournot", "T": 50, "trials": 1, "x0": [0.0, 0.5], "algorithms": ["algorithm1"]}
        path = write_config(tmp_path, raw)
        out = str(tmp_path / "face")
        assert main(["run", "--config", path, "--out", out]) == 0
        bounds = os.path.join(out, "bounds.csv")
        original = Path(bounds).read_bytes()
        with open(bounds) as fh:
            rows = [r for r in csv.DictReader(fh) if r["name"] == "lemma4"]
        assert rows[0]["passed"] == "none"
        assert rows[0]["detail"].startswith("trial=0, agent=0, cost-law width 0 at episode 1:")
        assert rows[1]["passed"] == "true"
        assert main(["report", "--bundle", out]) == 0
        assert Path(bounds).read_bytes() == original
        # --strict skips rows whose bound does not apply, in both subcommands
        assert main(["run", "--config", path, "--out", out, "--strict"]) == 0
        assert main(["report", "--bundle", out, "--strict"]) == 0
        # an x0 within the feasibility tolerance below the face starts on it
        below = write_config(tmp_path, {**raw, "x0": [-1.0e-10, 0.5]}, name="below.yaml")
        out_below = str(tmp_path / "below")
        assert main(["run", "--config", below, "--out", out_below]) == 0
        names = sorted(os.listdir(os.path.join(out, "trials")))
        assert names == sorted(os.listdir(os.path.join(out_below, "trials"))) != []
        for name in names:
            with open(os.path.join(out, "trials", name), "rb") as fh:
                expected = fh.read()
            with open(os.path.join(out_below, "trials", name), "rb") as fh:
                assert fh.read() == expected

    def test_run_that_stays_at_the_equilibrium(self, tmp_path):
        # a step under half an ulp from x*: every err_sq is 0, so there is no
        # positive error to plot on a log axis or to fit a log-log slope to
        x_star = build_game(validate_config(dict(SMALL_RAW))).nash_equilibrium((0.4, 0.8))
        raw = {"game": "cournot", "T": 300, "trials": 2, "eta": 1.0e-20, "x0": x_star.tolist()}
        path = write_config(tmp_path, raw)
        out = str(tmp_path / "still")
        assert main(["run", "--strict", "--config", path, "--out", out]) == 0
        for name in ("aggregate.csv", "convergence.svg", "bounds.csv", "config.yaml"):
            assert os.path.exists(os.path.join(out, name)), name
        bounds = os.path.join(out, "bounds.csv")
        original = Path(bounds).read_bytes()
        with open(bounds) as fh:
            rows = [r for r in csv.DictReader(fh) if r["name"] == "rate"]
        assert [r["passed"] for r in rows] == ["none", "none"]
        assert [r["detail"] for r in rows] == [
            f"algorithm={alg}, series must be positive inside the fit window (100, 300)"
            for alg in ("algorithm1", "unbiased-fo")
        ]
        assert main(["report", "--strict", "--bundle", out]) == 0
        assert Path(bounds).read_bytes() == original

    @pytest.mark.parametrize(
        "edit,first_extra",
        [
            ({"trials": 1}, trial_filename("algorithm1", 1)),
            ({"algorithms": ["algorithm1"]}, trial_filename("unbiased-fo", 0)),
        ],
        ids=["fewer-trials", "dropped-algorithm"],
    )
    def test_report_refuses_trial_files_the_config_does_not_name(self, tmp_path, capsys, edit, first_extra):
        out = str(tmp_path / "bundle")
        assert main(["run", "--config", write_config(tmp_path, {**SMALL_RAW, "trials": 3}), "--out", out]) == 0
        config_path = os.path.join(out, "config.yaml")
        with open(config_path, encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
        with open(config_path, "w", encoding="utf-8") as fh:
            yaml.safe_dump({**doc, **edit}, fh, sort_keys=False)
        bounds = os.path.join(out, "bounds.csv")
        original = Path(bounds).read_bytes()
        capsys.readouterr()
        assert main(["report", "--bundle", out]) == 2
        path = os.path.join(out, "trials", first_extra)
        assert f"error: bundle has trial file {path}, which its config.yaml does not name" in capsys.readouterr().err
        assert Path(bounds).read_bytes() == original

    def test_report_on_a_config_longer_than_its_trial_files(self, tmp_path, capsys):
        # T rows of the edited config would not fit in memory
        out = str(tmp_path / "bundle")
        assert main(["run", "--config", write_config(tmp_path, SMALL_RAW), "--out", out]) == 0
        config_path = os.path.join(out, "config.yaml")
        with open(config_path, encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
        with open(config_path, "w", encoding="utf-8") as fh:
            yaml.safe_dump({**doc, "T": 10**15}, fh, sort_keys=False)
        capsys.readouterr()
        assert main(["report", "--bundle", out]) == 2
        path = os.path.join(out, "trials", trial_filename("algorithm1", 0))
        assert f"error: trial file {path}: expected {10**15} rows of 8 values, got 40 rows" in capsys.readouterr().err

    def test_report_on_a_bundle_missing_a_trial_file(self, tmp_path, capsys):
        out = str(tmp_path / "bundle")
        assert main(["run", "--config", write_config(tmp_path, SMALL_RAW), "--out", out]) == 0
        path = os.path.join(out, "trials", trial_filename("unbiased-fo", 1))
        os.remove(path)
        capsys.readouterr()
        assert main(["report", "--bundle", out]) == 2
        assert f"error: bundle is missing trial file {path}" in capsys.readouterr().err

    def test_report_on_missing_bundle(self, capsys):
        assert main(["report", "--bundle", "/nonexistent"]) == 2

    def test_report_on_damaged_trial_file(self, tmp_path, capsys):
        out = str(tmp_path / "bundle")
        assert main(["run", "--config", write_config(tmp_path, SMALL_RAW), "--out", out]) == 0
        path = os.path.join(out, "trials", trial_filename("unbiased-fo", 1))
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines(keepends=True)
        cells = lines[5].split(",")  # t, x0, x1, err_sq, nu..., nu_star...
        damaged = {
            "cut": lines[:20],
            "extra row": lines + ["1,2\n"],
            "extra column": [line.rstrip("\n") + ",0\n" for line in lines],
            "renamed column": [lines[0].replace("err_sq", "error")] + lines[1:],
            "not a number": lines[:5] + ["1,x" + lines[5][lines[5].index(",", 2) :]] + lines[6:],
            "header only": lines[:1],
            "rows reversed": lines[:1] + lines[:0:-1],
            "nan cell": lines[:5] + [",".join(cells[:-1] + ["nan\n"])] + lines[6:],
            "negative err_sq": lines[:5] + [",".join(cells[:3] + ["-1.0"] + cells[4:])] + lines[6:],
            # what np.loadtxt skipped or tolerated, and the writer never writes
            "comment line": lines[:5] + ["# comment\n"] + lines[5:],
            "blank line between rows": lines[:5] + ["\n"] + lines[5:],
            "trailing blank lines": lines + ["\n", "\n"],
            "spaces around a cell": lines[:5] + [",".join(cells[:2] + [f" {cells[2]} "] + cells[3:])] + lines[6:],
            "crlf line endings": [line.replace("\n", "\r\n") for line in lines],
            "crlf rows": lines[:1] + [line.replace("\n", "\r\n") for line in lines[1:]],
            "plus sign in t": lines[:2] + ["+" + lines[2]] + lines[3:],
            # numbers that the byte check lets through and orjson refuses
            **{
                f"cell {cell!r}": lines[:5] + [",".join(cells[:1] + [cell] + cells[2:])] + lines[6:]
                for cell in ("true", "null", ".5", "01", "1.", "1e400", "", "1-2")
            },
            "last cell empty": lines[:5] + [",".join(cells[:-1] + ["\n"])] + lines[6:],
            "last cell of the last row empty": lines[:-1] + [lines[-1].rsplit(",", 1)[0] + ",\n"],
            "ragged pair of rows": (
                lines[:5] + [lines[5].rstrip("\n") + ",0\n", lines[6].rsplit(",", 1)[0] + "\n"] + lines[7:]
            ),
            "no newline at the end": lines[:-1] + [lines[-1].rstrip("\n")],
        }
        # where each fault is: its row (t), and its column if it is in one cell
        where = {
            "comment line": "row 5: ",
            "blank line between rows": "row 5: ",
            "trailing blank lines": "row 41: ",
            "ragged pair of rows": "row 5: ",
            "no newline at the end": "row 40: ",
            "not a number": "row 5, column x0: ",
            "nan cell": "row 5, column nu_star_agent1: ",
            "spaces around a cell": "row 5, column x1: ",
            "crlf rows": "row 1, column nu_star_agent1: ",
            "plus sign in t": "row 2, column t: ",
            **{case: "row 5, column x0: " for case in damaged if case.startswith("cell ")},
            "last cell empty": "row 5, column nu_star_agent1: ",
            "last cell of the last row empty": "row 40, column nu_star_agent1: ",
            "rows reversed": "row 1, column t: ",
            "negative err_sq": "row 5, column err_sq: ",
            "byte 0xff in a row": "row 5: ",
            "byte 0xff after 8 KiB": "row 141: ",
        }
        damaged = {case: "".join(content).encode("utf-8") for case, content in damaged.items()}
        text, row = "".join(lines).encode("utf-8"), len("".join(lines[:5]).encode("utf-8"))
        not_utf8 = {
            "utf-16 byte order mark": b"\xff\xfe" + text,
            "byte 0xff in a row": text[:row] + b"\xff" + text[row:],
            # after the T rows and past the first 8 KiB of the file
            "byte 0xff after 8 KiB": text + lines[-1].encode("utf-8") * 100 + b"\xff\n",
        }
        capsys.readouterr()
        for case, content in {**damaged, **not_utf8}.items():
            with open(path, "wb") as fh:
                fh.write(content)
            assert main(["report", "--bundle", out]) == 2, case
            err = capsys.readouterr().err
            assert f"error: trial file {path}: " in err, case
            assert ("not UTF-8 text" in err) == (case in not_utf8), case
            assert where.get(case, "") in err, (case, err)


def _fresh_python(code: str, *args: str) -> str:
    """Standard output of ``code`` run with ``args`` in a new interpreter on this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True)
    return done.stdout


def test_importing_the_cli_leaves_out_what_no_run_uses():
    # each of these costs start-up time, and no run needs it
    unused = ["fractions", "decimal", "xml.sax.saxutils", "urllib.request"]
    code = "import sys, riskgames.cli; print([m for m in sys.argv[1:] if m in sys.modules])"
    assert _fresh_python(code, *unused).strip() == "[]"


@pytest.mark.parametrize("workers", [1, 2])
def test_only_a_process_that_starts_a_pool_loads_multiprocessing(tmp_path, workers):
    # no command starts a process pool: a run of one worker or two (which
    # forks its workers itself), report and validate load no pool module
    config = write_config(tmp_path, SMALL_RAW)
    code = (
        "import os, sys; import riskgames.cli as cli\n"
        "config, out, workers = sys.argv[1], sys.argv[2], int(sys.argv[3])\n"
        "os.cpu_count = lambda: 2; os.sched_getaffinity = lambda pid: {0, 1}\n"
        "cli.run_experiment(cli.load_config(config), out_dir=out, workers=workers)\n"
        "assert cli.main(['report', '--bundle', out]) == 0\n"
        "assert cli.main(['validate', '--config', config]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))))"
    )
    loaded = _fresh_python(code, config, str(tmp_path / "out"), str(workers)).splitlines()[-1]
    assert loaded == "[]"


def test_lemma3_rows_need_no_draws(tmp_path):
    # the concentration rows are read off the order statistic's exact law:
    # they are the same at every seed, and a standalone report, which
    # draws nothing, leaves numpy.random unimported
    lemma3_rows = []
    for seed in (0, 5):
        out = tmp_path / f"seed{seed}"
        run_experiment(validate_config({**SMALL_RAW, "seed": seed}), out_dir=str(out))
        lines = (out / "bounds.csv").read_text(encoding="utf-8").splitlines()
        lemma3_rows.append([line for line in lines if line.startswith("lemma3,")])
    assert len(lemma3_rows[0]) == 2
    assert lemma3_rows[0] == lemma3_rows[1]

    code = (
        "import sys; from riskgames.cli import main; status = main(sys.argv[1:]); "
        "print(status, 'numpy.random' in sys.modules)"
    )
    stdout = _fresh_python(code, "report", "--bundle", str(tmp_path / "seed5"))
    assert stdout.splitlines()[-1] == "0 False"


def test_trial_filename_is_stable():
    assert trial_filename("algorithm1", 3) == "algorithm1-trial003.csv"


def test_load_config_rejects_invalid_yaml(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("game: [unclosed", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(path))
