import csv
import io
import os
from dataclasses import fields, replace

import numpy as np
import pytest
import yaml

from riskgames.analysis import AggregateTrace, RunTrace
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
    write_trace_csv,
    _BLOCK_BYTES,
    _blocks,
)
from riskgames.learning import run_algorithm1
from riskgames.plotting import emit_plot

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


def write_config(tmp_path, raw, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return str(path)


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

    def test_bundle_bytes_are_pinned(self, tmp_path):
        bundle = run_experiment(validate_config(dict(PINNED_RAW)), out_dir=str(tmp_path / "pinned"))
        with open(bundle.trial_paths[("algorithm1", 0)], "rb") as fh:
            assert fh.read() == PINNED_TRIAL.encode()
        with open(bundle.aggregate_path, "rb") as fh:
            assert fh.read() == PINNED_AGGREGATE.encode()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = validate_config(dict(SMALL_RAW))
        b1 = run_experiment(cfg, out_dir=str(tmp_path / "one"))
        b2 = run_experiment(cfg, out_dir=str(tmp_path / "two"))
        for paths in (("aggregate.csv",), ("bounds.csv",), ("config.yaml",)):
            p1 = os.path.join(b1.out_dir, *paths)
            p2 = os.path.join(b2.out_dir, *paths)
            assert open(p1, "rb").read() == open(p2, "rb").read()
        for key, path in b1.trial_paths.items():
            other = b2.trial_paths[key]
            assert open(path, "rb").read() == open(other, "rb").read()

    def test_parallel_matches_serial(self, tmp_path):
        # 3 workers cut the 4 columns into uneven blocks
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

    @pytest.mark.parametrize("workers,blocks", [(1, 1), (2, 2), (3, 3), (8, 4)])
    def test_one_progress_line_per_block(self, tmp_path, capsys, workers, blocks):
        progress = io.StringIO()
        cfg = validate_config(dict(SMALL_RAW))
        run_experiment(cfg, out_dir=str(tmp_path / "out"), workers=workers, progress=progress)
        lines = progress.getvalue().splitlines()
        assert lines[0].startswith(f"running 4 trials in {blocks} blocks")
        done = [line.split(": ") for line in lines if line.startswith("block ")]
        assert [head for head, _ in done] == [f"block {n}/{blocks} done" for n in range(1, blocks + 1)]
        sizes = [int(tail.split()[0]) for _, tail in done]
        assert sum(sizes) == 4 and max(sizes) - min(sizes) <= 1
        # data only goes to files
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "horizon,workers,count", [(5000, 1, 1), (5000, 3, 3), (10**5, 2, 7), (10**6, 1, 40)]
    )
    def test_blocks_follow_workers_and_the_byte_budget(self, horizon, workers, count):
        cfg = validate_config({"game": "cournot", "T": horizon, "trials": 20})
        blocks = _blocks(cfg, workers)
        assert len(blocks) == count
        # near-equal, and in (algorithm, trial) order
        assert max(map(len, blocks)) - min(map(len, blocks)) <= 1
        assert [c for b in blocks for c in b] == [(a, i) for a in cfg.algorithms for i in range(20)]
        for block in blocks:
            assert len(block) == 1 or len(block) * 3 * 8 * 2 * horizon <= _BLOCK_BYTES

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

    def test_counterexample_bundle_has_lemma4_rows(self, tmp_path):
        cfg = validate_config(
            {"game": "quadratic-counterexample", "T": 300, "trials": 1, "algorithms": ["algorithm1"]}
        )
        bundle = run_experiment(cfg, out_dir=str(tmp_path / "counter"))
        rows = [r for r in bundle.reports if r.name == "lemma4"]
        assert [r.detail.split(", ")[:2] for r in rows] == [["trial=0", "agent=0"], ["trial=0", "agent=1"]]
        assert all(r.passed for r in rows)

    def test_report_recomputation_matches(self, tmp_path):
        cfg = validate_config(dict(SMALL_RAW))
        bundle = run_experiment(cfg, out_dir=str(tmp_path / "out"))
        original = open(bundle.report_path, "rb").read()
        loaded_cfg, traces = load_bundle_traces(bundle.out_dir)
        assert loaded_cfg == cfg
        from riskgames.cli import compute_reports, write_report_csv

        reports = compute_reports(loaded_cfg, traces)
        write_report_csv(reports, bundle.report_path)
        assert open(bundle.report_path, "rb").read() == original


class TestPlot:
    @staticmethod
    def agg(values, std=None):
        values = np.asarray(values, dtype=float)
        std = np.zeros_like(values) if std is None else np.asarray(std, dtype=float)
        return AggregateTrace(
            episodes=np.arange(1, values.size + 1), mean=values, std=std, n_trials=3
        )

    def test_constant_series_is_horizontal(self, tmp_path):
        path = tmp_path / "flat.svg"
        emit_plot([("flat", self.agg(np.full(50, 0.1)))], path)
        text = path.read_text()
        polyline = text.split('<polyline points="')[1].split('"')[0]
        ys = {pt.split(",")[1] for pt in polyline.split()}
        assert len(ys) == 1

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

    def test_missing_file(self, capsys):
        assert main(["validate", "--config", "/nonexistent/cfg.yaml"]) == 2

    def test_run_and_report(self, tmp_path, capsys):
        path = write_config(tmp_path, SMALL_RAW)
        out = str(tmp_path / "bundle")
        assert main(["run", "--config", path, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "convergence.svg"))
        assert main(["report", "--bundle", out]) == 0
        assert "lemma3" in capsys.readouterr().out

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
        original = open(bounds, "rb").read()
        with open(bounds) as fh:
            rows = [r for r in csv.DictReader(fh) if r["name"] == "lemma4"]
        assert rows[0]["passed"] == "none"
        assert rows[0]["detail"].startswith("trial=0, agent=0, cost-law width 0 at episode 1:")
        assert rows[1]["passed"] == "true"
        assert main(["report", "--bundle", out]) == 0
        assert open(bounds, "rb").read() == original
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
        }
        capsys.readouterr()
        for case, content in damaged.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(content)
            assert main(["report", "--bundle", out]) == 2, case
            assert f"error: trial file {path}: " in capsys.readouterr().err, case


def test_trial_filename_is_stable():
    assert trial_filename("algorithm1", 3) == "algorithm1-trial003.csv"


def test_load_config_rejects_invalid_yaml(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("game: [unclosed", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(str(path))
