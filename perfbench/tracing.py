"""Span tracer for the per-layer breakdown of one riskgames run.

The layers are the package's modules. Each is timed from outside: the
public functions below are replaced, where their callers look them up,
by wrappers that open a span (name, start, end, parent) and add to the
layer's counters. Spans are kept in memory in flat arrays and written
out once the traced run has ended.

Only a ``workers=1`` run is traced. ``cli._run_trial`` is left alone: a
wrapper there cannot be pickled for the pool, and forked workers would
keep their spans to themselves anyway.
"""

from __future__ import annotations

import os
import statistics
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(index, name):
    def count(layer, args, kwargs, result):
        layer["rows"] += len(_arg(args, kwargs, index, name))

    return count


def _file_bytes(index, name):
    def count(layer, args, kwargs, result):
        layer["bytes"] += os.path.getsize(_arg(args, kwargs, index, name))

    return count


def _tail(layer, args, kwargs, result):
    # alpha * t is the tail size the estimator aims for; ties add to tail_count
    layer["tail_count"] += result.tail_count
    layer["tail_target"] += _arg(args, kwargs, 4, "alpha") * len(_arg(args, kwargs, 3, "noise_history"))


def _clipped(layer, args, kwargs, result):
    layer["clipped"] += bool(np.any(result != np.asarray(_arg(args, kwargs, 1, "x"))))


def _targets():
    """(owner, attribute, span name, counter) for every traced function."""
    from riskgames import analysis, cli, games, learning

    return [
        (games.CournotGame, "cost_batch", "games.cost_batch", _rows(3, "xi_batch")),
        (games.CournotGame, "grad_batch", "games.grad_batch", _rows(3, "xi_batch")),
        (games.CournotGame, "sample_noise", "games.sample_noise", None),
        (games.CournotGame, "exact_var", "games.exact_var", None),
        (games.Box, "project", "games.Box.project", _clipped),
        (learning, "empirical_var", "distributions.empirical_var", _rows(0, "values")),
        (learning, "cvar_gradient_estimate", "learning.cvar_gradient_estimate", _tail),
        (learning, "unbiased_cvar_gradient", "learning.unbiased_cvar_gradient", _tail),
        (cli, "run_algorithm1", "learning.run", None),
        (cli, "run_unbiased_baseline", "learning.run", None),
        (cli, "write_trace_csv", "cli.write_trace_csv", _file_bytes(1, "path")),
        (cli, "write_aggregate_csv", "cli.write_aggregate_csv", _file_bytes(2, "path")),
        (cli, "read_trace_csv", "cli.read_trace_csv", _file_bytes(0, "path")),
        (cli, "compute_reports", "cli.compute_reports", None),
        (cli, "emit_plot", "plotting.emit_plot", _file_bytes(1, "path")),
        (cli, "validate_lemma3", "analysis.validate_lemma3", None),
        (cli, "validate_lemma4", "analysis.validate_lemma4", None),
        (cli, "fit_rate", "analysis.fit_rate", None),
        (analysis.AggregateTrace, "from_series", "analysis.AggregateTrace.from_series", None),
    ]


class Tracer:
    """Spans in flat arrays, indexed in start order; parent -1 is a root.

    ``start``/``end`` bracket the wrapped call; ``enter``/``leave`` bracket
    the whole wrapper, so the tracer's own cost between them can be kept
    out of every layer's time.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.enter = array("d")
        self.start = array("d")
        self.end = array("d")
        self.leave = array("d")
        self.counters: dict[str, Counter] = {}  # span name -> counts
        self._open: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, func, name: str, count=None):
        name_id = self._id(name)
        layer = self.counters.setdefault(name, Counter())
        clock = time.perf_counter
        open_spans = self._open
        ends, leaves = self.end, self.leave
        add_name, add_parent, add_enter, add_start, add_end, add_leave = (
            self.name_id.append, self.parent.append, self.enter.append,
            self.start.append, ends.append, leaves.append,
        )

        def traced(*args, **kwargs):
            add_enter(clock())
            index = len(ends)
            add_name(name_id)
            add_parent(open_spans[-1] if open_spans else -1)
            add_end(0.0)
            add_leave(0.0)
            open_spans.append(index)
            add_start(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[index] = leaves[index] = clock()
                open_spans.pop()
            if count is not None:
                count(layer, args, kwargs, result)
            leaves[index] = clock()
            return result

        return traced

    @contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, count in _targets():
                raw = vars(owner)[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    # bind to the class so callers keep calling it unchanged
                    wrapped = staticmethod(self.wrap(getattr(owner, attr), name, count))
                else:
                    wrapped = self.wrap(raw, name, count)
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def arrays(self) -> dict:
        out = {"names": np.array(self.names)}
        for key, dtype in (("name_id", np.intc), ("parent", np.intc), ("enter", np.float64),
                           ("start", np.float64), ("end", np.float64), ("leave", np.float64)):
            out[key] = np.frombuffer(getattr(self, key), dtype=dtype).copy()
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


def self_times(start, end, parent, enter=None, leave=None) -> np.ndarray:
    """Each span's duration minus the part of its interval its children cover.

    A child covers its whole wrapper interval ``[enter, leave]`` (default
    ``[start, end]``), so tracer cost counts for no layer. Spans come from
    one thread, so siblings never overlap and the covered part is the sum
    of the children's intervals clipped to the parent.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    enter = start if enter is None else np.asarray(enter, dtype=np.float64)
    leave = end if leave is None else np.asarray(leave, dtype=np.float64)
    parent = np.asarray(parent)
    has_parent = parent >= 0
    p = parent[has_parent]
    covered = np.minimum(leave[has_parent], end[p]) - np.maximum(enter[has_parent], start[p])
    children = np.bincount(p, weights=np.maximum(covered, 0.0), minlength=start.size)
    return (end - start) - children


def per_layer_metrics(tracer: Tracer, run_start: float, run_end: float) -> dict:
    """Per-layer metrics of the spans recorded over one run and its report."""
    data = tracer.arrays()
    duration = data["end"] - data["start"]
    own = self_times(data["start"], data["end"], data["parent"], data["enter"], data["leave"])
    counters = tracer.counters
    out = {}

    def spans(name):
        return data["name_id"] == tracer.names.index(name)

    def calls(name):
        return int(spans(name).sum())

    def busy(name):
        return float(duration[spans(name)].sum())

    def self_busy(name):
        return float(own[spans(name)].sum())

    for name in ("games.cost_batch", "games.grad_batch", "distributions.empirical_var"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.rows"] = counters[name]["rows"]
        out[f"{name}.s"] = busy(name)
    estimators = ("learning.cvar_gradient_estimate", "learning.unbiased_cvar_gradient")
    for name in estimators:
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = busy(name)
        out[f"{name}.self_s"] = self_busy(name)

    trial_s = duration[spans("learning.run")]
    out["learning.run.calls"] = int(trial_s.size)
    out["learning.run.self_s"] = self_busy("learning.run")
    out["learning.run.trial_s.p50"] = float(statistics.median(trial_s)) if trial_s.size else 0.0
    out["learning.run.trial_s.max"] = float(trial_s.max()) if trial_s.size else 0.0

    for name in ("games.sample_noise", "games.exact_var", "games.Box.project"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = busy(name)
    projections = max(calls("games.Box.project"), 1)
    out["games.Box.project.clip_ratio"] = counters["games.Box.project"]["clipped"] / projections

    tail = sum(counters[name]["tail_count"] for name in estimators)
    target = sum(counters[name]["tail_target"] for name in estimators)
    out["learning.tail_ratio"] = tail / target if target else 0.0

    out["cli.write_trace_csv.calls"] = calls("cli.write_trace_csv")
    out["cli.write_trace_csv.bytes"] = counters["cli.write_trace_csv"]["bytes"]
    out["cli.write_trace_csv.s"] = busy("cli.write_trace_csv")
    out["cli.write_aggregate_csv.s"] = busy("cli.write_aggregate_csv")
    out["cli.write_aggregate_csv.bytes"] = counters["cli.write_aggregate_csv"]["bytes"]
    out["plotting.emit_plot.s"] = busy("plotting.emit_plot")
    out["plotting.emit_plot.bytes"] = counters["plotting.emit_plot"]["bytes"]

    trial_spans = spans("learning.run")
    last_trial_end = float(data["end"][trial_spans].max()) if trial_spans.any() else run_start
    out["cli.serial_share"] = (run_end - last_trial_end) / (run_end - run_start)

    out["cli.read_trace_csv.calls"] = calls("cli.read_trace_csv")
    out["cli.read_trace_csv.bytes"] = counters["cli.read_trace_csv"]["bytes"]
    out["cli.read_trace_csv.s"] = busy("cli.read_trace_csv")
    out["cli.compute_reports.s"] = busy("cli.compute_reports")
    for name in ("analysis.validate_lemma3", "analysis.validate_lemma4"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = busy(name)
    out["analysis.fit_rate.s"] = busy("analysis.fit_rate")
    out["analysis.AggregateTrace.from_series.s"] = busy("analysis.AggregateTrace.from_series")
    out["trace.wrapper_s"] = float(((data["leave"] - data["enter"]) - duration).sum())
    return out
