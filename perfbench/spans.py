"""Layer spans recorded from outside the program.

The tracer replaces layer functions at the module attribute their callers
resolve at call time (``contagion.cli`` imports most names at load time, so
the CLI path is wrapped in ``contagion.cli`` as well as in the defining
module).  Each call records a span: name, start, end, parent span and the
counts taken from its arguments and result.  A wrapped name that no longer
exists is skipped with a note, so deleting a function never breaks the
harness; the span then simply reports nothing.

Layer times are self times: a span's duration minus the part of it that
its child spans cover, so they add up to the traced time.  The one
exception is ``inference.pooled_s``, the whole exact-cell pooling pass: the
``collect_visibility_bins`` call inside it is booked to ``inference.bins``
as well, because a faster pooling pass may well stop making that call.
"""

from __future__ import annotations

import functools
import importlib
import resource
import time
from collections import defaultdict

# span name -> "module:attribute" targets that callers resolve at call time
SPANS: dict[str, tuple[str, ...]] = {
    "simulate.graph": ("contagion.simulate:generate_graph", "contagion.cli:generate_graph"),
    "simulate.cascades": (
        "contagion.simulate:simulate_cascades",
        "contagion.cli:simulate_cascades",
    ),
    "simulate.split": ("contagion.simulate:train_test_split", "contagion.cli:train_test_split"),
    "events.series": ("contagion.simulate:build_series", "contagion.cli:build_series"),
    "events.load": (
        "contagion.cli:load_event_log",
        "contagion.cli:load_follow_edges",
        "contagion.cli:build_graph",
    ),
    "events.write": ("contagion.cli:write_event_log", "contagion.cli:write_follow_edges"),
    "visibility.trf": ("contagion.simulate:estimate_trf", "contagion.cli:estimate_trf"),
    "visibility.susceptibility": (
        "contagion.simulate:estimate_susceptibility",
        "contagion.simulate:fit_susceptibility_analytic",
        "contagion.cli:estimate_susceptibility",
        "contagion.cli:fit_susceptibility_analytic",
    ),
    "inference.bins": ("contagion.inference:collect_visibility_bins",),
    "inference.pooled": ("contagion.inference:pooled_visibility_bins",),
    "inference.scale_fit": (
        "contagion.inference:scale_fit_curve",
        "contagion.inference:fit_scale_and_floor",
        "contagion.cli:scale_fit_curve",
        "contagion.cli:fit_scale_and_floor",
    ),
    # visibility_bins only regroups the raw bins for the enhancement MLE
    "inference.enhancement": (
        "contagion.inference:fit_enhancement",
        "contagion.cli:visibility_bins",
        "contagion.cli:fit_enhancement",
    ),
    "forecast.points": ("contagion.forecast:forecast_points", "contagion.cli:forecast_points"),
    "forecast.calibration": ("contagion.forecast:calibration", "contagion.cli:calibration"),
    "cli.simulate": ("contagion.cli:cmd_simulate",),
    "cli.fit": ("contagion.cli:cmd_fit",),
    "cli.forecast": ("contagion.cli:cmd_forecast",),
}


def _bins_counts(args, kwargs, result) -> dict[str, int]:
    series = kwargs.get("series_list", args[0] if args else ())
    return {
        "bins_calls": 1,
        "series_binned": len(series),
        # the pass keys its per-friend-count cache on n_f: one miss per value
        "friend_counts": len({s.n_f for s in series}),
        "cells": sum(len(cells) for cells in result.values()),
    }


# span name -> counts taken from (args, kwargs, result) after the span ends
COUNTS = {
    "simulate.cascades": lambda a, k, r: {"events": len(r)},
    "events.series": lambda a, k, r: {"series": len(r)},
    "inference.bins": _bins_counts,
    "forecast.points": lambda a, k, r: {"windows": len(r)},
}

# Per-series calls are too small for spans; only their output is counted.
COUNTERS = {"segments": "contagion.inference:risk_segments"}


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Wraps the layer functions, records spans, and restores them."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.notes: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _patch(self, target: str, make) -> None:
        modname, attr = target.split(":")
        try:
            module = importlib.import_module(modname)
        except ImportError as exc:
            self.notes.append(f"{target}: module not importable ({exc}); skipped")
            return
        original = getattr(module, attr, None)
        if not callable(original):
            self.notes.append(f"{target}: not found; skipped")
            return
        setattr(module, attr, make(original))
        self._undo.append((module, attr, original))

    def install(self) -> "Tracer":
        for name, targets in SPANS.items():
            for target in targets:
                self._patch(target, functools.partial(self._span_wrapper, name))
        for counter, target in COUNTERS.items():
            self._patch(target, functools.partial(self._count_wrapper, counter))
        return self

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _span_wrapper(self, name: str, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = {
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
                "end": None,
                "counts": {},
            }
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                record["rss_mb"] = _rss_mb()
                self._stack.pop()
            if count is not None:
                record["counts"] = count(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, counter: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counters[counter] += len(result)
            return result

        return wrapper

    def self_times(self) -> dict[int, float]:
        """Self time of every closed span, by index."""
        own = {i: s["end"] - s["start"] for i, s in enumerate(self.spans) if s["end"] is not None}
        for i, s in enumerate(self.spans):
            if s["parent"] is not None and i in own and s["parent"] in own:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def coverage(self, start: float, end: float) -> float:
        """Share of [start, end] covered by top-level spans inside it."""
        covered = sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["parent"] is None and s["end"] is not None
            and s["start"] >= start and s["end"] <= end
        )
        return covered / (end - start) if end > start else 0.0


def layer_metrics(tracer: Tracer, op_start: float, op_end: float, log_mb: float) -> dict:
    """Per-layer metrics of one traced operation and the set-up before it.

    A layer that did not run on this workload reports 0 for its time and
    counts.
    """
    own = tracer.self_times()
    seconds: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    rss: dict[str, float] = defaultdict(float)
    for i, span in enumerate(tracer.spans):
        if i not in own:
            continue
        name = span["name"]
        seconds[name] += own[i]
        inclusive[name] += span["end"] - span["start"]
        for key, value in span["counts"].items():
            counts[key] += value
        module = name.split(".")[0]
        rss[module] = max(rss[module], span["rss_mb"])

    def per(total_s: float, n: int) -> float:
        return total_s / n * 1e6 if n else 0.0

    return {
        "simulate.graph_s": seconds["simulate.graph"],
        "simulate.cascades_s": seconds["simulate.cascades"],
        "simulate.events": counts["events"],
        "simulate.us_per_event": per(seconds["simulate.cascades"], counts["events"]),
        "simulate.split_s": seconds["simulate.split"],
        "simulate.rss_mb": rss["simulate"],
        "events.series_s": seconds["events.series"],
        "events.series": counts["series"],
        "events.load_s": seconds["events.load"],
        "events.write_s": seconds["events.write"],
        "events.log_mb": log_mb,
        "visibility.trf_s": seconds["visibility.trf"],
        "visibility.susceptibility_s": seconds["visibility.susceptibility"],
        "inference.bins_s": seconds["inference.bins"],
        "inference.bins_calls": counts["bins_calls"],
        "inference.us_per_series": per(seconds["inference.bins"], counts["series_binned"]),
        "inference.series_binned": counts["series_binned"],
        "inference.friend_counts": counts["friend_counts"],
        "inference.segments": tracer.counters["segments"],
        "inference.cells": counts["cells"],
        "inference.pooled_s": inclusive["inference.pooled"],
        "inference.scale_fit_s": seconds["inference.scale_fit"],
        "inference.enhancement_s": seconds["inference.enhancement"],
        "inference.rss_mb": rss["inference"],
        "forecast.points_s": seconds["forecast.points"],
        "forecast.windows": counts["windows"],
        "forecast.us_per_window": per(seconds["forecast.points"], counts["windows"]),
        "forecast.calibration_s": seconds["forecast.calibration"],
        "forecast.rss_mb": rss["forecast"],
        "cli.simulate_s": seconds["cli.simulate"],
        "cli.fit_s": seconds["cli.fit"],
        "cli.forecast_s": seconds["cli.forecast"],
        "trace.coverage": tracer.coverage(op_start, op_end),
    }
