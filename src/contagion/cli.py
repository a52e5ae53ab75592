"""Command-line pipeline: simulate, fit, enhance, forecast, calibrate, validate."""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__, inference
from .binning import log_bin_bounds, log_bin_index
from .errors import ContagionError
from .events import (
    MAX_EXPOSURES,
    IngestDiagnostics,
    build_graph,
    build_series,
    gc_paused,
    load_event_log,
    load_follow_edges,
    write_event_log,
    write_follow_edges,
)
from .forecast import DEFAULT_WINDOW, ForecastPoint, calibration, forecast_points
from .inference import (
    fit_enhancement,
    fit_enhancement_by_cohort,
    fit_scale_and_floor,
    scale_fit_curve,
    visibility_bins,
)
from .models import EnhancementTable, ModelParams
from .simulate import (
    GroundTruth,
    estimate_visibility,
    generate_graph,
    recovery_experiment,
    simulate_cascades,
    train_test_split,
)
from .visibility import SITES, WEEK
# unused here: perfbench's tracer wraps them in this module too (tests/test_trace_targets.py)
from .visibility import estimate_susceptibility, estimate_trf, fit_susceptibility_analytic  # noqa: F401

log = logging.getLogger("contagion")


def _out_dir(path: str) -> Path:
    out = Path(path)
    if not out.exists():
        raise ContagionError(f"output directory does not exist: {out}")
    return out


def _parse_cohort(text: str) -> tuple[int, int]:
    lo, dash, hi = text.partition("-")
    try:
        lo, hi = int(lo), int(hi if dash else lo)
    except ValueError:
        raise ContagionError(f"friend-count band {text!r} is not N or N-M") from None
    if lo > hi:
        raise ContagionError(f"friend-count band {text!r} is reversed: {lo} > {hi}")
    return lo, hi


def _read_json_doc(path, from_json_dict):
    """Load a JSON file through ``from_json_dict``; malformed content is a ContagionError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return from_json_dict(json.load(fh))
        except (AttributeError, LookupError, OverflowError, RecursionError, TypeError,
                ValueError) as exc:
            raise ContagionError(f"{path}: malformed document ({exc!r})") from exc


def _write_json(path: Path, doc) -> None:
    """Write one of the CLI's JSON outputs: UTF-8, indent 2, sorted keys."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def _read_truth(args) -> GroundTruth:
    """Read ``--config`` and apply ``--seed``."""
    truth = _read_json_doc(args.config, GroundTruth.from_json_dict)
    if args.seed is not None:
        truth = replace(truth, rng_seed=args.seed)  # re-checks the seed
    return truth


def _read_model(args) -> ModelParams:
    """Read ``--model`` and check that it was fitted for ``--site``."""
    model = _read_json_doc(args.model, ModelParams.from_json_dict)
    if model.site != args.site:
        raise ContagionError(f"model is for {model.site!r}, requested {args.site!r}")
    return model


def _ingest(args, diagnostics: IngestDiagnostics | None = None):
    """Load the capped log and the graph, keep ``--split``, and group it into series.

    Returns the split's events, its series and the observation end:
    ``--obs-end``, or else the split's last event time.
    """
    events = load_event_log(args.events, max_exposures=args.max_exposures, diagnostics=diagnostics)
    graph = build_graph(events, load_follow_edges(args.graph))
    if args.split != "all":
        train, test = train_test_split(events)
        events = train if args.split == "train" else test
    series = build_series(events, graph, diagnostics=diagnostics)
    if not series:
        raise ContagionError(f"no exposure series in the {args.split} split")
    obs_end = args.obs_end if args.obs_end is not None else max(ev.time for ev in events)
    return events, series, obs_end


def cmd_simulate(args) -> int:
    out = _out_dir(args.out)
    truth = _read_truth(args)
    graph = generate_graph(truth.graph, truth.rng_seed)
    events = simulate_cascades(truth, graph)
    write_event_log(out / "events.jsonl", events)
    write_follow_edges(out / "graph.jsonl", graph)
    _write_json(out / "truth.json", truth.to_json_dict())
    log.info("wrote %d events for %d users", len(events), len(graph.users))
    print(f"events={len(events)} users={len(graph.users)} -> {out}")
    return 0


def cmd_fit(args) -> int:
    out = _out_dir(args.out)
    diagnostics = IngestDiagnostics()
    events, series, obs_end = _ingest(args, diagnostics)

    site = args.site
    bundle, curve = estimate_visibility(series, site, args.trf_horizon)
    sus = curve.analytic

    # One visibility pass feeds the scale fit and the enhancement bins. It is
    # called through the module so that wrappers installed there see it.
    raw = inference.collect_visibility_bins(series, sus, bundle, obs_end)
    fit_curve = scale_fit_curve(raw, min_responses=args.min_fit_responses)
    p0, v_min = fit_scale_and_floor(fit_curve)
    table = fit_enhancement(visibility_bins(raw))
    table = EnhancementTable(values=dict(table.values), saturates=True)

    model = ModelParams(
        site=site,
        p0=p0,
        log_v_min=math.log(v_min) if v_min > 0 else -math.inf,
        enhancement=table,
        susceptibility=curve,
        trf=bundle,
    )
    _write_json(out / "model.json", model.to_json_dict())

    diag = {
        "site": site,
        "events": len(events),
        "series": len(series),
        "p0": p0,
        "log_v_min": math.log(v_min) if v_min > 0 else None,
        "susceptibility_params": curve.params,
        "enhancement": {str(k): v for k, v in sorted(table.values.items())},
        "scale_fit_points": len(fit_curve.points),
        "ingest": diagnostics.__dict__,
    }
    _write_json(out / "fit_diagnostics.json", diag)
    print(f"model -> {out / 'model.json'} (p0={p0:.4g}, log_v_min={diag['log_v_min']})")
    return 0


def cmd_enhance(args) -> int:
    out = _out_dir(args.out)
    model = _read_model(args)
    cohorts = [_parse_cohort(c) for c in args.cohorts.split(",")] if args.cohorts else []
    _, series, obs_end = _ingest(args)
    sus = model.susceptibility.analytic
    doc = []
    if cohorts:
        tables = fit_enhancement_by_cohort(series, cohorts, sus, model.trf, obs_end)
        for (lo, hi), table in sorted(tables.items()):
            doc.append(table.to_json_dict(cohort=f"{lo}-{hi}"))
    else:
        raw = inference.collect_visibility_bins(series, sus, model.trf, obs_end)
        doc.append(fit_enhancement(visibility_bins(raw)).to_json_dict(cohort="all"))
    _write_json(out / "enhancement.json", doc)
    print(f"enhancement tables -> {out / 'enhancement.json'}")
    return 0


def _write_calibration(out: Path, curve, wmap: float) -> None:
    with open(out / "calibration.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lo", "bin_hi", "predicted_mean", "observed", "trials"])
        for pt in curve.points:
            lo, hi = log_bin_bounds(log_bin_index(pt.predicted))
            writer.writerow([f"{lo:.6g}", f"{hi:.6g}", f"{pt.predicted:.6g}",
                             f"{pt.observed:.6g}", pt.trials])
    with open(out / "wmap.txt", "w", encoding="utf-8") as fh:
        fh.write(f"{wmap:.6f}\n")


def cmd_forecast(args) -> int:
    out = _out_dir(args.out)
    model = _read_model(args)
    _, series, obs_end = _ingest(args)
    if args.ablate_enhancement:
        model.enhancement = EnhancementTable(values={1: 1.0}, saturates=True)
    points = forecast_points(
        model,
        series,
        window=args.window,
        stride=args.stride,
        eval_horizon=args.eval_horizon,
        obs_end=obs_end,
    )
    with open(out / "forecasts.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user", "item", "window_start", "predicted", "outcome"])
        for pt in points:
            writer.writerow([pt.user, pt.item, pt.window_start,
                             f"{pt.predicted:.8g}", int(pt.responded)])
    curve, wmap = calibration(points)
    _write_calibration(out, curve, wmap)
    print(f"{len(points)} forecasts, wmap={wmap:.4f} -> {out}")
    return 0


def cmd_calibrate(args) -> int:
    out = _out_dir(args.out)
    with open(args.forecasts, encoding="utf-8") as fh:
        rows = csv.DictReader(fh)
        points = []
        for row in rows:
            try:
                outcome = int(row["outcome"])
                if outcome not in (0, 1):
                    raise ValueError(f"outcome {outcome} is not 0 or 1")
                points.append(ForecastPoint(
                    user=row["user"],
                    item=row["item"],
                    window_start=int(row["window_start"]),
                    window_len=args.window,
                    predicted=float(row["predicted"]),
                    responded=outcome == 1,
                ))
            except (ContagionError, KeyError, TypeError, ValueError) as exc:
                raise ContagionError(
                    f"{args.forecasts} line {rows.line_num}: bad row ({exc!r})"
                ) from exc
    curve, wmap = calibration(points)
    _write_calibration(out, curve, wmap)
    print(f"calibration over {len(points)} forecasts, wmap={wmap:.4f} -> {out}")
    return 0


def cmd_validate(args) -> int:
    out = _out_dir(args.out)
    truth = _read_truth(args)
    cohort = _parse_cohort(args.enhancement_cohort) if args.enhancement_cohort else None
    report = recovery_experiment(
        truth,
        max_exposures=args.max_exposures,
        trf_horizon=args.trf_horizon,
        enhancement_cohort=cohort,
    )
    doc = {
        "events_total": report.events_total,
        "responses_total": report.responses_total,
        "p0": {"true": report.p0_true, "est": report.p0_est, "rel_err": report.p0_rel_err},
        "log_v_min": {
            "true": report.log_v_min_true,
            "est": report.log_v_min_est,
            "rel_err": report.log_v_min_rel_err,
        },
        "enhancement": {
            str(n): {
                "true": report.enhancement_true[n],
                "est": report.enhancement_est.get(n),
                "rel_err": report.enhancement_rel_err(n) if n in report.enhancement_est else None,
            }
            for n in sorted(report.enhancement_true)
        },
        "susceptibility_shape_rel_err": report.susceptibility_shape_errors,
    }
    _write_json(out / "recovery.json", doc)
    for line in report.summary_lines():
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contagion",
        description="Cascade simulation, model fitting, and response forecasting",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, need_model=False):
        p.add_argument("--events", required=True, help="event log (JSON lines)")
        p.add_argument("--graph", required=True, help="follow edges (JSON lines)")
        p.add_argument("--site", choices=tuple(SITES), default="digg")
        p.add_argument("--max-exposures", type=int, default=MAX_EXPOSURES)
        p.add_argument("--out", required=True, help="output directory (must exist)")
        p.add_argument("--split", choices=("train", "test", "all"), default="all")
        p.add_argument("--obs-end", type=int, default=None)
        if need_model:
            p.add_argument("--model", required=True, help="model.json from fit")

    p = sub.add_parser("simulate", help="generate a synthetic event log from a truth config")
    p.add_argument("--config", required=True, help="ground-truth JSON")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="estimate all model parameters from an event log")
    add_io(p)
    p.set_defaults(split="train")
    p.add_argument("--trf-horizon", type=int, default=WEEK)
    p.add_argument("--min-fit-responses", type=int, default=30)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("enhance", help="per-cohort enhancement tables")
    add_io(p, need_model=True)
    p.add_argument("--cohorts", default="", help='friend-count bands, e.g. "1-2,9-11,90-110"')
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("forecast", help="windowed forecasts plus calibration")
    add_io(p, need_model=True)
    p.set_defaults(split="test")
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p.add_argument("--stride", type=int, default=None)
    p.add_argument("--eval-horizon", type=int, default=None)
    p.add_argument("--ablate-enhancement", action="store_true")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("calibrate", help="calibration curve from a forecasts CSV")
    p.add_argument("--forecasts", required=True)
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("validate", help="end-to-end parameter recovery against a truth config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-exposures", type=int, default=MAX_EXPOSURES)
    p.add_argument("--trf-horizon", type=int, default=None)
    p.add_argument("--enhancement-cohort", default="", help='friend-count band, e.g. "30-30"')
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_validate)
    return parser


@gc_paused  # every command's bulk data is acyclic
def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("CONTAGION_LOG", "WARNING"))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ContagionError, OSError) as exc:
        out = getattr(args, "out", None)
        if out and Path(out).is_dir():
            with open(Path(out) / "error.txt", "w", encoding="utf-8") as fh:
                fh.write(f"{type(exc).__name__}: {exc}\n")
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
