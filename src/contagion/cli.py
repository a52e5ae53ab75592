"""Command-line pipeline: simulate, fit, enhance, forecast, calibrate, validate."""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from pathlib import Path

from . import __version__, inference
from .binning import log_bin_bounds, log_bin_index
from .errors import ContagionError
from .events import (
    IngestDiagnostics,
    build_graph,
    build_series,
    load_event_log,
    load_follow_edges,
    write_event_log,
    write_follow_edges,
)
from .forecast import ForecastPoint, calibration, forecast_points
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
    generate_graph,
    recovery_experiment,
    simulate_cascades,
    train_test_split,
)
from .visibility import (
    COHORTS,
    SusceptibilityForm,
    TrfBundle,
    estimate_susceptibility,
    estimate_trf,
    fit_susceptibility_analytic,
)

log = logging.getLogger("contagion")


def _out_dir(path: str) -> Path:
    out = Path(path)
    if not out.exists():
        raise ContagionError(f"output directory does not exist: {out}")
    return out


def _parse_cohort(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("-")
    try:
        return (int(lo), int(hi or lo))
    except ValueError:
        raise ContagionError(f"friend-count band {text!r} is not N or N-M") from None


def _read_json_doc(path, from_json_dict):
    """Load a JSON file through ``from_json_dict``; malformed content is a ContagionError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return from_json_dict(json.load(fh))
        except (KeyError, TypeError, ValueError) as exc:
            raise ContagionError(f"{path}: malformed document ({exc!r})") from exc


def _load_inputs(args, diagnostics: IngestDiagnostics):
    events = load_event_log(args.events, max_exposures=args.max_exposures, diagnostics=diagnostics)
    edges = load_follow_edges(args.graph)
    graph = build_graph(events, edges)
    return events, graph


def _obs_end(args, events) -> int:
    return args.obs_end if args.obs_end is not None else max(ev.time for ev in events)


def _split(events, which: str):
    if which == "all":
        return events
    train, test = train_test_split(events)
    return train if which == "train" else test


def cmd_simulate(args) -> int:
    out = _out_dir(args.out)
    truth = _read_json_doc(args.config, GroundTruth.from_json_dict)
    if args.seed is not None:
        truth.rng_seed = args.seed
    graph = generate_graph(truth.graph, truth.rng_seed)
    events = simulate_cascades(truth, graph)
    write_event_log(out / "events.jsonl", events)
    write_follow_edges(out / "graph.jsonl", graph)
    with open(out / "truth.json", "w", encoding="utf-8") as fh:
        json.dump(truth.to_json_dict(), fh, indent=2, sort_keys=True)
    log.info("wrote %d events for %d users", len(events), len(graph.users))
    print(f"events={len(events)} users={len(graph.users)} -> {out}")
    return 0


def cmd_fit(args) -> int:
    out = _out_dir(args.out)
    diagnostics = IngestDiagnostics()
    events, graph = _load_inputs(args, diagnostics)
    events = _split(events, args.split)
    if not events:
        raise ContagionError("training split is empty")
    series = build_series(events, graph, diagnostics=diagnostics)
    if not series:
        raise ContagionError("no exposure series in the training split")

    site = args.site
    horizon = args.trf_horizon
    obs_end = _obs_end(args, events)
    single_only = site == "twitter"
    bundle = TrfBundle(
        t1=estimate_trf(series, COHORTS["T1"], single_only, horizon, "T1"),
        t10=estimate_trf(series, COHORTS["T10"], single_only, horizon, "T10"),
        t100=estimate_trf(series, COHORTS["T100"], single_only, horizon, "T100"),
        site=site,
    )
    curve = estimate_susceptibility(series)
    curve.form = SusceptibilityForm(site)
    params = fit_susceptibility_analytic(curve, curve.form)
    curve.params = params
    sus = curve.analytic

    # One visibility pass feeds the scale fit and the enhancement bins. It is
    # called through the module so that wrappers installed there see it.
    raw = inference.collect_visibility_bins(series, sus, bundle, site, obs_end)
    fit_curve = scale_fit_curve(series, sus, bundle, site, obs_end,
                                min_responses=args.min_fit_responses, raw=raw)
    p0, v_min = fit_scale_and_floor(fit_curve)
    table = fit_enhancement(visibility_bins(series, sus, bundle, site, obs_end, raw=raw))
    table = EnhancementTable(values=dict(table.values), saturates=True)

    model = ModelParams(
        site=site,
        p0=p0,
        log_v_min=math.log(v_min) if v_min > 0 else -math.inf,
        enhancement=table,
        susceptibility=curve,
        trf=bundle,
    )
    with open(out / "model.json", "w", encoding="utf-8") as fh:
        json.dump(model.to_json_dict(), fh, indent=2, sort_keys=True)

    diag = {
        "site": site,
        "events": len(events),
        "series": len(series),
        "p0": p0,
        "log_v_min": math.log(v_min) if v_min > 0 else None,
        "susceptibility_params": params,
        "enhancement": {str(k): v for k, v in sorted(table.values.items())},
        "scale_fit_points": len(fit_curve.points),
        "ingest": diagnostics.__dict__,
    }
    with open(out / "fit_diagnostics.json", "w", encoding="utf-8") as fh:
        json.dump(diag, fh, indent=2, sort_keys=True)
    print(f"model -> {out / 'model.json'} (p0={p0:.4g}, log_v_min={diag['log_v_min']})")
    return 0


def cmd_enhance(args) -> int:
    out = _out_dir(args.out)
    model = _read_json_doc(args.model, ModelParams.from_json_dict)
    diagnostics = IngestDiagnostics()
    events, graph = _load_inputs(args, diagnostics)
    events = _split(events, args.split)
    series = build_series(events, graph)
    obs_end = _obs_end(args, events)
    cohorts = [_parse_cohort(c) for c in args.cohorts.split(",")] if args.cohorts else []
    doc = []
    if cohorts:
        tables = fit_enhancement_by_cohort(
            series, cohorts, model.susceptibility.analytic, model.trf, model.site, obs_end
        )
        for (lo, hi), table in sorted(tables.items()):
            doc.append(table.to_json_dict(cohort=f"{lo}-{hi}"))
    else:
        bins = visibility_bins(series, model.susceptibility.analytic, model.trf, model.site, obs_end)
        doc.append(fit_enhancement(bins).to_json_dict(cohort="all"))
    with open(out / "enhancement.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
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
    model = _read_json_doc(args.model, ModelParams.from_json_dict)
    if model.site != args.site:
        raise ContagionError(f"model is for {model.site!r}, requested {args.site!r}")
    diagnostics = IngestDiagnostics()
    events, graph = _load_inputs(args, diagnostics)
    events = _split(events, args.split)
    series = build_series(events, graph)
    if not series:
        raise ContagionError("no series to forecast")
    if args.ablate_enhancement:
        model.enhancement = EnhancementTable(values={1: 1.0}, saturates=True)
    obs_end = _obs_end(args, events)
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
    curve, wmap = calibration(points, with_wmap=True)
    _write_calibration(out, curve, wmap)
    print(f"{len(points)} forecasts, wmap={wmap:.4f} -> {out}")
    return 0


def cmd_calibrate(args) -> int:
    out = _out_dir(args.out)
    with open(args.forecasts, encoding="utf-8") as fh:
        rows = csv.DictReader(fh)
        try:
            points = [
                ForecastPoint(
                    user=row["user"],
                    item=row["item"],
                    window_start=int(row["window_start"]),
                    window_len=args.window,
                    predicted=float(row["predicted"]),
                    responded=bool(int(row["outcome"])),
                )
                for row in rows
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ContagionError(
                f"{args.forecasts} line {rows.line_num}: bad row ({exc!r})"
            ) from exc
    curve, wmap = calibration(points, with_wmap=True)
    _write_calibration(out, curve, wmap)
    print(f"calibration over {len(points)} forecasts, wmap={wmap:.4f} -> {out}")
    return 0


def cmd_validate(args) -> int:
    out = _out_dir(args.out)
    truth = _read_json_doc(args.config, GroundTruth.from_json_dict)
    if args.seed is not None:
        truth.rng_seed = args.seed
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
    with open(out / "recovery.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
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
        p.add_argument("--site", choices=("twitter", "digg"), default="digg")
        p.add_argument("--max-exposures", type=int, default=20)
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
    p.add_argument("--trf-horizon", type=int, default=7 * 86400)
    p.add_argument("--min-fit-responses", type=int, default=30)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("enhance", help="per-cohort enhancement tables")
    add_io(p, need_model=True)
    p.add_argument("--cohorts", default="", help='friend-count bands, e.g. "1-2,9-11,90-110"')
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("forecast", help="windowed forecasts plus calibration")
    add_io(p, need_model=True)
    p.set_defaults(split="test")
    p.add_argument("--window", type=int, default=30)
    p.add_argument("--stride", type=int, default=None)
    p.add_argument("--eval-horizon", type=int, default=None)
    p.add_argument("--ablate-enhancement", action="store_true")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("calibrate", help="calibration curve from a forecasts CSV")
    p.add_argument("--forecasts", required=True)
    p.add_argument("--window", type=int, default=30)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("validate", help="end-to-end parameter recovery against a truth config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-exposures", type=int, default=20)
    p.add_argument("--trf-horizon", type=int, default=None)
    p.add_argument("--enhancement-cohort", default="", help='friend-count band, e.g. "30-30"')
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_validate)
    return parser


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
