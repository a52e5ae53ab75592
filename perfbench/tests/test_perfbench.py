"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q

They show that a perturbed output fails its check, that a raising
operation is counted rather than fatal, and that the tracer and the
recovery checks skip names that no longer exist.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from contagion import events, inference, simulate  # noqa: E402


def test_golden_comparison_catches_perturbed_values():
    observed = {"events_sha256": "ab", "windows": 10, "p0": 2.0}
    reference = {"exact": {"events_sha256": "ab", "windows": 10}, "rel_tol": {"p0": [2.0, 1e-6]}}
    assert checks.compare_golden(observed, reference) == []
    assert checks.compare_golden({**observed, "p0": 2.0 * (1 + 1e-8)}, reference) == []
    for key, bad in (("events_sha256", "ac"), ("windows", 11), ("p0", 2.0 * (1 + 1e-5))):
        errors = checks.compare_golden({**observed, key: bad}, reference)
        assert len(errors) == 1 and key in errors[0]
    assert checks.compare_golden({"windows": 10, "p0": 2.0}, reference)  # missing hash
    assert checks.compare_golden({"windows": 10, "p0": 2.0}, reference,
                                 skip={"events_sha256"}) == []


def test_predictions_and_fits_are_range_checked():
    assert checks.check_predictions([0.0, 0.5, 1.0], [0, 1, 0]) == []
    assert checks.check_predictions([0.5, 1.5], [0, 0])
    assert checks.check_predictions([0.5], [2])
    assert checks.check_finite({"p0": 1.0, "F(2)": 0.0}) == []
    assert checks.check_finite({"log_v_min": float("-inf")})
    assert checks.check_finite({"p0": float("nan")})


@pytest.fixture(scope="module")
def twitter_run(tmp_path_factory):
    workload = workloads.TwitterCli(3, tmp_path_factory.mktemp("twitter"))
    return workload, workload.run()


def test_twitter_checks_catch_a_perturbed_result(twitter_run):
    workload, codes = twitter_run
    assert workload.check(codes) == []  # also: the window tiling matches the forecaster
    assert workload.check([0, 1, 0]) == ["fit exited 1"]
    forecasts = workload.dirs["fc"] / "forecasts.csv"
    rows = forecasts.read_text()
    try:
        forecasts.write_text(rows[:rows.rstrip("\n").rindex("\n") + 1])  # drop the last row
        assert any("tiling gives" in e for e in workload.check(codes))
    finally:
        forecasts.write_text(rows)
    error = workload.dirs["fit"] / "error.txt"
    error.write_text("boom")
    try:
        assert workload.check(codes) == [f"{error} written"]
    finally:
        error.unlink()
    observed = workload.observed(codes)
    reference = {"exact": {**observed, "forecast_rows": observed["forecast_rows"] + 1}}
    errors = checks.compare_golden(observed, reference)
    assert len(errors) == 1 and "forecast_rows" in errors[0]


def _write_log(path: Path, rows) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def test_ledger_balances_and_catches_a_lost_exposure(tmp_path):
    rows = [{"kind": "exposure", "user": "a", "item": "x", "time": t, "exposer": "b"}
            for t in range(21)]  # spam-capped pair
    rows += [
        {"kind": "exposure", "user": "c", "item": "x", "time": 1, "exposer": "b"},
        {"kind": "post", "user": "c", "item": "x", "time": 2},
        {"kind": "exposure", "user": "c", "item": "x", "time": 3, "exposer": "b"},
        {"kind": "exposure", "user": "d", "item": "x", "time": 4, "exposer": "b"},
        {"kind": "exposure", "user": "d", "item": "x", "time": 4, "exposer": "b"},
        {"kind": "response", "user": "d", "item": "x", "time": 9},
    ]
    path = tmp_path / "events.jsonl"
    _write_log(path, rows)
    diag = events.IngestDiagnostics()
    log = events.load_event_log(path, max_exposures=20, diagnostics=diag)
    events.build_series(log, events.build_graph(log, [("c", "b"), ("d", "b")]), diagnostics=diag)
    ingest = dict(diag.__dict__)
    assert checks.check_ledger(path, ingest, 20, train_only=False) == []
    for key in ("exposures_in_series", "capped_exposures", "parsed_events"):
        assert checks.check_ledger(path, {**ingest, key: ingest[key] - 1}, 20, train_only=False)


def test_forecast_csv_readers(tmp_path):
    fc = tmp_path / "forecasts.csv"
    fc.write_text("user,item,window_start,predicted,outcome\nu,x,0,0.25,0\nu,x,30,0.5,1\n")
    cal = tmp_path / "calibration.csv"
    cal.write_text("bin_lo,bin_hi,predicted_mean,observed,trials\n0.2,0.3,0.25,0,1\n"
                   "0.4,0.6,0.5,1,1\n")
    assert checks.read_forecasts_csv(fc) == ([0.25, 0.5], [0, 1])
    assert checks.read_calibration_trials(cal) == 2


def test_failing_operation_is_recorded_not_fatal():
    def forecast_without_model():
        raise FileNotFoundError("model.json")

    value, error, wall = child.run_operation(forecast_without_model)
    assert value is None and "FileNotFoundError" in error and wall >= 0.0
    _, error, _ = child.run_operation(lambda: sys.exit(2))
    assert "SystemExit" in error

    ok = {"ok": True, "traced": False, "wall_s": 2.0, "setup_s": 1.0, "peak_rss_mb": 50.0,
          "counts": {"events": 100, "windows": 0}, "errors": []}
    failed = {"ok": False, "traced": False, "wall_s": 0.1, "errors": [error]}
    metrics, extras = run.summarize([failed, ok, dict(ok, wall_s=4.0)], trace=False)
    assert extras == {**extras, "ops": 3, "failed": 1}
    assert metrics["wall_s"] == 3.0 and metrics["events_per_s"] == pytest.approx(37.5)


def test_recovery_checks_survive_a_deleted_capture_target(tmp_path, monkeypatch):
    monkeypatch.delattr(simulate, "simulate_cascades")
    monkeypatch.setattr(inference, "pooled_visibility_bins", inference.pooled_visibility_bins)
    workload = workloads.DiggRecovery(0, tmp_path)
    assert workload.notes == ["contagion.simulate.simulate_cascades not found; its checks skipped"]
    report = simulate.RecoveryReport(
        events_total=100, responses_total=10, train_events=60, test_events=40,
        p0_true=1.0, p0_est=1.1, log_v_min_true=-19.0, log_v_min_est=-18.5,
        enhancement_true={2: 1.5}, enhancement_est={2: 1.4},
    )
    assert workload.check(report) == []  # pooling never ran: not applicable, not failed
    assert "pooled_visibility_bins was not called; its checks skipped" in workload.notes
    assert workload.not_applicable() == {"events_sha256", "pooled_trials", "pooled_responses"}
    assert "events_sha256" not in workload.observed(report)
    assert workload.check(dataclasses.replace(report, test_events=41))  # report checks still run


def test_tracer_records_nested_spans_and_skips_missing_names(monkeypatch):
    module = types.ModuleType("fake_layer")

    def inner(n):
        return list(range(n))

    def outer(n):
        return module.inner(n)

    module.inner, module.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    monkeypatch.setattr(spans, "SPANS", {
        "forecast.points": ("fake_layer:inner",),
        "forecast.calibration": ("fake_layer:outer", "fake_layer:gone"),
    })
    monkeypatch.setattr(spans, "COUNTERS", {})
    tracer = spans.Tracer().install()
    assert tracer.notes == ["fake_layer:gone: not found; skipped"]
    assert module.outer(5) == [0, 1, 2, 3, 4]
    tracer.uninstall()
    assert module.inner is inner and module.outer is outer

    outer_span, inner_span = tracer.spans
    assert inner_span["parent"] == 0 and outer_span["parent"] is None
    own = tracer.self_times()
    assert own[0] == pytest.approx(
        (outer_span["end"] - outer_span["start"]) - (inner_span["end"] - inner_span["start"]))
    layers = spans.layer_metrics(tracer, outer_span["start"], outer_span["end"], 0.0)
    assert layers["forecast.windows"] == 5
    assert layers["trace.coverage"] == pytest.approx(1.0)
    assert layers["inference.bins_s"] == 0.0  # a layer that did not run


def test_runner_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "twitter-cli", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
