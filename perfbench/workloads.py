"""The benchmark workloads.

Each workload is built from a seed (construction is set-up), runs one timed
operation through the program's public entry points, and then checks its
outputs.  Calls go through module attributes (``simulate.build_series``,
not a name imported into this file) so that the tracer's wrappers see them.

Why these two (layer shares are self times in one traced seed-0 run on a
2-vCPU Xeon; they move with the machine, the order does not):

* ``digg-recovery`` -- one ``recovery_experiment`` on a cut-down
  acceptance-criterion-5 truth (the same banded 10k-user graph and digg
  model, fewer and smaller items).  Visibility binning/risk segmentation
  takes 49% (the exact-cell pass inside pooling is 20% of the total;
  pooling's own regrouping is under 0.1%), the digg simulator 23%, building
  the 10k-user graph 17%, split and series 6%.  No forecasting, no files.
* ``twitter-cli`` -- ``contagion simulate``, ``fit --site twitter`` and
  ``forecast --site twitter`` through ``cli.main`` on files: forecasting
  29%, the fit's three visibility passes 28%, the chronological
  (all-driver) hazard 16%, JSONL writes and JSONL/CSV reads 16%.  The
  banded graph has 27 distinct friend counts, so the binning passes' cache
  misses 81 times in 13161 series (0.6%); no workload runs a miss-heavy
  path.  The cascade is kept subcritical: saturated cascades spam-cap the
  high-friend cohort and the fit then has no T100 data.
"""

from __future__ import annotations

import json
from pathlib import Path

from contagion import cli, events, inference, simulate
from contagion.models import EnhancementTable, ModelParams
from contagion.visibility import SusceptibilityCurve, SusceptibilityForm, TrfBundle

import checks

DIGG_CONSTANTS = {"A": 7.6e-3, "B": -6.2e-2, "C": 1.7e-3, "D": 3.7, "E": 17.8}
MAX_EXPOSURES = 20  # the loaders' default spam cap


def _trf(horizon: int, gammas: tuple[float, float, float], site: str) -> TrfBundle:
    t1, t10, t100 = (
        simulate.synthetic_trf(label, horizon, gamma=g)
        for label, g in zip(("T1", "T10", "T100"), gammas)
    )
    return TrfBundle(t1=t1, t10=t10, t100=t100, site=site)


def _capture(module, attr: str, store: dict, notes: list[str]) -> None:
    """Keep the last result of ``module.attr`` for the checks (no timing).

    A name that no longer exists is skipped with a note; the checks that
    need its result then report themselves not applicable.
    """
    original = getattr(module, attr, None)
    if not callable(original):
        notes.append(f"{module.__name__}.{attr} not found; its checks skipped")
        return

    def wrapper(*args, **kwargs):
        store[attr] = result = original(*args, **kwargs)
        return result

    setattr(module, attr, wrapper)


def _events_sha256(event_list, path: Path) -> str:
    events.write_event_log(path, event_list)
    digest = checks.sha256_file(path)
    path.unlink()
    return digest


class DiggRecovery:
    name = "digg-recovery"
    TRF_HORIZON = 4 * 3600
    ITEMS, POSTERS = 8, (300, 300, 300, 300, 60)

    def __init__(self, seed: int, tmp: Path):
        self.tmp = tmp
        params = ModelParams(
            site="digg",
            p0=667.0,
            log_v_min=-19.0,
            enhancement=EnhancementTable(values={1: 1.0, 2: 1.5, 3: 1.8, 4: 2.0}, saturates=True),
            susceptibility=SusceptibilityCurve(
                form=SusceptibilityForm.DIGG, params=dict(DIGG_CONSTANTS)
            ),
            trf=_trf(self.TRF_HORIZON, (0.85, 1.0, 1.25), "digg"),
        )
        self.truth = simulate.GroundTruth(
            params=params,
            graph=simulate.GraphSpec(
                users=10_000,
                kind="bands",
                bands=((4600, 1, 2), (900, 9, 11), (3500, 30, 30), (200, 90, 110)),
            ),
            seeding=simulate.Seeding(
                items=self.ITEMS, posters_per_item=self.POSTERS, post_time_spread=60
            ),
            horizon=8 * 3600,
            rng_seed=seed,
        )
        self.captured: dict = {}
        self.notes: list[str] = []
        _capture(simulate, "simulate_cascades", self.captured, self.notes)
        _capture(inference, "pooled_visibility_bins", self.captured, self.notes)

    def run(self):
        return simulate.recovery_experiment(
            self.truth,
            trf_horizon=self.TRF_HORIZON,
            enhancement_cohort=(30, 30),
            min_fit_responses=10,
        )

    def counts(self, report) -> dict:
        return {"events": report.events_total, "windows": 0, "log_mb": 0.0}

    def _captured(self, attr: str):
        """The captured result, or None (with a note) if the run never made it."""
        if attr not in self.captured:
            note = f"{attr} was not called; its checks skipped"
            if note not in self.notes:
                self.notes.append(note)
        return self.captured.get(attr)

    def check(self, report) -> list[str]:
        fitted = {"p0": report.p0_est, "log_v_min": report.log_v_min_est}
        fitted.update({f"F({n})": f for n, f in report.enhancement_est.items()})
        errors = checks.check_finite(fitted)
        if report.train_events + report.test_events > report.events_total:
            errors.append("split holds more events than the report counts")
        if report.responses_total > report.events_total:
            errors.append("more responses than events")
        simulated = self._captured("simulate_cascades")
        if simulated is not None and report.events_total != len(simulated):
            errors.append(f"report counts {report.events_total} events, "
                          f"simulator gave {len(simulated)}")
        pooled = self._captured("pooled_visibility_bins")
        if pooled is not None and sum(b.responses for bins in pooled.values()
                                      for b in bins) > report.responses_total:
            errors.append("pooled bins hold more responses than the log")
        return errors

    def observed(self, report) -> dict:
        out = {
            "events_total": report.events_total,
            "responses_total": report.responses_total,
            "train_events": report.train_events,
            "test_events": report.test_events,
            "p0": report.p0_est,
            "log_v_min": report.log_v_min_est,
        }
        for n in (2, 3, 4):
            out[f"F({n})"] = report.enhancement_est.get(n)
        simulated = self._captured("simulate_cascades")
        if simulated is not None:
            out["events_sha256"] = _events_sha256(simulated, self.tmp / "events.jsonl")
        pooled = self._captured("pooled_visibility_bins")
        if pooled is not None:
            out["pooled_trials"] = {str(n): sum(b.trials for b in bins)
                                    for n, bins in sorted(pooled.items())}
            out["pooled_responses"] = {str(n): sum(b.responses for b in bins)
                                       for n, bins in sorted(pooled.items())}
        return out

    def not_applicable(self) -> set[str]:
        """Golden keys this run could not observe (see ``_capture``)."""
        keys = {"simulate_cascades": {"events_sha256"},
                "pooled_visibility_bins": {"pooled_trials", "pooled_responses"}}
        return {k for attr, ks in keys.items() if attr not in self.captured for k in ks}


class TwitterCli:
    name = "twitter-cli"
    TRF_HORIZON, EVAL_HORIZON, WINDOW = 2048, 300, 30
    P0, SUSCEPTIBILITY = 0.1, {"A": 0.2, "P": 1.0, "B": 0.0}
    USERS, BANDS = 2000, ((1200, 1, 2), (180, 9, 11), (500, 30, 30), (60, 90, 110))
    ITEMS, POSTERS = 30, 20

    def __init__(self, seed: int, tmp: Path):
        self.tmp = tmp
        truth = simulate.GroundTruth(
            params=ModelParams(
                site="twitter",
                p0=self.P0,
                log_v_min=-19.0,
                enhancement=EnhancementTable(values={1: 1.0, 2: 1.5, 3: 1.8, 4: 2.0},
                                             saturates=True),
                susceptibility=SusceptibilityCurve(
                    form=SusceptibilityForm.TWITTER, params=dict(self.SUSCEPTIBILITY)
                ),
                trf=_trf(self.TRF_HORIZON, (0.85, 1.0, 1.25), "twitter"),
            ),
            graph=simulate.GraphSpec(users=self.USERS, kind="bands", bands=self.BANDS),
            seeding=simulate.Seeding(items=self.ITEMS, posters_per_item=self.POSTERS,
                                     post_time_spread=60),
            horizon=4096,
            rng_seed=seed,
        )
        self.dirs = {name: tmp / name for name in ("sim", "fit", "fc")}
        for path in self.dirs.values():
            path.mkdir(parents=True)
        self.config = tmp / "truth.json"
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(truth.to_json_dict(), fh)

    def run(self):
        sim, fit, fc = self.dirs["sim"], self.dirs["fit"], self.dirs["fc"]
        inputs = ["--events", str(sim / "events.jsonl"), "--graph", str(sim / "graph.jsonl"),
                  "--site", "twitter"]
        return [
            cli.main(["simulate", "--config", str(self.config), "--out", str(sim)]),
            cli.main(["fit", *inputs, "--trf-horizon", str(self.TRF_HORIZON),
                      "--min-fit-responses", "5", "--out", str(fit)]),
            cli.main(["forecast", *inputs, "--model", str(fit / "model.json"),
                      "--eval-horizon", str(self.EVAL_HORIZON), "--out", str(fc)]),
        ]

    def counts(self, codes) -> dict:
        log = self.dirs["sim"] / "events.jsonl"
        with open(log, "rb") as fh:
            n_events = sum(1 for line in fh if line.strip())
        with open(self.dirs["fc"] / "forecasts.csv", "rb") as fh:
            n_windows = sum(1 for _ in fh) - 1  # header row
        return {"events": n_events, "windows": n_windows, "log_mb": log.stat().st_size / 1e6}

    def _test_series(self):
        log = events.load_event_log(self.dirs["sim"] / "events.jsonl", max_exposures=MAX_EXPOSURES)
        graph = events.build_graph(log, events.load_follow_edges(self.dirs["sim"] / "graph.jsonl"))
        test = [ev for ev in log if not checks.train_item(ev.item)]
        return events.build_series(test, graph), max(ev.time for ev in test)

    def check(self, codes) -> list[str]:
        errors = [f"{cmd} exited {rc}" for cmd, rc in zip(("simulate", "fit", "forecast"), codes)
                  if rc != 0]
        errors += [f"{path / 'error.txt'} written" for path in self.dirs.values()
                   if (path / "error.txt").exists()]
        if errors:
            return errors
        with open(self.dirs["fit"] / "model.json", encoding="utf-8") as fh:
            model = json.load(fh)
        fitted = {"p0": model["p0"], "log_v_min": model["log_v_min"]}
        fitted.update({f"F({n})": f for n, f in model["enhancement"]["F"].items()})
        fitted.update({f"susceptibility {k}": v for k, v in model["susceptibility"]["params"].items()})
        errors += checks.check_finite(fitted)
        with open(self.dirs["fit"] / "fit_diagnostics.json", encoding="utf-8") as fh:
            diag = json.load(fh)
        errors += checks.check_ledger(self.dirs["sim"] / "events.jsonl", diag["ingest"],
                                      MAX_EXPOSURES, train_only=True)
        predicted, outcomes = checks.read_forecasts_csv(self.dirs["fc"] / "forecasts.csv")
        errors += checks.check_predictions(predicted, outcomes)
        series, obs_end = self._test_series()
        tiling = checks.expected_windows(series, self.WINDOW, self.EVAL_HORIZON, obs_end)
        if (len(predicted), sum(outcomes)) != tiling:
            errors.append(f"forecasts.csv has {(len(predicted), sum(outcomes))} "
                          f"(rows, responses), tiling gives {tiling}")
        trials = checks.read_calibration_trials(self.dirs["fc"] / "calibration.csv")
        if trials != len(predicted):
            errors.append(f"calibration.csv holds {trials} trials for {len(predicted)} rows")
        return errors

    def observed(self, codes) -> dict:
        with open(self.dirs["fit"] / "fit_diagnostics.json", encoding="utf-8") as fh:
            diag = json.load(fh)
        _, outcomes = checks.read_forecasts_csv(self.dirs["fc"] / "forecasts.csv")
        return {
            "events_sha256": checks.sha256_file(self.dirs["sim"] / "events.jsonl"),
            "graph_sha256": checks.sha256_file(self.dirs["sim"] / "graph.jsonl"),
            "fit_series": diag["series"],
            "forecast_rows": len(outcomes),
            "forecast_responses": sum(outcomes),
        }


WORKLOADS = {w.name: w for w in (DiggRecovery, TwitterCli)}
