"""Every span of the benchmark's tracer records on the benchmark's paths.

``tests/test_trace_targets.py`` checks that each wrapped name exists; this
checks that the program still calls it. A refactor that moves a traced call
behind a name the tracer does not wrap (say, ``estimate_trf`` called from a
new module) leaves that layer's metric at 0 with no error. The runs mirror
the benchmark's two workloads: ``simulate``/``fit``/``forecast`` on twitter
through ``cli.main``, then one digg ``recovery_experiment``.
"""

import json
import sys
from pathlib import Path

from contagion import cli, simulate
from contagion.models import EnhancementTable, ModelParams
from contagion.visibility import SusceptibilityCurve, SusceptibilityForm, TrfBundle

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402

ENHANCEMENT = {1: 1.0, 2: 1.5, 3: 1.8, 4: 2.0}
DIGG_CONSTANTS = {"A": 7.6e-3, "B": -6.2e-2, "C": 1.7e-3, "D": 3.7, "E": 17.8}


def truth(site, susceptibility, p0, trf_horizon, users, bands, items, posters, horizon):
    trf = TrfBundle(*(simulate.synthetic_trf(label, trf_horizon, gamma=g)
                      for label, g in (("T1", 0.85), ("T10", 1.0), ("T100", 1.25))), site=site)
    return simulate.GroundTruth(
        params=ModelParams(
            site=site, p0=p0, log_v_min=-19.0,
            enhancement=EnhancementTable(values=dict(ENHANCEMENT), saturates=True),
            susceptibility=SusceptibilityCurve(form=SusceptibilityForm(site),
                                               params=dict(susceptibility)),
            trf=trf,
        ),
        graph=simulate.GraphSpec(users=users, kind="bands", bands=bands),
        seeding=simulate.Seeding(items=items, posters_per_item=posters, post_time_spread=60),
        horizon=horizon,
        rng_seed=0,
    )


def run_twitter_cli(tmp: Path) -> None:
    config = tmp / "truth.json"
    config.write_text(json.dumps(truth(
        "twitter", {"A": 0.2, "P": 1.0, "B": 0.0}, p0=0.1, trf_horizon=2048, users=2000,
        bands=((1200, 1, 2), (180, 9, 11), (500, 30, 30), (60, 90, 110)),
        items=30, posters=20, horizon=4096,
    ).to_json_dict()))
    sim, fit, fc = (tmp / name for name in ("sim", "fit", "fc"))
    for path in (sim, fit, fc):
        path.mkdir()
    inputs = ["--events", str(sim / "events.jsonl"), "--graph", str(sim / "graph.jsonl"),
              "--site", "twitter"]
    assert cli.main(["simulate", "--config", str(config), "--out", str(sim)]) == 0
    assert cli.main(["fit", *inputs, "--trf-horizon", "2048", "--min-fit-responses", "5",
                     "--out", str(fit)]) == 0
    assert cli.main(["forecast", *inputs, "--model", str(fit / "model.json"),
                     "--eval-horizon", "300", "--out", str(fc)]) == 0


def run_digg_recovery() -> None:
    simulate.recovery_experiment(
        truth("digg", DIGG_CONSTANTS, p0=667.0, trf_horizon=4 * 3600, users=10_000,
              bands=((4600, 1, 2), (900, 9, 11), (3500, 30, 30), (200, 90, 110)),
              items=8, posters=(300, 300, 300, 300, 60), horizon=8 * 3600),
        trf_horizon=4 * 3600,
        enhancement_cohort=(30, 30),
        min_fit_responses=10,
    )


def test_every_span_records_on_the_benchmark_paths(tmp_path):
    tracer = spans.Tracer().install()
    try:
        run_twitter_cli(tmp_path)
        run_digg_recovery()
    finally:
        tracer.uninstall()
    recorded = {span["name"] for span in tracer.spans}
    assert sorted(set(spans.SPANS) - recorded) == []
