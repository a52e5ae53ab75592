"""The batch entry points pause cyclic garbage collection; their data holds no cycles.

``events.gc_paused`` turns the collector off for a call and restores the
caller's state after it, also when the call raises. That is only safe while
the bulk data of a batch run forms no reference cycles, or memory would grow
until the caller collects. These tests make that a rule: every paused
library function leaves no cyclic garbage on a small fixture, and the few
cycles one CLI command leaves behind do not grow with the size of the log.
"""

import dataclasses
import gc
import json
from contextlib import contextmanager

import pytest

from contagion.cli import main
from contagion.errors import ContagionError
from contagion.events import build_series, gc_paused, load_event_log
from contagion.forecast import forecast_points
from contagion.models import EnhancementTable, ModelParams
from contagion.simulate import (
    GraphSpec,
    GroundTruth,
    Seeding,
    generate_graph,
    recovery_experiment,
    simulate_cascades,
    synthetic_trf,
)
from contagion.visibility import SusceptibilityCurve, SusceptibilityForm, TrfBundle


@contextmanager
def gc_state(enabled: bool):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def cyclic_garbage(fn) -> int:
    """Objects in reference cycles that ``fn()`` leaves unreachable."""
    gc.collect()
    with gc_state(False):
        fn()
        return gc.collect()


def truth(items: int, site: str = "twitter") -> GroundTruth:
    trf = TrfBundle(*(synthetic_trf(label, 1024, gamma=g)
                      for label, g in (("T1", 0.85), ("T10", 1.0), ("T100", 1.25))), site=site)
    if site == "twitter":
        sus = SusceptibilityCurve(form=SusceptibilityForm.TWITTER,
                                  params={"A": 0.2, "P": 1.0, "B": 0.0})
        p0 = 0.1
    else:
        sus = SusceptibilityCurve(form=SusceptibilityForm.DIGG, params={
            "A": 7.6e-3, "B": -6.2e-2, "C": 1.7e-3, "D": 3.7, "E": 17.8})
        p0 = 667.0
    return GroundTruth(
        params=ModelParams(
            site=site,
            p0=p0,
            log_v_min=-19.0,
            enhancement=EnhancementTable(values={1: 1.0, 2: 1.5, 3: 1.8}, saturates=True),
            susceptibility=sus,
            trf=trf,
        ),
        graph=GraphSpec(users=1500, kind="bands",
                        bands=((900, 1, 2), (135, 9, 11), (375, 30, 30), (45, 90, 110))),
        seeding=Seeding(items=items, posters_per_item=20, post_time_spread=30),
        horizon=2048,
        rng_seed=3,
    )


@pytest.mark.parametrize("enabled", [True, False])
def test_the_pause_restores_the_callers_state(enabled):
    seen = []

    @gc_paused
    def inner():
        seen.append(gc.isenabled())

    @gc_paused
    def outer():
        inner()
        seen.append(gc.isenabled())  # the nested call left the pause on
        raise ContagionError("boom")

    with gc_state(enabled):
        inner()
        assert gc.isenabled() is enabled
        with pytest.raises(ContagionError, match="boom"):
            outer()
        assert gc.isenabled() is enabled
    assert seen == [False, False, False]


@pytest.mark.parametrize("enabled", [True, False])
def test_a_failing_command_restores_the_callers_state(enabled, tmp_path):
    argv = ["simulate", "--config", str(tmp_path / "truth.json"), "--out", str(tmp_path / "nope")]
    with gc_state(enabled):
        assert main(argv) == 1  # the output directory does not exist: a ContagionError
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("site", ["twitter", "digg"])
def test_paused_library_functions_leave_no_cyclic_garbage(site):
    t = truth(12, site)
    graph = generate_graph(t.graph, t.rng_seed)
    events = simulate_cascades(t, graph)
    series = build_series(events, graph)
    assert series
    calls = {
        "generate_graph": lambda: generate_graph(t.graph, t.rng_seed),
        "simulate_cascades": lambda: simulate_cascades(t, graph),
        "build_series": lambda: build_series(events, graph),
        "forecast_points": lambda: forecast_points(t.params, series, obs_end=t.horizon,
                                                   eval_horizon=120),
        "recovery_experiment": lambda: recovery_experiment(t, min_fit_responses=1),
    }
    assert {name: cyclic_garbage(call) for name, call in calls.items()} == dict.fromkeys(calls, 0)


def _command_garbage(tmp_path, items: int) -> tuple[dict[str, int], int]:
    """Cyclic garbage of each CLI command, and the number of events, for ``items`` items."""
    config = tmp_path / f"truth{items}.json"
    config.write_text(json.dumps(truth(items).to_json_dict()), encoding="utf-8")
    dirs = {name: tmp_path / f"{name}{items}" for name in ("sim", "fit", "enh", "fc", "cal")}
    for path in dirs.values():
        path.mkdir()
    inputs = ["--events", str(dirs["sim"] / "events.jsonl"),
              "--graph", str(dirs["sim"] / "graph.jsonl"), "--site", "twitter"]
    argvs = {
        "simulate": ["simulate", "--config", str(config), "--out", str(dirs["sim"])],
        "fit": ["fit", *inputs, "--trf-horizon", "1024", "--min-fit-responses", "1",
                "--out", str(dirs["fit"])],
        "enhance": ["enhance", *inputs, "--model", str(dirs["fit"] / "model.json"),
                    "--cohorts", "1-2,30-30", "--out", str(dirs["enh"])],
        "forecast": ["forecast", *inputs, "--model", str(dirs["fit"] / "model.json"),
                     "--eval-horizon", "120", "--out", str(dirs["fc"])],
        "calibrate": ["calibrate", "--forecasts", str(dirs["fc"] / "forecasts.csv"),
                      "--out", str(dirs["cal"])],
    }
    codes = {}
    garbage = {name: cyclic_garbage(lambda: codes.setdefault(name, main(argv)))
               for name, argv in argvs.items()}
    assert codes == dict.fromkeys(argvs, 0)
    events = len(load_event_log(dirs["sim"] / "events.jsonl"))
    return garbage, events


def test_cli_cyclic_garbage_does_not_grow_with_the_log(tmp_path):
    small, small_events = _command_garbage(tmp_path, 12)
    large, large_events = _command_garbage(tmp_path, 36)
    assert large_events > 2 * small_events
    assert large == small


def recoverable_truth(items: int) -> GroundTruth:
    """A digg truth with enough responses for ``validate``'s default fit thresholds."""
    t = truth(items, "digg")
    trf = TrfBundle(*(synthetic_trf(label, 1024, gamma=0.0) for label in ("T1", "T10", "T100")),
                    site="digg")
    return dataclasses.replace(
        t,
        params=dataclasses.replace(
            t.params, trf=trf, enhancement=EnhancementTable(values={1: 1.0, 2: 1.5}, saturates=True)),
        graph=GraphSpec(users=1600, kind="bands",
                        bands=((800, 1, 2), (300, 9, 11), (350, 30, 30), (120, 90, 110))),
        seeding=Seeding(items=items, posters_per_item=160, post_time_spread=40),
        rng_seed=11,
    )


def test_validate_cyclic_garbage_does_not_grow_with_the_run(tmp_path):
    codes, garbage = [], []
    for items in (36, 108):
        config = tmp_path / f"truth{items}.json"
        config.write_text(json.dumps(recoverable_truth(items).to_json_dict()), encoding="utf-8")
        out = tmp_path / f"val{items}"
        out.mkdir()
        argv = ["validate", "--config", str(config), "--trf-horizon", "1024", "--out", str(out)]
        garbage.append(cyclic_garbage(lambda: codes.append(main(argv))))
    assert codes == [0, 0]
    assert garbage[0] == garbage[1]
