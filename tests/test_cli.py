import csv
import hashlib
import json
import math

import pytest

from contagion.cli import main
from contagion.models import EnhancementTable, ModelParams
from contagion.simulate import GraphSpec, GroundTruth, Seeding, synthetic_trf
from contagion.visibility import SusceptibilityCurve, SusceptibilityForm, TrfBundle

DIGG_CONSTANTS = {"A": 7.6e-3, "B": -6.2e-2, "C": 1.7e-3, "D": 3.7, "E": 17.8}


@pytest.fixture(scope="module")
def truth_config(tmp_path_factory):
    horizon = 1024
    trf = TrfBundle(
        t1=synthetic_trf("T1", horizon, gamma=0.0),
        t10=synthetic_trf("T10", horizon, gamma=0.0),
        t100=synthetic_trf("T100", horizon, gamma=0.0),
        site="digg",
    )
    truth = GroundTruth(
        params=ModelParams(
            site="digg",
            p0=667.0,
            log_v_min=-19.0,
            enhancement=EnhancementTable(values={1: 1.0, 2: 1.5}, saturates=True),
            susceptibility=SusceptibilityCurve(
                form=SusceptibilityForm.DIGG, params=dict(DIGG_CONSTANTS)
            ),
            trf=trf,
        ),
        graph=GraphSpec(
            users=1600,
            kind="bands",
            bands=((800, 1, 2), (300, 9, 11), (350, 30, 30), (120, 90, 110)),
        ),
        seeding=Seeding(items=60, posters_per_item=160, post_time_spread=40),
        horizon=2048,
        rng_seed=11,
    )
    path = tmp_path_factory.mktemp("cfg") / "truth.json"
    with open(path, "w") as fh:
        json.dump(truth.to_json_dict(), fh)
    return path


@pytest.fixture(scope="module")
def sim_dir(truth_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert main(["simulate", "--config", str(truth_config), "--out", str(out)]) == 0
    return out


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_simulate_writes_deterministic_outputs(truth_config, sim_dir, tmp_path):
    out2 = tmp_path / "again"
    out2.mkdir()
    assert main(["simulate", "--config", str(truth_config), "--out", str(out2)]) == 0
    for name in ("events.jsonl", "graph.jsonl", "truth.json"):
        assert sha(sim_dir / name) == sha(out2 / name)


def test_simulate_missing_out_dir_fails(truth_config, tmp_path):
    rc = main(["simulate", "--config", str(truth_config), "--out", str(tmp_path / "nope")])
    assert rc == 1


@pytest.fixture(scope="module")
def fit_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit")
    rc = main([
        "fit",
        "--events", str(sim_dir / "events.jsonl"),
        "--graph", str(sim_dir / "graph.jsonl"),
        "--site", "digg",
        "--trf-horizon", "1024",
        "--split", "train",
        "--out", str(out),
    ])
    assert rc == 0
    return out


def test_fit_emits_model_and_diagnostics(fit_dir):
    with open(fit_dir / "model.json") as fh:
        doc = json.load(fh)
    assert doc["site"] == "digg"
    assert doc["p0"] > 0
    assert doc["enhancement"]["F"]["1"] == 1.0
    assert set(doc["susceptibility"]["params"]) == set("ABCDE")
    model = ModelParams.from_json_dict(doc)
    assert model.trf.bin_edges[0] == 1
    with open(fit_dir / "fit_diagnostics.json") as fh:
        diag = json.load(fh)
    assert diag["series"] > 0
    assert diag["ingest"]["parsed_events"] > 0


def test_fitted_model_forecasts_its_own_test_split(sim_dir, fit_dir, tmp_path):
    out = tmp_path / "fc"
    out.mkdir()
    rc = main([
        "forecast",
        "--events", str(sim_dir / "events.jsonl"),
        "--graph", str(sim_dir / "graph.jsonl"),
        "--site", "digg",
        "--model", str(fit_dir / "model.json"),
        "--split", "test",
        "--window", "30",
        "--eval-horizon", "900",
        "--out", str(out),
    ])
    assert rc == 0
    assert (out / "forecasts.csv").exists()
    assert (out / "calibration.csv").exists()
    wmap = float((out / "wmap.txt").read_text().strip())
    assert 0.0 <= wmap < 1.0

    # re-deriving the calibration from the CSV reproduces the summary error
    out2 = tmp_path / "cal"
    out2.mkdir()
    rc = main([
        "calibrate",
        "--forecasts", str(out / "forecasts.csv"),
        "--window", "30",
        "--out", str(out2),
    ])
    assert rc == 0
    assert (out2 / "wmap.txt").read_text() == (out / "wmap.txt").read_text()


def test_forecast_site_mismatch_fails_with_diagnostics(sim_dir, fit_dir, tmp_path):
    out = tmp_path / "bad"
    out.mkdir()
    rc = main([
        "forecast",
        "--events", str(sim_dir / "events.jsonl"),
        "--graph", str(sim_dir / "graph.jsonl"),
        "--site", "twitter",
        "--model", str(fit_dir / "model.json"),
        "--out", str(out),
    ])
    assert rc == 1
    assert "twitter" in (out / "error.txt").read_text()


def _forecast(sim_dir, model, out, *extra):
    out.mkdir()
    return main([
        "forecast",
        "--events", str(sim_dir / "events.jsonl"),
        "--graph", str(sim_dir / "graph.jsonl"),
        "--site", "digg",
        "--model", str(model),
        "--eval-horizon", "900",
        "--out", str(out),
        *extra,
    ])


def test_forecast_rejects_non_power_of_two_grid(sim_dir, fit_dir, tmp_path):
    with open(fit_dir / "model.json") as fh:
        doc = json.load(fh)
    for key in ("t1", "t10", "t100"):
        doc["trf"][key]["bin_edges"] = [1, 3, 5, 9]
        doc["trf"][key]["density"] = [0.25, 0.125, 0.0625]
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "fc"
    assert _forecast(sim_dir, bad, out) == 1
    assert "powers of two" in (out / "error.txt").read_text()


def test_forecast_obs_end_truncates_windows(sim_dir, fit_dir, tmp_path):
    def starts(out):
        with open(out / "forecasts.csv") as fh:
            return [(row["user"], row["item"], int(row["window_start"]), row["predicted"])
                    for row in csv.DictReader(fh)]

    assert _forecast(sim_dir, fit_dir / "model.json", tmp_path / "full") == 0
    full = starts(tmp_path / "full")
    obs_end = sorted(t for _, _, t, _ in full)[len(full) // 2]
    assert _forecast(sim_dir, fit_dir / "model.json", tmp_path / "cut",
                     "--obs-end", str(obs_end)) == 0
    cut = starts(tmp_path / "cut")
    assert 0 < len(cut) < len(full)
    assert cut == [row for row in full if row[2] <= obs_end]


def test_enhance_writes_cohort_tables(sim_dir, fit_dir, tmp_path):
    out = tmp_path / "enh"
    out.mkdir()
    rc = main([
        "enhance",
        "--events", str(sim_dir / "events.jsonl"),
        "--graph", str(sim_dir / "graph.jsonl"),
        "--site", "digg",
        "--model", str(fit_dir / "model.json"),
        "--cohorts", "1-2,30-30",
        "--out", str(out),
    ])
    assert rc == 0
    with open(out / "enhancement.json") as fh:
        doc = json.load(fh)
    cohorts = {entry["cohort"] for entry in doc}
    assert cohorts == {"1-2", "30-30"}
    for entry in doc:
        assert entry["F"]["1"] == 1.0


def test_validate_reports_recovery(truth_config, tmp_path):
    out = tmp_path / "val"
    out.mkdir()
    rc = main([
        "validate",
        "--config", str(truth_config),
        "--trf-horizon", "1024",
        "--enhancement-cohort", "30-30",
        "--out", str(out),
    ])
    assert rc == 0
    with open(out / "recovery.json") as fh:
        doc = json.load(fh)
    assert doc["p0"]["true"] == 667.0
    assert doc["p0"]["rel_err"] is not None
    assert doc["enhancement"]["2"]["true"] == 1.5


def test_ablation_flag_changes_forecasts(sim_dir, fit_dir, tmp_path):
    outs = []
    for flag in ((), ("--ablate-enhancement",)):
        out = tmp_path / f"fc{len(outs)}"
        out.mkdir()
        rc = main([
            "forecast",
            "--events", str(sim_dir / "events.jsonl"),
            "--graph", str(sim_dir / "graph.jsonl"),
            "--site", "digg",
            "--model", str(fit_dir / "model.json"),
            "--split", "test",
            "--eval-horizon", "600",
            "--out", str(out),
            *flag,
        ])
        assert rc == 0
        outs.append(sha(out / "forecasts.csv"))
    assert outs[0] != outs[1]


def _twitter_truth_config(path):
    trf = TrfBundle(
        t1=synthetic_trf("T1", 1024, gamma=0.85),
        t10=synthetic_trf("T10", 1024, gamma=1.0),
        t100=synthetic_trf("T100", 1024, gamma=1.25),
        site="twitter",
    )
    truth = GroundTruth(
        params=ModelParams(
            site="twitter",
            p0=0.1,
            log_v_min=-19.0,
            enhancement=EnhancementTable(values={1: 1.0, 2: 1.5, 3: 1.8}, saturates=True),
            susceptibility=SusceptibilityCurve(
                form=SusceptibilityForm.TWITTER, params={"A": 0.2, "P": 1.0, "B": 0.0}
            ),
            trf=trf,
        ),
        graph=GraphSpec(
            users=1500,
            kind="bands",
            bands=((900, 1, 2), (135, 9, 11), (375, 30, 30), (45, 90, 110)),
        ),
        seeding=Seeding(items=20, posters_per_item=20, post_time_spread=60),
        horizon=2048,
        rng_seed=5,
    )
    with open(path, "w") as fh:
        json.dump(truth.to_json_dict(), fh)


# SHA-256 of each pipeline output; any change to them is a change in behaviour.
PINNED = {
    "digg": {
        "events.jsonl": "9c660681d61e199096e627ed589abec1338b438d3d3ccacee54a3baea3985308",
        "model.json": "2f15908837b913ad2da199aab40a090a44d49a69fa50491852527d2118586b14",
        "forecasts.csv": "5ec859305a96588e99abc7d91d0f1df80b640e1a12927963562f386e442508c8",
    },
    "twitter": {
        "events.jsonl": "3741216068553a9c65d12f1a1bf5bbdf7be6d83e01fdfb4f646db1851f968091",
        "model.json": "98c3f657449601da852dde2314ef1a91158fd19c5dc3555ae730386defd863ce",
        "forecasts.csv": "7ae741445013f464c6efa5ce5e7424e53c7e0014a0be6274a97a7cc957e76940",
    },
}


def test_pipeline_outputs_are_pinned(sim_dir, fit_dir, tmp_path):
    assert _forecast(sim_dir, fit_dir / "model.json", tmp_path / "digg_fc",
                     "--eval-horizon", "120") == 0
    got = {
        "digg": {
            "events.jsonl": sha(sim_dir / "events.jsonl"),
            "model.json": sha(fit_dir / "model.json"),
            "forecasts.csv": sha(tmp_path / "digg_fc" / "forecasts.csv"),
        }
    }

    dirs = {name: tmp_path / name for name in ("sim", "fit", "fc")}
    for path in dirs.values():
        path.mkdir()
    _twitter_truth_config(tmp_path / "truth.json")
    inputs = ["--events", str(dirs["sim"] / "events.jsonl"),
              "--graph", str(dirs["sim"] / "graph.jsonl"), "--site", "twitter"]
    assert main(["simulate", "--config", str(tmp_path / "truth.json"),
                 "--out", str(dirs["sim"])]) == 0
    assert main(["fit", *inputs, "--trf-horizon", "1024", "--min-fit-responses", "5",
                 "--out", str(dirs["fit"])]) == 0
    assert main(["forecast", *inputs, "--model", str(dirs["fit"] / "model.json"),
                 "--eval-horizon", "300", "--out", str(dirs["fc"])]) == 0
    got["twitter"] = {
        "events.jsonl": sha(dirs["sim"] / "events.jsonl"),
        "model.json": sha(dirs["fit"] / "model.json"),
        "forecasts.csv": sha(dirs["fc"] / "forecasts.csv"),
    }
    assert got == PINNED


def _failing_argv(case, sim_dir, fit_dir, tmp_path):
    io = ["--graph", str(sim_dir / "graph.jsonl"), "--site", "digg"]
    events = ["--events", str(sim_dir / "events.jsonl")]
    model = ["--model", str(fit_dir / "model.json")]
    if case == "missing events file":
        return ["forecast", "--events", str(tmp_path / "nonexistent.jsonl"), *io, *model]
    if case == "model without parameters":
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps({"site": "twitter"}))
        return ["forecast", *events, *io, "--model", str(bad)]
    if case == "non-numeric cohort":
        return ["enhance", *events, *io, *model, "--cohorts", "abc"]
    bad = tmp_path / "forecasts.csv"
    bad.write_text("user,item,predicted,outcome\nu1,x,0.5,1\n")
    return ["calibrate", "--forecasts", str(bad)]


@pytest.mark.parametrize("case", [
    "missing events file",
    "model without parameters",
    "non-numeric cohort",
    "csv without window_start",
])
def test_cli_failure_leaves_error_txt(case, sim_dir, fit_dir, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    assert main([*_failing_argv(case, sim_dir, fit_dir, tmp_path), "--out", str(out)]) == 1
    assert (out / "error.txt").read_text().strip()


@pytest.mark.parametrize("command,model_doc,expected", [
    ("forecast", {"site": "digg"}, "bad_model.json"),
    ("enhance", {"site": "digg"}, "bad_model.json"),
    ("forecast", None, "model is for 'digg', requested 'twitter'"),
], ids=["forecast malformed model", "enhance malformed model", "forecast site mismatch"])
def test_model_is_checked_before_the_log_is_read(command, model_doc, expected, fit_dir, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    model = fit_dir / "model.json"
    if model_doc is not None:
        model = tmp_path / "bad_model.json"
        model.write_text(json.dumps(model_doc))
    argv = [command, "--events", str(tmp_path / "nonexistent.jsonl"),
            "--graph", str(tmp_path / "nonexistent_graph.jsonl"), "--site", "twitter",
            "--model", str(model), "--out", str(out)]
    assert main(argv) == 1
    assert expected in (out / "error.txt").read_text()
