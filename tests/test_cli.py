import csv
import hashlib
import json
import math
import re
from pathlib import Path

import pytest

from contagion import forecast, simulate
from contagion.cli import main
from contagion.events import Event, write_event_log
from contagion.models import EnhancementTable, ModelParams
from contagion.simulate import GraphSpec, GroundTruth, Seeding, synthetic_trf, train_test_split
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


def test_fit_rejects_an_obs_end_past_2_pow_53(sim_dir, tmp_path):
    out = tmp_path / "fit"
    out.mkdir()
    assert main(["fit", "--events", str(sim_dir / "events.jsonl"),
                 "--graph", str(sim_dir / "graph.jsonl"), "--obs-end", str(2**53),
                 "--out", str(out)]) == 1
    assert "obs_end 9007199254740992 is not below 2**53" in (out / "error.txt").read_text()


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


# SHA-256 of the twitter forecasts.csv above at --stride 7, where windows overlap
# and one exposure's runs fall in several windows at once.
PINNED_OVERLAPPING = "5f88b2adb628666d4903a67b4cffc9951f750a9630c27ca355ed98848cad95ad"


def test_overlapping_window_forecasts_are_pinned(tmp_path):
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
                 "--stride", "7", "--eval-horizon", "300", "--out", str(dirs["fc"])]) == 0
    assert sha(dirs["fc"] / "forecasts.csv") == PINNED_OVERLAPPING


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
    if case == "empty split":
        log = [Event("exposure", "u1", f"item{i}", 1, exposer="u2") for i in range(8)]
        train, _ = train_test_split(log)
        write_event_log(tmp_path / "train_only.jsonl", train)
        return ["enhance", "--events", str(tmp_path / "train_only.jsonl"), *io, *model,
                "--split", "test"]
    if case == "mistyped model field":
        doc = json.loads((fit_dir / "model.json").read_text())
        doc["enhancement"] = {"F": "x"}
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(doc))
        return ["forecast", *events, *io, "--model", str(bad)]
    if case == "every forecast zero":
        zeros = tmp_path / "zeros.csv"
        zeros.write_text("user,item,window_start,predicted,outcome\n" + "u1,x,0,0,0\n" * 3)
        return ["calibrate", "--forecasts", str(zeros)]
    bad = tmp_path / "forecasts.csv"
    bad.write_text("user,item,predicted,outcome\nu1,x,0.5,1\n")
    return ["calibrate", "--forecasts", str(bad)]


@pytest.mark.parametrize("case", [
    "missing events file",
    "model without parameters",
    "non-numeric cohort",
    "csv without window_start",
    "empty split",
    "mistyped model field",
    "every forecast zero",
])
def test_cli_failure_leaves_error_txt(case, sim_dir, fit_dir, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    assert main([*_failing_argv(case, sim_dir, fit_dir, tmp_path), "--out", str(out)]) == 1
    assert (out / "error.txt").read_text().strip()


@pytest.mark.parametrize("row,expected", [
    ("u2,x,30,0.5,7", "line 3: bad row (ValueError('outcome 7 is not 0 or 1'))"),
    ("u2,x,30,0.5,-1", "line 3: bad row (ValueError('outcome -1 is not 0 or 1'))"),
    ("u2,x,30,1.5,0", "line 3: bad row (ContagionError('predicted probability outside [0, 1]'))"),
], ids=["outcome 7", "outcome -1", "predicted 1.5"])
def test_calibrate_rejects_a_bad_row_and_names_its_line(row, expected, tmp_path):
    forecasts = tmp_path / "forecasts.csv"
    forecasts.write_text(f"user,item,window_start,predicted,outcome\nu1,x,0,0.5,1\n{row}\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["calibrate", "--forecasts", str(forecasts), "--out", str(out)]) == 1
    assert expected in (out / "error.txt").read_text()


@pytest.mark.parametrize("command,model_doc,expected", [
    ("forecast", {"site": "digg"}, "bad_model.json"),
    ("enhance", {"site": "digg"}, "bad_model.json"),
    ("forecast", None, "model is for 'digg', requested 'twitter'"),
    ("enhance", None, "model is for 'digg', requested 'twitter'"),
], ids=["forecast malformed model", "enhance malformed model", "forecast site mismatch",
        "enhance site mismatch"])
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


def test_simulate_rejects_an_unknown_truth_key(truth_config, tmp_path):
    doc = json.loads(truth_config.read_text())
    doc["seeding"]["post_time_sprad"] = doc["seeding"].pop("post_time_spread")
    config = tmp_path / "typo.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    assert "typo.json" in (out / "error.txt").read_text()


def test_readme_library_example_runs(sim_dir, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (code,) = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    monkeypatch.chdir(sim_dir)
    exec(compile(code, "README.md", "exec"), {})


def _set(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    if value is None:
        del doc[last]
    else:
        doc[last] = value


@pytest.mark.parametrize("path,value,expected", [
    (("susceptibility", "params", "E"), None, "needs finite constants"),
    (("p0",), math.nan, "p0 must be positive and finite"),
    (("p0",), math.inf, "p0 must be positive and finite"),
    (("log_v_min",), math.nan, "log_v_min must be below infinity"),
    (("trf", "t1", "density", 0), math.nan, "densities must be finite"),
    (("trf", "site"), "twitter", "trf is for 'twitter', model is for 'digg'"),
    (("enhancement", "saturates"), "false", "saturates must be true or false, got 'false'"),
    (("trf", "t1", "bin_edges", 1), 2.7, "are not all integers"),
    (("enhancement", "F", "1"), "1", "F(1) must be a number, got '1'"),
    (("enhancement", "F", "1"), True, "F(1) must be a number, got True"),
    (("trf", "t1", "density", 0), "0.5", "a density must be a number, got '0.5'"),
    (("p0",), "667", "p0 must be a number, got '667'"),
    (("susceptibility", "empirical", "1"), [2.5, 10.9], "counts [2.5, 10.9] at n_f 1 are not"),
    (("susceptibility", "empirical", "1"), [-1, 10], "counts [-1, 10] at n_f 1 are not"),
    (("susceptibility", "empirical", "1"), [12, 10], "counts [12, 10] at n_f 1 are not"),
], ids=["constant missing", "NaN p0", "infinite p0", "NaN log_v_min", "NaN density",
        "trf for another site", "string saturates", "fractional delay edge", "string F",
        "boolean F", "string density", "string p0", "fractional counts", "negative count",
        "responses above trials"])
def test_forecast_rejects_a_malformed_model(path, value, expected, sim_dir, fit_dir, tmp_path):
    doc = json.loads((fit_dir / "model.json").read_text())
    _set(doc, path, value)
    model = tmp_path / "bad_model.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert _forecast(sim_dir, model, out) == 1
    assert expected in (out / "error.txt").read_text()


@pytest.mark.parametrize("graph,expected", [
    ({"users": 50, "kind": "powerlaw", "max_degree": -1}, "max_degree -1 is negative"),
    ({"users": 10.5, "kind": "powerlaw"}, "integer count of at least 2 users"),
    ({"users": 50, "kind": "powerlaw", "exponent": math.nan}, "exponent nan must be finite"),
], ids=["negative max_degree", "fractional users", "NaN exponent"])
def test_simulate_rejects_a_malformed_graph_spec(graph, expected, truth_config, tmp_path):
    doc = json.loads(truth_config.read_text())
    doc["graph"] = graph
    config = tmp_path / "bad_truth.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    assert expected in (out / "error.txt").read_text()


@pytest.mark.parametrize("graph,expected", [
    ({"users": 50, "kind": "powerlaw", "max_degree": 1.5}, "max_degree 1.5 is negative or not"),
    ({"users": 50, "kind": "powerlaw", "max_degree": True}, "max_degree True is negative or not"),
    ({"users": 50, "kind": "bands", "bands": [[10.5, 1, 2]]}, "band (10.5, 1, 2) is not three"),
    ({"users": 50, "kind": "bands", "bands": [["10", 1, 2]]}, "band ('10', 1, 2) is not three"),
    ({"users": 50, "kind": "bands", "bands": [[10, 1, 2.9]]}, "band (10, 1, 2.9) is not three"),
], ids=["fractional max_degree", "boolean max_degree", "fractional band count",
        "string band count", "fractional band hi"])
def test_simulate_rejects_a_non_integer_graph_number(graph, expected, truth_config, tmp_path):
    doc = json.loads(truth_config.read_text())
    doc["graph"] = graph
    config = tmp_path / "bad_truth.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    assert expected in (out / "error.txt").read_text()


@pytest.mark.parametrize("path,value,expected", [
    (("seeding", "items"), 1.5, "items must be an integer >= 1, got 1.5"),
    (("seeding", "items"), True, "items must be an integer >= 1, got True"),
    (("seeding", "posters_per_item"), [160, 2.5], "posters_per_item must be an integer"),
    (("seeding", "post_time_spread"), 1.5, "post_time_spread must be an integer >= 0"),
    (("rng_seed",), -1, "rng_seed must be an integer >= 0, got -1"),
    (("rng_seed",), 1.5, "rng_seed must be an integer >= 0, got 1.5"),
    (("horizon",), 1.5, "horizon must be an integer >= 1, got 1.5"),
    (("graph",), {"users": 50, "kind": "constant", "k": 1.5},
     "constant degree for 50 users must be an integer in [1, 49], got 1.5"),
], ids=["fractional items", "boolean items", "fractional posters", "fractional spread",
        "negative seed", "fractional seed", "fractional horizon", "fractional constant k"])
def test_simulate_rejects_a_malformed_truth_number(path, value, expected, truth_config, tmp_path):
    doc = json.loads(truth_config.read_text())
    _set(doc, path, value)
    config = tmp_path / "bad_truth.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    assert expected in (out / "error.txt").read_text()


def test_simulate_rejects_a_negative_seed_flag(truth_config, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    assert main(["simulate", "--config", str(truth_config), "--out", str(out),
                 "--seed", "-1"]) == 1
    assert "rng_seed must be an integer >= 0, got -1" in (out / "error.txt").read_text()


def test_fit_rejects_a_lone_surrogate_id(sim_dir, tmp_path):
    log = tmp_path / "events.jsonl"
    log.write_text('{"kind":"exposure","user":"a","item":"\\ud800","time":1,"exposer":"b"}\n')
    out = tmp_path / "out"
    out.mkdir()
    assert main(["fit", "--events", str(log), "--graph", str(sim_dir / "graph.jsonl"),
                 "--out", str(out)]) == 1
    assert "line 1: id holds a lone surrogate" in (out / "error.txt").read_text()


@pytest.mark.parametrize("horizon", ["0", "-3"])
def test_fit_rejects_a_trf_horizon_below_1(horizon, sim_dir, tmp_path):
    out = tmp_path / "fit"
    out.mkdir()
    assert main(["fit", "--events", str(sim_dir / "events.jsonl"),
                 "--graph", str(sim_dir / "graph.jsonl"), "--trf-horizon", horizon,
                 "--out", str(out)]) == 1
    assert f"trf_horizon must be an integer >= 1, got {horizon}" in (out / "error.txt").read_text()


@pytest.fixture
def no_simulation(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("simulated despite an invalid --trf-horizon")

    monkeypatch.setattr(simulate, "generate_graph", fail)
    monkeypatch.setattr(simulate, "simulate_cascades", fail)


def test_validate_rejects_a_trf_horizon_below_1_before_simulating(truth_config, tmp_path,
                                                                   no_simulation):
    out = tmp_path / "val"
    out.mkdir()
    assert main(["validate", "--config", str(truth_config), "--trf-horizon", "0",
                 "--out", str(out)]) == 1
    assert "trf_horizon must be an integer >= 1, got 0" in (out / "error.txt").read_text()


def test_fit_rejects_a_trf_horizon_past_2_53(sim_dir, tmp_path):
    out = tmp_path / "fit"
    out.mkdir()
    assert main(["fit", "--events", str(sim_dir / "events.jsonl"),
                 "--graph", str(sim_dir / "graph.jsonl"), "--trf-horizon", str(2**64),
                 "--out", str(out)]) == 1
    assert f"last delay edge {2**64} is past 2**53" in (out / "error.txt").read_text()


def test_validate_rejects_a_trf_horizon_past_2_53_before_simulating(truth_config, tmp_path,
                                                                    no_simulation):
    out = tmp_path / "val"
    out.mkdir()
    assert main(["validate", "--config", str(truth_config), "--trf-horizon", str(2**64),
                 "--out", str(out)]) == 1
    assert f"trf_horizon {2**64} is past 2**53" in (out / "error.txt").read_text()


@pytest.mark.parametrize("command", ["enhance", "forecast"])
def test_a_model_with_a_delay_grid_past_2_53_is_rejected(command, sim_dir, fit_dir, tmp_path):
    with open(fit_dir / "model.json") as fh:
        doc = json.load(fh)
    for key in ("t1", "t10", "t100"):
        doc["trf"][key]["bin_edges"] = [2**k for k in range(66)]
        doc["trf"][key]["density"] = [1.0] + [0.0] * 64
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    out.mkdir()
    assert main([command, "--events", str(sim_dir / "events.jsonl"),
                 "--graph", str(sim_dir / "graph.jsonl"), "--model", str(bad),
                 "--out", str(out)]) == 1
    assert f"last delay edge {2**65} is past 2**53" in (out / "error.txt").read_text()


def test_forecast_rejects_an_obs_end_at_2_53(sim_dir, fit_dir, tmp_path, monkeypatch):
    def no_windows(*args, **kwargs):
        raise AssertionError("forecast windows tiled up to an obs_end of 2**53")

    monkeypatch.setattr(forecast, "_block_probabilities", no_windows)
    out = tmp_path / "fc"
    out.mkdir()
    assert main(["forecast", "--events", str(sim_dir / "events.jsonl"),
                 "--graph", str(sim_dir / "graph.jsonl"), "--site", "digg",
                 "--model", str(fit_dir / "model.json"), "--obs-end", str(2**53),
                 "--out", str(out)]) == 1
    assert f"obs_end {2**53} is not below 2**53" in (out / "error.txt").read_text()


def test_forecast_rejects_a_tiling_past_max_windows(sim_dir, fit_dir, tmp_path, monkeypatch):
    def no_windows(*args, **kwargs):
        raise AssertionError("forecast windows tiled up to an obs_end of 2**53 - 1")

    monkeypatch.setattr(forecast, "_block_probabilities", no_windows)
    out = tmp_path / "fc"
    out.mkdir()
    assert main(["forecast", "--events", str(sim_dir / "events.jsonl"),
                 "--graph", str(sim_dir / "graph.jsonl"), "--site", "digg",
                 "--model", str(fit_dir / "model.json"), "--obs-end", str(2**53 - 1),
                 "--out", str(out)]) == 1
    error = (out / "error.txt").read_text()
    assert f"more than {forecast.MAX_WINDOWS}" in error
    assert "--eval-horizon" in error and "--obs-end" in error


def test_fit_rejects_a_graph_self_edge_with_its_line(sim_dir, tmp_path):
    graph = tmp_path / "graph.jsonl"
    graph.write_text('{"follower": "a", "friend": "b"}\n{"follower": "c", "friend": "c"}\n')
    out = tmp_path / "out"
    out.mkdir()
    assert main(["fit", "--events", str(sim_dir / "events.jsonl"), "--graph", str(graph),
                 "--out", str(out)]) == 1
    assert "line 2: self-edge not allowed: 'c'" in (out / "error.txt").read_text()


def test_enhance_rejects_a_reversed_friend_count_band(sim_dir, fit_dir, tmp_path):
    for cohorts, expected in [("1-2,9-3", "friend-count band '9-3' is reversed"),
                              ("3-", "friend-count band '3-' is not N or N-M")]:
        out = tmp_path / cohorts
        out.mkdir()
        assert main(["enhance", "--events", str(sim_dir / "events.jsonl"),
                     "--graph", str(sim_dir / "graph.jsonl"),
                     "--model", str(fit_dir / "model.json"),
                     "--cohorts", cohorts, "--out", str(out)]) == 1
        assert expected in (out / "error.txt").read_text()
        assert not (out / "enhancement.json").exists()


def test_validate_rejects_a_reversed_friend_count_band_before_simulating(truth_config, tmp_path,
                                                                         monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated despite a reversed --enhancement-cohort")

    monkeypatch.setattr(simulate, "generate_graph", no_simulation)
    monkeypatch.setattr(simulate, "simulate_cascades", no_simulation)
    out = tmp_path / "val"
    out.mkdir()
    assert main(["validate", "--config", str(truth_config), "--enhancement-cohort", "9-3",
                 "--out", str(out)]) == 1
    assert "friend-count band '9-3' is reversed" in (out / "error.txt").read_text()
