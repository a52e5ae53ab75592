import json

import pytest

from contagion.errors import ContagionError, EventLogError
from contagion.events import (
    Event,
    ExposureSeries,
    IngestDiagnostics,
    build_graph,
    build_series,
    load_event_log,
    load_follow_edges,
    write_event_log,
)


def write_lines(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def test_load_parses_and_sorts_by_time(tmp_path):
    path = tmp_path / "events.jsonl"
    write_lines(path, [
        {"kind": "response", "user": "a", "item": "x", "time": 30},
        {"kind": "exposure", "user": "a", "item": "x", "time": 10, "exposer": "b"},
        {"kind": "post", "user": "b", "item": "x", "time": 0},
    ])
    events = load_event_log(path)
    assert len(events) == 3
    assert [ev.time for ev in events] == [0, 10, 30]
    assert events[1].exposer == "b"


def test_exposure_cap_drops_pair_entirely(tmp_path):
    path = tmp_path / "events.jsonl"
    rows = [{"kind": "exposure", "user": "a", "item": "x", "time": t, "exposer": "b"}
            for t in range(25)]
    rows.append({"kind": "response", "user": "a", "item": "x", "time": 30})
    rows.append({"kind": "exposure", "user": "c", "item": "x", "time": 5, "exposer": "b"})
    write_lines(path, rows)
    diag = IngestDiagnostics()
    events = load_event_log(path, max_exposures=20, diagnostics=diag)
    assert all(ev.user != "a" for ev in events)
    assert len(events) == 1
    assert diag.capped_pairs == 1
    assert diag.capped_exposures == 25
    assert diag.capped_events == 26


def test_negative_time_errors_with_line_number(tmp_path):
    path = tmp_path / "events.jsonl"
    write_lines(path, [
        {"kind": "post", "user": "a", "item": "x", "time": 1},
        {"kind": "exposure", "user": "a", "item": "x", "time": -5, "exposer": "b"},
    ])
    with pytest.raises(EventLogError) as err:
        load_event_log(path)
    assert err.value.line == 2
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("raw_time", ["NaN", "1e400"])
def test_non_finite_time_errors_with_line_number(tmp_path, raw_time):
    path = tmp_path / "events.jsonl"
    path.write_text(
        '{"kind": "post", "user": "a", "item": "x", "time": 1}\n'
        f'{{"kind": "exposure", "user": "a", "item": "x", "time": {raw_time}, "exposer": "b"}}\n',
        encoding="utf-8",
    )
    with pytest.raises(EventLogError) as err:
        load_event_log(path)
    assert err.value.line == 2


@pytest.mark.parametrize("raw_time", ["9007199254740992", "1e19"])
def test_time_past_2_pow_53_errors_with_line_number(tmp_path, raw_time):
    path = tmp_path / "events.jsonl"
    path.write_text(
        '{"kind": "post", "user": "a", "item": "x", "time": 9007199254740991}\n'
        f'{{"kind": "exposure", "user": "a", "item": "x", "time": {raw_time}, "exposer": "b"}}\n',
        encoding="utf-8",
    )
    with pytest.raises(EventLogError) as err:
        load_event_log(path)
    assert err.value.line == 2
    assert "is not below 2**53" in str(err.value)


def test_unknown_kind_rejected(tmp_path):
    path = tmp_path / "events.jsonl"
    write_lines(path, [{"kind": "retweet", "user": "a", "item": "x", "time": 1}])
    with pytest.raises(EventLogError):
        load_event_log(path)


def test_malformed_json_names_line(tmp_path):
    path = tmp_path / "events.jsonl"
    with open(path, "w") as fh:
        fh.write('{"kind": "post", "user": "a", "item": "x", "time": 1}\n')
        fh.write("{nope\n")
    with pytest.raises(EventLogError) as err:
        load_event_log(path)
    assert err.value.line == 2


@pytest.mark.parametrize("load", [load_event_log, load_follow_edges])
def test_undecodable_line_errors_with_line_number(tmp_path, load):
    path = tmp_path / "input.jsonl"
    path.write_bytes(
        b'{"kind": "post", "user": "a", "item": "x", "time": 1, "follower": "a", "friend": "b"}\n'
        b'{"kind": "post", "user": "\xff", "item": "x", "time": 2}\n'
    )
    with pytest.raises(EventLogError) as err:
        load(path)
    assert err.value.line == 2
    assert "UTF-8" in str(err.value)


def test_subsecond_timestamps_truncate(tmp_path):
    path = tmp_path / "events.jsonl"
    write_lines(path, [{"kind": "post", "user": "a", "item": "x", "time": 12.9}])
    events = load_event_log(path)
    assert events[0].time == 12


def test_round_trip_is_identity(tmp_path):
    events = [
        Event("post", "b", "x", 0),
        Event("exposure", "a", "x", 10, exposer="b"),
        Event("exposure", "a", "x", 20, exposer="b"),
        Event("response", "a", "x", 25),
    ]
    path = tmp_path / "events.jsonl"
    write_event_log(path, events)
    assert load_event_log(path) == events


def test_build_graph_counts_out_degree():
    graph = build_graph([], [("a", "b"), ("a", "c")])
    assert graph.friend_count["a"] == 2
    assert graph.friend_count["b"] == 0
    assert graph.followers_of("b") == ["a"]


def test_build_graph_collapses_duplicate_edges():
    graph = build_graph([], [("a", "b"), ("a", "b")])
    assert graph.friend_count["a"] == 1


def test_build_graph_rejects_self_edge():
    with pytest.raises(ContagionError):
        build_graph([], [("a", "a")])


def test_build_series_assembles_response():
    graph = build_graph([], [("a", "b"), ("a", "c")])
    events = [
        Event("exposure", "a", "x", 10, exposer="b"),
        Event("exposure", "a", "x", 20, exposer="c"),
        Event("response", "a", "x", 25),
    ]
    series = build_series(events, graph)
    assert len(series) == 1
    s = series[0]
    assert s.exposure_times == (10, 20)
    assert s.response_time == 25
    assert s.n_f == 2


def test_response_without_exposure_is_dropped_and_counted():
    graph = build_graph([], [("a", "b")])
    events = [
        Event("response", "a", "x", 5),
        Event("exposure", "a", "x", 10, exposer="b"),
    ]
    diag = IngestDiagnostics()
    series = build_series(events, graph, diagnostics=diag)
    assert len(series) == 1
    assert series[0].response_time is None
    assert diag.responses_without_exposure == 1


def test_two_items_become_two_series():
    graph = build_graph([], [("a", "b")])
    events = [
        Event("exposure", "a", "x", 10, exposer="b"),
        Event("exposure", "a", "y", 12, exposer="b"),
    ]
    series = build_series(events, graph)
    assert {(s.user, s.item) for s in series} == {("a", "x"), ("a", "y")}


def test_own_post_removes_later_exposures():
    graph = build_graph([], [("a", "b")])
    events = [
        Event("exposure", "a", "x", 5, exposer="b"),
        Event("post", "a", "x", 8),
        Event("exposure", "a", "x", 10, exposer="b"),
    ]
    diag = IngestDiagnostics()
    series = build_series(events, graph, diagnostics=diag)
    assert series[0].exposure_times == (5,)
    assert diag.exposures_after_own_post == 1


def test_duplicate_responses_keep_earliest():
    graph = build_graph([], [("a", "b")])
    events = [
        Event("exposure", "a", "x", 5, exposer="b"),
        Event("response", "a", "x", 9),
        Event("response", "a", "x", 30),
    ]
    diag = IngestDiagnostics()
    series = build_series(events, graph, diagnostics=diag)
    assert series[0].response_time == 9
    assert diag.duplicate_responses == 1


def test_exposures_after_response_are_kept_but_off_risk():
    graph = build_graph([], [("a", "b")])
    events = [
        Event("exposure", "a", "x", 5, exposer="b"),
        Event("response", "a", "x", 9),
        Event("exposure", "a", "x", 15, exposer="b"),
    ]
    series = build_series(events, graph)
    s = series[0]
    assert s.exposure_times == (5, 15)
    assert s.at_risk_exposures == (5,)


def test_exposure_ledger_balances(tmp_path):
    rows = []
    # pair (a, x): capped (21 exposures)
    rows += [{"kind": "exposure", "user": "a", "item": "x", "time": t, "exposer": "b"}
             for t in range(21)]
    # pair (c, x): 2 exposures, one after own post
    rows.append({"kind": "exposure", "user": "c", "item": "x", "time": 1, "exposer": "b"})
    rows.append({"kind": "post", "user": "c", "item": "x", "time": 2})
    rows.append({"kind": "exposure", "user": "c", "item": "x", "time": 3, "exposer": "b"})
    # pair (d, x): clean pair with duplicate same-second exposure
    rows.append({"kind": "exposure", "user": "d", "item": "x", "time": 4, "exposer": "b"})
    rows.append({"kind": "exposure", "user": "d", "item": "x", "time": 4, "exposer": "b"})
    path = tmp_path / "events.jsonl"
    write_lines(path, rows)
    diag = IngestDiagnostics()
    events = load_event_log(path, max_exposures=20, diagnostics=diag)
    graph = build_graph(events, [("a", "b"), ("c", "b"), ("d", "b")])
    series = build_series(events, graph, diagnostics=diag)
    total_exposures_in_file = 25  # 21 capped + 2 for (c, x) + 2 for (d, x)
    accounted = (
        diag.exposures_in_series
        + diag.capped_exposures
        + diag.exposures_after_own_post
        + diag.duplicate_exposures
    )
    assert accounted == total_exposures_in_file
    assert diag.exposures_in_series == sum(len(s.exposure_times) for s in series)


def test_series_invariants_enforced():
    with pytest.raises(ContagionError):
        ExposureSeries(user="a", item="x", n_f=1, exposure_times=(), response_time=None)
    with pytest.raises(ContagionError):
        ExposureSeries(user="a", item="x", n_f=1, exposure_times=(5, 5))
    with pytest.raises(ContagionError):
        ExposureSeries(user="a", item="x", n_f=1, exposure_times=(5,), response_time=4)
    s = ExposureSeries(user="a", item="x", n_f=1, exposure_times=(5, 9), response_time=5)
    assert len(s.at_risk_exposures) >= 1


def test_series_times_must_lie_below_2_pow_53():
    for times, response in (((5, 2**53), None), ((5,), 2**53)):
        with pytest.raises(ContagionError, match="below 2\\*\\*53"):
            ExposureSeries(user="a", item="x", n_f=1, exposure_times=times, response_time=response)
    ExposureSeries(user="a", item="x", n_f=1, exposure_times=(5, 2**53 - 1), response_time=2**53 - 1)


@pytest.mark.parametrize("field", ["user", "item", "exposer"])
def test_lone_surrogate_id_is_rejected_with_its_line(tmp_path, field):
    row = {"kind": "exposure", "user": "a", "item": "x", "time": 1, "exposer": "b"}
    row[field] = "u\ud800"
    path = tmp_path / "events.jsonl"
    write_lines(path, [{"kind": "post", "user": "b", "item": "x", "time": 0}, row])
    with pytest.raises(EventLogError) as err:
        load_event_log(path)
    assert err.value.line == 2
