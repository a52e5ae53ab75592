import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from test_input_fuzz import json_lines, json_values

from contagion.errors import ContagionError, EventLogError
from contagion.events import (
    KINDS,
    MAX_EXPOSURES,
    MAX_TIME,
    Event,
    ExposureSeries,
    FollowerGraph,
    IngestDiagnostics,
    apply_spam_cap,
    build_graph,
    build_series,
    load_event_log,
    load_follow_edges,
    write_event_log,
    write_follow_edges,
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


def test_negative_fractional_time_errors_with_line_number(tmp_path):
    path = tmp_path / "events.jsonl"
    write_lines(path, [
        {"kind": "post", "user": "a", "item": "x", "time": 1},
        {"kind": "exposure", "user": "a", "item": "x", "time": -0.5, "exposer": "b"},
    ])
    with pytest.raises(EventLogError, match="line 2: negative time -0.5"):
        load_event_log(path)


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
def test_integer_past_the_digit_limit_errors_with_line_number(tmp_path, load):
    path = tmp_path / "input.jsonl"
    path.write_text(
        '{"kind": "post", "user": "a", "item": "x", "time": 1, "follower": "a", "friend": "b"}\n'
        f'{{"kind": "post", "user": {"1" * 5000}, "item": "x", "time": 2, '
        f'"follower": {"1" * 5000}, "friend": "b"}}\n',
        encoding="utf-8",
    )
    with pytest.raises(EventLogError) as err:
        load(path)
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
    assert graph.follower_lists().get("b", []) == ["a"]


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
    assert s.response_time == 9


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
    ExposureSeries(user="a", item="x", n_f=1, exposure_times=(5, 9), response_time=5)


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


@pytest.mark.parametrize("field, value", [
    ("user", None), ("item", [1]), ("exposer", True), ("user", False), ("item", 1.0),
    ("exposer", {"id": "b"}),
])
def test_non_scalar_event_id_is_rejected_with_its_line(tmp_path, field, value):
    row = {"kind": "exposure", "user": "a", "item": "x", "time": 1, "exposer": "b"}
    row[field] = value
    path = tmp_path / "events.jsonl"
    write_lines(path, [{"kind": "post", "user": "b", "item": "x", "time": 0}, row])
    with pytest.raises(EventLogError, match=f"line 2: {field} must be a string or an integer"):
        load_event_log(path)


@pytest.mark.parametrize("field, value", [("follower", None), ("friend", True), ("friend", [2])])
def test_non_scalar_graph_id_is_rejected_with_its_line(tmp_path, field, value):
    row = {"follower": "a", "friend": "b"}
    row[field] = value
    path = tmp_path / "graph.jsonl"
    write_lines(path, [{"follower": "b", "friend": "a"}, row])
    with pytest.raises(EventLogError, match=f"line 2: {field} must be a string or an integer"):
        load_follow_edges(path)


def test_integer_ids_load_as_their_decimal_text(tmp_path):
    path = tmp_path / "events.jsonl"
    write_lines(path, [{"kind": "exposure", "user": 7, "item": -3, "time": 1, "exposer": 12}])
    assert load_event_log(path) == [Event("exposure", "7", "-3", 1, exposer="12")]
    write_lines(path, [{"follower": 1, "friend": "2"}])
    assert load_follow_edges(path) == [("1", "2")]


# --- The loaders against the reference per-line parsers -------------------
#
# The loaders decode a line of the common shape once and build its record
# directly; every other line goes to the reference parser. These copies of
# the reference loaders (one json.loads per line, every check in order) fix
# what the loaders must accept, and which error they raise for which line.

def _ref_json_lines(path):
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise EventLogError(f"invalid UTF-8: {exc.reason}", line=lineno) from exc
            if line.strip():
                yield lineno, line


def _ref_id(value, name, lineno):
    if type(value) is str:
        return value
    if type(value) is int:
        return str(value)
    raise EventLogError(f"{name} must be a string or an integer, got {value!r}", line=lineno)


def _ref_parse_line(line, lineno):
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise EventLogError(f"invalid JSON: {exc.msg}", line=lineno) from exc
    except ValueError as exc:
        raise EventLogError(f"invalid JSON: {exc}", line=lineno) from exc
    except RecursionError as exc:
        raise EventLogError("JSON nested too deeply", line=lineno) from exc
    if not isinstance(obj, dict):
        raise EventLogError("event must be a JSON object", line=lineno)
    kind = obj.get("kind")
    if kind not in KINDS:
        raise EventLogError(f"unknown kind {kind!r}", line=lineno)
    try:
        user = _ref_id(obj["user"], "user", lineno)
        item = _ref_id(obj["item"], "item", lineno)
        raw_time = obj["time"]
    except KeyError as exc:
        raise EventLogError(f"missing field {exc.args[0]!r}", line=lineno) from exc
    if not isinstance(raw_time, (int, float)) or isinstance(raw_time, bool):
        raise EventLogError(f"time must be numeric, got {raw_time!r}", line=lineno)
    if isinstance(raw_time, float) and not math.isfinite(raw_time):
        raise EventLogError(f"non-finite time {raw_time!r}", line=lineno)
    if raw_time < 0:
        raise EventLogError(f"negative time {raw_time!r}", line=lineno)
    time = int(raw_time)
    if time >= MAX_TIME:
        raise EventLogError(f"time {raw_time!r} is not below 2**53", line=lineno)
    exposer = obj.get("exposer")
    if exposer is not None:
        exposer = _ref_id(exposer, "exposer", lineno)
    try:
        (user + item + (exposer or "")).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise EventLogError(f"id holds a lone surrogate {exc.object[exc.start]!r}",
                            line=lineno) from exc
    return Event(kind=kind, user=user, item=item, time=time, exposer=exposer)


def _ref_load_event_log(path, max_exposures, diagnostics):
    events = [_ref_parse_line(line, lineno) for lineno, line in _ref_json_lines(path)]
    diagnostics.parsed_events += len(events)
    events = apply_spam_cap(events, max_exposures, diagnostics)
    events.sort(key=lambda ev: ev.time)
    return events


def _ref_load_follow_edges(path):
    edges = []
    for lineno, line in _ref_json_lines(path):
        try:
            obj = json.loads(line)
            follower, friend = obj["follower"], obj["friend"]
        except (ValueError, KeyError, RecursionError, TypeError) as exc:
            raise EventLogError(f"invalid graph line: {exc}", line=lineno) from exc
        follower, friend = _ref_id(follower, "follower", lineno), _ref_id(friend, "friend", lineno)
        if follower == friend:
            raise EventLogError(f"self-edge not allowed: {follower!r}", line=lineno)
        edges.append((follower, friend))
    return edges


def _outcome(load, path):
    """What ``load(path)`` returns, or the type and text of what it raises."""
    try:
        return "ok", load(path)
    except Exception as exc:  # any outcome is compared, errors included
        return type(exc), str(exc)


SAMPLE_IDS = ["a", "b", "u01", "", 'q"\\', "é", "\U0001f600", "\ud800", "x\udfff", "\x0b"]
line_ids = st.sampled_from(SAMPLE_IDS) | st.text(max_size=4) | st.integers(-3, 3) | json_values
line_times = (st.integers(0, 50) | st.sampled_from([MAX_TIME - 1, MAX_TIME, 10**30, -1])
              | st.booleans() | st.floats() | json_values)
pads = st.text(alphabet=" \t\r\x0b\x0c\x1c\xa0", max_size=2)


@st.composite
def object_line(draw, fields):
    """One JSON object line: drawn fields in any order, maybe repeated, maybe padded."""
    keys = draw(st.lists(st.sampled_from(list(fields)), max_size=len(fields) + 2))
    if draw(st.booleans()):
        keys += [key for key in fields if key not in keys]  # every field present
    values = {}
    pairs = []
    for key in keys:
        value = draw(fields[key]) if key not in values or draw(st.booleans()) else values[key]
        values[key] = value
        pairs.append(f"{json.dumps(key)}: {json.dumps(value, ensure_ascii=draw(st.booleans()))}")
    text = draw(pads) + "{" + ", ".join(pairs) + "}" + draw(pads)
    return text.encode("utf-8", "surrogatepass")


def jsonl_files(shaped_lines, fuzz_lines):
    blank = st.sampled_from([b"", b" ", b"\x0b", b"\x0c", b"\r"])
    lines = st.lists(shaped_lines | fuzz_lines | blank, max_size=6)
    return st.tuples(lines, st.sampled_from([b"\n", b"\r\n"]), st.booleans()).map(
        lambda t: (b"\xef\xbb\xbf" if t[2] else b"") + t[1].join(t[0]) + t[1])


event_files = jsonl_files(
    object_line({"kind": st.sampled_from(KINDS) | json_values, "user": line_ids,
                 "item": line_ids, "time": line_times, "exposer": st.none() | line_ids}),
    json_lines(("kind", "user", "item", "time", "exposer")),
)
few_ids = st.sampled_from(SAMPLE_IDS[:3])  # self-edges are frequent
graph_files = jsonl_files(
    object_line({"follower": few_ids, "friend": few_ids})
    | object_line({"follower": line_ids, "friend": line_ids}),
    json_lines(("follower", "friend")),
)

EQUIVALENCE = settings(max_examples=500, deadline=None,
                       suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def codec_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("codec")


@EQUIVALENCE
@given(data=event_files, max_exposures=st.sampled_from([2, MAX_EXPOSURES]))
@example(data=b'{"kind": "post", "user": "a", "item": "x", "time": 1}\r\n', max_exposures=20)
@example(data=b'\xef\xbb\xbf{"kind": "post", "user": "a", "item": "x", "time": 1}\n',
         max_exposures=20)
@example(data=b'{"kind": "post", "user": "a", "item": "x", "time": 1}\x0c\n', max_exposures=20)
@example(data=b'{"kind": "post", "user": "a", "item": "x", "time": 1, "time": true}\n',
         max_exposures=20)
@example(data=b'{"kind": "post", "user": "a", "item": "\\ud800", "time": 1}\n', max_exposures=20)
@example(data=b'{"kind": "post", "user": "a", "item": "x", "time": 9007199254740992}\n',
         max_exposures=20)
@example(data=b'{"kind": "exposure", "user": "a", "item": "x", "time": 1, "exposer": 7}\n',
         max_exposures=20)
@example(data=b'{"kind": "exposure", "user": "a", "item": "x", "time": 1, "exposer": "\\udfff"}\n',
         max_exposures=20)
def test_event_log_loader_matches_the_reference(codec_dir, data, max_exposures):
    path = codec_dir / "events.jsonl"
    path.write_bytes(data)
    got, want = IngestDiagnostics(), IngestDiagnostics()
    assert (_outcome(lambda p: load_event_log(p, max_exposures, got), path)
            == _outcome(lambda p: _ref_load_event_log(p, max_exposures, want), path))
    assert got == want


@EQUIVALENCE
@given(data=graph_files)
@example(data=b'{"follower": "a", "friend": "a"}\n')
@example(data=b'{"follower": "a", "friend": "b", "friend": "a"}\r\n')
@example(data=b'{"follower": "\\ud800", "friend": "b"}\n')
def test_graph_loader_matches_the_reference(codec_dir, data):
    path = codec_dir / "graph.jsonl"
    path.write_bytes(data)
    assert _outcome(load_follow_edges, path) == _outcome(_ref_load_follow_edges, path)


# --- The writers against json.dumps ----------------------------------------

any_ids = st.text(alphabet=st.characters(codec=None, exclude_categories=())
                  | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", " ", "\ud800"]),
                  max_size=6)
times = st.integers(0, MAX_TIME - 1)


def _ref_event_text(events):
    lines = []
    for ev in events:
        obj = {"kind": ev.kind, "user": ev.user, "item": ev.item, "time": ev.time}
        if ev.exposer is not None:
            obj["exposer"] = ev.exposer
        lines.append(json.dumps(obj, sort_keys=True) + "\n")
    return "".join(lines).encode("ascii")


def _has_surrogate(*texts):
    return any("\ud800" <= ch <= "\udfff" for text in texts for ch in text)


@EQUIVALENCE
@given(events=st.lists(st.builds(Event, st.sampled_from(KINDS), any_ids, any_ids, times,
                                 st.none() | any_ids), max_size=6))
def test_event_writer_bytes_equal_json_dumps(codec_dir, events):
    path = codec_dir / "written.jsonl"
    write_event_log(path, events)
    assert path.read_bytes() == _ref_event_text(events)
    if not any(_has_surrogate(ev.user, ev.item, ev.exposer or "") for ev in events):
        loaded = load_event_log(path, max_exposures=len(events) + 1)
        assert loaded == sorted(events, key=lambda ev: ev.time)


@EQUIVALENCE
@given(edges=st.sets(st.tuples(any_ids, any_ids).filter(lambda e: e[0] != e[1]), max_size=6))
def test_graph_writer_bytes_equal_json_dumps(codec_dir, edges):
    path = codec_dir / "written.jsonl"
    write_follow_edges(path, FollowerGraph(edges=edges))
    want = "".join(json.dumps({"follower": a, "friend": b}) + "\n" for a, b in sorted(edges))
    assert path.read_bytes() == want.encode("ascii")
    if not any(_has_surrogate(a, b) for a, b in edges):
        assert load_follow_edges(path) == sorted(edges)
