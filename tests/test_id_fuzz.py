"""Fuzzing of event-log ids, lone surrogates included.

A JSON ``\\ud800`` escape decodes to a lone surrogate: a str that no UTF-8
file can hold, so the split's item hash and every writer would fail on it.
The loader must reject exactly the lines whose ids hold one, naming the line,
and everything it accepts must survive the split and a round trip to disk.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from contagion.errors import EventLogError
from contagion.events import load_event_log, write_event_log
from contagion.simulate import train_test_split

FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

ids = st.text(alphabet=st.sampled_from(["a", "b", "é", "\U0001f600", "\ud800", "\udfff"]),
              min_size=1, max_size=4)
rows = st.fixed_dictionaries({
    "kind": st.just("exposure"), "user": ids, "item": ids,
    "time": st.integers(0, 100), "exposer": ids,
})


def _has_surrogate(text):
    return any("\ud800" <= ch <= "\udfff" for ch in text)


@FUZZ
@given(log=st.lists(rows, min_size=1, max_size=6))
def test_surrogate_ids_end_in_event_log_error(log, tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in log), encoding="ascii")
    # the decoder joins an escaped high-low pair into one valid character
    decoded = [json.loads(json.dumps(row)) for row in log]
    bad = [n for n, row in enumerate(decoded, start=1)
           if any(_has_surrogate(row[key]) for key in ("user", "item", "exposer"))]
    try:
        events = load_event_log(path)
    except EventLogError as exc:
        assert bad and exc.line == bad[0]
        return
    assert not bad
    train, test = train_test_split(events)
    write_event_log(tmp_path / "copy.jsonl", train + test)
    assert sorted(load_event_log(tmp_path / "copy.jsonl"), key=repr) == sorted(events, key=repr)
