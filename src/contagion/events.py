"""Event-log data model and ingestion.

An event log is JSON lines, one object per line:

    {"kind": "exposure"|"response"|"post", "user": str, "item": str,
     "time": int, "exposer": str}          # exposer only on exposures

A follow-graph file is JSON lines of {"follower": str, "friend": str}; the
follower receives what the friend posts, and a user's friend count is the
number of users they follow (out-degree).

An id is a JSON string, or an integer read as its decimal text; any other
JSON value is an EventLogError that names the line.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass, field

from .errors import ContagionError, EventLogError

KINDS = ("post", "exposure", "response")

# Any (user, item) pair with this many exposures or more is dropped as spam.
MAX_EXPOSURES = 20
# Event times and an observation end stay below this: integers are exact as
# doubles up to it, and the binning pass adds delay edges to times in int64.
MAX_TIME = 2**53


@dataclass(frozen=True, slots=True)
class Event:
    kind: str
    user: str
    item: str
    time: int
    exposer: str | None = None


@dataclass
class FollowerGraph:
    """Directed who-follows-whom structure.

    ``friend_count[u]`` is the out-degree of u: how many users u follows.
    ``follower_lists()`` derives the follower adjacency from ``edges`` on
    first use and keeps it, so ``edges`` must not change after that.
    """

    users: set[str] = field(default_factory=set)
    edges: set[tuple[str, str]] = field(default_factory=set)
    friend_count: dict[str, int] = field(default_factory=dict)
    _adjacency: dict[str, list[str]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def follower_lists(self) -> dict[str, list[str]]:
        """Each followed user's sorted followers (the shared adjacency; do not mutate)."""
        if self._adjacency is None:
            lists: dict[str, list[str]] = defaultdict(list)
            for follower, friend in self.edges:
                lists[friend].append(follower)
            for followers in lists.values():
                followers.sort()
            self._adjacency = dict(lists)
        return self._adjacency


@dataclass(frozen=True)
class ExposureSeries:
    """All exposures of one user to one item, plus the response if any.

    ``exposure_times`` keeps exposures that arrived after the response; they
    are outside the at-risk window but preserved for bookkeeping. Exposures
    at or after the user's own post of the item are dropped at build time.
    """

    user: str
    item: str
    n_f: int
    exposure_times: tuple[int, ...]
    response_time: int | None = None

    def __post_init__(self):
        if not self.exposure_times:
            raise ContagionError("series needs at least one exposure")
        if any(b <= a for a, b in zip(self.exposure_times, self.exposure_times[1:])):
            raise ContagionError("exposure times must be strictly ascending")
        if self.response_time is not None and self.response_time < self.exposure_times[0]:
            raise ContagionError("response precedes first exposure")
        if max(self.exposure_times[-1], self.response_time or 0) >= MAX_TIME:
            raise ContagionError("series times must lie below 2**53")


@dataclass
class IngestDiagnostics:
    """Counters that let the exposure ledger balance exactly."""

    parsed_events: int = 0
    capped_pairs: int = 0
    capped_events: int = 0
    capped_exposures: int = 0
    responses_without_exposure: int = 0
    duplicate_responses: int = 0
    duplicate_exposures: int = 0
    exposures_after_own_post: int = 0
    exposures_in_series: int = 0


def _json_lines(path):
    """Yield ``(line number, text)`` per non-blank line; bad UTF-8 is an EventLogError."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise EventLogError(f"invalid UTF-8: {exc.reason}", line=lineno) from exc
            if line.strip():
                yield lineno, line


def _id(value, name: str, lineno: int) -> str:
    """A decoded JSON id as text: a string as it is, an integer in decimal."""
    if type(value) is str:
        return value
    if type(value) is int:  # not bool, whose type is its own
        return str(value)
    raise EventLogError(f"{name} must be a string or an integer, got {value!r}", line=lineno)


def _parse_line(line: str, lineno: int) -> Event:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise EventLogError(f"invalid JSON: {exc.msg}", line=lineno) from exc
    except ValueError as exc:  # an integer past int's digit limit
        raise EventLogError(f"invalid JSON: {exc}", line=lineno) from exc
    except RecursionError as exc:
        raise EventLogError("JSON nested too deeply", line=lineno) from exc
    if not isinstance(obj, dict):
        raise EventLogError("event must be a JSON object", line=lineno)
    kind = obj.get("kind")
    if kind not in KINDS:
        raise EventLogError(f"unknown kind {kind!r}", line=lineno)
    try:
        user = _id(obj["user"], "user", lineno)
        item = _id(obj["item"], "item", lineno)
        raw_time = obj["time"]
    except KeyError as exc:
        raise EventLogError(f"missing field {exc.args[0]!r}", line=lineno) from exc
    if not isinstance(raw_time, (int, float)) or isinstance(raw_time, bool):
        raise EventLogError(f"time must be numeric, got {raw_time!r}", line=lineno)
    if isinstance(raw_time, float) and not math.isfinite(raw_time):
        raise EventLogError(f"non-finite time {raw_time!r}", line=lineno)
    if raw_time < 0:
        raise EventLogError(f"negative time {raw_time!r}", line=lineno)
    time = int(raw_time)  # sub-second stamps truncate to whole seconds
    if time >= MAX_TIME:
        raise EventLogError(f"time {raw_time!r} is not below 2**53", line=lineno)
    exposer = obj.get("exposer")
    if exposer is not None:
        exposer = _id(exposer, "exposer", lineno)
    try:  # a JSON escape can smuggle in a lone surrogate, which no file can hold
        (user + item + (exposer or "")).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise EventLogError(f"id holds a lone surrogate {exc.object[exc.start]!r}",
                            line=lineno) from exc
    return Event(kind=kind, user=user, item=item, time=time, exposer=exposer)


def load_event_log(
    path,
    max_exposures: int = MAX_EXPOSURES,
    diagnostics: IngestDiagnostics | None = None,
) -> list[Event]:
    """Parse an event log, apply :func:`apply_spam_cap`, and sort by time."""
    if diagnostics is None:
        diagnostics = IngestDiagnostics()
    events = [_parse_line(line, lineno) for lineno, line in _json_lines(path)]
    diagnostics.parsed_events += len(events)
    events = apply_spam_cap(events, max_exposures, diagnostics)
    events.sort(key=lambda ev: ev.time)
    return events


def apply_spam_cap(
    events: list[Event],
    max_exposures: int,
    diagnostics: IngestDiagnostics | None = None,
) -> list[Event]:
    """Drop every (user, item) pair with ``max_exposures`` or more exposures.

    The whole pair goes, responses and posts included; order is kept.
    """
    if diagnostics is None:
        diagnostics = IngestDiagnostics()
    exposure_counts: dict[tuple[str, str], int] = defaultdict(int)
    for ev in events:
        if ev.kind == "exposure":
            exposure_counts[(ev.user, ev.item)] += 1
    capped = {key for key, n in exposure_counts.items() if n >= max_exposures}
    if not capped:
        return events
    kept = [ev for ev in events if (ev.user, ev.item) not in capped]
    diagnostics.capped_pairs += len(capped)
    diagnostics.capped_events += len(events) - len(kept)
    diagnostics.capped_exposures += sum(exposure_counts[key] for key in capped)
    return kept


def write_event_log(path, events: list[Event]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            obj = {"kind": ev.kind, "user": ev.user, "item": ev.item, "time": ev.time}
            if ev.exposer is not None:
                obj["exposer"] = ev.exposer
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def load_follow_edges(path) -> list[tuple[str, str]]:
    edges = []
    for lineno, line in _json_lines(path):
        try:
            obj = json.loads(line)
            follower, friend = obj["follower"], obj["friend"]
        except (ValueError, KeyError, RecursionError, TypeError) as exc:  # ValueError: bad JSON
            raise EventLogError(f"invalid graph line: {exc}", line=lineno) from exc
        follower, friend = _id(follower, "follower", lineno), _id(friend, "friend", lineno)
        if follower == friend:
            raise EventLogError(f"self-edge not allowed: {follower!r}", line=lineno)
        edges.append((follower, friend))
    return edges


def write_follow_edges(path, graph: FollowerGraph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for follower, friend in sorted(graph.edges):
            fh.write(json.dumps({"follower": follower, "friend": friend}) + "\n")


def build_graph(events: list[Event], follow_edges: list[tuple[str, str]]) -> FollowerGraph:
    """Assemble the follower graph; duplicate edges collapse, self-edges reject."""
    users: set[str] = set()
    edges: set[tuple[str, str]] = set()
    for follower, friend in follow_edges:
        if follower == friend:
            raise ContagionError(f"self-edge not allowed: {follower!r}")
        edges.add((follower, friend))
        users.add(follower)
        users.add(friend)
    for ev in events:
        users.add(ev.user)
        if ev.exposer is not None:
            users.add(ev.exposer)
    friend_count = {u: 0 for u in users}
    for follower, _ in edges:
        friend_count[follower] += 1
    return FollowerGraph(users=users, edges=edges, friend_count=friend_count)


def build_series(
    events: list[Event],
    graph: FollowerGraph,
    diagnostics: IngestDiagnostics | None = None,
) -> list[ExposureSeries]:
    """Group time-sorted events into one series per exposed (user, item) pair.

    The response time is the user's earliest response at or after their first
    exposure; later responses are duplicates. A user's own post removes them
    from the at-risk population from that moment, so exposures at or after it
    are dropped. Responses with no prior exposure are dropped and counted.
    """
    if diagnostics is None:
        diagnostics = IngestDiagnostics()
    exposures: dict[tuple[str, str], list[int]] = defaultdict(list)
    first_response: dict[tuple[str, str], int] = {}
    post_time: dict[tuple[str, str], int] = {}

    for ev in events:
        key = (ev.user, ev.item)
        if ev.kind == "exposure":
            exposures[key].append(ev.time)
        elif ev.kind == "post":
            if key not in post_time or ev.time < post_time[key]:
                post_time[key] = ev.time
        elif ev.kind == "response":
            if key in first_response:
                diagnostics.duplicate_responses += 1
            else:
                first_response[key] = ev.time

    series: list[ExposureSeries] = []
    for key in sorted(exposures):
        raw = exposures[key]
        times = sorted(set(raw))
        diagnostics.duplicate_exposures += len(raw) - len(times)
        cutoff = post_time.get(key)
        if cutoff is not None:
            kept = [t for t in times if t < cutoff]
            diagnostics.exposures_after_own_post += len(times) - len(kept)
            times = kept
        response = first_response.pop(key, None)
        if response is not None and (not times or response < times[0]):
            # Response predates every retained exposure: not an infection.
            diagnostics.responses_without_exposure += 1
            response = None
        if not times:
            continue
        user, item = key
        series.append(
            ExposureSeries(
                user=user,
                item=item,
                n_f=graph.friend_count.get(user, 0),
                exposure_times=tuple(times),
                response_time=response,
            )
        )
        diagnostics.exposures_in_series += len(times)

    # Responses whose (user, item) pair was never exposed at all.
    diagnostics.responses_without_exposure += len(first_response)
    return series
