"""Event-log data model and ingestion.

An event log is JSON lines, one object per line:

    {"kind": "exposure"|"response"|"post", "user": str, "item": str,
     "time": int, "exposer": str}          # exposer only on exposures

A follow-graph file is JSON lines of {"follower": str, "friend": str}; the
follower receives what the friend posts, and a user's friend count is the
number of users they follow (out-degree).
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass, field

from .errors import ContagionError, EventLogError

KINDS = ("post", "exposure", "response")


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
    """

    users: set[str] = field(default_factory=set)
    edges: set[tuple[str, str]] = field(default_factory=set)
    friend_count: dict[str, int] = field(default_factory=dict)

    def followers_of(self, user: str) -> list[str]:
        # Scans every edge on each call; simulation builds its own adjacency lists.
        out = [f for (f, friend) in self.edges if friend == user]
        out.sort()
        return out


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

    @property
    def at_risk_exposures(self) -> tuple[int, ...]:
        """Exposures at or before the response (all of them if no response)."""
        if self.response_time is None:
            return self.exposure_times
        return tuple(t for t in self.exposure_times if t <= self.response_time)


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


def _parse_line(line: str, lineno: int) -> Event:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise EventLogError(f"invalid JSON: {exc.msg}", line=lineno) from exc
    if not isinstance(obj, dict):
        raise EventLogError("event must be a JSON object", line=lineno)
    kind = obj.get("kind")
    if kind not in KINDS:
        raise EventLogError(f"unknown kind {kind!r}", line=lineno)
    try:
        user = str(obj["user"])
        item = str(obj["item"])
        raw_time = obj["time"]
    except KeyError as exc:
        raise EventLogError(f"missing field {exc.args[0]!r}", line=lineno) from exc
    if not isinstance(raw_time, (int, float)) or isinstance(raw_time, bool):
        raise EventLogError(f"time must be numeric, got {raw_time!r}", line=lineno)
    if isinstance(raw_time, float) and not math.isfinite(raw_time):
        raise EventLogError(f"non-finite time {raw_time!r}", line=lineno)
    time = int(raw_time)  # sub-second stamps truncate to whole seconds
    if time < 0:
        raise EventLogError(f"negative time {raw_time!r}", line=lineno)
    exposer = obj.get("exposer")
    if exposer is not None:
        exposer = str(exposer)
    return Event(kind=kind, user=user, item=item, time=time, exposer=exposer)


def load_event_log(
    path,
    max_exposures: int = 20,
    diagnostics: IngestDiagnostics | None = None,
) -> list[Event]:
    """Parse an event log, apply :func:`apply_spam_cap`, and sort by time."""
    events: list[Event] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            events.append(_parse_line(line, lineno))
    if diagnostics is not None:
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
    exposure_counts: dict[tuple[str, str], int] = defaultdict(int)
    for ev in events:
        if ev.kind == "exposure":
            exposure_counts[(ev.user, ev.item)] += 1
    capped = {key for key, n in exposure_counts.items() if n >= max_exposures}
    if not capped:
        return events
    kept = []
    for ev in events:
        if (ev.user, ev.item) in capped:
            if diagnostics is not None:
                diagnostics.capped_events += 1
                if ev.kind == "exposure":
                    diagnostics.capped_exposures += 1
        else:
            kept.append(ev)
    if diagnostics is not None:
        diagnostics.capped_pairs += len(capped)
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
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                edges.append((str(obj["follower"]), str(obj["friend"])))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise EventLogError(f"invalid graph line: {exc}", line=lineno) from exc
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
                if diagnostics is not None:
                    diagnostics.duplicate_responses += 1
            else:
                first_response[key] = ev.time

    series: list[ExposureSeries] = []
    for key in sorted(exposures):
        raw = exposures[key]
        times = sorted(set(raw))
        if diagnostics is not None:
            diagnostics.duplicate_exposures += len(raw) - len(times)
        cutoff = post_time.get(key)
        if cutoff is not None:
            kept = [t for t in times if t < cutoff]
            if diagnostics is not None:
                diagnostics.exposures_after_own_post += len(times) - len(kept)
            times = kept
        response = first_response.pop(key, None)
        if not times:
            if response is not None and diagnostics is not None:
                diagnostics.responses_without_exposure += 1
            continue
        if response is not None and response < times[0]:
            # Response predates every retained exposure: not an infection.
            if diagnostics is not None:
                diagnostics.responses_without_exposure += 1
            response = None
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
        if diagnostics is not None:
            diagnostics.exposures_in_series += len(times)

    if diagnostics is not None:
        # Responses whose (user, item) pair was never exposed at all.
        diagnostics.responses_without_exposure += len(first_response)
    return series
