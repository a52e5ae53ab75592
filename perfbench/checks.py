"""Correctness checks shared by the workloads.

Every check returns a list of failure messages; an empty list means the
output passed.  The checks read the program's outputs and recompute what
they can independently (window tiling, the exposure ledger), so a wrong
output fails the operation instead of skewing its timing.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import defaultdict
from pathlib import Path


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_finite(values: dict[str, float]) -> list[str]:
    return [f"{name} is not finite: {value!r}" for name, value in values.items()
            if not isinstance(value, (int, float)) or not math.isfinite(value)]


def expected_windows(series_list, window: int, eval_horizon: int | None, obs_end: int | None):
    """(windows, responded windows) of the forecast tiling, counted directly.

    Windows start at the first exposure and step by ``window``; tiling stops
    at the window holding the response, past ``eval_horizon`` seconds after
    the first exposure, or past ``obs_end``.
    """
    windows = responded = 0
    for s in series_list:
        t1 = s.exposure_times[0]
        limit = t1 + eval_horizon if eval_horizon is not None else None
        if obs_end is not None:
            limit = obs_end if limit is None else min(limit, obs_end)
        t = t1
        while limit is None or t <= limit:
            if s.response_time is not None and s.response_time < t:
                break
            windows += 1
            if s.response_time is not None and s.response_time < t + window:
                responded += 1
                break
            t += window
    return windows, responded


def check_predictions(predicted, outcomes) -> list[str]:
    errors = []
    bad = [p for p in predicted if not (0.0 <= p <= 1.0)]
    if bad:
        errors.append(f"{len(bad)} forecasts outside [0, 1], e.g. {bad[0]!r}")
    if any(o not in (0, 1, False, True) for o in outcomes):
        errors.append("forecast outcome other than 0/1")
    return errors


def read_forecasts_csv(path) -> tuple[list[float], list[int]]:
    predicted, outcomes = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            predicted.append(float(row["predicted"]))
            outcomes.append(int(row["outcome"]))
    return predicted, outcomes


def read_calibration_trials(path) -> int:
    with open(path, newline="", encoding="utf-8") as fh:
        return sum(int(row["trials"]) for row in csv.DictReader(fh))


def train_item(item: str) -> bool:
    """The documented item-hash split: SHA-1 first byte even -> train."""
    return hashlib.sha1(item.encode()).digest()[0] % 2 == 0


def check_ledger(events_path, ingest: dict, max_exposures: int, train_only: bool) -> list[str]:
    """The ingest counters must account for every exposure in the file.

    Recounted from the raw JSON lines: spam-capped exposures over the whole
    file, and, over the (train) split of the rest, exposures kept in series
    plus those dropped after the user's own post or as same-second
    duplicates.
    """
    rows = []
    with open(events_path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rows.append(json.loads(line))
    per_pair: dict[tuple[str, str], int] = defaultdict(int)
    for row in rows:
        if row["kind"] == "exposure":
            per_pair[(row["user"], row["item"])] += 1
    capped = {pair for pair, n in per_pair.items() if n >= max_exposures}
    capped_exposures = sum(per_pair[pair] for pair in capped)
    split_exposures = sum(
        n for (user, item), n in per_pair.items()
        if (user, item) not in capped and (not train_only or train_item(item))
    )
    accounted = (
        ingest["exposures_in_series"]
        + ingest["exposures_after_own_post"]
        + ingest["duplicate_exposures"]
    )
    errors = []
    if ingest["parsed_events"] != len(rows):
        errors.append(f"ledger: parsed_events {ingest['parsed_events']} != {len(rows)} lines")
    if ingest["capped_exposures"] != capped_exposures or ingest["capped_pairs"] != len(capped):
        errors.append(
            f"ledger: capped {ingest['capped_pairs']} pairs / {ingest['capped_exposures']} "
            f"exposures, recounted {len(capped)} / {capped_exposures}"
        )
    if accounted != split_exposures:
        errors.append(f"ledger: {accounted} exposures accounted, {split_exposures} in the split")
    return errors


def compare_golden(observed: dict, reference: dict, skip=()) -> list[str]:
    """Exact match for every reference value, except the ``rel_tol`` keys.

    ``reference`` is ``{"exact": {...}, "rel_tol": {name: [value, tol]}}``.
    Names in ``skip`` are ones the run could not observe; they are not
    compared.
    """
    errors = []
    for name, want in reference.get("exact", {}).items():
        if name in skip:
            continue
        got = observed.get(name)
        if got != want:
            errors.append(f"golden {name}: got {got!r}, reference {want!r}")
    for name, (want, tol) in reference.get("rel_tol", {}).items():
        if name in skip:
            continue
        got = observed.get(name)
        if not isinstance(got, (int, float)) or not math.isclose(got, want, rel_tol=tol, abs_tol=0.0):
            errors.append(f"golden {name}: got {got!r}, reference {want!r} (rel tol {tol:g})")
    return errors


def load_golden(path: Path, workload: str) -> dict | None:
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(workload)
