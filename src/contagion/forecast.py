"""Windowed response forecasting and predicted-vs-observed calibration.

:func:`forecast_points` computes its windows' probabilities a block at a
time on :func:`atrisk.block_segments`, each series segmented up to its last
window's end. A window covers a contiguous range of those segments; its
first and last runs are clipped to the window, never cut there, so a run
that several overlapping windows share keeps the one ``length * log1p(-lam)``
term that :func:`forecast_window`, the scalar reference, computes. Every
prediction equals that reference's, float bits included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .atrisk import ModelHazard, block_segments
from .binning import FLOOR_BIN, log_bin_index
from .errors import ContagionError
from .events import MAX_TIME, ExposureSeries, gc_paused
from .inference import MIN_TRIALS, CalibrationCurve, CalibrationPoint, wmap_error
from .models import ModelParams

DEFAULT_WINDOW = 30
# Most windows one forecast_points call may tile: about 15x criterion 6's
# 1.14M. tracemalloc counts 116-144 B per ForecastPoint and its list slot
# (CPython 3.11, slotted: 116 on criterion 6, 144 with a new int per start),
# so this many points take 1.9-2.4 GB.
MAX_WINDOWS = 2**24
BLOCK_WINDOWS = 4096  # windows per numpy pass; bounds the pass's extra memory


@dataclass(frozen=True, slots=True)
class ForecastPoint:
    user: str
    item: str
    window_start: int
    window_len: int
    predicted: float
    responded: bool

    def __post_init__(self):
        if not 0.0 <= self.predicted <= 1.0:
            raise ContagionError("predicted probability outside [0, 1]")
        if self.window_len <= 0:
            raise ContagionError("window length must be positive")


def forecast_window(
    params: ModelParams,
    series: ExposureSeries,
    t: int,
    window: int = DEFAULT_WINDOW,
) -> float:
    """Probability of a response inside [t, t + window).

    Composes the per-second model probability as 1 - prod(1 - p(s)); the
    hazard is constant between exposure arrivals and delay-bin edges, so the
    product collapses to a few segment powers. Exposures arriving inside the
    window take effect from their arrival second. The series must still be
    at risk at t.
    """
    if window <= 0:
        raise ContagionError("forecast window must be positive")
    if series.response_time is not None and series.response_time < t:
        raise ContagionError("series already responded before the window")
    log_survive = 0.0
    for a, b, lam in ModelHazard(params).runs(series.n_f, series.exposure_times, t, t + window):
        if lam >= 1.0:
            return 1.0
        if lam > 0.0:
            log_survive += (b - a) * math.log1p(-lam)
    return -math.expm1(log_survive)


def _math_of_unique(fn, values: np.ndarray) -> np.ndarray:
    """``fn`` from ``math`` on each value: numpy's own kernels may differ by an ulp."""
    unique, inverse = np.unique(values, return_inverse=True)
    return np.array([fn(v) for v in unique.tolist()], dtype=np.float64)[inverse]


def _segment_at(start: np.ndarray, lo: np.ndarray, hi: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per query, the last index in [lo, hi) whose segment starts at or before t.

    One bisection for all queries at once; ``start[lo] <= t`` must hold.
    """
    for _ in range(int((hi - lo).max(initial=1)).bit_length()):
        mid = (lo + hi) // 2
        right = start[mid] <= t
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)
    return lo


def _block_probabilities(
    hz: ModelHazard, pieces: list[tuple[ExposureSeries, range]], window: int
) -> np.ndarray:
    """:func:`forecast_window` of every (series, window start) in ``pieces``, in order."""
    series = [s for s, _ in pieces]
    nf_row: dict[int, int] = {}
    rows = np.fromiter((nf_row.setdefault(s.n_f, len(nf_row)) for s in series), np.int64,
                       len(series))
    t_to = np.fromiter((starts[-1] + window for _, starts in pieces), np.int64, len(pieces))
    sid, start, length, n_e, nu = block_segments(
        series, np.array([hz.p_dens(n_f) for n_f in nf_row]), rows, hz.edges, hz.first_driven,
        t_to,
    )
    seg_end = start + length
    # each piece's segments tile [first exposure, t_to), in order
    per_piece = np.bincount(sid, minlength=len(pieces))
    piece_lo = np.cumsum(per_piece) - per_piece
    n_w = np.fromiter((len(starts) for _, starts in pieces), np.int64, len(pieces))
    t = np.fromiter(chain.from_iterable(starts for _, starts in pieces), np.int64,
                    int(n_w.sum()))
    lo, hi = np.repeat(piece_lo, n_w), np.repeat(piece_lo + per_piece, n_w)
    first = _segment_at(start, lo, hi, t)
    last = _segment_at(start, first, hi, t + (window - 1))

    # F(n_e) only for counts some window reaches: a gap in the table raises there
    touched = np.cumsum(np.bincount(first, minlength=len(start) + 1)
                        - np.bincount(last + 1, minlength=len(start) + 1))[:-1] > 0
    f = np.zeros(int(n_e.max(initial=0)) + 1)
    for k in np.flatnonzero(np.bincount(n_e[touched])).tolist():
        f[k] = hz.factor(k)
    lam = hz.hazards(f[n_e], nu)
    full = lam >= 1.0
    open_ = touched & (lam > 0.0) & ~full
    log_step = np.zeros(len(lam))  # log1p(-lam), 0.0 where the reference skips the run
    log_step[open_] = _math_of_unique(math.log1p, -lam[open_])

    # each window's terms summed from 0.0 in run order, one run index at a time;
    # np.add.reduce may sum longer rows pairwise
    n_runs = last - first + 1
    log_survive = np.zeros(len(t))
    saturated = np.zeros(len(t), dtype=bool)
    live = np.arange(len(t))
    for j in range(int(n_runs.max(initial=0))):
        live = live[n_runs[live] > j]
        seg = first[live] + j
        t_live = t[live]
        run = np.minimum(seg_end[seg], t_live + window) - np.maximum(start[seg], t_live)
        log_survive[live] += run * log_step[seg]
        saturated[live] |= full[seg]
    predicted = -_math_of_unique(math.expm1, log_survive)
    predicted[saturated] = 1.0
    return predicted


def _blocks(tilings: list[tuple[ExposureSeries, range]]):
    """Cut (series, window starts) into pieces, at most BLOCK_WINDOWS windows per block."""
    block, room = [], BLOCK_WINDOWS
    for s, starts in tilings:
        while len(starts) >= room:
            block.append((s, starts[:room]))
            yield block
            block, room, starts = [], BLOCK_WINDOWS, starts[room:]
        if starts:
            block.append((s, starts))
            room -= len(starts)
    if block:
        yield block


@gc_paused
def forecast_points(
    params: ModelParams,
    series_list,
    *,
    obs_end: int,
    window: int = DEFAULT_WINDOW,
    stride: int | None = None,
    eval_horizon: int | None = None,
) -> list[ForecastPoint]:
    """Tile each at-risk series with forecast windows and record outcomes.

    Windows are disjoint by default (stride = window). Window starts run
    from the first exposure up to the response, ``eval_horizon`` seconds
    past the first exposure, or ``obs_end``, whichever comes first; the
    window containing the response is the last. More than ``MAX_WINDOWS``
    windows in all raise ContagionError before any is computed. Each
    prediction equals :func:`forecast_window`'s.
    """
    if window <= 0:
        raise ContagionError("forecast window must be positive")
    if window >= MAX_TIME:
        raise ContagionError(f"forecast window {window} is not below 2**53")
    if stride is None:
        stride = window
    if stride <= 0:
        raise ContagionError("stride must be positive")
    if obs_end >= MAX_TIME:
        raise ContagionError(f"obs_end {obs_end} is not below 2**53")
    tilings = []
    for s in series_list:
        t1, r = s.exposure_times[0], s.response_time
        limit = obs_end if eval_horizon is None else min(obs_end, t1 + eval_horizon)
        if r is not None:
            limit = min(limit, r)
        starts = range(t1, limit + 1, stride)
        if r is not None:  # the first window that holds the response is the last
            starts = starts[: max(0, (r - window - t1) // stride + 1) + 1]
        tilings.append((s, starts))
    n_windows = sum(len(starts) for _, starts in tilings)
    if n_windows > MAX_WINDOWS:
        raise ContagionError(
            f"forecasting would tile {n_windows} windows, more than {MAX_WINDOWS}; "
            "set eval_horizon (--eval-horizon) or an earlier obs_end (--obs-end)")
    hz = ModelHazard(params)
    out: list[ForecastPoint] = []
    for pieces in _blocks(tilings):
        predicted = iter(_block_probabilities(hz, pieces, window).tolist())
        for s, starts in pieces:
            user, item, r = s.user, s.item, s.response_time
            # zip stops at the end of starts before it takes from predicted
            out += [ForecastPoint(user, item, t, window, p, r is not None and r < t + window)
                    for t, p in zip(starts, predicted)]
    return out


def calibration(points: list[ForecastPoint]) -> tuple[CalibrationCurve, float]:
    """Reliability curve and its summary error, as ``(curve, wmap)``.

    The curve holds the observed response frequency per predicted-probability
    bin; bins are log-spaced, ``PER_DECADE`` per decade. The summary error
    (trial-weighted mean absolute percent deviation of observed from
    predicted) uses only bins with at least ``MIN_TRIALS`` trials; if none
    qualify it falls back to all bins.
    Zero-prediction forecasts pool into a floor bin that never enters the
    summary error (a percent error at predicted 0 is undefined).
    """
    if not points:
        raise ContagionError("no forecast points to calibrate")
    cells: dict[int, list] = {}
    for pt in points:
        idx = log_bin_index(pt.predicted)
        cell = cells.setdefault(idx, [0, 0, 0.0])
        cell[0] += 1
        cell[1] += 1 if pt.responded else 0
        cell[2] += pt.predicted

    curve_pts = []
    qualified = []
    for idx, (n, r, sp) in sorted(cells.items()):
        mean_pred = sp / n
        cp = CalibrationPoint(predicted=mean_pred, observed=r / n, trials=n)
        curve_pts.append(cp)
        if idx != FLOOR_BIN and n >= MIN_TRIALS:
            qualified.append(cp)
    curve = CalibrationCurve(points=curve_pts)
    basis = qualified if qualified else [cp for cp in curve_pts if cp.predicted > 0]
    wmap = wmap_error(CalibrationCurve(points=basis), 1.0, 0.0)
    return curve, wmap
