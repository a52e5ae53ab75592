"""Windowed response forecasting and predicted-vs-observed calibration."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .atrisk import ModelHazard
from .binning import FLOOR_BIN, log_bin_index
from .errors import ContagionError
from .events import MAX_TIME, ExposureSeries
from .inference import MIN_TRIALS, CalibrationCurve, CalibrationPoint, wmap_error
from .models import ModelParams

DEFAULT_WINDOW = 30
# Most windows one forecast_points call may tile: about 15x criterion 6's
# 1.14M. tracemalloc counts 190-250 B per ForecastPoint (CPython 3.11), so
# this many points take 3-4 GB.
MAX_WINDOWS = 2**24


@dataclass(frozen=True)
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
    return _window_probability(ModelHazard(params), series, t, window)


def _window_probability(hz: ModelHazard, series: ExposureSeries, t: int, window: int) -> float:
    log_survive = 0.0
    for a, b, lam in hz.runs(series.n_f, series.exposure_times, t, t + window):
        if lam >= 1.0:
            return 1.0
        if lam > 0.0:
            log_survive += (b - a) * math.log1p(-lam)
    return -math.expm1(log_survive)


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
    windows in all raise ContagionError before any is computed.
    """
    if window <= 0:
        raise ContagionError("forecast window must be positive")
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
        tilings.append((s, range(t1, limit + 1, stride)))
    n_windows = sum(len(starts) for _, starts in tilings)
    if n_windows > MAX_WINDOWS:
        raise ContagionError(
            f"forecasting would tile {n_windows} windows, more than {MAX_WINDOWS}; "
            "set eval_horizon (--eval-horizon) or an earlier obs_end (--obs-end)")
    hz = ModelHazard(params)
    out: list[ForecastPoint] = []
    for s, starts in tilings:
        r = s.response_time
        for t in starts:
            responded = r is not None and r < t + window
            out.append(
                ForecastPoint(
                    user=s.user,
                    item=s.item,
                    window_start=t,
                    window_len=window,
                    predicted=_window_probability(hz, s, t, window),
                    responded=responded,
                )
            )
            if responded:
                break
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
