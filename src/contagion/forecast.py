"""Windowed response forecasting and predicted-vs-observed calibration."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .atrisk import ModelHazard
from .binning import FLOOR_BIN, log_bin_index
from .errors import ContagionError
from .events import ExposureSeries
from .inference import MIN_TRIALS, CalibrationCurve, CalibrationPoint, wmap_error
from .models import ModelParams

DEFAULT_WINDOW = 30


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
    return _window_probability(ModelHazard(params), series, t, window)


def _window_probability(hz: ModelHazard, series: ExposureSeries, t: int, window: int) -> float:
    if window <= 0:
        raise ContagionError("forecast window must be positive")
    if series.response_time is not None and series.response_time < t:
        raise ContagionError("series already responded before the window")
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
    window: int = DEFAULT_WINDOW,
    stride: int | None = None,
    eval_horizon: int | None = None,
    obs_end: int | None = None,
) -> list[ForecastPoint]:
    """Tile each at-risk series with forecast windows and record outcomes.

    Windows are disjoint by default (stride = window). Evaluation stops at
    the window containing the response, at ``eval_horizon`` seconds past the
    first exposure, or at ``obs_end``, whichever comes first.
    """
    if stride is None:
        stride = window
    if stride <= 0:
        raise ContagionError("stride must be positive")
    hz = ModelHazard(params)
    out: list[ForecastPoint] = []
    for s in series_list:
        t1 = s.exposure_times[0]
        limit = t1 + eval_horizon if eval_horizon is not None else None
        if obs_end is not None:
            limit = obs_end if limit is None else min(limit, obs_end)
        t = t1
        while True:
            if limit is not None and t > limit:
                break
            if s.response_time is not None and s.response_time < t:
                break
            predicted = _window_probability(hz, s, t, window)
            responded = s.response_time is not None and t <= s.response_time < t + window
            out.append(
                ForecastPoint(
                    user=s.user,
                    item=s.item,
                    window_start=t,
                    window_len=window,
                    predicted=predicted,
                    responded=responded,
                )
            )
            if responded:
                break
            t += stride
    return out


def calibration(
    points: list[ForecastPoint],
    min_trials: int = MIN_TRIALS,
    with_wmap: bool = False,
):
    """Reliability curve: observed response frequency per predicted-probability bin.

    Bins are log-spaced, ``PER_DECADE`` per decade. The summary error
    (trial-weighted mean absolute percent deviation of observed from
    predicted) uses only bins with at least ``min_trials`` trials; if none
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
        if idx != FLOOR_BIN and n >= min_trials:
            qualified.append(cp)
    curve = CalibrationCurve(points=curve_pts)
    if not with_wmap:
        return curve
    basis = qualified if qualified else [cp for cp in curve_pts if cp.predicted > 0]
    wmap = wmap_error(CalibrationCurve(points=basis), 1.0, 0.0)
    return curve, wmap
