"""Scale/floor fitting and enhancement-factor maximum likelihood.

Two estimators live here. The first recovers the task-specific scale p0 and
the visibility floor v_min by minimizing a trial-weighted mean absolute
percent error between affine-rescaled computed visibility and observed
response rates, over single-message events. The second recovers the social
enhancement factors F(n_e) by binomial maximum likelihood: events are binned
by their computed raw visibility nu, the n_e = 1 bins calibrate the baseline
response probability P(nu) (with F(1) = 1 by convention), and each F(n_e)
solves a one-dimensional stationarity condition by bracketed bisection.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# risk_segments is the scalar reference for block_segments (and the name
# perfbench's segment counter wraps), kept importable from here
from .atrisk import block_segments, risk_segments  # noqa: F401
from .binning import FLOOR_BIN, log_bin_center, log_bin_index
from .errors import BracketError, ContagionError, FitError
from .events import MAX_TIME
from .models import EnhancementTable
from .simplex import nelder_mead
from .visibility import SITES, TrfBundle

logger = logging.getLogger(__name__)

MIN_TRIALS = 30  # calibration points below this are flagged, not fitted
MIN_BASELINE_RESPONSES = 50  # exact cells pool until their n_e = 1 part has this many
BLOCK_SERIES = 256  # series segmented per numpy pass; bounds the pass's extra memory
# log10 ranges of the coarse (p0, v_min) grid that seeds the simplex descent
GRID_LOG10_P0 = (-4.0, 5.0)
GRID_LOG10_V = (-12.0, -0.5)


@dataclass(frozen=True)
class VisibilityBin:
    """Counts for one raw-visibility bin: nu label, trials, responses."""

    nu: float
    trials: int
    responses: int
    mean_nu: float = 0.0
    index: int = FLOOR_BIN  # log-bin index, or the pool of pooled exact cells

    def __post_init__(self):
        if not 0 <= self.responses <= self.trials:
            raise ContagionError("need 0 <= responses <= trials")


@dataclass(frozen=True)
class CalibrationPoint:
    predicted: float
    observed: float
    trials: int


@dataclass
class CalibrationCurve:
    points: list[CalibrationPoint]

    def __post_init__(self):
        for pt in self.points:
            if not (0.0 <= pt.predicted <= 1.0 and 0.0 <= pt.observed <= 1.0):
                raise ContagionError("calibration values must lie in [0, 1]")
            if pt.trials <= 0:
                raise ContagionError("calibration points need positive trials")


def wmap_error(curve: CalibrationCurve, p0: float, v_min: float) -> float:
    """Trial-weighted mean of |p0 * observed + v_min - predicted| / predicted."""
    if not curve.points:
        raise ContagionError("percent error needs at least one point with predicted > 0")
    num = 0.0
    den = 0.0
    for pt in curve.points:
        if pt.predicted <= 0.0:
            raise ContagionError("percent error undefined at predicted = 0")
        num += pt.trials * abs(p0 * pt.observed + v_min - pt.predicted) / pt.predicted
        den += pt.trials
    return num / den


def _transposed(curve: CalibrationCurve) -> CalibrationCurve:
    # The scale fit rescales computed visibility onto the observed response
    # rate, so the observed rate takes the target (denominator) slot.
    return CalibrationCurve(
        points=[
            CalibrationPoint(predicted=pt.observed, observed=pt.predicted, trials=pt.trials)
            for pt in curve.points
            if pt.observed > 0.0
        ]
    )


def fit_scale_and_floor(curve: CalibrationCurve) -> tuple[float, float]:
    """Fit (p0, v_min) so that p0 * predicted + v_min tracks observed.

    Points are (computed raw visibility, observed response rate, trials) from
    single-message events. Coarse log-grid search followed by simplex descent
    (``simplex.nelder_mead``) on the wmap objective; deterministic.
    Zero-observed points carry no percent-error information and are skipped.
    """
    if len({(pt.predicted, pt.observed) for pt in curve.points}) < 3:
        raise FitError("need at least 3 distinct calibration points")
    if all(pt.observed == 0.0 for pt in curve.points):
        raise FitError("degenerate curve: every observed rate is zero")
    target = _transposed(curve)

    best = None
    for lg_p0 in np.arange(GRID_LOG10_P0[0], GRID_LOG10_P0[1] + 1e-9, 0.25):
        for lg_v in np.arange(GRID_LOG10_V[0], GRID_LOG10_V[1] + 1e-9, 0.25):
            err = wmap_error(target, 10.0**lg_p0, 10.0**lg_v)
            if best is None or err < best[0]:
                best = (err, lg_p0, lg_v)

    def objective(x) -> float:
        return wmap_error(target, math.exp(x[0]), math.exp(x[1]))

    def descend(x):
        return nelder_mead(objective, x, maxiter=3000, xatol=1e-10, fatol=1e-14)

    x1, f1, _ = descend(np.array([best[1] * math.log(10.0), best[2] * math.log(10.0)]))
    x2, f2, _ = descend(x1)  # one restart from the first simplex's end point
    x = x2 if f2 <= f1 else x1
    return math.exp(x[0]), math.exp(x[1])


def collect_visibility_bins(
    series_list,
    susceptibility: Callable[[int], float],
    trf: TrfBundle,
    obs_end: int,
    exact: bool = False,
) -> dict[int, dict]:
    """Aggregate at-risk seconds into raw-visibility bins per exposure count.

    The site's rules are read from ``trf.site``. Returns {n_e: {bin_key:
    [trials, responses, sum_nu]}}. Each at-risk second is one Bernoulli
    trial; the response second is a success trial.
    Bins are log-spaced (``PER_DECADE`` per decade); seconds whose computed
    visibility is exactly zero pool into the floor bin. With ``exact`` every
    distinct computed visibility value keys its own cell instead (exact
    matching across exposure counts, at the cost of many small cells).

    ``series_list`` is a sequence; it is segmented ``BLOCK_SERIES`` series
    at a time by :func:`atrisk.block_segments`. The result equals a loop over
    :func:`atrisk.risk_segments` series by series, float bits included:
    segments keep their (series, segment) order, log bins come from
    :func:`log_bin_index` itself, cells are keyed in order of first
    occurrence, and ``np.add.at`` adds each ``nu * length`` to its cell's
    ``sum_nu`` one at a time in that order.
    """
    if obs_end >= MAX_TIME:
        raise ContagionError(f"obs_end {obs_end} is not below 2**53")
    edges = trf.bin_edges
    first_driven = SITES[trf.site].first_driven
    nf_row: dict[int, int] = {}
    p_dens_rows: list[list[float]] = []  # p * density per delay bin, then p * 0.0
    slot_of: dict[tuple, int] = {}  # (n_e, bin key) -> cell, in order of first occurrence
    counts = np.zeros((0, 2), dtype=np.int64)  # trials, responses per cell
    sum_nu = np.zeros(0)
    for lo in range(0, len(series_list), BLOCK_SERIES):
        block = series_list[lo : lo + BLOCK_SERIES]
        for s in block:
            if s.n_f not in nf_row:
                p_nf = susceptibility(s.n_f)
                nf_row[s.n_f] = len(p_dens_rows)
                p_dens_rows.append([p_nf * d for d in trf.densities_for(s.n_f)] + [p_nf * 0.0])
        rows = np.fromiter((nf_row[s.n_f] for s in block), np.int64, len(block))
        _, length, n_e, nu, holds = block_segments(
            block, np.array(p_dens_rows), rows, edges, first_driven, obs_end
        )
        values, value_code = np.unique(nu, return_inverse=True)
        labels = values.tolist()
        if not exact:  # log_bin_index itself: np.log10 may differ by one ulp
            labels = [log_bin_index(v) for v in labels]
        pairs, first, pair_code = np.unique(
            n_e * len(values) + value_code, return_index=True, return_inverse=True
        )
        pair_slot = np.empty(len(pairs), dtype=np.int64)
        for i in np.argsort(first).tolist():
            n_e_i, value_i = divmod(int(pairs[i]), len(values))
            pair_slot[i] = slot_of.setdefault((n_e_i, labels[value_i]), len(slot_of))
        if len(slot_of) > len(sum_nu):
            grow = max(len(slot_of), 2 * len(sum_nu)) - len(sum_nu)
            sum_nu = np.pad(sum_nu, (0, grow))
            counts = np.pad(counts, ((0, grow), (0, 0)))
        seg_slot = pair_slot[pair_code]
        # one column at a time, with int64 values: np.add.at's fast path
        np.add.at(counts[:, 0], seg_slot, length)
        np.add.at(counts[:, 1], seg_slot, holds.astype(np.int64))
        np.add.at(sum_nu, seg_slot, nu * length)
    out: dict[int, dict] = {}
    for (n_e, idx), (n, r), snu in zip(slot_of, counts.tolist(), sum_nu.tolist()):
        out.setdefault(n_e, {})[idx] = [n, r, snu]
    return out


def _regrouped(
    raw: dict[int, dict],
    key_of: Callable[[int, float], int | None],
    nu_of: Callable[[int, int, float], float],
) -> dict[int, list[VisibilityBin]]:
    """Merge each n_e's cells under ``key_of(n_e, cell key)`` into bins sorted by key.

    A key of None drops the cell. ``nu_of(key, trials, sum_nu)`` labels a
    merged cell; its ``mean_nu`` is ``sum_nu / trials``. Every cell has at
    least one trial, because segments are never empty. An n_e left with no
    bin is omitted.
    """
    out: dict[int, list[VisibilityBin]] = {}
    for n_e, cells in sorted(raw.items()):
        merged: dict = {}
        for cell_key, (n, r, snu) in cells.items():
            key = key_of(n_e, cell_key)
            if key is not None:
                acc = merged.setdefault(key, [0, 0, 0.0])
                acc[0] += n
                acc[1] += r
                acc[2] += snu
        if merged:
            out[n_e] = [
                VisibilityBin(nu=nu_of(key, n, snu), trials=n, responses=r,
                              mean_nu=snu / n, index=key)
                for key, (n, r, snu) in sorted(merged.items())
            ]
    return out


def visibility_bins(raw: dict[int, dict]) -> dict[int, list[VisibilityBin]]:
    """Visibility-binned trial/response counts keyed by exposure count.

    ``raw`` holds the log cells of one :func:`collect_visibility_bins` pass.
    Bins at n_e > 1 with no matching baseline (n_e = 1) bin, or whose
    baseline saw no responses, are dropped: they carry no likelihood
    information about the enhancement factor.
    """
    usable = {idx for idx, (_, r, _) in raw.get(1, {}).items() if r > 0}
    return _regrouped(
        raw,
        lambda n_e, idx: idx if n_e == 1 or idx in usable else None,
        lambda idx, n, snu: log_bin_center(idx),
    )


def pooled_visibility_bins(
    series_list,
    susceptibility: Callable[[int], float],
    trf: TrfBundle,
    obs_end: int,
) -> dict[int, list[VisibilityBin]]:
    """Exact visibility cells pooled until each has a well-measured baseline.

    Every distinct computed-visibility value is first kept as its own cell
    (exact matching across exposure counts); adjacent cells in nu order then
    merge until the pooled n_e = 1 cell holds at least
    ``MIN_BASELINE_RESPONSES`` responses. Pooling keys on the baseline only,
    never on higher-count outcomes, so it introduces no selection on the
    quantity being estimated. The zero-visibility floor pools separately.
    """
    raw = collect_visibility_bins(series_list, susceptibility, trf, obs_end, exact=True)
    base = raw.get(1, {})
    if not base:
        raise ContagionError("need n_e = 1 cells to calibrate the baseline")

    pools = {0.0: -1}  # the zero-visibility floor never merges with positive nu
    pool_id = 0
    acc = 0
    positive = sorted(nu for nu in base if nu > 0.0)
    for i, nu in enumerate(positive):
        pools[nu] = pool_id
        acc += base[nu][1]
        if acc >= MIN_BASELINE_RESPONSES and i != len(positive) - 1:
            pool_id += 1
            acc = 0
    # a cell with no baseline cell at its exact value is dropped
    return _regrouped(raw, lambda n_e, nu: pools.get(nu), lambda key, n, snu: snu / n)


def scale_fit_curve(raw: dict[int, dict], min_responses: int = 1) -> CalibrationCurve:
    """Single-message calibration curve for the scale/floor fit.

    ``raw`` holds the log cells of one :func:`collect_visibility_bins` pass.
    One point per visibility bin over n_e = 1 at-risk seconds: predicted is
    the mean computed raw visibility, observed the response rate. Bins with
    fewer than ``MIN_TRIALS`` trials or ``min_responses`` responses are
    excluded: with per-second trials the observable rate is bounded by the
    response count, so sparse-response bins carry mostly noise.
    """
    pts = []
    for idx, (n, r, snu) in sorted(raw.get(1, {}).items()):
        # The floor bin is structural (all beyond-support seconds pool into
        # it) and is the only anchor for the visibility floor, so it is
        # exempt from the response filter.
        needed = 1 if idx == FLOOR_BIN else max(min_responses, 1)
        if n < MIN_TRIALS or r < needed:
            continue
        pts.append(CalibrationPoint(predicted=snu / n, observed=r / n, trials=n))
    if not pts:
        raise FitError("no usable single-message bins")
    return CalibrationCurve(points=pts)


def _stationarity(f: float, cells: Sequence[tuple[int, int, float]]) -> float:
    total = 0.0
    for trials, responses, p in cells:
        total += responses / f - (trials - responses) * p / (1.0 - f * p)
    return total


def log_likelihood(f: float, cells: Sequence[tuple[int, int, float]]) -> float:
    """Binomial log-likelihood of one enhancement factor, up to constants."""
    total = 0.0
    for trials, responses, p in cells:
        fp = f * p
        if fp >= 1.0 or (fp == 0.0 and responses > 0):
            return -math.inf
        if responses > 0:
            total += responses * math.log(fp)
        if trials > responses:
            total += (trials - responses) * math.log(1.0 - fp)
    return total


def fit_enhancement(bins_by_ne: dict[int, list[VisibilityBin]]) -> EnhancementTable:
    """Maximum-likelihood enhancement factors from visibility-binned counts.

    F(1) = 1 by convention and P(nu) = responses/trials from the n_e = 1
    bins. Each F(n_e > 1) is the root of the likelihood stationarity
    condition, bisected inside (0, 1/max P(nu)) so that F * P stays a valid
    probability; the bracket is tightened until it cannot shrink further.
    """
    if 1 not in bins_by_ne:
        raise ContagionError("need n_e = 1 bins to calibrate the baseline")
    baseline: dict[int, float] = {}
    for b in bins_by_ne[1]:
        if b.trials > 0:
            baseline[b.index] = b.responses / b.trials

    values = {1: 1.0}
    for n_e, bins in sorted(bins_by_ne.items()):
        if n_e == 1:
            continue
        cells = []
        for b in bins:
            if b.index not in baseline:
                raise ContagionError(
                    f"visibility bin {b.nu:g} at n_e={n_e} has no n_e=1 baseline"
                )
            p = baseline[b.index]
            if p > 0.0:
                cells.append((b.trials, b.responses, p))
        if not cells or all(r == 0 for _, r, _ in cells):
            values[n_e] = 0.0  # likelihood peaks at the boundary
            continue
        p_max = max(p for _, _, p in cells)
        lo = 1e-12
        hi = (1.0 - 1e-12) / p_max
        g_lo = _stationarity(lo, cells)
        g_hi = _stationarity(hi, cells)
        if not (g_lo > 0.0 > g_hi):
            raise BracketError(
                f"no stationary point for F({n_e}) inside the bracket",
                lo,
                hi,
                g_lo,
                g_hi,
            )
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break  # interval at float resolution
            if _stationarity(mid, cells) > 0.0:
                lo = mid
            else:
                hi = mid
        values[n_e] = 0.5 * (lo + hi)
    return EnhancementTable(values=values)


def fit_enhancement_by_cohort(
    series_list,
    cohorts: Sequence[tuple[int, int]],
    susceptibility: Callable[[int], float],
    trf: TrfBundle,
    obs_end: int,
) -> dict[tuple[int, int], EnhancementTable]:
    """Independent enhancement MLE per friend-count band.

    Each band gets its own :func:`collect_visibility_bins` pass over its
    series, regrouped by :func:`visibility_bins`. Empty cohorts are skipped
    with a warning rather than failing the batch.
    """
    out = {}
    for lo, hi in cohorts:
        subset = [s for s in series_list if lo <= s.n_f <= hi]
        if not subset:
            logger.warning("cohort n_f in [%d, %d] has no series; skipped", lo, hi)
            continue
        bins = visibility_bins(collect_visibility_bins(subset, susceptibility, trf, obs_end))
        if 1 not in bins:
            logger.warning("cohort n_f in [%d, %d] has no baseline bins; skipped", lo, hi)
            continue
        out[(lo, hi)] = fit_enhancement(bins)
    return out
