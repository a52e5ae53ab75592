"""The one hazard-segment kernel: binning, simulation and forecasting use it.

Between exposure arrivals and delay-bin edges, a user's raw visibility (and
exposure count) is constant, so per-second quantities aggregate exactly from
a handful of segments instead of a second-by-second scan.

A message arriving at second s counts toward n_e from s onward but has zero
delay density until s + 1. A first-driven site's visibility follows the first
exposure only, nu = p * T(dt_1); otherwise all exposures combine as
nu = 1 - prod(1 - p * T(dt_i)). Which rule a site follows, its hazard form
and its multiplier p are in :data:`visibility.SITES`. :class:`ModelHazard`
resolves a model's site once and owns its hazard form, for the simulator and
forecasting; the per-run code below it takes the resolved rule, not a name.

Visibility binning does not loop over :func:`risk_segments` series by
series: :func:`block_segments` computes the same segments for a block of
series in one numpy pass, with bit-identical (n_e, nu). The scalar
functions stay as its reference.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain
from typing import Sequence

import numpy as np

from .events import ExposureSeries
from .models import ModelParams
from .visibility import SITES


def _nu(
    exposures: Sequence[int], n_e: int, p: float, dens, support: int, first_driven: bool, s: int
) -> float:
    """Raw visibility at second s of the first n_e >= 1 exposures.

    The delay density is ``dens[binning.delay_bin(dt)]`` inside the support
    and 0 outside it (edges are 1, 2, 4, ..., as TimeResponseFunction
    enforces). ``binning.delay_bin`` owns that rule; its body is inlined
    here because this is the simulator's and forecaster's innermost loop.
    """
    if first_driven:
        dt = s - exposures[0]
        return p * (dens[dt.bit_length() - 1] if 1 <= dt < support else 0.0)
    prod = 1.0
    for te in exposures[:n_e]:
        dt = s - te
        prod *= 1.0 - p * (dens[dt.bit_length() - 1] if 1 <= dt < support else 0.0)
    return 1.0 - prod


def visibility_segments(
    exposures: Sequence[int], p: float, dens, edges, first_driven: bool, t_from: int, t_to: int
) -> list[tuple[int, int, int, float]]:
    """Constant-visibility runs (start, end, n_e, nu) tiling [t_from, t_to).

    Splits at exposure arrivals and at each driver plus each delay edge; the
    drivers are the first exposure on a first-driven site and every exposure
    otherwise. ``exposures`` must be ascending. Each run's (n_e, nu) is that
    of its start second, with n_e advanced run by run.
    """
    if t_from >= t_to:
        return []
    points = {t_from, t_to}
    for te in exposures:
        if t_from < te < t_to:
            points.add(te)
    for te in exposures[:1] if first_driven else exposures:
        for e in edges:
            if t_from < te + e < t_to:
                points.add(te + e)
    bounds = sorted(points)
    support = edges[-1]
    n_all = len(exposures)
    n_e = bisect_right(exposures, t_from)
    out = []
    for a, b in zip(bounds, bounds[1:]):
        while n_e < n_all and exposures[n_e] <= a:
            n_e += 1
        nu = _nu(exposures, n_e, p, dens, support, first_driven, a) if n_e else 0.0
        out.append((a, b, n_e, nu))
    return out


class ModelHazard:
    """One model's per-second hazard: site resolved once, per-friend-count constants memoized."""

    def __init__(self, params: ModelParams):
        self.params = params
        self.first_driven = SITES[params.site].first_driven
        self.p0 = params.p0
        self.v_min = params.v_min
        self.edges = params.trf.bin_edges
        self.factor = params.enhancement.factor
        self._nf: dict[int, tuple[float, tuple[float, ...]]] = {}

    def _for_nf(self, n_f: int) -> tuple[float, tuple[float, ...]]:
        """(p, densities) for one friend count: p = p0 * p_nf on a first-driven site, else p_nf."""
        hit = self._nf.get(n_f)
        if hit is None:
            p_nf = self.params.susceptibility.analytic(n_f)
            p = self.p0 * p_nf if self.first_driven else p_nf
            hit = self._nf[n_f] = (float(p), self.params.trf.densities_for(n_f))
        return hit

    def hazard(self, n_e: int, nu: float) -> float:
        """Clamped per-second response probability for (n_e, nu); at n_e == 0 only the floor."""
        if n_e == 0:
            raw = self.v_min
        elif self.first_driven:
            raw = self.factor(n_e) * (nu + self.v_min)
        else:
            raw = self.p0 * self.factor(n_e) * nu + self.v_min
        return 0.0 if raw < 0.0 else 1.0 if raw > 1.0 else raw

    def runs(
        self, n_f: int, exposures: Sequence[int], t_from: int, t_to: int
    ) -> list[tuple[int, int, float]]:
        """Constant-hazard runs (start, end, lam) tiling [t_from, t_to)."""
        p, dens = self._for_nf(n_f)
        hazard = self.hazard
        return [
            (a, b, hazard(n_e, nu))
            for a, b, n_e, nu in visibility_segments(
                exposures, p, dens, self.edges, self.first_driven, t_from, t_to
            )
        ]


def risk_segments(
    series: ExposureSeries,
    p_nf: float,
    densities,
    edges,
    site: str,
    obs_end: int,
) -> list[tuple[int, int, int, float]]:
    """Constant-visibility runs over [first exposure, response or obs_end]."""
    end = obs_end
    if series.response_time is not None and series.response_time <= obs_end:
        end = series.response_time
    times = series.exposure_times
    first_driven = SITES[site].first_driven
    return visibility_segments(times, p_nf, densities, edges, first_driven, times[0], end + 1)


def _delay_bins(dt: np.ndarray, n_bins: int) -> np.ndarray:
    """Delay bin of each dt (its bit length minus one), or n_bins outside [1, 2**n_bins)."""
    inside = (dt >= 1) & (dt < 1 << n_bins)
    # frexp's exponent is the exact bit length of an integer below 2**53
    bits = np.frexp(np.where(inside, dt, 1).astype(np.float64))[1]
    return np.where(inside, bits - 1, n_bins)


def block_segments(
    series: Sequence[ExposureSeries],
    p_dens: np.ndarray,
    rows: np.ndarray,
    edges,
    first_driven: bool,
    obs_end: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`risk_segments` of a block of series at once, as arrays.

    ``p_dens[r]`` holds ``p * density`` per delay bin of friend-count row r,
    then ``p * 0.0`` for delays outside the support; ``rows[i]`` is series
    i's row; ``first_driven`` is the site's resolved visibility rule.
    Returns (series index, length, n_e, nu, holds the response), one entry
    per segment in (series, segment) order. Every nu is the same float
    expression :func:`_nu` evaluates, so it is bit-identical.
    """
    n = len(series)
    counts = np.fromiter((len(s.exposure_times) for s in series), np.int64, n)
    times = np.fromiter(
        chain.from_iterable(s.exposure_times for s in series), np.int64, int(counts.sum())
    )
    first = np.cumsum(counts) - counts
    t_from = times[first]
    response = np.fromiter(
        (obs_end + 1 if s.response_time is None else s.response_time for s in series), np.int64, n
    )
    responded = response <= obs_end
    t_to = np.minimum(response, obs_end) + 1

    # breakpoints as in visibility_segments, flagged 1 where an exposure arrives;
    # the first exposure is t_from, and points outside [t_from, t_to] drop out
    owner = np.repeat(np.arange(n), counts)
    # delay clocks start at the first exposure on a first-driven site, else at every one
    onset, onset_owner = (t_from, np.arange(n)) if first_driven else (times, owner)
    edge_arr = np.asarray(edges, dtype=np.int64)
    point = np.concatenate((t_to, times, (onset[:, None] + edge_arr).ravel()))
    sid = np.concatenate((np.arange(n), owner, np.repeat(onset_owner, len(edges))))
    arrives = np.zeros(len(point), dtype=np.int64)
    arrives[n : n + len(times)] = 1
    lo, hi = t_from[sid], t_to[sid]
    keep = (lo < hi) & (lo <= point) & (point <= hi)
    point, sid, arrives = point[keep], sid[keep], arrives[keep]
    # an arrival that is also an onset-plus-edge second sorts first and is kept
    order = np.lexsort((-arrives, point, sid))
    point, sid, arrives = point[order], sid[order], arrives[order]
    new = np.ones(len(point), dtype=bool)
    new[1:] = (sid[1:] != sid[:-1]) | (point[1:] != point[:-1])
    point, sid, arrives = point[new], sid[new], arrives[new]

    is_seg = sid[:-1] == sid[1:]  # point i opens a segment ending at point i + 1
    first_point = np.ones(len(point), dtype=bool)
    first_point[1:] = ~is_seg
    # n_e: running count of arrivals, restarted per series (each opens on one)
    seen = np.cumsum(arrives)
    n_e_at = seen - np.maximum.accumulate(np.where(first_point, seen - 1, 0))

    start = point[:-1][is_seg]
    seg_sid = sid[:-1][is_seg]
    length = point[1:][is_seg] - start
    n_e = n_e_at[:-1][is_seg]
    # the response second lies in its series' last segment
    last_point = np.ones(len(point), dtype=bool)
    last_point[:-1] = ~is_seg
    holds = responded[seg_sid] & last_point[1:][is_seg]

    n_bins = len(edges) - 1
    seg_row = rows[seg_sid]
    if first_driven:
        nu = p_dens[seg_row, _delay_bins(start - t_from[seg_sid], n_bins)]
    else:
        # nu = 1 - prod(1 - p * T(dt_i)), multiplied in exposure order
        prod = np.ones(len(start))
        live = np.arange(len(start))
        for j in range(int(n_e.max(initial=0))):
            live = live[n_e[live] > j]
            te = times[first[seg_sid[live]] + j]
            prod[live] *= 1.0 - p_dens[seg_row[live], _delay_bins(start[live] - te, n_bins)]
        nu = 1.0 - prod
    return seg_sid, length, n_e, nu, holds
