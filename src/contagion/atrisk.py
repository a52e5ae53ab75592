"""The one hazard-segment kernel: binning, simulation and forecasting use it.

Between exposure arrivals and delay-bin edges, a user's raw visibility (and
exposure count) is constant, so per-second quantities aggregate exactly from
a handful of segments instead of a second-by-second scan.

A message arriving at second s counts toward n_e from s onward but has zero
delay density until s + 1. In the first-appearance (digg) interface only the
first exposure drives visibility, nu = p * T(dt_1); in the chronological
(twitter) interface all exposures combine as nu = 1 - prod(1 - p * T(dt_i)).
The per-message multiplier p is the susceptibility p_nf, except for the digg
hazard, which takes p = p0 * p_nf; :class:`ModelHazard` owns that rule for
the simulator and forecasting.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Sequence

from .binning import delay_bin
from .events import ExposureSeries
from .models import ModelParams


def _density(dens, support: int, dt: int) -> float:
    if dt < 1 or dt >= support:
        return 0.0
    # edges are 1, 2, 4, ... (TimeResponseFunction enforces it)
    return dens[delay_bin(dt)]


def visibility_at(
    exposures: Sequence[int], p: float, dens, edges, site: str, s: int
) -> tuple[int, float]:
    """(n_e, nu) at second s: exposures at or before s and their raw visibility."""
    n_e = bisect_right(exposures, s)
    if n_e == 0:
        return 0, 0.0
    support = edges[-1]
    if site == "digg":
        return n_e, p * _density(dens, support, s - exposures[0])
    prod = 1.0
    for te in exposures[:n_e]:
        prod *= 1.0 - p * _density(dens, support, s - te)
    return n_e, 1.0 - prod


def visibility_segments(
    exposures: Sequence[int], p: float, dens, edges, site: str, t_from: int, t_to: int
) -> list[tuple[int, int, int, float]]:
    """Constant-visibility runs (start, end, n_e, nu) tiling [t_from, t_to).

    Splits at exposure arrivals and at each driver plus each delay edge; the
    drivers are every exposure on twitter and only the first one on digg.
    ``exposures`` must be ascending.
    """
    if t_from >= t_to:
        return []
    points = {t_from, t_to}
    for te in exposures:
        if t_from < te < t_to:
            points.add(te)
    for te in exposures if site == "twitter" else exposures[:1]:
        for e in edges:
            if t_from < te + e < t_to:
                points.add(te + e)
    bounds = sorted(points)
    return [
        (a, b, *visibility_at(exposures, p, dens, edges, site, a))
        for a, b in zip(bounds, bounds[1:])
    ]


def hazard(
    site: str, p0: float, v_min: float, factor: Callable[[int], float], n_e: int, nu: float
) -> float:
    """Clamped per-second response probability for (n_e, nu).

    Twitter: p0 * F(n_e) * nu + v_min with nu from p = p_nf. Digg:
    F(n_e) * (nu + v_min) with nu from p = p0 * p_nf. With no exposure yet
    only the floor remains.
    """
    if n_e == 0:
        raw = v_min
    elif site == "digg":
        raw = factor(n_e) * (nu + v_min)
    else:
        raw = p0 * factor(n_e) * nu + v_min
    return 0.0 if raw < 0.0 else 1.0 if raw > 1.0 else raw


class ModelHazard:
    """One model's per-second hazard, with its per-friend-count constants memoized."""

    def __init__(self, params: ModelParams):
        self.params = params
        self.site = params.site
        self.p0 = params.p0
        self.v_min = params.v_min
        self.edges = params.trf.bin_edges
        self.factor = params.enhancement.factor
        self._nf: dict[int, tuple[float, tuple[float, ...]]] = {}

    def _for_nf(self, n_f: int) -> tuple[float, tuple[float, ...]]:
        """(p, densities) for one friend count: p = p0 * p_nf on digg, p_nf on twitter."""
        hit = self._nf.get(n_f)
        if hit is None:
            p_nf = self.params.susceptibility.analytic(n_f)
            p = self.p0 * p_nf if self.site == "digg" else p_nf
            hit = self._nf[n_f] = (p, self.params.trf.densities_for(n_f))
        return hit

    def rate_at(self, n_f: int, exposures: Sequence[int], s: int) -> float:
        """Hazard for second s."""
        p, dens = self._for_nf(n_f)
        n_e, nu = visibility_at(exposures, p, dens, self.edges, self.site, s)
        return hazard(self.site, self.p0, self.v_min, self.factor, n_e, nu)

    def runs(
        self, n_f: int, exposures: Sequence[int], t_from: int, t_to: int
    ) -> list[tuple[int, int, float]]:
        """Constant-hazard runs (start, end, lam) tiling [t_from, t_to)."""
        p, dens = self._for_nf(n_f)
        return [
            (a, b, hazard(self.site, self.p0, self.v_min, self.factor, n_e, nu))
            for a, b, n_e, nu in visibility_segments(
                exposures, p, dens, self.edges, self.site, t_from, t_to
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
    return visibility_segments(times, p_nf, densities, edges, site, times[0], end + 1)
