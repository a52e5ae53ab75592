"""Response-probability models for multi-exposure social contagion.

Each delivered exposure i has an independent discovery probability
tau_i = P(n_f) * T(dt_i, n_f): the susceptibility of a user with n_f friends
times the time-decayed visibility of a message received dt_i seconds ago.
On top of discovery sits a social enhancement factor F(n), a multiplicative
boost from observing that n friends recommended the item, with F(1) = 1.

The site-specific models differ in how the user interface surfaces repeat
exposures: a chronological stream makes every exposure independently
discoverable, while a first-appearance-ordered stream keys visibility to the
first exposure only and signals the count through a badge.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import ContagionError
from .visibility import SITES, SusceptibilityCurve, TrfBundle, json_number

EXACT_GUARD = 20  # subset enumeration is O(2^n); refuse beyond this


def _check_taus(taus: Sequence[float]) -> tuple[float, ...]:
    out = tuple(float(t) for t in taus)
    for t in out:
        if not (0.0 <= t < 1.0):
            raise ContagionError(f"per-exposure discovery probability {t!r} outside [0, 1)")
    return out


def visibility_all(taus: Sequence[float]) -> float:
    """Probability of discovering at least one of the delivered exposures."""
    taus = _check_taus(taus)
    prod = 1.0
    for t in taus:
        prod *= 1.0 - t
    return 1.0 - prod


def visibility_first(tau_first: float) -> float:
    """Discovery probability when only the first exposure sets visibility."""
    if not (0.0 <= tau_first < 1.0):
        raise ContagionError(f"discovery probability {tau_first!r} outside [0, 1)")
    return float(tau_first)


def visibility_exactly(taus: Sequence[float], n: int) -> float:
    """Probability of discovering exactly n exposures, by subset enumeration.

    Exponential-cost oracle: kept as the independent cross-check for
    :func:`visibility_distribution`. Guarded to at most EXACT_GUARD exposures.
    """
    taus = _check_taus(taus)
    n_e = len(taus)
    if not 0 <= n <= n_e:
        raise ContagionError(f"need 0 <= n <= {n_e}, got {n}")
    if n_e > EXACT_GUARD:
        raise ContagionError(
            f"{n_e} exposures exceeds the enumeration guard ({EXACT_GUARD}); "
            "use visibility_distribution instead"
        )
    total = 0.0
    indices = range(n_e)
    for seen in itertools.combinations(indices, n):
        seen_set = set(seen)
        term = 1.0
        for i in indices:
            term *= taus[i] if i in seen_set else 1.0 - taus[i]
        total += term
    return total


def visibility_distribution(taus: Sequence[float]) -> list[float]:
    """Distribution over how many of the delivered exposures get discovered.

    Returns [V_0, ..., V_ne]. Computed by incrementally multiplying the
    per-exposure polynomials (1 - tau_i) + tau_i * y, i.e. a dynamic program
    over elementary symmetric polynomials with the no-discovery mass folded
    in at every step, so no intermediate can overflow.
    """
    taus = _check_taus(taus)
    coeffs = [1.0]
    for t in taus:
        keep = 1.0 - t
        nxt = [0.0] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k] += c * keep
            nxt[k + 1] += c * t
        coeffs = nxt
    return coeffs


def response_probability(taus: Sequence[float], f: Callable[[int], float]) -> float:
    """General multi-exposure response probability sum(f(n) * V_n, n >= 1).

    ``f`` maps the number of discovered exposures to its enhancement factor;
    with f == 1 this collapses to :func:`visibility_all` exactly.
    """
    taus = _check_taus(taus)
    dist = visibility_distribution(taus)
    terms = []
    for n in range(1, len(dist)):
        fn = float(f(n))
        if fn < 0:
            raise ContagionError(f"enhancement f({n}) = {fn} is negative")
        terms.append(fn * dist[n])
    return math.fsum(terms)


def effective_enhancement(taus: Sequence[float], f: Callable[[int], float]) -> float:
    """Ratio of the exact per-count-enhanced response to the single-factor form.

    sum(f(n) * V_n) / (1 - prod(1 - tau_i)): how far a count-dependent
    enhancement deviates from treating all exposures with one factor. Near 1
    (for small taus) the single-factor approximation is accurate.
    """
    taus = _check_taus(taus)
    if all(t == 0.0 for t in taus):
        raise ContagionError("all-zero discovery probabilities: ratio is 0/0")
    # expm1/log1p keeps full relative precision when every tau is tiny
    denom = -math.expm1(math.fsum(math.log1p(-t) for t in taus))
    dist = visibility_distribution(taus)
    num = math.fsum(float(f(n)) * dist[n] for n in range(1, len(dist)))
    return num / denom


@dataclass
class EnhancementTable:
    """Multiplicative social-enhancement factor per exposure count.

    ``values[n_e]`` is F(n_e) with F(1) = 1 by convention. When ``saturates``
    is set, counts beyond the largest entry reuse the last factor; any other
    missing count is an error (no extrapolation, no filled gaps).
    """

    values: dict[int, float] = field(default_factory=lambda: {1: 1.0})
    saturates: bool = False

    def __post_init__(self):
        self.values = {int(k): float(v) for k, v in self.values.items()}
        if 1 not in self.values or abs(self.values[1] - 1.0) > 1e-9:
            raise ContagionError("enhancement table must define F(1) = 1")
        for n, v in self.values.items():
            if n < 1 or not math.isfinite(v) or v < 0:
                raise ContagionError(f"invalid enhancement entry F({n}) = {v}")

    def factor(self, n_e: int) -> float:
        if n_e in self.values:
            return self.values[n_e]
        last = max(self.values)
        if self.saturates and n_e > last:
            return self.values[last]
        raise ContagionError(f"no enhancement factor for exposure count {n_e}")

    def to_json_dict(self, cohort: str = "all") -> dict:
        return {
            "cohort": cohort,
            "F": {str(n): v for n, v in sorted(self.values.items())},
            "saturates": self.saturates,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "EnhancementTable":
        saturates = obj.get("saturates", False)
        if not isinstance(saturates, bool):
            raise ContagionError(f"saturates must be true or false, got {saturates!r}")
        values = {int(k): float(json_number(v, f"F({k})")) for k, v in obj["F"].items()}
        return cls(values=values, saturates=saturates)


@dataclass
class ModelParams:
    """Everything needed to evaluate a site's response-probability model."""

    site: str  # a key of visibility.SITES, which holds the site's rules
    p0: float
    log_v_min: float
    enhancement: EnhancementTable
    susceptibility: SusceptibilityCurve
    trf: TrfBundle

    def __post_init__(self):
        SITES[self.site]  # an unknown site raises ContagionError
        if not 0 < self.p0 < math.inf:
            raise ContagionError(f"scale p0 must be positive and finite, got {self.p0!r}")
        if not self.log_v_min < math.inf:  # -inf means no floor; NaN fails too
            raise ContagionError(f"log_v_min must be below infinity, got {self.log_v_min!r}")
        if self.trf.site != self.site:
            raise ContagionError(f"trf is for {self.trf.site!r}, model is for {self.site!r}")

    @property
    def v_min(self) -> float:
        return math.exp(self.log_v_min)

    def tau(self, n_f: int, dt: int) -> float:
        """Raw discovery probability of one message dt seconds after arrival."""
        return self.susceptibility.analytic(n_f) * self.trf.density_at(dt, n_f)

    def to_json_dict(self) -> dict:
        return {
            "site": self.site,
            "p0": self.p0,
            "log_v_min": self.log_v_min,
            "enhancement": self.enhancement.to_json_dict(),
            "susceptibility": self.susceptibility.to_json_dict(),
            "trf": self.trf.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ModelParams":
        return cls(
            site=obj["site"],
            p0=float(json_number(obj["p0"], "p0")),
            log_v_min=float(json_number(obj["log_v_min"], "log_v_min")),
            enhancement=EnhancementTable.from_json_dict(obj["enhancement"]),
            susceptibility=SusceptibilityCurve.from_json_dict(obj["susceptibility"]),
            trf=TrfBundle.from_json_dict(obj["trf"]),
        )


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def twitter_probability(
    params: ModelParams,
    n_f: int,
    exposure_times: Sequence[int],
    t: int,
) -> float:
    """Per-second response probability in a chronological-stream interface.

    p0 * F(n_e) * (1 - prod(1 - tau_i)) + v_min over all exposures at or
    before t; with no exposures only the visibility floor remains.
    """
    times = [s for s in exposure_times if s <= t]
    if not times:
        return _clamp01(params.v_min)
    n_e = len(times)
    p_nf = params.susceptibility.analytic(n_f)
    prod = 1.0
    for s in times:
        prod *= 1.0 - p_nf * params.trf.density_at(t - s, n_f)
    raw = params.p0 * params.enhancement.factor(n_e) * (1.0 - prod) + params.v_min
    return _clamp01(raw)


def digg_probability(
    params: ModelParams,
    n_f: int,
    first_exposure: int,
    n_e: int,
    t: int,
) -> float:
    """Per-second response probability when only the first exposure is visible.

    F(n_e) * (p0 * P(n_f) * T(t - first, n_f) + v_min): the badge count
    multiplies the whole bracket, floor included.
    """
    if t < first_exposure:
        raise ContagionError("evaluation time precedes the first exposure")
    if n_e < 1:
        raise ContagionError("exposure count must be at least 1")
    tau = params.p0 * params.tau(n_f, t - first_exposure)
    raw = params.enhancement.factor(n_e) * (tau + params.v_min)
    return _clamp01(raw)


def exposure_response_curve(series_list) -> dict[int, float]:
    """Observed response probability at each exposure count, aggregated.

    For every count n: the fraction of series that responded while holding
    exactly n exposures, out of all series that reached n exposures while
    still unresponded. Aggregation across heterogeneous users can bend this
    curve down even when every cohort's own curve rises.
    """
    at_risk: dict[int, int] = {}
    responded: dict[int, int] = {}
    for s in series_list:
        times = s.exposure_times
        if s.response_time is None:
            reached = len(times)
            response_count = None
        else:
            reached = sum(1 for x in times if x <= s.response_time)
            response_count = reached
        for n in range(1, reached + 1):
            at_risk[n] = at_risk.get(n, 0) + 1
        if response_count is not None and response_count >= 1:
            responded[response_count] = responded.get(response_count, 0) + 1
    return {n: responded.get(n, 0) / at_risk[n] for n in sorted(at_risk)}
