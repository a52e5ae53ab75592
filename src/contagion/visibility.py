"""Time-response function estimation and susceptibility curves.

The time response function T(dt, n_f) is the conditional probability density
of responding dt seconds after an exposure, given that a response happens.
It is estimated on a power-of-two delay grid (progressively wider bins), per
friend-count cohort, and interpolated to arbitrary friend counts with
inverse-square-distance weights anchored at the cohort centers 1, 10, 100.

The susceptibility curve P(n_f) is the single-exposure response probability
as a function of friend count; it normalizes away cognitive load. Closed
forms are fitted to the empirical curve by RMS error in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .binning import delay_bin, pow2_edges
from .errors import (
    BinMismatchError,
    ContagionError,
    EmptyCohortError,
    FitConvergenceError,
    FitError,
)
from .events import MAX_TIME
from .simplex import nelder_mead

# Friend-count bands used to estimate the three reference functions.
COHORTS: dict[str, tuple[int, int]] = {
    "T1": (1, 2),
    "T10": (9, 11),
    "T100": (90, 110),
}

WEEK = 7 * 86400
EPS_W = 1e-6  # keeps interpolation weights finite at the cohort centers
MAX_RESTARTS = 6  # simplex restarts of the susceptibility fit


def json_number(value, name: str):
    """``value`` if it is a JSON number (an int or a float, not a bool); else ContagionError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ContagionError(f"{name} must be a number, got {value!r}")
    return value


def json_int_key(key: str, name: str) -> int:
    """``int(key)`` if ``key`` is exactly ``str(int(key))``; else ContagionError.

    ``int`` alone would also read "02", "+2" and "2_0", so distinct keys could
    collapse onto one integer.
    """
    try:
        value = int(key)
    except ValueError:
        value = None
    if value is None or str(value) != key:
        raise ContagionError(f"{name} key {key!r} is not a plain decimal integer")
    return value


@dataclass(frozen=True)
class Site:
    """One site's interface rules; every per-site difference follows from these two."""

    # True (digg): visibility follows the first exposure, p = p0 * p_nf, the
    # hazard is F(n_e) * (nu + v_min), the simulator samples by inverse
    # transform and the TRFs count every series. False (twitter): every
    # exposure, p = p_nf, p0 * F(n_e) * nu + v_min, per-run draws, and the
    # TRFs count single-exposure series only.
    first_driven: bool
    t100_power: int  # the T100 weight is 1/(|n_f - 100| ** t100_power + 1e-6)


class _SiteTable(dict):
    def __missing__(self, name):
        raise ContagionError(f"unknown site {name!r}")


# The one owner of the per-site rules; an unknown name raises ContagionError.
SITES: dict[str, Site] = _SiteTable({
    "twitter": Site(first_driven=False, t100_power=2),
    "digg": Site(first_driven=True, t100_power=1),
})


@dataclass
class TimeResponseFunction:
    """Binned response-delay density; mass density[k] * width[k] sums to 1.

    The edges are the power-of-two grid 1, 2, 4, ... (see ``pow2_edges``).
    """

    cohort_label: str
    bin_edges: tuple[int, ...]
    density: tuple[float, ...]

    def __post_init__(self):
        if any(int(e) != e for e in self.bin_edges):
            raise ContagionError(f"bin edges {self.bin_edges} are not all integers")
        self.bin_edges = tuple(int(e) for e in self.bin_edges)
        self.density = tuple(float(d) for d in self.density)
        if len(self.bin_edges) != len(self.density) + 1:
            raise ContagionError("need one more bin edge than density value")
        # the fast paths find a delay's bin from its bit length
        if self.bin_edges != tuple(1 << k for k in range(len(self.bin_edges))):
            raise ContagionError(f"bin edges {self.bin_edges} are not 1, 2, 4, ... (powers of two)")
        if self.bin_edges[-1] > MAX_TIME:  # the binning pass adds edges to times in int64
            raise ContagionError(f"last delay edge {self.bin_edges[-1]} is past 2**53")
        if not all(0.0 <= d < math.inf for d in self.density):
            raise ContagionError(f"densities must be finite and non-negative, got {self.density}")
        mass = self.total_mass
        if mass > 0 and abs(mass - 1.0) > 1e-9:
            raise ContagionError(f"density mass {mass!r} is not 1")

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.bin_edges, self.bin_edges[1:]))

    @property
    def total_mass(self) -> float:
        return math.fsum(d * w for d, w in zip(self.density, self.widths))

    def density_at(self, dt: float) -> float:
        """Per-second density at delay dt; zero outside the binned support."""
        if dt < self.bin_edges[0] or dt >= self.bin_edges[-1]:
            return 0.0
        k = int(np.searchsorted(self.bin_edges, dt, side="right")) - 1
        return self.density[k]

    def to_json_dict(self) -> dict:
        return {
            "cohort": self.cohort_label,
            "bin_edges": list(self.bin_edges),
            "density": list(self.density),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TimeResponseFunction":
        return cls(
            cohort_label=obj["cohort"],
            bin_edges=tuple(json_number(e, "a delay edge") for e in obj["bin_edges"]),
            density=tuple(json_number(d, "a density") for d in obj["density"]),
        )


def estimate_trf(
    series_list,
    cohort: tuple[int, int],
    single_exposure_only: bool,
    horizon: int = WEEK,
    cohort_label: str | None = None,
) -> TimeResponseFunction:
    """Estimate the response-delay density for one friend-count cohort.

    Delays are measured from the first exposure; responses later than the
    horizon are outside the observation window and dropped. With
    ``single_exposure_only`` only series exposed exactly once contribute
    (chronological-stream pipelines); otherwise the constraint is lifted.
    """
    lo, hi = cohort
    edges = pow2_edges(horizon)
    counts = [0] * (len(edges) - 1)
    total = 0
    for s in series_list:
        if not (lo <= s.n_f <= hi) or s.response_time is None:
            continue
        if single_exposure_only and len(s.exposure_times) != 1:
            continue
        dt = s.response_time - s.exposure_times[0]
        if dt < 1:
            dt = 1  # same-second responses land in the first one-second bin
        if dt > horizon:
            continue
        k = delay_bin(dt)
        if k >= len(counts):
            continue
        counts[k] += 1
        total += 1
    if total == 0:
        raise EmptyCohortError(
            f"no responding series with friend count in [{lo}, {hi}]"
        )
    density = [
        c / total / (b - a) for c, a, b in zip(counts, edges, edges[1:])
    ]
    label = cohort_label if cohort_label is not None else f"nf{lo}-{hi}"
    return TimeResponseFunction(label, tuple(edges), tuple(density))


def _interpolation_weights(n_f: int, site: str) -> tuple[float, float, float]:
    w1 = 1.0 / ((n_f - 1) ** 2 + EPS_W)
    w10 = 1.0 / ((n_f - 10) ** 2 + EPS_W)
    w100 = 1.0 / (abs(n_f - 100) ** SITES[site].t100_power + EPS_W)
    return w1, w10, w100


def interpolate_trf(
    t1: TimeResponseFunction,
    t10: TimeResponseFunction,
    t100: TimeResponseFunction,
    n_f: int,
    site: str,
    dt: float,
) -> float:
    """Density at delay dt for an arbitrary friend count.

    Weighted average of the three cohort functions with weights
    1/((n_f - c)^2 + 1e-6) at centers c = 1, 10, 100; the 100-center weight
    raises |n_f - 100| to the site's ``t100_power`` instead (see :data:`SITES`).
    """
    if not (t1.bin_edges == t10.bin_edges == t100.bin_edges):
        raise BinMismatchError("cohort functions use different bin grids")
    w1, w10, w100 = _interpolation_weights(n_f, site)
    num = w1 * t1.density_at(dt) + w10 * t10.density_at(dt) + w100 * t100.density_at(dt)
    return num / (w1 + w10 + w100)


@dataclass(frozen=True)
class TrfBundle:
    """The three cohort response functions plus the interpolation rule."""

    t1: TimeResponseFunction
    t10: TimeResponseFunction
    t100: TimeResponseFunction
    site: str

    def __post_init__(self):
        SITES[self.site]  # an unknown site raises here, not at the first lookup
        if not (self.t1.bin_edges == self.t10.bin_edges == self.t100.bin_edges):
            raise BinMismatchError("cohort functions use different bin grids")

    @property
    def bin_edges(self) -> tuple[int, ...]:
        return self.t1.bin_edges

    def density_at(self, dt: float, n_f: int) -> float:
        return interpolate_trf(self.t1, self.t10, self.t100, n_f, self.site, dt)

    def densities_for(self, n_f: int) -> tuple[float, ...]:
        """Interpolated per-bin densities for one friend count, as Python floats."""
        w1, w10, w100 = _interpolation_weights(n_f, self.site)
        stack = (
            w1 * np.asarray(self.t1.density)
            + w10 * np.asarray(self.t10.density)
            + w100 * np.asarray(self.t100.density)
        )
        return tuple((stack / (w1 + w10 + w100)).tolist())

    def to_json_dict(self) -> dict:
        return {
            "site": self.site,
            "t1": self.t1.to_json_dict(),
            "t10": self.t10.to_json_dict(),
            "t100": self.t100.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TrfBundle":
        return cls(
            t1=TimeResponseFunction.from_json_dict(obj["t1"]),
            t10=TimeResponseFunction.from_json_dict(obj["t10"]),
            t100=TimeResponseFunction.from_json_dict(obj["t100"]),
            site=obj["site"],
        )


class SusceptibilityForm(str, Enum):
    DIGG = "digg"
    TWITTER = "twitter"


# Each closed form's constants, in order; True marks a positive constant
# that the fit searches in log space.
FORM_PARAMS: dict[SusceptibilityForm, dict[str, bool]] = {
    SusceptibilityForm.DIGG: {"A": True, "B": False, "C": True, "D": True, "E": True},
    SusceptibilityForm.TWITTER: {"A": True, "P": False, "B": True},
}


def evaluate_form(form: SusceptibilityForm, params: dict[str, float], n_f: float) -> float:
    if form == SusceptibilityForm.DIGG:
        a, b, c, d, e = (params[k] for k in FORM_PARAMS[form])
        return a / ((math.exp(b * n_f) + c) * (n_f + d) * (n_f + e))
    a, p, b = (params[k] for k in FORM_PARAMS[form])
    return a * n_f**p / (n_f + b)


@dataclass
class SusceptibilityCurve:
    """Single-exposure response probability vs. friend count.

    ``empirical`` maps n_f to (responses, trials); ``params`` holds fitted
    constants of the chosen closed form, when available.
    """

    empirical: dict[int, tuple[int, int]] = field(default_factory=dict)
    form: SusceptibilityForm | None = None
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        names = FORM_PARAMS[self.form].keys() if self.form is not None else set()
        if self.params and (self.params.keys() != names
                            or not all(math.isfinite(v) for v in self.params.values())):
            raise ContagionError(f"form {self.form} needs finite constants {sorted(names)}, "
                                 f"got {self.params}")

    def analytic(self, n_f: int) -> float:
        if self.form is None or not self.params:
            raise ContagionError("no fitted closed form on this curve")
        return evaluate_form(self.form, self.params, n_f)

    def to_json_dict(self) -> dict:
        return {
            "form": self.form.value if self.form is not None else None,
            "params": dict(self.params),
            "empirical": {str(k): list(v) for k, v in sorted(self.empirical.items())},
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SusceptibilityCurve":
        form = obj.get("form")
        empirical = {}
        for k, (r, n) in obj.get("empirical", {}).items():
            counts = (json_number(r, "a response count"), json_number(n, "a trial count"))
            if not (all(isinstance(c, int) or c.is_integer() for c in counts) and 0 <= r <= n):
                raise ContagionError(f"empirical counts {[r, n]} at n_f {k} are not integers "
                                     "with 0 <= responses <= trials")
            empirical[json_int_key(k, "empirical")] = (int(r), int(n))
        return cls(
            empirical=empirical,
            form=SusceptibilityForm(form) if form else None,
            params={k: float(json_number(v, f"constant {k}"))
                    for k, v in obj.get("params", {}).items()},
        )


def estimate_susceptibility(series_list) -> SusceptibilityCurve:
    """Empirical response probability of users exposed exactly once.

    Multi-exposure series are excluded; friend counts with no
    single-exposure series simply have no entry.
    """
    counts: dict[int, list[int]] = {}
    for s in series_list:
        if len(s.exposure_times) != 1:
            continue
        cell = counts.setdefault(s.n_f, [0, 0])
        cell[1] += 1
        if s.response_time is not None:
            cell[0] += 1
    return SusceptibilityCurve(
        empirical={nf: (r, t) for nf, (r, t) in sorted(counts.items())}
    )


def _pack(form: SusceptibilityForm, params: dict[str, float]) -> np.ndarray:
    return np.array([math.log(params[k]) if in_log else params[k]
                     for k, in_log in FORM_PARAMS[form].items()])


def _unpack(form: SusceptibilityForm, x: np.ndarray) -> dict[str, float]:
    return {k: math.exp(v) if in_log else float(v)
            for (k, in_log), v in zip(FORM_PARAMS[form].items(), x)}


def _rms_log_error(form, params, points) -> float:
    acc = 0.0
    for nf, p in points:
        model = evaluate_form(form, params, nf)
        if model <= 0 or not math.isfinite(model):
            return float("inf")
        acc += (math.log(model) - math.log(p)) ** 2
    return math.sqrt(acc / len(points))


def fit_susceptibility_analytic(
    curve: SusceptibilityCurve, form: SusceptibilityForm
) -> dict[str, float]:
    """Fit the closed form to the empirical curve by RMS error in log space.

    Deterministic: a data-informed starting point and a fixed sequence of
    simplex restarts (``simplex.nelder_mead``). Only friend counts with at
    least one response enter (zero probabilities have no logarithm). Positive
    constants are searched in log space; the two interchangeable pole offsets
    of the five-parameter form are ordered D <= E on return.
    """
    points = [
        (nf, r / t) for nf, (r, t) in sorted(curve.empirical.items()) if r > 0
    ]
    n_params = len(FORM_PARAMS[form])
    if len(points) < n_params:
        raise FitError(
            f"{len(points)} usable friend-count bins cannot determine "
            f"{n_params} parameters"
        )

    nf0, p_lo = points[0]
    if form == SusceptibilityForm.DIGG:
        start = {"B": -0.05, "C": 0.01, "D": 1.0, "E": 10.0}
        start["A"] = p_lo * (
            (math.exp(start["B"] * nf0) + start["C"])
            * (nf0 + start["D"])
            * (nf0 + start["E"])
        )
    else:
        start = {"P": 0.5, "B": 1.0}
        start["A"] = p_lo * (nf0 + start["B"]) / nf0**start["P"]

    def objective(x: np.ndarray) -> float:
        return _rms_log_error(form, _unpack(form, x), points)

    x = _pack(form, start)
    best_x = best_fun = None
    converged = False
    prev_fun = math.inf
    for _ in range(MAX_RESTARTS):
        res_x, res_fun, success = nelder_mead(
            objective, x, maxiter=4000, xatol=1e-12, fatol=1e-14
        )
        if best_x is None or res_fun < best_fun:
            best_x, best_fun = res_x, res_fun
        x = best_x
        # Converged when a full restart no longer moves the objective.
        if success or prev_fun - res_fun <= 1e-10 * max(1.0, abs(res_fun)):
            converged = True
            break
        prev_fun = res_fun

    params = _unpack(form, best_x)
    if form == SusceptibilityForm.DIGG and params["D"] > params["E"]:
        params["D"], params["E"] = params["E"], params["D"]
    if not converged or not math.isfinite(best_fun):
        raise FitConvergenceError(
            f"no convergence after {MAX_RESTARTS} restarts (rms {best_fun:g})",
            best_params=params,
        )
    return params
