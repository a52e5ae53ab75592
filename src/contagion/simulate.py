"""Synthetic cascade generator with known ground truth.

Cascades unfold in one-second steps: every at-risk (user, item) pair responds
in a given second with the site model's probability, and a response (or seed
post) immediately broadcasts an exposure to all followers. The per-second
Bernoulli process is sampled exactly but lazily: between exposure arrivals
and delay-bin edges the hazard is constant, so response times come from
geometric draws over those segments, and a newly arriving exposure simply
invalidates and re-samples the scheduled draw. A message arriving in second s
counts toward the exposure badge from s onward and gains visibility from
s + 1. Duplicate same-second exposures of one user to one item collapse until
the user responds; after that they are logged uncollapsed, and
:func:`events.build_series` removes them and counts them in
``IngestDiagnostics.duplicate_exposures``.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from itertools import count

import numpy as np

from . import inference
from .atrisk import ModelHazard, _nu
from .errors import ContagionError
from .events import (
    KINDS, MAX_EXPOSURES, MAX_TIME, Event, FollowerGraph, apply_spam_cap, build_series,
)
from .models import ModelParams
from .visibility import (
    COHORTS,
    SITES,
    SusceptibilityCurve,
    SusceptibilityForm,
    TimeResponseFunction,
    TrfBundle,
    estimate_susceptibility,
    estimate_trf,
    fit_susceptibility_analytic,
)
from .binning import pow2_edges

# an event's rank in KINDS orders the kinds within one second
POST, EXPOSURE, RESPONSE = map(KINDS.index, ("post", "exposure", "response"))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require_int(name: str, value, low: int, high: float = math.inf) -> None:
    """Raise unless value is an int (not a bool) in [low, high]."""
    if not _is_int(value) or not low <= value <= high:
        bound = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ContagionError(f"{name} must be an integer {bound}, got {value!r}")


@dataclass
class GraphSpec:
    """Out-degree law for synthetic graphs.

    ``constant`` gives every user k friends; ``powerlaw`` samples a discrete
    power law with the given exponent; ``bands`` plants explicit cohorts,
    (count, lo, hi) triples with degrees uniform on [lo, hi], for recovery
    harnesses that need guaranteed mass in specific friend-count ranges.
    """

    users: int
    kind: str = "powerlaw"  # "constant" | "powerlaw" | "bands"
    k: int = 10
    exponent: float = 2.2
    max_degree: int | None = None
    bands: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        if not _is_int(self.users) or self.users < 2:
            raise ContagionError(f"need an integer count of at least 2 users, got {self.users!r}")
        if self.kind not in ("constant", "powerlaw", "bands"):
            raise ContagionError(f"unknown degree spec {self.kind!r}")
        if self.kind == "constant":
            _require_int(f"constant degree for {self.users} users", self.k, 1, self.users - 1)
        if self.kind == "powerlaw" and not 1.0 < self.exponent < math.inf:
            raise ContagionError(f"power-law exponent {self.exponent!r} must be finite and exceed 1")
        if self.max_degree is not None and not (_is_int(self.max_degree) and self.max_degree >= 0):
            raise ContagionError(f"max_degree {self.max_degree!r} is negative or not an integer")
        self.bands = tuple(tuple(band) for band in self.bands)
        for band in self.bands:
            if len(band) != 3 or not all(map(_is_int, band)):
                raise ContagionError(f"band {band!r} is not three integers (count, lo, hi)")
            c, lo, hi = band
            if c < 0 or lo < 1 or hi < lo or hi > self.users - 1:
                raise ContagionError(f"invalid band {band}")
        if self.kind == "bands":
            if not self.bands:
                raise ContagionError("bands spec needs at least one band")
            if sum(c for c, _, _ in self.bands) > self.users:
                raise ContagionError("band counts exceed the user count")


@dataclass
class Seeding:
    """How items enter the network.

    ``posters_per_item`` may be a single count or a cycle of counts applied
    round-robin across items (mixing exposure-dense and sparse items).
    Posts land uniformly in [0, post_time_spread] seconds.
    """

    items: int = 1
    posters_per_item: int | tuple[int, ...] = 1
    post_time_spread: int = 0

    def __post_init__(self):
        if isinstance(self.posters_per_item, int):
            self.posters_per_item = (self.posters_per_item,)
        else:
            self.posters_per_item = tuple(self.posters_per_item)
        _require_int("items", self.items, 1)
        for k in self.posters_per_item:
            _require_int("posters_per_item", k, 1)
        _require_int("post_time_spread", self.post_time_spread, 0)

    def posters_for(self, item_index: int) -> int:
        cycle = self.posters_per_item
        return cycle[item_index % len(cycle)]


@dataclass
class GroundTruth:
    params: ModelParams
    graph: GraphSpec
    seeding: Seeding
    horizon: int
    rng_seed: int

    def __post_init__(self):
        _require_int("horizon", self.horizon, 1)
        _require_int("rng_seed", self.rng_seed, 0)

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_json_dict(),
            "graph": asdict(self.graph),
            "seeding": asdict(self.seeding),
            "horizon": self.horizon,
            "rng_seed": self.rng_seed,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "GroundTruth":
        return cls(
            params=ModelParams.from_json_dict(obj["params"]),
            graph=GraphSpec(**obj["graph"]),
            seeding=Seeding(**obj["seeding"]),
            horizon=obj["horizon"],
            rng_seed=obj["rng_seed"],
        )


def synthetic_trf(
    label: str,
    horizon: int,
    gamma: float = 1.0,
) -> TimeResponseFunction:
    """Power-law-decaying delay density on the standard grid, mass 1."""
    edges = pow2_edges(horizon)
    raw = [edges[k] ** -gamma for k in range(len(edges) - 1)]
    mass = math.fsum(r * (b - a) for r, a, b in zip(raw, edges, edges[1:]))
    density = [r / mass for r in raw]
    return TimeResponseFunction(label, tuple(edges), tuple(density))


def user_ids(n: int) -> list[str]:
    width = len(str(n - 1))
    return [f"u{i:0{width}d}" for i in range(n)]


def generate_graph(spec: GraphSpec, seed: int) -> FollowerGraph:
    """Deterministic follower graph with the requested out-degree law."""
    rng = np.random.default_rng([seed, 0, 0])
    n = spec.users
    ids = user_ids(n)
    if spec.kind == "constant":
        degrees = np.full(n, spec.k, dtype=np.int64)
    elif spec.kind == "bands":
        parts = [
            rng.integers(lo, hi + 1, size=count)
            for count, lo, hi in spec.bands
        ]
        rest = n - sum(count for count, _, _ in spec.bands)
        if rest:
            parts.append(np.ones(rest, dtype=np.int64))
        degrees = rng.permutation(np.concatenate(parts))
    else:
        degrees = rng.zipf(spec.exponent, size=n)
        cap = n - 1 if spec.max_degree is None else min(spec.max_degree, n - 1)
        degrees = np.minimum(degrees, cap)
    degree_list = degrees.tolist()
    friend = np.empty(sum(degree_list), dtype=np.int32)
    end = 0
    for k in degree_list:  # one draw per user, in user order
        start, end = end, end + k
        friend[start:end] = rng.choice(n - 1, size=k, replace=False)
    follower = np.repeat(np.arange(n, dtype=np.int32), degrees)
    friend += friend >= follower  # draws skip the user itself
    # draws are distinct and never the user, so each degree is exact
    names = np.array(ids, dtype=object)
    edges = set(zip(names[follower], names[friend]))
    return FollowerGraph(users=set(ids), edges=edges, friend_count=dict(zip(ids, degree_list)))


class _UserState:
    __slots__ = ("exposures", "responded", "posted", "version", "candidate")

    def __init__(self):
        self.exposures: list[int] = []
        self.responded = False
        self.posted = False
        self.version = 0
        self.candidate: int | None = None


class _Hazard(ModelHazard):
    """The model hazard plus the simulation horizon and the per-site sampler."""

    def __init__(self, params: ModelParams, horizon: int):
        super().__init__(params)
        self.horizon = horizon
        # first-exposure-driven hazard factorizes: cache, per (n_f, n_e), the
        # runs in delay space with their log-survival prefixes
        self._prefix: dict[tuple[int, int], tuple[list[int], list[float], list[float]]] = {}

    def _digg_prefix(self, n_f: int, n_e: int):
        """(bounds, cum, slopes): run bounds in delay space, log-survival at
        each bound and each run's per-second log-survival."""
        key = (n_f, n_e)
        hit = self._prefix.get(key)
        if hit is not None:
            return hit
        # visibility follows the first exposure only, so n_e arrivals at
        # delay 0 give the runs in delay space
        runs = self.runs(n_f, (0,) * n_e, 0, 1 << 62)
        bounds = [a for a, _, _ in runs] + [runs[-1][1]]
        slopes = [math.log1p(-min(lam, 1.0 - 1e-12)) for _, _, lam in runs]
        cum = [0.0]
        for (a, b, _), l in zip(runs, slopes):
            cum.append(cum[-1] + (b - a) * l)
        out = self._prefix[key] = (bounds, cum, slopes)
        return out

    def arrival_rates(self, n_f: int, exposures: list[int], t: int) -> tuple[float, float]:
        """Hazard at second t before and after an exposure arrives; ``exposures`` precede t.

        ``exposures`` is non-empty. The arrival has delay 0 and so density 0
        at t: it raises n_e but leaves nu as it is, on either site.
        """
        p, dens = self._for_nf(n_f)
        n_e = len(exposures)
        nu = _nu(exposures, n_e, p, dens, self.edges[-1], self.first_driven, t)
        return self.hazard(n_e, nu), self.hazard(n_e + 1, nu)

    def sample(self, n_f: int, exposures: list[int], start: int, rng) -> int | None:
        """The response second drawn from ``start`` on, or None past the horizon.

        A site whose visibility follows every exposure draws each hazard run
        in turn. On a first-driven site one uniform resolves the whole
        schedule by inverse transform against the cached log-survival prefix;
        O(bins) scan, no per-run draws.
        """
        if not self.first_driven:
            return _sample_response(self.runs(n_f, exposures, start, self.horizon + 1), rng)
        t1 = exposures[0]
        bounds, cum, slopes = self._digg_prefix(n_f, len(exposures))
        d0 = start - t1
        if d0 < 0:
            d0 = 0
        i = bisect_right(bounds, d0) - 1
        target = math.log(1.0 - rng.random())  # log of U in (0, 1]
        if target == 0.0:
            target = -1e-300
        target += cum[i] + (d0 - bounds[i]) * slopes[i]
        for j in range(i, len(slopes)):
            if cum[j + 1] <= target:
                l = slopes[j]
                d_plus_1 = bounds[j] + math.ceil((target - cum[j]) / l)
                d = max(d_plus_1 - 1, d0)
                s = t1 + d
                return s if s <= self.horizon else None
        return None


def _sample_response(segments, rng) -> int | None:
    """First-success second of a per-second Bernoulli process, or None."""
    if not segments:
        return None
    draws = rng.random(len(segments)).tolist()  # floats iterate faster than numpy scalars
    for (a, b, lam), u in zip(segments, draws):
        if lam <= 0.0:
            continue
        if lam >= 1.0:
            return a
        j = int(math.log(1.0 - u) / math.log1p(-lam))  # 1-u in (0, 1]
        if a + j < b:
            return a + j
    return None


def _simulate_item(
    item: str,
    posts: list[tuple[int, str]],
    followers: dict[str, list[str]],
    friend_count: dict[str, int],
    hazard: _Hazard,
    rng,
    out: list[tuple[int, int, str, str, str]],
) -> None:
    """Append the item's events to ``out`` as (time, kind rank, item, user, exposer or "")."""
    state: dict[str, _UserState] = defaultdict(_UserState)
    # heap entries: (time, priority, seq, user, version). At one second,
    # residual successes (-1) pop first, then posts (0), then drawn
    # responses (1); seq keeps each priority first-in, first-out.
    heap: list[tuple[int, int, int, str, int]] = []
    seq = count(1)

    def schedule(user: str, st: _UserState, start: int) -> None:
        st.version += 1
        t_resp = st.candidate = hazard.sample(friend_count.get(user, 0), st.exposures, start, rng)
        if t_resp is not None:
            heapq.heappush(heap, (t_resp, 1, next(seq), user, st.version))

    def broadcast(user: str, t: int) -> None:
        for f in followers.get(user, ()):  # sorted, deterministic
            st = state[f]
            if st.posted:
                continue  # posters never see their own item as an exposure
            if st.exposures and st.exposures[-1] == t:
                continue  # same-second duplicate collapses
            out.append((t, EXPOSURE, item, f, user))
            if st.responded:
                continue
            if not st.exposures:
                st.exposures.append(t)
                schedule(f, st, t)
                continue
            if st.candidate == t:
                st.exposures.append(t)  # this second's success already drawn
                continue
            # Second t was already drawn (and failed) under the old hazard;
            # give the increased hazard its residual chance before resampling.
            lam_old, lam_new = hazard.arrival_rates(friend_count.get(f, 0), st.exposures, t)
            st.exposures.append(t)
            if lam_new > lam_old and lam_old < 1.0:
                residual = (lam_new - lam_old) / (1.0 - lam_old)
                if rng.random() < residual:
                    # pops before any later second, so the stale candidate is never read
                    st.version += 1  # drop any scheduled candidate
                    heapq.heappush(heap, (t, -1, next(seq), f, st.version))
                    continue
            schedule(f, st, t + 1)

    for t_post, poster in posts:
        state[poster].posted = True  # from the start: never at risk
        heapq.heappush(heap, (t_post, 0, next(seq), poster, 0))

    while heap:
        t, prio, _, user, version = heapq.heappop(heap)
        st = state[user]
        if prio == 0:
            out.append((t, POST, item, user, ""))
            broadcast(user, t)
        elif not (st.responded or st.version != version):  # posters are never scheduled
            st.responded = True
            out.append((t, RESPONSE, item, user, ""))
            broadcast(user, t)


def simulate_cascades(truth: GroundTruth, graph: FollowerGraph | None = None) -> list[Event]:
    """Full synthetic event log; byte-identical given the same seed.

    Items are independent given the graph: each draws from its own RNG
    stream seeded by (rng_seed, 1, item index), so per-item results do not
    depend on simulation order.
    """
    if graph is None:
        graph = generate_graph(truth.graph, truth.rng_seed)
    followers = graph.follower_lists()
    ids = sorted(graph.users)
    hazard = _Hazard(truth.params, truth.horizon)
    out: list[tuple[int, int, str, str, str]] = []
    spread = truth.seeding.post_time_spread
    for item_idx in range(truth.seeding.items):
        item = f"item{item_idx:05d}"
        rng = np.random.default_rng([truth.rng_seed, 1, item_idx])
        k = min(truth.seeding.posters_for(item_idx), len(ids))
        posters = [ids[int(i)] for i in rng.choice(len(ids), size=k, replace=False)]
        if spread > 0:
            times = [int(x) for x in rng.integers(0, spread + 1, size=k)]
        else:
            times = [0] * k
        posts = sorted(zip(times, posters))
        _simulate_item(item, posts, followers, graph.friend_count, hazard, rng, out)
    out.sort()  # by time, kind, item, user, exposer
    # in place: each Event takes the memory its tuple frees
    for i, (t, kind, item, user, exposer) in enumerate(out):
        out[i] = Event(KINDS[kind], user, item, t, exposer if kind == EXPOSURE else None)
    return out


def estimate_visibility(series, site: str, horizon: int) -> tuple[TrfBundle, SusceptibilityCurve]:
    """The cohort TRFs and the fitted susceptibility curve of one site's series.

    The T1/T10/T100 TRFs use the ``horizon`` delay grid; unless the site is
    first-driven they count single-exposure series only. The curve carries
    the closed form named like the site and its fitted constants. ``fit`` and
    ``validate`` both estimate through this step.
    """
    _require_int("trf_horizon", horizon, 1)
    single_only = not SITES[site].first_driven
    trf = TrfBundle(
        *(estimate_trf(series, COHORTS[label], single_only, horizon, label)
          for label in ("T1", "T10", "T100")),
        site=site,
    )
    curve = estimate_susceptibility(series)
    curve.form = SusceptibilityForm(site)
    curve.params = fit_susceptibility_analytic(curve, curve.form)
    return trf, curve


def train_test_split(events: list[Event]) -> tuple[list[Event], list[Event]]:
    """Split by stable item-id hash, roughly half and half."""
    items = {ev.item for ev in events}
    bucket = {item: hashlib.sha1(item.encode()).digest()[0] % 2 for item in items}
    train = [ev for ev in events if bucket[ev.item] == 0]
    test = [ev for ev in events if bucket[ev.item] == 1]
    return train, test


@dataclass
class RecoveryReport:
    """Relative errors of every recovered parameter against the truth."""

    events_total: int
    responses_total: int
    train_events: int
    test_events: int
    p0_true: float
    p0_est: float
    log_v_min_true: float
    log_v_min_est: float
    enhancement_true: dict[int, float]
    enhancement_est: dict[int, float]
    susceptibility_shape_errors: dict[int, float] = field(default_factory=dict)

    @property
    def p0_rel_err(self) -> float:
        return abs(self.p0_est - self.p0_true) / abs(self.p0_true)

    @property
    def log_v_min_rel_err(self) -> float:
        return abs(self.log_v_min_est - self.log_v_min_true) / abs(self.log_v_min_true)

    def enhancement_rel_err(self, n_e: int) -> float:
        return abs(self.enhancement_est[n_e] - self.enhancement_true[n_e]) / abs(
            self.enhancement_true[n_e]
        )

    def summary_lines(self) -> list[str]:
        lines = [
            f"events={self.events_total} responses={self.responses_total} "
            f"(train {self.train_events} / test {self.test_events})",
            f"p0: true={self.p0_true:.6g} est={self.p0_est:.6g} "
            f"rel_err={self.p0_rel_err:.3%}",
            f"log_v_min: true={self.log_v_min_true:.6g} est={self.log_v_min_est:.6g} "
            f"rel_err={self.log_v_min_rel_err:.3%}",
        ]
        for n_e in sorted(self.enhancement_true):
            if n_e in self.enhancement_est:
                lines.append(
                    f"F({n_e}): true={self.enhancement_true[n_e]:.4g} "
                    f"est={self.enhancement_est[n_e]:.4g} "
                    f"rel_err={self.enhancement_rel_err(n_e):.3%}"
                )
        for nf, err in sorted(self.susceptibility_shape_errors.items()):
            lines.append(f"susceptibility shape @ n_f={nf}: rel_err={err:.3%}")
        return lines


def recovery_experiment(
    truth: GroundTruth,
    max_exposures: int = MAX_EXPOSURES,
    trf_horizon: int | None = None,
    min_fit_responses: int = 30,
    enhancement_cohort: tuple[int, int] | None = None,
) -> RecoveryReport:
    """Simulate, ingest, and re-estimate every model parameter.

    The scale/floor fit computes raw visibility from the truth's
    susceptibility curve: the empirical single-exposure response rate
    absorbs the p0 scale (only the product is identified from one dataset),
    mirroring a pipeline where the susceptibility constants come from a
    prior measurement. The fitted curve is checked for shape only.
    """
    # The delay grid may stop short of the observation window: seconds past
    # it are pure visibility-floor trials, which pin v_min.
    grid = trf_horizon if trf_horizon is not None else truth.horizon
    _require_int("trf_horizon", grid, 1)  # before the costly simulation
    if grid > MAX_TIME:
        raise ContagionError(f"trf_horizon {grid} is past 2**53")
    graph = generate_graph(truth.graph, truth.rng_seed)
    events = simulate_cascades(truth, graph)
    train_ev, test_ev = train_test_split(apply_spam_cap(events, max_exposures))
    series = build_series(train_ev, graph)

    horizon = truth.horizon
    trf_est, sus_est = estimate_visibility(series, truth.params.site, grid)
    shape_errors: dict[int, float] = {}
    ref = 10
    est_ref = sus_est.analytic(ref)
    true_ref = truth.params.susceptibility.analytic(ref)
    for nf in (1, 10, 100):
        est = sus_est.analytic(nf) / est_ref
        true = truth.params.susceptibility.analytic(nf) / true_ref
        shape_errors[nf] = abs(est - true) / abs(true)

    sus_fn = truth.params.susceptibility.analytic
    raw = inference.collect_visibility_bins(series, sus_fn, trf_est, horizon)
    curve = inference.scale_fit_curve(raw, min_responses=min_fit_responses)
    p0_est, v_est = inference.fit_scale_and_floor(curve)

    # The enhancement MLE matches baseline and multi-exposure counts on
    # exact visibility cells pooled to a well-measured baseline, optionally
    # restricted to one friend-count band the way the per-cohort analysis
    # slices it.
    if enhancement_cohort is not None:
        lo, hi = enhancement_cohort
        f_series = [s for s in series if lo <= s.n_f <= hi]
    else:
        f_series = series
    bins = inference.pooled_visibility_bins(f_series, sus_fn, trf_est, horizon)
    table = inference.fit_enhancement(bins)

    responses = sum(1 for ev in events if ev.kind == "response")
    return RecoveryReport(
        events_total=len(events),
        responses_total=responses,
        train_events=len(train_ev),
        test_events=len(test_ev),
        p0_true=truth.params.p0,
        p0_est=p0_est,
        log_v_min_true=truth.params.log_v_min,
        log_v_min_est=math.log(v_est) if v_est > 0 else float("-inf"),
        enhancement_true=dict(truth.params.enhancement.values),
        enhancement_est=dict(table.values),
        susceptibility_shape_errors=shape_errors,
    )
