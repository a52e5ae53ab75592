"""Synthetic cascade generator with known ground truth.

Cascades unfold in one-second steps: every at-risk (user, item) pair responds
in a given second with the site model's probability, and a response (or seed
post) immediately broadcasts an exposure to all followers. The per-second
Bernoulli process is sampled exactly but lazily: between exposure arrivals
and delay-bin edges the hazard is constant, so response times come from
geometric draws over those segments, and a newly arriving exposure simply
invalidates and re-samples the pending draw. A message arriving in second s
counts toward the exposure badge from s onward and gains visibility from
s + 1; duplicate same-second exposures of one user to one item collapse.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from collections import defaultdict, deque
from dataclasses import dataclass, field

import numpy as np

from .atrisk import ModelHazard
from .errors import ContagionError
from .events import Event, FollowerGraph, apply_spam_cap, build_graph, build_series
from .models import ModelParams
from .visibility import (
    COHORTS,
    SusceptibilityForm,
    TimeResponseFunction,
    TrfBundle,
    estimate_susceptibility,
    estimate_trf,
    evaluate_form,
    fit_susceptibility_analytic,
)
from .binning import pow2_edges

KIND_RANK = {"post": 0, "exposure": 1, "response": 2}


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
        if self.users < 2:
            raise ContagionError("need at least 2 users")
        if self.kind not in ("constant", "powerlaw", "bands"):
            raise ContagionError(f"unknown degree spec {self.kind!r}")
        if self.kind == "constant" and not (1 <= self.k <= self.users - 1):
            raise ContagionError(f"constant degree {self.k} infeasible for {self.users} users")
        if self.kind == "powerlaw" and self.exponent <= 1.0:
            raise ContagionError("power-law exponent must exceed 1")
        if self.kind == "bands":
            self.bands = tuple((int(c), int(lo), int(hi)) for c, lo, hi in self.bands)
            if not self.bands:
                raise ContagionError("bands spec needs at least one band")
            if sum(c for c, _, _ in self.bands) > self.users:
                raise ContagionError("band counts exceed the user count")
            for c, lo, hi in self.bands:
                if c < 0 or lo < 1 or hi < lo or hi > self.users - 1:
                    raise ContagionError(f"invalid band ({c}, {lo}, {hi})")


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
            self.posters_per_item = tuple(int(k) for k in self.posters_per_item)
        if self.items < 1 or any(k < 1 for k in self.posters_per_item):
            raise ContagionError("seeding counts must be positive")
        if self.post_time_spread < 0:
            raise ContagionError("post time spread cannot be negative")

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
        if self.horizon < 1:
            raise ContagionError("horizon must be at least one second")

    def to_json_dict(self) -> dict:
        return {
            "params": self.params.to_json_dict(),
            "graph": {
                "users": self.graph.users,
                "kind": self.graph.kind,
                "k": self.graph.k,
                "exponent": self.graph.exponent,
                "max_degree": self.graph.max_degree,
                "bands": [list(b) for b in self.graph.bands],
            },
            "seeding": {
                "items": self.seeding.items,
                "posters_per_item": list(self.seeding.posters_per_item),
                "post_time_spread": self.seeding.post_time_spread,
            },
            "horizon": self.horizon,
            "rng_seed": self.rng_seed,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "GroundTruth":
        g = obj["graph"]
        return cls(
            params=ModelParams.from_json_dict(obj["params"]),
            graph=GraphSpec(
                users=g["users"],
                kind=g["kind"],
                k=g.get("k", 10),
                exponent=g.get("exponent", 2.2),
                max_degree=g.get("max_degree"),
                bands=tuple(tuple(b) for b in g.get("bands", [])),
            ),
            seeding=Seeding(
                items=obj["seeding"]["items"],
                posters_per_item=obj["seeding"]["posters_per_item"],
                post_time_spread=obj["seeding"].get("post_time_spread", 0),
            ),
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
    edges: set[tuple[str, str]] = set()
    for i in range(n):
        k = int(degrees[i])
        picks = rng.choice(n - 1, size=k, replace=False)
        for j in picks:
            friend = int(j) if j < i else int(j) + 1  # skip self
            edges.add((ids[i], ids[friend]))
    graph = build_graph([], sorted(edges))
    for u in ids:
        graph.users.add(u)
        graph.friend_count.setdefault(u, 0)
    return graph


class _UserState:
    __slots__ = ("exposures", "responded", "posted", "version", "candidate")

    def __init__(self):
        self.exposures: list[int] = []
        self.responded = False
        self.posted = False
        self.version = 0
        self.candidate: int | None = None


class _Hazard(ModelHazard):
    """The model hazard plus the simulation horizon and the digg sampler."""

    def __init__(self, params: ModelParams, horizon: int):
        super().__init__(params)
        self.horizon = horizon
        # first-exposure-driven hazard factorizes: cache log-survival
        # prefixes per (n_f, n_e) in delay space
        self._prefix: dict[tuple[int, int], tuple[list[int], list[float], list[float]]] = {}

    def _digg_prefix(self, n_f: int, n_e: int):
        key = (n_f, n_e)
        hit = self._prefix.get(key)
        if hit is not None:
            return hit
        # digg visibility follows the first exposure only, so n_e arrivals at
        # delay 0 give the runs in delay space
        runs = self.runs(n_f, (0,) * n_e, 0, 1 << 62)
        bounds = [a for a, _, _ in runs] + [runs[-1][1]]
        slopes = [math.log1p(-min(lam, 1.0 - 1e-12)) for _, _, lam in runs]
        cum = [0.0]
        for (a, b, _), l in zip(runs, slopes):
            cum.append(cum[-1] + (b - a) * l)
        out = (bounds, cum, slopes)
        self._prefix[key] = out
        return out

    def sample_first_driven(self, n_f: int, n_e: int, t1: int, start: int, rng) -> int | None:
        """Inverse-transform draw of the response second for the digg model.

        One uniform resolves the whole schedule against the cached
        log-survival prefix; O(bins) scan, no per-segment draws.
        """
        bounds, cum, slopes = self._digg_prefix(n_f, n_e)
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
    draws = rng.random(len(segments))
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
    out: list[Event],
) -> None:
    state: dict[str, _UserState] = defaultdict(_UserState)
    # heap entries: (time, priority, seq, user, version); posts outrank draws
    heap: list[tuple[int, int, int, str, int]] = []
    seq = 0
    pending: deque[tuple[str, int]] = deque()

    def schedule(user: str, st: _UserState, start: int) -> None:
        nonlocal seq
        st.version += 1
        n_f = friend_count.get(user, 0)
        if hazard.site == "digg":
            t_resp = hazard.sample_first_driven(
                n_f, len(st.exposures), st.exposures[0], start, rng
            )
        else:
            segs = hazard.runs(n_f, st.exposures, start, hazard.horizon + 1)
            t_resp = _sample_response(segs, rng)
        st.candidate = t_resp
        if t_resp is not None:
            seq += 1
            heapq.heappush(heap, (t_resp, 1, seq, user, st.version))

    def broadcast(user: str, t: int) -> None:
        for f in followers.get(user, ()):  # sorted, deterministic
            st = state[f]
            if st.posted:
                continue  # posters never see their own item as an exposure
            if st.exposures and st.exposures[-1] == t:
                continue  # same-second duplicate collapses
            out.append(Event("exposure", f, item, t, exposer=user))
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
            lam_old = hazard.rate_at(friend_count.get(f, 0), st.exposures, t)
            st.exposures.append(t)
            lam_new = hazard.rate_at(friend_count.get(f, 0), st.exposures, t)
            if lam_new > lam_old and lam_old < 1.0:
                residual = (lam_new - lam_old) / (1.0 - lam_old)
                if rng.random() < residual:
                    st.version += 1  # drop any pending candidate
                    st.candidate = None
                    pending.append((f, t))
                    continue
            schedule(f, st, t + 1)

    def respond(user: str, st: _UserState, t: int) -> None:
        st.responded = True
        st.version += 1
        out.append(Event("response", user, item, t))
        broadcast(user, t)

    for t_post, poster in posts:
        state[poster].posted = True  # from the start: never at risk
        seq += 1
        heapq.heappush(heap, (t_post, 0, seq, poster, 0))

    while heap:
        t, prio, _, user, version = heapq.heappop(heap)
        st = state[user]
        if prio == 0:
            out.append(Event("post", user, item, t))
            broadcast(user, t)
        else:
            if st.responded or st.posted or st.version != version:
                continue
            respond(user, st, t)
        while pending:
            f, tp = pending.popleft()
            fst = state[f]
            if not fst.responded and not fst.posted:
                respond(f, fst, tp)


def simulate_cascades(truth: GroundTruth, graph: FollowerGraph | None = None) -> list[Event]:
    """Full synthetic event log; byte-identical given the same seed.

    Items are independent given the graph: each draws from its own RNG
    stream seeded by (rng_seed, 1, item index), so per-item results do not
    depend on simulation order.
    """
    if graph is None:
        graph = generate_graph(truth.graph, truth.rng_seed)
    followers: dict[str, list[str]] = defaultdict(list)
    for follower, friend in sorted(graph.edges):
        followers[friend].append(follower)
    ids = sorted(graph.users)
    hazard = _Hazard(truth.params, truth.horizon)
    out: list[Event] = []
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
    out.sort(key=lambda ev: (ev.time, KIND_RANK[ev.kind], ev.item, ev.user, ev.exposer or ""))
    return out


def train_test_split(events: list[Event]) -> tuple[list[Event], list[Event]]:
    """Split by stable item-id hash, roughly half and half."""
    import hashlib

    def bucket(item: str) -> int:
        return hashlib.sha1(item.encode()).digest()[0] % 2

    train = [ev for ev in events if bucket(ev.item) == 0]
    test = [ev for ev in events if bucket(ev.item) == 1]
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
    max_exposures: int = 20,
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
    from .inference import (
        collect_visibility_bins,
        fit_enhancement,
        fit_scale_and_floor,
        pooled_visibility_bins,
        scale_fit_curve,
    )

    graph = generate_graph(truth.graph, truth.rng_seed)
    events = simulate_cascades(truth, graph)
    train_ev, test_ev = train_test_split(events)

    train_ev = apply_spam_cap(train_ev, max_exposures)
    test_ev = apply_spam_cap(test_ev, max_exposures)
    series = build_series(train_ev, graph)

    site = truth.params.site
    horizon = truth.horizon
    # The delay grid may stop short of the observation window: seconds past
    # it are pure visibility-floor trials, which pin v_min.
    grid = trf_horizon if trf_horizon is not None else horizon
    single_only = site == "twitter"
    t1 = estimate_trf(series, COHORTS["T1"], single_only, grid, "T1")
    t10 = estimate_trf(series, COHORTS["T10"], single_only, grid, "T10")
    t100 = estimate_trf(series, COHORTS["T100"], single_only, grid, "T100")
    trf_est = TrfBundle(t1=t1, t10=t10, t100=t100, site=site)

    sus_emp = estimate_susceptibility(series)
    form = SusceptibilityForm(site)
    sus_params = fit_susceptibility_analytic(sus_emp, form)
    shape_errors: dict[int, float] = {}
    ref = 10
    est_ref = evaluate_form(form, sus_params, ref)
    true_ref = truth.params.susceptibility.analytic(ref)
    for nf in (1, 10, 100):
        est = evaluate_form(form, sus_params, nf) / est_ref
        true = truth.params.susceptibility.analytic(nf) / true_ref
        shape_errors[nf] = abs(est - true) / abs(true)

    sus_fn = truth.params.susceptibility.analytic
    raw_bins = collect_visibility_bins(series, sus_fn, trf_est, site, horizon)
    curve = scale_fit_curve(
        series, sus_fn, trf_est, site, horizon,
        min_responses=min_fit_responses, raw=raw_bins,
    )
    p0_est, v_est = fit_scale_and_floor(curve)

    # The enhancement MLE matches baseline and multi-exposure counts on
    # exact visibility cells pooled to a well-measured baseline, optionally
    # restricted to one friend-count band the way the per-cohort analysis
    # slices it.
    if enhancement_cohort is not None:
        lo, hi = enhancement_cohort
        f_series = [s for s in series if lo <= s.n_f <= hi]
    else:
        f_series = series
    bins = pooled_visibility_bins(f_series, sus_fn, trf_est, site, horizon)
    table = fit_enhancement(bins)

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
