import hashlib
import math
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contagion.errors import ContagionError
from contagion.events import FollowerGraph, build_series, write_event_log
from contagion.models import EnhancementTable, ModelParams
from contagion.simulate import (
    GraphSpec,
    GroundTruth,
    Seeding,
    _Hazard,
    generate_graph,
    simulate_cascades,
    synthetic_trf,
    train_test_split,
    user_ids,
)
from contagion.visibility import SusceptibilityCurve, SusceptibilityForm, TrfBundle

DIGG_CONSTANTS = {"A": 7.6e-3, "B": -6.2e-2, "C": 1.7e-3, "D": 3.7, "E": 17.8}


def flat_bundle(horizon, site="digg"):
    return TrfBundle(
        t1=synthetic_trf("T1", horizon, gamma=0.0),
        t10=synthetic_trf("T10", horizon, gamma=0.0),
        t100=synthetic_trf("T100", horizon, gamma=0.0),
        site=site,
    )


def constant_susceptibility(value):
    # n_f-independent susceptibility: A * n_f**1 / (n_f + 0) = A
    return SusceptibilityCurve(form=SusceptibilityForm.TWITTER,
                               params={"A": value, "P": 1.0, "B": 0.0})


class TestGenerateGraph:
    def test_constant_degree(self):
        graph = generate_graph(GraphSpec(users=10, kind="constant", k=3), seed=1)
        assert all(graph.friend_count[u] == 3 for u in graph.users)
        assert len(graph.users) == 10

    def test_same_seed_same_edges(self):
        spec = GraphSpec(users=50, kind="powerlaw", exponent=2.2)
        g1 = generate_graph(spec, seed=9)
        g2 = generate_graph(spec, seed=9)
        assert g1.edges == g2.edges
        g3 = generate_graph(spec, seed=10)
        assert g3.edges != g1.edges

    def test_powerlaw_exponent_recovered(self):
        from scipy.optimize import minimize_scalar
        from scipy.special import zeta

        graph = generate_graph(GraphSpec(users=10_000, kind="powerlaw", exponent=2.2), seed=4)
        degrees = np.array([graph.friend_count[u] for u in graph.users])
        degrees = degrees[degrees >= 1]
        # discrete maximum likelihood: alpha minimizes n*ln zeta(a) + a*sum(ln x)
        log_sum = float(np.sum(np.log(degrees)))

        def nll(a):
            return len(degrees) * math.log(zeta(a, 1)) + a * log_sum

        alpha = minimize_scalar(nll, bounds=(1.2, 4.0), method="bounded").x
        assert alpha == pytest.approx(2.2, abs=0.15)

    def test_bands_plant_requested_cohorts(self):
        spec = GraphSpec(users=100, kind="bands",
                         bands=((40, 1, 2), (30, 9, 11), (20, 30, 30)))
        graph = generate_graph(spec, seed=2)
        counts = Counter(graph.friend_count[u] for u in graph.users)
        assert counts[30] == 20
        assert sum(counts[d] for d in (9, 10, 11)) == 30
        assert sum(counts[d] for d in (1, 2)) == 40 + 10  # remainder defaults to 1

    def test_infeasible_specs_rejected(self):
        with pytest.raises(ContagionError):
            GraphSpec(users=5, kind="constant", k=5)
        with pytest.raises(ContagionError):
            GraphSpec(users=5, kind="powerlaw", exponent=0.9)
        with pytest.raises(ContagionError):
            GraphSpec(users=5, kind="bands", bands=((10, 1, 2),))


def make_truth(p0=1.0, log_v_min=-math.inf, susceptibility=None, trf=None,
               enhancement=None, graph=None, seeding=None, horizon=200, seed=5):
    params = ModelParams(
        site="digg",
        p0=p0,
        log_v_min=log_v_min,
        enhancement=enhancement or EnhancementTable(values={1: 1.0}, saturates=True),
        susceptibility=susceptibility or constant_susceptibility(0.5),
        trf=trf or flat_bundle(64),
    )
    return GroundTruth(
        params=params,
        graph=graph or GraphSpec(users=10, kind="constant", k=2),
        seeding=seeding or Seeding(items=3, posters_per_item=1),
        horizon=horizon,
        rng_seed=seed,
    )


class TestSimulateCascades:
    def test_zero_hazard_means_no_spread(self):
        horizon = 64
        zero = synthetic_trf("T1", horizon, gamma=0.0)
        zero = type(zero)(zero.cohort_label, zero.bin_edges, tuple(0.0 for _ in zero.density))
        bundle = TrfBundle(t1=zero, t10=zero, t100=zero, site="digg")
        truth = make_truth(trf=bundle, log_v_min=-math.inf)
        events = simulate_cascades(truth)
        assert not any(ev.kind == "response" for ev in events)
        posters = {(ev.exposer, ev.item) for ev in events if ev.kind == "exposure"}
        seeds = {(ev.user, ev.item) for ev in events if ev.kind == "post"}
        assert posters <= seeds  # every exposure came straight from a seed post

    def test_reproducible_and_byte_identical(self, tmp_path):
        truth = make_truth(
            susceptibility=constant_susceptibility(0.3),
            graph=GraphSpec(users=40, kind="powerlaw", exponent=2.0),
            seeding=Seeding(items=10, posters_per_item=3, post_time_spread=20),
        )
        ev1 = simulate_cascades(truth)
        ev2 = simulate_cascades(truth)
        assert ev1 == ev2
        paths = []
        for run, events in enumerate((ev1, ev2)):
            path = tmp_path / f"run{run}.jsonl"
            write_event_log(path, events)
            paths.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert paths[0] == paths[1]

    def test_at_most_one_response_per_pair(self):
        truth = make_truth(
            susceptibility=constant_susceptibility(0.4),
            graph=GraphSpec(users=60, kind="constant", k=4),
            seeding=Seeding(items=20, posters_per_item=2, post_time_spread=10),
        )
        events = simulate_cascades(truth)
        responses = Counter(
            (ev.user, ev.item) for ev in events if ev.kind == "response"
        )
        assert all(count == 1 for count in responses.values())

    def test_exposure_causality(self):
        truth = make_truth(
            susceptibility=constant_susceptibility(0.4),
            graph=GraphSpec(users=60, kind="constant", k=4),
            seeding=Seeding(items=10, posters_per_item=2, post_time_spread=10),
        )
        events = simulate_cascades(truth)
        acted_at = defaultdict(dict)
        for ev in events:
            if ev.kind in ("post", "response"):
                acted_at[ev.item].setdefault(ev.user, ev.time)
        for ev in events:
            if ev.kind == "exposure":
                assert ev.exposer is not None
                assert acted_at[ev.item][ev.exposer] <= ev.time

    def test_no_duplicate_same_second_exposures(self):
        truth = make_truth(
            susceptibility=constant_susceptibility(0.4),
            graph=GraphSpec(users=60, kind="constant", k=6),
            seeding=Seeding(items=10, posters_per_item=5),
        )
        events = simulate_cascades(truth)
        seen = Counter(
            (ev.user, ev.item, ev.time) for ev in events if ev.kind == "exposure"
        )
        assert all(count == 1 for count in seen.values())

    def test_chain_hop_probability_matches_geometric_form(self):
        # head -> middle -> tail chain; constant hazard c per second over the
        # 63-second support, so each hop responds with 1 - (1 - c)^63
        users = user_ids(3)
        head, middle, tail = users
        graph = FollowerGraph(
            users=set(users),
            edges={(middle, head), (tail, middle)},
            friend_count={head: 0, middle: 1, tail: 1},
        )
        sus_value = 0.5
        truth = make_truth(
            susceptibility=constant_susceptibility(sus_value),
            seeding=Seeding(items=10_000, posters_per_item=1),
            graph=GraphSpec(users=3, kind="constant", k=1),
            horizon=200,
            seed=17,
        )
        events = simulate_cascades(truth, graph)
        per_item = defaultdict(dict)
        for ev in events:
            if ev.kind in ("post", "response"):
                per_item[ev.item][ev.user] = ev.kind
        head_seeded = [item for item, acts in per_item.items()
                       if acts.get(head) == "post"]
        hop1 = sum(1 for item in head_seeded if middle in per_item[item])
        middle_responded = [item for item in head_seeded if middle in per_item[item]]
        hop2 = sum(1 for item in middle_responded if tail in per_item[item])

        c = sus_value / 63.0  # p0=1, flat density 1/63
        p_hop = 1.0 - (1.0 - c) ** 63
        for hits, total in ((hop1, len(head_seeded)), (hop2, len(middle_responded))):
            se = math.sqrt(p_hop * (1 - p_hop) / total)
            assert hits / total == pytest.approx(p_hop, abs=4 * se)

    def test_second_exposure_keeps_first_delay_reference(self):
        table = EnhancementTable(values={1: 1.0, 2: 2.0}, saturates=True)
        truth = make_truth(enhancement=table,
                           susceptibility=constant_susceptibility(0.5))
        hazard = _Hazard(truth.params, truth.horizon)
        single = hazard.runs(1, [0], 40, 41)[0][2]
        double = hazard.runs(1, [0, 30], 40, 41)[0][2]
        # same delay reference (the first exposure), scaled by F(2)
        assert double == pytest.approx(2.0 * single, rel=1e-12)

    def test_posters_never_exposed_to_own_item(self):
        truth = make_truth(
            susceptibility=constant_susceptibility(0.4),
            graph=GraphSpec(users=30, kind="constant", k=5),
            seeding=Seeding(items=10, posters_per_item=4, post_time_spread=25),
        )
        events = simulate_cascades(truth)
        posters = {(ev.user, ev.item) for ev in events if ev.kind == "post"}
        exposed = {(ev.user, ev.item) for ev in events if ev.kind == "exposure"}
        assert posters.isdisjoint(exposed)


class TestSupportingPieces:
    def test_truth_json_round_trip(self):
        truth = make_truth(
            p0=667.0,
            log_v_min=-19.0,
            susceptibility=SusceptibilityCurve(
                form=SusceptibilityForm.DIGG, params=dict(DIGG_CONSTANTS)
            ),
            enhancement=EnhancementTable(values={1: 1.0, 2: 1.5}, saturates=True),
            graph=GraphSpec(users=100, kind="bands", bands=((50, 1, 2), (20, 9, 11))),
            seeding=Seeding(items=4, posters_per_item=(8, 2), post_time_spread=30),
        )
        clone = GroundTruth.from_json_dict(truth.to_json_dict())
        assert clone.to_json_dict() == truth.to_json_dict()
        assert simulate_cascades(clone) == simulate_cascades(truth)

    def test_train_test_split_is_stable_partition(self):
        truth = make_truth(
            susceptibility=constant_susceptibility(0.3),
            graph=GraphSpec(users=40, kind="constant", k=3),
            seeding=Seeding(items=12, posters_per_item=2),
        )
        events = simulate_cascades(truth)
        train, test = train_test_split(events)
        assert len(train) + len(test) == len(events)
        train_items = {ev.item for ev in train}
        test_items = {ev.item for ev in test}
        assert train_items.isdisjoint(test_items)
        train2, test2 = train_test_split(events)
        assert train2 == train and test2 == test

    def test_synthetic_trf_is_normalized(self):
        for gamma in (0.0, 0.85, 1.3):
            trf = synthetic_trf("T1", 86_400, gamma=gamma)
            assert trf.total_mass == pytest.approx(1.0, abs=1e-9)

    def test_recovery_error_shrinks_with_scale(self):
        # same generating process at three sizes; enhancement recovery error
        # must fall as data grows
        from contagion.inference import fit_enhancement, pooled_visibility_bins

        errors = []
        for items in (4, 40, 400):
            truth = make_truth(
                p0=667.0,
                log_v_min=-19.0,
                susceptibility=SusceptibilityCurve(
                    form=SusceptibilityForm.DIGG, params=dict(DIGG_CONSTANTS)
                ),
                enhancement=EnhancementTable(
                    values={1: 1.0, 2: 1.5, 3: 1.8}, saturates=True
                ),
                trf=flat_bundle(1800),
                graph=GraphSpec(
                    users=1200,
                    kind="bands",
                    bands=((500, 1, 2), (150, 9, 11), (450, 30, 30), (60, 90, 110)),
                ),
                seeding=Seeding(items=items, posters_per_item=150, post_time_spread=45),
                horizon=3600,
                seed=29,
            )
            graph = generate_graph(truth.graph, truth.rng_seed)
            events = simulate_cascades(truth, graph)
            series = [s for s in build_series(events, graph) if s.n_f == 30]
            bins = pooled_visibility_bins(
                series,
                truth.params.susceptibility.analytic,
                truth.params.trf,
                truth.horizon,
            )
            table = fit_enhancement(bins)
            err = max(
                abs(table.values.get(n, 0.0) - true) / true
                for n, true in ((2, 1.5), (3, 1.8))
            )
            errors.append(err)
        assert errors[2] < errors[1] < errors[0]


@st.composite
def graph_specs(draw):
    users = draw(st.integers(2, 60))
    kind = draw(st.sampled_from(["constant", "powerlaw", "bands"]))
    if kind == "constant":
        return GraphSpec(users=users, kind=kind, k=draw(st.integers(1, users - 1)))
    if kind == "powerlaw":
        return GraphSpec(users=users, kind=kind,
                         exponent=draw(st.floats(1.05, 4.0)),
                         max_degree=draw(st.none() | st.integers(0, 2 * users)))
    bands, left = [], users
    for _ in range(draw(st.integers(1, 3))):
        count = draw(st.integers(0, left))
        lo = draw(st.integers(1, users - 1))
        bands.append((count, lo, draw(st.integers(lo, users - 1))))
        left -= count
    return GraphSpec(users=users, kind=kind, bands=tuple(bands))


@settings(max_examples=60, deadline=None)
@given(spec=graph_specs(), seed=st.integers(0, 2**32 - 1))
def test_generated_graph_counts_match_its_edges(spec, seed):
    graph = generate_graph(spec, seed)
    assert graph.users == set(user_ids(spec.users))
    assert all(follower != friend for follower, friend in graph.edges)
    out_degree = Counter(follower for follower, _ in graph.edges)
    assert graph.friend_count == {u: out_degree[u] for u in graph.users}


def scan_followers(graph, user):
    """Followers of one user by a scan over every edge, sorted."""
    return sorted(follower for follower, friend in graph.edges if friend == user)


def edges_sha256(graph):
    digest = hashlib.sha256()
    for follower, friend in sorted(graph.edges):
        digest.update(f"{follower}\t{friend}\n".encode())
    for user in sorted(graph.friend_count):
        digest.update(f"{user}\t{graph.friend_count[user]}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("spec, n_edges, sha", [
    (GraphSpec(users=120, kind="constant", k=7), 840,
     "f298c0f108abc96c3db703f1ab5770d3f03398edc18e483e326648c30961f890"),
    (GraphSpec(users=300, kind="powerlaw", exponent=2.1), 1059,
     "e603f9802e2da1676cbe2115ec4a1b2a5d6cc294cca98e22d3b6619baef08c6f"),
    (GraphSpec(users=50, kind="powerlaw", exponent=2.1, max_degree=0), 0,
     "cae2c42cf2515f37be994444bc07f3a5096c251ebf589e0af3e27a0cddb2c44d"),
    (GraphSpec(users=400, kind="bands", bands=((100, 1, 2), (50, 9, 11), (30, 30, 30))), 1766,
     "6fcd439911fe961734ea47b8d970c6c2edf786d1479ffb3d3f3e60c02065fefb"),
], ids=["constant", "powerlaw", "powerlaw max_degree=0", "bands"])
def test_generated_graph_is_pinned(spec, n_edges, sha):
    graph = generate_graph(spec, seed=11)
    assert len(graph.edges) == n_edges
    assert edges_sha256(graph) == sha
    for user in graph.users:
        assert graph.follower_lists().get(user, []) == scan_followers(graph, user)


@settings(max_examples=60, deadline=None)
@given(spec=graph_specs(), seed=st.integers(0, 2**32 - 1))
def test_generated_follower_lists_match_an_edge_scan(spec, seed):
    graph = generate_graph(spec, seed)
    lists = graph.follower_lists()
    assert set(lists) == {friend for _, friend in graph.edges}
    for user in graph.users:
        assert graph.follower_lists().get(user, []) == scan_followers(graph, user)


def pinned_truth(site):
    trf = TrfBundle(*(synthetic_trf(label, 64, gamma=gamma)
                      for label, gamma in (("T1", 0.8), ("T10", 1.0), ("T100", 1.3))), site=site)
    params = ModelParams(
        site=site,
        p0=0.9 if site == "digg" else 0.5,
        log_v_min=-6.0,
        enhancement=EnhancementTable(values={1: 1.0, 2: 1.6, 3: 2.0}, saturates=True),
        susceptibility=constant_susceptibility(0.6),
        trf=trf,
    )
    return GroundTruth(params=params, graph=GraphSpec(users=3, kind="constant", k=2),
                       seeding=Seeding(items=40, posters_per_item=(1, 2), post_time_spread=6),
                       horizon=300, rng_seed=3)


@pytest.mark.parametrize("site, n_events, n_responses, sha", [
    ("digg", 208, 44, "4ab3677e40c0904bfbd3c00ac8a66fbb94b012bd2c82c1afff4466311ef8efd2"),
    ("twitter", 220, 49, "272e5c16d669634686e19f75d86b4e1802dd29ed6bae66053e780e08083c8892"),
])
def test_simulation_on_a_hand_built_graph_is_pinned(site, n_events, n_responses, sha, tmp_path):
    # "a" < "u10" < "u9" as strings, unlike the numbers they carry
    ids = ["u9", "u10", "a"]
    graph = FollowerGraph(users=set(ids), edges={(f, u) for f in ids for u in ids if f != u},
                          friend_count={u: 2 for u in ids})
    events = simulate_cascades(pinned_truth(site), graph)
    assert graph.follower_lists().get("u9", []) == ["a", "u10"]
    assert (len(events), sum(ev.kind == "response" for ev in events)) == (n_events, n_responses)
    assert all((ev.exposer is not None) == (ev.kind == "exposure") for ev in events)
    path = tmp_path / "events.jsonl"
    write_event_log(path, events)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha


def test_an_empty_user_id_stays_the_exposer():
    graph = FollowerGraph(users={"", "b"}, edges={("b", "")}, friend_count={"": 0, "b": 1})
    truth = make_truth(graph=GraphSpec(users=2, kind="constant", k=1),
                       seeding=Seeding(items=6, posters_per_item=1))
    exposures = [ev for ev in simulate_cascades(truth, graph) if ev.kind == "exposure"]
    assert exposures and all(ev.exposer == "" and ev.user == "b" for ev in exposures)
