"""Property tests of the hazard-segment kernel against the per-second oracles."""

import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contagion import atrisk
from contagion.atrisk import ModelHazard, visibility_segments
from contagion.models import EnhancementTable, ModelParams, digg_probability, twitter_probability
from contagion.simulate import _Hazard, _draw_cut, _sample_response, synthetic_trf
from contagion.visibility import SITES, SusceptibilityCurve, SusceptibilityForm, TrfBundle

DIGG_CONSTANTS = {"A": 7.6e-3, "B": -6.2e-2, "C": 1.7e-3, "D": 3.7, "E": 17.8}
TWITTER_CONSTANTS = {"A": 0.2, "P": 1.0, "B": 1.0}
GRID = 64  # delays past the grid's support fall back to the floor


def make_params(site: str, p0: float, log_v_min: float = -9.0) -> ModelParams:
    form = SusceptibilityForm.DIGG if site == "digg" else SusceptibilityForm.TWITTER
    constants = DIGG_CONSTANTS if site == "digg" else TWITTER_CONSTANTS
    return ModelParams(
        site=site,
        p0=p0,
        log_v_min=log_v_min,
        enhancement=EnhancementTable(values={1: 1.0, 2: 1.5, 3: 0.7}, saturates=True),
        susceptibility=SusceptibilityCurve(form=form, params=dict(constants)),
        trf=TrfBundle(
            t1=synthetic_trf("T1", GRID, gamma=0.8),
            t10=synthetic_trf("T10", GRID, gamma=1.0),
            t100=synthetic_trf("T100", GRID, gamma=1.3),
            site=site,
        ),
    )


def oracle(params: ModelParams, n_f: int, exposures, s: int) -> float:
    if params.site == "twitter":
        return twitter_probability(params, n_f, exposures, s)
    n_e = sum(1 for te in exposures if te <= s)
    if n_e == 0:
        return min(max(params.v_min, 0.0), 1.0)
    return digg_probability(params, n_f, exposures[0], n_e, s)


def rate_at(hz: ModelHazard, n_f: int, exposures, s: int) -> float:
    """The hazard at second s: the one run of the window [s, s + 1)."""
    return hz.runs(n_f, exposures, s, s + 1)[0][2]


def kernel_runs(params: ModelParams, n_f: int, exposures, t_from: int, t_to: int):
    p_nf = params.susceptibility.analytic(n_f)
    p = params.p0 * p_nf if params.site == "digg" else p_nf
    dens = params.trf.densities_for(n_f)
    return visibility_segments(exposures, p, dens, params.trf.bin_edges,
                               SITES[params.site].first_driven, t_from, t_to)


@settings(max_examples=150, deadline=None)
@given(
    site=st.sampled_from(["twitter", "digg"]),
    p0=st.sampled_from([0.05, 0.6, 40.0, 667.0]),
    n_f=st.sampled_from([1, 3, 10, 37, 100, 150]),
    exposures=st.lists(st.integers(5, 200), min_size=1, max_size=6, unique=True).map(sorted),
    t_from=st.integers(0, 260),
    length=st.integers(1, 150),
)
def test_kernel_tiles_window_and_matches_oracle(site, p0, n_f, exposures, t_from, length):
    params = make_params(site, p0)
    t_to = t_from + length
    runs = kernel_runs(params, n_f, exposures, t_from, t_to)

    assert runs[0][0] == t_from
    assert runs[-1][1] == t_to
    for (_, end, _, _), (start, _, _, _) in zip(runs, runs[1:]):
        assert end == start
    for a, b, n_e, nu in runs:
        assert a < b
        lam = ModelHazard(params).hazard(n_e, nu)
        for s in range(a, b):
            assert n_e == sum(1 for te in exposures if te <= s)
            want = oracle(params, n_f, exposures, s)
            assert math.isclose(lam, want, rel_tol=1e-12), (s, lam, want)


def test_empty_window_has_no_segments():
    params = make_params("twitter", 0.6)
    assert kernel_runs(params, 10, [3], 20, 20) == []


@settings(max_examples=150, deadline=None)
@given(
    site=st.sampled_from(["twitter", "digg"]),
    p0=st.sampled_from([0.05, 0.6, 40.0, 667.0]),
    n_f=st.sampled_from([1, 3, 10, 37, 100, 150]),
    exposures=st.lists(st.integers(5, 200), min_size=1, max_size=6, unique=True).map(sorted),
    t_from=st.integers(0, 260),
    length=st.integers(1, 150),
)
def test_model_hazard_runs_and_rate_match_oracle(site, p0, n_f, exposures, t_from, length):
    params = make_params(site, p0)
    hz = ModelHazard(params)
    t_to = t_from + length
    runs = hz.runs(n_f, exposures, t_from, t_to)

    assert runs[0][0] == t_from
    assert runs[-1][1] == t_to
    for (_, end, _), (start, _, _) in zip(runs, runs[1:]):
        assert end == start
    for a, b, lam in runs:
        assert a < b
        for s in range(a, b):
            want = oracle(params, n_f, exposures, s)
            assert math.isclose(lam, want, rel_tol=1e-12), (s, lam, want)
            assert math.isclose(rate_at(hz, n_f, exposures, s), want, rel_tol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    p0=st.sampled_from([0.05, 0.6, 40.0, 667.0]),
    n_f=st.sampled_from([1, 3, 10, 37, 100, 150]),
    n_e=st.integers(1, 5),
)
def test_digg_prefix_matches_summed_oracle(p0, n_f, n_e):
    params = make_params("digg", p0)
    bounds, cum, slopes = _Hazard(params, horizon=10 * GRID)._digg_prefix(n_f, n_e)
    want = 0.0  # log-survival over delays [0, d)
    for d in range(2 * GRID + 1):
        i = bisect_right(bounds, d) - 1
        got = cum[i] + (d - bounds[i]) * slopes[i]
        assert math.isclose(got, want, rel_tol=1e-9), (d, got, want)
        lam = digg_probability(params, n_f, 0, n_e, d)
        want += math.log1p(-min(lam, 1.0 - 1e-12))


EDGE_DELAYS = sorted({e + o for e in make_params("digg", 1.0).trf.bin_edges for o in (-1, 0, 1)}
                     | {3 * GRID, 10**9})


@st.composite
def arrivals(draw):
    """Ascending exposures and a later arrival second, with its delay near any bin edge."""
    delay = draw(st.sampled_from(EDGE_DELAYS[1:]) | st.integers(1, 3 * GRID))
    first = draw(st.integers(0, 50))
    later = draw(st.lists(st.integers(1, delay - 1), max_size=5, unique=True)) if delay > 1 else []
    return [first] + sorted(first + o for o in later), first + delay


@settings(max_examples=300, deadline=None)
@given(
    p0=st.sampled_from([0.05, 0.6, 40.0, 667.0, 1e5]),  # 1e5 saturates it at short delays
    n_f=st.sampled_from([1, 3, 10, 37, 100, 150]),
    arrival=arrivals(),
)
def test_digg_arrival_rates_equal_rate_at(p0, n_f, arrival):
    exposures, t = arrival
    hz = _Hazard(make_params("digg", p0), horizon=10 * GRID)
    want = (rate_at(hz, n_f, exposures, t), rate_at(hz, n_f, exposures + [t], t))
    assert hz.arrival_rates(n_f, exposures, t) == want


@settings(max_examples=300, deadline=None)
@given(
    p0=st.sampled_from([0.05, 0.6, 40.0, 667.0, 1e5]),
    n_f=st.sampled_from([1, 3, 10, 37, 100, 150]),
    arrival=arrivals(),
)
def test_twitter_arrival_rates_equal_rate_at(p0, n_f, arrival):
    exposures, t = arrival
    hz = _Hazard(make_params("twitter", p0), horizon=10 * GRID)
    want = (rate_at(hz, n_f, exposures, t), rate_at(hz, n_f, exposures + [t], t))
    assert hz.arrival_rates(n_f, exposures, t) == want


@settings(max_examples=300, deadline=None)
@given(
    p0=st.sampled_from([0.05, 0.6, 5.0, 40.0, 1e5]),  # 1e5 clamps the hazard at 1
    log_v_min=st.sampled_from([-9.0, -2.0, -math.inf]),  # -inf: hazard 0 where nu is 0
    n_f=st.sampled_from([1, 3, 10, 37, 100, 150]),
    exposures=st.lists(st.integers(0, 200), min_size=1, max_size=4, unique=True).map(sorted),
    first=st.booleans(),  # sample a lone exposure from its own second
    offset=st.integers(-5, 300),
    # the horizon's delay from the start: before it, inside the delay support, past it
    delay=st.integers(-3, 2 * GRID) | st.integers(2 * GRID, 10**6),
    seed=st.integers(0, 2**32 - 1),
)
def test_twitter_sample_matches_the_reference(p0, log_v_min, n_f, exposures, first, offset,
                                              delay, seed):
    if first:
        exposures = exposures[:1]
        start = exposures[0]
    else:
        start = exposures[-1] + offset
    horizon = max(start + delay, 1)
    hz = _Hazard(make_params("twitter", p0, log_v_min), horizon)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = hz.sample(n_f, exposures, start, got_rng)
    want = _sample_response(hz.runs(n_f, exposures, start, horizon + 1), want_rng)
    assert got == want
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    # the same call again reads the memo warm
    again = np.random.default_rng(seed)
    assert hz.sample(n_f, exposures, start, again) == want


def test_draws_at_the_cut_cannot_succeed_within_the_run():
    """A draw at or above a run's cut gives a first success no earlier than its end.

    Draws are multiples of 2**-53; the two checked are the first at or above
    the cut and the one after it.
    """
    lams = [1e-300, 1e-200, 1e-100, 1e-30, 1e-16, 1e-9, 1e-3, 0.1, 0.5, 0.9, 0.999,
            1 - 1e-9, 1 - 1e-16]
    for lam in lams:
        for n in [1, 2, 3, 7, 64, 1000, 2**20 + 1, 2**33, 2**40]:
            first_draw = math.ceil(_draw_cut(n, lam) * 2**53)
            for k in (first_draw, first_draw + 1):
                u = k / 2**53
                if u < 1.0:
                    assert int(math.log(1.0 - u) / math.log1p(-lam)) >= n, (lam, n, u)


class _NoLookup:
    """A site table whose every lookup fails."""

    def __getitem__(self, site):
        raise AssertionError(f"site {site!r} looked up after construction")


def _hazard_calls(hz: _Hazard) -> list:
    exposures = [5, 9, 40]
    return [
        hz.runs(10, exposures, 0, 300),
        [rate_at(hz, 10, exposures, s) for s in (0, 5, 8, 9, 12, 40, 41, 100)],
        hz.arrival_rates(10, exposures[:2], 40),
        [hz.sample(10, exposures, 10, np.random.default_rng(seed)) for seed in range(20)],
        # a lone exposure from its own second, with the memo cold and then warm
        [hz.sample(10, exposures[:1], 5, np.random.default_rng(seed)) for seed in range(20)],
    ]


# p0 per site such that some of the sampled responses land inside the horizon
@pytest.mark.parametrize("site, p0", [("twitter", 0.6), ("digg", 1e4)])
def test_no_site_lookup_after_construction(site, p0, monkeypatch):
    params = make_params(site, p0)
    want = _hazard_calls(_Hazard(params, horizon=10 * GRID))
    plain = ModelHazard(params)
    fresh = _Hazard(params, horizon=10 * GRID)  # memos still cold
    monkeypatch.setattr(atrisk, "SITES", _NoLookup())
    assert _hazard_calls(fresh) == want
    assert plain.runs(10, [5, 9, 40], 0, 300) == want[0]
    assert rate_at(plain, 10, [5, 9, 40], 41) == want[1][6]
