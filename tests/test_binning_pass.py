"""The block binning pass against a series-by-series loop over risk_segments.

``collect_visibility_bins`` segments blocks of series with numpy; its bins
must equal the scalar pass bit for bit, insertion order included, because
``pooled_visibility_bins`` merges ``sum_nu`` in that order.
"""

from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from contagion import atrisk, inference
from contagion.atrisk import risk_segments
from contagion.binning import log_bin_center, log_bin_index
from contagion.errors import ContagionError
from contagion.events import ExposureSeries
from contagion.inference import (
    VisibilityBin,
    collect_visibility_bins,
    pooled_visibility_bins,
    visibility_bins,
)
from contagion.simulate import synthetic_trf
from contagion.visibility import SITES, TrfBundle

GRID = 64  # delays past the grid's support have zero density
FRIEND_COUNTS = (1, 2, 10, 37, 100)


def bundle(site: str) -> TrfBundle:
    return TrfBundle(
        t1=synthetic_trf("T1", GRID, gamma=0.8),
        t10=synthetic_trf("T10", GRID, gamma=1.0),
        t100=synthetic_trf("T100", GRID, gamma=1.3),
        site=site,
    )


TRF = {site: bundle(site) for site in ("digg", "twitter")}


def susceptibility(n_f: int) -> float:
    return 0.7 / (1.0 + 0.3 * n_f)


def scalar_bins(series_list, susceptibility, trf, site, obs_end, exact=False):
    """The series-by-series loop the block pass replaced."""
    edges = trf.bin_edges
    out = {}
    for s in series_list:
        p_nf = susceptibility(s.n_f)
        dens = trf.densities_for(s.n_f)
        responded = s.response_time is not None and s.response_time <= obs_end
        for start, end, n_e, nu in risk_segments(s, p_nf, dens, edges, site, obs_end):
            idx = nu if exact else log_bin_index(nu)
            cell = out.setdefault(n_e, {}).setdefault(idx, [0, 0, 0.0])
            cell[0] += end - start
            cell[2] += nu * (end - start)
            if responded and start <= s.response_time < end:
                cell[1] += 1
    return out


def snapshot(bins):
    """Keys in insertion order, exact ints and the bits of every sum_nu."""
    return [
        (n_e, [(key, type(n), n, type(r), r, float.hex(snu)) for key, (n, r, snu) in cells.items()])
        for n_e, cells in bins.items()
    ]


def make_series(rows):
    return [
        ExposureSeries(user=f"u{i}", item="x", n_f=n_f, exposure_times=times, response_time=resp)
        for i, (n_f, times, resp) in enumerate(rows)
    ]


@st.composite
def series_rows(draw):
    n_f = draw(st.sampled_from(FRIEND_COUNTS))
    t0 = draw(st.integers(0, 80))
    # gaps of 1, 2, 4, ... land arrivals on the first exposure's delay edges
    gaps = draw(st.lists(st.sampled_from([1, 2, 4, 8, 16, 32]) | st.integers(1, 90), max_size=7))
    times = [t0]
    for gap in gaps:
        times.append(times[-1] + gap)
    response = draw(
        st.none()
        | st.sampled_from(times)  # in an exposure's own second
        | st.integers(t0, times[-1] + 2 * GRID)  # before, between or after exposures
    )
    return n_f, tuple(times), response


@settings(max_examples=300, deadline=None)
@given(
    site=st.sampled_from(["digg", "twitter"]),
    exact=st.booleans(),
    obs_end=st.integers(-5, 400),  # before, inside and after the exposures
    block=st.sampled_from([1, 2, 3, 256]),
    rows=st.lists(series_rows(), max_size=12),
)
@example(site="digg", exact=False, obs_end=100, block=2, rows=[])
@example(site="twitter", exact=True, obs_end=100, block=2, rows=[])
@example(  # arrivals on first-exposure-plus-edge seconds, response at obs_end
    site="twitter", exact=False, obs_end=40, block=2,
    rows=[(10, (10, 11, 12, 14, 18, 26), 40), (10, (3, 4, 6), 6), (1, (50, 51), None)],
)
@example(  # response in the first exposure's second, later exposures kept
    site="digg", exact=True, obs_end=30, block=1,
    rows=[(2, (5, 9, 13), 5), (2, (5, 9, 13), 31), (37, (40,), 45)],
)
def test_block_pass_matches_the_series_loop(site, exact, obs_end, block, rows):
    series = make_series(rows)
    trf = TRF[site]
    want = scalar_bins(series, susceptibility, trf, site, obs_end, exact=exact)
    with patch.object(inference, "BLOCK_SERIES", block):
        got = collect_visibility_bins(series, susceptibility, trf, obs_end, exact=exact)
    assert snapshot(got) == snapshot(want)


def test_many_blocks_with_repeating_friend_counts():
    rows = []
    for i in range(700):
        t0 = (i * 7) % 50
        times = tuple(t0 + sum(range(1, j + 2)) * (1 + i % 3) for j in range(1 + i % 9))
        resp = None if i % 4 == 0 else times[i % len(times)] + (i % 5) * 3
        rows.append((FRIEND_COUNTS[i % len(FRIEND_COUNTS)], times, resp))
    series = make_series(rows)
    assert len(series) > 2 * inference.BLOCK_SERIES
    for site in ("digg", "twitter"):
        for exact in (False, True):
            want = scalar_bins(series, susceptibility, TRF[site], site, 150, exact=exact)
            got = collect_visibility_bins(series, susceptibility, TRF[site], 150, exact=exact)
            assert snapshot(got) == snapshot(want)


@pytest.mark.parametrize("site", ["digg", "twitter"])
def test_a_pass_resolves_its_site_once(site, monkeypatch):
    lookups = []

    class CountingSites(dict):
        def __getitem__(self, name):
            lookups.append(name)
            return SITES[name]

    for module in (atrisk, inference):
        monkeypatch.setattr(module, "SITES", CountingSites(), raising=False)
    series = make_series([(n_f, (5, 9), 30) for n_f in FRIEND_COUNTS])
    with patch.object(inference, "BLOCK_SERIES", 2):
        got = collect_visibility_bins(series, susceptibility, TRF[site], 100)
    assert lookups == [site]
    assert snapshot(got) == snapshot(scalar_bins(series, susceptibility, TRF[site], site, 100))


def scalar_log_bins(raw):
    """The loop that built visibility_bins from a pass's log bins."""
    base = raw.get(1, {})
    usable = {idx for idx, (n, r, _) in base.items() if n > 0 and r > 0}
    out = {}
    for n_e, cells in sorted(raw.items()):
        bins = []
        for idx, (n, r, snu) in sorted(cells.items()):
            if n_e > 1 and idx not in usable:
                continue
            bins.append(VisibilityBin(nu=log_bin_center(idx), trials=n, responses=r,
                                      mean_nu=snu / n if n else 0.0, index=idx))
        if bins:
            out[n_e] = bins
    return out


def scalar_pooled_bins(raw, min_responses):
    """The loop that pooled a pass's exact cells for pooled_visibility_bins."""
    base = raw.get(1, {})
    if not base:
        raise ContagionError("need n_e = 1 cells to calibrate the baseline")
    pools = {}
    pool_id = 0
    acc = 0
    positive = sorted(nu for nu in base if nu > 0.0)
    for i, nu in enumerate(positive):
        pools[nu] = pool_id
        acc += base[nu][1]
        if acc >= min_responses and i != len(positive) - 1:
            pool_id += 1
            acc = 0
    out = {}
    for n_e, cells in sorted(raw.items()):
        merged = {}
        for nu, (n, r, snu) in cells.items():
            key = -1 if nu == 0.0 else pools.get(nu)
            if key is None:
                continue
            cell = merged.setdefault(key, [0, 0, 0.0])
            cell[0] += n
            cell[1] += r
            cell[2] += snu
        bins = [
            VisibilityBin(nu=snu / n, trials=n, responses=r, mean_nu=snu / n, index=key)
            for key, (n, r, snu) in sorted(merged.items())
            if n > 0
        ]
        if bins:
            out[n_e] = bins
    return out


def bin_snapshot(bins_by_ne):
    """Every VisibilityBin field, with exact types and the bits of each float."""
    return [
        (n_e, [(float.hex(b.nu), type(b.trials), b.trials, type(b.responses), b.responses,
                float.hex(b.mean_nu), type(b.index), b.index) for b in bins])
        for n_e, bins in bins_by_ne.items()
    ]


@settings(max_examples=300, deadline=None)
@given(
    site=st.sampled_from(["digg", "twitter"]),
    obs_end=st.integers(-5, 400),  # before every exposure, no cell is left
    min_responses=st.sampled_from([1, 2, 3, inference.MIN_BASELINE_RESPONSES]),
    rows=st.lists(series_rows(), max_size=12),
)
@example(site="twitter", obs_end=100, min_responses=1, rows=[])
@example(  # unresponded baselines at log bins that higher counts also reach
    site="digg", obs_end=300, min_responses=1,
    rows=[(2, (5, 9, 13), None), (2, (5, 9, 13), 31), (37, (40,), 45), (1, (3, 4), 200)],
)
def test_bin_builders_match_their_scalar_loops(site, obs_end, min_responses, rows):
    series = make_series(rows)
    trf = TRF[site]
    log_raw = scalar_bins(series, susceptibility, trf, site, obs_end)
    got = visibility_bins(collect_visibility_bins(series, susceptibility, trf, obs_end))
    assert bin_snapshot(got) == bin_snapshot(scalar_log_bins(log_raw))

    exact_raw = scalar_bins(series, susceptibility, trf, site, obs_end, exact=True)
    with patch.object(inference, "MIN_BASELINE_RESPONSES", min_responses):
        if 1 not in exact_raw:
            with pytest.raises(ContagionError, match="need n_e = 1 cells"):
                pooled_visibility_bins(series, susceptibility, trf, obs_end)
            with pytest.raises(ContagionError, match="need n_e = 1 cells"):
                scalar_pooled_bins(exact_raw, min_responses)
            return
        got = pooled_visibility_bins(series, susceptibility, trf, obs_end)
    assert bin_snapshot(got) == bin_snapshot(scalar_pooled_bins(exact_raw, min_responses))
