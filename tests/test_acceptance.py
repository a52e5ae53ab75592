"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the whole module takes a few minutes, dominated by the end-to-end
recovery run.
"""

import math
import time

import numpy as np
import pytest

from contagion.events import ExposureSeries, build_series
from contagion.forecast import calibration, forecast_points
from contagion.inference import fit_enhancement, wmap_error
from contagion.models import (
    EnhancementTable,
    ModelParams,
    effective_enhancement,
    exposure_response_curve,
    response_probability,
    visibility_all,
    visibility_distribution,
    visibility_exactly,
)
from contagion.inference import VisibilityBin
from contagion.simulate import (
    GraphSpec,
    GroundTruth,
    Seeding,
    generate_graph,
    recovery_experiment,
    simulate_cascades,
    synthetic_trf,
)
from contagion.visibility import (
    SusceptibilityCurve,
    SusceptibilityForm,
    TimeResponseFunction,
    TrfBundle,
    interpolate_trf,
)

DIGG_CONSTANTS = {"A": 7.6e-3, "B": -6.2e-2, "C": 1.7e-3, "D": 3.7, "E": 17.8}


def report(number, description):
    print(f"\nACCEPTANCE {number}: PASS - {description}")


def test_criterion_1_generating_function_oracle():
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    worst_gap = 0.0
    worst_sum = 0.0
    for _ in range(1000):
        n_e = int(rng.integers(1, 13))
        taus = rng.random(n_e) * 0.999999
        dist = visibility_distribution(taus)
        worst_sum = max(worst_sum, abs(math.fsum(dist) - 1.0))
        for n in range(n_e + 1):
            worst_gap = max(worst_gap, abs(dist[n] - visibility_exactly(taus, n)))
    elapsed = time.monotonic() - start
    assert worst_gap <= 1e-12
    assert worst_sum <= 1e-12
    assert elapsed < 10.0
    report(1, f"distribution vs enumeration gap {worst_gap:.2e}, "
              f"mass error {worst_sum:.2e}, {elapsed:.1f}s")


def test_criterion_2_unit_enhancement_collapse():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(1000):
        n_e = int(rng.integers(1, 13))
        taus = rng.random(n_e) * 0.999999
        gap = abs(response_probability(taus, lambda n: 1.0) - visibility_all(taus))
        worst = max(worst, gap)
    assert worst <= 1e-15
    report(2, f"collapse gap {worst:.2e} over 1000 random inputs")


def test_criterion_3_linear_enhancement_expansion():
    worst_margin = math.inf
    for alpha, beta in ((1.0, 0.0), (0.5, 0.7)):
        for tau0 in (1e-6, 1e-4, 1e-2):
            for n_e in (2, 5, 10):
                ratio = effective_enhancement([tau0] * n_e,
                                              lambda n: alpha * n + beta)
                linear = alpha + beta + 0.5 * alpha * (n_e - 1) * tau0
                bound = 10.0 * tau0 * tau0
                assert abs(ratio - linear) <= bound
                worst_margin = min(worst_margin, bound - abs(ratio - linear))
    report(3, f"expansion bound satisfied, smallest margin {worst_margin:.2e}")


def test_criterion_4_enhancement_mle_correctness():
    def vbin(nu, trials, responses):
        return VisibilityBin(nu=nu, trials=trials, responses=responses,
                             mean_nu=nu, index=nu)

    table = fit_enhancement({
        1: [vbin(1e-3, 100, 20)],
        2: [vbin(1e-3, 100, 40)],
    })
    assert table.values[2] == pytest.approx(2.0, abs=1e-8)

    rng = np.random.default_rng(1004)
    worst_residual = 0.0
    for _ in range(25):
        bins = {1: [], 2: []}
        cells = []
        for _ in range(int(rng.integers(2, 7))):
            nu = float(rng.uniform(1e-4, 3e-2))
            n1 = int(rng.integers(5_000, 50_000))
            r1 = int(rng.binomial(n1, min(nu * 20, 0.05)))
            if r1 == 0:
                continue
            n2 = int(rng.integers(2_000, 20_000))
            r2 = int(rng.binomial(n2, min(1.7 * r1 / n1, 0.9)))
            bins[1].append(vbin(nu, n1, r1))
            bins[2].append(vbin(nu, n2, r2))
            cells.append((n2, r2, r1 / n1))
        if not cells or all(r == 0 for _, r, _ in cells):
            continue
        f_hat = fit_enhancement(bins).values[2]
        if f_hat == 0.0:
            continue
        residual = abs(sum(
            r / f_hat - (n - r) * p / (1.0 - f_hat * p) for n, r, p in cells
        ))
        worst_residual = max(worst_residual, residual)
    assert worst_residual <= 1e-8
    report(4, f"single-bin factor exact, worst stationarity residual "
              f"{worst_residual:.2e}")


def _digg_truth():
    trf_horizon = 4 * 3600
    trf = TrfBundle(
        t1=synthetic_trf("T1", trf_horizon, gamma=0.85),
        t10=synthetic_trf("T10", trf_horizon, gamma=1.0),
        t100=synthetic_trf("T100", trf_horizon, gamma=1.25),
        site="digg",
    )
    params = ModelParams(
        site="digg",
        p0=667.0,
        log_v_min=-19.0,
        enhancement=EnhancementTable(
            values={1: 1.0, 2: 1.5, 3: 1.8, 4: 2.0}, saturates=True
        ),
        susceptibility=SusceptibilityCurve(
            form=SusceptibilityForm.DIGG, params=dict(DIGG_CONSTANTS)
        ),
        trf=trf,
    )
    truth = GroundTruth(
        params=params,
        graph=GraphSpec(
            users=10_000,
            kind="bands",
            bands=((4600, 1, 2), (900, 9, 11), (3500, 30, 30), (200, 90, 110)),
        ),
        seeding=Seeding(
            items=375,
            posters_per_item=(1200, 1200, 1200, 1200, 250),
            post_time_spread=60,
        ),
        horizon=8 * 3600,
        rng_seed=42,
    )
    return truth, trf_horizon


def test_criterion_5_end_to_end_digg_recovery():
    truth, trf_horizon = _digg_truth()
    start = time.monotonic()
    rep = recovery_experiment(
        truth, trf_horizon=trf_horizon, enhancement_cohort=(30, 30)
    )
    elapsed = time.monotonic() - start
    assert rep.events_total >= 1_000_000
    assert rep.p0_rel_err <= 0.10, f"p0 err {rep.p0_rel_err:.2%}"
    assert rep.log_v_min_rel_err <= 0.10, f"log v_min err {rep.log_v_min_rel_err:.2%}"
    for n_e in (2, 3, 4):
        err = rep.enhancement_rel_err(n_e)
        assert err <= 0.05, f"F({n_e}) err {err:.2%}"
    assert elapsed < 300.0
    report(5, f"{rep.events_total} events in {elapsed:.0f}s; "
              f"p0 {rep.p0_rel_err:.2%}, log v_min {rep.log_v_min_rel_err:.2%}, "
              f"F errs {[f'{rep.enhancement_rel_err(n):.2%}' for n in (2, 3, 4)]}")


def test_criterion_6_calibration_consistency_and_ablation():
    support = 256
    trf = TrfBundle(
        t1=synthetic_trf("T1", support, gamma=0.0),
        t10=synthetic_trf("T10", support, gamma=0.0),
        t100=synthetic_trf("T100", support, gamma=0.0),
        site="digg",
    )
    params = ModelParams(
        site="digg",
        p0=1.0,
        log_v_min=-19.0,
        enhancement=EnhancementTable(
            values={1: 1.0, 2: 1.5, 3: 1.8, 4: 2.0}, saturates=True
        ),
        susceptibility=SusceptibilityCurve(
            form=SusceptibilityForm.TWITTER, params={"A": 0.2, "P": 1.0, "B": 0.0}
        ),
        trf=trf,
    )
    truth = GroundTruth(
        params=params,
        graph=GraphSpec(users=3000, kind="constant", k=30),
        seeding=Seeding(items=55, posters_per_item=300, post_time_spread=120),
        horizon=512,
        rng_seed=31,
    )
    graph = generate_graph(truth.graph, truth.rng_seed)
    series = build_series(simulate_cascades(truth, graph), graph)
    points = forecast_points(params, series, window=30, eval_horizon=240, obs_end=512)
    assert len(points) >= 1_000_000
    _, wmap_true = calibration(points)
    assert wmap_true <= 0.02, f"true-model wmap {wmap_true:.3%}"

    ablated = ModelParams(
        site="digg",
        p0=1.0,
        log_v_min=-19.0,
        enhancement=EnhancementTable(values={1: 1.0}, saturates=True),
        susceptibility=params.susceptibility,
        trf=trf,
    )
    pts_ablated = forecast_points(ablated, series, window=30, eval_horizon=240, obs_end=512)
    _, wmap_ablated = calibration(pts_ablated)
    assert wmap_ablated > wmap_true
    report(6, f"{len(points)} forecast points: true-model wmap {wmap_true:.3%} "
              f"<= 2%, unit-enhancement wmap {wmap_ablated:.1%} strictly larger")


def test_criterion_7_aggregation_bends_exposure_response():
    series = []
    uid = 0

    def add(n_f, count, times, response):
        nonlocal uid
        for _ in range(count):
            series.append(ExposureSeries(
                user=f"u{uid}", item="x", n_f=n_f,
                exposure_times=tuple(times), response_time=response,
            ))
            uid += 1

    # responsive low-friend cohort, capped at two exposures
    add(1, 200, [10], 11)
    add(1, 180, [10, 20], 21)
    add(1, 420, [10, 20], None)
    # sluggish high-friend cohort that keeps receiving exposures
    add(100, 80, [10], 11)
    add(100, 95, [10, 20], 21)
    add(100, 102, [10, 20, 30], 31)
    add(100, 108, [10, 20, 30, 40], 41)
    add(100, 7615, [10, 20, 30, 40], None)

    low = exposure_response_curve([s for s in series if s.n_f == 1])
    high = exposure_response_curve([s for s in series if s.n_f == 100])
    aggregate = exposure_response_curve(series)

    assert low[2] > low[1]
    for n in (2, 3, 4):
        assert high[n] > high[n - 1]
    rises = aggregate[2] > aggregate[1]
    falls = aggregate[3] < aggregate[2]
    assert rises and falls
    report(7, "cohort curves rise monotonically while the aggregate "
              f"bends down: {aggregate[1]:.4f} -> {aggregate[2]:.4f} -> "
              f"{aggregate[3]:.4f}")


def test_criterion_8_interpolation_reproduces_cohorts():
    edges = (1, 2, 4, 8, 16)
    def make(label, masses):
        density = tuple(m / w for m, w in zip(masses, (1, 2, 4, 8)))
        return TimeResponseFunction(label, edges, density)

    t1 = make("T1", (0.55, 0.25, 0.15, 0.05))
    t10 = make("T10", (0.25, 0.40, 0.25, 0.10))
    t100 = make("T100", (0.05, 0.15, 0.30, 0.50))
    worst = 0.0
    for site in ("twitter", "digg"):
        for n_f, ref in ((1, t1), (10, t10), (100, t100)):
            for dt in (1, 2, 5, 9, 15):
                got = interpolate_trf(t1, t10, t100, n_f, site, dt)
                want = ref.density_at(dt)
                worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-5
    report(8, f"cohort-center interpolation worst relative error {worst:.2e}")
