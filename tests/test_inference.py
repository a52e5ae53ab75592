import math

import numpy as np
import pytest

from contagion.errors import BracketError, ContagionError, FitError
from contagion.events import ExposureSeries
from contagion.inference import (
    CalibrationCurve,
    CalibrationPoint,
    VisibilityBin,
    collect_visibility_bins,
    fit_enhancement,
    fit_enhancement_by_cohort,
    fit_scale_and_floor,
    log_likelihood,
    pooled_visibility_bins,
    scale_fit_curve,
    visibility_bins,
    wmap_error,
)
from contagion.models import EnhancementTable, ModelParams
from contagion.simulate import (
    GraphSpec,
    GroundTruth,
    Seeding,
    generate_graph,
    simulate_cascades,
    synthetic_trf,
)
from contagion.events import build_series
from contagion.visibility import SusceptibilityCurve, SusceptibilityForm, TrfBundle


def point(p, o, n=100):
    return CalibrationPoint(predicted=p, observed=o, trials=n)


class TestWmapError:
    def test_perfect_calibration_is_zero(self):
        curve = CalibrationCurve(points=[point(0.1, 0.1), point(0.5, 0.5)])
        assert wmap_error(curve, 1.0, 0.0) == 0.0

    def test_affine_match_is_zero(self):
        curve = CalibrationCurve(points=[point(0.1, 0.05)])
        assert wmap_error(curve, 2.0, 0.0) == 0.0

    def test_hand_computed_weighted_mean(self):
        # |1*0.2 + 0 - 0.1|/0.1 = 1.0 with 300 trials,
        # |1*0.3 + 0 - 0.4|/0.4 = 0.25 with 100 trials
        curve = CalibrationCurve(points=[point(0.1, 0.2, 300), point(0.4, 0.3, 100)])
        expected = (300 * 1.0 + 100 * 0.25) / 400
        assert wmap_error(curve, 1.0, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_zero_predicted_rejected(self):
        curve = CalibrationCurve(points=[point(0.0, 0.2)])
        with pytest.raises(ContagionError):
            wmap_error(curve, 1.0, 0.0)


class TestFitScaleAndFloor:
    def make_curve(self, p0, v_min, noise=0.0, rng=None):
        pts = []
        for lg in np.linspace(-9, -4.2, 25):
            q = 10.0**lg
            o = p0 * q + v_min
            if noise:
                o *= 1.0 + noise * rng.standard_normal()
            pts.append(CalibrationPoint(predicted=q, observed=min(o, 1.0), trials=10_000))
        pts.append(CalibrationPoint(predicted=0.0, observed=v_min, trials=10**7))
        return CalibrationCurve(points=pts)

    def test_noiseless_recovery_within_refinement_tolerance(self):
        p0, v = fit_scale_and_floor(self.make_curve(16.6, math.exp(-14)))
        assert p0 == pytest.approx(16.6, rel=1e-3)
        assert math.log(v) == pytest.approx(-14.0, rel=1e-3)

    def test_noisy_recovery_within_five_percent(self):
        rng = np.random.default_rng(11)
        p0, v = fit_scale_and_floor(self.make_curve(667.0, math.exp(-19), 0.02, rng))
        assert p0 == pytest.approx(667.0, rel=0.05)
        assert math.log(v) == pytest.approx(-19.0, rel=0.05)

    def test_degenerate_curve_rejected(self):
        curve = CalibrationCurve(points=[point(0.1, 0.0), point(0.2, 0.0), point(0.3, 0.0)])
        with pytest.raises(FitError):
            fit_scale_and_floor(curve)

    def test_too_few_points_rejected(self):
        curve = CalibrationCurve(points=[point(0.1, 0.05), point(0.2, 0.1)])
        with pytest.raises(FitError):
            fit_scale_and_floor(curve)

    def test_invariant_under_trial_scaling(self):
        base = self.make_curve(16.6, math.exp(-14))
        scaled = CalibrationCurve(
            points=[
                CalibrationPoint(pt.predicted, pt.observed, pt.trials * 13)
                for pt in base.points
            ]
        )
        assert fit_scale_and_floor(base) == pytest.approx(fit_scale_and_floor(scaled))


def vbin(nu, trials, responses, index=None):
    return VisibilityBin(nu=nu, trials=trials, responses=responses,
                         mean_nu=nu, index=nu if index is None else index)


class TestFitEnhancement:
    def test_single_bin_closed_form(self):
        bins = {
            1: [vbin(1e-3, 100, 20)],
            2: [vbin(1e-3, 100, 40)],
        }
        table = fit_enhancement(bins)
        assert table.values[1] == 1.0
        assert table.values[2] == pytest.approx(2.0, abs=1e-8)

    def test_baseline_only_is_closed_form(self):
        bins = {1: [vbin(1e-3, 80, 12), vbin(1e-2, 40, 10)]}
        table = fit_enhancement(bins)
        assert table.values == {1: 1.0}

    def test_zero_responses_hits_boundary(self):
        bins = {
            1: [vbin(1e-3, 100, 20)],
            3: [vbin(1e-3, 500, 0)],
        }
        table = fit_enhancement(bins)
        assert table.values[3] == 0.0

    def test_stationarity_residual_on_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n_bins = rng.integers(2, 6)
            nus = sorted(rng.uniform(1e-4, 5e-2, size=n_bins))
            true_f = rng.uniform(0.5, 3.0)
            bins = {1: [], 2: []}
            cells = []
            for nu in nus:
                n1 = int(rng.integers(5_000, 40_000))
                p = min(nu * 30, 0.02)
                r1 = int(rng.binomial(n1, p))
                if r1 == 0:
                    continue
                bins[1].append(vbin(nu, n1, r1))
                n2 = int(rng.integers(2_000, 20_000))
                r2 = int(rng.binomial(n2, min(true_f * p, 0.9)))
                bins[2].append(vbin(nu, n2, r2))
                cells.append((n2, r2, r1 / n1))
            if not bins[2] or all(c[1] == 0 for c in cells):
                continue
            table = fit_enhancement(bins)
            f_hat = table.values[2]
            residual = sum(
                r / f_hat - (n - r) * p / (1 - f_hat * p) for n, r, p in cells
            )
            assert abs(residual) <= 1e-8

    def test_returned_factor_is_local_likelihood_max(self):
        bins = {
            1: [vbin(2e-3, 50_000, 110), vbin(8e-3, 30_000, 260)],
            2: [vbin(2e-3, 20_000, 80), vbin(8e-3, 10_000, 150)],
        }
        table = fit_enhancement(bins)
        f = table.values[2]
        cells = [(20_000, 80, 110 / 50_000), (10_000, 150, 260 / 30_000)]
        center = log_likelihood(f, cells)
        assert center >= log_likelihood(f * 1.001, cells)
        assert center >= log_likelihood(f * 0.999, cells)

    def test_factor_keeps_probability_valid(self):
        bins = {
            1: [vbin(0.02, 1000, 500)],  # P = 0.5
            2: [vbin(0.02, 1000, 900)],
        }
        table = fit_enhancement(bins)
        assert table.values[2] * 0.5 <= 1.0

    def test_missing_baseline_bin_rejected(self):
        bins = {
            1: [vbin(1e-3, 100, 20)],
            2: [vbin(9e-3, 100, 40)],
        }
        with pytest.raises(ContagionError):
            fit_enhancement(bins)

    def test_no_sign_change_reports_endpoints(self):
        # all successes at n_e=2 push F to the bracket edge
        bins = {
            1: [vbin(1e-3, 1000, 100)],
            2: [vbin(1e-3, 50, 50)],
        }
        with pytest.raises(BracketError) as err:
            fit_enhancement(bins)
        assert err.value.f_lo > 0


DIGG_CONSTANTS = {"A": 7.6e-3, "B": -6.2e-2, "C": 1.7e-3, "D": 3.7, "E": 17.8}


def small_digg_truth(f_values, seed=3, users=2500, items=40):
    # flat delay density: one visibility level, so the recovery isolates the
    # maximum-likelihood machinery from binning composition effects
    horizon = 1800
    trf = TrfBundle(
        t1=synthetic_trf("T1", horizon, gamma=0.0),
        t10=synthetic_trf("T10", horizon, gamma=0.0),
        t100=synthetic_trf("T100", horizon, gamma=0.0),
        site="digg",
    )
    params = ModelParams(
        site="digg",
        p0=667.0,
        log_v_min=-19.0,
        enhancement=EnhancementTable(values=f_values, saturates=True),
        susceptibility=SusceptibilityCurve(form=SusceptibilityForm.DIGG, params=DIGG_CONSTANTS),
        trf=trf,
    )
    return GroundTruth(
        params=params,
        graph=GraphSpec(
            users=users,
            kind="bands",
            bands=((users - 1200, 1, 2), (200, 9, 11), (900, 30, 30), (100, 90, 110)),
        ),
        seeding=Seeding(items=items, posters_per_item=users // 8, post_time_spread=45),
        horizon=2 * horizon,
        rng_seed=seed,
    )


class TestEnhancementRecovery:
    def test_simulator_oracle_recovers_known_factors(self):
        truth = small_digg_truth({1: 1.0, 2: 1.5, 3: 1.8})
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
        assert table.values[2] == pytest.approx(1.5, rel=0.10)
        assert table.values[3] == pytest.approx(1.8, rel=0.12)

    def test_cohort_tables_match_single_partition(self):
        truth = small_digg_truth({1: 1.0, 2: 1.6}, users=1500, items=15)
        graph = generate_graph(truth.graph, truth.rng_seed)
        events = simulate_cascades(truth, graph)
        series = build_series(events, graph)
        sus = truth.params.susceptibility.analytic
        whole = fit_enhancement_by_cohort(
            series, [(1, 10_000)], sus, truth.params.trf, truth.horizon
        )
        direct = fit_enhancement(
            visibility_bins(collect_visibility_bins(series, sus, truth.params.trf, truth.horizon))
        )
        table = whole[(1, 10_000)]
        for n_e, value in direct.values.items():
            assert table.values[n_e] == pytest.approx(value, rel=1e-9)

    def test_empty_cohort_skipped_with_warning(self, caplog):
        truth = small_digg_truth({1: 1.0}, users=1500, items=5)
        graph = generate_graph(truth.graph, truth.rng_seed)
        events = simulate_cascades(truth, graph)
        series = build_series(events, graph)
        out = fit_enhancement_by_cohort(
            series,
            [(5000, 6000)],
            truth.params.susceptibility.analytic,
            truth.params.trf,
            truth.horizon,
        )
        assert out == {}


class TestVisibilityBinCollection:
    def test_counts_balance_and_respect_risk_window(self):
        trf = TrfBundle(
            t1=synthetic_trf("T1", 64, gamma=1.0),
            t10=synthetic_trf("T10", 64, gamma=1.0),
            t100=synthetic_trf("T100", 64, gamma=1.0),
            site="digg",
        )
        s = ExposureSeries(user="a", item="x", n_f=1,
                           exposure_times=(10, 20), response_time=25)
        raw = collect_visibility_bins([s], lambda nf: 0.01, trf, 1000)
        # trials: seconds 10..25 inclusive = 16, split between n_e=1 and n_e=2
        total = sum(cell[0] for cells in raw.values() for cell in cells.values())
        assert total == 16
        assert sum(cell[0] for cell in raw[1].values()) == 10  # seconds 10..19
        assert sum(cell[0] for cell in raw[2].values()) == 6   # seconds 20..25
        responses = sum(cell[1] for cells in raw.values() for cell in cells.values())
        assert responses == 1
        assert sum(cell[1] for cell in raw[2].values()) == 1

    def test_scale_fit_curve_filters_sparse_bins(self):
        trf = TrfBundle(
            t1=synthetic_trf("T1", 64, gamma=1.0),
            t10=synthetic_trf("T10", 64, gamma=1.0),
            t100=synthetic_trf("T100", 64, gamma=1.0),
            site="digg",
        )
        rows = [
            ExposureSeries(user=f"u{i}", item="x", n_f=1,
                           exposure_times=(0,), response_time=(3 if i < 4 else None))
            for i in range(50)
        ]
        curve = scale_fit_curve(collect_visibility_bins(rows, lambda nf: 0.01, trf, 64),
                                min_responses=1)
        assert all(pt.trials >= 30 for pt in curve.points)
        assert all(pt.observed > 0 for pt in curve.points)
