import math
import signal

import numpy as np
import pytest

from contagion.errors import ContagionError
from contagion.events import ExposureSeries
from contagion.forecast import ForecastPoint, calibration, forecast_points, forecast_window
from contagion.inference import wmap_error
from contagion.models import EnhancementTable, ModelParams, digg_probability
from contagion.simulate import synthetic_trf
from contagion.visibility import SusceptibilityCurve, SusceptibilityForm, TrfBundle


def flat_params(sus=0.5, p0=1.0, log_v_min=-math.inf, horizon=64, f_values=None):
    trf = TrfBundle(
        t1=synthetic_trf("T1", horizon, gamma=0.0),
        t10=synthetic_trf("T10", horizon, gamma=0.0),
        t100=synthetic_trf("T100", horizon, gamma=0.0),
        site="digg",
    )
    return ModelParams(
        site="digg",
        p0=p0,
        log_v_min=log_v_min,
        enhancement=EnhancementTable(values=f_values or {1: 1.0}, saturates=True),
        susceptibility=SusceptibilityCurve(
            form=SusceptibilityForm.TWITTER, params={"A": sus, "P": 1.0, "B": 0.0}
        ),
        trf=trf,
    )


def series(times, response=None, n_f=1):
    return ExposureSeries(user="u", item="x", n_f=n_f,
                          exposure_times=tuple(times), response_time=response)


class TestForecastWindow:
    def test_constant_hazard_closed_form(self):
        params = flat_params(sus=0.5)
        c = 0.5 / 63.0  # flat density over the 63-second support
        s = series([0])
        for window in (1, 5, 30):
            got = forecast_window(params, s, t=1, window=window)
            assert got == pytest.approx(1.0 - (1.0 - c) ** window, rel=1e-12)

    def test_window_of_one_is_per_second_probability(self):
        params = flat_params(sus=0.5)
        got = forecast_window(params, series([0]), t=7, window=1)
        assert got == pytest.approx(digg_probability(params, 1, 0, 1, 7), rel=1e-12)

    def test_zero_probability_throughout(self):
        params = flat_params(sus=0.5, log_v_min=-math.inf)
        # beyond the delay support with no floor, nothing can happen
        got = forecast_window(params, series([0]), t=100, window=30)
        assert got == 0.0

    def test_monotone_in_window_length_and_bounded(self):
        params = flat_params(sus=0.9)
        s = series([0])
        previous = 0.0
        for window in (1, 2, 4, 8, 16, 32, 64, 128):
            value = forecast_window(params, s, t=1, window=window)
            assert value >= previous - 1e-15
            assert value <= 1.0
            previous = value

    def test_midwindow_exposure_included_from_arrival(self):
        params = flat_params(sus=0.5, f_values={1: 1.0, 2: 2.0})
        quiet = forecast_window(params, series([0]), t=1, window=30)
        boosted = forecast_window(params, series([0, 10]), t=1, window=30)
        assert boosted > quiet
        # hand-compose: seconds 1..9 at F(1), seconds 10..30 at F(2)
        c = 0.5 / 63.0
        manual = 1.0 - (1.0 - c) ** 9 * (1.0 - min(2 * c, 1.0)) ** 21
        assert boosted == pytest.approx(manual, rel=1e-12)

    def test_rejects_bad_inputs(self):
        params = flat_params()
        with pytest.raises(ContagionError):
            forecast_window(params, series([0]), t=1, window=0)
        with pytest.raises(ContagionError):
            forecast_window(params, series([0], response=3), t=5, window=10)

    def test_monte_carlo_agreement(self):
        # replay the per-second model draws and compare the empirical window
        # frequency against the composed probability
        params = flat_params(sus=0.6, f_values={1: 1.0, 2: 1.5})
        s = series([0, 12], n_f=1)
        t, window = 5, 30
        predicted = forecast_window(params, s, t, window)
        rates = []
        for sec in range(t, t + window):
            visible = [x for x in s.exposure_times if x <= sec]
            rates.append(
                digg_probability(params, s.n_f, visible[0], len(visible), sec)
                if visible else params.v_min
            )
        rng = np.random.default_rng(99)
        draws = rng.random((10_000, window)) < np.array(rates)
        empirical = float(np.mean(draws.any(axis=1)))
        se = math.sqrt(predicted * (1 - predicted) / 10_000)
        assert empirical == pytest.approx(predicted, abs=4 * se)


class TestForecastPoints:
    def test_windows_tile_until_response(self):
        params = flat_params(sus=0.5)
        s = series([0], response=70)
        points = forecast_points(params, [s], window=30)
        assert [pt.window_start for pt in points] == [0, 30, 60]
        assert [pt.responded for pt in points] == [False, False, True]

    def test_a_model_with_a_gap_in_its_factors_is_rejected(self):
        doc = flat_params(sus=0.5, f_values={1: 1.0, 4: 3.0}).to_json_dict()
        params = ModelParams.from_json_dict(doc)
        assert len(forecast_points(params, [series([0, 100])], window=30, obs_end=60)) == 3
        with pytest.raises(ContagionError, match="no enhancement factor for exposure count 2"):
            forecast_points(params, [series([0, 100])], window=30, obs_end=90)

    def test_stride_and_horizon_controls(self):
        params = flat_params(sus=0.5)
        s = series([0])
        points = forecast_points(params, [s], window=30, stride=15, eval_horizon=60)
        assert [pt.window_start for pt in points] == [0, 15, 30, 45, 60]

    def test_defaults_stop_at_the_last_event_time(self):
        # Unbounded tiling never returns; the timer turns a hang into a failure.
        def give_up(signum, frame):
            raise TimeoutError("forecast_points did not return")

        previous = signal.signal(signal.SIGALRM, give_up)
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            points = forecast_points(flat_params(sus=0.5), [series([5]), series([0], response=70)])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        # the never-responding series stops at the other series' response, 70
        assert [pt.window_start for pt in points] == [5, 35, 65, 0, 30, 60]


class TestCalibration:
    def test_single_bin_recovers_frequency(self):
        points = [
            ForecastPoint(user=f"u{i}", item="x", window_start=0, window_len=30,
                          predicted=0.3, responded=i < 3)
            for i in range(10)
        ]
        curve, wmap = calibration(points)
        assert len(curve.points) == 1
        assert curve.points[0].observed == pytest.approx(0.3)
        assert wmap == pytest.approx(0.0, abs=1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(ContagionError):
            calibration([])

    def test_consistent_forecasts_converge_to_diagonal(self):
        def run(n, seed):
            rng = np.random.default_rng(seed)
            points = []
            for _ in range(n):
                p = float(10 ** rng.uniform(-2, -0.5))
                points.append(
                    ForecastPoint(user="u", item="x", window_start=0, window_len=30,
                                  predicted=p, responded=bool(rng.random() < p))
                )
            _, wmap = calibration(points)
            return wmap

        small = run(5_000, 12)
        large = run(200_000, 12)
        assert large < 0.03
        assert large < small

    def test_ignoring_enhancement_biases_low(self):
        # truth responds at 2x the model's prediction for boosted windows;
        # the matched model stays near the diagonal
        rng = np.random.default_rng(21)
        truthful, ablated = [], []
        for _ in range(60_000):
            base = float(10 ** rng.uniform(-2.5, -1.0))
            outcome = bool(rng.random() < 2.0 * base)
            truthful.append(
                ForecastPoint(user="u", item="x", window_start=0, window_len=30,
                              predicted=min(2.0 * base, 1.0), responded=outcome)
            )
            ablated.append(
                ForecastPoint(user="u", item="x", window_start=0, window_len=30,
                              predicted=base, responded=outcome)
            )
        _, wmap_true = calibration(truthful)
        _, wmap_ablated = calibration(ablated)
        assert wmap_ablated > wmap_true
        assert wmap_ablated > 0.5  # observed sits a factor 2 off the diagonal

    def test_sparse_bins_excluded_from_error(self):
        points = [
            ForecastPoint(user=f"a{i}", item="x", window_start=0, window_len=30,
                          predicted=0.305, responded=i < 30)
            for i in range(100)
        ]
        points += [
            ForecastPoint(user=f"b{i}", item="x", window_start=0, window_len=30,
                          predicted=0.8, responded=False)
            for i in range(5)
        ]
        curve, wmap = calibration(points)
        # the tiny 0.8 bin is reported on the curve but not in the error
        assert len(curve.points) == 2
        big = next(pt for pt in curve.points if pt.trials == 100)
        assert wmap == pytest.approx(abs(big.observed - big.predicted) / big.predicted)


def test_wmap_identity_matches_inference_formula():
    pts = [
        ForecastPoint(user=f"u{i}", item="x", window_start=0, window_len=30,
                      predicted=0.2, responded=i < 20)
        for i in range(50)
    ]
    curve, wmap = calibration(pts)
    assert wmap == pytest.approx(wmap_error(curve, 1.0, 0.0))
