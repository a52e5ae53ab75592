import math
import signal
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contagion import forecast
from contagion.errors import ContagionError
from contagion.events import ExposureSeries
from contagion.forecast import (
    MAX_WINDOWS, ForecastPoint, calibration, forecast_points, forecast_window,
)
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


@contextmanager
def returns_within(seconds):
    """Turn a hang into a failure: unbounded tiling never returns."""
    def give_up(signum, frame):
        raise TimeoutError("forecast_points did not return")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
        points = forecast_points(params, [s], window=30, obs_end=70)
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
        points = forecast_points(params, [s], window=30, stride=15, eval_horizon=60,
                                 obs_end=1000)
        assert [pt.window_start for pt in points] == [0, 15, 30, 45, 60]

    def test_defaults_stop_at_the_last_event_time(self):
        with returns_within(2.0):
            points = forecast_points(flat_params(sus=0.5), [series([5]), series([0], response=70)],
                                     obs_end=70)
        # the never-responding series stops at obs_end, the last event time
        assert [pt.window_start for pt in points] == [5, 35, 65, 0, 30, 60]

    def test_a_tiling_past_max_windows_is_rejected_before_it_starts(self):
        # without eval_horizon, a never-responding series would need ~3e14 windows
        with returns_within(2.0), pytest.raises(ContagionError, match=f"more than {MAX_WINDOWS}"):
            forecast_points(flat_params(sus=0.5), [series([0])], obs_end=2**53 - 1)

    def test_a_window_at_2_53_is_rejected(self):
        with pytest.raises(ContagionError, match="window 9007199254740992 is not below 2"):
            forecast_points(flat_params(sus=0.5), [series([0])], window=2**53, obs_end=10)
        assert len(forecast_points(flat_params(sus=0.5), [series([0])], window=2**53 - 1,
                                   obs_end=10)) == 1


def loop_tiling(series_list, window, stride, eval_horizon, obs_end):
    """(series, window_start, responded) as a per-window loop tiles them, one step at a time."""
    out = []
    for s in series_list:
        t = s.exposure_times[0]
        limit = obs_end if eval_horizon is None else min(obs_end, t + eval_horizon)
        while t <= limit:
            if s.response_time is not None and s.response_time < t:
                break
            responded = s.response_time is not None and t <= s.response_time < t + window
            out.append((s, t, responded))
            if responded:
                break
            t += stride
    return out


@st.composite
def tiled_series(draw):
    first = draw(st.integers(0, 200))
    later = draw(st.lists(st.integers(1, 300), max_size=3, unique=True))
    times = [first] + sorted(first + d for d in later)
    # missing, at an exposure, in a gap between windows, or past obs_end
    response = draw(st.none() | st.integers(first, first + 700))
    return ExposureSeries(user=f"u{draw(st.integers(0, 10**6))}", item="x",
                          n_f=draw(st.integers(1, 3)), exposure_times=tuple(times),
                          response_time=response)


TILING_PARAMS = flat_params(sus=0.7, log_v_min=-9.0, f_values={1: 1.0, 2: 1.5, 3: 1.8})


@settings(max_examples=150, deadline=None)
@given(
    series_list=st.lists(tiled_series(), min_size=1, max_size=3),
    window=st.integers(1, 60),
    stride=st.integers(1, 90),
    eval_horizon=st.none() | st.integers(0, 300),
    obs_end=st.integers(-50, 800),
)
def test_tiling_matches_a_per_window_loop(series_list, window, stride, eval_horizon, obs_end):
    points = forecast_points(TILING_PARAMS, series_list, window=window, stride=stride,
                             eval_horizon=eval_horizon, obs_end=obs_end)
    expected = loop_tiling(series_list, window, stride, eval_horizon, obs_end)
    assert [(pt.window_start, pt.responded) for pt in points] == [(t, r) for _, t, r in expected]
    for pt, (s, t, _) in zip(points, expected):
        assert (pt.user, pt.item) == (s.user, s.item)
        assert pt.predicted == forecast_window(TILING_PARAMS, s, t, window)


@st.composite
def kernel_models(draw):
    site = draw(st.sampled_from(["digg", "twitter"]))  # first exposure vs all-exposure visibility
    horizon = draw(st.sampled_from([16, 64]))  # 16: windows run past the delay support
    gamma = draw(st.sampled_from([0.0, 1.2]))
    trf = TrfBundle(t1=synthetic_trf("T1", horizon, gamma=gamma),
                    t10=synthetic_trf("T10", horizon, gamma=gamma + 0.3),
                    t100=synthetic_trf("T100", horizon, gamma=gamma + 0.6), site=site)
    f2 = draw(st.sampled_from([1.5, 400.0]))  # 400 drives lam >= 1 on either site
    return ModelParams(
        site=site,
        p0=draw(st.sampled_from([0.3, 1.0, 7.0])),
        log_v_min=draw(st.sampled_from([-math.inf, -9.0])),  # -inf: lam == 0 past the support
        enhancement=EnhancementTable(values={1: 1.0, 2: f2, 3: 1.8}, saturates=True),
        susceptibility=SusceptibilityCurve(
            form=SusceptibilityForm.TWITTER,
            params={"A": draw(st.sampled_from([0.05, 0.6])), "P": 1.0, "B": 0.0},
        ),
        trf=trf,
    )


@st.composite
def bursty_series(draw):
    first = draw(st.integers(0, 100))
    # up to 12 exposures inside one window's span give windows of 9 or more runs
    burst = draw(st.lists(st.integers(1, 40), max_size=12, unique=True))
    later = draw(st.lists(st.integers(41, 400), max_size=3, unique=True))
    times = [first] + sorted(first + d for d in burst + later)
    return ExposureSeries(user=f"u{draw(st.integers(0, 10**6))}", item="x",
                          n_f=draw(st.sampled_from([1, 2, 12, 150])),
                          exposure_times=tuple(times),
                          response_time=draw(st.none() | st.integers(first, first + 500)))


@settings(max_examples=200, deadline=None)
@given(
    params=kernel_models(),
    series_list=st.lists(bursty_series(), min_size=1, max_size=4, unique_by=lambda s: s.user),
    window=st.integers(1, 60),
    stride=st.integers(1, 45),  # often below the window: overlapping windows
    eval_horizon=st.none() | st.integers(0, 400),
    block_windows=st.integers(1, 7),  # a series' windows span several blocks
)
def test_block_predictions_equal_the_scalar_reference(
    params, series_list, window, stride, eval_horizon, block_windows
):
    with mock.patch.object(forecast, "BLOCK_WINDOWS", block_windows):
        points = forecast_points(params, series_list, window=window, stride=stride,
                                 eval_horizon=eval_horizon, obs_end=600)
    by_user = {s.user: s for s in series_list}
    got = [pt.predicted for pt in points]
    want = [forecast_window(params, by_user[pt.user], pt.window_start, window) for pt in points]
    assert got == want
    # bit for bit: forecasts.csv writes -0.0 as "-0"
    assert [p.hex() for p in got] == [p.hex() for p in want]


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
