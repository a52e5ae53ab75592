import math

import pytest

from contagion.errors import BinMismatchError, ContagionError, EmptyCohortError, FitError
from contagion.events import ExposureSeries
from contagion.visibility import (
    COHORTS,
    SusceptibilityCurve,
    SusceptibilityForm,
    TimeResponseFunction,
    TrfBundle,
    estimate_susceptibility,
    estimate_trf,
    evaluate_form,
    fit_susceptibility_analytic,
    interpolate_trf,
)

DIGG_CONSTANTS = {"A": 7.6e-3, "B": -6.2e-2, "C": 1.7e-3, "D": 3.7, "E": 17.8}
TWITTER_CONSTANTS = {"A": 0.3, "P": 0.16, "B": 0.55}


def series(n_f, times, response, user="u", item="x"):
    return ExposureSeries(user=user, item=item, n_f=n_f,
                          exposure_times=tuple(times), response_time=response)


def many(n_f, dts, item_prefix="i"):
    return [
        series(n_f, [0], dt, user=f"u{k}", item=f"{item_prefix}{k}")
        for k, dt in enumerate(dts)
    ]


class TestEstimateTrf:
    def test_degenerate_all_mass_in_first_bin(self):
        trf = estimate_trf(many(1, [1] * 20), (1, 2), single_exposure_only=True, horizon=64)
        assert trf.density[0] * (trf.bin_edges[1] - trf.bin_edges[0]) == pytest.approx(1.0)
        assert trf.total_mass == pytest.approx(1.0, abs=1e-9)

    def test_uniform_delays_give_flat_density(self):
        # one response at every integer delay 1..100: density 0.01/s in every
        # bin fully inside the support
        trf = estimate_trf(many(1, list(range(1, 101))), (1, 2), True, horizon=128)
        for k, (a, b) in enumerate(zip(trf.bin_edges, trf.bin_edges[1:])):
            if b <= 101:
                assert trf.density[k] == pytest.approx(0.01, rel=1e-12)
        assert trf.total_mass == pytest.approx(1.0, abs=1e-9)

    def test_empty_cohort_errors_with_range(self):
        with pytest.raises(EmptyCohortError) as err:
            estimate_trf(many(5, [1, 2, 3]), (90, 110), False, horizon=64)
        assert "90" in str(err.value) and "110" in str(err.value)

    def test_single_exposure_constraint_filters(self):
        data = [
            series(1, [0], 4, user="a", item="x"),
            series(1, [0, 2], 4, user="b", item="y"),  # two exposures
        ]
        strict = estimate_trf(data, (1, 2), single_exposure_only=True, horizon=16)
        lifted = estimate_trf(data, (1, 2), single_exposure_only=False, horizon=16)
        # the strict estimate saw one response, the lifted one saw both
        assert strict.total_mass == pytest.approx(1.0, abs=1e-9)
        assert lifted.density_at(4) == strict.density_at(4)
        assert lifted.total_mass == pytest.approx(1.0, abs=1e-9)

    def test_horizon_drops_late_responses(self):
        data = many(1, [1, 2, 100000])
        trf = estimate_trf(data, (1, 2), True, horizon=64)
        assert trf.total_mass == pytest.approx(1.0, abs=1e-9)
        # only the two in-horizon responses count: one in [1,2), one in [2,4)
        assert trf.density[0] == pytest.approx(0.5, rel=1e-12)
        assert trf.density[1] == pytest.approx(0.25, rel=1e-12)

    def test_widths_never_decrease(self):
        trf = estimate_trf(many(1, [1, 5, 9]), (1, 2), True, horizon=1000)
        widths = trf.widths
        assert all(b >= a for a, b in zip(widths, widths[1:]))


class TestTimeResponseFunction:
    def test_mass_validation(self):
        with pytest.raises(Exception):
            TimeResponseFunction("T1", (1, 2, 4), (0.9, 0.9))

    def test_non_power_of_two_grid_rejected(self):
        # the fast paths locate delay bins by bit length; (1, 3, 5, 9) would
        # silently read the wrong bin
        with pytest.raises(ContagionError, match="powers of two"):
            TimeResponseFunction("T1", (1, 3, 5, 9), (0.25, 0.125, 0.0625))

    def test_density_at_outside_support_is_zero(self):
        trf = TimeResponseFunction("T1", (1, 2, 4), (0.5, 0.25))
        assert trf.density_at(0.5) == 0.0
        assert trf.density_at(4) == 0.0
        assert trf.density_at(1) == 0.5
        assert trf.density_at(3.9) == 0.25

    def test_json_round_trip(self):
        trf = TimeResponseFunction("T10", (1, 2, 4), (0.5, 0.25))
        clone = TimeResponseFunction.from_json_dict(trf.to_json_dict())
        assert clone == trf


def make_flat(label, value_map):
    # three-bin synthetic functions sharing one grid
    edges = (1, 2, 4, 8)
    masses = value_map
    density = tuple(m / w for m, w in zip(masses, (1, 2, 4)))
    return TimeResponseFunction(label, edges, density)


class TestInterpolation:
    def setup_method(self):
        self.t1 = make_flat("T1", (0.7, 0.2, 0.1))
        self.t10 = make_flat("T10", (0.2, 0.5, 0.3))
        self.t100 = make_flat("T100", (0.05, 0.15, 0.8))

    def test_exact_cohort_hits(self):
        for n_f, ref in ((1, self.t1), (10, self.t10), (100, self.t100)):
            for site in ("twitter", "digg"):
                for dt in (1, 3, 7):
                    got = interpolate_trf(self.t1, self.t10, self.t100, n_f, site, dt)
                    assert got == pytest.approx(ref.density_at(dt), rel=1e-5)

    def test_hand_computed_weights_at_55(self):
        # weights written out from the definition, computed independently
        for site in ("twitter", "digg"):
            w1 = 1.0 / (54.0**2 + 1e-6)
            w10 = 1.0 / (45.0**2 + 1e-6)
            w100 = 1.0 / (45.0**2 + 1e-6) if site == "twitter" else 1.0 / (45.0 + 1e-6)
            for dt in (1, 2, 5):
                expected = (
                    w1 * self.t1.density_at(dt)
                    + w10 * self.t10.density_at(dt)
                    + w100 * self.t100.density_at(dt)
                ) / (w1 + w10 + w100)
                got = interpolate_trf(self.t1, self.t10, self.t100, 55, site, dt)
                assert got == pytest.approx(expected, rel=1e-12)

    def test_convex_combination_bounds(self):
        for n_f in (3, 25, 70, 400):
            for dt in (1, 3, 7):
                vals = [t.density_at(dt) for t in (self.t1, self.t10, self.t100)]
                got = interpolate_trf(self.t1, self.t10, self.t100, n_f, "twitter", dt)
                assert min(vals) - 1e-15 <= got <= max(vals) + 1e-15

    def test_mismatched_grids_rejected(self):
        other = TimeResponseFunction("T100", (1, 2, 4, 8, 16), (0.6, 0.1, 0.04, 0.005))
        with pytest.raises(BinMismatchError):
            interpolate_trf(self.t1, self.t10, other, 10, "twitter", 1)

    def test_bundle_matches_pointwise_interpolation(self):
        bundle = TrfBundle(t1=self.t1, t10=self.t10, t100=self.t100, site="digg")
        dens = bundle.densities_for(37)
        for k, dt in enumerate((1, 2, 4)):
            assert dens[k] == pytest.approx(
                interpolate_trf(self.t1, self.t10, self.t100, 37, "digg", dt), rel=1e-12
            )


class TestSusceptibility:
    def test_empirical_frequency(self):
        data = many(5, [3, None, 7, None, None, None, None, None, None, 2])
        curve = estimate_susceptibility(data)
        assert curve.empirical[5] == (3, 10)
        responses, trials = curve.empirical[5]
        assert responses / trials == pytest.approx(0.3)

    def test_multi_exposure_series_excluded(self):
        data = [series(5, [0, 4], 6)] + many(5, [None, 3])
        curve = estimate_susceptibility(data)
        assert curve.empirical[5] == (1, 2)

    def test_absent_bins_are_absent(self):
        curve = estimate_susceptibility(many(5, [1, None]))
        assert 7 not in curve.empirical

    def test_digg_form_reference_value(self):
        # closed form recomputed by hand at n_f = 10
        a, b, c, d, e = (DIGG_CONSTANTS[k] for k in "ABCDE")
        expected = a / ((math.exp(b * 10) + c) * (10 + d) * (10 + e))
        assert expected == pytest.approx(3.70e-5, rel=2e-3)
        got = evaluate_form(SusceptibilityForm.DIGG, DIGG_CONSTANTS, 10)
        assert got == pytest.approx(expected, rel=1e-12)

    def _exact_curve(self, form, constants, trials=10**9):
        emp = {}
        for nf in (1, 2, 3, 5, 8, 12, 20, 35, 60, 100, 180, 300):
            p = evaluate_form(form, constants, nf)
            emp[nf] = (round(p * trials), trials)
        return SusceptibilityCurve(empirical=emp)

    def test_digg_fit_recovers_constants(self):
        curve = self._exact_curve(SusceptibilityForm.DIGG, DIGG_CONSTANTS)
        params = fit_susceptibility_analytic(curve, SusceptibilityForm.DIGG)
        for key, true in DIGG_CONSTANTS.items():
            assert params[key] == pytest.approx(true, rel=0.01), key

    def test_twitter_fit_recovers_constants(self):
        curve = self._exact_curve(SusceptibilityForm.TWITTER, TWITTER_CONSTANTS)
        params = fit_susceptibility_analytic(curve, SusceptibilityForm.TWITTER)
        for key, true in TWITTER_CONSTANTS.items():
            assert params[key] == pytest.approx(true, rel=0.01), key

    def test_underdetermined_fit_rejected(self):
        curve = SusceptibilityCurve(empirical={3: (2, 10), 9: (1, 10)})
        with pytest.raises(FitError):
            fit_susceptibility_analytic(curve, SusceptibilityForm.DIGG)

    def test_fit_invariant_under_trial_scaling(self):
        base = self._exact_curve(SusceptibilityForm.TWITTER, TWITTER_CONSTANTS)
        scaled = SusceptibilityCurve(
            empirical={nf: (r * 7, t * 7) for nf, (r, t) in base.empirical.items()}
        )
        p_base = fit_susceptibility_analytic(base, SusceptibilityForm.TWITTER)
        p_scaled = fit_susceptibility_analytic(scaled, SusceptibilityForm.TWITTER)
        for key in p_base:
            assert p_scaled[key] == pytest.approx(p_base[key], rel=1e-9)

    def test_curve_json_round_trip(self):
        curve = SusceptibilityCurve(
            empirical={1: (5, 100), 10: (2, 300)},
            form=SusceptibilityForm.DIGG,
            params=dict(DIGG_CONSTANTS),
        )
        clone = SusceptibilityCurve.from_json_dict(curve.to_json_dict())
        assert clone.empirical == curve.empirical
        assert clone.form == curve.form
        assert clone.params == pytest.approx(curve.params)
        assert clone.analytic(10) == pytest.approx(curve.analytic(10))


def test_standard_cohorts():
    assert COHORTS["T1"] == (1, 2)
    assert COHORTS["T10"] == (9, 11)
    assert COHORTS["T100"] == (90, 110)
