import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contagion.errors import ContagionError
from contagion.events import ExposureSeries
from contagion.models import (
    EnhancementTable,
    effective_enhancement,
    exposure_response_curve,
    response_probability,
    visibility_all,
    visibility_distribution,
    visibility_exactly,
    visibility_first,
)

taus_strategy = st.lists(
    st.floats(min_value=0.0, max_value=0.999999, allow_nan=False), min_size=1, max_size=16
)


def brute_force_at_least_one(taus):
    # inclusion-exclusion over non-empty subsets
    total = 0.0
    for r in range(1, len(taus) + 1):
        for subset in itertools.combinations(taus, r):
            total += (-1) ** (r + 1) * math.prod(subset)
    return total


def test_visibility_all_half_half():
    assert visibility_all([0.5, 0.5]) == pytest.approx(0.75, abs=1e-15)


def test_visibility_all_zeros():
    assert visibility_all([0.0, 0.0, 0.0]) == 0.0


def test_visibility_all_matches_inclusion_exclusion():
    taus = [0.1, 0.2, 0.3]
    assert visibility_all(taus) == pytest.approx(0.496, abs=1e-12)
    assert visibility_all(taus) == pytest.approx(brute_force_at_least_one(taus), abs=1e-12)


def test_visibility_all_rejects_out_of_range():
    with pytest.raises(ContagionError):
        visibility_all([0.5, 1.0])
    with pytest.raises(ContagionError):
        visibility_all([-0.1])


def test_visibility_first_is_identity():
    assert visibility_first(0.02) == 0.02
    assert visibility_first(0.0) == 0.0
    with pytest.raises(ContagionError):
        visibility_first(1.0)


def test_visibility_exactly_symmetric_binomial():
    taus = [0.5, 0.5, 0.5]
    assert visibility_exactly(taus, 1) == pytest.approx(0.375, abs=1e-15)
    assert visibility_exactly(taus, 3) == pytest.approx(0.125, abs=1e-15)


def test_visibility_exactly_hand_enumeration():
    # 0.1*0.8 + 0.9*0.2 = 0.26
    assert visibility_exactly([0.1, 0.2], 1) == pytest.approx(0.26, abs=1e-15)


def test_visibility_exactly_guard():
    with pytest.raises(ContagionError):
        visibility_exactly([0.1] * 21, 1)
    with pytest.raises(ContagionError):
        visibility_exactly([0.1], 2)


def test_distribution_symmetric_case():
    dist = visibility_distribution([0.5, 0.5, 0.5])
    assert dist == pytest.approx([0.125, 0.375, 0.375, 0.125], abs=1e-15)


def test_distribution_single_exposure():
    assert visibility_distribution([0.3]) == pytest.approx([0.7, 0.3], abs=1e-15)


@settings(max_examples=300, deadline=None)
@given(taus_strategy)
def test_distribution_sums_to_one(taus):
    dist = visibility_distribution(taus)
    assert math.fsum(dist) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=0.999999), min_size=1, max_size=12))
def test_distribution_matches_enumeration_oracle(taus):
    dist = visibility_distribution(taus)
    for n in range(len(taus) + 1):
        assert dist[n] == pytest.approx(visibility_exactly(taus, n), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(taus_strategy)
def test_expected_seen_count_equals_tau_sum(taus):
    dist = visibility_distribution(taus)
    expected = math.fsum(n * v for n, v in enumerate(dist))
    assert expected == pytest.approx(math.fsum(taus), abs=1e-12)


def test_response_probability_collapses_to_visibility_all():
    taus = [0.1, 0.2, 0.3]
    assert response_probability(taus, lambda n: 1.0) == pytest.approx(0.496, abs=1e-15)


@settings(max_examples=300, deadline=None)
@given(taus_strategy)
def test_unit_enhancement_collapse_property(taus):
    assert abs(response_probability(taus, lambda n: 1.0) - visibility_all(taus)) <= 1e-15


def test_response_probability_linear_weight_gives_expected_count():
    assert response_probability([0.5, 0.5], lambda n: float(n)) == pytest.approx(1.0, abs=1e-12)


def test_response_probability_single_exposure_uses_unit_factor():
    table = EnhancementTable(values={1: 1.0, 2: 1.7})
    assert response_probability([0.37], table.factor) == pytest.approx(0.37, abs=1e-15)


def test_response_probability_rejects_negative_factor():
    with pytest.raises(ContagionError):
        response_probability([0.5, 0.5], lambda n: -1.0)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-6, max_value=0.9), min_size=1, max_size=10),
    st.floats(min_value=0.0, max_value=0.8),
)
def test_twitter_style_monotone_in_tau(taus, bump):
    # raising any single discovery probability cannot lower the response
    f = lambda n: 1.0 + 0.1 * n  # noqa: E731
    base = response_probability(taus, f)
    for i in range(len(taus)):
        raised = list(taus)
        raised[i] = raised[i] + (0.999 - raised[i]) * bump
        assert response_probability(raised, f) >= base - 1e-12


def test_effective_enhancement_unit_factor_is_one():
    for taus in ([0.01], [0.3, 0.7], [0.2] * 7):
        assert effective_enhancement(taus, lambda n: 1.0) == pytest.approx(1.0, abs=1e-12)


def test_effective_enhancement_hand_value():
    # f(n) = n, taus = [0.01, 0.01]: 0.02 / (1 - 0.99^2)
    expected = 0.02 / (1.0 - 0.99**2)
    got = effective_enhancement([0.01, 0.01], lambda n: float(n))
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(1.00503, abs=5e-6)


def test_effective_enhancement_rejects_all_zero():
    with pytest.raises(ContagionError):
        effective_enhancement([0.0, 0.0], lambda n: 1.0)


@pytest.mark.parametrize("tau0", [1e-6, 1e-4, 1e-2])
@pytest.mark.parametrize("n_e", [2, 5, 10])
@pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (0.5, 0.7)])
def test_small_tau_expansion_of_linear_enhancement(tau0, n_e, alpha, beta):
    taus = [tau0] * n_e
    ratio = effective_enhancement(taus, lambda n: alpha * n + beta)
    linear = alpha + beta + 0.5 * alpha * (n_e - 1) * tau0
    assert abs(ratio - linear) <= 10.0 * tau0**2


def make_series(user, item, n_f, times, response):
    return ExposureSeries(user=user, item=item, n_f=n_f,
                          exposure_times=tuple(times), response_time=response)


def test_exposure_response_curve_all_first_exposure():
    series = [make_series(f"u{i}", "x", 1, [10], 11) for i in range(5)]
    curve = exposure_response_curve(series)
    assert curve == {1: 1.0}


def test_exposure_response_curve_empty():
    assert exposure_response_curve([]) == {}


def test_exposure_response_curve_counts_at_risk():
    series = [
        make_series("a", "x", 1, [10, 20], 25),   # responds at count 2
        make_series("b", "x", 1, [10, 20], None),  # censored at count 2
        make_series("c", "x", 1, [10], 12),        # responds at count 1
        make_series("d", "x", 1, [10], None),      # censored at count 1
    ]
    curve = exposure_response_curve(series)
    assert curve[1] == pytest.approx(0.25)  # 1 of 4 series responded at count 1
    assert curve[2] == pytest.approx(0.5)   # 1 of 2 reaching count 2 responded


def test_aggregate_can_dip_while_cohorts_rise():
    # Deterministic two-cohort construction: each cohort's own curve rises
    # with exposure count, but the aggregate dips once the responsive
    # cohort's series run out of exposures.
    series = []
    uid = 0

    def add(n_f, count, times, response):
        nonlocal uid
        for _ in range(count):
            series.append(make_series(f"u{uid}", "x", n_f, times, response))
            uid += 1

    # responsive cohort (n_f = 1): 800 series, at most 2 exposures
    add(1, 200, [10], 11)              # respond at count 1 (200 / 800)
    add(1, 180, [10, 20], 21)          # respond at count 2 (180 / 600)
    add(1, 420, [10, 20], None)
    # sluggish cohort (n_f = 100): 8000 series, up to 4 exposures
    add(100, 80, [10], 11)             # 80 / 8000
    add(100, 95, [10, 20], 21)         # 95 / 7920
    add(100, 102, [10, 20, 30], 31)    # 102 / 7825
    add(100, 108, [10, 20, 30, 40], 41)  # 108 / 7723
    add(100, 7615, [10, 20, 30, 40], None)

    low = exposure_response_curve([s for s in series if s.n_f == 1])
    high = exposure_response_curve([s for s in series if s.n_f == 100])
    agg = exposure_response_curve(series)

    assert low[2] > low[1]
    assert high[2] > high[1] and high[3] > high[2] and high[4] > high[3]
    # aggregate rises then falls: not monotone
    assert agg[2] > agg[1]
    assert agg[3] < agg[2]


def test_enhancement_table_requires_unit_first_entry():
    with pytest.raises(ContagionError):
        EnhancementTable(values={1: 1.5})
    with pytest.raises(ContagionError):
        EnhancementTable(values={2: 1.5})


def test_enhancement_table_lookup_modes():
    table = EnhancementTable(values={1: 1.0, 2: 1.5})
    assert table.factor(2) == 1.5
    with pytest.raises(ContagionError):
        table.factor(3)
    saturating = EnhancementTable(values={1: 1.0, 2: 1.5}, saturates=True)
    assert saturating.factor(9) == 1.5


def test_a_saturating_table_fills_no_gap():
    table = EnhancementTable({1: 1.0, 3: 2.5}, saturates=True)
    assert (table.factor(3), table.factor(4), table.factor(9)) == (2.5, 2.5, 2.5)
    for n_e in (0, 2):
        with pytest.raises(ContagionError, match=f"exposure count {n_e}"):
            table.factor(n_e)


def test_enhancement_table_json_round_trip():
    table = EnhancementTable(values={1: 1.0, 2: 1.5, 3: 1.8}, saturates=True)
    clone = EnhancementTable.from_json_dict(table.to_json_dict())
    assert clone.values == table.values
    assert clone.saturates
