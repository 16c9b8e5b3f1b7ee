"""Percentile rule, quiet/steady estimators and spread."""

from __future__ import annotations

import statistics

import pytest

from bench import stats


@pytest.mark.parametrize(
    ("q", "samples", "expected"),
    [
        (95.0, 199, False),
        (95.0, 200, True),
        (99.0, 999, False),
        (99.0, 1000, True),
        (90.0, 99, False),
        (90.0, 100, True),
    ],
)
def test_percentile_needs_ten_samples_beyond_it(q, samples, expected):
    assert stats.supported(q, samples) is expected


def test_percentile_interpolates_between_ranks():
    values = [float(v) for v in range(1, 101)]
    assert stats.percentile(values, 50.0) == pytest.approx(50.5)
    assert stats.percentile(values, 95.0) == pytest.approx(95.05)
    assert stats.percentile([3.0], 95.0) == 3.0
    with pytest.raises(ValueError):
        stats.percentile([], 50.0)


def test_spread_is_the_quartile_distance_over_the_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    assert stats.spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    # Five runs, one in a slow spell: second to fourth value decide.
    assert stats.spread([10.0, 10.0, 10.0, 11.0, 30.0]) == pytest.approx(0.1)
    assert stats.spread([7.0]) == 0.0


def test_quiet_is_the_quartile_on_the_good_side():
    latencies = [10.0, 10.0, 10.0, 30.0, 50.0]  # two cycles hit by a burst
    assert stats.quiet(latencies, higher_is_better=False) == 10.0
    rates = [100.0, 100.0, 100.0, 33.0, 20.0]
    assert stats.quiet(rates, higher_is_better=True) == 100.0


def test_steady_takes_the_median_over_input_variants():
    samples = [(0, 10.0), (0, 14.0), (1, 20.0), (1, 21.0), (2, 30.0), (2, 90.0)]
    # quiet() per variant is 11.0, 20.25 and 45.0; the middle variant is the run's value.
    assert stats.steady(samples, higher_is_better=False) == pytest.approx(20.25)
    assert stats.steady([(0, 5.0)], higher_is_better=True) == 5.0
