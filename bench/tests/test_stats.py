"""Estimators: percentiles, the ten-samples-beyond rule, the quietest window."""

import statistics

import pytest

from bench import stats


def test_percentile_interpolates_between_ranks():
    data = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert stats.percentile(data, 0) == 10.0
    assert stats.percentile(data, 50) == 30.0
    assert stats.percentile(data, 100) == 50.0
    assert stats.percentile(data, 25) == 20.0
    assert stats.percentile(data, 90) == pytest.approx(46.0)
    assert stats.percentile([7.0], 99) == 7.0


def test_percentile_ignores_input_order_and_rejects_bad_input():
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


@pytest.mark.parametrize(
    "n, expected",
    [
        (99, None),      # p90 would have 9.9 samples beyond it
        (100, 90.0),     # exactly ten beyond p90
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_needs_ten_samples_beyond_it(n, expected):
    assert stats.supported_tail(n) == expected


def test_seventeen_samples_support_no_tail():
    # The legacy BENCH_serving.json 20 rps point: 17 samples, p95 == p99.
    assert stats.supported_tail(17) is None
    assert stats.samples_beyond(17, 95.0) < stats.MIN_BEYOND


def test_quietest_reads_each_number_in_its_own_best_window():
    # six operations; latencies and spacing differ
    done = [1.0, 2.0, 2.5, 3.0, 4.0, 5.0]
    latencies = [30.0, 30.0, 10.0, 50.0, 50.0, 10.0]
    p50, rate = stats.quietest(0.0, done, latencies, 2)
    assert p50 == 20.0                      # operations 2-3
    assert rate == pytest.approx(2.0)       # operations 3-4: two in a second
    # a window wider than the run is the whole run
    assert stats.quietest(0.0, done, latencies, 99) == (30.0, pytest.approx(1.2))
    with pytest.raises(ValueError):
        stats.quietest(0.0, done[1:], latencies, 2)


def test_rel_iqr_matches_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.rel_iqr(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert stats.rel_iqr([5.0]) == 0.0


def test_worse_by_follows_the_metric_direction():
    assert stats.worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert stats.worse_by(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert stats.worse_by(100.0, 90.0, "higher") == pytest.approx(0.10)
    with pytest.raises(ValueError):
        stats.worse_by(1.0, 1.0, "sideways")
