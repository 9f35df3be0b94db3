"""The tail rule (the highest percentile with at least ten samples beyond
it) and the median estimators."""

import math

from perfbench.stats import median, median_hd, tail


def test_tail_leaves_exactly_ten_samples_beyond():
    values = list(range(1, 101))  # 1..100
    value, pct, n = tail(values)
    assert n == 100
    assert value == 90  # 91..100 lie beyond it
    assert sum(v > value for v in values) == 10
    assert pct == 90.0


def test_tail_ignores_sample_order():
    values = [float(v) for v in range(1000, 0, -1)]
    value, pct, _ = tail(values)
    assert value == 990.0 and pct == 99.0


def test_tail_undefined_without_enough_samples():
    value, pct, n = tail([1.0] * 10)
    assert math.isnan(value) and math.isnan(pct) and n == 10


def test_tail_with_eleven_samples_is_the_minimum():
    value, pct, _ = tail(list(range(11)))
    assert value == 0 and math.isclose(pct, 100.0 / 11)


def test_median():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert math.isnan(median([]))


def test_harrell_davis_median_of_symmetric_samples_is_the_centre():
    assert median_hd([5.0]) == 5.0
    assert math.isclose(median_hd([3.0, 1.0, 2.0]), 2.0)
    assert math.isclose(median_hd([float(v) for v in range(1, 101)]), 50.5)
    assert math.isnan(median_hd([]))


def test_harrell_davis_median_shares_the_middle_rank_weight():
    # One op next to the middle rank moves the sample median by all of
    # its change, the Harrell-Davis median by a fraction of it.
    base = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
    bumped = base[:4] + [5.5] + base[5:]
    assert median(bumped) - median(base) == 0.5
    assert 0 < median_hd(bumped) - median_hd(base) < 0.25
