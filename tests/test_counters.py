"""Unit tests for the bucketed histogram."""

import pytest

from repro.stats.counters import BucketHistogram
from repro.stats.metrics import FIG3_BUCKETS


def test_requires_buckets():
    with pytest.raises(ValueError):
        BucketHistogram([])


def test_rejects_inverted_bucket():
    with pytest.raises(ValueError):
        BucketHistogram([(10, 5)])


def test_samples_land_in_their_bucket():
    histogram = BucketHistogram([(1, 10), (11, 20)])
    histogram.add(5)
    histogram.add(11)
    histogram.add(20)
    assert histogram.counts() == [1, 2]


def test_bucket_bounds_are_inclusive():
    histogram = BucketHistogram([(1, 10)])
    histogram.add(1)
    histogram.add(10)
    assert histogram.counts() == [2]


def test_out_of_range_tracked():
    histogram = BucketHistogram([(1, 10)])
    histogram.add(0)
    histogram.add(11)
    assert histogram.out_of_range == 2
    assert histogram.counts() == [0]


def test_fractions_sum_to_one_when_in_range():
    histogram = BucketHistogram(FIG3_BUCKETS)
    for value in (1, 20, 40, 60, 70, 100, 256):
        histogram.add(value)
    assert sum(histogram.fractions()) == pytest.approx(1.0)


def test_fractions_empty():
    histogram = BucketHistogram([(1, 10)])
    assert histogram.fractions() == [0.0]


def test_labels_and_dict():
    histogram = BucketHistogram([(1, 16), (17, 32)])
    histogram.add(2)
    assert histogram.labels() == ["1-16", "17-32"]
    assert histogram.as_dict()["1-16"] == 1.0


def test_bisect_agrees_with_linear_scan_on_every_edge():
    """Exhaustive differential check of the bisect path against a
    test-local linear scan."""
    buckets = [(1, 16), (17, 32), (40, 40), (41, 64)]
    fast = BucketHistogram(buckets)
    for value in range(-2, 70):
        fast.add(value)
    slow_counts = [0] * len(buckets)
    out = 0
    for value in range(-2, 70):
        for index, (low, high) in enumerate(buckets):
            if low <= value <= high:
                slow_counts[index] += 1
                break
        else:
            out += 1
    assert fast.counts() == slow_counts
    assert fast.out_of_range == out


def test_gap_between_buckets_is_out_of_range():
    histogram = BucketHistogram([(1, 10), (20, 30)])
    histogram.add(15)
    assert histogram.out_of_range == 1
    assert histogram.counts() == [0, 0]


@pytest.mark.parametrize("buckets", [
    [(1, 20), (10, 30)],
    [(20, 30), (1, 10)],
], ids=["overlapping", "unsorted"])
def test_overlapping_or_unsorted_buckets_rejected(buckets):
    with pytest.raises(ValueError, match="sorted and disjoint"):
        BucketHistogram(buckets)
    with pytest.raises(ValueError, match="sorted and disjoint"):
        BucketHistogram.from_counts(buckets, [0, 0])


def test_merge_sums_counts():
    a = BucketHistogram(FIG3_BUCKETS)
    b = BucketHistogram(FIG3_BUCKETS)
    for value in (1, 20, 300):
        a.add(value)
    for value in (2, 20, -1):
        b.add(value)
    a.merge(b)
    assert a.total == 6
    assert a.out_of_range == 2  # 300 from a, -1 from b
    assert a.counts()[0] == 2  # 1 and 2
    assert a.counts()[1] == 2  # 20 twice
    assert b.total == 3  # the source histogram is untouched


def test_merge_rejects_different_buckets():
    a = BucketHistogram([(1, 10)])
    b = BucketHistogram([(1, 20)])
    with pytest.raises(ValueError, match="different buckets"):
        a.merge(b)


# -- CDF export (figure pipeline) --------------------------------------


def test_cdf_points_monotone_and_complete():
    histogram = BucketHistogram([(0, 9), (10, 19), (20, 29)])
    for value in (1, 2, 12, 25):
        histogram.add(value)
    points = histogram.cdf_points()
    # One point per declared bucket, at its upper bound.
    assert [upper for upper, _ in points] == [9, 19, 29]
    fractions = [fraction for _, fraction in points]
    assert fractions == sorted(fractions)
    assert fractions[-1] == 1.0


def test_cdf_points_empty_bucket_repeats_fraction():
    histogram = BucketHistogram([(0, 9), (10, 19), (20, 29)])
    histogram.add(1)
    histogram.add(25)
    fractions = [fraction for _, fraction in histogram.cdf_points()]
    assert fractions == [0.5, 0.5, 1.0]  # empty middle bucket holds flat


def test_cdf_points_empty_histogram_is_flat_zero():
    histogram = BucketHistogram([(0, 9), (10, 19)])
    assert histogram.cdf_points() == [(9, 0.0), (19, 0.0)]
