"""The percentile helper reports only tails it has samples for."""

import pytest

from stats import MIN_TAIL, percentile


def test_p90_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError, match="need at least 10"):
        percentile([float(x) for x in range(99)], 90)
    assert percentile([float(x) for x in range(100)], 90) == 89.0


def test_median_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        percentile([1.0] * (2 * MIN_TAIL - 1), 50)
    assert percentile([float(x) for x in range(2 * MIN_TAIL)], 50) == 9.0


def test_order_of_samples_does_not_matter():
    samples = [float(x) for x in range(200)]
    assert percentile(samples[::-1], 90) == percentile(samples, 90) == 179.0


def test_empty_and_out_of_range_are_refused():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0] * 100, 100)
