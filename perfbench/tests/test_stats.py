import pytest

from bench.stats import (
    median,
    min_samples_for,
    percentile,
    samples_beyond,
    tail_percentile,
)


def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_percentile_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 80) == 80
    assert percentile(samples, 100) == 100
    assert percentile(samples, 0.5) == 1
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile(samples, 0)
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("n", [0, 1, 5, 10])
def test_tail_needs_more_than_ten_samples(n):
    assert tail_percentile([float(i) for i in range(n)]) is None


def test_tail_at_eleven_samples_is_the_minimum():
    samples = [float(i) for i in range(11, 0, -1)]
    value, pct, n = tail_percentile(samples)
    assert (value, n) == (1.0, 11)
    assert pct == pytest.approx(100 / 11)


def test_tail_leaves_exactly_ten_samples_beyond():
    for n in (11, 12, 20, 50, 99, 100, 1000):
        samples = [float(i) for i in range(n)]
        value, pct, count = tail_percentile(samples)
        assert count == n
        assert sum(1 for s in samples if s > value) == 10
        assert pct == pytest.approx(100 * (n - 10) / n)


def test_tail_with_ties_and_custom_beyond():
    samples = [5.0] * 30 + [9.0] * 3
    value, pct, _ = tail_percentile(samples, beyond=3)
    assert value == 5.0
    assert pct == pytest.approx(100 * 30 / 33)


def test_fixed_percentile_sample_counts():
    assert samples_beyond(50, 80) == 10
    assert samples_beyond(49, 80) == 9
    assert min_samples_for(80) == 50
    assert min_samples_for(90) == 100
    assert min_samples_for(50) == 20
    # The tail percentile of the minimum count is the fixed percentile.
    _, pct, _ = tail_percentile([float(i) for i in range(min_samples_for(80))])
    assert pct == pytest.approx(80)
