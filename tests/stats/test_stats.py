"""Tests for the statistics helpers."""

import numpy as np
import pytest

from repro.stats import (
    Histogram,
    LatencySummary,
    TABLE1_PERCENTILES,
    percentiles_us,
)
from repro.sim.time import us


class TestPercentiles:
    def test_median_of_known_data(self):
        samples = np.array([us(10)] * 50 + [us(20)] * 50)
        assert percentiles_us(samples, [50])[50] == pytest.approx(15.0)

    def test_table1_points(self):
        samples = np.arange(1, 1001) * us(1)
        tails = percentiles_us(samples)
        assert set(tails) == set(TABLE1_PERCENTILES)
        assert tails[95.0] == pytest.approx(950.05, rel=1e-3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentiles_us(np.array([], dtype=np.int64), [50])

    def test_bad_percentile_rejected(self):
        with pytest.raises(ValueError):
            percentiles_us(np.array([1]), [101])
        with pytest.raises(ValueError):
            percentiles_us(np.array([1]), [-0.1])
        with pytest.raises(ValueError):
            percentiles_us(np.array([1]), [100.5])

    def test_percentile_bounds_accepted(self):
        samples = np.array([us(v) for v in (10, 20, 30)])
        assert percentiles_us(samples, [0, 100]) == pytest.approx({0: 10.0, 100: 30.0})

    def test_percentiles_us_matches_repeated_calls(self):
        rng = np.random.default_rng(3)
        samples = (rng.lognormal(3.5, 0.4, 2000) * 1e6).astype(np.int64)
        batch = percentiles_us(samples, points=(50.0, 95.0, 99.0, 99.9))
        for q, value in batch.items():
            assert value == pytest.approx(np.percentile(samples, q) / 1e6)

    def test_multidimensional_rejected(self):
        with pytest.raises(ValueError):
            percentiles_us(np.ones((2, 2), dtype=np.int64), [50])


class TestLatencySummary:
    def test_fields(self):
        samples = np.array([us(v) for v in (10, 20, 30, 40, 50)])
        summary = LatencySummary.from_ps(samples)
        assert summary.count == 5
        assert summary.mean_us == pytest.approx(30.0)
        assert summary.min_us == pytest.approx(10.0)
        assert summary.max_us == pytest.approx(50.0)
        assert summary.median_us == pytest.approx(30.0)

    def test_std_is_sample_std(self):
        samples = np.array([us(10), us(20)])
        summary = LatencySummary.from_ps(samples)
        assert summary.std_us == pytest.approx(np.std([10, 20], ddof=1))

    def test_single_sample_std_zero(self):
        assert LatencySummary.from_ps(np.array([us(5)])).std_us == 0.0

    def test_as_dict(self):
        d = LatencySummary.from_ps(np.array([us(1), us(2)])).as_dict()
        assert d["count"] == 2


class TestHistogram:
    def test_counts_sum_to_samples(self):
        rng = np.random.default_rng(0)
        samples = (rng.normal(30, 3, 1000) * 1e6).astype(np.int64)
        hist = Histogram.from_ps(samples, bins=20)
        # p99.5 clipping may drop a few samples.
        assert hist.total >= 990

    def test_render_contains_bars(self):
        samples = np.array([us(10)] * 10 + [us(11)] * 5)
        out = Histogram.from_ps(samples, bins=4, range_us=(9, 12)).render(width=10)
        assert "#" in out

    def test_explicit_range(self):
        samples = np.array([us(v) for v in (1, 2, 3)])
        hist = Histogram.from_ps(samples, bins=3, range_us=(0.5, 3.5))
        assert list(hist.counts) == [1, 1, 1]
