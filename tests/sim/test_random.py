"""Tests for latency distributions."""

import numpy as np
import pytest

from repro.sim.kernel import Simulator
from repro.sim.random import LatencyModel
from repro.sim.time import ns, us


@pytest.fixture
def rng():
    return Simulator(seed=77).rng("test")


class TestLatencyModel:
    def test_fixed_is_deterministic(self, rng):
        model = LatencyModel(nominal_ps=ns(100))
        assert all(model.sample(rng) == ns(100) for _ in range(10))

    def test_jitter_keeps_median_near_nominal(self, rng):
        model = LatencyModel(nominal_ps=us(10), jitter_sigma=0.1)
        samples = [model.sample(rng) for _ in range(20_000)]
        median = np.median(samples)
        assert abs(median - us(10)) / us(10) < 0.02

    def test_tail_raises_high_percentiles(self, rng):
        base = LatencyModel(nominal_ps=us(10), jitter_sigma=0.05)
        tailed = LatencyModel(nominal_ps=us(10), jitter_sigma=0.05, tail_prob=0.05,
                              tail_scale_ps=us(50))
        p999_base = np.percentile([base.sample(rng) for _ in range(20_000)], 99.9)
        p999_tail = np.percentile([tailed.sample(rng) for _ in range(20_000)], 99.9)
        assert p999_tail > p999_base * 2

    def test_samples_never_negative(self, rng):
        model = LatencyModel(nominal_ps=ns(1), jitter_sigma=3.0)
        assert all(model.sample(rng) >= 0 for _ in range(1_000))

    def test_without_noise(self):
        model = LatencyModel(nominal_ps=us(10), jitter_sigma=0.5, tail_prob=0.5,
                             tail_scale_ps=us(99))
        assert model.without_noise() == LatencyModel(nominal_ps=us(10))

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyModel(nominal_ps=-1)
        with pytest.raises(ValueError):
            LatencyModel(nominal_ps=1, jitter_sigma=-0.1)
        with pytest.raises(ValueError):
            LatencyModel(nominal_ps=1, tail_prob=1.5)
        with pytest.raises(ValueError):
            LatencyModel(nominal_ps=1, tail_alpha=0)
