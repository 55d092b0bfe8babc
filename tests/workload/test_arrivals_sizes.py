"""Unit tests for the arrival processes and size distributions."""

import numpy as np
import pytest

from repro.sim.time import S
from repro.workload.arrivals import (
    DeterministicArrivals,
    MmppArrivals,
    PoissonArrivals,
    make_arrivals,
)
from repro.workload.sizes import (
    EmpiricalMix,
    FixedSize,
    make_sizes,
)


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


class TestArrivals:
    def test_deterministic_gaps_constant(self):
        gaps = DeterministicArrivals(rate_pps=10_000).intervals(rng(), 100)
        assert gaps.dtype == np.int64
        assert np.all(gaps == gaps[0])
        assert gaps[0] == S // 10_000

    def test_poisson_mean_matches_rate(self):
        process = PoissonArrivals(rate_pps=50_000)
        gaps = process.intervals(rng(), 20_000)
        assert gaps.mean() == pytest.approx(process.mean_interval_ps, rel=0.03)
        assert np.all(gaps >= 1)

    def test_mmpp_mean_matches_rate(self):
        process = MmppArrivals(rate_pps=50_000, on_fraction=0.25, cycle_s=1e-3)
        gaps = process.intervals(rng(), 20_000)
        assert gaps.mean() == pytest.approx(process.mean_interval_ps, rel=0.25)

    def test_mmpp_is_burstier_than_poisson(self):
        # Coefficient of variation: MMPP's on-off structure exceeds the
        # exponential's CV of 1.
        poisson = PoissonArrivals(50_000).intervals(rng(1), 10_000)
        mmpp = MmppArrivals(50_000).intervals(rng(1), 10_000)
        cv = lambda g: g.std() / g.mean()
        assert cv(mmpp) > cv(poisson)

    def test_same_seed_identical_streams(self):
        process = PoissonArrivals(rate_pps=30_000)
        assert np.array_equal(process.intervals(rng(7), 500), process.intervals(rng(7), 500))

    def test_arrival_times_cumulative(self):
        process = DeterministicArrivals(rate_pps=1_000_000)
        times = process.arrival_times(rng(), 10)
        assert np.all(np.diff(times) > 0)
        assert times[0] == process.intervals(rng(), 1)[0]

    def test_factory(self):
        assert isinstance(make_arrivals("deterministic", 1000), DeterministicArrivals)
        assert isinstance(make_arrivals("poisson", 1000), PoissonArrivals)
        assert isinstance(make_arrivals("bursty", 1000), MmppArrivals)
        with pytest.raises(ValueError):
            make_arrivals("uniform", 1000)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            PoissonArrivals(rate_pps=0)
        with pytest.raises(ValueError):
            MmppArrivals(rate_pps=1000, on_fraction=1.5)
        with pytest.raises(ValueError):
            MmppArrivals(rate_pps=1000, cycle_s=0)
        with pytest.raises(ValueError):
            DeterministicArrivals(1000).intervals(rng(), -1)


class TestSizes:
    def test_fixed(self):
        dist = FixedSize(256)
        assert np.all(dist.sample_many(rng(), 50) == 256)

    def test_empirical_mix_draws_only_points(self):
        dist = EmpiricalMix((64, 1024), weights=(3.0, 1.0))
        samples = dist.sample_many(rng(), 2000)
        assert set(np.unique(samples)) == {64, 1024}
        # 3:1 weighting: small payloads dominate.
        assert (samples == 64).sum() > (samples == 1024).sum()

    def test_default_mix_is_paper_sweep(self):
        from repro.core.calibration import PAPER_PAYLOAD_SIZES

        samples = EmpiricalMix().sample_many(rng(), 500)
        assert set(np.unique(samples)) <= set(PAPER_PAYLOAD_SIZES)

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedSize(4)  # below the sequence-stamp minimum
        with pytest.raises(ValueError):
            FixedSize(100_000)
        with pytest.raises(ValueError):
            EmpiricalMix((64,), weights=(1.0, 2.0))
        with pytest.raises(ValueError):
            EmpiricalMix(())

    def test_make_sizes(self):
        assert isinstance(make_sizes([64]), FixedSize)
        assert isinstance(make_sizes([64, 256]), EmpiricalMix)
        with pytest.raises(ValueError):
            make_sizes([])
