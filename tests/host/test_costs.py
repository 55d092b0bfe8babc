"""Tests for the host cost model and interference fields."""

import numpy as np
import pytest

from repro.host.costs import CostModel, InterferenceModel, default_cost_model
from repro.host.kernel import HostKernel
from repro.pcie.root_complex import RootComplex
from repro.sim.kernel import Simulator
from repro.sim.time import us


@pytest.fixture
def rng():
    return Simulator(seed=3).rng("t")


class TestInterferenceModel:
    def test_zero_rate_never_stalls(self, rng):
        model = InterferenceModel(rate_hz=0.0, micro_rate_hz=0.0)
        assert all(model.stall_during(us(100), rng) == 0 for _ in range(100))

    def test_hit_probability_scales_with_duration(self, rng):
        model = InterferenceModel(rate_hz=10_000.0, micro_rate_hz=0.0)
        short_hits = sum(model.stall_during(us(1), rng) > 0 for _ in range(4000))
        long_hits = sum(model.stall_during(us(100), rng) > 0 for _ in range(4000))
        assert long_hits > short_hits * 5

    def test_stalls_capped(self, rng):
        model = InterferenceModel(
            rate_hz=1e9, stall_scale=us(10), stall_alpha=1.1, stall_cap=us(50),
            micro_rate_hz=0.0,
        )
        stalls = [model.stall_during(us(10), rng) for _ in range(500)]
        assert max(stalls) <= us(50)

    def test_disabled(self):
        model = InterferenceModel().disabled()
        assert model.rate_hz == 0.0
        assert model.micro_rate_hz == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            InterferenceModel(rate_hz=-1)
        with pytest.raises(ValueError):
            InterferenceModel(stall_alpha=1.0)

    def test_micro_field_contributes(self, rng):
        base = InterferenceModel(rate_hz=0.0, micro_rate_hz=0.0)
        micro = InterferenceModel(rate_hz=0.0, micro_rate_hz=1e6)
        base_total = sum(base.stall_during(us(10), rng) for _ in range(500))
        micro_total = sum(micro.stall_during(us(10), rng) for _ in range(500))
        assert micro_total > base_total


class TestCostModel:
    def test_default_has_expected_segments(self):
        model = default_cost_model()
        for name in ("syscall_entry", "task_wakeup", "irq_entry", "virtio_add_buf",
                     "driver_descriptor_build", "udp_tx", "netif_receive"):
            assert name in model.segments

    def test_unknown_segment_rejected(self):
        sim = Simulator(seed=3)
        kernel = HostKernel(sim, RootComplex(sim), costs=default_cost_model())
        with pytest.raises(KeyError, match="nonexistent"):
            kernel.cpu("nonexistent")

    def test_copy_cost_linear(self):
        model = default_cost_model()
        assert model.copy_cost(2000) == 2 * model.copy_cost(1000)

    def test_without_noise_is_deterministic(self, rng):
        model = default_cost_model().without_noise()
        seg = model.segments["task_wakeup"]
        draws = {seg.sample(rng) for _ in range(20)}
        assert len(draws) == 1
        assert model.interference.rate_hz == 0.0

    def test_wakeup_dominates_fast_path_segments(self):
        """The scheduler wakeup is the single largest software segment,
        matching Linux profiles of blocking round trips."""
        model = default_cost_model()
        wakeup = model.segments["task_wakeup"].nominal_ps
        for name in ("syscall_entry", "udp_tx", "netif_receive", "virtio_add_buf"):
            assert wakeup > model.segments[name].nominal_ps
