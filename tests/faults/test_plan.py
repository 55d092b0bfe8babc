"""Unit tests for fault plans, triggers, and the injector core."""

import pickle

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    KIND_DESC_ERROR,
    KIND_LOST_NOTIFY,
    KIND_MALFORMED_CHAIN,
    SITE_VIRTIO_CTRL,
    SITE_XDMA_ENGINE,
    EveryNth,
    FaultPlan,
    FaultSpec,
    NthEvent,
    PoissonRate,
    driver_fault_plan,
    reset_storm_plan,
)
from repro.sim.kernel import Simulator


def spec(site=SITE_XDMA_ENGINE, kind=KIND_DESC_ERROR, trigger=None):
    return FaultSpec(site, kind, trigger or NthEvent(1))


class TestPlan:
    def test_rejects_non_spec_entries(self):
        with pytest.raises(TypeError, match="FaultSpec"):
            FaultPlan(("not a spec",))

    def test_plan_pickles_unchanged(self):
        """Plans ride inside Cells to pool workers, so they must pickle."""
        plan = driver_fault_plan("virtio", 0.02)
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestCannedPlans:
    def test_driver_plan_virtio_targets_notifications(self):
        plan = driver_fault_plan("virtio", 0.1)
        (entry,) = plan.specs
        assert entry.site == SITE_VIRTIO_CTRL
        assert entry.kind == KIND_LOST_NOTIFY
        assert entry.trigger == PoissonRate(0.1)

    def test_driver_plan_xdma_targets_descriptors(self):
        plan = driver_fault_plan("xdma", 0.1)
        (entry,) = plan.specs
        assert entry.site == SITE_XDMA_ENGINE
        assert entry.kind == KIND_DESC_ERROR

    def test_driver_plan_validates_rate_and_driver(self):
        with pytest.raises(ValueError, match="rate"):
            driver_fault_plan("virtio", 1.5)
        with pytest.raises(ValueError, match="unknown driver"):
            driver_fault_plan("e1000", 0.1)

    def test_reset_storm_plan(self):
        plan = reset_storm_plan(20)
        (entry,) = plan.specs
        assert entry.kind == KIND_MALFORMED_CHAIN
        assert entry.trigger == EveryNth(20)
        with pytest.raises(ValueError, match="positive"):
            reset_storm_plan(0)


class TestTriggers:
    def fire_n(self, injector, n, site=SITE_XDMA_ENGINE, kind=KIND_DESC_ERROR):
        return [injector.fire(site, kind) is not None for _ in range(n)]

    def test_nth_event_fires_exactly_once(self):
        sim = Simulator(seed=1)
        injector = FaultInjector(FaultPlan((spec(trigger=NthEvent(3)),)), sim)
        assert self.fire_n(injector, 6) == [False, False, True, False, False, False]
        assert injector.total_injected == 1

    def test_every_nth_fires_at_multiples(self):
        sim = Simulator(seed=1)
        injector = FaultInjector(FaultPlan((spec(trigger=EveryNth(2)),)), sim)
        assert self.fire_n(injector, 6) == [False, True, False, True, False, True]

    def test_poisson_rate_extremes(self):
        sim = Simulator(seed=1)
        plan = FaultPlan(
            (
                spec(SITE_XDMA_ENGINE, KIND_DESC_ERROR, PoissonRate(1.0)),
                spec(SITE_VIRTIO_CTRL, KIND_LOST_NOTIFY, PoissonRate(0.0)),
            )
        )
        injector = FaultInjector(plan, sim)
        assert all(self.fire_n(injector, 5))
        assert not any(self.fire_n(injector, 5, SITE_VIRTIO_CTRL, KIND_LOST_NOTIFY))
        assert injector.opportunities[(SITE_VIRTIO_CTRL, KIND_LOST_NOTIFY)] == 5

    def test_poisson_rate_zero_still_draws_the_stream(self):
        """The uniform stream must advance identically at any rate, so
        raising the rate never re-aligns later draws."""
        consumed = []
        for rate in (0.0, 0.5):
            sim = Simulator(seed=7)
            injector = FaultInjector(
                FaultPlan((spec(trigger=PoissonRate(rate)),)), sim
            )
            self.fire_n(injector, 10)
            stream = sim.rng(f"faults.{SITE_XDMA_ENGINE}.{KIND_DESC_ERROR}")
            consumed.append(stream.random())
        assert consumed[0] == consumed[1]

    def test_unhooked_site_is_free(self):
        """A hook the plan does not arm neither counts the opportunity
        nor draws from its stream."""
        sim = Simulator(seed=1)
        injector = FaultInjector(FaultPlan((spec(trigger=PoissonRate(1.0)),)), sim)
        assert injector.fire(SITE_VIRTIO_CTRL, KIND_LOST_NOTIFY) is None
        assert injector.opportunities == {}
        stream = f"faults.{SITE_VIRTIO_CTRL}.{KIND_LOST_NOTIFY}"
        assert sim.rng(stream).random() == Simulator(seed=1).rng(stream).random()


class TestInjectorAccounting:
    def test_by_hook_views_use_string_keys(self):
        sim = Simulator(seed=1)
        injector = FaultInjector(FaultPlan((spec(trigger=NthEvent(1)),)), sim)
        injector.fire(SITE_XDMA_ENGINE, KIND_DESC_ERROR)
        key = f"{SITE_XDMA_ENGINE}/{KIND_DESC_ERROR}"
        assert injector.injected_by_hook() == {key: 1}
        assert injector.opportunities_by_hook() == {key: 1}

    def test_events_record_time_and_hook(self):
        sim = Simulator(seed=1)
        injector = FaultInjector(FaultPlan((spec(trigger=NthEvent(1)),)), sim)
        injector.fire(SITE_XDMA_ENGINE, KIND_DESC_ERROR)
        assert injector.events == [(0, SITE_XDMA_ENGINE, KIND_DESC_ERROR)]
