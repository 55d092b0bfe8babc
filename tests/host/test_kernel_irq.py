"""Tests for the host kernel hub and interrupt controller."""

import pytest

from repro.host.kernel import HostKernel
from repro.pcie.root_complex import RootComplex
from repro.sim.time import ns, us


@pytest.fixture
def kernel(sim):
    return HostKernel(sim, RootComplex(sim))


class TestCpuAccounting:
    def test_cpu_returns_positive_duration(self, kernel):
        assert kernel.cpu("syscall_entry") > 0

    def test_extra_ps_added(self, kernel):
        clean = kernel.costs.without_noise()
        kernel.costs = clean
        base = kernel.cpu("copy_touch")
        extended = kernel.cpu("copy_touch", extra_ps=us(5))
        assert extended == base + us(5)

    def test_copy_scales_with_length(self, kernel):
        kernel.costs = kernel.costs.without_noise()
        assert kernel.copy(4096) > kernel.copy(64)

    def test_unknown_segment_raises(self, kernel):
        with pytest.raises(KeyError):
            kernel.cpu("bogus_segment")


class TestMonotonicClock:
    def test_gettime_quantized_to_ns(self, kernel, sim):
        sim.schedule(1234567, lambda: None)  # 1234.567 ns
        sim.run()
        assert kernel.gettime_ns() == 1234

    def test_monotonic(self, kernel, sim):
        t0 = kernel.gettime_ns()
        sim.schedule(us(5), lambda: None)
        sim.run()
        assert kernel.gettime_ns() >= t0


class TestBlockOn(object):
    def test_wakeup_cost_charged(self, kernel, sim, run):
        kernel.costs = kernel.costs.without_noise()
        ev = sim.event()
        wake_cost = kernel.costs.segments["task_wakeup"].nominal_ps

        def body():
            value = yield from kernel.block_on(ev)
            return (value, sim.now)

        process = sim.spawn(body())
        sim.schedule(us(10), ev.trigger, "data")
        sim.run()
        value, finished = process.result
        assert value == "data"
        assert finished == us(10) + wake_cost


class TestInterruptController:
    def test_msi_dispatches_handler(self, kernel, sim):
        runs = []

        def handler():
            yield ns(10)
            runs.append(sim.now)

        kernel.irqc.register(5, handler)
        kernel.irqc.deliver_msi(0xFEE00000, 5)
        sim.run()
        assert len(runs) == 1
        assert kernel.irqc.delivered == 1

    def test_spurious_vector_counted(self, kernel, sim):
        kernel.irqc.deliver_msi(0xFEE00000, 9)
        sim.run()
        assert kernel.irqc.spurious == 1

    def test_duplicate_registration_rejected(self, kernel):
        kernel.irqc.register(1, lambda: iter(()))
        with pytest.raises(ValueError):
            kernel.irqc.register(1, lambda: iter(()))

    def test_handlers_serialized_on_cpu(self, kernel, sim):
        kernel.costs = kernel.costs.without_noise()
        spans = []

        def handler():
            start = sim.now
            yield us(10)
            spans.append((start, sim.now))

        kernel.irqc.register(1, handler)
        kernel.irqc.deliver_msi(0xFEE00000, 1)
        kernel.irqc.deliver_msi(0xFEE00000, 1)
        sim.run()
        assert len(spans) == 2
        # Second handler's body starts after the first ends.
        assert spans[1][0] >= spans[0][1]

    def test_softirq_deferred(self, kernel, sim):
        kernel.costs = kernel.costs.without_noise()
        marks = []

        def body():
            yield 0
            marks.append(sim.now)

        kernel.irqc.raise_softirq(body())
        sim.run()
        cost = kernel.costs.segments["softirq_schedule"].nominal_ps
        assert marks[0] >= cost

    def test_unregister(self, kernel, sim):
        kernel.irqc.register(1, lambda: iter(()))
        kernel.irqc.unregister(1)
        kernel.irqc.deliver_msi(0xFEE00000, 1)
        sim.run()
        assert kernel.irqc.spurious == 1
