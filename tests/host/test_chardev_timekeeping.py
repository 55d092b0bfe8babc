"""Tests for the chardev syscall layer and timekeeping."""

import pytest

from repro.host.chardev import CharDevice, sys_poll, sys_read, sys_write
from repro.host.kernel import HostKernel
from repro.host.timekeeping import MonotonicClock
from repro.pcie.root_complex import RootComplex
from repro.sim.event import Event
from repro.sim.time import ns, us


class LoopbackDevice(CharDevice):
    """A chardev that stores writes and returns them on read."""

    def __init__(self) -> None:
        super().__init__("loop0")
        self.buffer = b""
        self._readable = Event(name="loop0.readable")

    def dev_write(self, data):
        self.buffer = data
        if not self._readable.triggered:
            self._readable.trigger(None)
        yield ns(10)
        return len(data)

    def dev_read(self, length):
        yield ns(10)
        return self.buffer[:length]

    def poll_readable(self):
        return self._readable


@pytest.fixture
def kernel(sim):
    kernel = HostKernel(sim, RootComplex(sim))
    kernel.costs = kernel.costs.without_noise()
    return kernel


class TestSyscalls:
    def test_write_read_roundtrip(self, kernel, sim, run):
        device = LoopbackDevice()

        def app():
            written = yield from sys_write(kernel, device, b"chardev data")
            data = yield from sys_read(kernel, device, written)
            return data

        assert run(sim, app()) == b"chardev data"

    def test_syscall_costs_charged(self, kernel, sim, run):
        device = LoopbackDevice()
        costs = kernel.costs
        expected_floor = (
            costs.segments["syscall_entry"].nominal_ps
            + costs.segments["chardev_dispatch"].nominal_ps
            + costs.segments["syscall_exit"].nominal_ps
        )

        def app():
            t0 = sim.now
            yield from sys_write(kernel, device, b"x")
            return sim.now - t0

        assert run(sim, app()) >= expected_floor

    def test_poll_returns_immediately_when_readable(self, kernel, sim, run):
        device = LoopbackDevice()
        device._readable.trigger(None)

        def app():
            t0 = sim.now
            yield from sys_poll(kernel, device)
            return sim.now - t0

        elapsed = run(sim, app())
        # No task_wakeup charge on the fast path.
        assert elapsed < kernel.costs.segments["task_wakeup"].nominal_ps

    def test_poll_blocks_until_readable(self, kernel, sim):
        device = LoopbackDevice()
        finished = []

        def app():
            yield from sys_poll(kernel, device)
            finished.append(sim.now)

        sim.spawn(app())
        sim.run()
        assert not finished
        sim.schedule(us(50), device._readable.trigger, None)
        sim.run()
        assert finished and finished[0] > us(50)

    def test_base_class_is_abstract(self, kernel, sim):
        device = CharDevice("abstract0")
        with pytest.raises(Exception):
            gen = device.dev_write(b"x")
            next(gen)


class TestMonotonicClock:
    def test_quantization(self, sim):
        clock = MonotonicClock(sim)
        sim.schedule(1999, lambda: None)  # 1.999 ns
        sim.run()
        assert clock.gettime_ns() == 1

    def test_custom_resolution(self, sim):
        clock = MonotonicClock(sim, resolution_ps=ns(8))
        sim.schedule(ns(15), lambda: None)
        sim.run()
        assert clock.gettime_ns() == 8

    def test_call_cost_positive(self, sim):
        assert MonotonicClock(sim).call_cost() > 0

    def test_invalid_resolution(self, sim):
        with pytest.raises(ValueError):
            MonotonicClock(sim, resolution_ps=0)
