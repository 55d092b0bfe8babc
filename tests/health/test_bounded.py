"""Unit tests for the bounded-queue primitive, per-hop bound wiring,
and the open-loop flow's overload accounting."""

import pytest

from repro.core.testbed import build_virtio_testbed, build_xdma_testbed
from repro.drivers.virtio_net import TRANSMITQ
from repro.health.bounded import BoundedQueue, apply_overload_bounds
from repro.workload import FixedSize, OpenLoopGenerator, PoissonArrivals
from repro.workload import generator as generator_module
from repro.workload.admission import AdmissionController, OverloadConfig


class TestBoundedQueue:
    def test_fifo_within_capacity(self):
        q = BoundedQueue(capacity=3, name="t")
        for item in "abc":
            assert q.try_push(item)
        assert len(q) == 3 and bool(q)
        assert not q.has_room()
        assert [q.popleft() for _ in range(3)] == ["a", "b", "c"]
        assert not q and q.has_room()
        assert q.dropped_total == 0

    def test_drop_policy_counts_under_reason(self):
        q = BoundedQueue(capacity=1, name="t", drop_reason="overflow")
        assert q.try_push(1)
        assert not q.try_push(2)
        assert not q.try_push(3, reason="custom")
        assert q.drops == {"overflow": 1, "custom": 1}
        assert q.dropped_total == 2
        assert len(q) == 1  # the resident item survived; newest was dropped

    def test_unbounded_queue_never_refuses(self):
        q = BoundedQueue(capacity=None)
        for i in range(10_000):
            assert q.try_push(i)
        assert q.has_room() and q.dropped_total == 0

    def test_count_drop_outside_push(self):
        q = BoundedQueue(capacity=4, drop_reason="default")
        q.count_drop()
        q.count_drop("other", n=3)
        assert q.drops == {"default": 1, "other": 3}

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_nonpositive_capacity_rejected(self, capacity):
        with pytest.raises(ValueError):
            BoundedQueue(capacity=capacity)


class TestOverloadConfig:
    @pytest.mark.parametrize("field", [
        "admission_limit", "socket_rx_limit", "tx_depth_limit",
        "xdma_queue_limit", "xdma_max_pending",
    ])
    def test_nonpositive_bound_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            OverloadConfig(**{field: 0})


class TestApplyOverloadBounds:
    def test_virtio_bounds_installed(self):
        testbed = build_virtio_testbed(seed=1)
        config = OverloadConfig(socket_rx_limit=32, tx_depth_limit=16)
        before = testbed.socket.rx_queue_limit
        apply_overload_bounds(testbed, config)
        # The backlog bound belongs to the open-loop flow's own socket
        # (TestOpenLoopOverloadAccounting), not the ping-pong socket.
        assert testbed.socket.rx_queue_limit == before
        assert testbed.driver.transport.queue(TRANSMITQ).depth_limit == 16
        assert testbed.driver.netdev.can_xmit == testbed.driver.tx_has_room

    def test_xdma_pending_window_installed(self):
        testbed = build_xdma_testbed(seed=1)
        apply_overload_bounds(testbed, OverloadConfig(xdma_max_pending=4))
        assert testbed.driver.max_pending == 4

    def test_none_bounds_leave_limits_untouched(self):
        testbed = build_virtio_testbed(seed=1)
        before = testbed.socket.rx_queue_limit
        apply_overload_bounds(testbed, OverloadConfig())
        assert testbed.socket.rx_queue_limit == before
        assert testbed.driver.transport.queue(TRANSMITQ).depth_limit is None
        xdma = build_xdma_testbed(seed=1)
        apply_overload_bounds(xdma, OverloadConfig())
        assert xdma.driver.max_pending is None

    def test_unknown_testbed_type_rejected(self):
        with pytest.raises(TypeError):
            apply_overload_bounds(object(), OverloadConfig())


@pytest.fixture
def admissions(monkeypatch):
    """Every admission window the open-loop generator creates."""
    made = []

    class Recorded(AdmissionController):
        def __init__(self, limit):
            super().__init__(limit)
            made.append(self)

    monkeypatch.setattr(generator_module, "AdmissionController", Recorded)
    return made


class TestOpenLoopOverloadAccounting:
    """An admitted packet returns its admission slot however it ends:
    delivered, refused by the XDMA driver, or lost at the socket."""

    def test_xdma_driver_rejects_return_their_slots(self, admissions):
        testbed = build_xdma_testbed(seed=1)
        config = OverloadConfig(admission_limit=4, xdma_max_pending=1,
                                xdma_queue_limit=64)
        apply_overload_bounds(testbed, config)
        metrics = OpenLoopGenerator(
            PoissonArrivals(200_000), FixedSize(64), packets=200, overload=config
        ).run(testbed)
        assert metrics.drop_reasons.get("driver_busy", 0) > 0
        assert admissions[0].in_flight == 0
        # A request refused after it was sent is dropped, not also
        # sent, and leaves the in-flight count when it is lost.
        assert metrics.offered_total == 200
        assert metrics.dropped == sum(metrics.drop_reasons.values())
        assert metrics.sent == metrics.completed
        assert metrics.peak_in_flight <= 4
        assert metrics.occupancy_n[-1] == 0

    def test_tail_dropped_echoes_return_their_slots(self, admissions):
        testbed = build_virtio_testbed(seed=2)
        open_socket = testbed.open_socket

        def one_datagram_backlog(port):
            socket = open_socket(port)
            socket.rx_queue_limit = 1
            return socket

        testbed.open_socket = one_datagram_backlog
        metrics = OpenLoopGenerator(
            PoissonArrivals(60_000), FixedSize(64), packets=200,
            overload=OverloadConfig(admission_limit=3),
        ).run(testbed)
        assert metrics.drop_reasons.get("socket_rx_overflow", 0) > 0
        assert admissions[0].in_flight == 0
        assert metrics.offered_total == 200
        assert metrics.sent == metrics.completed
        assert metrics.peak_in_flight <= 3
        assert metrics.occupancy_n[-1] == 0

    def test_socket_bound_reaches_the_flow_socket(self):
        testbed = build_virtio_testbed(seed=1)
        config = OverloadConfig(socket_rx_limit=1)
        apply_overload_bounds(testbed, config)
        metrics = OpenLoopGenerator(
            PoissonArrivals(300_000), FixedSize(64), packets=300, overload=config
        ).run(testbed)
        assert metrics.drop_reasons.get("socket_rx_overflow", 0) > 0
