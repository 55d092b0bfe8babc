"""PCIe switch fan-out and SR-IOV DMA-bandwidth arbitration."""

from __future__ import annotations

import pytest

from repro.core.calibration import TEST_DST_PORT
from repro.pcie.link import LinkConfig, PcieLink
from repro.pcie.switch import PcieSwitch
from repro.pcie.tlp import memory_write
from repro.sim.kernel import Simulator
from repro.topology.builder import build_from_spec
from repro.topology.spec import DeviceSpec, FunctionSpec, TopologySpec
from repro.virtio.controller.arbiter import DmaBandwidthArbiter
from repro.virtio.controller.dma_port import NUM_STAGING_SLOTS


def echo_all(testbed, packets=4):
    """Ping-pong *packets* echoes through every function."""
    for i, function in enumerate(testbed.functions):
        socket = testbed.open_socket(49100 + i)

        def pingpong():
            for _ in range(packets):
                yield from socket.sendto(b"\x01" * 64, function.fpga_ip,
                                         TEST_DST_PORT)
                yield from socket.recvfrom()
            socket.close()

        done = testbed.sim.spawn(pingpong(), name=f"echo{i}")
        testbed.sim.run_until_triggered(done)
    testbed.sim.run()


class TestSwitch:
    def test_forwards_all_upstream_traffic(self):
        spec = TopologySpec(devices=(DeviceSpec(), DeviceSpec()), switch=True)
        testbed = build_from_spec(spec, seed=21)
        echo_all(testbed)
        switch = testbed.switch
        assert switch is not None
        assert len(switch._ports) == 2
        stats = switch.stats
        assert stats["tlps_forwarded"] > 0
        assert stats["port0_tlps"] > 0
        assert stats["port1_tlps"] > 0
        assert stats["port0_tlps"] + stats["port1_tlps"] == stats["tlps_forwarded"]

    def test_equal_load_forwards_fairly(self):
        spec = TopologySpec(devices=(DeviceSpec(), DeviceSpec()), switch=True)
        testbed = build_from_spec(spec, seed=22)
        echo_all(testbed, packets=8)
        stats = testbed.switch.stats
        low, high = sorted([stats["port0_tlps"], stats["port1_tlps"]])
        assert high - low <= 0.1 * high  # near-equal shares


class TestSwitchTiming:
    """Exact uplink timing: two ports post bursts at the same instant."""

    def test_idle_uplink_sends_at_once_and_busy_one_grants_round_robin(self):
        sim = Simulator(seed=1)
        config = LinkConfig()
        switch = PcieSwitch(sim, config)
        arrivals = []
        links = []
        for port in range(2):
            link = PcieLink(sim, config, name=f"link{port}")
            link.attach_root_rx(
                lambda tlp, port=port: arrivals.append((sim.now, port, tlp.addr))
            )
            switch.attach(link)
            links.append(link)
        for i in range(3):
            for port, link in enumerate(links):
                link.post_upstream(memory_write(0x1000 * port + i, b"\x00" * 64))
        sim.run()
        ser = config.serialization_time(memory_write(0, b"\x00" * 64).wire_bytes)
        prop = config.propagation_time
        # Both ports' first TLPs reach the switch after one downstream
        # serialization; port 0's finds the uplink idle and goes at once,
        # and from then on the busy uplink alternates between the ports.
        assert arrivals == [
            ((2 + k) * ser + prop, k % 2, 0x1000 * (k % 2) + k // 2) for k in range(6)
        ]
        assert switch.stats["port0_tlps"] == switch.stats["port1_tlps"] == 3


class TestArbiterUnit:
    """Direct unit tests: granted transfers only record themselves, and
    the tests fire their completion events by hand, so grant order is
    observable synchronously."""

    def make(self, policy, weights):
        sim = Simulator(seed=1)
        arbiter = DmaBandwidthArbiter(sim, policy=policy)
        ports = [arbiter.register(weight) for weight in weights]
        return arbiter, ports

    def submit_n(self, arbiter, port, order, dones, n):
        def start(src, dst, length, done):
            order.append(port)
            dones.append(done)

        for _ in range(n):
            arbiter.submit(port, start, 0, 0, 64)

    def test_rejects_unknown_policy(self):
        sim = Simulator(seed=1)
        with pytest.raises(ValueError):
            DmaBandwidthArbiter(sim, policy="lottery")

    def test_rejects_zero_weight(self):
        arbiter, _ = self.make("rr", [1])
        with pytest.raises(ValueError):
            arbiter.register(0)

    def test_round_robin_alternates(self):
        arbiter, (a, b) = self.make("rr", [1, 1])
        order, dones = [], []
        # The very first submit grants immediately; everything queued
        # after it contends, and releases alternate ports.
        self.submit_n(arbiter, a, order, dones, 3)
        self.submit_n(arbiter, b, order, dones, 3)
        while len(order) < 6:
            dones.pop(0).trigger(None)
        assert order == [a, b, a, b, a, b]
        assert arbiter.grants == [3, 3]

    def test_weighted_burst_follows_credit(self):
        arbiter, (a, b) = self.make("weighted", [3, 1])
        order, dones = [], []
        # Occupy the mover with a dummy transfer so the real work all
        # queues up before any pick happens.
        self.submit_n(arbiter, a, order, dones, 1)
        self.submit_n(arbiter, a, order, dones, 6)
        self.submit_n(arbiter, b, order, dones, 2)
        while len(order) < 9:
            dones.pop(0).trigger(None)
        assert arbiter.grants == [7, 2]
        contended = order[1:]
        # b was next in line after the dummy; a then bursts up to its
        # weight of 3 consecutive grants per visit.
        assert contended[0] == b
        runs = max(
            len(run)
            for run in "".join("a" if p == a else "b" for p in contended).split("b")
        )
        assert runs == 3

    def test_uncontended_grant_is_immediate(self):
        arbiter, (a,) = self.make("rr", [1])
        order, dones = [], []
        self.submit_n(arbiter, a, order, dones, 1)
        assert order == [a]  # started inside submit, no waiting


class TestArbiterIntegration:
    def test_sriov_functions_share_via_arbiter(self):
        spec = TopologySpec(
            devices=(
                DeviceSpec(functions=(FunctionSpec(), FunctionSpec())),
            ),
        )
        testbed = build_from_spec(spec, seed=23)
        assert len(testbed.arbiters) == 1
        echo_all(testbed)
        stats = testbed.arbiters[0].stats
        assert stats["vf0_grants"] > 0
        assert stats["vf1_grants"] > 0

    def test_waiter_resumes_before_next_grant(self, monkeypatch):
        """Two VFs contend for the one mover: when a transfer completes,
        the FSM waiting on it reacts (here: queues its next read) before
        the arbiter grants the next transfer."""
        spec = TopologySpec(
            devices=(
                DeviceSpec(functions=(FunctionSpec(), FunctionSpec())),
            ),
        )
        testbed = build_from_spec(spec, seed=23)
        sim, arbiter = testbed.sim, testbed.arbiters[0]
        memory = testbed.kernel.memory
        log = []
        grant_next = arbiter._grant_next

        def logged_grant():
            log.append("grant")
            grant_next()

        monkeypatch.setattr(arbiter, "_grant_next", logged_grant)

        def fsm(name, port, addr):
            for i in range(3):
                data = yield port.host_read(addr + 16 * i, 16)
                assert data == memory.read(addr + 16 * i, 16)
                log.append(name)

        memory.write(0x20000, bytes(range(96)))
        for name, function, addr in (("vf0", testbed.functions[0], 0x20000),
                                     ("vf1", testbed.functions[1], 0x20030)):
            sim.spawn(fsm(name, function.device.dma_port, addr))
        sim.run()
        assert log == ["grant", "vf0", "grant", "vf1"] * 3

    def test_queued_writes_keep_their_bytes_behind_arbiter(self):
        """More writes queued on one VF than it has staging slots, while
        the other VF contends: each write lands its own bytes."""
        spec = TopologySpec(
            devices=(
                DeviceSpec(functions=(FunctionSpec(), FunctionSpec())),
            ),
        )
        testbed = build_from_spec(spec, seed=23)
        memory = testbed.kernel.memory
        writer = testbed.functions[0].device.dma_port
        reader = testbed.functions[1].device.dma_port
        writes = NUM_STAGING_SLOTS + 3
        grants_before = list(testbed.arbiters[0].grants)
        done = []
        for i in range(writes):
            done.append(writer.host_write(0x30000 + 64 * i, bytes([i + 1]) * 48))
            done.append(reader.host_read(0x30000, 16))
        testbed.sim.run()
        assert all(event.triggered for event in done)
        for i in range(writes):
            assert memory.read(0x30000 + 64 * i, 48) == bytes([i + 1]) * 48
        grants = testbed.arbiters[0].grants
        assert [n - b for n, b in zip(grants, grants_before)] == [writes, writes]

    def test_plain_device_has_no_arbiter(self):
        spec = TopologySpec(devices=(DeviceSpec(), DeviceSpec()), switch=True)
        testbed = build_from_spec(spec, seed=24)
        assert testbed.arbiters == []
        for function in testbed.functions:
            assert function.device.dma_port.arbiter is None
