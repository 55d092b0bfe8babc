"""Tests for the spec-feature extensions: indirect descriptors, the
virtio-net control queue, pipelined load, and timelines."""

import dataclasses

import pytest

from repro.core.calibration import FPGA_IP, PAPER_PROFILE, TEST_DST_PORT
from repro.core.testbed import (
    build_block_testbed,
    build_virtio_testbed,
    build_xdma_testbed,
)
from repro.core.timeline import capture_virtio_timeline, capture_xdma_timeline
from repro.virtio.constants import VIRTIO_F_RING_INDIRECT_DESC, VIRTIO_NET_F_CTRL_VQ
from repro.workload import ClosedLoopGenerator, FixedSize


class TestIndirectDescriptors:
    @pytest.fixture(scope="class")
    def block(self):
        return build_block_testbed(seed=61)

    def test_negotiated(self, block):
        assert block.driver.use_indirect
        assert block.driver.transport.accepted_features.has(VIRTIO_F_RING_INDIRECT_DESC)

    def test_roundtrip_through_indirect_table(self, block):
        payload = bytes(range(256)) * 2

        def app():
            yield from block.driver.write_sectors(3, payload)
            data = yield from block.driver.read_sectors(3, 1)
            return data

        process = block.sim.spawn(app())
        assert block.sim.run_until_triggered(process) == payload[:512]

    def test_single_ring_descriptor_per_request(self, block):
        """An indirect request consumes exactly one ring slot."""
        vq = block.driver.transport.queue(0)
        free_before = vq.num_free

        def app():
            yield from block.driver.flush()

        process = block.sim.spawn(app())
        block.sim.run_until_triggered(process)
        block.sim.run()
        assert vq.num_free == free_before  # freed on completion

    def test_fewer_descriptor_reads_than_direct(self):
        """The device fetches one table instead of walking N descriptors."""
        counts = {}
        for label, supported in (("indirect", True), ("direct", False)):
            testbed = build_block_testbed(seed=62)
            if not supported:
                # Force the driver down the direct path.
                testbed.driver.use_indirect = False
            reads_before = testbed.device.dma_port.reads_issued

            def app(tb=testbed):
                yield from tb.driver.read_sectors(0, 1)

            process = testbed.sim.spawn(app())
            testbed.sim.run_until_triggered(process)
            testbed.sim.run()
            counts[label] = testbed.device.dma_port.reads_issued - reads_before
        # direct: avail + entry + 3 descriptors (+ flags...); indirect:
        # avail + entry + 1 descriptor + 1 table.
        assert counts["indirect"] < counts["direct"]


class TestControlQueue:
    @pytest.fixture(scope="class")
    def testbed(self):
        profile = dataclasses.replace(PAPER_PROFILE, offer_ctrl_vq=True)
        return build_virtio_testbed(seed=63, profile=profile)

    def test_negotiated(self, testbed):
        assert testbed.driver.has_ctrl_vq
        assert testbed.driver.transport.accepted_features.has(VIRTIO_NET_F_CTRL_VQ)
        assert len(testbed.driver.transport.virtqueues) == 3

    def test_promiscuous_command(self, testbed):
        def app():
            ack = yield from testbed.driver.send_ctrl_command(0, 0, b"\x01")  # RX / PROMISC on
            return ack

        process = testbed.sim.spawn(app())
        assert testbed.sim.run_until_triggered(process) == 0  # VIRTIO_NET_OK
        assert testbed.device.personality.promiscuous

    def test_unknown_command_rejected(self, testbed):
        def app():
            ack = yield from testbed.driver.send_ctrl_command(9, 9, b"\x00")
            return ack

        process = testbed.sim.spawn(app())
        assert testbed.sim.run_until_triggered(process) == 1  # VIRTIO_NET_ERR

    def test_data_path_unaffected(self, testbed):
        def app():
            yield from testbed.socket.sendto(b"with ctrl vq", FPGA_IP, TEST_DST_PORT)
            data, _ = yield from testbed.socket.recvfrom()
            return data

        process = testbed.sim.spawn(app())
        assert testbed.sim.run_until_triggered(process) == b"with ctrl vq"


class TestThroughput:
    """Pipelined load is the closed loop with a window of requests in
    flight."""

    @staticmethod
    def _run(testbed, window, packets):
        return testbed.run_workload(
            ClosedLoopGenerator(outstanding=window, sizes=FixedSize(64), packets=packets)
        )

    def test_virtio_scales_with_window(self):
        results = {}
        for window in (1, 4):
            testbed = build_virtio_testbed(seed=64)
            results[window] = self._run(testbed, window, 80)
        assert results[4].achieved_pps > results[1].achieved_pps

    def test_xdma_two_irqs_per_packet(self):
        testbed = build_xdma_testbed(seed=64)
        before = testbed.kernel.irqc.delivered
        metrics = self._run(testbed, 2, 40)
        irqs = testbed.kernel.irqc.delivered - before
        assert irqs / metrics.completed == pytest.approx(2.0, abs=0.1)


class TestTimeline:
    def test_virtio_timeline_narrates_the_protocol(self):
        timeline = capture_virtio_timeline(seed=65)
        assert timeline.count("kick") >= 1  # the single doorbell
        assert timeline.count("queue-irq") == 1  # one RX interrupt
        assert timeline.count("echo") == 1
        text = timeline.render()
        assert "doorbell" in text
        assert "us total" in text

    def test_xdma_timeline_shows_two_engine_runs(self):
        timeline = capture_xdma_timeline(seed=65)
        assert timeline.count("sgdma-start") == 2  # H2C + C2H
        assert timeline.count("channel-irq") == 2
        text = timeline.render()
        assert "SGDMA" in text

    def test_timeline_totals_plausible(self):
        timeline = capture_virtio_timeline(seed=66)
        assert 15 < timeline.total_us < 120

    def test_tlp_detail_view(self):
        timeline = capture_virtio_timeline(seed=67)
        brief = timeline.render(include_tlps=False)
        full = timeline.render(include_tlps=True)
        assert len(full.splitlines()) > len(brief.splitlines())

    @pytest.mark.parametrize("capture", [capture_virtio_timeline, capture_xdma_timeline])
    def test_tlp_view_in_time_order(self, capture):
        """A queued TLP's ``tlp-tx`` is emitted at enqueue, stamped with
        its later transmission start; the timeline still reads in time
        order (this round trip queues TLPs behind 1024 B payloads)."""
        timeline = capture(seed=67, payload_size=1024)
        times = [record.time for record in timeline.records]
        assert times == sorted(times)
        lines = timeline.render(include_tlps=True).splitlines()[1:]
        rendered = [float(line.split("us")[0].lstrip(" +")) for line in lines]
        assert len(rendered) == len(times)
        assert rendered == sorted(rendered)
