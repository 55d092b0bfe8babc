"""Generator behaviour: determinism, calibration against the paper's
ping-pong loop, and open-loop accounting invariants."""

import numpy as np
import pytest

from repro.core.latency import ExperimentError, run_latency_sweep, run_payload
from repro.core.testbed import build_virtio_testbed, build_xdma_testbed
from repro.faults.plan import driver_fault_plan
from repro.topology.builder import build_from_spec
from repro.topology.spec import GuestSpec, TopologySpec
from repro.workload import (
    ClosedLoopGenerator,
    FixedSize,
    OpenLoopGenerator,
    PoissonArrivals,
    WorkloadError,
)
from repro.workload import generator as generator_module


class TestClosedLoopCalibration:
    """The paper's ping-pong is the closed loop at N=1: the latency
    runner adds only the counter collection, so its round trips are the
    closed loop's, sample for sample."""

    def test_virtio_n1_matches_ping_pong_mean(self):
        sweep = run_latency_sweep(build_virtio_testbed(seed=0), [64], packets=150)
        metrics = build_virtio_testbed(seed=0).run_workload(
            ClosedLoopGenerator(outstanding=1, sizes=FixedSize(64), packets=150)
        )
        assert np.array_equal(metrics.latency_ps, sweep[64].rtt_ps)

    def test_xdma_n1_matches_ping_pong_mean(self):
        sweep = run_latency_sweep(build_xdma_testbed(seed=0), [64], packets=150)
        metrics = build_xdma_testbed(seed=0).run_workload(
            ClosedLoopGenerator(outstanding=1, sizes=FixedSize(64), packets=150)
        )
        assert np.array_equal(metrics.latency_ps, sweep[64].rtt_ps)

    def test_trapped_guest_n1_matches_ping_pong(self):
        def trapped():
            spec = TopologySpec.single_virtio(GuestSpec(mode="trapped"))
            return build_from_spec(spec, seed=4)

        result = run_payload(trapped(), 256, 60)
        metrics = trapped().run_workload(
            ClosedLoopGenerator(outstanding=1, sizes=FixedSize(256), packets=60)
        )
        assert np.array_equal(metrics.latency_ps, result.rtt_ps)
        assert result.trap_ps is not None and (result.trap_ps > 0).all()
        assert np.array_equal(metrics.trap_ps, result.trap_ps)

    def test_bare_metal_records_no_trap_time(self):
        metrics = build_virtio_testbed(seed=0).run_workload(
            ClosedLoopGenerator(outstanding=1, sizes=FixedSize(64), packets=5)
        )
        assert metrics.trap_ps is None

    def test_virtio_throughput_scales_with_outstanding(self):
        one = build_virtio_testbed(seed=1).run_workload(
            ClosedLoopGenerator(outstanding=1, sizes=FixedSize(64), packets=120)
        )
        four = build_virtio_testbed(seed=1).run_workload(
            ClosedLoopGenerator(outstanding=4, sizes=FixedSize(64), packets=120)
        )
        assert four.achieved_pps > one.achieved_pps * 1.4


class TestDeterminism:
    def _run_open(self, seed: int):
        testbed = build_virtio_testbed(seed=seed)
        generator = OpenLoopGenerator(
            PoissonArrivals(rate_pps=50_000), FixedSize(64), packets=100
        )
        return testbed.run_workload(generator)

    def test_same_seed_identical_samples(self):
        first, second = self._run_open(5), self._run_open(5)
        assert np.array_equal(first.latency_ps, second.latency_ps)
        assert np.array_equal(first.occupancy_t_ps, second.occupancy_t_ps)
        assert np.array_equal(first.occupancy_n, second.occupancy_n)
        assert first.sent == second.sent
        assert first.dropped == second.dropped
        assert first.backpressured == second.backpressured

    def test_different_seed_differs(self):
        assert not np.array_equal(
            self._run_open(5).latency_ps, self._run_open(6).latency_ps
        )

    def test_closed_loop_same_seed_identical(self):
        def run():
            return build_xdma_testbed(seed=2).run_workload(
                ClosedLoopGenerator(outstanding=2, sizes=FixedSize(64), packets=60)
            )

        assert np.array_equal(run().latency_ps, run().latency_ps)


class TestOpenLoopAccounting:
    def test_counts_consistent_below_saturation(self):
        metrics = build_virtio_testbed(seed=0).run_workload(
            OpenLoopGenerator(PoissonArrivals(10_000), FixedSize(64), packets=80)
        )
        assert metrics.mode == "open"
        assert metrics.offered_pps == 10_000
        assert metrics.sent == metrics.completed == 80
        assert metrics.dropped == 0
        assert np.all(metrics.latency_ps > 0)
        assert metrics.achieved_pps == pytest.approx(10_000, rel=0.35)
        assert 0 < metrics.mean_in_flight < 2
        assert metrics.occupancy_n.min() >= 0

    def test_overload_drops_and_saturates(self):
        # Far past the knee: the TX ring fills, the qdisc analogue drops,
        # and achieved throughput decouples from offered load.
        offered = 500_000.0
        metrics = build_virtio_testbed(seed=0).run_workload(
            OpenLoopGenerator(PoissonArrivals(offered), FixedSize(64), packets=150)
        )
        assert metrics.dropped > 0
        assert metrics.sent + metrics.dropped == 150
        assert metrics.completed == metrics.sent
        assert metrics.achieved_pps < 0.5 * offered

    def test_xdma_open_loop_queues(self):
        metrics = build_xdma_testbed(seed=0).run_workload(
            OpenLoopGenerator(PoissonArrivals(60_000), FixedSize(64), packets=100)
        )
        assert metrics.completed == metrics.sent == 100
        # Offered rate beyond XDMA capacity: the software queue builds.
        assert metrics.peak_in_flight > 4

    def test_latency_includes_queue_wait(self):
        low = build_xdma_testbed(seed=0).run_workload(
            OpenLoopGenerator(PoissonArrivals(5_000), FixedSize(64), packets=80)
        )
        high = build_xdma_testbed(seed=0).run_workload(
            OpenLoopGenerator(PoissonArrivals(80_000), FixedSize(64), packets=80)
        )
        assert (
            high.latency_percentiles_us()[99.0]
            > 2 * low.latency_percentiles_us()[99.0]
        )


class TestDroppedRoundTrip:
    def test_run_payload_raises_naming_the_reason(self):
        # Every descriptor corrupt and no retries: each transfer fails.
        testbed = build_xdma_testbed(seed=3, fault_plan=driver_fault_plan("xdma", 1.0))
        testbed.driver.max_retries = 0
        with pytest.raises(ExperimentError, match="retries_exhausted"):
            run_payload(testbed, 64, 3)

    def test_closed_loop_counts_the_drop(self):
        testbed = build_xdma_testbed(seed=3, fault_plan=driver_fault_plan("xdma", 1.0))
        testbed.driver.max_retries = 0
        metrics = testbed.run_workload(
            ClosedLoopGenerator(outstanding=1, sizes=FixedSize(64), packets=3)
        )
        assert metrics.completed == 0
        assert metrics.drop_reasons == {"retries_exhausted": 3}
        # Each attempt counts once: sent, then lost, then out of flight.
        assert (metrics.sent, metrics.dropped) == (0, 3)
        assert metrics.offered_total == 3
        assert metrics.peak_in_flight == 1
        assert metrics.occupancy_n[-1] == 0


class TestPayloadBuilders:
    """Both payload builders match their per-byte definitions."""

    SEQUENCES = (0, 1, 15, 255, 256, 70_000, 2**31, 2**32 - 1)
    SIZES = (0, 1, 4, 5, 15, 16, 17, 64, 255, 256, 260, 261, 512, 1024, 1472)

    def test_closed_loop_payload(self):
        for sequence in self.SEQUENCES:
            for size in self.SIZES:
                expected = bytes((sequence + i % 16) & 0xFF for i in range(size))
                assert generator_module._test_payload(size, sequence) == expected, (
                    sequence, size)

    def test_open_loop_stamp(self):
        for sequence in self.SEQUENCES:
            for size in self.SIZES:
                if size < 4:
                    with pytest.raises(WorkloadError):
                        generator_module._stamp(sequence, size)
                    continue
                expected = sequence.to_bytes(4, "little") + bytes(
                    (sequence + i) & 0xFF for i in range(size - 4)
                )
                assert generator_module._stamp(sequence, size) == expected, (
                    sequence, size)


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(WorkloadError):
            OpenLoopGenerator(PoissonArrivals(1000), FixedSize(64), packets=0)
        with pytest.raises(WorkloadError):
            ClosedLoopGenerator(outstanding=0, sizes=FixedSize(64), packets=10)
        with pytest.raises(WorkloadError):
            ClosedLoopGenerator(outstanding=8, sizes=FixedSize(64), packets=4)

    def test_unknown_testbed_rejected(self):
        with pytest.raises(TypeError):
            OpenLoopGenerator(PoissonArrivals(1000), FixedSize(64), packets=10).run(
                object()
            )
        with pytest.raises(TypeError):
            ClosedLoopGenerator(1, FixedSize(64), packets=10).run(object())
