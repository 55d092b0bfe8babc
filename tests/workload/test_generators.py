"""Generator behaviour: determinism, calibration against the paper's
ping-pong loop, and open-loop accounting invariants."""

import numpy as np
import pytest

from repro.core.latency import run_latency_sweep
from repro.core.testbed import build_virtio_testbed, build_xdma_testbed
from repro.workload import (
    ClosedLoopGenerator,
    FixedSize,
    OpenLoopGenerator,
    PoissonArrivals,
    WorkloadError,
)


class TestClosedLoopCalibration:
    """ISSUE acceptance: closed-loop N=1 reproduces the ping-pong sweep."""

    def test_virtio_n1_matches_ping_pong_mean(self):
        sweep = run_latency_sweep(build_virtio_testbed(seed=0), [64], packets=150)
        metrics = build_virtio_testbed(seed=0).run_workload(
            ClosedLoopGenerator(outstanding=1, sizes=FixedSize(64), packets=150)
        )
        pingpong = float(sweep[64].rtt_ps.mean())
        closed = float(metrics.latency_ps.mean())
        assert closed == pytest.approx(pingpong, rel=0.05)

    def test_xdma_n1_matches_ping_pong_mean(self):
        sweep = run_latency_sweep(build_xdma_testbed(seed=0), [64], packets=150)
        metrics = build_xdma_testbed(seed=0).run_workload(
            ClosedLoopGenerator(outstanding=1, sizes=FixedSize(64), packets=150)
        )
        pingpong = float(sweep[64].rtt_ps.mean())
        closed = float(metrics.latency_ps.mean())
        assert closed == pytest.approx(pingpong, rel=0.05)

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
