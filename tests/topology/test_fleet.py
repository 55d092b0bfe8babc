"""E-M1 fleet sweep: conservation, lane ledgers, jobs parity."""

from __future__ import annotations

import re

import pytest

from repro.exec.cells import Cell
from repro.topology.experiments import (
    FleetConfig,
    fleet_cells,
    run_fleet_pod,
    run_fleet_sweep,
    tenant_queue_pair,
)

LANE_PATTERN = re.compile(r"^dev\d+/vf\d+/q\d+$")


@pytest.fixture(scope="module")
def pod_report():
    config = FleetConfig(tenants=8)
    return run_fleet_pod(pod=0, seed=123, packets=12, config=config)


class TestPodConservation:
    def test_every_flow_conserves(self, pod_report):
        assert pod_report.conserved, pod_report.health.violations
        health = pod_report.health
        assert health.offered == health.delivered + health.dropped
        assert health.offered == 8 * 12

    def test_lane_keys_name_device_function_pair(self, pod_report):
        lanes = pod_report.health.lanes
        assert lanes  # every tenant tagged a lane
        for lane in lanes:
            assert LANE_PATTERN.match(lane), lane

    def test_lane_sums_match_totals(self, pod_report):
        health = pod_report.health
        for key, total in (("offered", health.offered),
                           ("delivered", health.delivered),
                           ("dropped", health.dropped)):
            assert sum(c[key] for c in health.lanes.values()) == total

    def test_acceptance_shape(self, pod_report):
        # E-M1 floor: >= 2 devices per pod, one of them SR-IOV with
        # >= 2 VFs, all functions multi-queue.
        assert pod_report.devices == 2
        assert pod_report.functions == 3  # 1 plain + 2 VFs
        assert pod_report.queue_pairs == 2  # per function
        assert pod_report.functions * pod_report.queue_pairs == 6
        assert pod_report.switch_stats["tlps_forwarded"] > 0
        assert len(pod_report.arbiter_stats) == 1
        assert all(v > 0 for v in pod_report.arbiter_stats[0].values())

    def test_tenants_spread_across_queue_pairs(self, pod_report):
        pairs = {stats.queue_pair for stats in pod_report.tenants}
        assert len(pairs) >= 2


class TestQueuePairMapping:
    def test_matches_rss_reduction(self):
        pair = tenant_queue_pair(0x0A000001, 0x0A000002, 49003, 4)
        assert 0 <= pair < 4

    def test_single_pair_degenerates_to_zero(self):
        assert tenant_queue_pair(0x0A000001, 0x0A000002, 49003, 1) == 0


class TestFleetCells:
    def test_cells_labelled_by_pod(self):
        cells = fleet_cells(pods=3, packets=5, seed=9, config=FleetConfig())
        assert [cell.label for cell in cells] == [
            "fleet/pod0", "fleet/pod1", "fleet/pod2",
        ]
        assert all(isinstance(cell, Cell) for cell in cells)
        assert len({cell.seed for cell in cells}) == 3


class TestSweep:
    def test_jobs_parity(self):
        kwargs = dict(pods=2, tenants=4, packets=8, seed=5, queue_pairs=2)
        serial = run_fleet_sweep(jobs=1, **kwargs)
        threaded = run_fleet_sweep(jobs=2, **kwargs)
        assert serial.as_dict() == threaded.as_dict()

    def test_sweep_verdict_and_flow_count(self):
        result = run_fleet_sweep(pods=2, tenants=4, packets=8, seed=5)
        assert result.flows == 8
        assert result.verdict == "PASS"
        assert result.all_conserved
        assert 0.0 < result.fairness <= 1.0
        assert result.aggregate_goodput_pps > 0
        assert len(result.pods) == 2


class TestDeepWritePipelines:
    def test_more_queued_writes_than_staging_slots_conserve(self):
        """24 tenants on 8 queue pairs queue up to 11 device writes on
        one DMA port, more than its 8 staging slots (the CLI's
        ``fleetsweep --pods 1 --tenants 24 --queue-pairs 8 --packets
        8``); every write must still carry its own bytes."""
        result = run_fleet_sweep(pods=1, tenants=24, queue_pairs=8, packets=8, seed=0)
        (pod,) = result.pods
        assert pod.conserved, pod.health.violations
        assert pod.health.offered == 24 * 8
