"""Microbenchmarks of the simulation substrate itself.

These time the hot paths that bound experiment wall-clock cost: the
event loop, the PCIe transaction round trip, the virtqueue bookkeeping,
and a complete echo round trip on each testbed.  Regressions here make
the 50 000-packet full-fidelity runs impractical, so they are tracked
as real (multi-round) pytest benchmarks.
"""

import os
import time
from typing import Any, Dict

import pytest

from repro.core.calibration import (
    FPGA_IP,
    PAPER_PAYLOAD_SIZES,
    PAPER_PROFILE,
    TEST_DST_PORT,
)
from repro.core.experiments import run_comparison
from repro.core.latency import run_payload
from repro.core.testbed import build_virtio_testbed, build_xdma_testbed
from repro.host.chardev import sys_read, sys_write
from repro.mem.dma import DmaAllocator
from repro.mem.physical import PhysicalMemory
from repro.sim.kernel import Simulator
from repro.sim.time import ns
from repro.topology.experiments import FleetConfig, run_fleet_pod
from repro.virtio.virtqueue import DriverVirtqueue, ring_layout


@pytest.mark.benchmark(group="substrate")
def test_event_loop_throughput(benchmark):
    """Raw event dispatch rate of the kernel."""

    def run_events():
        sim = Simulator(seed=0)

        def ping():
            for _ in range(10_000):
                yield ns(10)

        sim.spawn(ping())
        sim.run()
        return sim.events_executed

    executed = benchmark(run_events)
    assert executed >= 10_000


@pytest.mark.benchmark(group="substrate")
def test_virtqueue_add_get_throughput(benchmark):
    """Driver-side ring bookkeeping (add_buffer + simulated used)."""
    mem = PhysicalMemory()
    alloc = DmaAllocator(mem)
    _, _, _, total = ring_layout(256)
    vq = DriverVirtqueue(0, 256, alloc.alloc(total, 4096))
    state = {"used_idx": 0}

    def cycle():
        head = vq.add_buffer([(0x10000, 1500)], [])
        vq.publish()
        elem = head.to_bytes(4, "little") + bytes(4)
        mem.write(vq.addresses.used_entry_addr(state["used_idx"]), elem)
        state["used_idx"] = (state["used_idx"] + 1) & 0xFFFF
        mem.write(vq.addresses.used_idx_addr, state["used_idx"].to_bytes(2, "little"))
        assert vq.get_used() is not None

    benchmark(cycle)


@pytest.mark.benchmark(group="substrate")
def test_virtio_echo_round_trip_cost(benchmark):
    """Wall-clock cost of simulating one VirtIO echo round trip."""
    testbed = build_virtio_testbed(seed=0)
    socket = testbed.socket
    payload = b"x" * 64

    def round_trip():
        def app():
            yield from socket.sendto(payload, FPGA_IP, TEST_DST_PORT)
            yield from socket.recvfrom()

        process = testbed.sim.spawn(app())
        testbed.sim.run_until_triggered(process)
        testbed.sim.run()

    benchmark(round_trip)


@pytest.mark.benchmark(group="substrate")
def test_xdma_round_trip_cost(benchmark):
    """Wall-clock cost of simulating one XDMA write+read round trip."""
    testbed = build_xdma_testbed(seed=0)
    payload = b"x" * 118

    def round_trip():
        def app():
            yield from sys_write(testbed.kernel, testbed.driver, payload)
            yield from sys_read(testbed.kernel, testbed.driver, len(payload))

        process = testbed.sim.spawn(app())
        testbed.sim.run_until_triggered(process)
        testbed.sim.run()

    benchmark(round_trip)


@pytest.mark.benchmark(group="substrate")
def test_testbed_boot_cost(benchmark):
    """Wall-clock cost of a full boot (enumeration + probe + RX fill)."""
    counter = {"seed": 0}

    def boot():
        counter["seed"] += 1
        return build_virtio_testbed(seed=counter["seed"])

    testbed = benchmark(boot)
    assert testbed.device.driver_ok


@pytest.mark.benchmark(group="substrate")
def test_event_loop_prescheduled_dispatch(benchmark):
    """Pure dispatch cost of a pre-filled heap (guards the run-loop
    tightening: local heap/pop bindings, no per-event limit checks)."""

    def run_events():
        sim = Simulator(seed=0)
        for i in range(10_000):
            sim.schedule(ns(i), int)
        sim.run()
        return sim.events_executed

    executed = benchmark(run_events)
    assert executed == 10_000  # exact: guards the executed-count accounting


@pytest.mark.benchmark(group="substrate")
def test_tlp_segmentation_cached(benchmark):
    """Steady-state segmentation must be one plan-cache lookup, not a
    Python loop per TLP (guards the (offset, length, limit) memo)."""
    from repro.pcie.tlp import segment_write, segmentation_plan

    data = bytes(4096)
    segment_write(0x1000, data, 128)  # warm the plan cache
    before = segmentation_plan.cache_info().hits

    tlps = benchmark(lambda: segment_write(0x1000, data, 128))
    assert len(tlps) == 4096 // 128
    assert sum(t.payload_bytes for t in tlps) == len(data)
    assert segmentation_plan.cache_info().hits > before


@pytest.mark.benchmark(group="substrate")
def test_max_events_budget_is_exact(benchmark):
    """The max_events valve stops at exactly the budget (off-by-one
    regression guard kept alongside the loop benchmarks)."""
    from repro.sim.kernel import SimulationError

    def run_with_budget():
        sim = Simulator(seed=0)

        def rearm():
            sim.schedule(1, rearm)

        sim.schedule(0, rearm)
        try:
            sim.run(max_events=1000)
        except SimulationError:
            pass
        return sim.events_executed

    assert benchmark(run_with_budget) == 1000


# -- zero-copy data-plane guards ----------------------------------------------

#: Materializing host-memory copies (``PhysicalMemory.read`` calls)
#: allowed per steady-state echo round trip: exactly today's counts,
#: because they are deterministic (no timing, no tolerance).  Virtio
#: makes 289 reads over 24 packets (descriptor table walks dominate;
#: the payload itself is snapshotted once in the driver RX path), xdma
#: 4 per packet (descriptor fetch, C2H snapshot, chardev read,
#: status readback).  A breach means a copy crept back into a hot path;
#: a drop means the budget should come down with it.
VIRTIO_COPIES_PER_PACKET_BUDGET = 289 / 24
XDMA_COPIES_PER_PACKET_BUDGET = 4.0


def measure_copies_per_packet(
    driver: str, payload: int = 64, packets: int = 24, warmup: int = 4
) -> Dict[str, float]:
    """Host-memory accesses per steady-state echo round trip.

    Counts :class:`~repro.mem.physical.PhysicalMemory` calls on the
    host RAM of a booted testbed during the Table 1 latency workload:
    ``read`` materializes a ``bytes`` copy, ``view`` is zero-copy.  Two
    runs (*warmup* packets and *warmup + packets* packets) are
    differenced so boot, ring setup and first-packet ARP traffic drop
    out.
    """
    build = {"virtio": build_virtio_testbed, "xdma": build_xdma_testbed}[driver]

    def counted(total_packets: int) -> Dict[str, int]:
        testbed = build(seed=0)
        mem = testbed.kernel.memory
        counts = {"read": 0, "view": 0, "write": 0}
        for name in counts:
            original = getattr(mem, name)

            def wrapper(*args: Any, _original=original, _name=name, **kwargs: Any):
                counts[_name] += 1
                return _original(*args, **kwargs)

            setattr(mem, name, wrapper)  # instance attr shadows the class method
        run_payload(testbed, payload, total_packets)
        return counts

    base = counted(warmup)
    full = counted(warmup + packets)
    return {name: (full[name] - base[name]) / packets for name in base}


@pytest.mark.benchmark(group="copies")
def test_virtio_copies_per_packet_budget(benchmark):
    counts = benchmark.pedantic(
        measure_copies_per_packet, args=("virtio",), rounds=1, iterations=1
    )
    assert counts["read"] <= VIRTIO_COPIES_PER_PACKET_BUDGET


@pytest.mark.benchmark(group="copies")
def test_xdma_copies_per_packet_budget(benchmark):
    counts = benchmark.pedantic(
        measure_copies_per_packet, args=("xdma",), rounds=1, iterations=1
    )
    assert counts["read"] <= XDMA_COPIES_PER_PACKET_BUDGET


# -- event budget ------------------------------------------------------------------

#: Simulator events per steady-state echo round trip (64 B, seed 0):
#: exactly today's counts, because they are deterministic.  Each link
#: direction computes a TLP's departure when the TLP is enqueued, so a
#: TLP costs one event (its arrival) and the completion splits of one
#: read are posted by one event.  Simulating the transmitter (an event
#: at departure, another at arrival, one more per completion split)
#: cost 4062 events over 24 packets (virtio) and 105 per packet (xdma).
#: An idle XDMA mover starts a bypass transfer at once; a zero-delay
#: start event per transfer cost 3292 (virtio).  A rise means events
#: crept back into a hot path; a drop means the budget should come down
#: with it.
VIRTIO_EVENTS_PER_PACKET = 3052 / 24
XDMA_EVENTS_PER_PACKET = 78.0


def measure_events_per_packet(
    driver: str, payload: int = 64, packets: int = 24, warmup: int = 4
) -> float:
    """Simulator events per steady-state echo round trip.

    Two runs (*warmup* packets and *warmup + packets* packets) are
    differenced, as in :func:`measure_copies_per_packet`, so boot, ring
    setup and first-packet ARP traffic drop out.
    """
    build = {"virtio": build_virtio_testbed, "xdma": build_xdma_testbed}[driver]

    def counted(total_packets: int) -> int:
        testbed = build(seed=0)
        run_payload(testbed, payload, total_packets)
        return testbed.sim.events_executed

    return (counted(warmup + packets) - counted(warmup)) / packets


@pytest.mark.benchmark(group="events")
def test_virtio_events_per_packet(benchmark):
    events = benchmark.pedantic(
        measure_events_per_packet, args=("virtio",), rounds=1, iterations=1
    )
    assert events == VIRTIO_EVENTS_PER_PACKET


@pytest.mark.benchmark(group="events")
def test_xdma_events_per_packet(benchmark):
    events = benchmark.pedantic(
        measure_events_per_packet, args=("xdma",), rounds=1, iterations=1
    )
    assert events == XDMA_EVENTS_PER_PACKET


#: Simulator events of one small fleet pod (4 tenants x 8 packets, seed
#: 0, boot included): exactly today's count, for the same reason.  Its
#: switch transmits a TLP that finds the uplink free and no port waiting
#: at once, so the TLP costs one event; a grant is scheduled only while
#: ports wait.  Scheduling an uplink-done event for every TLP cost 14006,
#: and a zero-delay start event for each bypass transfer of an idle XDMA
#: mover 12407.
FLEET_POD_EVENTS = 11678


def measure_fleet_pod_events() -> int:
    return run_fleet_pod(pod=0, seed=0, packets=8, config=FleetConfig(tenants=4)).events


@pytest.mark.benchmark(group="events")
def test_fleet_pod_events(benchmark):
    events = benchmark.pedantic(measure_fleet_pod_events, rounds=1, iterations=1)
    assert events == FLEET_POD_EVENTS


# -- the warm pool -------------------------------------------------------------


@pytest.mark.benchmark(group="parallel")
def test_four_workers_beat_one(benchmark):
    """Fanning the comparison workload out over four pool workers must
    finish sooner than one in-process worker.  Fewer than four CPUs
    cannot show the gain, so the test skips there."""
    if (os.cpu_count() or 1) < 4:
        pytest.skip("needs at least 4 CPUs")

    def wall(jobs):
        started = time.perf_counter()
        run_comparison(PAPER_PAYLOAD_SIZES, 200, 0, PAPER_PROFILE, jobs=jobs)
        return time.perf_counter() - started

    def walls():
        return wall(1), wall(4)

    serial_s, pooled_s = benchmark.pedantic(walls, rounds=1, iterations=1)
    assert pooled_s < serial_s, f"jobs=4 took {pooled_s:.2f}s, jobs=1 {serial_s:.2f}s"
