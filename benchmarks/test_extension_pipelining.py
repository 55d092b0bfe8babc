"""Extension: behaviour under pipelined load (beyond the paper).

The paper measures one-in-flight latency only. This bench drives both
testbeds with the workload engine's closed loop at a window of
outstanding requests (``ClosedLoopGenerator(outstanding=window)``; the
paper's ping-pong is the same loop at window 1) and checks the expected
structural consequences of the two driver designs:

* VirtIO throughput grows with the window (ring batching, independent
  TX/RX pipelines) and costs one interrupt per packet (RX only);
* XDMA costs two interrupts per packet (one per channel) at any window,
  and stays below VirtIO's packet rate at matched windows.
"""

from typing import NamedTuple

import pytest

from benchmarks.conftest import attach_table
from repro.core.testbed import build_virtio_testbed, build_xdma_testbed
from repro.workload import ClosedLoopGenerator, FixedSize

WINDOWS = (1, 4, 8)


class Pipelined(NamedTuple):
    driver: str
    window: int
    packets_per_second: float
    irqs_per_packet: float


def run_pipelined(testbed, driver: str, window: int, packets: int) -> Pipelined:
    """Closed-loop 64 B echoes with *window* in flight: packet rate and
    interrupts delivered per completed round trip."""
    irqc = testbed.kernel.irqc
    before = irqc.delivered
    metrics = testbed.run_workload(
        ClosedLoopGenerator(outstanding=window, sizes=FixedSize(64), packets=packets)
    )
    return Pipelined(
        driver, window, metrics.achieved_pps,
        (irqc.delivered - before) / metrics.completed,
    )


@pytest.mark.benchmark(group="extensions")
def test_extension_pipelined_load(benchmark, packets):
    count = max(64, min(packets, 400))

    def regenerate():
        virtio = {}
        for window in WINDOWS:
            testbed = build_virtio_testbed(seed=1)
            virtio[window] = run_pipelined(testbed, "virtio", window, count)
        xdma = {}
        for window in WINDOWS[:2]:
            testbed = build_xdma_testbed(seed=1)
            xdma[window] = run_pipelined(testbed, "xdma", window, count)
        return virtio, xdma

    virtio, xdma = benchmark.pedantic(regenerate, rounds=1, iterations=1)

    lines = ["Extension: pipelined load (64 B payload)"]
    for window, result in {**{f"v{w}": r for w, r in virtio.items()},
                           **{f"x{w}": r for w, r in xdma.items()}}.items():
        lines.append(f"  {result.driver:>6} window={result.window}: "
                     f"{result.packets_per_second / 1e3:7.1f} kpps, "
                     f"{result.irqs_per_packet:.2f} irq/pkt")
        benchmark.extra_info[f"{result.driver}_w{result.window}_kpps"] = round(
            result.packets_per_second / 1e3, 1
        )
    attach_table(benchmark, "Pipelining extension", "\n".join(lines))

    # VirtIO scales with the window...
    assert virtio[4].packets_per_second > virtio[1].packets_per_second * 1.4
    # ...and saturates (the device pipeline becomes the bottleneck).
    assert virtio[8].packets_per_second < virtio[4].packets_per_second * 1.3
    # Interrupt economics: one RX interrupt per packet vs two channel
    # interrupts per packet.
    for result in virtio.values():
        assert result.irqs_per_packet == pytest.approx(1.0, abs=0.05)
    for result in xdma.values():
        assert result.irqs_per_packet == pytest.approx(2.0, abs=0.05)
    # VirtIO leads at matched windows.
    for window in WINDOWS[:2]:
        assert virtio[window].packets_per_second > xdma[window].packets_per_second
