"""Round-trip timelines: annotated event traces of one measured packet.

The paper explains its results by *narrating* what each driver does per
transfer (Section IV-A). This module turns a traced simulation of one
round trip into that narration, with timestamps — useful both for
debugging the models and for teaching what the latency is made of::

    from repro.core.timeline import capture_virtio_timeline
    print(capture_virtio_timeline(seed=7).render())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import List

from repro.core.calibration import FPGA_IP, PAPER_PROFILE, TEST_DST_PORT, CalibrationProfile
from repro.core.testbed import build_virtio_testbed, build_xdma_testbed
from repro.host.chardev import sys_read, sys_write
from repro.sim.time import to_us
from repro.sim.trace import TraceRecord, Tracer

#: Trace kinds worth narrating, with human phrasing.
_NARRATION = {
    "udp-tx": "host stack: UDP datagram built and routed",
    "kick": "device: doorbell received, queue engine starts",
    "kick-ignored": "device: doorbell noted (no prefetch)",
    "host-read": "device: DMA read of host memory",
    "host-write": "device: DMA write to host memory",
    "chain-prefetched": "device: RX buffer chain banked on-chip",
    "echo": "user logic: response frame generated",
    "queue-irq": "device: MSI-X interrupt for queue",
    "irq-suppressed": "device: completion without interrupt (suppressed)",
    "msi": "host: MSI dispatched to handler",
    "udp-rx": "host stack: datagram demuxed to socket",
    "preemption": "host: software stalled by preemption",
    "sgdma-start": "engine: SGDMA run started (descriptor pointer armed)",
    "desc-executed": "engine: descriptor executed (data moved)",
    "sgdma-done": "engine: SGDMA run complete",
    "channel-irq": "engine: channel interrupt raised",
    "tlp-tx": None,  # too chatty for the narration view
    "tlp-rx": None,
    "cfg-read": None,
    "cfg-write": None,
    "mem-read": None,
    "mem-write": None,
    "perf-interval": None,
}


@dataclass
class Timeline:
    """A captured, narratable round trip."""

    driver: str
    payload: int
    total_us: float
    records: List[TraceRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        # A link emits a queued TLP's ``tlp-tx`` when the TLP is enqueued,
        # stamped with its later transmission start; a stable sort puts
        # the records in time order and keeps same-time records in
        # emission order.
        self.records = sorted(self.records, key=attrgetter("time"))

    def events(self) -> List[TraceRecord]:
        """Records with a narration entry (non-None)."""
        out = []
        for record in self.records:
            if _NARRATION.get(record.kind, "") is not None:
                out.append(record)
        return out

    def render(self, include_tlps: bool = False) -> str:
        """Human-readable narrated timeline."""
        lines = [
            f"{self.driver} round trip, {self.payload} B payload, "
            f"{self.total_us:.1f} us total"
        ]
        start = self.records[0].time if self.records else 0
        for record in self.records:
            narration = _NARRATION.get(record.kind, "")
            if narration is None and not include_tlps:
                continue
            label = narration or record.kind
            detail = " ".join(f"{k}={v}" for k, v in record.detail.items())
            lines.append(
                f"  +{to_us(record.time - start):8.2f} us  [{record.source}] {label}"
                + (f"  ({detail})" if detail else "")
            )
        return "\n".join(lines)

    def count(self, kind: str) -> int:
        return sum(1 for r in self.records if r.kind == kind)


def capture_virtio_timeline(
    seed: int = 0,
    payload_size: int = 64,
    profile: CalibrationProfile = PAPER_PROFILE,
) -> Timeline:
    """Boot a traced VirtIO testbed and capture one echo round trip."""
    tracer = Tracer(enabled=True)
    testbed = build_virtio_testbed(seed=seed, profile=profile, tracer=tracer)
    tracer.clear()
    payload = bytes(payload_size)
    marks = {}

    def app():
        marks["t0"] = testbed.sim.now
        yield from testbed.socket.sendto(payload, FPGA_IP, TEST_DST_PORT)
        yield from testbed.socket.recvfrom()
        marks["t1"] = testbed.sim.now

    process = testbed.sim.spawn(app())
    testbed.sim.run_until_triggered(process)
    return Timeline(
        driver="VirtIO",
        payload=payload_size,
        total_us=to_us(marks["t1"] - marks["t0"]),
        records=[r for r in tracer.records if marks["t0"] <= r.time <= marks["t1"]],
    )


def capture_xdma_timeline(
    seed: int = 0,
    payload_size: int = 64,
    profile: CalibrationProfile = PAPER_PROFILE,
) -> Timeline:
    """Boot a traced XDMA testbed and capture one write+read round trip."""
    from repro.core.calibration import xdma_transfer_size

    tracer = Tracer(enabled=True)
    testbed = build_xdma_testbed(seed=seed, profile=profile, tracer=tracer)
    tracer.clear()
    transfer = xdma_transfer_size(payload_size)
    payload = bytes(transfer)
    marks = {}

    def app():
        marks["t0"] = testbed.sim.now
        yield from sys_write(testbed.kernel, testbed.driver, payload)
        yield from sys_read(testbed.kernel, testbed.driver, transfer)
        marks["t1"] = testbed.sim.now

    process = testbed.sim.spawn(app())
    testbed.sim.run_until_triggered(process)
    return Timeline(
        driver="XDMA",
        payload=payload_size,
        total_us=to_us(marks["t1"] - marks["t0"]),
        records=[r for r in tracer.records if marks["t0"] <= r.time <= marks["t1"]],
    )
