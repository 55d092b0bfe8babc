"""Host software cost model.

Every software step in the simulated kernel (syscall entry, skb
allocation, driver register programming, interrupt dispatch, task
wakeup, ...) is a named :class:`~repro.sim.random.LatencyModel`.  The
:class:`CostModel` is the single calibration surface: the experiment
layer builds one per testbed (see :mod:`repro.core.calibration`), and
ablations switch parts of it off.

Nominal values are calibrated so that the full pipelines land in the
paper's measured ranges on its Fedora 37 x86 host (Section III-B);
relative structure (which driver executes which segments) is what
produces the paper's qualitative results, and comes from the driver
models, not from these constants.

Two noise components:

* **body jitter** -- per-segment lognormal (cache/TLB/branch variation),
* **interference** -- a Poisson field of scheduler/IRQ preemption events
  that stall whatever software segment they land in (see
  :class:`InterferenceModel`).  Hardware segments are immune, which is
  exactly the mechanism the paper invokes for VirtIO's lower variance
  ("As the variance in hardware latency is minimal, the setup that
  offloads more tasks to the hardware results in lower overall
  variance", Section V).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

import numpy as np

from repro.sim.random import LatencyModel
from repro.sim.time import SimTime, ns, us


@dataclass(frozen=True)
class InterferenceModel:
    """Poisson preemption field.

    While a software segment of duration *d* executes, it is hit by a
    preemption with probability ``1 - exp(-rate_hz * d)``; a hit adds a
    Pareto-distributed stall (scheduling the preempted task out and back
    in, plus whatever ran in between).

    ``rate_hz`` ~ 100/s and stalls of tens of microseconds reproduce the
    paper's p99.9 behaviour: rare, large, and driver-independent in
    magnitude -- so both drivers' 99.9% tails converge (Table I) while
    the driver with more software time is hit more often (its p99
    suffers first).
    """

    rate_hz: float = 220.0
    stall_scale: SimTime = us(18)
    stall_alpha: float = 2.3
    #: Stalls are capped to keep single samples physical (a 10 ms hit
    #: would mean the test app lost its timeslice entirely).
    stall_cap: SimTime = us(80)
    #: Micro-stall field: frequent small disturbances (IRQ stacking,
    #: LLC/TLB shootdown storms, SMT contention) that shape the
    #: p95-to-p99 region.  Also duration-proportional, so the driver
    #: with the larger software share collects proportionally more of
    #: them -- the paper's variance mechanism.
    micro_rate_hz: float = 9000.0
    micro_scale: SimTime = us(2)
    micro_alpha: float = 2.2
    micro_cap: SimTime = us(30)

    def __post_init__(self) -> None:
        for rate in (self.rate_hz, self.micro_rate_hz):
            if rate < 0:
                raise ValueError(f"rates must be >= 0, got {rate}")
        for alpha in (self.stall_alpha, self.micro_alpha):
            if alpha <= 1.0:
                raise ValueError(f"alphas must be > 1 (finite mean), got {alpha}")

    @staticmethod
    def _component(
        duration: SimTime,
        rate_hz: float,
        scale: SimTime,
        alpha: float,
        cap: SimTime,
        rng: np.random.Generator,
    ) -> SimTime:
        if rate_hz == 0.0 or duration <= 0:
            return 0
        p_hit = 1.0 - math.exp(-rate_hz * duration / 1e12)
        if rng.random() >= p_hit:
            return 0
        u = max(float(rng.random()), 1e-12)
        return min(round(float(scale) * u ** (-1.0 / alpha)), cap)

    def stall_during(self, duration: SimTime, rng: np.random.Generator) -> SimTime:
        """Sampled extra stall for a software segment of *duration*."""
        stall = self._component(
            duration, self.rate_hz, self.stall_scale, self.stall_alpha, self.stall_cap, rng
        )
        stall += self._component(
            duration, self.micro_rate_hz, self.micro_scale, self.micro_alpha, self.micro_cap, rng
        )
        return stall

    def disabled(self) -> "InterferenceModel":
        return replace(self, rate_hz=0.0, micro_rate_hz=0.0)


def _seg(
    nominal_ns: float,
    sigma: float = 0.10,
    tail_prob: float = 0.0,
    tail_scale_ns: float = 2000.0,
    tail_alpha: float = 2.2,
) -> LatencyModel:
    """A software segment: nominal + lognormal body jitter.

    Heavy-tail behaviour comes from the duration-proportional
    :class:`InterferenceModel` fields rather than per-segment tails, so
    the driver with the larger software share collects proportionally
    more of it (the paper's variance mechanism)."""
    return LatencyModel(
        nominal_ps=ns(nominal_ns),
        jitter_sigma=sigma,
        tail_prob=tail_prob,
        tail_scale_ps=ns(tail_scale_ns),
        tail_alpha=tail_alpha,
    )


@dataclass
class CostModel:
    """Named costs of every modeled host software operation."""

    #: Per-segment costs, keyed by name.
    segments: Dict[str, LatencyModel] = field(default_factory=dict)
    #: Per-byte copy cost (memcpy/copy_to_user steady state), ps/byte.
    copy_ps_per_byte: float = 35.0
    #: Per-byte checksum cost (software inet checksum), ps/byte.
    csum_ps_per_byte: float = 55.0
    #: The preemption field.
    interference: InterferenceModel = field(default_factory=InterferenceModel)

    def copy_cost(self, length: int) -> SimTime:
        """Deterministic component of copying *length* bytes."""
        return round(self.copy_ps_per_byte * length)

    def csum_cost(self, length: int) -> SimTime:
        """Deterministic component of checksumming *length* bytes."""
        return round(self.csum_ps_per_byte * length)

    def without_noise(self) -> "CostModel":
        """Deterministic copy for ablation A3 (body jitter and
        interference both off)."""
        return CostModel(
            segments={name: m.without_noise() for name, m in self.segments.items()},
            copy_ps_per_byte=self.copy_ps_per_byte,
            csum_ps_per_byte=self.csum_ps_per_byte,
            interference=self.interference.disabled(),
        )


def default_cost_model(jitter_sigma: float = 0.10,
                       interference: Optional[InterferenceModel] = None) -> CostModel:
    """The calibrated Fedora-37-class host cost model.

    Segment inventory (ns nominals):

    ===========================  ======================================
    segment                      models
    ===========================  ======================================
    syscall_entry/exit           trap + mitigations each way
    copy_touch                   base cost of a copy (cache line setup)
    skb_alloc / skb_free         sk_buff + data allocation / release
    sock_lookup                  fd -> socket resolution
    udp_tx / udp_rx              UDP layer work per packet
    ip_tx / ip_rx                IPv4 layer incl. route/dst cache hit
    neigh_resolve                ARP cache hit + ethernet header fill
    dev_xmit                     qdisc/dev_queue_xmit into the driver
    netif_receive                __netif_receive_skb up to UDP demux
    sock_enqueue                 socket backlog enqueue + wakeup issue
    mmio_write_cpu               CPU cost of a posted UC store
    mmio_read_extra              CPU-side cost around an MMIO read stall
    irq_entry                    vector dispatch to handler entry
    irq_exit                     EOI + return path
    softirq_schedule             raise + transition into NET_RX softirq
    napi_poll_entry              napi_schedule to poll callback
    task_wakeup                  wake_up -> task running on a CPU
    chardev_dispatch             VFS file-ops dispatch
    driver_descriptor_build      XDMA driver: build/launch one transfer
    driver_irq_ack               XDMA driver: read/ack engine status
    virtio_add_buf               virtqueue_add_sgs bookkeeping
    virtio_get_buf               virtqueue_get_buf + detach
    poll_syscall                 poll()/epoll_wait dispatch overhead
    app_work                     user-space loop body around the calls
    vmexit                       guest: VM exit (world switch out)
    vmentry                      guest: VM entry (world switch back)
    irq_inject                   guest: VMM-emulated interrupt inject
    vhost_doorbell               guest: ioeventfd-style doorbell exit
    vhost_irq_inject             guest: irqfd-style interrupt inject
    ===========================  ======================================

    The five ``vmexit``/``vmentry``/``irq_inject``/``vhost_doorbell``/
    ``vhost_irq_inject`` segments are consumed only when a
    :class:`repro.guest.Vmm` is attached (guest mode ``trapped`` or
    ``vhost``); bare-metal runs never sample them, so adding them here
    is draw-sequence neutral.  Calibration notes: docs/calibration.md.
    """
    segs = {
        "syscall_entry": _seg(260, jitter_sigma),
        "syscall_exit": _seg(240, jitter_sigma),
        "copy_touch": _seg(60, jitter_sigma),
        "skb_alloc": _seg(350, jitter_sigma),
        "skb_free": _seg(160, jitter_sigma),
        "sock_lookup": _seg(180, jitter_sigma),
        "udp_tx": _seg(420, jitter_sigma),
        "udp_rx": _seg(380, jitter_sigma),
        "ip_tx": _seg(480, jitter_sigma),
        "ip_rx": _seg(400, jitter_sigma),
        "neigh_resolve": _seg(160, jitter_sigma),
        "dev_xmit": _seg(550, jitter_sigma),
        "netif_receive": _seg(500, jitter_sigma),
        "sock_enqueue": _seg(340, jitter_sigma),
        "mmio_write_cpu": _seg(160, jitter_sigma),
        "mmio_read_extra": _seg(80, jitter_sigma),
        "irq_entry": _seg(1600, jitter_sigma),
        "irq_exit": _seg(350, jitter_sigma),
        "softirq_schedule": _seg(500, jitter_sigma),
        "napi_poll_entry": _seg(400, jitter_sigma),
        "task_wakeup": _seg(6000, jitter_sigma),
        "chardev_dispatch": _seg(300, jitter_sigma),
        "driver_descriptor_build": _seg(5200, jitter_sigma),
        "driver_irq_ack": _seg(420, jitter_sigma),
        "virtio_add_buf": _seg(340, jitter_sigma),
        "virtio_get_buf": _seg(260, jitter_sigma),
        "poll_syscall": _seg(320, jitter_sigma),
        "app_work": _seg(220, jitter_sigma),
        "vmexit": _seg(900, jitter_sigma),
        "vmentry": _seg(700, jitter_sigma),
        "irq_inject": _seg(1800, jitter_sigma),
        "vhost_doorbell": _seg(350, jitter_sigma),
        "vhost_irq_inject": _seg(600, jitter_sigma),
    }
    return CostModel(
        segments=segs,
        interference=interference if interference is not None else InterferenceModel(),
    )
