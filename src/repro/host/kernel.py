"""The host kernel model.

:class:`HostKernel` is the hub the driver and network-stack models hang
off: it owns the cost model, the interrupt controller, DMA-able memory
allocation, the monotonic clock, and the two primitive operations every
software model uses:

* ``cpu(segment)`` -- sample the duration of a named software segment
  (nominal + body jitter + any Poisson interference stall) for the
  caller to ``yield``;
* ``mmio_read`` / ``mmio_write`` -- processor-initiated accesses to
  device BARs, with the fundamental asymmetry the paper's analysis
  leans on: writes are *posted* (cheap for the CPU, the paper's VirtIO
  driver needs exactly one per transfer -- "only a notification using a
  single I/O write is needed at runtime"), while reads stall the CPU for
  a full link round trip.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Generator, Optional

import numpy as np

from repro.host.costs import CostModel, default_cost_model
from repro.host.irq import InterruptController
from repro.host.timekeeping import MonotonicClock
from repro.mem.dma import DmaAllocator, DmaBuffer
from repro.mem.physical import PhysicalMemory
from repro.pcie.root_complex import RootComplex
from repro.sim.component import Component
from repro.sim.event import Event
from repro.sim.time import SimTime

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

#: Number of random draws pre-computed per refill.  The draw *sequence*
#: is identical for any block size (NumPy generators produce the same
#: stream whether drawn one at a time or in blocks), so this is purely a
#: speed/memory knob.
_BLOCK = 1024


class HostKernel(Component):
    """The simulated host OS."""

    def __init__(
        self,
        sim: "Simulator",
        rc: RootComplex,
        costs: Optional[CostModel] = None,
        name: str = "host",
        parent: Optional[Component] = None,
        tracer=None,
    ) -> None:
        super().__init__(sim, name, parent=parent, tracer=tracer)
        self.rc = rc
        self.memory: PhysicalMemory = rc.host_memory
        self.dma = DmaAllocator(self.memory)
        # Block-sampling state must exist before the ``costs`` setter
        # (which classifies the model and may invalidate multipliers).
        self._z_arr: Optional[np.ndarray] = None  # standard-normal block (cpu stream)
        self._z_list: list = []
        self._mults: list = []  # exp(sigma * z) per block entry (fast mode)
        self._z_i = 0
        self._us: list = []  # uniform block (interference stream)
        self._u_i = 0
        self.costs = costs if costs is not None else default_cost_model()  # property: also binds hot-path caches
        self.clock = MonotonicClock(sim)
        self.irqc = InterruptController(sim, self, parent=self)
        rc.set_msi_handler(self.irqc.deliver_msi)
        # ``cpu`` runs once per software segment of every simulated
        # round trip; resolve its two random streams once here instead
        # of re-deriving the component path and hitting the simulator's
        # stream table on every call.  The streams are name-derived, so
        # early creation does not change any draw sequence.
        self._cpu_rng = self.rng("cpu")
        self._interference_rng = self.rng("interference")
        #: Hypervisor interposer (:class:`repro.guest.Vmm`); ``None``
        #: means bare metal and the MMIO paths below run untouched.
        self.vmm = None

    # -- CPU time ---------------------------------------------------------------

    @property
    def costs(self) -> CostModel:
        return self._costs

    @costs.setter
    def costs(self, model: CostModel) -> None:
        # ``cpu`` runs once per software segment of every round trip;
        # bind the segment table and interference model here so the hot
        # path skips two attribute chains and a method call.  Tests that
        # swap the cost model (``kernel.costs = ...``) go through this
        # setter, keeping the caches coherent.
        self._costs = model
        self._segments = model.segments
        self._interference = model.interference
        itf = model.interference
        # Pre-resolved interference constants for the blocked stall path.
        # ``-1.0 / alpha`` and ``float(scale)`` are the exact values the
        # scalar ``InterferenceModel._component`` computes per call, so
        # results stay bit-identical.
        self._itf_params = (
            itf.rate_hz,
            float(itf.stall_scale),
            -1.0 / itf.stall_alpha,
            itf.stall_cap,
            itf.micro_rate_hz,
            float(itf.micro_scale),
            -1.0 / itf.micro_alpha,
            itf.micro_cap,
        )
        # Classify the model for block sampling.  Blocks replay the
        # *identical* draw sequence (``rng.normal(0, s)`` equals
        # ``s * rng.standard_normal()`` draw-for-draw, and a block
        # ``np.exp`` equals the scalar one elementwise), so fast/mixed
        # runs are byte-identical to scalar runs.  Segments with tails
        # interleave normals and uniforms on the cpu stream, which
        # blocks cannot reproduce; those models use the scalar path.
        segments = model.segments.values()
        if any(m.tail_prob > 0.0 for m in segments):
            self._vector_mode = "scalar"
        else:
            sigmas = {m.jitter_sigma for m in segments if m.jitter_sigma > 0.0}
            if len(sigmas) <= 1:
                self._vector_mode = "fast"
                self._fast_sigma = sigmas.pop() if sigmas else 0.0
                if self._z_arr is not None:
                    # Multipliers depend on sigma: re-derive them from the
                    # already-drawn normals so the draw sequence is intact
                    # across a mid-run model swap.
                    self._mults = np.exp(self._fast_sigma * self._z_arr).tolist()
            else:
                self._vector_mode = "mixed"

    def _refill_z(self) -> None:
        z = self._cpu_rng.standard_normal(_BLOCK)
        self._z_arr = z
        self._z_list = z.tolist()
        if self._vector_mode == "fast":
            self._mults = np.exp(self._fast_sigma * z).tolist()
        self._z_i = 0

    def _refill_u(self) -> list:
        self._us = us = self._interference_rng.random(_BLOCK).tolist()
        self._u_i = 0
        return us

    def cpu(self, segment: str, extra_ps: SimTime = 0) -> SimTime:
        """Sampled duration of one software segment, to be yielded.

        ``extra_ps`` adds a deterministic data-dependent part (e.g. a
        per-byte copy cost) before interference is applied, so long
        copies are proportionally more likely to be preempted.
        """
        model = self._segments.get(segment)
        if model is None:
            raise KeyError(f"no cost segment named {segment!r}")
        mode = self._vector_mode
        if mode == "scalar":
            duration = model.sample(self._cpu_rng) + extra_ps
            stall = self._interference.stall_during(duration, self._interference_rng)
            if stall:
                self.trace("preemption", segment=segment, stall_ps=stall)
            return duration + stall
        sigma = model.jitter_sigma
        if sigma == 0.0:
            # No jitter and no tail: the scalar draw is exactly nominal.
            duration = model.nominal_ps + extra_ps
        else:
            i = self._z_i
            if i >= len(self._z_list):
                self._refill_z()
                i = 0
            self._z_i = i + 1
            if mode == "fast":
                value = float(model.nominal_ps) * self._mults[i]
            else:
                value = float(model.nominal_ps) * float(np.exp(sigma * self._z_list[i]))
            duration = max(0, round(value)) + extra_ps
        # Blocked interference: mirrors InterferenceModel.stall_during
        # (same expressions, same draw count) on pre-drawn uniforms.
        stall = 0
        if duration > 0:
            rate, scale, inv_alpha, cap, mrate, mscale, minv_alpha, mcap = self._itf_params
            us = self._us
            i = self._u_i
            if rate != 0.0:
                if i >= len(us):
                    us = self._refill_u()
                    i = 0
                u = us[i]
                i += 1
                if u < 1.0 - math.exp(-rate * duration / 1e12):
                    if i >= len(us):
                        us = self._refill_u()
                        i = 0
                    u = us[i]
                    i += 1
                    if u < 1e-12:
                        u = 1e-12
                    stall = min(round(scale * u ** inv_alpha), cap)
            if mrate != 0.0:
                if i >= len(us):
                    us = self._refill_u()
                    i = 0
                u = us[i]
                i += 1
                if u < 1.0 - math.exp(-mrate * duration / 1e12):
                    if i >= len(us):
                        us = self._refill_u()
                        i = 0
                    u = us[i]
                    i += 1
                    if u < 1e-12:
                        u = 1e-12
                    stall += min(round(mscale * u ** minv_alpha), mcap)
            self._u_i = i
        if stall:
            self.trace("preemption", segment=segment, stall_ps=stall)
        return duration + stall

    def copy(self, length: int) -> SimTime:
        """Duration of copying *length* bytes (copy_touch + per byte)."""
        return self.cpu("copy_touch", extra_ps=self.costs.copy_cost(length))

    def checksum(self, length: int) -> SimTime:
        """Duration of software-checksumming *length* bytes."""
        return self.cpu("copy_touch", extra_ps=self.costs.csum_cost(length))

    # -- MMIO --------------------------------------------------------------------

    def mmio_write(self, addr: int, data: bytes) -> SimTime:
        """Posted MMIO write: issues the TLP immediately; returns the
        CPU-side cost for the caller to yield.

        With a VMM attached the access traps (or takes the vhost
        doorbell shortcut); the VMM performs the identical write plus
        its world-switch costs."""
        if self.vmm is not None:
            return self.vmm.mmio_write(addr, data)
        self.rc.mmio_write(addr, data)
        return self.cpu("mmio_write_cpu")

    def mmio_read(self, addr: int, length: int) -> Generator[Any, Any, bytes]:
        """Non-posted MMIO read: the caller is stalled for the link
        round trip plus a small CPU-side overhead.  Usage::

            value = yield from kernel.mmio_read(addr, 4)

        With a VMM attached the read traps (reads always exit unless
        the window is direct-mapped in vhost mode)."""
        if self.vmm is not None:
            data = yield from self.vmm.mmio_read(addr, length)
            return data
        yield self.cpu("mmio_read_extra")
        data = yield self.rc.mmio_read(addr, length)
        return data

    # -- blocking / wakeup ------------------------------------------------------------

    def block_on(self, event: Event) -> Generator[Any, Any, Any]:
        """Block the calling task on *event*; on wake, charge the
        scheduler wakeup/context-switch cost before resuming.  Returns
        the event's value."""
        value = yield event
        yield self.cpu("task_wakeup")
        return value

    # -- memory ------------------------------------------------------------------------

    def alloc_dma(self, size: int, alignment: int = 64) -> DmaBuffer:
        """Allocate a coherent DMA buffer (rings, packet buffers)."""
        return self.dma.alloc(size, alignment)

    def gettime_ns(self) -> int:
        """``clock_gettime(CLOCK_MONOTONIC)`` value (caller should yield
        ``self.clock.call_cost()`` to account for the call)."""
        return self.clock.gettime_ns()
