"""Testbed builders: the two experimental setups of Section III-B.

* :func:`build_virtio_testbed` -- the FPGA as a VirtIO network device:
  host OS with full network stack, virtio-net driver bound through real
  enumeration and the VirtIO init handshake, UDP echo user logic on the
  FPGA.
* :func:`build_xdma_testbed` -- the XDMA example design: a BRAM behind
  the AXI bypass, the reference character-device driver, no user logic
  (Section III-B2).

Both builders *run* the boot sequence (enumeration, driver probe) on
the simulator so every experiment starts from a fully initialized
machine state reached through the modeled mechanisms.

The builders are thin fronts over
:func:`repro.topology.builder.build_from_spec` with the matching
single-endpoint :class:`~repro.topology.spec.TopologySpec`: every
machine, from these to a fleet pod, is built by that one construction
sequence.  The two paper builders also attach a fault plan after boot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.calibration import PAPER_PROFILE, CalibrationProfile
from repro.drivers.virtio_net import VirtioNetDriver
from repro.drivers.xdma import XdmaCharDriver
from repro.fpga.user_logic import UserLogic
from repro.fpga.xdma.core import XdmaCore
from repro.host.kernel import HostKernel
from repro.host.netstack.sockets import UdpSocket
from repro.host.netstack.stack import NetworkStack
from repro.pcie.enumeration import DiscoveredFunction
from repro.sim.kernel import Simulator
from repro.sim.trace import Tracer
from repro.virtio.controller.device import VirtioFpgaDevice

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.guest.vmm import Vmm
    from repro.workload.metrics import RunMetrics


class TestbedError(RuntimeError):
    """Boot sequence failed (enumeration or driver probe)."""


@dataclass
class VirtioTestbed:
    """A booted VirtIO network-device setup."""

    sim: Simulator
    kernel: HostKernel
    stack: NetworkStack
    device: VirtioFpgaDevice
    driver: VirtioNetDriver
    socket: UdpSocket
    user_logic: UserLogic
    function: DiscoveredFunction
    profile: CalibrationProfile
    injector: Optional["FaultInjector"] = None
    #: Guest VMM interposer, attached by the topology builder when the
    #: spec carries a GuestSpec with mode != "bare" (None on bare metal).
    vmm: Optional["Vmm"] = None

    @property
    def perf(self):
        return self.device.perf

    # -- workload attachment ------------------------------------------------

    def open_socket(self, port: int) -> UdpSocket:
        """A fresh UDP socket bound to *port* on the booted stack
        (workload generators open one per traffic loop)."""
        socket = UdpSocket(self.kernel, self.stack)
        socket.bind(port)
        return socket

    def tx_has_room(self) -> bool:
        """Whether the transmit path can accept another frame right now
        (open-loop generators tail-drop when it cannot)."""
        return self.driver.tx_has_room()

    def run_workload(self, generator) -> "RunMetrics":
        """Attach a workload generator and drive it to completion."""
        return generator.run(self)


@dataclass
class XdmaTestbed:
    """A booted XDMA example-design setup."""

    sim: Simulator
    kernel: HostKernel
    xdma: XdmaCore
    driver: XdmaCharDriver
    function: DiscoveredFunction
    profile: CalibrationProfile
    injector: Optional["FaultInjector"] = None
    #: Guest VMM interposer (see VirtioTestbed.vmm).
    vmm: Optional["Vmm"] = None

    @property
    def perf(self):
        return self.xdma.perf

    def run_workload(self, generator) -> "RunMetrics":
        """Attach a workload generator and drive it to completion."""
        return generator.run(self)


@dataclass
class ConsoleTestbed:
    """A booted virtio-console setup (the device type of [14])."""

    sim: Simulator
    kernel: HostKernel
    device: VirtioFpgaDevice
    driver: "VirtioConsoleDriver"
    profile: CalibrationProfile


@dataclass
class BlockTestbed:
    """A booted virtio-blk setup (one of the added device types)."""

    sim: Simulator
    kernel: HostKernel
    device: VirtioFpgaDevice
    driver: "VirtioBlkDriver"
    profile: CalibrationProfile


def build_virtio_testbed(
    seed: int = 0,
    profile: CalibrationProfile = PAPER_PROFILE,
    tracer: Optional[Tracer] = None,
    user_logic: Optional[UserLogic] = None,
    fault_plan: Optional["FaultPlan"] = None,
) -> VirtioTestbed:
    """Construct and boot the VirtIO NIC testbed.

    When *fault_plan* is given, a :class:`~repro.faults.FaultInjector`
    is attached *after* boot (the probe always runs fault-free), so
    only post-boot traffic is subject to injection.
    """
    from repro.topology.builder import build_from_spec
    from repro.topology.spec import TopologySpec

    testbed = build_from_spec(
        TopologySpec.single_virtio(),
        seed=seed,
        profile=profile,
        tracer=tracer,
        user_logic=user_logic,
    )
    return _with_fault_plan(testbed, fault_plan)


def build_xdma_testbed(
    seed: int = 0,
    profile: CalibrationProfile = PAPER_PROFILE,
    tracer: Optional[Tracer] = None,
    fault_plan: Optional["FaultPlan"] = None,
) -> XdmaTestbed:
    """Construct and boot the XDMA example-design testbed.

    Section III-B2: "a BRAM is connected directly to an AXI
    memory-mapped interface of the PCIe IP ... Minor modifications were
    made to change the width of the memory to match that used in the
    VirtIO design" -- the BRAM here is byte-identical in width to the
    VirtIO testbed's.
    """
    from repro.topology.builder import build_from_spec
    from repro.topology.spec import TopologySpec

    testbed = build_from_spec(
        TopologySpec.single_xdma(),
        seed=seed,
        profile=profile,
        tracer=tracer,
    )
    return _with_fault_plan(testbed, fault_plan)


def _with_fault_plan(testbed, fault_plan: Optional["FaultPlan"]):
    """*testbed*, with an injector for *fault_plan* attached when given."""
    if fault_plan is not None:
        from repro.faults.injector import attach_fault_plan

        attach_fault_plan(testbed, fault_plan)
    return testbed


def build_console_testbed(
    seed: int = 0,
    profile: CalibrationProfile = PAPER_PROFILE,
) -> ConsoleTestbed:
    """Construct and boot a virtio-console device + front-end driver.

    Demonstrates Section III-A's point that switching device types only
    changes the personality (device-specific config + queue roles) --
    the controller, transport driver, and host plumbing are unchanged.
    """
    from repro.topology.builder import build_from_spec
    from repro.topology.spec import TopologySpec

    return build_from_spec(TopologySpec.single_console(), seed=seed, profile=profile)


def build_block_testbed(
    seed: int = 0,
    profile: CalibrationProfile = PAPER_PROFILE,
    capacity_sectors: int = 8192,
) -> BlockTestbed:
    """Construct and boot a virtio-blk device + front-end driver."""
    from repro.topology.builder import build_from_spec
    from repro.topology.spec import TopologySpec

    return build_from_spec(
        TopologySpec.single_block(),
        seed=seed,
        profile=profile,
        capacity_sectors=capacity_sectors,
    )
