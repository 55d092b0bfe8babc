"""Turn a :class:`~repro.topology.spec.TopologySpec` into a booted testbed.

One construction sequence builds every machine, from the paper's single
endpoint to a switched pod of SR-IOV devices:

1. the host: simulator, root complex, host kernel and network stack,
   plus the PCIe switch when the spec asks for one;
2. every endpoint in port order (port order is the global function
   order), with a DMA arbiter shared by the functions of each SR-IOV
   device.  A VirtIO kind is a :class:`VirtioFpgaDevice` carrying that
   kind's personality (Section III-A: the device type changes only the
   personality); XDMA is an :class:`XdmaCore` with a BRAM behind it;
3. one enumeration pass, then the guest VMM when the spec has one;
4. each function's driver probe, in order;
5. one drain of posted writes and RX prefetches;
6. the post-probe wiring: vhost fast paths, the A1 interrupt hook,
   routes and static ARP.

Construction order and stream names decide the bytes of every artifact;
component names do not.  The only random streams drawn under a
component path are the host kernel's ``host.cpu`` and
``host.interference``; every other stream is named by fault site or by
workload.  So every endpoint is named by its port index
(``virtio-fpga<i>``, ``user-logic<i>``, netdev ``virtio<i>``), and
index 0 of the address plan is the paper's ``HOST_IP`` / ``FPGA_IP`` /
``FPGA_MAC``.

A single-endpoint spec (``is_single_legacy``) returns the testbed type
of its kind (:class:`VirtioTestbed`, :class:`XdmaTestbed`,
:class:`ConsoleTestbed`, :class:`BlockTestbed`); every other spec
returns a :class:`FleetTestbed`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.calibration import (
    FPGA_MAC,
    PAPER_PROFILE,
    TEST_SRC_PORT,
    CalibrationProfile,
)
from repro.core.testbed import (
    BlockTestbed,
    ConsoleTestbed,
    TestbedError,
    VirtioTestbed,
    XdmaTestbed,
)
from repro.drivers.virtio_blk import VirtioBlkDriver
from repro.drivers.virtio_console import VirtioConsoleDriver
from repro.drivers.virtio_net import VirtioNetDriver
from repro.drivers.xdma import XdmaCharDriver
from repro.fpga.user_logic import EchoUserLogic, UserLogic, streaming_cycles
from repro.fpga.xdma.core import XdmaCore
from repro.host.kernel import HostKernel
from repro.host.netstack.ip import Route
from repro.host.netstack.sockets import UdpSocket
from repro.host.netstack.stack import NetworkStack
from repro.mem.fpga_mem import Bram
from repro.pcie.enumeration import enumerate_all
from repro.pcie.root_complex import RootComplex
from repro.pcie.switch import PcieSwitch
from repro.sim.kernel import Simulator
from repro.sim.time import ns
from repro.sim.trace import Tracer
from repro.topology.spec import FunctionSpec, GuestSpec, TopologySpec
from repro.virtio.controller.arbiter import DmaBandwidthArbiter
from repro.virtio.controller.block import VirtioBlockPersonality
from repro.virtio.controller.console import VirtioConsolePersonality
from repro.virtio.controller.device import VirtioFpgaDevice
from repro.virtio.controller.net import VirtioNetPersonality


#: The XDMA example design's BRAM behind AXI address 0 (Section
#: III-B2: the same width as the VirtIO design's memory).
XDMA_BRAM_SIZE = 64 << 10


def _boot(sim: Simulator, rc: RootComplex) -> list:
    """Run enumeration to completion; return discovered functions."""
    boot = sim.spawn(enumerate_all(rc), name="boot")
    sim.run_until_triggered(boot)
    functions = boot.result
    if not functions:
        raise TestbedError("enumeration found no device")
    return functions


# -- fleet address plan ---------------------------------------------------------

def fleet_host_ip(index: int) -> int:
    """Host-side IP of function *index*: 10.0.<index>.1 (index 0 is the
    paper's HOST_IP)."""
    return (10 << 24) | (index << 8) | 1


def fleet_fpga_ip(index: int) -> int:
    """FPGA-side IP of function *index*: 10.0.<index>.2 (index 0 is the
    paper's FPGA_IP)."""
    return (10 << 24) | (index << 8) | 2


def fleet_mac(index: int) -> bytes:
    """MAC of function *index* (index 0 is the paper's FPGA_MAC)."""
    return FPGA_MAC[:5] + bytes([(FPGA_MAC[5] + index) & 0xFF])


@dataclass
class FleetFunction:
    """One booted (virtual) function of the fleet."""

    index: int  # global function index (port order)
    device_index: int  # physical device this function belongs to
    vf_index: int  # function index within its physical device
    spec: FunctionSpec
    device: VirtioFpgaDevice
    driver: VirtioNetDriver
    user_logic: UserLogic
    ifname: str
    host_ip: int
    fpga_ip: int

    @property
    def lane(self) -> str:
        """Conservation-ledger lane name for this function."""
        return f"dev{self.device_index}/vf{self.vf_index}"


@dataclass
class FleetTestbed:
    """A booted multi-device / multi-function machine."""

    sim: Simulator
    kernel: HostKernel
    stack: NetworkStack
    profile: CalibrationProfile
    spec: TopologySpec
    functions: List[FleetFunction]
    switch: Optional[PcieSwitch] = None
    arbiters: List[DmaBandwidthArbiter] = field(default_factory=list)

    def open_socket(self, port: int) -> UdpSocket:
        """A fresh UDP socket bound to *port* on the shared host stack."""
        socket = UdpSocket(self.kernel, self.stack)
        socket.bind(port)
        return socket


@dataclass
class _Endpoint:
    """One function on its way through the construction sequence."""

    kind: str
    index: int
    device_index: int
    vf_index: int
    spec: FunctionSpec
    device: object = None  # VirtioFpgaDevice, or XdmaCore for kind "xdma"
    user_logic: Optional[UserLogic] = None
    driver: object = None

    @property
    def ifname(self) -> str:
        return f"virtio{self.index}"


def build_from_spec(
    spec: TopologySpec,
    seed: int = 0,
    profile: CalibrationProfile = PAPER_PROFILE,
    tracer: Optional[Tracer] = None,
    user_logic: Optional[UserLogic] = None,
    capacity_sectors: int = 8192,
):
    """Build and boot the machine *spec* describes.

    Runs the module's construction sequence and returns the testbed
    type it names.  *user_logic* replaces the echo logic of a spec with
    exactly one virtio-net function; *capacity_sectors* sizes the block
    personality's disk.
    """
    kinds = [device_spec.kind for device_spec in spec.devices]
    if not spec.is_single_legacy:
        for kind in kinds:
            if kind != "virtio-net":
                raise TestbedError(
                    f"fleet topologies support virtio-net devices only, got {kind!r}"
                )
    one_net_function = spec.total_functions == 1 and kinds[0] == "virtio-net"
    if user_logic is not None and not one_net_function:
        raise TestbedError("user_logic needs a spec of exactly one virtio-net function")
    mmio = spec.guest is not None and spec.guest.transport == "mmio"

    # 1. The host.
    sim = Simulator(seed=seed)
    rc = RootComplex(
        sim, memory_read_latency_ns=profile.host_memory_read_ns, tracer=tracer
    )
    kernel = HostKernel(sim, rc, costs=profile.build_cost_model(), tracer=tracer)
    stack = NetworkStack(kernel)
    switch: Optional[PcieSwitch] = None
    if spec.switch:
        switch = PcieSwitch(sim, spec.uplink or profile.link)

    # 2. Every endpoint, in port order.
    arbiters: List[DmaBandwidthArbiter] = []
    endpoints: List[_Endpoint] = []
    for device_index, device_spec in enumerate(spec.devices):
        arbiter: Optional[DmaBandwidthArbiter] = None
        if device_spec.is_sriov:
            arbiter = DmaBandwidthArbiter(
                sim, policy=device_spec.arbiter, name=f"dma-arbiter{device_index}"
            )
            arbiters.append(arbiter)
        for vf_index, function_spec in enumerate(device_spec.functions):
            index = len(endpoints)
            _, link = rc.create_port(profile.link)
            if switch is not None:
                switch.attach(link)
            endpoint = _Endpoint(
                device_spec.kind, index, device_index, vf_index, function_spec
            )
            if endpoint.kind == "xdma":
                endpoint.device = xdma = XdmaCore(
                    sim, link, name=f"xdma{index}", tracer=tracer
                )
                xdma.attach_axi(0, Bram(XDMA_BRAM_SIZE, name=f"xdma-bram{index}"))
            else:
                if endpoint.kind == "virtio-net":
                    logic = user_logic
                    if logic is None:
                        logic = EchoUserLogic(sim, name=f"user-logic{index}")
                    if tracer is not None:
                        logic.tracer = tracer
                    endpoint.user_logic = logic
                endpoint.device = VirtioFpgaDevice(
                    sim,
                    link,
                    _personality(endpoint, profile, capacity_sectors),
                    name=f"virtio-fpga{index}",
                    fsm_cycles=profile.virtio_fsm_cycles,
                    rx_prefetch=profile.rx_prefetch,
                    tracer=tracer,
                    mmio_window=mmio,
                )
                xdma = endpoint.device.xdma
                if arbiter is not None:
                    endpoint.device.dma_port.attach_arbiter(
                        arbiter, weight=function_spec.weight
                    )
            xdma.endpoint.completer_latency = ns(profile.endpoint_completer_ns)
            endpoints.append(endpoint)

    # 3. One enumeration pass, then the VMM: it must attach before the
    # probes so registration-time interrupt wrapping and trap
    # accounting cover driver initialization too.
    discovered = _boot(sim, rc)
    if len(discovered) != len(endpoints):
        raise TestbedError(
            f"enumeration found {len(discovered)} functions, expected {len(endpoints)}"
        )
    vmm = _attach_vmm(kernel, spec.guest)

    # 4. Each function's driver probe, in order.
    for endpoint, function in zip(endpoints, discovered):
        endpoint.driver = _driver(endpoint, kernel, stack, function, mmio)
        if endpoint.kind == "virtio-net":
            body = endpoint.driver.probe(fleet_host_ip(endpoint.index))
        else:
            body = endpoint.driver.probe()
        probe = sim.spawn(body, name=f"{endpoint.kind}-probe{endpoint.index}")
        sim.run_until_triggered(probe)

    # 5. Drain in-flight posted writes and every RX-buffer prefetch so
    # experiments start from a quiescent, fully initialized machine.
    sim.run()

    # 6. Post-probe wiring.
    for endpoint in endpoints:
        if vmm is not None and vmm.mode == "vhost":
            _wire_vhost(vmm, endpoint, mmio)
        if endpoint.kind == "xdma" and profile.xdma_c2h_interrupt:
            _enable_a1_notification(endpoint.device, endpoint.driver)
        if endpoint.kind == "virtio-net":
            # Routing + static ARP, as the paper's setup prescribes.
            fpga_ip = fleet_fpga_ip(endpoint.index)
            stack.routes.add(
                Route(
                    network=fpga_ip & 0xFFFF_FF00, prefix_len=24, device=endpoint.ifname
                )
            )
            stack.arp.add_static(fpga_ip, fleet_mac(endpoint.index))

    if not spec.is_single_legacy:
        return FleetTestbed(
            sim=sim,
            kernel=kernel,
            stack=stack,
            profile=profile,
            spec=spec,
            functions=[
                FleetFunction(
                    index=endpoint.index,
                    device_index=endpoint.device_index,
                    vf_index=endpoint.vf_index,
                    spec=endpoint.spec,
                    device=endpoint.device,
                    driver=endpoint.driver,
                    user_logic=endpoint.user_logic,
                    ifname=endpoint.ifname,
                    host_ip=fleet_host_ip(endpoint.index),
                    fpga_ip=fleet_fpga_ip(endpoint.index),
                )
                for endpoint in endpoints
            ],
            switch=switch,
            arbiters=arbiters,
        )
    endpoint, function = endpoints[0], discovered[0]
    if endpoint.kind == "virtio-net":
        socket = UdpSocket(kernel, stack)
        socket.bind(TEST_SRC_PORT)
        return VirtioTestbed(
            sim=sim,
            kernel=kernel,
            stack=stack,
            device=endpoint.device,
            driver=endpoint.driver,
            socket=socket,
            user_logic=endpoint.user_logic,
            function=function,
            profile=profile,
            vmm=vmm,
        )
    if endpoint.kind == "xdma":
        return XdmaTestbed(
            sim=sim, kernel=kernel, xdma=endpoint.device, driver=endpoint.driver,
            function=function, profile=profile, vmm=vmm,
        )
    testbed_type = ConsoleTestbed if endpoint.kind == "virtio-console" else BlockTestbed
    return testbed_type(
        sim=sim, kernel=kernel, device=endpoint.device, driver=endpoint.driver,
        profile=profile,
    )


#: Former name of the fleet builder, still looked up by ``bench/tracing.py``.
build_fleet = build_from_spec


def _personality(
    endpoint: _Endpoint, profile: CalibrationProfile, capacity_sectors: int
):
    """The device personality of a VirtIO endpoint's kind."""
    if endpoint.kind == "virtio-console":
        return VirtioConsolePersonality()
    if endpoint.kind == "virtio-blk":
        return VirtioBlockPersonality(capacity_sectors=capacity_sectors)
    queue_pairs = endpoint.spec.queue_pairs
    return VirtioNetPersonality(
        endpoint.user_logic,
        mac=fleet_mac(endpoint.index),
        offer_csum=profile.offer_csum,
        # Multi-queue negotiation runs over the control queue.
        offer_ctrl_vq=True if queue_pairs > 1 else profile.offer_ctrl_vq,
        queue_pairs=queue_pairs,
    )


def _driver(
    endpoint: _Endpoint, kernel: HostKernel, stack: NetworkStack, function, mmio: bool
):
    """The front-end driver of an endpoint's kind, bound to *function*."""
    if endpoint.kind == "xdma":
        return XdmaCharDriver(kernel, function)
    if endpoint.kind == "virtio-console":
        return VirtioConsoleDriver(kernel, function)
    if endpoint.kind == "virtio-blk":
        return VirtioBlkDriver(kernel, function)
    transport = None
    if mmio:
        from repro.drivers.virtio_mmio import VirtioMmioTransport

        transport = VirtioMmioTransport(kernel, function, name=endpoint.ifname)
    return VirtioNetDriver(
        kernel, stack, function, ifname=endpoint.ifname, transport=transport
    )


def _attach_vmm(kernel: HostKernel, guest: Optional[GuestSpec]):
    """A Vmm for non-bare guests, already attached; None otherwise."""
    if guest is None or guest.mode == "bare":
        return None
    from repro.guest import Vmm

    vmm = Vmm(kernel, guest.mode)
    vmm.attach()
    return vmm


def _wire_vhost(vmm, endpoint: _Endpoint, mmio: bool) -> None:
    """Give a vhost guest its fast paths for *endpoint*.

    This runs after the probe because the backend learns the doorbells
    and completion vectors from the negotiated state.
    """
    driver = endpoint.driver
    if endpoint.kind == "xdma":
        # XDMA's "vhost" analogue is VFIO-style direct assignment: the
        # DMA register BAR is mapped into the guest (doorbell-class
        # exits on stores, no exits on loads) and engine interrupts are
        # posted irqfd-style.  Control accesses outside BAR1 still trap.
        bar1 = driver.function.bars[1]
        vmm.add_fast_window(bar1.address, bar1.size)
        for vector in (driver.h2c_vector, driver.c2h_vector, driver.user_vector):
            vmm.add_fast_vector(vector)
        return
    # Queue notifies become ioeventfds, completion interrupts irqfds.
    transport = driver.transport
    if mmio:
        from repro.virtio.mmio_transport import MMIO_QUEUE_NOTIFY

        vmm.add_fast_window(transport.base + MMIO_QUEUE_NOTIFY, 4)
        vmm.add_fast_vector(transport.host_vector)
    else:
        for addr in transport.notify_addrs:
            vmm.add_fast_window(addr, 4)
        for vector in transport.queue_vectors_assigned:
            vmm.add_fast_vector(vector)


def _enable_a1_notification(xdma: XdmaCore, driver: XdmaCharDriver) -> None:
    """A1 ablation: fabric logic watches the H2C engine's status,
    processes the received data (byte-serial passes, like the VirtIO
    design's user logic), and raises a user interrupt when results are
    ready -- so the application poll()s before read() (the "real use
    case" flow the paper's favourable setup avoids, Section IV-C)."""
    driver.enable_c2h_notification(True)
    engine = xdma.h2c[0]

    def process_then_notify():
        def body():
            passes = 3  # parse + compute + write back
            cycles = passes * streaming_cycles(engine.last_descriptor_length)
            yield xdma.clock.cycles_to_time(cycles)
            xdma.raise_user_irq(0)

        xdma.spawn(body(), name="a1-user-logic")

    engine.completion_hook = process_then_notify
