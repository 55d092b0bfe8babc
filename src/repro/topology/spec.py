"""Declarative fleet topology specifications.

The paper's testbed is one host, one FPGA endpoint, one TX/RX virtqueue
pair.  The ROADMAP's north star -- "serves heavy traffic from millions
of users" -- needs a fleet dimension: several endpoints fanned out
behind a PCIe switch, each physical device optionally carved into
SR-IOV-style virtual functions, each function running multi-queue
virtio-net.  A :class:`TopologySpec` describes such a machine
declaratively; :mod:`repro.topology.builder` turns it into a booted
testbed.

The spec layers mirror the hardware hierarchy:

* :class:`TopologySpec` -- the whole machine: the device list and
  whether a shared-uplink PCIe switch sits between them and the root
  complex.
* :class:`DeviceSpec` -- one physical endpoint: its kind, its virtual
  functions, and the arbiter that shares the physical DMA mover across
  them (SVFF-style bandwidth management).
* :class:`FunctionSpec` -- one (virtual) function: its virtqueue-pair
  count and its weight under a weighted DMA arbiter.

The single-device, single-function, switchless spec is the paper's
topology: :func:`~repro.core.testbed.build_virtio_testbed` and the
other single-device builders pass it to the same construction sequence
that boots every fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.pcie.link import LinkConfig

#: Device kinds the builder can instantiate.
DEVICE_KINDS = ("virtio-net", "xdma", "virtio-console", "virtio-blk")

#: DMA-arbiter policies for SR-IOV devices (>1 function).
ARBITER_ROUND_ROBIN = "rr"
ARBITER_WEIGHTED = "weighted"
ARBITER_POLICIES = (ARBITER_ROUND_ROBIN, ARBITER_WEIGHTED)


class TopologyError(ValueError):
    """Invalid topology specification."""


#: Guest execution modes (see :mod:`repro.guest`).
GUEST_MODES = ("bare", "trapped", "vhost")
#: VirtIO bus bindings a guest can drive the device through.
GUEST_TRANSPORTS = ("pci", "mmio")


@dataclass(frozen=True)
class GuestSpec:
    """The guest/hypervisor dimension of a machine.

    Parameters
    ----------
    mode:
        ``bare`` (no VMM; byte-identical to pre-guest artifacts),
        ``trapped`` (every MMIO access and interrupt goes through the
        VMM with world-switch costs), or ``vhost`` (control path traps,
        data path takes ioeventfd/irqfd shortcuts).
    transport:
        VirtIO bus binding: ``pci`` (the paper's path, per-queue MSI-X)
        or ``mmio`` (the 4.2 flat register block with one shared
        interrupt line).  XDMA has no VirtIO transport, so ``mmio``
        requires a virtio-net device.
    """

    mode: str = "bare"
    transport: str = "pci"

    def __post_init__(self) -> None:
        if self.mode not in GUEST_MODES:
            raise TopologyError(
                f"unknown guest mode {self.mode!r} (expected one of {GUEST_MODES})"
            )
        if self.transport not in GUEST_TRANSPORTS:
            raise TopologyError(
                f"unknown guest transport {self.transport!r} "
                f"(expected one of {GUEST_TRANSPORTS})"
            )


@dataclass(frozen=True)
class FunctionSpec:
    """One (virtual) function of a physical device.

    Parameters
    ----------
    queue_pairs:
        TX/RX virtqueue pairs for virtio-net functions (the
        ``max_virtqueue_pairs`` the device offers; the driver enables
        all of them).  1 reproduces the paper's single-pair device.
    weight:
        Share of the physical device's DMA bandwidth under a
        ``weighted`` arbiter (ignored by round-robin).
    """

    queue_pairs: int = 1
    weight: int = 1

    def __post_init__(self) -> None:
        if self.queue_pairs < 1:
            raise TopologyError(f"queue_pairs must be >= 1, got {self.queue_pairs}")
        if self.weight < 1:
            raise TopologyError(f"weight must be >= 1, got {self.weight}")


@dataclass(frozen=True)
class DeviceSpec:
    """One physical endpoint device.

    A device with several :class:`FunctionSpec` entries is an
    SR-IOV-style device: each function appears to the host as its own
    endpoint (own config space, BARs, virtqueues, MSI-X vectors) while
    all functions share the physical DMA mover through the device's
    bandwidth arbiter.
    """

    kind: str = "virtio-net"
    functions: Tuple[FunctionSpec, ...] = (FunctionSpec(),)
    arbiter: str = ARBITER_ROUND_ROBIN

    def __post_init__(self) -> None:
        if self.kind not in DEVICE_KINDS:
            raise TopologyError(
                f"unknown device kind {self.kind!r} (expected one of {DEVICE_KINDS})"
            )
        if not self.functions:
            raise TopologyError("a device needs at least one function")
        if self.arbiter not in ARBITER_POLICIES:
            raise TopologyError(
                f"unknown arbiter {self.arbiter!r} (expected one of {ARBITER_POLICIES})"
            )
        if len(self.functions) > 1 and self.kind != "virtio-net":
            raise TopologyError(
                f"SR-IOV functions are only modeled for virtio-net, not {self.kind!r}"
            )

    @property
    def is_sriov(self) -> bool:
        return len(self.functions) > 1


@dataclass(frozen=True)
class TopologySpec:
    """The whole machine: devices, optional PCIe switch, uplink."""

    devices: Tuple[DeviceSpec, ...] = (DeviceSpec(),)
    switch: bool = False
    #: Shared uplink of the switch (default: the profile's link config).
    uplink: Optional[LinkConfig] = None
    #: Guest/hypervisor layer (None == bare metal, same as
    #: ``GuestSpec(mode="bare")`` on a legacy single-endpoint spec).
    guest: Optional[GuestSpec] = None

    def __post_init__(self) -> None:
        if not self.devices:
            raise TopologyError("a topology needs at least one device")
        if self.uplink is not None and not self.switch:
            raise TopologyError("uplink is a switch parameter; set switch=True")
        if self.total_functions > 200:
            raise TopologyError(
                f"{self.total_functions} functions exceed the addressing plan "
                "(MACs/IPs are allocated from a 200-entry range)"
            )
        if self.guest is not None:
            if not self.is_single_legacy:
                raise TopologyError(
                    "the guest layer is modeled for single-endpoint machines "
                    "(one device, one function, one queue pair, no switch)"
                )
            if self.devices[0].kind not in ("virtio-net", "xdma"):
                raise TopologyError(
                    "the guest layer is modeled for the paper's two drivers "
                    f"(virtio-net, xdma), not {self.devices[0].kind!r}"
                )
            if (
                self.guest.transport == "mmio"
                and self.devices[0].kind != "virtio-net"
            ):
                raise TopologyError(
                    "the virtio-mmio transport requires a virtio-net device, "
                    f"not {self.devices[0].kind!r}"
                )

    # -- derived shape -------------------------------------------------------

    @property
    def total_functions(self) -> int:
        return sum(len(device.functions) for device in self.devices)

    @property
    def is_single_legacy(self) -> bool:
        """Whether this spec names one of the paper's single-endpoint
        machines (one device, one function, one queue pair, no switch),
        for which the builder returns the testbed type of the device
        kind instead of a fleet testbed."""
        return (
            len(self.devices) == 1
            and not self.switch
            and not self.devices[0].is_sriov
            and self.devices[0].functions[0].queue_pairs == 1
        )

    # -- canonical shapes ----------------------------------------------------

    @classmethod
    def single_virtio(cls, guest: Optional[GuestSpec] = None) -> "TopologySpec":
        """The paper's VirtIO NIC machine (Section III-B1), optionally
        inside a guest."""
        return cls(devices=(DeviceSpec(kind="virtio-net"),), guest=guest)

    @classmethod
    def single_xdma(cls, guest: Optional[GuestSpec] = None) -> "TopologySpec":
        """The paper's XDMA example-design machine (Section III-B2),
        optionally inside a guest."""
        return cls(devices=(DeviceSpec(kind="xdma"),), guest=guest)

    @classmethod
    def single_console(cls) -> "TopologySpec":
        return cls(devices=(DeviceSpec(kind="virtio-console"),))

    @classmethod
    def single_block(cls) -> "TopologySpec":
        return cls(devices=(DeviceSpec(kind="virtio-blk"),))

    @classmethod
    def fleet_pod(
        cls,
        queue_pairs: int = 2,
        plain_devices: int = 1,
        vf_devices: int = 1,
        vfs_per_device: int = 2,
        arbiter: str = ARBITER_ROUND_ROBIN,
        vf_weights: Optional[Tuple[int, ...]] = None,
    ) -> "TopologySpec":
        """The E-M1 pod shape: *plain_devices* single-function devices
        plus *vf_devices* SR-IOV devices of *vfs_per_device* functions
        each, all multi-queue, all behind a shared-uplink switch."""
        devices = []
        for _ in range(plain_devices):
            devices.append(
                DeviceSpec(
                    kind="virtio-net",
                    functions=(FunctionSpec(queue_pairs=queue_pairs),),
                )
            )
        weights = vf_weights or tuple(1 for _ in range(vfs_per_device))
        if len(weights) != vfs_per_device:
            raise TopologyError(
                f"vf_weights has {len(weights)} entries for {vfs_per_device} VFs"
            )
        for _ in range(vf_devices):
            devices.append(
                DeviceSpec(
                    kind="virtio-net",
                    functions=tuple(
                        FunctionSpec(queue_pairs=queue_pairs, weight=w)
                        for w in weights
                    ),
                    arbiter=arbiter,
                )
            )
        return cls(devices=tuple(devices), switch=True)
