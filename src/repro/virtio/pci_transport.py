"""virtio-pci transport structures (VirtIO 1.2 section 4.1).

The PCI transport locates a device's VirtIO configuration structures via
**vendor-specific capabilities** in config space; each capability names a
structure type (common / notify / ISR / device-specific), the BAR it
lives in, and the offset/length inside that BAR.  Implementing these is
requirement (ii)+(iii) of the paper's Section II-C, and the structures
themselves are "implemented as part of the control logic on the FPGA and
mapped to one of the base address registers".

This module defines:

* the capability body encoder (:func:`virtio_cap_body`),
* the ``virtio_pci_common_cfg`` layout (:data:`COMMON_CFG`),
* :class:`VirtioPciLayout` -- where each structure sits inside the
  device's BAR, shared by the FPGA controller (which implements them)
  and the driver (which maps them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.mem.layout import StructDef
from repro.pcie.config_space import CAP_ID_VENDOR_SPECIFIC, ConfigSpace
from repro.virtio.constants import (
    VIRTIO_PCI_CAP_COMMON_CFG,
    VIRTIO_PCI_CAP_DEVICE_CFG,
    VIRTIO_PCI_CAP_ISR_CFG,
    VIRTIO_PCI_CAP_NOTIFY_CFG,
)

#: struct virtio_pci_common_cfg (spec 4.1.4.3).
COMMON_CFG = StructDef(
    "virtio_pci_common_cfg",
    [
        ("device_feature_select", 0x00, 4),
        ("device_feature", 0x04, 4),
        ("driver_feature_select", 0x08, 4),
        ("driver_feature", 0x0C, 4),
        ("msix_config", 0x10, 2),
        ("num_queues", 0x12, 2),
        ("device_status", 0x14, 1),
        ("config_generation", 0x15, 1),
        ("queue_select", 0x16, 2),
        ("queue_size", 0x18, 2),
        ("queue_msix_vector", 0x1A, 2),
        ("queue_enable", 0x1C, 2),
        ("queue_notify_off", 0x1E, 2),
        ("queue_desc", 0x20, 8),
        ("queue_driver", 0x28, 8),
        ("queue_device", 0x30, 8),
    ],
    total_size=0x38,
)

#: Size of struct virtio_pci_cap *after* the generic two bytes
#: (cap id + next) that ConfigSpace.add_capability manages:
#: cap_len(1) cfg_type(1) bar(1) padding(3) offset(4) length(4).
VIRTIO_CAP_BODY_SIZE = 14
#: Full capability length as written in cap_len (includes the 2 generic bytes).
VIRTIO_CAP_TOTAL_SIZE = 16
#: Notify capability carries an extra notify_off_multiplier dword.
VIRTIO_NOTIFY_CAP_TOTAL_SIZE = 20


def virtio_cap_body(
    cfg_type: int,
    bar: int,
    offset: int,
    length: int,
    notify_off_multiplier: Optional[int] = None,
) -> bytes:
    """Encode the vendor-specific capability body for ``add_capability``."""
    if not 0 <= bar < 6:
        raise ValueError(f"BAR index {bar} out of range")
    is_notify = cfg_type == VIRTIO_PCI_CAP_NOTIFY_CFG
    if is_notify and notify_off_multiplier is None:
        raise ValueError("notify capability requires notify_off_multiplier")
    if not is_notify and notify_off_multiplier is not None:
        raise ValueError("only the notify capability carries a multiplier")
    total = VIRTIO_NOTIFY_CAP_TOTAL_SIZE if is_notify else VIRTIO_CAP_TOTAL_SIZE
    body = bytearray(total - 2)
    body[0] = total  # cap_len
    body[1] = cfg_type
    body[2] = bar
    # bytes 3-5: padding
    body[6:10] = offset.to_bytes(4, "little")
    body[10:14] = length.to_bytes(4, "little")
    if is_notify:
        body[14:18] = int(notify_off_multiplier).to_bytes(4, "little")
    return bytes(body)


@dataclass(frozen=True)
class VirtioPciLayout:
    """Placement of the four structures inside the VirtIO BAR.

    The FPGA controller instantiates its register blocks at these
    offsets and adds matching capabilities; the driver discovers the
    same layout by walking config space.  Defaults follow the common
    QEMU-style arrangement (everything in one BAR, 4 KiB apart).
    """

    bar: int = 0
    common_offset: int = 0x0000
    isr_offset: int = 0x1000
    device_offset: int = 0x2000
    device_length: int = 0x1000
    notify_offset: int = 0x3000
    notify_off_multiplier: int = 4
    num_queues: int = 2

    @property
    def notify_length(self) -> int:
        return max(4, self.notify_off_multiplier * self.num_queues)

    @property
    def bar_size(self) -> int:
        return self.notify_offset + max(0x1000, self.notify_length)

    def notify_address_offset(self, queue_notify_off: int) -> int:
        """BAR offset of a queue's doorbell given its notify_off value."""
        return self.notify_offset + queue_notify_off * self.notify_off_multiplier

    def install_capabilities(self, config: ConfigSpace) -> Dict[int, int]:
        """Add the four capabilities to *config*; returns
        {cfg_type: capability offset}."""
        placed: Dict[int, int] = {}
        placed[VIRTIO_PCI_CAP_COMMON_CFG] = config.add_capability(
            CAP_ID_VENDOR_SPECIFIC,
            virtio_cap_body(VIRTIO_PCI_CAP_COMMON_CFG, self.bar, self.common_offset,
                            COMMON_CFG.size),
        )
        placed[VIRTIO_PCI_CAP_NOTIFY_CFG] = config.add_capability(
            CAP_ID_VENDOR_SPECIFIC,
            virtio_cap_body(
                VIRTIO_PCI_CAP_NOTIFY_CFG,
                self.bar,
                self.notify_offset,
                self.notify_length,
                notify_off_multiplier=self.notify_off_multiplier,
            ),
        )
        placed[VIRTIO_PCI_CAP_ISR_CFG] = config.add_capability(
            CAP_ID_VENDOR_SPECIFIC,
            virtio_cap_body(VIRTIO_PCI_CAP_ISR_CFG, self.bar, self.isr_offset, 1),
        )
        placed[VIRTIO_PCI_CAP_DEVICE_CFG] = config.add_capability(
            CAP_ID_VENDOR_SPECIFIC,
            virtio_cap_body(VIRTIO_PCI_CAP_DEVICE_CFG, self.bar, self.device_offset,
                            self.device_length),
        )
        return placed
