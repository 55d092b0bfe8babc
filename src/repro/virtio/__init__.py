"""VirtIO substrate: spec constants, split virtqueues, feature
negotiation, the virtio-pci transport structures, the virtio-net
header, and the FPGA-side controller (``repro.virtio.controller``)."""

from repro.virtio import constants
from repro.virtio.features import (
    FeatureNegotiationError,
    FeatureSet,
    negotiate,
    validate_accepted,
)
from repro.virtio.net_header import (
    VIRTIO_NET_HDR_SIZE,
    VirtioNetHeader,
    prepend_header,
    strip_header,
)
from repro.virtio.pci_transport import (
    COMMON_CFG,
    VirtioPciLayout,
    virtio_cap_body,
)
from repro.virtio.virtqueue import (
    DESCRIPTOR_SIZE,
    DriverVirtqueue,
    UsedElem,
    VIRTQ_AVAIL_F_NO_INTERRUPT,
    VIRTQ_DESC_F_NEXT,
    VIRTQ_DESC_F_WRITE,
    VirtqDescriptor,
    VirtqueueAddresses,
    VirtqueueError,
    ring_layout,
)

__all__ = [
    "COMMON_CFG",
    "DESCRIPTOR_SIZE",
    "DriverVirtqueue",
    "FeatureNegotiationError",
    "FeatureSet",
    "UsedElem",
    "VIRTIO_NET_HDR_SIZE",
    "VIRTQ_AVAIL_F_NO_INTERRUPT",
    "VIRTQ_DESC_F_NEXT",
    "VIRTQ_DESC_F_WRITE",
    "VirtioNetHeader",
    "VirtioPciLayout",
    "VirtqDescriptor",
    "VirtqueueAddresses",
    "VirtqueueError",
    "constants",
    "negotiate",
    "prepend_header",
    "ring_layout",
    "strip_header",
    "validate_accepted",
]
