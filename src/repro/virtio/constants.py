"""VirtIO 1.2 constants (OASIS csd01, the paper's reference [13]).

Only the subsets exercised by the models are defined, but the values are
the spec's real ones so driver-visible behaviour (IDs, status handshake,
feature words) matches a Linux host.
"""

from __future__ import annotations

# -- PCI identity ---------------------------------------------------------------

#: The VirtIO PCI vendor ID (Red Hat / Qumranet).
VIRTIO_PCI_VENDOR_ID = 0x1AF4

#: Modern ("non-transitional") PCI device ID base: 0x1040 + device type.
VIRTIO_PCI_DEVICE_ID_BASE = 0x1040


def pci_device_id(device_type: int) -> int:
    """Modern PCI device ID for a VirtIO device type."""
    return VIRTIO_PCI_DEVICE_ID_BASE + device_type


# -- device types ------------------------------------------------------------------

VIRTIO_ID_NET = 1
VIRTIO_ID_BLOCK = 2
VIRTIO_ID_CONSOLE = 3

DEVICE_TYPE_NAMES = {
    VIRTIO_ID_NET: "network",
    VIRTIO_ID_BLOCK: "block",
    VIRTIO_ID_CONSOLE: "console",
}

# -- device status field ----------------------------------------------------------------

STATUS_ACKNOWLEDGE = 1
STATUS_DRIVER = 2
STATUS_DRIVER_OK = 4
STATUS_FEATURES_OK = 8
STATUS_DEVICE_NEEDS_RESET = 64
STATUS_FAILED = 128

# -- reserved (device-independent) feature bits ----------------------------------------------

VIRTIO_F_RING_INDIRECT_DESC = 28
VIRTIO_F_RING_EVENT_IDX = 29
VIRTIO_F_VERSION_1 = 32
VIRTIO_F_ACCESS_PLATFORM = 33
VIRTIO_F_RING_PACKED = 34
VIRTIO_F_NOTIFICATION_DATA = 38

# -- network device feature bits ------------------------------------------------------------

VIRTIO_NET_F_CSUM = 0
VIRTIO_NET_F_GUEST_CSUM = 1
VIRTIO_NET_F_MTU = 3
VIRTIO_NET_F_MAC = 5
VIRTIO_NET_F_GUEST_TSO4 = 7
VIRTIO_NET_F_HOST_TSO4 = 11
VIRTIO_NET_F_MRG_RXBUF = 15
VIRTIO_NET_F_STATUS = 16
VIRTIO_NET_F_CTRL_VQ = 17
VIRTIO_NET_F_MQ = 22
VIRTIO_NET_F_HASH_REPORT = 57

#: net config "status" field bits.
VIRTIO_NET_S_LINK_UP = 1

#: control-queue multiqueue class/commands (VirtIO 1.2 section 5.1.6.5.5).
VIRTIO_NET_CTRL_MQ = 4
VIRTIO_NET_CTRL_MQ_VQ_PAIRS_SET = 0
VIRTIO_NET_CTRL_MQ_VQ_PAIRS_MIN = 1
VIRTIO_NET_CTRL_MQ_VQ_PAIRS_MAX = 0x8000

# -- block device feature bits ------------------------------------------------------------------

VIRTIO_BLK_F_SIZE_MAX = 1
VIRTIO_BLK_F_SEG_MAX = 2
VIRTIO_BLK_F_BLK_SIZE = 6
VIRTIO_BLK_F_FLUSH = 9

#: block request types.
VIRTIO_BLK_T_IN = 0
VIRTIO_BLK_T_OUT = 1
VIRTIO_BLK_T_FLUSH = 4

#: block request status byte.
VIRTIO_BLK_S_OK = 0
VIRTIO_BLK_S_IOERR = 1
VIRTIO_BLK_S_UNSUPP = 2

#: block sector size (the unit of the "sector" request field).
VIRTIO_BLK_SECTOR_SIZE = 512

# -- console feature bits ---------------------------------------------------------------------------

VIRTIO_CONSOLE_F_SIZE = 0
VIRTIO_CONSOLE_F_MULTIPORT = 1

# -- virtio-net queue numbering (VirtIO 1.2 section 5.1.2) --------------------------------------

RECEIVEQ = 0
TRANSMITQ = 1
CTRLQ = 2


def rx_queue_index(pair: int) -> int:
    """Queue index of pair *pair*'s receiveq (receiveq1 = 0, receiveq2 =
    2, ... receiveqN = 2(N-1))."""
    return 2 * pair


def tx_queue_index(pair: int) -> int:
    """Queue index of pair *pair*'s transmitq (transmitqN = 2N-1)."""
    return 2 * pair + 1


# -- virtio-pci capability cfg_type values ------------------------------------------------------------

VIRTIO_PCI_CAP_COMMON_CFG = 1
VIRTIO_PCI_CAP_NOTIFY_CFG = 2
VIRTIO_PCI_CAP_ISR_CFG = 3
VIRTIO_PCI_CAP_DEVICE_CFG = 4
VIRTIO_PCI_CAP_PCI_CFG = 5

#: "no MSI-X vector" sentinel for queue_msix_vector / msix_config.
VIRTIO_MSI_NO_VECTOR = 0xFFFF

# -- ISR status byte bits (legacy INTx-style; read-to-clear) -------------------------------------------

VIRTIO_ISR_QUEUE = 1
VIRTIO_ISR_CONFIG = 2
