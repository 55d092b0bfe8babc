"""Socket buffers.

A tiny analogue of ``struct sk_buff``: the frame bytes plus the checksum
-offload metadata the stack and drivers exchange.  The two states that
matter to the experiments:

* TX with hardware checksum offload: ``ip_summed == "partial"`` and the
  device (FPGA) fills the checksum -- the virtio-net path when
  VIRTIO_NET_F_CSUM was negotiated.
* RX with device-validated checksum: ``ip_summed == "unnecessary"`` --
  set when the device's virtio_net_hdr carried DATA_VALID, saving the
  host a software verify pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field


#: skb.ip_summed values (mirroring the kernel's CHECKSUM_* constants).
CHECKSUM_NONE = "none"
CHECKSUM_PARTIAL = "partial"
CHECKSUM_UNNECESSARY = "unnecessary"


@dataclass
class Skb:
    """One packet in flight through the host stack.

    ``data`` may be any bytes-like object (``bytes`` or a read-only
    ``memoryview`` of the driver's frame snapshot).  Views are only
    guaranteed valid while the skb is being processed -- anything that
    must outlive stack processing (socket delivery) materializes its
    own copy.
    """

    data: bytes
    protocol: int = 0
    ip_summed: str = CHECKSUM_NONE
    #: For CHECKSUM_PARTIAL: offset of the L4 header within ``data``
    #: where checksumming starts, and offset of the checksum field
    #: relative to csum_start.
    csum_start: int = 0
    csum_offset: int = 0
    device: str = ""
    detail: dict = field(default_factory=dict)
