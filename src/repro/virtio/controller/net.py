"""VirtIO network device personality (the paper's test case).

Queue map (VirtIO 1.2 section 5.1.2): queue 0 = receiveq (device ->
driver), queue 1 = transmitq (driver -> device); a control queue is
exposed when VIRTIO_NET_F_CTRL_VQ is offered.

Data path for the latency experiment:

1. The driver kicks the transmitq; the TX engine fetches the chain and
   its payload (virtio_net_hdr + Ethernet frame).
2. If the header requests checksum offload (the host stack transmitted
   CHECKSUM_PARTIAL because we offer VIRTIO_NET_F_CSUM), the user
   logic's checksum engine fills the UDP checksum.
3. The user logic processes the frame; for the echo responder it
   produces a same-size UDP reply.
4. The reply is delivered through the receiveq engine: DMA into a
   prefetched RX buffer, used-ring update, MSI-X -- "it can identify an
   available buffer and perform data movement before interrupting the
   driver" (Section IV-A).

Hardware performance counters (Section IV-B):

* ``virtio_h2c`` -- notify doorbell to TX payload on-chip,
* ``virtio_resp`` -- response generation by user logic (measured so the
  experiment layer can *deduct* it, per the paper),
* ``virtio_c2h`` -- response ready to used-ring/interrupt posted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.fpga.user_logic import UserLogic
from repro.host.netstack.rss import steer
from repro.virtio.constants import (
    VIRTIO_F_VERSION_1,
    VIRTIO_NET_CTRL_MQ,
    VIRTIO_NET_CTRL_MQ_VQ_PAIRS_SET,
    VIRTIO_NET_F_CSUM,
    VIRTIO_NET_F_CTRL_VQ,
    VIRTIO_NET_F_GUEST_CSUM,
    VIRTIO_NET_F_MAC,
    VIRTIO_NET_F_MQ,
    VIRTIO_NET_F_MTU,
    VIRTIO_NET_F_STATUS,
    VIRTIO_NET_S_LINK_UP,
)
from repro.virtio.controller.personality import DevicePersonality
from repro.virtio.controller.queue_engine import FetchedChain, QueueRole
from repro.virtio.features import FeatureSet
from repro.virtio.net_header import (
    VIRTIO_NET_HDR_F_DATA_VALID,
    VirtioNetHeader,
    prepend_header,
    strip_header,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.virtio.controller.device import VirtioFpgaDevice

RECEIVEQ = 0
TRANSMITQ = 1
CTRLQ = 2


def rx_queue_index(pair: int) -> int:
    """Queue index of pair *pair*'s receiveq (5.1.2: receiveq1 = 0,
    receiveq2 = 2, ... receiveqN = 2(N-1))."""
    return 2 * pair


def tx_queue_index(pair: int) -> int:
    """Queue index of pair *pair*'s transmitq (transmitqN = 2N-1)."""
    return 2 * pair + 1

#: PCI class: network / ethernet controller.
NET_CLASS_CODE = 0x020000


class VirtioNetPersonality(DevicePersonality):
    """virtio-net with a pluggable user logic behind the queues."""

    device_id = 1  # VIRTIO_ID_NET
    class_code = NET_CLASS_CODE

    def __init__(
        self,
        user_logic: UserLogic,
        mac: bytes = b"\x52\x54\x00\xfa\xce\x01",
        mtu: int = 1500,
        offer_csum: bool = True,
        offer_ctrl_vq: bool = False,
        queue_pairs: int = 1,
    ) -> None:
        super().__init__()
        if len(mac) != 6:
            raise ValueError("MAC must be 6 bytes")
        if queue_pairs < 1:
            raise ValueError(f"queue_pairs must be >= 1, got {queue_pairs}")
        if queue_pairs > 1 and not offer_ctrl_vq:
            # 5.1.3.1: VIRTIO_NET_F_MQ requires VIRTIO_NET_F_CTRL_VQ
            # (pairs are enabled through VIRTIO_NET_CTRL_MQ_VQ_PAIRS_SET).
            raise ValueError("queue_pairs > 1 requires offer_ctrl_vq")
        self.user_logic = user_logic
        self.mac = bytes(mac)
        self.mtu = mtu
        self.offer_csum = offer_csum
        self.offer_ctrl_vq = offer_ctrl_vq
        self.queue_pairs = queue_pairs
        self.ctrl_queue_index = 2 * queue_pairs if offer_ctrl_vq else -1
        self.num_queues = 2 * queue_pairs + (1 if offer_ctrl_vq else 0)
        #: Pairs the driver has enabled (5.1.6.5.5: a device uses only
        #: pair 0 until the driver sends VQ_PAIRS_SET).
        self.active_queue_pairs = 1
        self.frames_from_host = 0
        self.frames_to_host = 0
        self.csum_offloads = 0
        #: frames steered to each RX queue pair (RSS evidence).
        self.rx_steered = [0] * queue_pairs
        #: RX-mode state driven by the control queue.
        self.promiscuous = False
        self.allmulti = False

    # -- identity -----------------------------------------------------------------

    def queue_role(self, index: int) -> QueueRole:
        if 0 <= index < 2 * self.queue_pairs:
            return QueueRole.IN if index % 2 == 0 else QueueRole.OUT
        if index == self.ctrl_queue_index:
            return QueueRole.REQUEST
        raise IndexError(f"virtio-net has no queue {index}")

    def offered_features(self) -> FeatureSet:
        features = FeatureSet.of(
            VIRTIO_F_VERSION_1,
            VIRTIO_NET_F_MAC,
            VIRTIO_NET_F_MTU,
            VIRTIO_NET_F_STATUS,
            VIRTIO_NET_F_GUEST_CSUM,
        )
        if self.offer_csum:
            features = features.with_bit(VIRTIO_NET_F_CSUM)
        if self.offer_ctrl_vq:
            features = features.with_bit(VIRTIO_NET_F_CTRL_VQ)
        if self.queue_pairs > 1:
            features = features.with_bit(VIRTIO_NET_F_MQ)
        return features

    def device_config_bytes(self) -> bytes:
        """struct virtio_net_config: mac[6], status u16,
        max_virtqueue_pairs u16, mtu u16."""
        blob = bytearray(12)
        blob[0:6] = self.mac
        blob[6:8] = VIRTIO_NET_S_LINK_UP.to_bytes(2, "little")
        blob[8:10] = self.queue_pairs.to_bytes(2, "little")
        blob[10:12] = self.mtu.to_bytes(2, "little")
        return bytes(blob)

    def on_reset(self) -> None:
        """5.1.6.5.5: after reset the device uses only queue pair 0
        until the driver re-enables more."""
        self.active_queue_pairs = 1

    # -- TX path -------------------------------------------------------------------------

    def on_notify(self, queue_index: int) -> None:
        """Start the H2C hardware counter at the TX doorbell ("the time
        taken by the hardware to perform the DMA operation once a
        notification is received", Section IV-B)."""
        device = self.device
        assert device is not None
        is_tx = queue_index % 2 == 1 and queue_index < 2 * self.queue_pairs
        if is_tx and not device.perf.is_running("virtio_h2c"):
            device.perf.start("virtio_h2c")

    def on_out_chain(self, queue_index: int, chain: FetchedChain) -> Generator[Any, Any, None]:
        device = self.device
        assert device is not None
        if queue_index == self.ctrl_queue_index:
            return  # control commands complete with no data work
        self.frames_from_host += 1
        header, frame = strip_header(chain.out_data)
        if header.needs_csum:
            # The checksum engine is hardware work: it stays inside the
            # H2C performance-counter section so the Fig. 4 breakdown
            # attributes it correctly.
            self.csum_offloads += 1
            frame = yield from self.user_logic.fill_checksum(
                frame, header.csum_start, header.csum_offset
            )
        # TX payload is on-chip and ready for the user logic: the H2C
        # hardware section ends here.
        if device.perf.is_running("virtio_h2c"):
            device.perf.stop("virtio_h2c")
        # With several TX engines the counters time the *first* in-flight
        # frame of an overlap (single-queue behaviour is unchanged: no
        # overlap is possible there, so every frame is timed).
        timing = not device.perf.is_running("virtio_resp")
        if timing:
            device.perf.start("virtio_resp")
        response = yield from self.user_logic.handle_frame(frame)
        if timing:
            device.perf.stop("virtio_resp")
        if response is not None:
            # Response delivery runs as its own FSM so TX completion is
            # not serialized behind it (separate pipeline stages in RTL).
            device.spawn(self._deliver(response), name="net-deliver")

    def _deliver(self, frame: bytes) -> Generator[Any, Any, None]:
        device = self.device
        assert device is not None
        if self.active_queue_pairs > 1:
            # RSS: hash the flow tuple to pick the RX queue, so each
            # flow stays on one pair (the driver hashes identically on
            # its TX side).
            pair = steer(frame, self.active_queue_pairs)
        else:
            pair = 0
        self.rx_steered[pair] += 1
        rx_engine = device.engines.get(rx_queue_index(pair))
        if rx_engine is None:
            return
        accepted = device.accepted_features
        flags = 0
        if accepted.has(VIRTIO_NET_F_GUEST_CSUM):
            flags |= VIRTIO_NET_HDR_F_DATA_VALID
        buffer = prepend_header(frame, VirtioNetHeader(flags=flags, num_buffers=1))
        timing = not device.perf.is_running("virtio_c2h")
        if timing:
            device.perf.start("virtio_c2h")
        yield from rx_engine.deliver(buffer)
        if timing:
            device.perf.stop("virtio_c2h")
        self.frames_to_host += 1

    # -- control queue -----------------------------------------------------------------------

    #: Control command classes/commands (VirtIO 1.2 section 5.1.6.5).
    CTRL_RX = 0
    CTRL_RX_PROMISC = 0
    CTRL_RX_ALLMULTI = 1
    CTRL_ACK_OK = 0x00
    CTRL_ACK_ERR = 0x01

    def on_request_chain(self, queue_index: int, chain: FetchedChain) -> Generator[Any, Any, bytes]:
        """Control-queue commands: RX-mode commands update device state;
        anything unrecognized is rejected with VIRTIO_NET_ERR."""
        device = self.device
        assert device is not None
        yield device.fsm_time
        command = chain.out_data
        if len(command) < 2:
            return bytes([self.CTRL_ACK_ERR])
        cls, cmd = command[0], command[1]
        if cls == self.CTRL_RX and cmd == self.CTRL_RX_PROMISC and len(command) >= 3:
            self.promiscuous = bool(command[2])
            device.trace("ctrl-promisc", enabled=self.promiscuous)
            return bytes([self.CTRL_ACK_OK])
        if cls == self.CTRL_RX and cmd == self.CTRL_RX_ALLMULTI and len(command) >= 3:
            self.allmulti = bool(command[2])
            return bytes([self.CTRL_ACK_OK])
        if (
            cls == VIRTIO_NET_CTRL_MQ
            and cmd == VIRTIO_NET_CTRL_MQ_VQ_PAIRS_SET
            and len(command) >= 4
        ):
            pairs = int.from_bytes(command[2:4], "little")
            if not 1 <= pairs <= self.queue_pairs:
                return bytes([self.CTRL_ACK_ERR])
            self.active_queue_pairs = pairs
            device.trace("ctrl-mq", pairs=pairs)
            return bytes([self.CTRL_ACK_OK])
        return bytes([self.CTRL_ACK_ERR])
