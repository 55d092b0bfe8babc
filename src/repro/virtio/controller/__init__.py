"""The FPGA-side VirtIO controller -- the paper's core contribution.

* :class:`VirtioFpgaDevice` -- the full device (XDMA IP + controller +
  personality).
* Personalities: :class:`VirtioNetPersonality`,
  :class:`VirtioConsolePersonality`, :class:`VirtioBlockPersonality`.
* :class:`HostBypassPort` -- driver-bypass DMA for user logic.
"""

from repro.virtio.controller.block import VirtioBlockPersonality
from repro.virtio.controller.bypass import HostBypassPort
from repro.virtio.controller.config_structs import QueueState, VirtioConfigBlock
from repro.virtio.controller.console import VirtioConsolePersonality
from repro.virtio.controller.device import VIRTIO_BAR_INDEX, VirtioFpgaDevice
from repro.virtio.controller.dma_port import ControllerDmaPort
from repro.virtio.controller.net import (
    CTRLQ,
    RECEIVEQ,
    TRANSMITQ,
    VirtioNetPersonality,
)
from repro.virtio.controller.personality import DevicePersonality
from repro.virtio.controller.queue_engine import DeviceQueueEngine, FetchedChain, QueueRole

__all__ = [
    "CTRLQ",
    "ControllerDmaPort",
    "DevicePersonality",
    "DeviceQueueEngine",
    "FetchedChain",
    "HostBypassPort",
    "QueueRole",
    "QueueState",
    "RECEIVEQ",
    "TRANSMITQ",
    "VIRTIO_BAR_INDEX",
    "VirtioBlockPersonality",
    "VirtioConfigBlock",
    "VirtioConsolePersonality",
    "VirtioFpgaDevice",
    "VirtioNetPersonality",
]
