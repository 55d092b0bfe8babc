"""In-kernel driver models: the XDMA character-device reference driver
and the VirtIO front-ends (pci transport, net, console, blk)."""

from repro.drivers.virtio_blk import BlockIOError, VirtioBlkDriver
from repro.drivers.virtio_console import VirtioConsoleDriver
from repro.drivers.virtio_net import VirtioNetDriver
from repro.drivers.virtio_pci import VirtioPciTransport, VirtioProbeError
from repro.drivers.xdma import XdmaCharDriver, XdmaProbeError

__all__ = [
    "BlockIOError",
    "VirtioBlkDriver",
    "VirtioConsoleDriver",
    "VirtioNetDriver",
    "VirtioPciTransport",
    "VirtioProbeError",
    "XdmaCharDriver",
    "XdmaProbeError",
]
