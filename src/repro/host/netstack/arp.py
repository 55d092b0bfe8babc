"""ARP cache with static entries, as the paper's setup uses.

Section III-B1: "Entries are added to the operating system's routing
table and ARP cache to facilitate routing packets from the test
application to the FPGA" -- i.e. resolution never goes to the wire
during the measurements.  The builder installs one permanent entry per
virtio-net function; a lookup that misses is a configuration error the
stack raises, not a trigger for dynamic resolution.
"""

from __future__ import annotations

from typing import Dict, Optional


class ArpCache:
    """IP -> MAC neighbour cache of permanent entries."""

    def __init__(self) -> None:
        self._entries: Dict[int, bytes] = {}

    def add_static(self, ip: int, mac: bytes) -> None:
        """Permanent entry (``ip neigh add ... nud permanent``)."""
        if len(mac) != 6:
            raise ValueError("MAC must be 6 bytes")
        self._entries[ip] = bytes(mac)

    def lookup(self, ip: int) -> Optional[bytes]:
        return self._entries.get(ip)

    def __len__(self) -> int:
        return len(self._entries)
