"""Ethernet II framing."""

from __future__ import annotations

from dataclasses import dataclass

ETH_HEADER_SIZE = 14
ETH_P_IP = 0x0800

#: Minimum payload so a frame reaches the 60-byte (pre-FCS) minimum.
ETH_MIN_PAYLOAD = 46


def mac_str(mac: bytes) -> str:
    """Human-readable MAC."""
    return ":".join(f"{b:02x}" for b in mac)


def parse_mac(text: str) -> bytes:
    """Parse ``aa:bb:cc:dd:ee:ff``."""
    parts = text.split(":")
    if len(parts) != 6:
        raise ValueError(f"bad MAC address {text!r}")
    return bytes(int(p, 16) for p in parts)


@dataclass(frozen=True)
class EthernetFrame:
    """One layer-2 frame (FCS excluded; the link models treat it as part
    of per-packet overhead)."""

    dst: bytes
    src: bytes
    ethertype: int
    payload: bytes

    def __post_init__(self) -> None:
        if len(self.dst) != 6 or len(self.src) != 6:
            raise ValueError("MAC addresses must be 6 bytes")
        if not 0 <= self.ethertype <= 0xFFFF:
            raise ValueError(f"bad ethertype {self.ethertype:#x}")

    def encode(self, pad: bool = True) -> bytes:
        payload = self.payload
        if pad and len(payload) < ETH_MIN_PAYLOAD:
            payload = payload + bytes(ETH_MIN_PAYLOAD - len(payload))
        return self.dst + self.src + self.ethertype.to_bytes(2, "big") + payload

    @classmethod
    def decode(cls, data: bytes) -> "EthernetFrame":
        if len(data) < ETH_HEADER_SIZE:
            raise ValueError(f"frame too short: {len(data)}B")
        return cls(
            dst=bytes(data[0:6]),
            src=bytes(data[6:12]),
            ethertype=int.from_bytes(data[12:14], "big"),
            payload=bytes(data[14:]),
        )
