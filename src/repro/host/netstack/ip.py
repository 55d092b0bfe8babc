"""IPv4: header codec and routing table."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.host.netstack.checksum import internet_checksum, verify_checksum

IP_HEADER_SIZE = 20
IPPROTO_UDP = 17
IPPROTO_ICMP = 1
DEFAULT_TTL = 64


def ip_str(ip: int) -> str:
    return ".".join(str((ip >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def parse_ip(text: str) -> int:
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"bad IPv4 address {text!r}")
    value = 0
    for p in parts:
        octet = int(p)
        if not 0 <= octet <= 255:
            raise ValueError(f"bad IPv4 address {text!r}")
        value = (value << 8) | octet
    return value


@dataclass(frozen=True)
class Ipv4Header:
    """IPv4 header (no options)."""

    src: int
    dst: int
    protocol: int
    total_length: int
    ttl: int = DEFAULT_TTL
    identification: int = 0
    checksum: int = 0

    def encode(self, compute_checksum: bool = True) -> bytes:
        buf = bytearray(IP_HEADER_SIZE)
        buf[0] = 0x45  # version 4, IHL 5
        buf[2:4] = self.total_length.to_bytes(2, "big")
        buf[4:6] = self.identification.to_bytes(2, "big")
        buf[8] = self.ttl
        buf[9] = self.protocol
        buf[12:16] = self.src.to_bytes(4, "big")
        buf[16:20] = self.dst.to_bytes(4, "big")
        csum = internet_checksum(bytes(buf)) if compute_checksum else self.checksum
        buf[10:12] = csum.to_bytes(2, "big")
        return bytes(buf)

    @classmethod
    def decode(cls, data: bytes) -> "Ipv4Header":
        if len(data) < IP_HEADER_SIZE:
            raise ValueError(f"IPv4 header needs {IP_HEADER_SIZE}B, got {len(data)}")
        if data[0] >> 4 != 4:
            raise ValueError(f"not IPv4 (version {data[0] >> 4})")
        ihl = (data[0] & 0xF) * 4
        if ihl != IP_HEADER_SIZE:
            raise ValueError("IPv4 options not supported")
        return cls(
            src=int.from_bytes(data[12:16], "big"),
            dst=int.from_bytes(data[16:20], "big"),
            protocol=data[9],
            total_length=int.from_bytes(data[2:4], "big"),
            ttl=data[8],
            identification=int.from_bytes(data[4:6], "big"),
            checksum=int.from_bytes(data[10:12], "big"),
        )

    def header_valid(self, raw_header: bytes) -> bool:
        return verify_checksum(raw_header[:IP_HEADER_SIZE])


@dataclass(frozen=True)
class Route:
    """One routing-table entry."""

    network: int
    prefix_len: int
    device: str
    gateway: int = 0  # 0 = directly connected
    src_ip: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.prefix_len <= 32:
            raise ValueError(f"bad prefix length {self.prefix_len}")

    @property
    def mask(self) -> int:
        if self.prefix_len == 0:
            return 0
        return (0xFFFF_FFFF << (32 - self.prefix_len)) & 0xFFFF_FFFF

    def matches(self, dst: int) -> bool:
        return (dst & self.mask) == (self.network & self.mask)


@dataclass
class RoutingTable:
    """Longest-prefix-match routing.

    The paper's setup adds an explicit entry so test traffic routes to
    the FPGA NIC (Section III-B1: "Entries are added to the operating
    system's routing table ... to facilitate routing packets from the
    test application to the FPGA").
    """

    routes: List[Route] = field(default_factory=list)

    def add(self, route: Route) -> None:
        self.routes.append(route)

    def lookup(self, dst: int) -> Optional[Route]:
        best: Optional[Route] = None
        for route in self.routes:
            if route.matches(dst) and (best is None or route.prefix_len > best.prefix_len):
                best = route
        return best
