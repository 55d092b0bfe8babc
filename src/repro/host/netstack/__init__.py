"""Host network stack: Ethernet/ARP/IPv4/UDP, net devices with NAPI,
and BSD-style UDP sockets."""

from repro.host.netstack.arp import ArpCache
from repro.host.netstack.checksum import (
    internet_checksum,
    ones_complement_sum,
    pseudo_header,
    verify_checksum,
)
from repro.host.netstack.ethernet import (
    ETH_HEADER_SIZE,
    ETH_P_IP,
    EthernetFrame,
    mac_str,
    parse_mac,
)
from repro.host.netstack.ip import (
    IP_HEADER_SIZE,
    IPPROTO_UDP,
    Ipv4Header,
    Route,
    RoutingTable,
    ip_str,
    parse_ip,
)
from repro.host.netstack.netdev import (
    FEATURE_HW_CSUM,
    FEATURE_RX_CSUM_VALID,
    NAPI_WEIGHT,
    NapiContext,
    NetDevice,
)
from repro.host.netstack.skb import (
    CHECKSUM_NONE,
    CHECKSUM_PARTIAL,
    CHECKSUM_UNNECESSARY,
    Skb,
)
from repro.host.netstack.sockets import SocketError, UdpSocket
from repro.host.netstack.stack import NetworkStack, StackError
from repro.host.netstack.udp import (
    UDP_HEADER_SIZE,
    UdpHeader,
    udp_checksum,
    udp_checksum_valid,
    udp_datagram,
)

__all__ = [
    "ArpCache",
    "CHECKSUM_NONE",
    "CHECKSUM_PARTIAL",
    "CHECKSUM_UNNECESSARY",
    "ETH_HEADER_SIZE",
    "ETH_P_IP",
    "EthernetFrame",
    "FEATURE_HW_CSUM",
    "FEATURE_RX_CSUM_VALID",
    "IP_HEADER_SIZE",
    "IPPROTO_UDP",
    "Ipv4Header",
    "NAPI_WEIGHT",
    "NapiContext",
    "NetDevice",
    "NetworkStack",
    "Route",
    "RoutingTable",
    "Skb",
    "SocketError",
    "StackError",
    "UDP_HEADER_SIZE",
    "UdpHeader",
    "UdpSocket",
    "internet_checksum",
    "ip_str",
    "mac_str",
    "ones_complement_sum",
    "parse_ip",
    "parse_mac",
    "pseudo_header",
    "udp_checksum",
    "udp_checksum_valid",
    "udp_datagram",
    "verify_checksum",
]
