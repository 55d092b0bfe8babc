"""The IP/UDP stack tying devices, routing, ARP, and sockets together.

Transmit path (:meth:`NetworkStack.udp_output`) and receive path
(:meth:`NetworkStack.netif_receive`) charge per-layer CPU costs from the
kernel's cost model at the same places the Linux stack spends them:
socket lookup, skb allocation, UDP/IP header construction, route and
neighbour resolution, device queueing on the way down; netif_receive,
IP validation, UDP demux and socket enqueue on the way up.

Checksum handling honours device offload features: with a hw-csum
device the UDP checksum is *not* computed in software -- the skb goes
out CHECKSUM_PARTIAL and the FPGA fills it in (Section III-A), which is
one of the semantic benefits the paper highlights.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, Optional

from repro.host.netstack.arp import ArpCache
from repro.host.netstack.ethernet import ETH_HEADER_SIZE, ETH_P_IP, EthernetFrame
from repro.host.netstack.ip import IP_HEADER_SIZE, IPPROTO_UDP, Ipv4Header, RoutingTable
from repro.host.netstack.netdev import FEATURE_HW_CSUM, NetDevice
from repro.host.netstack.skb import CHECKSUM_PARTIAL, CHECKSUM_UNNECESSARY, Skb
from repro.host.netstack.udp import UDP_HEADER_SIZE, UdpHeader, udp_checksum, udp_datagram
from repro.sim.component import Component

if TYPE_CHECKING:  # pragma: no cover
    from repro.host.kernel import HostKernel
    from repro.host.netstack.sockets import UdpSocket


class StackError(RuntimeError):
    """Unroutable destination, port conflicts, etc."""


class NetworkStack(Component):
    """The host's layer-2/3/4 machinery."""

    def __init__(self, kernel: "HostKernel", parent: Optional[Component] = None) -> None:
        super().__init__(kernel.sim, "netstack", parent=parent)
        self.kernel = kernel
        self.devices: Dict[str, NetDevice] = {}
        self.routes = RoutingTable()
        self.arp = ArpCache()
        self._udp_ports: Dict[int, "UdpSocket"] = {}
        self._ip_id = 0
        self.stats: Dict[str, int] = {
            "udp_tx": 0,
            "udp_rx": 0,
            "tx_drop_qdisc": 0,
            "rx_drop_no_socket": 0,
            "rx_drop_bad_csum": 0,
            "rx_drop_ethertype": 0,
            "rx_drop_proto": 0,
        }

    # -- configuration --------------------------------------------------------

    def register_device(self, device: NetDevice, ip: int) -> None:
        if device.ifname in self.devices:
            raise StackError(f"device {device.ifname!r} already registered")
        self.devices[device.ifname] = device
        device.ip = ip

    def bind_udp(self, port: int, socket: "UdpSocket") -> None:
        if port in self._udp_ports:
            raise StackError(f"UDP port {port} already bound")
        self._udp_ports[port] = socket

    def unbind_udp(self, port: int) -> None:
        self._udp_ports.pop(port, None)

    def next_ip_id(self) -> int:
        self._ip_id = (self._ip_id + 1) & 0xFFFF
        return self._ip_id

    # -- transmit path ---------------------------------------------------------------

    def udp_output(
        self,
        src_port: int,
        dst_ip: int,
        dst_port: int,
        payload: bytes,
    ) -> Generator[Any, Any, None]:
        """Send one UDP datagram (``yield from`` within a process)."""
        kernel = self.kernel
        route = self.routes.lookup(dst_ip)
        if route is None:
            raise StackError(f"no route to {dst_ip:#010x}")
        device = self.devices.get(route.device)
        if device is None:
            raise StackError(f"route names unknown device {route.device!r}")
        src_ip = route.src_ip or device.ip

        yield kernel.cpu("skb_alloc")
        yield kernel.copy(len(payload))  # copy_from_user into the skb

        # UDP layer.
        yield kernel.cpu("udp_tx")
        offload = device.has_feature(FEATURE_HW_CSUM)
        datagram = udp_datagram(
            src_ip, dst_ip, src_port, dst_port, payload, compute_checksum=not offload
        )
        if not offload:
            yield kernel.checksum(len(datagram))

        # IP layer.
        yield kernel.cpu("ip_tx")
        total_length = IP_HEADER_SIZE + len(datagram)
        ip_header = Ipv4Header(
            src=src_ip,
            dst=dst_ip,
            protocol=IPPROTO_UDP,
            total_length=total_length,
            identification=self.next_ip_id(),
        )

        # Neighbour resolution (static cache hit in the paper's setup).
        yield kernel.cpu("neigh_resolve")
        neighbour = route.gateway if route.gateway else dst_ip
        dst_mac = self.arp.lookup(neighbour)
        if dst_mac is None:
            raise StackError(
                f"no ARP entry for {neighbour:#010x} "
                "(the paper's setup pre-populates the cache)"
            )

        frame = EthernetFrame(
            dst=dst_mac,
            src=device.mac,
            ethertype=ETH_P_IP,
            payload=ip_header.encode() + datagram,
        )
        skb = Skb(data=frame.encode(), protocol=ETH_P_IP)
        if offload:
            skb.ip_summed = CHECKSUM_PARTIAL
            skb.csum_start = ETH_HEADER_SIZE + IP_HEADER_SIZE
            skb.csum_offset = 6  # UDP checksum field offset
        yield kernel.cpu("dev_xmit")
        self.trace("udp-tx", dst=dst_ip, port=dst_port, bytes=len(payload))
        sent = yield from device.start_xmit(skb)
        if sent is False:
            # Qdisc gate tail-dropped the frame: counted, never silent.
            self.stats["tx_drop_qdisc"] += 1
        else:
            self.stats["udp_tx"] += 1

    # -- receive path ----------------------------------------------------------------

    def netif_receive(self, device: NetDevice, skb: Skb) -> Generator[Any, Any, None]:
        """Process one received frame (driver calls from NAPI poll)."""
        kernel = self.kernel
        device.rx_packets += 1
        yield kernel.cpu("netif_receive")
        # Zero-copy parse: the UDP hot path walks read-only views over
        # skb.data (itself a view of the driver's private RX snapshot)
        # instead of materializing per-layer payload copies.  The skb
        # owns the backing bytes for the whole softirq; the single
        # copy happens at the socket boundary (UdpSocket.deliver).
        data = skb.data
        if len(data) < ETH_HEADER_SIZE:
            raise ValueError(f"frame too short: {len(data)}B")
        ethertype = int.from_bytes(data[12:14], "big")
        if ethertype != ETH_P_IP:
            self.stats["rx_drop_ethertype"] += 1
            self.trace("rx-drop-ethertype", ethertype=ethertype)
            return

        yield kernel.cpu("ip_rx")
        packet = memoryview(data)[ETH_HEADER_SIZE:]
        ip_header = Ipv4Header.decode(packet)
        if ip_header.protocol != IPPROTO_UDP:
            self.stats["rx_drop_proto"] += 1
            self.trace("rx-drop-proto", proto=ip_header.protocol)
            return

        yield kernel.cpu("udp_rx")
        # total_length bounds the datagram (frames may carry padding).
        datagram = packet[IP_HEADER_SIZE : ip_header.total_length]
        udp_header = UdpHeader.decode(datagram)
        if skb.ip_summed != CHECKSUM_UNNECESSARY and udp_header.checksum != 0:
            yield kernel.checksum(len(datagram))
            if udp_checksum(ip_header.src, ip_header.dst, datagram) != udp_header.checksum:
                self.stats["rx_drop_bad_csum"] += 1
                self.trace("rx-drop-csum", port=udp_header.dst_port)
                return
        socket = self._udp_ports.get(udp_header.dst_port)
        if socket is None:
            self.stats["rx_drop_no_socket"] += 1
            self.trace("rx-drop-no-socket", port=udp_header.dst_port)
            return
        yield kernel.cpu("sock_enqueue")
        payload = datagram[UDP_HEADER_SIZE : udp_header.length]
        self.stats["udp_rx"] += 1
        self.trace("udp-rx", src=ip_header.src, port=udp_header.src_port, bytes=len(payload))
        socket.deliver(payload, (ip_header.src, udp_header.src_port))
