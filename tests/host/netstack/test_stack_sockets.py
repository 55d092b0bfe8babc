"""Tests for the stack's TX/RX paths, NAPI, and sockets, using a fake
NIC that captures transmitted frames and can inject received ones."""

import pytest

from repro.host.kernel import HostKernel
from repro.host.netstack import (
    CHECKSUM_PARTIAL,
    CHECKSUM_UNNECESSARY,
    ETH_HEADER_SIZE,
    ETH_P_IP,
    EthernetFrame,
    FEATURE_HW_CSUM,
    IP_HEADER_SIZE,
    Ipv4Header,
    IPPROTO_UDP,
    NapiContext,
    NetDevice,
    NetworkStack,
    Route,
    Skb,
    StackError,
    UdpHeader,
    UdpSocket,
    parse_ip,
    udp_checksum_valid,
    udp_datagram,
)
from repro.pcie.root_complex import RootComplex

HOST_IP = parse_ip("10.0.0.1")
PEER_IP = parse_ip("10.0.0.2")
HOST_MAC = b"\x02\x00\x00\x00\x00\x01"
PEER_MAC = b"\x52\x54\x00\x00\x00\x02"


@pytest.fixture
def net(sim):
    kernel = HostKernel(sim, RootComplex(sim))
    kernel.costs = kernel.costs.without_noise()
    stack = NetworkStack(kernel)
    sent = []

    def xmit(skb):
        sent.append(skb)
        yield 0

    device = NetDevice(kernel, "fake0", HOST_MAC)
    device.set_xmit(xmit)
    stack.register_device(device, HOST_IP)
    stack.routes.add(Route(network=PEER_IP & 0xFFFFFF00, prefix_len=24, device="fake0"))
    stack.arp.add_static(PEER_IP, PEER_MAC)
    return dict(sim=sim, kernel=kernel, stack=stack, device=device, sent=sent)


def make_reply(payload: bytes, dst_port: int) -> bytes:
    """A frame from the peer to the host socket."""
    datagram = udp_datagram(PEER_IP, HOST_IP, 7, dst_port, payload)
    ip = Ipv4Header(src=PEER_IP, dst=HOST_IP, protocol=IPPROTO_UDP,
                    total_length=IP_HEADER_SIZE + len(datagram))
    return EthernetFrame(dst=HOST_MAC, src=PEER_MAC, ethertype=ETH_P_IP,
                         payload=ip.encode() + datagram).encode()


class TestTransmitPath:
    def test_udp_output_builds_full_frame(self, net, run):
        run(net["sim"], net["stack"].udp_output(5000, PEER_IP, 7, b"hello"))
        assert len(net["sent"]) == 1
        frame = EthernetFrame.decode(net["sent"][0].data)
        assert frame.dst == PEER_MAC
        assert frame.src == HOST_MAC
        ip = Ipv4Header.decode(frame.payload)
        assert (ip.src, ip.dst) == (HOST_IP, PEER_IP)
        udp = UdpHeader.decode(frame.payload[IP_HEADER_SIZE:])
        assert (udp.src_port, udp.dst_port) == (5000, 7)

    def test_software_checksum_without_offload(self, net, run):
        run(net["sim"], net["stack"].udp_output(5000, PEER_IP, 7, b"data"))
        skb = net["sent"][0]
        assert skb.ip_summed != CHECKSUM_PARTIAL
        frame = EthernetFrame.decode(skb.data)
        ip = Ipv4Header.decode(frame.payload)
        datagram = frame.payload[IP_HEADER_SIZE : ip.total_length]
        assert UdpHeader.decode(datagram).checksum != 0
        assert udp_checksum_valid(HOST_IP, PEER_IP, datagram)

    def test_offload_leaves_checksum_to_device(self, net, run):
        net["device"].features.add(FEATURE_HW_CSUM)
        run(net["sim"], net["stack"].udp_output(5000, PEER_IP, 7, b"data"))
        skb = net["sent"][0]
        assert skb.ip_summed == CHECKSUM_PARTIAL
        assert skb.csum_start == ETH_HEADER_SIZE + IP_HEADER_SIZE
        assert skb.csum_offset == 6
        frame = EthernetFrame.decode(skb.data)
        udp = UdpHeader.decode(frame.payload[IP_HEADER_SIZE:])
        assert udp.checksum == 0

    def test_unroutable_destination_raises(self, net, run):
        from repro.sim.process import ProcessError

        with pytest.raises(ProcessError, match="no route"):
            run(net["sim"], net["stack"].udp_output(5000, parse_ip("1.2.3.4"), 7, b"x"))

    def test_missing_arp_entry_raises(self, net, run):
        net["stack"].routes.add(
            Route(network=parse_ip("10.0.1.0"), prefix_len=24, device="fake0")
        )
        from repro.sim.process import ProcessError

        with pytest.raises(ProcessError, match="ARP"):
            run(net["sim"], net["stack"].udp_output(5000, parse_ip("10.0.1.9"), 7, b"x"))


class TestReceivePath:
    def test_delivery_to_bound_socket(self, net, run):
        socket = UdpSocket(net["kernel"], net["stack"])
        socket.bind(6000)
        skb = Skb(data=make_reply(b"response", 6000))
        run(net["sim"], net["stack"].netif_receive(net["device"], skb))
        assert socket.rx_pending == 1

    def test_unbound_port_dropped(self, net, run):
        skb = Skb(data=make_reply(b"x", 7777))
        run(net["sim"], net["stack"].netif_receive(net["device"], skb))
        assert net["stack"].stats["rx_drop_no_socket"] == 1

    def test_bad_checksum_dropped(self, net, run):
        socket = UdpSocket(net["kernel"], net["stack"])
        socket.bind(6000)
        raw = bytearray(make_reply(b"corrupt me", 6000))
        raw[ETH_HEADER_SIZE + IP_HEADER_SIZE + 8] ^= 0xFF  # first payload byte
        run(net["sim"], net["stack"].netif_receive(net["device"], Skb(data=bytes(raw))))
        assert socket.rx_pending == 0
        assert net["stack"].stats["rx_drop_bad_csum"] == 1

    def test_device_validated_checksum_skips_verify(self, net, run):
        socket = UdpSocket(net["kernel"], net["stack"])
        socket.bind(6000)
        raw = bytearray(make_reply(b"corrupt me", 6000))
        raw[ETH_HEADER_SIZE + IP_HEADER_SIZE + 8] ^= 0xFF  # bad data, device says DATA_VALID
        skb = Skb(data=bytes(raw), ip_summed=CHECKSUM_UNNECESSARY)
        run(net["sim"], net["stack"].netif_receive(net["device"], skb))
        assert socket.rx_pending == 1


class TestSockets:
    def test_sendto_recvfrom_roundtrip(self, net, run):
        sim, kernel, stack = net["sim"], net["kernel"], net["stack"]
        socket = UdpSocket(kernel, stack)
        socket.bind(6000)

        def app():
            yield from socket.sendto(b"ping", PEER_IP, 7)
            data, source = yield from socket.recvfrom()
            return data, source

        process = sim.spawn(app())
        # Inject the reply once the request has gone out.
        def injector():
            while not net["sent"]:
                yield 1_000_000
            yield from stack.netif_receive(net["device"], Skb(data=make_reply(b"pong", 6000)))

        sim.spawn(injector())
        data, source = sim.run_until_triggered(process)
        assert data == b"pong"
        assert source == (PEER_IP, 7)

    def test_recvfrom_blocks_until_data(self, net, run):
        sim, kernel, stack = net["sim"], net["kernel"], net["stack"]
        socket = UdpSocket(kernel, stack)
        socket.bind(6000)
        done = []

        def app():
            data, _ = yield from socket.recvfrom()
            done.append((sim.now, data))

        sim.spawn(app())
        sim.run()
        assert not done  # still blocked
        proc = sim.spawn(stack.netif_receive(net["device"], Skb(data=make_reply(b"hi", 6000))))
        sim.run_until_triggered(proc)
        sim.run()
        assert done and done[0][1] == b"hi"

    def test_unbound_socket_rejected(self, net, run):
        socket = UdpSocket(net["kernel"], net["stack"])
        with pytest.raises(Exception):
            run(net["sim"], socket.sendto(b"x", PEER_IP, 7))

    def test_double_bind_rejected(self, net):
        s1 = UdpSocket(net["kernel"], net["stack"])
        s1.bind(6000)
        s2 = UdpSocket(net["kernel"], net["stack"])
        with pytest.raises(StackError):
            s2.bind(6000)

    def test_close_unbinds(self, net):
        s1 = UdpSocket(net["kernel"], net["stack"])
        s1.bind(6000)
        s1.close()
        s2 = UdpSocket(net["kernel"], net["stack"])
        s2.bind(6000)  # no conflict

    def test_queue_limit_drops(self, net, run):
        socket = UdpSocket(net["kernel"], net["stack"])
        socket.bind(6000)
        socket.rx_queue_limit = 2
        for _ in range(3):
            socket.deliver(b"x", (PEER_IP, 7))
        assert socket.rx_pending == 2
        assert socket.rx_dropped == 1


class TestNapi:
    def test_poll_until_drained_then_reenable(self, net, sim):
        kernel = net["kernel"]
        backlog = list(range(5))
        enables = []

        def poll(budget):
            count = 0
            while backlog and count < budget:
                backlog.pop()
                count += 1
                yield 1000
            return count

        napi = NapiContext(
            kernel, net["device"], poll,
            irq_enable=lambda: enables.append("on"),
            irq_disable=lambda: enables.append("off"),
            weight=2,
        )
        napi.schedule()
        napi.schedule()  # idempotent while scheduled
        sim.run()
        assert not backlog
        assert enables == ["off", "on"]
        assert napi.polls >= 3  # 5 items at weight 2

    def test_recheck_rearms(self, net, sim):
        kernel = net["kernel"]
        state = {"items": 1, "rechecks": 0}

        def poll(budget):
            n = state["items"]
            state["items"] = 0
            yield 100
            return n

        def recheck():
            # Pretend one more completion raced the re-enable, once.
            if state["rechecks"] == 0:
                state["rechecks"] += 1
                state["items"] = 1
                return True
            return False

        napi = NapiContext(kernel, net["device"], poll,
                           irq_enable=lambda: None, irq_disable=lambda: None,
                           recheck=recheck)
        napi.schedule()
        sim.run()
        assert napi.recheck_rearms == 1
        assert napi.polls == 2
