"""Tests for the Ethernet / IPv4 / UDP codecs, checksums and the ARP cache."""

import pytest

from repro.host.netstack import (
    EthernetFrame,
    Ipv4Header,
    Route,
    RoutingTable,
    UdpHeader,
    internet_checksum,
    ip_str,
    mac_str,
    parse_ip,
    parse_mac,
    udp_checksum,
    udp_checksum_valid,
    udp_datagram,
    verify_checksum,
)


class TestChecksum:
    def test_rfc1071_example(self):
        # Classic example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d.
        data = bytes.fromhex("0001f203f4f5f6f7")
        assert internet_checksum(data) == 0x220D

    def test_verify_includes_checksum_field(self):
        data = bytes.fromhex("0001f203f4f5f6f7") + (0x220D).to_bytes(2, "big")
        assert verify_checksum(data)

    def test_odd_length_padded(self):
        assert internet_checksum(b"\xff") == internet_checksum(b"\xff\x00")

    def test_zero_data(self):
        assert internet_checksum(bytes(10)) == 0xFFFF


class TestEthernet:
    def test_roundtrip(self):
        frame = EthernetFrame(
            dst=b"\x01\x02\x03\x04\x05\x06",
            src=b"\x0a\x0b\x0c\x0d\x0e\x0f",
            ethertype=0x0800,
            payload=b"payload" * 10,
        )
        decoded = EthernetFrame.decode(frame.encode(pad=False))
        assert decoded == frame

    def test_minimum_padding(self):
        frame = EthernetFrame(dst=b"\x00" * 6, src=b"\x00" * 6, ethertype=0x0800,
                              payload=b"tiny")
        assert len(frame.encode()) == 60

    def test_mac_parse_format_roundtrip(self):
        mac = parse_mac("52:54:00:fa:ce:01")
        assert mac_str(mac) == "52:54:00:fa:ce:01"

    def test_bad_mac_rejected(self):
        with pytest.raises(ValueError):
            parse_mac("52:54:00")
        with pytest.raises(ValueError):
            EthernetFrame(dst=b"\x00" * 5, src=b"\x00" * 6, ethertype=0, payload=b"")

    def test_short_frame_rejected(self):
        with pytest.raises(ValueError):
            EthernetFrame.decode(b"short")


class TestIpv4:
    def test_roundtrip_with_valid_checksum(self):
        header = Ipv4Header(src=parse_ip("10.0.0.1"), dst=parse_ip("10.0.0.2"),
                            protocol=17, total_length=100, identification=42)
        raw = header.encode()
        decoded = Ipv4Header.decode(raw)
        assert decoded.src == header.src
        assert decoded.identification == 42
        assert decoded.header_valid(raw)

    def test_corrupted_checksum_detected(self):
        raw = bytearray(Ipv4Header(src=1, dst=2, protocol=17, total_length=40).encode())
        raw[15] ^= 0xFF
        assert not Ipv4Header.decode(bytes(raw)).header_valid(bytes(raw))

    def test_ip_string_roundtrip(self):
        assert ip_str(parse_ip("192.168.1.200")) == "192.168.1.200"

    def test_bad_ip_rejected(self):
        with pytest.raises(ValueError):
            parse_ip("1.2.3")
        with pytest.raises(ValueError):
            parse_ip("1.2.3.999")

    def test_non_ipv4_rejected(self):
        raw = bytearray(20)
        raw[0] = 0x60  # version 6
        with pytest.raises(ValueError):
            Ipv4Header.decode(bytes(raw))


class TestRouting:
    def make(self):
        table = RoutingTable()
        table.add(Route(network=parse_ip("10.0.0.0"), prefix_len=24, device="virtio0"))
        table.add(Route(network=0, prefix_len=0, device="eth0",
                        gateway=parse_ip("192.168.1.1")))
        return table

    def test_longest_prefix_wins(self):
        table = self.make()
        assert table.lookup(parse_ip("10.0.0.7")).device == "virtio0"
        assert table.lookup(parse_ip("8.8.8.8")).device == "eth0"

    def test_next_hop_direct_vs_gateway(self):
        table = self.make()
        _, neighbour = table.next_hop(parse_ip("10.0.0.7"))
        assert neighbour == parse_ip("10.0.0.7")
        _, neighbour = table.next_hop(parse_ip("8.8.8.8"))
        assert neighbour == parse_ip("192.168.1.1")

    def test_no_route(self):
        table = RoutingTable()
        assert table.lookup(parse_ip("1.1.1.1")) is None
        assert table.next_hop(parse_ip("1.1.1.1")) is None

    def test_bad_prefix_rejected(self):
        with pytest.raises(ValueError):
            Route(network=0, prefix_len=33, device="x")


class TestUdp:
    def test_datagram_checksum_valid(self):
        datagram = udp_datagram(1, 2, 100, 200, b"hello udp")
        assert udp_checksum_valid(1, 2, datagram)

    def test_corrupted_payload_detected(self):
        datagram = bytearray(udp_datagram(1, 2, 100, 200, b"hello udp"))
        datagram[-1] ^= 0x5A
        assert not udp_checksum_valid(1, 2, bytes(datagram))

    def test_zero_checksum_means_unchecked(self):
        datagram = udp_datagram(1, 2, 100, 200, b"x", compute_checksum=False)
        assert UdpHeader.decode(datagram).checksum == 0
        assert udp_checksum_valid(1, 2, datagram)

    def test_header_roundtrip(self):
        header = UdpHeader(src_port=5353, dst_port=53, length=30, checksum=0xBEEF)
        assert UdpHeader.decode(header.encode()) == header

    def test_checksum_never_zero_on_wire(self):
        # Craft payloads until one would naturally checksum to 0 is hard;
        # instead verify the substitution rule directly.
        assert udp_checksum(0, 0, UdpHeader(0, 0, 8).encode()) != 0

    def test_bad_port_rejected(self):
        with pytest.raises(ValueError):
            UdpHeader(src_port=70000, dst_port=0, length=8)


class TestArpCache:
    def test_static_entries_persist(self):
        from repro.host.netstack import ArpCache

        cache = ArpCache()
        cache.add_static(1, b"\x0a" * 6)
        cache.add_static(2, b"\x0b" * 6)
        assert cache.lookup(1) == b"\x0a" * 6
        assert cache.lookup(2) == b"\x0b" * 6
        assert cache.lookup(3) is None
        assert len(cache) == 2
