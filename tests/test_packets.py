"""Unit and property-based tests for the packet codecs."""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, strategies as st

from repro.net import (
    ARP,
    DecodeError,
    Ethernet,
    EtherType,
    ICMP,
    IPProtocol,
    IPv4,
    IPv4Address,
    LLDP,
    LLDP_MULTICAST,
    MACAddress,
    UDP,
    as_bytes,
)

MAC_A = MACAddress("02:00:00:00:00:01")
MAC_B = MACAddress("02:00:00:00:00:02")
IP_A = IPv4Address("10.0.0.1")
IP_B = IPv4Address("10.0.0.2")

macs = st.integers(min_value=0, max_value=2**48 - 1).map(MACAddress)
ips = st.integers(min_value=0, max_value=2**32 - 1).map(IPv4Address)
ports = st.integers(min_value=0, max_value=65535)
payloads = st.binary(max_size=200)


class TestEthernet:
    def test_roundtrip(self):
        frame = Ethernet(src=MAC_A, dst=MAC_B, ethertype=0x1234, payload=b"hello")
        decoded = Ethernet.decode(frame.encode())
        assert decoded.src == MAC_A
        assert decoded.dst == MAC_B
        assert decoded.ethertype == 0x1234
        assert decoded.payload == b"hello"

    def test_vlan_tag_roundtrip(self):
        frame = Ethernet(src=MAC_A, dst=MAC_B, ethertype=0x0800, payload=b"",
                         vlan=42, vlan_pcp=5)
        decoded = Ethernet.decode(frame.encode())
        assert decoded.vlan == 42
        assert decoded.vlan_pcp == 5
        assert decoded.ethertype == 0x0800

    def test_ipv4_payload_is_decoded(self):
        packet = IPv4(src=IP_A, dst=IP_B, protocol=IPProtocol.UDP,
                      payload=UDP(1000, 2000, b"data"))
        frame = Ethernet(src=MAC_A, dst=MAC_B, ethertype=EtherType.IPV4, payload=packet)
        decoded = Ethernet.decode(frame.encode())
        assert isinstance(decoded.payload, IPv4)
        assert isinstance(decoded.payload.payload, UDP)

    def test_arp_payload_is_decoded(self):
        arp = ARP.request(MAC_A, IP_A, IP_B)
        frame = Ethernet(src=MAC_A, dst=MACAddress.broadcast(),
                         ethertype=EtherType.ARP, payload=arp)
        decoded = Ethernet.decode(frame.encode())
        assert isinstance(decoded.payload, ARP)

    def test_truncated_frame_rejected(self):
        with pytest.raises(DecodeError):
            Ethernet.decode(b"\x00" * 10)

    def test_find_walks_payload_chain(self):
        udp = UDP(5, 6, b"x")
        packet = IPv4(src=IP_A, dst=IP_B, protocol=IPProtocol.UDP, payload=udp)
        frame = Ethernet(src=MAC_A, dst=MAC_B, ethertype=EtherType.IPV4, payload=packet)
        assert frame.find(UDP) is udp
        assert frame.find(ARP) is None

    @given(macs, macs,
           st.integers(min_value=0x0600, max_value=0xFFFF)
           .filter(lambda e: e != EtherType.VLAN),
           payloads)
    def test_roundtrip_property(self, src, dst, ethertype, payload):
        # EtherType.VLAN is excluded: a frame whose ethertype field holds the
        # 802.1Q TPID but carries no tag is malformed by construction, and
        # decode rightly reads the first payload bytes as the tag.
        frame = Ethernet(src=src, dst=dst, ethertype=ethertype, payload=payload)
        decoded = Ethernet.decode(frame.encode())
        assert decoded.src == src and decoded.dst == dst
        assert decoded.ethertype == ethertype
        assert as_bytes(decoded.payload) == payload or isinstance(decoded.payload, object)


class TestARP:
    def test_request_roundtrip(self):
        arp = ARP.request(MAC_A, IP_A, IP_B)
        decoded = ARP.decode(arp.encode())
        assert decoded.opcode == ARP.REQUEST
        assert decoded.sender_mac == MAC_A
        assert decoded.sender_ip == IP_A
        assert decoded.target_ip == IP_B
        assert decoded.target_mac == MACAddress(0)

    def test_reply_roundtrip(self):
        arp = ARP.reply(MAC_B, IP_B, MAC_A, IP_A)
        decoded = ARP.decode(arp.encode())
        assert decoded.opcode == ARP.REPLY
        assert decoded.sender_mac == MAC_B
        assert decoded.target_mac == MAC_A

    def test_short_packet_rejected(self):
        with pytest.raises(DecodeError):
            ARP.decode(b"\x00" * 20)

    def test_non_ethernet_ipv4_rejected(self):
        data = bytearray(ARP.request(MAC_A, IP_A, IP_B).encode())
        data[0:2] = b"\x00\x06"  # unsupported hardware type
        with pytest.raises(DecodeError):
            ARP.decode(bytes(data))


class TestIPv4:
    def test_roundtrip(self):
        packet = IPv4(src=IP_A, dst=IP_B, protocol=200, payload=b"payload", ttl=17, tos=0x10)
        decoded = IPv4.decode(packet.encode())
        assert decoded.src == IP_A and decoded.dst == IP_B
        assert decoded.protocol == 200
        assert decoded.ttl == 17
        assert decoded.tos == 0x10
        assert decoded.payload == b"payload"

    def test_total_length_bounds_payload(self):
        packet = IPv4(src=IP_A, dst=IP_B, protocol=200, payload=b"abc")
        padded = packet.encode() + b"\x00" * 10  # trailing Ethernet padding
        decoded = IPv4.decode(padded)
        assert decoded.payload == b"abc"

    def test_udp_payload_decoded(self):
        packet = IPv4(src=IP_A, dst=IP_B, protocol=IPProtocol.UDP,
                      payload=UDP(1, 2, b"x"))
        decoded = IPv4.decode(packet.encode())
        assert isinstance(decoded.payload, UDP)

    def test_tcp_payload_stays_raw_bytes(self):
        # A well-formed SYN header (data offset 5): no codec parses it.
        segment = struct.pack("!HHIIHHHH", 1, 2, 0, 0, 5 << 12 | 0x02,
                              65535, 0, 0)
        packet = IPv4(src=IP_A, dst=IP_B, protocol=IPProtocol.TCP,
                      payload=segment)
        assert IPv4.decode(packet.encode()).payload == segment

    def test_icmp_payload_decoded(self):
        packet = IPv4(src=IP_A, dst=IP_B, protocol=IPProtocol.ICMP,
                      payload=ICMP.echo_request(1, 1))
        decoded = IPv4.decode(packet.encode())
        assert isinstance(decoded.payload, ICMP)

    def test_checksum_is_valid(self):
        from repro.net.addresses import checksum16

        header = IPv4(src=IP_A, dst=IP_B, protocol=17).encode()[:20]
        assert checksum16(header) == 0

    def test_truncated_rejected(self):
        with pytest.raises(DecodeError):
            IPv4.decode(b"\x45\x00\x00")

    def test_wrong_version_rejected(self):
        data = bytearray(IPv4(src=IP_A, dst=IP_B, protocol=17).encode())
        data[0] = 0x65  # version 6
        with pytest.raises(DecodeError):
            IPv4.decode(bytes(data))

    @given(ips, ips,
           st.integers(min_value=0, max_value=255).filter(
               lambda p: p not in (IPProtocol.ICMP, IPProtocol.TCP,
                                   IPProtocol.UDP, IPProtocol.OSPF)),
           payloads, st.integers(min_value=1, max_value=255))
    def test_roundtrip_property(self, src, dst, protocol, payload, ttl):
        packet = IPv4(src=src, dst=dst, protocol=protocol, payload=payload, ttl=ttl)
        decoded = IPv4.decode(packet.encode())
        assert decoded.src == src and decoded.dst == dst
        assert decoded.protocol == protocol and decoded.ttl == ttl
        assert as_bytes(decoded.payload) == payload


class TestTransport:
    def test_udp_roundtrip(self):
        udp = UDP(src_port=5004, dst_port=5005, payload=b"stream")
        decoded = UDP.decode(udp.encode())
        assert decoded.src_port == 5004
        assert decoded.dst_port == 5005
        assert decoded.payload == b"stream"

    def test_udp_length_field_bounds_payload(self):
        decoded = UDP.decode(UDP(1, 2, b"abcd").encode() + b"\xff\xff")
        assert decoded.payload == b"abcd"

    def test_udp_truncated_rejected(self):
        with pytest.raises(DecodeError):
            UDP.decode(b"\x00\x01")

    def test_icmp_echo_roundtrip(self):
        icmp = ICMP.echo_request(identifier=7, sequence=3, data=b"ping")
        decoded = ICMP.decode(icmp.encode())
        assert decoded.icmp_type == ICMP.ECHO_REQUEST
        assert decoded.identifier == 7
        assert decoded.sequence == 3
        assert decoded.payload == b"ping"

    def test_icmp_reply_type(self):
        decoded = ICMP.decode(ICMP.echo_reply(1, 2).encode())
        assert decoded.icmp_type == ICMP.ECHO_REPLY

    @given(ports, ports, payloads)
    def test_udp_roundtrip_property(self, src, dst, payload):
        decoded = UDP.decode(UDP(src, dst, payload).encode())
        assert (decoded.src_port, decoded.dst_port) == (src, dst)
        assert as_bytes(decoded.payload) == payload


class TestLLDP:
    def test_roundtrip(self):
        lldp = LLDP(chassis_id=0x1A, port_id=3, ttl=90, system_name="s26")
        decoded = LLDP.decode(lldp.encode())
        assert decoded.chassis_id == 0x1A
        assert decoded.port_id == 3
        assert decoded.ttl == 90
        assert decoded.system_name == "s26"

    def test_within_ethernet(self):
        lldp = LLDP(chassis_id=5, port_id=2)
        frame = Ethernet(src=MAC_A, dst=LLDP_MULTICAST, ethertype=EtherType.LLDP,
                         payload=lldp)
        decoded = Ethernet.decode(frame.encode())
        assert isinstance(decoded.payload, LLDP)
        assert decoded.payload.chassis_id == 5
        assert decoded.payload.port_id == 2

    def test_missing_tlvs_rejected(self):
        with pytest.raises(DecodeError):
            LLDP.decode(b"\x00\x00")

    def test_garbage_chassis_rejected(self):
        # Craft a chassis TLV without the dpid: prefix.
        from repro.net.lldp import LLDPTLVType

        bad = LLDP(chassis_id=1, port_id=1)
        raw = bad._tlv(LLDPTLVType.CHASSIS_ID, b"\x07garbage") + \
            bad._tlv(LLDPTLVType.PORT_ID, b"\x071") + \
            bad._tlv(LLDPTLVType.TTL, b"\x00\x78") + \
            bad._tlv(LLDPTLVType.END, b"")
        with pytest.raises(DecodeError):
            LLDP.decode(raw)

    def test_non_hex_dpid_rejected(self):
        # A byte changed inside the dpid digits, as TestFrameReference found.
        raw = LLDP(chassis_id=1, port_id=1).encode().replace(b"dpid:0", b"dpid:\x00")
        with pytest.raises(DecodeError):
            LLDP.decode(raw)

    @given(st.integers(min_value=0, max_value=2**64 - 1),
           st.integers(min_value=0, max_value=65535),
           st.integers(min_value=0, max_value=65535))
    def test_roundtrip_property(self, chassis, port, ttl):
        decoded = LLDP.decode(LLDP(chassis_id=chassis, port_id=port, ttl=ttl).encode())
        assert decoded.chassis_id == chassis
        assert decoded.port_id == port
        assert decoded.ttl == ttl
