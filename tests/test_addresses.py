"""Unit and property-based tests for address types."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.net.addresses import (
    AddressError,
    IPv4Address,
    IPv4Network,
    MACAddress,
    checksum16,
)


class TestMACAddress:
    def test_parse_and_render(self):
        mac = MACAddress("00:11:22:aa:bb:cc")
        assert str(mac) == "00:11:22:aa:bb:cc"
        assert int(mac) == 0x001122AABBCC

    def test_dash_separator_accepted(self):
        assert MACAddress("00-11-22-aa-bb-cc") == MACAddress("00:11:22:aa:bb:cc")

    def test_from_bytes_roundtrip(self):
        mac = MACAddress(b"\x02\x00\x00\x00\x00\x01")
        assert mac.packed == b"\x02\x00\x00\x00\x00\x01"

    def test_from_int(self):
        assert str(MACAddress(1)) == "00:00:00:00:00:01"

    def test_broadcast(self):
        assert MACAddress.broadcast().is_broadcast
        assert MACAddress("ff:ff:ff:ff:ff:ff").is_broadcast
        assert not MACAddress("00:00:00:00:00:01").is_broadcast

    def test_multicast_bit(self):
        assert MACAddress("01:00:5e:00:00:05").is_multicast
        assert not MACAddress("02:00:00:00:00:05").is_multicast

    def test_equality_across_representations(self):
        assert MACAddress("00:00:00:00:00:0a") == "00:00:00:00:00:0a"
        assert MACAddress("00:00:00:00:00:0a") == 10

    def test_ordering(self):
        assert MACAddress(1) < MACAddress(2)

    def test_from_local_id_is_deterministic_and_local(self):
        mac_a = MACAddress.from_local_id(5, 1)
        mac_b = MACAddress.from_local_id(5, 1)
        assert mac_a == mac_b
        assert not mac_a.is_multicast
        assert (int(mac_a) >> 40) & 0x02  # locally administered bit

    @pytest.mark.parametrize("bad", ["", "00:11:22", "zz:11:22:33:44:55",
                                     "00:11:22:33:44:55:66", "300:11:22:33:44:55"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(AddressError):
            MACAddress(bad)

    def test_wrong_byte_length_rejected(self):
        with pytest.raises(AddressError):
            MACAddress(b"\x00\x01")

    def test_usable_as_dict_key(self):
        table = {MACAddress("00:00:00:00:00:01"): "a"}
        assert table[MACAddress(1)] == "a"

    @given(st.integers(min_value=0, max_value=2**48 - 1))
    def test_int_roundtrip_property(self, value):
        assert int(MACAddress(value)) == value
        assert MACAddress(str(MACAddress(value))) == MACAddress(value)


class TestIPv4Address:
    def test_parse_and_render(self):
        address = IPv4Address("192.168.1.10")
        assert str(address) == "192.168.1.10"
        assert int(address) == 0xC0A8010A

    def test_from_bytes(self):
        assert str(IPv4Address(b"\x0a\x00\x00\x01")) == "10.0.0.1"

    def test_addition(self):
        assert IPv4Address("10.0.0.1") + 5 == IPv4Address("10.0.0.6")

    def test_classification(self):
        assert IPv4Address("0.0.0.0").is_unspecified
        assert IPv4Address("127.0.0.1").is_loopback
        assert IPv4Address("224.0.0.5").is_multicast
        assert IPv4Address("255.255.255.255").is_broadcast
        assert not IPv4Address("10.0.0.1").is_multicast

    @pytest.mark.parametrize("bad", ["", "10.0.0", "10.0.0.256", "10.0.0.0.1",
                                     "a.b.c.d", "10.-1.0.0"])
    def test_malformed_rejected(self, bad):
        with pytest.raises(AddressError):
            IPv4Address(bad)

    def test_ordering_and_hash(self):
        assert IPv4Address("10.0.0.1") < IPv4Address("10.0.0.2")
        assert len({IPv4Address("10.0.0.1"), IPv4Address("10.0.0.1")}) == 1

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_int_roundtrip_property(self, value):
        assert int(IPv4Address(value)) == value
        assert IPv4Address(str(IPv4Address(value))) == IPv4Address(value)


class TestIPv4Network:
    def test_parse_cidr(self):
        network = IPv4Network("10.1.2.0/24")
        assert str(network) == "10.1.2.0/24"
        assert network.prefix_len == 24
        assert str(network.netmask) == "255.255.255.0"

    def test_host_bits_are_masked_off(self):
        network = IPv4Network("10.1.2.99/24")
        assert str(network.network) == "10.1.2.0"

    def test_contains(self):
        network = IPv4Network("172.16.4.0/30")
        assert IPv4Address("172.16.4.1") in network
        assert IPv4Address("172.16.4.2") in network
        assert IPv4Address("172.16.5.1") not in network

    def test_broadcast_and_size(self):
        network = IPv4Network("10.0.0.0/30")
        assert str(network.broadcast) == "10.0.0.3"
        assert network.num_addresses == 4

    def test_requires_prefix(self):
        with pytest.raises(AddressError):
            IPv4Network("10.0.0.0")

    def test_prefix_out_of_range(self):
        with pytest.raises(AddressError):
            IPv4Network("10.0.0.0/33")

    def test_equality_and_hash(self):
        assert IPv4Network("10.0.0.0/24") == IPv4Network("10.0.0.5/24")
        assert len({IPv4Network("10.0.0.0/24"), IPv4Network("10.0.0.0/24")}) == 1

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=0, max_value=32))
    def test_membership_of_own_network_address(self, base, prefix_len):
        network = IPv4Network((IPv4Address(base), prefix_len))
        assert network.network in network


class TestChecksum:
    def test_known_value(self):
        # Example from RFC 1071 section 3.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert checksum16(data) == ~0xDDF2 & 0xFFFF

    def test_odd_length_padded(self):
        assert checksum16(b"\x01") == checksum16(b"\x01\x00")

    def test_verification_property(self):
        data = b"hello checksum world"
        csum = checksum16(data)
        # Folding the checksum back in yields zero.
        import struct
        assert checksum16(data + struct.pack("!H", csum)) == 0
