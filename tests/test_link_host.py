"""Tests for interfaces, links, hosts and namespaces."""

from __future__ import annotations

import pytest

from repro.net import (
    ARP,
    Ethernet,
    EtherType,
    Host,
    IPv4,
    IPv4Address,
    Interface,
    MACAddress,
    NamespaceRegistry,
    UDP,
    connect,
)
from repro.net.namespace import NamespaceError


def make_interface(name: str, mac_id: int) -> Interface:
    return Interface(name=name, mac=MACAddress.from_local_id(mac_id))


class TestLink:
    def test_frame_delivery_after_delay(self, sim):
        iface_a = make_interface("a", 1)
        iface_b = make_interface("b", 2)
        received = []
        iface_b.set_handler(lambda iface, data: received.append((sim.now, data)))
        connect(sim, iface_a, iface_b, delay=0.5, bandwidth_bps=0)
        iface_a.send(b"hello")
        sim.run()
        assert received == [(0.5, b"hello")]

    def test_serialization_delay_from_bandwidth(self, sim):
        iface_a = make_interface("a", 1)
        iface_b = make_interface("b", 2)
        received = []
        iface_b.set_handler(lambda iface, data: received.append(sim.now))
        connect(sim, iface_a, iface_b, delay=0.0, bandwidth_bps=8000)  # 1000 B/s
        iface_a.send(b"x" * 100)
        sim.run()
        assert received == [pytest.approx(0.1)]

    def test_bidirectional(self, sim):
        iface_a = make_interface("a", 1)
        iface_b = make_interface("b", 2)
        got_a, got_b = [], []
        iface_a.set_handler(lambda i, d: got_a.append(d))
        iface_b.set_handler(lambda i, d: got_b.append(d))
        connect(sim, iface_a, iface_b)
        iface_a.send(b"to-b")
        iface_b.send(b"to-a")
        sim.run()
        assert got_b == [b"to-b"]
        assert got_a == [b"to-a"]

    def test_down_link_drops_frames(self, sim):
        iface_a = make_interface("a", 1)
        iface_b = make_interface("b", 2)
        received = []
        iface_b.set_handler(lambda i, d: received.append(d))
        link = connect(sim, iface_a, iface_b)
        link.set_down()
        iface_a.send(b"lost")
        sim.run()
        assert received == []
        assert link.dropped_frames == 1
        link.set_up()
        iface_a.send(b"found")
        sim.run()
        assert received == [b"found"]

    def test_send_without_link_counts_drop(self, sim):
        iface = make_interface("a", 1)
        assert iface.send(b"nowhere") is False
        assert iface.tx_dropped == 1

    def test_interface_down_drops_rx(self, sim):
        iface_a = make_interface("a", 1)
        iface_b = make_interface("b", 2)
        received = []
        iface_b.set_handler(lambda i, d: received.append(d))
        connect(sim, iface_a, iface_b)
        iface_b.up = False
        iface_a.send(b"ignored")
        sim.run()
        assert received == []
        assert iface_b.rx_dropped == 1

    def test_cannot_double_cable_interface(self, sim):
        iface_a = make_interface("a", 1)
        iface_b = make_interface("b", 2)
        iface_c = make_interface("c", 3)
        connect(sim, iface_a, iface_b)
        with pytest.raises(ValueError):
            connect(sim, iface_a, iface_c)

    def test_counters(self, sim):
        iface_a = make_interface("a", 1)
        iface_b = make_interface("b", 2)
        iface_b.set_handler(lambda i, d: None)
        connect(sim, iface_a, iface_b)
        iface_a.send(b"12345")
        sim.run()
        assert iface_a.tx_packets == 1 and iface_a.tx_bytes == 5
        assert iface_b.rx_packets == 1 and iface_b.rx_bytes == 5

    def test_interface_network_property(self):
        iface = make_interface("a", 1)
        assert iface.network is None
        iface.configure_ip(IPv4Address("10.0.0.5"), 24)
        assert str(iface.network) == "10.0.0.0/24"


class TestHost:
    def build_pair(self, sim):
        host_a = Host(sim, "h1", MACAddress.from_local_id(1), IPv4Address("10.0.0.1"),
                      prefix_len=24)
        host_b = Host(sim, "h2", MACAddress.from_local_id(2), IPv4Address("10.0.0.2"),
                      prefix_len=24)
        connect(sim, host_a.interface, host_b.interface)
        return host_a, host_b

    def test_udp_delivery_with_arp_resolution(self, sim):
        host_a, host_b = self.build_pair(sim)
        received = []
        host_b.bind_udp(9000, lambda src, sport, data: received.append((str(src), data)))
        host_a.send_udp(host_b.ip, 9000, b"payload", src_port=1234)
        sim.run()
        assert received == [("10.0.0.1", b"payload")]
        # ARP table was populated on both sides.
        assert host_b.ip in host_a.arp_table
        assert host_a.ip in host_b.arp_table

    def test_ping_round_trip(self, sim):
        host_a, host_b = self.build_pair(sim)
        host_a.ping(host_b.ip)
        sim.run()
        assert len(host_a.echo_replies) == 1
        _, source, _ = host_a.echo_replies[0]
        assert source == host_b.ip

    def test_off_subnet_without_gateway_is_dropped(self, sim):
        host_a, _ = self.build_pair(sim)
        host_a.send_udp(IPv4Address("192.168.1.1"), 80, b"x")
        sim.run()
        assert host_a.interface.tx_packets == 0

    def test_off_subnet_uses_gateway_arp(self, sim):
        host = Host(sim, "h1", MACAddress.from_local_id(1), IPv4Address("10.0.0.1"),
                    prefix_len=24, gateway=IPv4Address("10.0.0.254"))
        peer = make_interface("sw", 9)
        frames = []
        peer.set_handler(lambda i, d: frames.append(Ethernet.decode(d)))
        connect(sim, host.interface, peer)
        host.send_udp(IPv4Address("172.16.0.1"), 80, b"x")
        sim.run(until=0.5)
        arp_frames = [f for f in frames if f.ethertype == EtherType.ARP]
        assert arp_frames, "host should ARP for its gateway"
        assert arp_frames[0].payload.target_ip == IPv4Address("10.0.0.254")

    def test_arp_queue_limit(self, sim):
        host = Host(sim, "h1", MACAddress.from_local_id(1), IPv4Address("10.0.0.1"),
                    prefix_len=24, gateway=IPv4Address("10.0.0.254"))
        peer = make_interface("sw", 9)
        peer.set_handler(lambda i, d: None)
        connect(sim, host.interface, peer)
        for index in range(100):
            host.send_udp(IPv4Address("172.16.0.1"), 80, bytes([index]))
        pending = host._pending_arp[IPv4Address("10.0.0.254")]
        assert len(pending) <= Host.ARP_QUEUE_LIMIT

    def test_duplicate_udp_bind_rejected(self, sim):
        host, _ = self.build_pair(sim)
        host.bind_udp(80, lambda *a: None)
        with pytest.raises(ValueError):
            host.bind_udp(80, lambda *a: None)

    def test_ignores_frames_for_other_macs(self, sim):
        host_a, host_b = self.build_pair(sim)
        # Craft a frame addressed to a third-party MAC.
        rogue = Ethernet(src=host_a.mac, dst=MACAddress.from_local_id(99),
                         ethertype=EtherType.IPV4,
                         payload=IPv4(src=host_a.ip, dst=host_b.ip, protocol=17,
                                      payload=UDP(src_port=1, dst_port=1,
                                                  payload=b"x")))
        received = []
        host_b.bind_udp(1, lambda *a: received.append(a))
        host_a.interface.send(rogue.encode())
        sim.run()
        assert received == []

    def test_arp_request_for_other_ip_not_answered(self, sim):
        host_a, host_b = self.build_pair(sim)
        request = ARP.request(host_a.mac, host_a.ip, IPv4Address("10.0.0.77"))
        frame = Ethernet(src=host_a.mac, dst=MACAddress.broadcast(),
                         ethertype=EtherType.ARP, payload=request)
        host_a.interface.send(frame.encode())
        sim.run()
        assert IPv4Address("10.0.0.77") not in host_a.arp_table


class TestNamespaces:
    def test_create_and_lookup(self):
        registry = NamespaceRegistry()
        namespace = registry.create("s1")
        iface = make_interface("s1-eth1", 1)
        namespace.add_interface(iface)
        assert registry.get("s1").interface("s1-eth1") is iface
        assert "s1" in registry
        assert len(registry) == 1

    def test_duplicate_namespace_rejected(self):
        registry = NamespaceRegistry()
        registry.create("s1")
        with pytest.raises(NamespaceError):
            registry.create("s1")

    def test_duplicate_interface_rejected(self):
        namespace = NamespaceRegistry().create("s1")
        namespace.add_interface(make_interface("eth0", 1))
        with pytest.raises(NamespaceError):
            namespace.add_interface(make_interface("eth0", 2))

    def test_missing_lookups_raise(self):
        registry = NamespaceRegistry()
        with pytest.raises(NamespaceError):
            registry.get("missing")
        namespace = registry.create("s1")
        with pytest.raises(NamespaceError):
            namespace.interface("missing")

    def test_single_device_per_namespace(self):
        namespace = NamespaceRegistry().create("s1")
        namespace.attach_device(object())
        with pytest.raises(NamespaceError):
            namespace.attach_device(object())
