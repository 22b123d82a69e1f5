"""Tests for the RIB and the zebra daemon."""

from __future__ import annotations

import pytest

from repro.net import IPv4Address, IPv4Network
from repro.quagga import RIB, Route, RouteSource, ZebraDaemon

P1 = IPv4Network("10.1.0.0/24")
P2 = IPv4Network("10.2.0.0/24")
HOP_A = IPv4Address("172.16.0.1")
HOP_B = IPv4Address("172.16.0.5")


def ospf_route(prefix=P1, hop=HOP_A, metric=10, iface="eth1") -> Route:
    return Route(prefix=prefix, next_hop=hop, interface=iface,
                 source=RouteSource.OSPF, metric=metric)


class TestRIB:
    def test_add_and_lookup(self):
        rib = RIB()
        assert rib.add_route(ospf_route()) is True
        assert rib.best_route(P1).next_hop == HOP_A
        assert len(rib) == 1
        assert P1 in rib

    def test_admin_distance_prefers_connected_over_ospf(self):
        rib = RIB()
        rib.add_route(ospf_route())
        rib.add_route(Route(prefix=P1, next_hop=None, interface="eth0",
                            source=RouteSource.CONNECTED))
        best = rib.best_route(P1)
        assert best.source == RouteSource.CONNECTED

    def test_metric_breaks_ties_within_protocol(self):
        rib = RIB()
        rib.add_route(ospf_route(hop=HOP_A, metric=20))
        rib.add_route(ospf_route(hop=HOP_B, metric=10))
        assert rib.best_route(P1).next_hop == HOP_B

    def test_reannouncement_replaces_previous_candidate(self):
        rib = RIB()
        rib.add_route(ospf_route(metric=20))
        rib.add_route(ospf_route(metric=5))
        best = rib.best_route(P1)
        assert best.metric == 5
        # Only one candidate remains for that (source, next-hop, iface) triple.
        assert len(rib._routes[P1]) == 1

    def test_remove_route(self):
        rib = RIB()
        rib.add_route(ospf_route())
        assert rib.remove_route(P1, RouteSource.OSPF) is True
        assert rib.best_route(P1) is None
        assert len(rib) == 0

    def test_remove_missing_route_is_noop(self):
        rib = RIB()
        assert rib.remove_route(P1, RouteSource.OSPF) is False

    def test_remove_all_from_source(self):
        rib = RIB()
        rib.add_route(ospf_route(prefix=P1))
        rib.add_route(ospf_route(prefix=P2))
        rib.add_route(Route(prefix=P1, next_hop=None, interface="eth0",
                            source=RouteSource.CONNECTED))
        changed = rib.remove_all_from(RouteSource.OSPF)
        assert P2 in changed
        assert rib.best_route(P1).source == RouteSource.CONNECTED
        assert rib.best_route(P2) is None

    def test_listener_called_on_change_only(self):
        rib = RIB()
        changes = []
        rib.add_listener(lambda prefix, new, old: changes.append((prefix, new, old)))
        rib.add_route(ospf_route(metric=10))
        rib.add_route(ospf_route(hop=HOP_B, metric=20))  # worse, no change
        assert len(changes) == 1
        rib.remove_route(P1, RouteSource.OSPF, next_hop=HOP_A)
        assert len(changes) == 2
        assert changes[-1][1].next_hop == HOP_B

    def test_longest_prefix_lookup(self):
        rib = RIB()
        rib.add_route(ospf_route(prefix=IPv4Network("10.0.0.0/8"), hop=HOP_A))
        rib.add_route(ospf_route(prefix=IPv4Network("10.1.0.0/16"), hop=HOP_B))
        assert rib.lookup(IPv4Address("10.1.2.3")).next_hop == HOP_B
        assert rib.lookup(IPv4Address("10.9.2.3")).next_hop == HOP_A
        assert rib.lookup(IPv4Address("192.168.0.1")) is None

    def test_selected_routes_sorted(self):
        rib = RIB()
        rib.add_route(ospf_route(prefix=P2))
        rib.add_route(ospf_route(prefix=P1))
        assert [r.prefix for r in rib.selected_routes] == [P1, P2]


class TestZebra:
    def test_connected_route_announcement(self):
        zebra = ZebraDaemon("vm1")
        zebra.start()
        zebra.announce_connected(P1, "eth1")
        assert P1 in zebra.fib
        assert zebra.fib[P1].is_connected

    def test_fib_listener_notified(self):
        zebra = ZebraDaemon("vm1")
        zebra.start()
        updates = []
        zebra.add_fib_listener(lambda prefix, new, old: updates.append((prefix, new, old)))
        zebra.announce_route(ospf_route())
        assert len(updates) == 1
        zebra.withdraw_route(P1, RouteSource.OSPF)
        assert len(updates) == 2
        assert updates[-1][1] is None

    def test_protocol_route_shadowed_by_connected(self):
        zebra = ZebraDaemon("vm1")
        zebra.start()
        zebra.announce_route(ospf_route())
        zebra.announce_connected(P1, "eth0")
        assert zebra.fib[P1].source == RouteSource.CONNECTED
        zebra.withdraw_connected(P1)
        assert zebra.fib[P1].source == RouteSource.OSPF

    def test_static_route(self):
        zebra = ZebraDaemon("vm1")
        zebra.start()
        zebra.rib.add_route(Route(prefix=P2, next_hop=HOP_A, interface="eth1",
                                  source=RouteSource.STATIC))
        assert zebra.fib[P2].source == RouteSource.STATIC

    def test_lookup_longest_prefix(self):
        zebra = ZebraDaemon("vm1")
        zebra.start()
        zebra.announce_route(ospf_route(prefix=IPv4Network("10.0.0.0/8"), hop=HOP_A))
        zebra.announce_route(ospf_route(prefix=IPv4Network("10.1.0.0/16"), hop=HOP_B))
        assert zebra.lookup(IPv4Address("10.1.1.1")).next_hop == HOP_B

    def test_install_and_withdraw_counters(self):
        zebra = ZebraDaemon("vm1")
        zebra.start()
        zebra.announce_route(ospf_route())
        zebra.withdraw_route(P1, RouteSource.OSPF)
        assert zebra.install_count == 1
        assert zebra.withdraw_count == 1

    def test_show_ip_route_output(self):
        zebra = ZebraDaemon("vm1")
        zebra.start()
        zebra.announce_connected(P1, "eth1")
        zebra.announce_route(ospf_route(prefix=P2))
        text = zebra.show_ip_route()
        assert "C" in text and "O" in text
        assert "10.2.0.0/24" in text
