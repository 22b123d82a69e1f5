"""Tests for the BGP speaker: sessions, policy, lifecycle, redistribution."""

from __future__ import annotations

import pytest

from repro.net import IPv4Address, IPv4Network
from repro.quagga import BGPNeighbor, Route, generate_bgpd_conf, parse_bgpd_conf
from repro.quagga.bgp import BGPDaemon, BGPSessionBroker, BGPSessionState
from repro.quagga.ospf.constants import EXTERNAL_ROUTE_TAG
from repro.quagga.rib import RouteSource
from repro.quagga.zebra import ZebraDaemon


def build_speaker(sim, broker, local_as, router_id, local_ip, neighbors,
                  networks=None, address_book=None, **config_kwargs):
    """Construct a BGP speaker from a generated-then-parsed bgpd.conf.

    ``neighbors`` entries are ``(ip, remote_as)`` tuples or full
    :class:`BGPNeighbor` objects; extra keyword arguments flow into
    :func:`generate_bgpd_conf` (timers, redistribution, prefix lists).
    """
    neighbor_objs = [n if isinstance(n, BGPNeighbor)
                     else BGPNeighbor(IPv4Address(n[0]), n[1])
                     for n in neighbors]
    text = generate_bgpd_conf(f"as{local_as}", local_as, IPv4Address(router_id),
                              neighbor_objs,
                              networks=[IPv4Network(n) for n in (networks or [])],
                              **config_kwargs)
    config = parse_bgpd_conf(text)
    zebra = ZebraDaemon(f"as{local_as}")
    zebra.start()
    daemon = BGPDaemon(sim, zebra, config, broker,
                       local_addresses=[IPv4Address(local_ip)],
                       address_book=address_book)
    daemon.start()
    return daemon, zebra


@pytest.fixture
def bgp_pair(sim):
    broker = BGPSessionBroker(sim, session_delay=1.0)
    a, zebra_a = build_speaker(sim, broker, 65001, "1.1.1.1", "10.0.12.1",
                               [("10.0.12.2", 65002)], networks=["192.168.1.0/24"])
    b, zebra_b = build_speaker(sim, broker, 65002, "2.2.2.2", "10.0.12.2",
                               [("10.0.12.1", 65001)], networks=["192.168.2.0/24"])
    return broker, (a, zebra_a), (b, zebra_b)


class TestBGPSessions:
    def test_session_established_both_sides(self, sim, bgp_pair):
        _, (a, _), (b, _) = bgp_pair
        sim.run(until=5.0)
        assert len(a.established_sessions) == 1
        assert len(b.established_sessions) == 1
        assert a.sessions[IPv4Address("10.0.12.2")].state == BGPSessionState.ESTABLISHED

    def test_unmatched_neighbor_stays_idle(self, sim):
        broker = BGPSessionBroker(sim)
        a, _ = build_speaker(sim, broker, 65001, "1.1.1.1", "10.0.12.1",
                             [("10.0.12.9", 65009)])
        sim.run(until=10.0)
        assert a.established_sessions == []

    def test_routes_exchanged_after_establishment(self, sim, bgp_pair):
        _, (a, zebra_a), (b, zebra_b) = bgp_pair
        sim.run(until=5.0)
        assert IPv4Network("192.168.2.0/24") in zebra_a.fib
        assert IPv4Network("192.168.1.0/24") in zebra_b.fib
        route = zebra_a.fib[IPv4Network("192.168.2.0/24")]
        assert route.source == RouteSource.BGP

    def test_late_announcement_propagates(self, sim, bgp_pair):
        _, (a, _), (b, zebra_b) = bgp_pair
        sim.run(until=5.0)
        a.announce_network(IPv4Network("172.20.0.0/16"))
        sim.run(until=7.0)
        assert IPv4Network("172.20.0.0/16") in zebra_b.fib


class TestBGPPathSelection:
    def test_as_path_loop_rejected(self, sim):
        broker = BGPSessionBroker(sim, session_delay=0.5)
        a, zebra_a = build_speaker(sim, broker, 65001, "1.1.1.1", "10.0.12.1",
                                   [("10.0.12.2", 65002)])
        b, _ = build_speaker(sim, broker, 65002, "2.2.2.2", "10.0.12.2",
                             [("10.0.12.1", 65001)])
        sim.run(until=3.0)
        from repro.quagga.bgp import BGPAnnouncement

        poisoned = BGPAnnouncement(prefix=IPv4Network("10.50.0.0/16"),
                                   next_hop=IPv4Address("10.0.12.2"),
                                   as_path=(65002, 65001))
        a.receive_announcement(IPv4Address("10.0.12.1"), IPv4Address("10.0.12.2"),
                               poisoned)
        assert IPv4Network("10.50.0.0/16") not in zebra_a.fib

    def test_transit_propagation_three_speakers(self, sim):
        broker = BGPSessionBroker(sim, session_delay=0.5)
        a, zebra_a = build_speaker(sim, broker, 65001, "1.1.1.1", "10.0.12.1",
                                   [("10.0.12.2", 65002)], networks=["192.168.1.0/24"])
        b, _ = build_speaker(sim, broker, 65002, "2.2.2.2", "10.0.12.2",
                             [("10.0.12.1", 65001), ("10.0.23.2", 65003)])
        c, zebra_c = build_speaker(sim, broker, 65003, "3.3.3.3", "10.0.23.2",
                                   [("10.0.23.1", 65002)])
        # The middle speaker owns both transit addresses.
        b.local_addresses.append(IPv4Address("10.0.23.1"))
        b.sessions[IPv4Address("10.0.23.2")].local_address = IPv4Address("10.0.23.1")
        broker.register(IPv4Address("10.0.23.1"), b)
        sim.run(until=10.0)
        assert IPv4Network("192.168.1.0/24") in zebra_c.fib
        # The AS path seen at C includes both upstream ASes (metric = path length).
        assert zebra_c.fib[IPv4Network("192.168.1.0/24")].metric == 2

    def test_stop_withdraws_bgp_routes(self, sim, bgp_pair):
        _, (a, zebra_a), _ = bgp_pair
        sim.run(until=5.0)
        assert any(r.source == RouteSource.BGP for r in zebra_a.fib_routes)
        a.stop()
        assert not any(r.source == RouteSource.BGP for r in zebra_a.fib_routes)


class TestSessionRolesAndDistances:
    def test_ebgp_installs_with_distance_20(self, sim, bgp_pair):
        _, (a, zebra_a), _ = bgp_pair
        sim.run(until=5.0)
        route = zebra_a.fib[IPv4Network("192.168.2.0/24")]
        assert route.admin_distance == 20

    def test_ibgp_installs_with_distance_200(self, sim):
        broker = BGPSessionBroker(sim, session_delay=0.5)
        book_a = lambda: {IPv4Address("10.0.12.1"): ("eth1", 30)}
        book_b = lambda: {IPv4Address("10.0.12.2"): ("eth1", 30)}
        a, zebra_a = build_speaker(sim, broker, 65001, "1.1.1.1", "10.0.12.1",
                                   [("10.0.12.2", 65001)], address_book=book_a)
        b, _ = build_speaker(sim, broker, 65001, "2.2.2.2", "10.0.12.2",
                             [("10.0.12.1", 65001)], networks=["192.168.9.0/24"],
                             address_book=book_b)
        # iBGP next-hop-self points at b's loopback; a's IGP knows the way.
        zebra_a.announce_route(Route(prefix=IPv4Network("2.2.2.2/32"),
                                     next_hop=IPv4Address("10.0.12.2"),
                                     interface="eth1",
                                     source=RouteSource.OSPF, metric=10))
        sim.run(until=5.0)
        session = a.sessions[IPv4Address("10.0.12.2")]
        assert session.is_ibgp
        route = zebra_a.fib[IPv4Network("192.168.9.0/24")]
        assert route.admin_distance == RouteSource.IBGP_DISTANCE == 200

    def test_ebgp_beats_ospf_but_ibgp_loses(self, sim, bgp_pair):
        """The redistribution tie-breaks: eBGP 20 < OSPF 110 < iBGP 200."""
        _, (a, zebra_a), _ = bgp_pair
        sim.run(until=5.0)
        prefix = IPv4Network("192.168.2.0/24")
        zebra_a.announce_route(Route(prefix=prefix,
                                     next_hop=IPv4Address("10.0.99.1"),
                                     interface="eth9",
                                     source=RouteSource.OSPF, metric=10))
        assert zebra_a.fib[prefix].source == RouteSource.BGP  # eBGP wins
        ibgp = Route(prefix=prefix, next_hop=IPv4Address("10.0.99.2"),
                     interface="eth8", source=RouteSource.BGP,
                     distance=RouteSource.IBGP_DISTANCE)
        rib = ZebraDaemon("tie").rib
        rib.add_route(Route(prefix=prefix, next_hop=IPv4Address("10.0.99.1"),
                            interface="eth9", source=RouteSource.OSPF,
                            metric=10))
        rib.add_route(ibgp)
        assert rib.best_route(prefix).source == RouteSource.OSPF  # iBGP loses


class TestPolicy:
    def test_local_pref_beats_shorter_as_path(self, sim):
        """A peer with local-preference 200 wins despite a longer AS path."""
        broker = BGPSessionBroker(sim, session_delay=0.5)
        prefer = BGPNeighbor(IPv4Address("10.0.12.2"), 65002, local_pref=200)
        a, zebra_a = build_speaker(sim, broker, 65001, "1.1.1.1", "10.0.12.1",
                                   [prefer, ("10.0.13.2", 65003)])
        a.local_addresses.append(IPv4Address("10.0.13.1"))
        b, _ = build_speaker(sim, broker, 65002, "2.2.2.2", "10.0.12.2",
                             [("10.0.12.1", 65001)])
        c, _ = build_speaker(sim, broker, 65003, "3.3.3.3", "10.0.13.2",
                             [("10.0.13.1", 65001)])
        broker.register(IPv4Address("10.0.13.1"), a)
        sim.run(until=3.0)
        prefix = IPv4Network("10.50.0.0/16")
        from repro.quagga.bgp import BGPAnnouncement

        # b's path is two ASes long, c's is one — local_pref must override.
        long_path = BGPAnnouncement(prefix=prefix,
                                    next_hop=IPv4Address("10.0.12.2"),
                                    as_path=(65002, 65009))
        a.receive_announcement(IPv4Address("10.0.12.1"),
                               IPv4Address("10.0.12.2"), long_path)
        short_path = BGPAnnouncement(prefix=prefix,
                                     next_hop=IPv4Address("10.0.13.2"),
                                     as_path=(65003,))
        a.receive_announcement(IPv4Address("10.0.13.1"),
                               IPv4Address("10.0.13.2"), short_path)
        # local_pref 200 won: the FIB points at b despite the longer path.
        assert zebra_a.fib[prefix].next_hop == IPv4Address("10.0.12.2")

    def test_med_attached_on_egress(self, sim):
        broker = BGPSessionBroker(sim, session_delay=0.5)
        toward_b = BGPNeighbor(IPv4Address("10.0.12.2"), 65002, med=77)
        a, _ = build_speaker(sim, broker, 65001, "1.1.1.1", "10.0.12.1",
                             [toward_b], networks=["192.168.1.0/24"])
        b, _ = build_speaker(sim, broker, 65002, "2.2.2.2", "10.0.12.2",
                             [("10.0.12.1", 65001)])
        sim.run(until=5.0)
        received = b.sessions[IPv4Address("10.0.12.1")].received
        assert received[IPv4Network("192.168.1.0/24")].med == 77

    def test_export_prefix_list_filters(self, sim):
        broker = BGPSessionBroker(sim, session_delay=0.5)
        secret = "10.99.0.0/16"
        toward_b = BGPNeighbor(IPv4Address("10.0.12.2"), 65002,
                               export_prefix_list="NO-SECRET")
        a, _ = build_speaker(
            sim, broker, 65001, "1.1.1.1", "10.0.12.1", [toward_b],
            networks=["192.168.1.0/24", secret],
            prefix_lists={"NO-SECRET": [("deny", IPv4Network(secret)),
                                        ("permit", None)]})
        b, zebra_b = build_speaker(sim, broker, 65002, "2.2.2.2", "10.0.12.2",
                                   [("10.0.12.1", 65001)])
        sim.run(until=5.0)
        assert IPv4Network("192.168.1.0/24") in zebra_b.fib
        assert IPv4Network(secret) not in zebra_b.fib


def flapping_pair(sim, hold=30.0):
    broker = BGPSessionBroker(sim, session_delay=0.5)
    book_a = lambda: {IPv4Address("10.0.12.1"): ("eth1", 30)}
    book_b = lambda: {IPv4Address("10.0.12.2"): ("eth1", 30)}
    a, zebra_a = build_speaker(sim, broker, 65001, "1.1.1.1", "10.0.12.1",
                               [("10.0.12.2", 65002)],
                               address_book=book_a,
                               keepalive_interval=hold / 3, hold_time=hold)
    b, zebra_b = build_speaker(sim, broker, 65002, "2.2.2.2", "10.0.12.2",
                               [("10.0.12.1", 65001)],
                               networks=["192.168.2.0/24"],
                               address_book=book_b,
                               keepalive_interval=hold / 3, hold_time=hold)
    return broker, (a, zebra_a), (b, zebra_b)


class TestSessionLifecycle:
    def _flapping_pair(self, sim, hold=30.0):
        return flapping_pair(sim, hold=hold)

    def test_interface_down_drops_session_and_withdraws(self, sim):
        _, (a, zebra_a), (b, _) = self._flapping_pair(sim)
        sim.run(until=5.0)
        prefix = IPv4Network("192.168.2.0/24")
        assert prefix in zebra_a.fib
        a.interface_down("eth1")
        b.interface_down("eth1")  # both ends see the carrier loss
        assert a.sessions[IPv4Address("10.0.12.2")].state == BGPSessionState.IDLE
        assert prefix not in zebra_a.fib

    def test_session_reestablishes_and_readvertises_on_restore(self, sim):
        _, (a, zebra_a), (b, _) = self._flapping_pair(sim)
        sim.run(until=5.0)
        prefix = IPv4Network("192.168.2.0/24")
        a.interface_down("eth1")
        b.interface_down("eth1")
        sim.run(until=10.0)
        assert prefix not in zebra_a.fib
        a.interface_up("eth1")
        b.interface_up("eth1")
        sim.run(until=15.0)
        session = a.sessions[IPv4Address("10.0.12.2")]
        assert session.state == BGPSessionState.ESTABLISHED
        assert prefix in zebra_a.fib

    def test_hold_timer_expires_when_peer_falls_silent(self, sim):
        _, (a, zebra_a), (b, _) = self._flapping_pair(sim, hold=3.0)
        sim.run(until=2.0)
        assert a.established_sessions
        # The peer's process freezes: no keepalives, no TCP close.
        b._timer.stop()
        b.running = False
        sim.run(until=10.0)
        assert not a.established_sessions
        assert IPv4Network("192.168.2.0/24") not in zebra_a.fib

    def test_withdrawal_propagates_between_speakers(self, sim, bgp_pair):
        _, (a, zebra_a), (b, _) = bgp_pair
        sim.run(until=5.0)
        prefix = IPv4Network("192.168.2.0/24")
        assert prefix in zebra_a.fib
        # b's origination disappears (the IGP route it redistributed died).
        del b._local_networks[prefix]
        b._reevaluate(prefix)
        sim.run(until=7.0)
        assert prefix not in zebra_a.fib


class TestRedistributionAndResolution:
    def test_redistribute_ospf_announces_and_withdraws(self, sim):
        broker = BGPSessionBroker(sim, session_delay=0.5)
        a, zebra_a = build_speaker(sim, broker, 65001, "1.1.1.1", "10.0.12.1",
                                   [("10.0.12.2", 65002)],
                                   redistribute_ospf=True)
        b, zebra_b = build_speaker(sim, broker, 65002, "2.2.2.2", "10.0.12.2",
                                   [("10.0.12.1", 65001)])
        sim.run(until=3.0)
        prefix = IPv4Network("10.7.0.0/24")
        zebra_a.announce_route(Route(prefix=prefix,
                                     next_hop=IPv4Address("10.1.1.1"),
                                     interface="eth2",
                                     source=RouteSource.OSPF, metric=10))
        sim.run(until=5.0)
        assert prefix in zebra_b.fib
        zebra_a.withdraw_route(prefix, RouteSource.OSPF)
        sim.run(until=7.0)
        assert prefix not in zebra_b.fib

    def test_tagged_external_ospf_routes_not_reexported(self, sim):
        """The EXTERNAL_ROUTE_TAG guard against AS-path truncation."""
        broker = BGPSessionBroker(sim, session_delay=0.5)
        a, zebra_a = build_speaker(sim, broker, 65001, "1.1.1.1", "10.0.12.1",
                                   [("10.0.12.2", 65002)],
                                   redistribute_ospf=True)
        b, zebra_b = build_speaker(sim, broker, 65002, "2.2.2.2", "10.0.12.2",
                                   [("10.0.12.1", 65001)])
        sim.run(until=3.0)
        leaked = IPv4Network("10.8.0.0/24")
        zebra_a.announce_route(Route(prefix=leaked,
                                     next_hop=IPv4Address("10.1.1.1"),
                                     interface="eth2",
                                     source=RouteSource.OSPF, metric=20,
                                     tag=EXTERNAL_ROUTE_TAG))
        sim.run(until=5.0)
        assert leaked not in zebra_b.fib

    def test_recursive_next_hop_resolution_via_igp(self, sim):
        """An iBGP next-hop-self resolves through the IGP route to it."""
        from repro.quagga.bgp import BGPAnnouncement

        broker = BGPSessionBroker(sim, session_delay=0.5)
        book = lambda: {IPv4Address("10.0.12.1"): ("eth1", 30)}
        a, zebra_a = build_speaker(sim, broker, 65001, "1.1.1.1", "10.0.12.1",
                                   [("9.9.9.9", 65001)], address_book=book)
        peer_loopback = IPv4Address("9.9.9.9")
        session = a.sessions[peer_loopback]
        session.state = BGPSessionState.ESTABLISHED
        session.established_at = sim.now
        # The IGP knows the way to the peer's loopback.
        igp_next_hop = IPv4Address("10.0.12.2")
        zebra_a.announce_route(Route(prefix=IPv4Network("9.9.9.9/32"),
                                     next_hop=igp_next_hop, interface="eth1",
                                     source=RouteSource.OSPF, metric=10))
        prefix = IPv4Network("172.30.0.0/16")
        a.receive_announcement(IPv4Address("10.0.12.1"), peer_loopback,
                               BGPAnnouncement(prefix=prefix,
                                               next_hop=peer_loopback,
                                               as_path=(65002,)))
        route = zebra_a.fib[prefix]
        assert route.next_hop == igp_next_hop
        assert route.interface == "eth1"
        # The IGP route dies: the BGP route is unresolvable and withdrawn.
        zebra_a.withdraw_route(IPv4Network("9.9.9.9/32"), RouteSource.OSPF)
        assert prefix not in zebra_a.fib
        # It comes back: the BGP route is re-installed.
        zebra_a.announce_route(Route(prefix=IPv4Network("9.9.9.9/32"),
                                     next_hop=igp_next_hop, interface="eth1",
                                     source=RouteSource.OSPF, metric=10))
        assert prefix in zebra_a.fib


class TestBrokerPendingSet:
    """The broker's pending-session set: idle sessions are probed from a
    queue keyed by the awaited peer address, so the established steady
    state costs nothing per ConnectRetry tick and a retry sweep is linear
    in the number of idle sessions."""

    @staticmethod
    def count_probes(broker, monkeypatch):
        """Record every establishment probe the broker makes."""
        probes = []
        probe = broker._try_establish
        monkeypatch.setattr(broker, "_try_establish",
                            lambda speaker, session: (probes.append(session),
                                                      probe(speaker, session)))
        return probes

    def test_steady_state_costs_no_probes(self, sim, bgp_pair, monkeypatch):
        broker, (a, _), (b, _) = bgp_pair
        sim.run(until=5.0)
        assert a.established_sessions and b.established_sessions
        # A sweep drops entries enlisted during the handshake lazily;
        # afterwards nothing is pending and nothing gets probed again.
        broker.retry()
        assert not broker._pending
        probes = self.count_probes(broker, monkeypatch)
        # Dozens of keepalive/ConnectRetry ticks with nothing idle.
        sim.run(until=300.0)
        assert probes == []

    def test_enlist_is_idempotent(self, sim):
        broker = BGPSessionBroker(sim)
        a, _ = build_speaker(sim, broker, 65001, "1.1.1.1", "10.0.12.1",
                             [("10.0.12.9", 65009)])
        session = a.sessions[IPv4Address("10.0.12.9")]
        assert session.retry_pending
        for _ in range(5):
            broker.enlist(a, session)
        assert len(broker._pending[IPv4Address("10.0.12.9")]) == 1

    def test_retry_probes_each_idle_session_once(self, sim, monkeypatch):
        broker = BGPSessionBroker(sim)
        speakers = []
        for index in range(4):
            daemon, _ = build_speaker(
                sim, broker, 65001 + index, f"{index + 1}.{index + 1}.1.1",
                f"10.0.{index + 1}.1",
                [(f"10.0.{index + 1}.200", 64999)])  # nobody home
            speakers.append(daemon)
        probes = self.count_probes(broker, monkeypatch)
        broker.retry()
        # One probe per pending session — not O(speakers x sessions).
        assert sorted(map(id, probes)) == sorted(
            id(session) for daemon in speakers
            for session in daemon.sessions.values())
        for daemon in speakers:
            (session,) = daemon.sessions.values()
            assert session.retry_pending  # still idle: re-enlisted

    def test_stopped_speaker_dropped_lazily_from_pending(self, sim):
        broker = BGPSessionBroker(sim)
        a, _ = build_speaker(sim, broker, 65001, "1.1.1.1", "10.0.12.1",
                             [("10.0.12.9", 65009)])
        a.stop()
        broker.retry()
        assert not broker._pending


class TestGracefulReadvertisementDelta:
    """A re-established session re-sends only the Adj-RIB-Out delta: the
    end-of-RIB marker revalidates whatever the peer retained unchanged."""

    def test_flap_skips_unchanged_advertisements(self, sim):
        _, (a, zebra_a), (b, _) = flapping_pair(sim)
        sim.run(until=5.0)
        prefix = IPv4Network("192.168.2.0/24")
        assert prefix in zebra_a.fib
        sent_before = b.updates_sent
        a.interface_down("eth1")
        b.interface_down("eth1")
        sim.run(until=8.0)
        assert prefix not in zebra_a.fib
        a.interface_up("eth1")
        b.interface_up("eth1")
        sim.run(until=25.0)
        assert a.sessions[IPv4Address("10.0.12.2")].established
        # The route is back via EOR revalidation, not a re-sent UPDATE.
        assert prefix in zebra_a.fib
        assert b.updates_sent == sent_before

    def test_flap_resends_only_the_delta(self, sim):
        _, (a, zebra_a), (b, _) = flapping_pair(sim)
        sim.run(until=5.0)
        old_prefix = IPv4Network("192.168.2.0/24")
        new_prefix = IPv4Network("172.16.0.0/16")
        a.interface_down("eth1")
        b.interface_down("eth1")
        sim.run(until=8.0)
        # While the session is down the advertiser's RIB changes: one
        # origination appears, the old one disappears.
        b.announce_network(new_prefix)
        del b._local_networks[old_prefix]
        b._reevaluate(old_prefix)
        sent_before = b.updates_sent
        withdrawn_before = b.withdrawals_sent
        a.interface_up("eth1")
        b.interface_up("eth1")
        sim.run(until=25.0)
        assert a.sessions[IPv4Address("10.0.12.2")].established
        assert new_prefix in zebra_a.fib
        assert old_prefix not in zebra_a.fib
        # Exactly one UPDATE (the new prefix) and one withdrawal (the
        # prefix the peer retained but the advertiser no longer exports).
        assert b.updates_sent == sent_before + 1
        assert b.withdrawals_sent == withdrawn_before + 1
