"""Tests for the LSDB and the SPF computation."""

from __future__ import annotations

import pytest

from repro.net import IPv4Address, IPv4Network
from repro.quagga.ospf import LSDB, RouterLSA, RouterLink, build_router_graph, compute_routes, shortest_paths
from repro.quagga.ospf.constants import MAX_AGE


def rid(index: int) -> IPv4Address:
    return IPv4Address(f"10.0.0.{index}")


def p2p(neighbor: IPv4Address, local_ip: str, metric: int = 10) -> RouterLink:
    return RouterLink.point_to_point(neighbor, IPv4Address(local_ip), metric)


def stub(network: str, plen: int = 30, metric: int = 10) -> RouterLink:
    mask = IPv4Network(f"{network}/{plen}").netmask
    return RouterLink.stub(IPv4Address(network), mask, metric)


def lsa(router: IPv4Address, links, sequence=0x80000001) -> RouterLSA:
    return RouterLSA.originate(router_id=router, sequence=sequence, links=links)


def build_triangle() -> LSDB:
    """Three routers in a triangle, each advertising its two links + stubs."""
    lsdb = LSDB()
    lsdb.install(lsa(rid(1), [p2p(rid(2), "172.16.0.1"), p2p(rid(3), "172.16.0.5"),
                              stub("172.16.0.0"), stub("172.16.0.4"),
                              stub("192.168.1.0", 24)]))
    lsdb.install(lsa(rid(2), [p2p(rid(1), "172.16.0.2"), p2p(rid(3), "172.16.0.9"),
                              stub("172.16.0.0"), stub("172.16.0.8")]))
    lsdb.install(lsa(rid(3), [p2p(rid(1), "172.16.0.6"), p2p(rid(2), "172.16.0.10"),
                              stub("172.16.0.4"), stub("172.16.0.8"),
                              stub("192.168.3.0", 24)]))
    return lsdb


class TestLSDB:
    def test_install_new(self):
        lsdb = LSDB()
        assert lsdb.install(lsa(rid(1), [stub("10.0.0.0", 24)])) is True
        assert len(lsdb) == 1
        assert lsdb.router_lsa(rid(1)) is not None

    def test_newer_sequence_replaces(self):
        lsdb = LSDB()
        lsdb.install(lsa(rid(1), [stub("10.0.0.0", 24)], sequence=1))
        fresh = lsa(rid(1), [stub("10.0.1.0", 24)], sequence=2)
        assert lsdb.install(fresh) is True
        assert lsdb.get(fresh.key).links[0].link_id == IPv4Address("10.0.1.0")

    def test_older_sequence_rejected(self):
        lsdb = LSDB()
        lsdb.install(lsa(rid(1), [stub("10.0.0.0", 24)], sequence=5))
        assert lsdb.install(lsa(rid(1), [stub("10.0.1.0", 24)], sequence=4)) is False

    def test_missing_or_older_than(self):
        lsdb = LSDB()
        lsdb.install(lsa(rid(1), [], sequence=5))
        advertised = [lsa(rid(1), [], sequence=5).header,       # same: not needed
                      lsa(rid(1), [], sequence=9).header,       # newer: needed
                      lsa(rid(2), [], sequence=1).header]       # unknown: needed
        needed = lsdb.missing_or_older_than(advertised)
        assert len(needed) == 2


class TestLSDBAdvertisingRouterIndex:
    """Regression tests for the by-advertising-router index: router_lsa()
    must stay correct through install/replace/remove, not just on the
    freshly built database the linear scan happened to handle."""

    def test_lookup_among_many_routers(self):
        lsdb = LSDB()
        for index in range(1, 41):
            lsdb.install(lsa(rid(index), [stub(f"10.1.{index}.0", 24)]))
        found = lsdb.router_lsa(rid(23))
        assert found is not None
        assert found.header.advertising_router == rid(23)
        assert lsdb.router_lsa(IPv4Address("10.9.9.9")) is None

    def test_lookup_accepts_address_like_values(self):
        lsdb = build_triangle()
        assert lsdb.router_lsa("10.0.0.1") is not None
        assert lsdb.router_lsa(int(rid(1))) is not None

    def test_index_follows_replacement(self):
        lsdb = LSDB()
        lsdb.install(lsa(rid(1), [stub("10.0.0.0", 24)], sequence=1))
        fresh = lsa(rid(1), [stub("10.0.1.0", 24)], sequence=2)
        lsdb.install(fresh)
        assert lsdb.router_lsa(rid(1)) is fresh

    def test_index_follows_remove(self):
        lsdb = build_triangle()
        key = lsdb.router_lsa(rid(3)).key
        assert lsdb.remove(key) is True
        assert lsdb.router_lsa(rid(3)) is None
        assert lsdb.router_lsa(rid(1)) is not None

    def test_version_counts_mutations_only(self):
        lsdb = LSDB()
        v0 = lsdb.version
        lsdb.install(lsa(rid(1), [stub("10.0.0.0", 24)], sequence=5))
        v1 = lsdb.version
        assert v1 > v0
        # A stale install changes nothing and must not bump the version.
        lsdb.install(lsa(rid(1), [stub("10.0.0.0", 24)], sequence=4))
        assert lsdb.version == v1
        lsdb.remove(lsdb.router_lsa(rid(1)).key)
        assert lsdb.version > v1

    def test_graph_cache_keyed_on_version(self):
        lsdb = build_triangle()
        first = build_router_graph(lsdb)
        assert build_router_graph(lsdb) is first  # unchanged db: cache hit
        lsdb.install(lsa(rid(1), [p2p(rid(2), "172.16.0.1"),
                                  stub("172.16.0.0")], sequence=0x80000002))
        second = build_router_graph(lsdb)
        assert second is not first
        # r1 no longer advertises the r1<->r3 link: the bidirectional check
        # must drop that edge from the rebuilt graph.
        assert int(rid(3)) not in second[int(rid(1))]


class TestMaxAge:
    """RFC 2328 MaxAge enforcement: premature-aging flushes and expiry."""

    def test_maxage_flush_removes_the_stored_copy(self):
        lsdb = LSDB()
        lsdb.install(lsa(rid(1), [stub("10.0.0.0", 24)], sequence=5))
        flush = RouterLSA.originate(router_id=rid(1), sequence=6, links=[],
                                    age=MAX_AGE)
        assert lsdb.install(flush) is True
        assert lsdb.router_lsa(rid(1)) is None
        assert len(lsdb) == 0

    def test_maxage_lsa_is_not_retained(self):
        lsdb = LSDB()
        flush = RouterLSA.originate(router_id=rid(1), sequence=6, links=[],
                                    age=MAX_AGE)
        # Nothing to supersede: the flush is discarded (and not re-flooded).
        assert lsdb.install(flush) is False
        assert len(lsdb) == 0

    def test_stale_maxage_flush_is_ignored(self):
        lsdb = LSDB()
        lsdb.install(lsa(rid(1), [stub("10.0.0.0", 24)], sequence=7))
        flush = RouterLSA.originate(router_id=rid(1), sequence=6, links=[],
                                    age=MAX_AGE)
        assert lsdb.install(flush) is False
        assert lsdb.router_lsa(rid(1)) is not None

    def test_expire_aged_retires_old_lsas(self):
        lsdb = LSDB()
        lsdb.install(lsa(rid(1), [stub("10.0.0.0", 24)]), now=0.0)
        lsdb.install(lsa(rid(2), [stub("10.0.1.0", 24)]), now=3000.0)
        expired = lsdb.expire_aged(now=float(MAX_AGE))
        assert expired == [lsa(rid(1), []).key]
        assert lsdb.router_lsa(rid(1)) is None
        assert lsdb.router_lsa(rid(2)) is not None

    def test_effective_age_includes_origination_age(self):
        lsdb = LSDB()
        aged = RouterLSA.originate(router_id=rid(1), sequence=2,
                                   links=[stub("10.0.0.0", 24)],
                                   age=MAX_AGE - 100)
        lsdb.install(aged, now=0.0)
        assert lsdb.age_of(aged.key, now=50.0) == MAX_AGE - 50
        assert lsdb.expire_aged(now=50.0) == []
        assert lsdb.expire_aged(now=100.0) == [aged.key]

    def test_clockless_installs_accrue_no_residence_age(self):
        lsdb = build_triangle()  # installed without now=
        assert lsdb.expire_aged(now=float(MAX_AGE) * 10) == []
        assert len(lsdb) == 3

    def test_expire_aged_scans_only_once_a_deadline_is_due(self, monkeypatch):
        lsdb = LSDB()
        lsdb.install(lsa(rid(1), [stub("10.0.0.0", 24)]), now=0.0)
        refreshed = lsa(rid(1), [stub("10.0.0.0", 24)], sequence=0x80000002)
        lsdb.install(refreshed, now=1800.0)
        scans = []
        age_of = LSDB.age_of
        monkeypatch.setattr(LSDB, "age_of", lambda db, key, now: (
            scans.append(now), age_of(db, key, now))[1])
        assert lsdb.expire_aged(now=1000.0) == [] and scans == []
        # The replaced copy's deadline still opens one scan, which finds
        # the refreshed copy young and moves the deadline to its own.
        assert lsdb.expire_aged(now=float(MAX_AGE)) == []
        assert scans == [float(MAX_AGE)]
        assert lsdb.expire_aged(now=float(MAX_AGE) + 100.0) == []
        assert scans == [float(MAX_AGE)]
        assert lsdb.expire_aged(now=1800.0 + MAX_AGE) == [refreshed.key]

    def test_expiry_bumps_the_version_for_spf_caches(self):
        lsdb = LSDB()
        lsdb.install(lsa(rid(1), [p2p(rid(2), "172.16.0.1"),
                                  stub("172.16.0.0")]), now=0.0)
        lsdb.install(lsa(rid(2), [p2p(rid(1), "172.16.0.2"),
                                  stub("172.16.0.0")]), now=0.0)
        version = lsdb.version
        assert lsdb.expire_aged(now=float(MAX_AGE)) != []
        assert lsdb.version > version
        assert compute_routes(lsdb, rid(1)) == []


class TestSPF:
    def test_router_graph_requires_bidirectional_links(self):
        lsdb = LSDB()
        lsdb.install(lsa(rid(1), [p2p(rid(2), "172.16.0.1")]))
        # Router 2 does not (yet) advertise the link back.
        graph = build_router_graph(lsdb)
        assert graph[int(rid(1))] == {}
        lsdb.install(lsa(rid(2), [p2p(rid(1), "172.16.0.2")]))
        graph = build_router_graph(lsdb)
        assert graph[int(rid(1))] == {int(rid(2)): 10}

    def test_shortest_paths_triangle(self):
        lsdb = build_triangle()
        nodes = shortest_paths(lsdb, rid(1))
        assert nodes[int(rid(1))].distance == 0
        assert nodes[int(rid(2))].distance == 10
        assert nodes[int(rid(3))].distance == 10
        assert nodes[int(rid(2))].first_hop == rid(2)
        assert nodes[int(rid(3))].first_hop == rid(3)

    def test_shortest_paths_prefers_cheaper_two_hop_path(self):
        lsdb = LSDB()
        # 1 -- 2 with cost 100; 1 -- 3 -- 2 with cost 10 + 10.
        lsdb.install(lsa(rid(1), [p2p(rid(2), "172.16.0.1", 100),
                                  p2p(rid(3), "172.16.0.5", 10)]))
        lsdb.install(lsa(rid(2), [p2p(rid(1), "172.16.0.2", 100),
                                  p2p(rid(3), "172.16.0.9", 10)]))
        lsdb.install(lsa(rid(3), [p2p(rid(1), "172.16.0.6", 10),
                                  p2p(rid(2), "172.16.0.10", 10)]))
        nodes = shortest_paths(lsdb, rid(1))
        assert nodes[int(rid(2))].distance == 20
        assert nodes[int(rid(2))].first_hop == rid(3)

    def test_compute_routes_includes_remote_stubs(self):
        lsdb = build_triangle()
        routes = {str(r.prefix): r for r in compute_routes(lsdb, rid(1))}
        assert "192.168.3.0/24" in routes
        remote = routes["192.168.3.0/24"]
        assert remote.first_hop == rid(3)
        assert remote.cost == 20  # 10 to reach router 3 + stub metric 10

    def test_compute_routes_marks_local_stubs(self):
        lsdb = build_triangle()
        routes = {str(r.prefix): r for r in compute_routes(lsdb, rid(1))}
        assert routes["192.168.1.0/24"].first_hop is None

    def test_shared_link_prefix_uses_cheapest_advertiser(self):
        lsdb = build_triangle()
        routes = {str(r.prefix): r for r in compute_routes(lsdb, rid(1))}
        # 172.16.0.8/30 connects routers 2 and 3; both are one hop away.
        assert routes["172.16.0.8/30"].cost == 20

    def test_unreachable_router_stubs_excluded(self):
        lsdb = build_triangle()
        lsdb.install(lsa(rid(9), [stub("10.99.0.0", 24)]))  # isolated router
        routes = {str(r.prefix) for r in compute_routes(lsdb, rid(1))}
        assert "10.99.0.0/24" not in routes

    def test_empty_lsdb(self):
        assert compute_routes(LSDB(), rid(1)) == []

    def test_spf_root_not_in_graph(self):
        lsdb = LSDB()
        lsdb.install(lsa(rid(2), [p2p(rid(3), "172.16.0.1")]))
        nodes = shortest_paths(lsdb, rid(1))
        assert int(rid(1)) in nodes
        assert nodes[int(rid(1))].distance == 0
