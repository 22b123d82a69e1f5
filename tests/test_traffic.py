"""Tests for the fluid traffic fast path.

Covers the demand generators, the max-min allocator (property-based),
the path resolver (including the fluid-vs-packet equivalence test that
pins resolver semantics to the switch pipeline), the event-driven fluid
engine with incremental invalidation, the interface utilization
accounting and the ``repro traffic`` experiment + CLI.
"""

from __future__ import annotations

import math
import os
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import AutoConfigFramework, FrameworkConfig, IPAddressManager
from repro.net import Ethernet, EtherType, IPv4, IPv4Address, MACAddress, UDP
from repro.net.ipv4 import IPProtocol
from repro.net.link import Interface, connect
from repro.scenarios import ScenarioSpec
from repro.sim import Simulator
from repro.topology.emulator import EmulatedNetwork
from repro.topology.generators import fat_tree_topology, ring_topology, torus_topology
from repro.traffic import (
    DELIVERED,
    LINK_DOWN,
    UNROUTED,
    DemandSpec,
    FluidEngine,
    PathResolver,
    SyntheticRoutes,
    generate_demands,
    gravity_demands,
    max_min_allocation,
    service_address,
    uniform_demands,
)

#: Seeds for the sampled fluid-vs-packet equivalence sweep.  The default
#: single seed keeps the quick suite fast; CI (or a local soak) widens
#: the sweep CHAOS_SEEDS-style, e.g. ``TRAFFIC_EQUIV_SEEDS=13,29,57``.
TRAFFIC_EQUIV_SEEDS = tuple(
    int(seed) for seed in
    os.environ.get("TRAFFIC_EQUIV_SEEDS", "13").split(","))


# ---------------------------------------------------------------------------
# demand generators
# ---------------------------------------------------------------------------
def _addresses(count: int):
    return {dpid: service_address(dpid) for dpid in range(1, count + 1)}


class TestDemandGenerators:
    def test_uniform_is_deterministic_and_loop_free(self):
        addresses = _addresses(8)
        first = uniform_demands(addresses, 500, rate_bps=100.0, seed=3)
        second = uniform_demands(addresses, 500, rate_bps=100.0, seed=3)
        assert len(first) == 500
        assert [(d.src_dpid, d.dst) for d in first] == \
            [(d.src_dpid, d.dst) for d in second]
        assert all(int(addresses[d.src_dpid]) != d.dst for d in first)

    def test_uniform_different_seed_differs(self):
        addresses = _addresses(8)
        first = uniform_demands(addresses, 200, rate_bps=100.0, seed=1)
        second = uniform_demands(addresses, 200, rate_bps=100.0, seed=2)
        assert [(d.src_dpid, d.dst) for d in first] != \
            [(d.src_dpid, d.dst) for d in second]

    def test_gravity_is_deterministic_and_skewed(self):
        addresses = _addresses(16)
        demands = gravity_demands(addresses, 2000, rate_bps=100.0, seed=5)
        again = gravity_demands(addresses, 2000, rate_bps=100.0, seed=5)
        assert [(d.src_dpid, d.dst) for d in demands] == \
            [(d.src_dpid, d.dst) for d in again]
        counts = {}
        for demand in demands:
            counts[demand.src_dpid] = counts.get(demand.src_dpid, 0) + 1
        # The heavy-tailed masses must produce visible skew: the busiest
        # source clearly above the uniform expectation.
        assert max(counts.values()) > 2000 / 16 * 1.5

    def test_generators_need_two_routers(self):
        with pytest.raises(ValueError):
            uniform_demands(_addresses(1), 10, rate_bps=1.0)
        with pytest.raises(ValueError):
            gravity_demands(_addresses(1), 10, rate_bps=1.0)

    def test_spec_round_trip_and_validation(self):
        DemandSpec(model="gravity", count=42, rate_bps=5e6, seed=9,
                   start_window=3.0, duration=12.0)  # every field valid
        with pytest.raises(ValueError):
            DemandSpec(model="bimodal")
        with pytest.raises(ValueError):
            DemandSpec(count=0)
        with pytest.raises(ValueError):
            DemandSpec(rate_bps=0.0)

    def test_generate_demands_dispatch_and_times(self):
        addresses = _addresses(4)
        spec = DemandSpec(model="uniform", count=50, rate_bps=100.0, seed=1,
                          start_window=5.0, duration=2.0)
        demands = generate_demands(spec, addresses)
        assert len(demands) == 50
        assert all(0.0 <= d.start < 5.0 for d in demands)
        assert all(d.duration == 2.0 for d in demands)
        assert all(d.end == d.start + 2.0 for d in demands)
        open_ended = generate_demands(DemandSpec(count=5), addresses)
        assert all(d.duration == float("inf") for d in open_ended)

    def test_scenario_spec_carries_demands(self):
        spec = ScenarioSpec("tmp-traffic-ring", "ring",
                            {"num_switches": 4},
                            demands=DemandSpec(count=7, seed=3))
        assert spec.demands.count == 7
        # Sweep workers receive specs pickled.
        restored = pickle.loads(pickle.dumps(spec))
        assert restored.demands == spec.demands
        assert hash(restored) == hash(spec)
        assert ScenarioSpec("tmp-no-demands", "ring",
                            {"num_switches": 4}).demands is None


# ---------------------------------------------------------------------------
# max-min allocation (property-based)
# ---------------------------------------------------------------------------
_LINK_IDS = st.integers(min_value=0, max_value=4)
_COMMODITY = st.tuples(
    st.lists(_LINK_IDS, min_size=0, max_size=4, unique=True),
    st.floats(min_value=1.0, max_value=8.0),
    st.floats(min_value=1.0, max_value=1e6),
)


class TestMaxMinAllocation:
    @settings(derandomize=True, max_examples=300)
    @given(commodities=st.lists(_COMMODITY, min_size=1, max_size=8),
           capacities=st.lists(st.floats(min_value=1.0, max_value=1e6),
                               min_size=5, max_size=5))
    def test_feasible_and_pareto_efficient(self, commodities, capacities):
        caps = dict(enumerate(capacities))
        rates = max_min_allocation(commodities, caps)
        loads = {link: 0.0 for link in caps}
        for (links, _w, ceiling), rate in zip(commodities, rates):
            assert rate >= 0.0
            assert rate <= ceiling * (1.0 + 1e-6)
            for link in links:
                loads[link] += rate
        # Feasibility: no capacity unit is overcommitted.
        for link, load in loads.items():
            assert load <= caps[link] * (1.0 + 1e-6)
        # Pareto efficiency / bottleneck condition: a commodity held below
        # its ceiling must cross at least one saturated link — otherwise
        # its rate could be raised without hurting anyone.
        for (links, _w, ceiling), rate in zip(commodities, rates):
            if rate < ceiling * (1.0 - 1e-6):
                assert links, "ceiling-free commodity must get its ceiling"
                assert any(loads[link] >= caps[link] * (1.0 - 1e-6)
                           for link in links)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(demands=st.lists(
               st.tuples(st.integers(1, 9), st.integers(1, 9),
                         st.floats(min_value=1.0, max_value=1e6)),
               min_size=1, max_size=40),
           capacities=st.lists(st.floats(min_value=1.0, max_value=1e6),
                               min_size=18, max_size=18))
    def test_binding_set_allocation_equals_the_global_one(self, demands,
                                                          capacities):
        """The engine water-fills only the commodities crossing an
        interface that can bind; the answer must be the one a global
        :func:`max_min_allocation` over every commodity gives."""
        from repro.traffic import FlowDemand

        _sim, network, _routes, addresses, owners = _TORUS_3X3
        for link, capacity in zip(network.links, capacities):
            link.bandwidth_bps = capacity
        engine = FluidEngine(Simulator(), network, owner_of=owners.get)
        engine.register([FlowDemand(src, addresses[dst], rate)
                         for src, dst, rate in demands], schedule=False)
        engine.reallocate()
        routed = [c for c in engine.commodities.values() if c.path.delivered]
        expected = max_min_allocation(
            [(c.links, float(c.count), c.offered_bps) for c in routed],
            {iface: iface.link.bandwidth_bps
             for c in routed for iface in c.links})
        for commodity, rate in zip(routed, expected):
            assert commodity.rate == pytest.approx(rate, rel=1e-9, abs=1e-9)

    def test_equal_share_on_one_bottleneck(self):
        rates = max_min_allocation(
            [((0,), 1.0, 100.0), ((0,), 1.0, 100.0)], {0: 90.0})
        assert rates == pytest.approx([45.0, 45.0])

    def test_weighted_share(self):
        rates = max_min_allocation(
            [((0,), 3.0, 1000.0), ((0,), 1.0, 1000.0)], {0: 80.0})
        assert rates == pytest.approx([60.0, 20.0])

    def test_ceiling_pinned_commodity_releases_capacity(self):
        rates = max_min_allocation(
            [((0,), 1.0, 10.0), ((0,), 1.0, 1000.0)], {0: 100.0})
        assert rates == pytest.approx([10.0, 90.0])

    def test_uncongested_everyone_at_ceiling(self):
        rates = max_min_allocation(
            [((0, 1), 1.0, 5.0), ((1,), 2.0, 7.0)], {0: 1e9, 1: 1e9})
        assert rates == pytest.approx([5.0, 7.0])

    def test_degenerate_inputs(self):
        assert max_min_allocation([], {}) == []
        assert max_min_allocation([((), 1.0, 42.0)], {}) == [42.0]
        assert max_min_allocation([((0,), 0.0, 42.0)], {0: 10.0}) == [0.0]
        assert max_min_allocation([((0,), 1.0, 0.0)], {0: 10.0}) == [0.0]


# ---------------------------------------------------------------------------
# resolver on synthetic tables
# ---------------------------------------------------------------------------
def _torus_fixture(rows=4, cols=4):
    sim = Simulator()
    network = EmulatedNetwork(sim, torus_topology(rows, cols))
    routes = SyntheticRoutes(network)
    routes.install()
    addresses = {dpid: service_address(dpid) for dpid in network.switches}
    owners = {int(address): dpid for dpid, address in addresses.items()}
    return sim, network, routes, addresses, owners


#: Shared by the allocator property: building it per example would cost
#: more than the property itself.  Engines built on it are never attached.
_TORUS_3X3 = _torus_fixture(3, 3)


class TestPathResolver:
    def test_resolves_shortest_paths(self):
        _sim, network, _routes, addresses, owners = _torus_fixture()
        resolver = PathResolver(network, owner_of=owners.get)
        path = resolver.resolve(1, int(addresses[2]))
        assert path.status == DELIVERED
        assert path.dpids[0] == 1 and path.dpids[-1] == 2
        assert len(path.hops) == len(path.dpids) - 1
        # 4x4 torus: 1 and 2 are adjacent.
        assert path.dpids == (1, 2)

    def test_memo_collapses_repeat_lookups(self):
        _sim, network, _routes, addresses, owners = _torus_fixture()
        resolver = PathResolver(network, owner_of=owners.get)
        resolver.resolve(1, int(addresses[16]))
        lookups_once = resolver.lookups
        resolver.resolve(1, int(addresses[16]))
        assert resolver.lookups == lookups_once
        assert resolver.walks == 2

    def test_version_bump_invalidates_memo(self):
        _sim, network, routes, addresses, owners = _torus_fixture()
        resolver = PathResolver(network, owner_of=owners.get)
        before = resolver.resolve(4, int(addresses[1])).dpids
        network.fail_link(1, 2)
        routes.reroute()
        resolver.invalidate(1)  # what the engine's table listener does
        for dpid in network.switches:
            resolver.invalidate(dpid)
        after = resolver.resolve(4, int(addresses[1]))
        assert after.status == DELIVERED
        assert (1, 2) not in zip(after.dpids, after.dpids[1:])
        assert (2, 1) not in zip(after.dpids, after.dpids[1:])
        assert before[0] == after.dpids[0]

    def test_unrouted_without_tables(self):
        sim = Simulator()
        network = EmulatedNetwork(sim, ring_topology(3))
        resolver = PathResolver(network)
        path = resolver.resolve(1, int(service_address(2)))
        assert path.status == UNROUTED
        assert path.dpids == (1,)

    def test_link_down_terminates_walk(self):
        _sim, network, _routes, addresses, owners = _torus_fixture()
        resolver = PathResolver(network, owner_of=owners.get)
        # Fail the link 1->2 but leave the stale route installed: the walk
        # must stop at the dead hop, like a frame blackholed on the wire.
        network.fail_link(1, 2)
        path = resolver.resolve(1, int(addresses[2]))
        assert path.status == LINK_DOWN
        assert path.dpids == (1,)
        assert len(path.hops) == 1

    def test_miss_at_owner_is_delivery(self):
        _sim, network, _routes, addresses, owners = _torus_fixture()
        resolver = PathResolver(network, owner_of=owners.get)
        # The owner's own table has no entry for its own prefix (RFClient
        # skips lo routes) — resolving *at* the owner is a delivered miss.
        path = resolver.resolve(2, int(addresses[2]))
        assert path.status == DELIVERED
        assert path.dpids == (2,)
        assert path.hops == ()


# ---------------------------------------------------------------------------
# fluid engine
# ---------------------------------------------------------------------------
class TestFluidEngine:
    def _engine(self, rows=4, cols=4):
        sim, network, routes, addresses, owners = _torus_fixture(rows, cols)
        engine = FluidEngine(sim, network, owner_of=owners.get)
        engine.attach()
        return sim, network, routes, addresses, engine

    def test_immediate_registration_and_allocation(self):
        _sim, _network, _routes, addresses, engine = self._engine()
        demands = uniform_demands(addresses, 100, rate_bps=1000.0, seed=1)
        assert engine.register(demands, schedule=False) == 100
        engine.reallocate()
        stats = engine.stats()
        assert stats["demands"] == 100
        assert stats["delivered_commodities"] == stats["commodities"]
        assert stats["offered_bps"] == pytest.approx(100 * 1000.0)
        assert stats["delivered_bps"] == pytest.approx(100 * 1000.0)
        assert engine.loss_fraction == pytest.approx(0.0)

    def test_arrival_and_expiry_accrue_exact_bits(self):
        from repro.traffic import FlowDemand

        sim, _network, _routes, addresses, engine = self._engine()
        demand = FlowDemand(1, addresses[2], 1_000_000.0,
                            start=1.0, duration=2.0)
        engine.register([demand])
        sim.schedule(10.0, lambda: None)
        sim.run()
        engine.finalize()
        assert engine.arrivals == 1 and engine.expiries == 1
        assert engine.demand_count == 0
        # 1 Mbit/s for exactly 2 simulated seconds.
        assert engine.delivered_bits == pytest.approx(2_000_000.0)
        assert engine.offered_bits == pytest.approx(2_000_000.0)
        # The expiry dropped the commodity entirely.
        assert engine.stats()["commodities"] == 0

    def test_bottleneck_capacity_limits_delivery(self):
        from repro.traffic import FlowDemand

        sim, network, _routes, addresses, engine = self._engine()
        for link in network.links:
            link.bandwidth_bps = 1000.0
        demand = FlowDemand(1, addresses[2], 4000.0)
        engine.register([demand], schedule=False)
        engine.reallocate()
        assert engine.delivered_bps == pytest.approx(1000.0)
        assert engine.offered_bps == pytest.approx(4000.0)
        assert engine.loss_fraction == pytest.approx(0.75)

    def test_table_change_invalidates_only_crossing_commodities(self):
        from repro.traffic import FlowDemand

        _sim, network, routes, addresses, engine = self._engine()
        # Two commodities with disjoint paths: 1->2 and 15->16 (adjacent
        # pairs on opposite corners of the 4x4 torus).
        engine.register([FlowDemand(1, addresses[2], 100.0),
                         FlowDemand(15, addresses[16], 100.0)],
                        schedule=False)
        engine.reallocate()
        assert engine.reresolutions == 0
        network.fail_link(1, 2)
        changed = routes.reroute()
        assert changed > 0
        engine.reallocate()
        # Only the 1->2 commodity walked again: no entry towards 16 changed
        # at 15, whatever else changed in 15's table.
        assert engine.reresolutions == 1
        assert engine.affected_demands == 1
        keys = {(1, int(addresses[2])), (15, int(addresses[16]))}
        assert set(engine.commodities) == keys
        rerouted = engine.commodities[(1, int(addresses[2]))]
        assert rerouted.path.status == DELIVERED
        assert len(rerouted.path.dpids) > 2  # went the long way round

    def test_failure_listener_marks_crossers_dirty(self):
        from repro.scenarios import FailureEvent, FailureSchedule
        from repro.traffic import FlowDemand

        sim, network, _routes, addresses, engine = self._engine()
        engine.register([FlowDemand(1, addresses[2], 100.0)], schedule=False)
        engine.reallocate()
        assert engine.stats()["delivered_commodities"] == 1
        network.schedule_failures(FailureSchedule((
            FailureEvent(1.0, "link_down", 1, 2),)))
        sim.run(until=2.0)
        engine.reallocate()
        # No reroute happened (tables still point at the dead link): the
        # re-resolved commodity must now report the blackhole.
        commodity = engine.commodities[(1, int(addresses[2]))]
        assert commodity.path.status == LINK_DOWN
        assert engine.stats()["delivered_commodities"] == 0
        assert engine.reresolutions == 1

    def _full_mesh(self, rate_bps=100.0):
        from repro.traffic import FlowDemand

        sim, network, routes, addresses, engine = self._engine()
        engine.register([FlowDemand(src, addresses[dst], rate_bps)
                         for src in network.switches
                         for dst in network.switches if src != dst],
                        schedule=False)
        engine.reallocate()
        assert engine.reresolutions == 0
        return sim, network, routes, addresses, engine

    def test_steer_reresolves_exactly_the_commodities_through_it(self):
        from repro.openflow.actions import OutputAction
        from repro.openflow.flow_table import FlowEntry
        from repro.openflow.match import Match

        _sim, network, _routes, addresses, engine = self._full_mesh()
        node, dst = 4, 16  # the BFS tie-break funnels 8 sources through 4
        through = [commodity for commodity in engine.commodities.values()
                   if commodity.dst == int(addresses[dst])
                   and node in commodity.path.dpids]
        assert len(through) == 8  # some of the 15 towards dst, not all
        # What a TE steer writes: one entry for one destination prefix, one
        # priority level above the route it overrides.
        out_port = engine.resolver._out_port(
            engine.resolver._lookup(node, int(addresses[dst])))
        network.switches[node].flow_table.add(FlowEntry(
            Match.for_destination_prefix(addresses[dst], 24),
            [OutputAction(out_port)], priority=0x8000 + 25))
        engine.reallocate()
        assert engine.reresolutions == len(through)
        assert engine.affected_demands == sum(c.count for c in through)
        assert engine.stats()["delivered_commodities"] == 240

    def test_restore_reresolves_nothing_that_was_delivered(self):
        from repro.scenarios import FailureEvent

        _sim, network, routes, _addresses, engine = self._full_mesh()
        network.apply_failure_event(FailureEvent(0.0, "link_down", 1, 2))
        engine.reallocate()
        dead_ended = [commodity for commodity in engine.commodities.values()
                      if commodity.path.status == LINK_DOWN]
        assert engine.reresolutions == len(dead_ended) > 0
        # Restored before any reroute: only the walks that ended at the
        # dead hop go again, and every path is delivered once more.
        network.apply_failure_event(FailureEvent(0.0, "link_up", 1, 2))
        engine.reallocate()
        assert engine.reresolutions == 2 * len(dead_ended)
        assert engine.stats()["delivered_commodities"] == 240
        # Failed, rerouted around, then restored: everything is delivered
        # when the link comes back, so the restore itself dirties nothing;
        # what moves back is moved by the reroute's table changes.
        network.apply_failure_event(FailureEvent(0.0, "link_down", 1, 2))
        routes.reroute()
        engine.reallocate()
        assert engine.stats()["delivered_commodities"] == 240
        before = engine.reresolutions
        network.apply_failure_event(FailureEvent(0.0, "link_up", 1, 2))
        engine.reallocate()
        assert engine.reresolutions == before
        assert routes.reroute() > 0
        engine.reallocate()
        assert engine.reresolutions > before

    def test_capacity_change_is_honoured_at_the_next_dirty_reallocate(self):
        from repro.traffic import FlowDemand

        _sim, network, _routes, addresses, engine = self._full_mesh(1000.0)
        assert engine.delivered_bps == engine.offered_bps == 240_000.0
        for link in network.links:  # behind the engine's back
            link.bandwidth_bps = 2000.0
        engine.reallocate()  # nothing dirty: rates stand, as they always did
        assert engine.delivered_bps == 240_000.0
        engine.register([FlowDemand(1, addresses[2], 1000.0)], schedule=False)
        engine.reallocate()
        assert engine.delivered_bps < 0.9 * engine.offered_bps
        assert all(load <= 2000.0 * (1 + 1e-9)
                   for load in engine._iface_loads.values())
        for link in network.links:
            link.bandwidth_bps = 1e9
        engine.reallocate()
        assert engine.delivered_bps < 0.9 * engine.offered_bps
        engine.register([FlowDemand(1, addresses[2], 1000.0)], schedule=False)
        engine.reallocate()
        assert engine.delivered_bps == engine.offered_bps == 242_000.0

    def test_inert_without_demands(self):
        sim, network, routes, _addresses, engine = self._engine()
        before = sim.pending()
        routes.reroute()  # no-op diff, but exercises the listeners
        network.fail_link(1, 2)
        routes.reroute()
        engine.reallocate()
        assert engine.stats()["demands"] == 0
        assert engine.stats()["commodities"] == 0
        # The engine scheduled at most its coalesced reallocation tick.
        assert sim.pending() <= before + 1


# ---------------------------------------------------------------------------
# fluid-vs-packet equivalence
# ---------------------------------------------------------------------------
def _configured_framework(topology):
    sim = Simulator()
    ipam = IPAddressManager()
    config = FrameworkConfig(detect_edge_ports=False, advertise_loopbacks=True)
    framework = AutoConfigFramework(sim, config=config, ipam=ipam)
    network = EmulatedNetwork(sim, topology, ipam=ipam)
    framework.attach(network)
    configured = framework.run_until_configured(max_time=7200.0)
    assert configured is not None
    return sim, ipam, framework, network


def _trace_packet(sim, network, src_dpid: int, dst_ip: IPv4Address):
    """Inject one IPv4 frame at ``src_dpid`` and record its table lookups."""
    trace = []

    def observer(switch, _in_port, fields, entry):
        if fields.nw_dst == dst_ip:
            trace.append((switch.datapath_id, entry is not None))

    for switch in network.switches.values():
        switch.lookup_observer = observer
    try:
        packet = IPv4(src=IPv4Address("192.0.2.1"), dst=dst_ip,
                      protocol=IPProtocol.UDP,
                      payload=UDP(4000, 4000, b"x" * 32))
        frame = Ethernet(src=MACAddress(0xAA), dst=MACAddress(0xBB),
                         ethertype=EtherType.IPV4, payload=packet).encode()
        switch = network.switches[src_dpid]
        switch._process_frame(switch.port_numbers[0], frame)
        sim.run(until=sim.now + 2.0)
    finally:
        for switch in network.switches.values():
            switch.lookup_observer = None
    return trace


def _assert_equivalent(sim, network, resolver, src: int, dst_ip: IPv4Address):
    path = resolver.resolve(src, int(dst_ip))
    assert path.status == DELIVERED, \
        f"{src}->{dst_ip}: resolver says {path.status}"
    trace = _trace_packet(sim, network, src, dst_ip)
    assert [dpid for dpid, _ in trace] == list(path.dpids), \
        f"{src}->{dst_ip}: packet visited {trace}, resolver said {path.dpids}"
    # Every intermediate lookup hit; the final one is the owner's miss
    # (the frame the controller would see as a PACKET_IN).
    assert all(hit for _, hit in trace[:-1])
    assert trace[-1][1] is False


class TestFluidPacketEquivalence:
    def test_ring_all_pairs(self):
        sim, ipam, _framework, network = _configured_framework(ring_topology(4))
        owners = {int(ipam.router_id(dpid)): dpid for dpid in network.switches}
        resolver = PathResolver(network, owner_of=owners.get)
        for src in network.switches:
            for dst in network.switches:
                if src == dst:
                    continue
                _assert_equivalent(sim, network, resolver, src,
                                   ipam.router_id(dst))

    @pytest.mark.parametrize("seed", TRAFFIC_EQUIV_SEEDS)
    def test_fat_tree_sampled_pairs(self, seed):
        from repro.sim import SeededRandom

        sim, ipam, _framework, network = _configured_framework(
            fat_tree_topology(4))
        owners = {int(ipam.router_id(dpid)): dpid for dpid in network.switches}
        resolver = PathResolver(network, owner_of=owners.get)
        rng = SeededRandom(seed)
        dpids = sorted(network.switches)
        for _ in range(12):
            src, dst = rng.sample(dpids, 2)
            _assert_equivalent(sim, network, resolver, src,
                               ipam.router_id(dst))


# ---------------------------------------------------------------------------
# satellites: utilization accounting
# ---------------------------------------------------------------------------
class TestUtilizationAccounting:
    def test_packet_path_charges_serialization_time(self, sim):
        a = Interface("a", MACAddress(1))
        b = Interface("b", MACAddress(2))
        link = connect(sim, a, b, delay=0.001, bandwidth_bps=1e6)
        a.send(b"x" * 1000)  # 8000 bits at 1 Mbit/s = 8 ms on the wire
        sim.run()
        assert a.tx_busy_seconds == pytest.approx(0.008)
        assert b.tx_busy_seconds == 0.0
        stats = link.stats()
        assert stats["busy_seconds"] == pytest.approx(0.008)
        assert a.stats()["tx_busy_seconds"] == pytest.approx(0.008)

    def test_windowed_peak_rate(self):
        iface = Interface("w", MACAddress(3))
        iface.account_tx(0.0, 1000.0, 0.0)
        iface.account_tx(0.5, 1000.0, 0.0)
        assert iface.peak_tx_bps == 0.0  # window still open
        iface.account_tx(1.25, 500.0, 0.0)  # closes [0, 1.25): 2000 bits
        assert iface.peak_tx_bps == pytest.approx(2000.0 / 1.25)
        iface.account_tx(3.0, 8000.0, 0.0)  # closes [1.25, 3.0): 500 bits
        assert iface.peak_tx_bps == pytest.approx(2000.0 / 1.25)

    def test_fluid_path_charges_busy_fraction_and_peak(self):
        iface = Interface("f", MACAddress(4))
        iface.account_rate(5e8, 2.0, 1e9)  # half rate for 2 s = 1 s busy
        assert iface.tx_busy_seconds == pytest.approx(1.0)
        assert iface.peak_tx_bps == pytest.approx(5e8)
        iface.account_rate(2e9, 1.0, 1e9)  # overload clamps at 100% busy
        assert iface.tx_busy_seconds == pytest.approx(2.0)
        assert iface.peak_tx_bps == pytest.approx(2e9)
        iface.account_rate(1.0, 1.0, 0.0)  # no capacity: no busy charge
        assert iface.tx_busy_seconds == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# experiment + CLI
# ---------------------------------------------------------------------------
class TestTrafficExperiment:
    def test_run_traffic_on_ring(self):
        from repro.experiments import run_traffic

        result = run_traffic("ring-4", demands=DemandSpec(count=30, seed=2),
                             window=5.0, settle=1.0)
        assert result.configured
        assert result.demands == 30
        assert result.delivered_commodities == result.commodities > 0
        assert result.loss_fraction == pytest.approx(0.0)
        assert result.delivered_bits > 0
        assert result.top_links
        assert all(0.0 <= link.utilization <= 1.0
                   for link in result.top_links)

    def test_run_traffic_with_finite_demands_and_json(self, tmp_path):
        from repro.experiments import (render_traffic_table, run_traffic,
                                       write_json)

        result = run_traffic("ring-4",
                             demands=DemandSpec(count=10, seed=1,
                                                start_window=1.0,
                                                duration=3.0),
                             settle=1.0)
        assert result.configured
        # All demands expired inside the window: every offered bit has a
        # matching delivered bit, then the commodities were torn down.
        assert result.commodities == 0
        assert result.offered_bits > 0
        assert result.loss_fraction == pytest.approx(0.0)
        rendered = render_traffic_table([result])
        assert "ring-4" in rendered
        target = write_json([result], tmp_path / "traffic.json")
        assert target.exists() and target.read_text().startswith("[")

    def test_cli_traffic(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "traffic.json"
        assert main(["traffic", "--scenario", "ring-4", "--demands", "20",
                     "--model", "gravity", "--rate", "50000",
                     "--window", "5", "--settle", "1",
                     "--out", str(out)]) == 0
        assert out.exists()
        captured = capsys.readouterr()
        assert "ring-4" in captured.out

    def test_cli_traffic_rejects_unknown_scenario(self, capsys):
        from repro.cli import main

        assert main(["traffic", "--scenario", "no-such-scenario"]) == 2
        assert "error" in capsys.readouterr().err


class TestBenchFluidCases:
    def test_fixture_resolves_small_torus(self, torus_fluid_fixture):
        _sim, network, routes, engine, addresses = torus_fluid_fixture(3, 3)
        assert len(network.switches) == 9
        demands = uniform_demands(addresses, 500, rate_bps=10.0, seed=3)
        engine.register(demands, schedule=False)
        engine.reallocate()
        stats = engine.stats()
        assert stats["demands"] == 500
        assert stats["delivered_commodities"] == stats["commodities"]
        paths = {key: commodity.path.dpids
                 for key, commodity in engine.commodities.items()}
        installed = dict(routes._installed)
        network.fail_link(1, 2)
        assert routes.reroute() > 0
        engine.reallocate()
        assert engine.stats()["delivered_commodities"] == \
            engine.stats()["commodities"]
        # Exactly the commodities whose walk consulted a (switch,
        # destination) pair the reroute rewrote; no bystander at a changed
        # switch, which is what the old per-switch index swept in.
        changed = {(node, int(addresses[dst]))
                   for node, dst in set(installed) | set(routes._installed)
                   if installed.get((node, dst))
                   != routes._installed.get((node, dst))}
        expected = [key for key, dpids in paths.items()
                    if any((node, key[1]) in changed for node in dpids)]
        assert 0 < len(expected) < len(paths) / 2
        assert engine.reresolutions == len(expected)
        assert engine.affected_demands == sum(
            engine.commodities[key].count for key in expected)
