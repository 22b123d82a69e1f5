"""Set-up of the fluid fast path: columnar demand sets, the one admission
loop, spliced walks and the route parts ``SyntheticRoutes`` shares.

Each optimized structure is held against a naive reference kept here:
the per-object admission the engine had before columns, plain walks
without the batch memo, and tables built from parts nobody shares.
"""

from __future__ import annotations

import json
import math
import tracemalloc
from pathlib import Path

import pytest

from repro.openflow.actions import (OutputAction, SetDlDstAction,
                                    SetDlSrcAction)
from repro.openflow.flow_table import FlowEntry
from repro.openflow.match import Match
from repro.scenarios import FailureEvent, FailureSchedule, ScenarioSpec
from repro.sim import Simulator
from repro.te import FlowTableActuator
from repro.topology.emulator import EmulatedNetwork
from repro.topology.generators import torus_topology
from repro.traffic import (DemandSet, DemandSpec, FlowDemand, FluidEngine,
                           PathResolver, SyntheticRoutes, generate_demands,
                           service_address, uniform_demands)
from repro.traffic.synthetic import ROUTE_PRIORITY, SERVICE_PREFIX_LEN

DATA = Path(__file__).parent / "data"


def _addresses(count: int):
    return {dpid: service_address(dpid) for dpid in range(1, count + 1)}


def _torus(side: int):
    sim = Simulator()
    return sim, EmulatedNetwork(sim, torus_topology(side, side))


# ---------------------------------------------------------------------------
# the stream: the columns hold exactly the demands the lists held
# ---------------------------------------------------------------------------
#: First 16 (src dpid, dst dpid, start) of 40 demands over 8 routers,
#: seed 3, captured on the commit before the generators went columnar.
PINNED = {
    ("uniform", 0.0): [
        (4, 3, 0.0), (6, 8, 0.0), (2, 1, 0.0), (8, 5, 0.0), (4, 8, 0.0),
        (8, 7, 0.0), (3, 4, 0.0), (3, 7, 0.0), (1, 2, 0.0), (3, 1, 0.0),
        (5, 1, 0.0), (5, 8, 0.0), (7, 8, 0.0), (3, 6, 0.0), (2, 1, 0.0),
        (3, 8, 0.0)],
    ("uniform", 4.0): [
        (4, 3, 1.479820666192317), (8, 2, 2.4223981205573075),
        (8, 5, 2.203138567040293), (4, 8, 2.1638955425161552),
        (8, 7, 2.5562725621766478), (3, 4, 2.539442633140754),
        (7, 1, 2.6856459014783702), (2, 3, 3.0329209851472694),
        (1, 5, 3.1203059563342257), (5, 8, 2.378998062575576),
        (7, 8, 3.856375006901822), (3, 6, 0.38981723892350884),
        (3, 8, 0.8679477649325493), (7, 5, 1.6845940502656394),
        (7, 6, 2.1364123399577766), (7, 4, 3.6168070833911004)],
    ("gravity", 0.0): [
        (6, 8, 0.0), (7, 4, 0.0), (7, 2, 0.0), (7, 6, 0.0), (1, 7, 0.0),
        (7, 3, 0.0), (4, 6, 0.0), (7, 6, 0.0), (7, 6, 0.0), (7, 8, 0.0),
        (7, 4, 0.0), (7, 6, 0.0), (7, 6, 0.0), (2, 7, 0.0), (8, 2, 0.0),
        (7, 4, 0.0)],
    ("gravity", 4.0): [
        (6, 8, 1.8810540300897918), (7, 4, 2.539442633140754),
        (7, 2, 3.0329209851472694), (7, 6, 0.12404700587899997),
        (7, 3, 0.5438754408026756), (6, 7, 1.7446474665097171),
        (7, 6, 2.028971935316238), (7, 6, 2.340296429621454),
        (7, 8, 2.685094168650073), (4, 7, 3.8585317892362454),
        (7, 6, 3.326431721093417), (7, 6, 0.2538423085809174),
        (7, 8, 0.35407237243891343), (7, 4, 1.1755649872762488),
        (7, 1, 2.4581301141272345), (1, 7, 1.32381658407603)],
}


class TestPinnedDraws:
    @pytest.mark.parametrize("model,window", sorted(PINNED))
    def test_first_sixteen_demands_are_the_ones_the_seed_always_gave(
            self, model, window):
        addresses = _addresses(8)
        owner = {int(address): dpid for dpid, address in addresses.items()}
        spec = DemandSpec(model=model, count=40, rate_bps=100.0, seed=3,
                          start_window=window,
                          duration=2.0 if window else 0.0)
        demands = generate_demands(spec, addresses)
        assert isinstance(demands, DemandSet) and len(demands) == 40
        assert [(d.src_dpid, owner[d.dst], d.start)
                for d in list(demands)[:16]] == PINNED[(model, window)]
        assert {d.rate_bps for d in demands} == {100.0}
        assert {d.duration for d in demands} == {2.0 if window else math.inf}


class TestDemandSet:
    def test_round_trips_through_demand_objects(self):
        spec = DemandSpec(model="gravity", count=60, rate_bps=33.3, seed=9,
                          start_window=3.0, duration=1.5)
        generated = generate_demands(spec, _addresses(6))
        rebuilt = DemandSet.from_demands(list(generated))
        assert list(rebuilt.rows()) == list(generated.rows())
        assert len(rebuilt) == len(generated) == 60
        assert rebuilt.last_end() == generated.last_end() == max(
            d.end for d in generated)
        assert DemandSet.from_demands(generated) is generated

    def test_open_ended_demands_have_no_last_end(self):
        assert uniform_demands(_addresses(4), 10, rate_bps=1.0).last_end() \
            is None
        assert DemandSet.from_demands([]).last_end() is None
        mixed = DemandSet.from_demands([
            FlowDemand(1, service_address(2), 1.0),
            FlowDemand(2, service_address(1), 1.0, start=2.0, duration=0.5)])
        assert mixed.last_end() == 2.5

    def test_a_datapath_id_is_64_bits_and_no_more(self):
        widest = 2 ** 64 - 1
        held = DemandSet.from_demands(
            [FlowDemand(widest, service_address(1), 1.0)])
        assert [d.src_dpid for d in held] == [widest]
        for dpid in (2 ** 64, -1):
            with pytest.raises(OverflowError):
                DemandSet.from_demands(
                    [FlowDemand(dpid, service_address(1), 1.0)])
        with pytest.raises(OverflowError):
            DemandSet.from_demands([FlowDemand(1, -1, 1.0)])


# ---------------------------------------------------------------------------
# the sums: one admission loop against the per-object admission it replaced
# ---------------------------------------------------------------------------
hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _admit_per_object(demands, schedule):
    """The reference model: admission one ``FlowDemand`` at a time, as the
    engine did it before columns.  Returns the commodities it leaves, in
    order, as key -> [count, offered_bps], and the kernel events it asks
    for as (label, delay)."""
    commodities, events = {}, []
    for demand in demands:
        if not schedule or demand.start <= 0.0:
            if not commodities:
                events.append(("fluid:reallocate", 0.0))
            entry = commodities.setdefault((demand.src_dpid, demand.dst),
                                           [0, 0.0])
            entry[0] += 1
            entry[1] += demand.rate_bps
        else:
            events.append(("fluid:arrival", demand.start))
        if schedule and demand.duration != math.inf:
            events.append(("fluid:expiry", demand.start + demand.duration))
    return commodities, events


#: Rates that do not sum exactly: 6 * 0.1 is not 0.1 added six times.
INEXACT_RATES = st.sampled_from([0.1, 0.7, 333.3, 1e6 / 3])


class TestOneAdmissionLoop:
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(model=st.sampled_from(["uniform", "gravity"]),
           count=st.integers(min_value=1, max_value=120),
           seed=st.integers(min_value=0, max_value=2 ** 16),
           rate=INEXACT_RATES,
           window=st.sampled_from([0.0, 0.0, 2.5]),
           duration=st.sampled_from([0.0, 0.0, 1.25]),
           schedule=st.booleans(), by_hand=st.booleans())
    def test_register_equals_the_per_object_model(
            self, model, count, seed, rate, window, duration, schedule,
            by_hand):
        sim, network = _torus(3)
        SyntheticRoutes(network).install()
        addresses = {dpid: service_address(dpid) for dpid in network.switches}
        spec = DemandSpec(model=model, count=count, rate_bps=rate, seed=seed,
                          start_window=window, duration=duration)
        demands = generate_demands(spec, addresses)
        objects = list(demands)
        expected, events = _admit_per_object(objects, schedule)
        owners = {int(address): dpid for dpid, address in addresses.items()}
        engine = FluidEngine(sim, network, owner_of=owners.get)
        # A hand-built list goes through the same loop as the columns.
        assert engine.register(objects if by_hand else demands,
                               schedule=schedule) == count
        assert [(key, c.count, c.offered_bps)
                for key, c in engine.commodities.items()] == [
            (key, n, offered) for key, (n, offered) in expected.items()]
        assert [c.seq for c in engine.commodities.values()] == list(
            range(len(expected)))
        queued = sorted(sim._queue, key=lambda item: item[1])
        assert [(event.name, when) for when, _seq, event in queued] == events
        assert all(isinstance(event.args[0], FlowDemand)
                   for _when, _seq, event in queued if event.args)
        admitted = sum(n for n, _offered in expected.values())
        assert engine.arrivals == admitted
        engine.reallocate()
        offered = 0.0
        for _n, commodity_offered in expected.values():
            offered += commodity_offered
        stats = engine.stats()
        assert stats["demands"] == admitted
        assert stats["commodities"] == len(expected)
        assert stats["delivered_commodities"] == len(expected)
        assert stats["offered_bps"] == offered  # bit for bit
        assert stats["resolutions"] == len(expected)

    def test_timed_demands_arrive_and_expire_like_hand_built_ones(self):
        """The whole run, not only admission: columns against the objects
        they stand for, event by event."""
        spec = DemandSpec(model="uniform", count=80, rate_bps=0.7, seed=4,
                          start_window=3.0, duration=1.0)
        runs = []
        for by_hand in (False, True):
            sim, network = _torus(3)
            SyntheticRoutes(network).install()
            addresses = {dpid: service_address(dpid)
                         for dpid in network.switches}
            owners = {int(a): dpid for dpid, a in addresses.items()}
            engine = FluidEngine(sim, network, owner_of=owners.get)
            engine.attach()
            demands = generate_demands(spec, addresses)
            engine.register(list(demands) if by_hand else demands)
            executed = []
            sim.add_trace_hook(
                lambda event: executed.append((event.name, event.time)))
            sim.run(until=demands.last_end() + 1.0)
            engine.finalize()
            runs.append((executed, engine.stats(), engine.arrivals,
                         engine.expiries))
        assert runs[0] == runs[1]
        assert runs[0][2] == runs[0][3] == 80
        assert runs[0][1]["delivered_bits"] > 0.0


class TestNoPerDemandObjects:
    #: ``tracemalloc`` peak of the same generate + register on the commit
    #: before this one (a million of these is the 117 MB of the issue).
    PARENT_PEAK_BYTES = 20_895_072

    def test_generating_and_registering_builds_no_flow_demand(
            self, monkeypatch):
        built = []
        genuine = FlowDemand.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            genuine(self, *args, **kwargs)

        monkeypatch.setattr(FlowDemand, "__init__", counting)
        sim, network = _torus(4)
        addresses = {dpid: service_address(dpid) for dpid in network.switches}
        engine = FluidEngine(sim, network)
        tracemalloc.start()
        try:
            demands = uniform_demands(addresses, 200_000, rate_bps=1_000.0,
                                      seed=5)
            engine.register(demands)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not built
        assert engine.demand_count == 200_000
        assert len(engine.commodities) == 16 * 15
        assert peak < self.PARENT_PEAK_BYTES / 3


class TestSlimFlowTables:
    def test_an_installed_route_costs_one_object_and_one_slot_per_index(
            self):
        """The same install traced about 1,000 bytes per entry before
        slotted entries, one-cell indexes and shared chains and keys; about
        350 since."""
        _sim, network = _torus(8)
        tracemalloc.start()
        try:
            installed = SyntheticRoutes(network).install()
            current, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert installed == 64 * 63
        assert current / installed <= 450


# ---------------------------------------------------------------------------
# the walk: a batch spliced through the memo against plain walks
# ---------------------------------------------------------------------------
#: What one (switch, destination) table slot holds: nothing (a miss), a drop
#: entry, an output to a torus port (1..4) or to an edge port (9).
SLOTS = st.sampled_from([None, "drop", 1, 2, 3, 4, 9])


def _random_tables(network, slots, downed):
    nodes = sorted(network.switches)
    for index, slot in enumerate(slots):
        node, dst = nodes[index // len(nodes)], nodes[index % len(nodes)]
        if slot is None:
            continue
        actions = [] if slot == "drop" else [OutputAction(slot)]
        network.switches[node].flow_table.add(FlowEntry(
            Match.for_destination_prefix(service_address(dst), 32), actions))
    links = network.topology.links
    for pair in sorted(downed):
        link = links[pair]
        network.apply_failure_event(
            FailureEvent(0.0, "link_down", link.node_a, link.node_b))


class TestSplicedWalks:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(slots=st.lists(SLOTS, min_size=81, max_size=81),
           downed=st.sets(st.integers(min_value=0, max_value=17),
                          max_size=3),
           order=st.permutations(range(81)))
    def test_a_batch_through_the_memo_equals_plain_walks(
            self, slots, downed, order):
        _sim, network = _torus(3)
        _random_tables(network, slots, downed)
        owners = {int(service_address(dpid)): dpid
                  for dpid in network.switches}
        spliced = PathResolver(network, owner_of=owners.get)
        plain = PathResolver(network, owner_of=owners.get)
        nodes = sorted(network.switches)
        known = {}
        for index in order:
            src = nodes[index // len(nodes)]
            dst = int(service_address(nodes[index % len(nodes)]))
            got = spliced.resolve(src, dst, known)
            want = plain.resolve(src, dst)
            assert (got.status, got.dpids, got.hops) == \
                (want.status, want.dpids, want.hops), (src, dst)
        assert spliced.walks == plain.walks == 81
        assert spliced.lookups == plain.lookups

    def test_the_cases_are_not_vacuous(self):
        """One hand-made table with every outcome, walked in the order
        that makes each later walk meet an earlier one."""
        _sim, network = _torus(3)
        # Towards 9: 1 -> 2 -> 3 -> (miss at 3: unrouted); 4 -> 1.
        # Towards 5: 1 -> 2 -> 1 (loop); 3 -> 2.
        # Towards 6: 4 -> 5 -> 6 (owner, miss: delivered); 5 -> 6 link down
        # later.
        def route(node, dst, peer):
            network.switches[node].flow_table.add(FlowEntry(
                Match.for_destination_prefix(service_address(dst), 32),
                [OutputAction(network.ports_for_link(node, peer)[0])]))

        route(1, 9, 2), route(2, 9, 3), route(4, 9, 1)
        route(1, 5, 2), route(2, 5, 1), route(3, 5, 2)
        route(4, 6, 5), route(5, 6, 6)
        owners = {int(service_address(dpid)): dpid
                  for dpid in network.switches}
        resolver = PathResolver(network, owner_of=owners.get)
        known = {}

        def walk(src, dst):
            path = resolver.resolve(src, int(service_address(dst)), known)
            return path.status, path.dpids, len(path.hops)

        assert walk(1, 9) == ("unrouted", (1, 2, 3), 2)
        assert walk(4, 9) == ("unrouted", (4, 1, 2, 3), 3)   # spliced at 1
        assert walk(2, 9) == ("unrouted", (2, 3), 1)         # a known rest
        assert walk(1, 5) == ("loop", (1, 2, 1), 2)
        # 2's plain walk is 2 -> 1 -> 2: the known walk from 1 comes back
        # through 2, so it may not be spliced whole.
        assert walk(2, 5) == ("loop", (2, 1, 2), 2)
        assert walk(3, 5) == ("loop", (3, 2, 1, 2), 3)
        assert walk(5, 6) == ("delivered", (5, 6), 1)
        assert walk(4, 6) == ("delivered", (4, 5, 6), 2)
        assert resolver.walks == 8
        assert resolver.lookups == 4 + 3 + 3  # one per (switch, destination)
        network.apply_failure_event(FailureEvent(0.0, "link_down", 5, 6))
        known = {}  # a link changed: the batch is over
        assert walk(5, 6) == ("link_down", (5,), 1)
        assert walk(4, 6) == ("link_down", (4, 5), 2)


# ---------------------------------------------------------------------------
# the tables: shared route parts against parts built per entry
# ---------------------------------------------------------------------------
class _UnsharedRoutes(SyntheticRoutes):
    """The reference: every entry gets a match and an action chain of its
    own, the way ``SyntheticRoutes`` built them before it shared any (the
    TE overrides a ``FlowTableActuator`` writes included)."""

    def _match(self, dst):
        from repro.traffic import service_prefix

        return Match.for_destination_prefix(service_prefix(dst).network,
                                            SERVICE_PREFIX_LEN)

    def entry(self, node, dst, out_port, priority):
        src_iface = self.network.switches[node].port(out_port).interface
        dst_iface = src_iface.link.peer_of(src_iface)
        return FlowEntry(self._match(dst),
                         [SetDlSrcAction(src_iface.mac),
                          SetDlDstAction(dst_iface.mac),
                          OutputAction(out_port)], priority=priority)


def _tables(network):
    return {dpid: [(entry.match._key(), entry.actions, entry.priority)
                   for entry in switch.flow_table.entries]
            for dpid, switch in network.switches.items()}


class TestSharedRouteParts:
    def test_tables_equal_ones_built_unshared_through_the_lifecycle(self):
        (_sim_a, shared_net), (_sim_b, plain_net) = _torus(4), _torus(4)
        shared, plain = SyntheticRoutes(shared_net), _UnsharedRoutes(plain_net)
        steers = FlowTableActuator(shared), FlowTableActuator(plain)
        detour = {(1, 3): (1, 5, 6, 7, 3), (2, 3): (2, 6, 7, 3)}

        def both(step):
            results = [step(shared_net, shared, steers[0]),
                       step(plain_net, plain, steers[1])]
            assert results[0] == results[1]
            assert _tables(shared_net) == _tables(plain_net)
            return results[0]

        assert both(lambda net, routes, te: routes.install()) == 16 * 15
        both(lambda net, routes, te: net.fail_link(6, 7))
        assert both(lambda net, routes, te: routes.reroute()) > 0
        both(lambda net, routes, te: net.restore_link(6, 7))
        assert both(lambda net, routes, te: routes.reroute()) > 0
        assert both(lambda net, routes, te: te.apply(detour)) == 5  # steer
        assert both(lambda net, routes, te: te.apply({})) == 5      # clear()
        for net in (shared_net, plain_net):
            for switch in net.switches.values():
                switch.flow_table.clear()
        assert both(lambda net, routes, te: routes.install()) == 16 * 15

    def test_the_parts_are_shared(self):
        _sim, network = _torus(4)
        routes = SyntheticRoutes(network)
        routes.install()
        entries = [entry for switch in network.switches.values()
                   for entry in switch.flow_table.entries]
        assert len(entries) == 16 * 15
        assert len({id(entry.match) for entry in entries}) == 16
        # Entries share their (node, out port) chain.
        assert len({id(entry.actions) for entry in entries}) == 16 * 4

    def test_modifying_one_entry_leaves_its_siblings_alone(self):
        _sim, network = _torus(4)
        routes = SyntheticRoutes(network)
        routes.install()
        table = network.switches[1].flow_table
        before = {entry.match._key(): entry.actions
                  for entry in table.entries}
        victim = table.entries[0]
        siblings = [entry for entry in table.entries if entry is not victim
                    and entry.actions == victim.actions]
        assert siblings  # same out port, hence the same shared chain
        assert table.modify(victim.match, [OutputAction(9)], strict=True,
                            priority=ROUTE_PRIORITY) == 1
        assert victim.actions == (OutputAction(9),)
        for entry in table.entries:
            if entry is not victim:
                assert entry.actions == before[entry.match._key()]
        # ... nor the chain the next entry towards that port is built from.
        network.fail_link(1, 2)
        routes.reroute()
        network.restore_link(1, 2)
        routes.reroute()
        unshared_net = _torus(4)[1]
        _UnsharedRoutes(unshared_net).install()
        others = [{key: (actions, priority)
                   for key, actions, priority in _tables(net)[1]
                   if key != victim.match._key()}
                  for net in (network, unshared_net)]
        assert others[0] == others[1] and len(others[0]) == 14


# ---------------------------------------------------------------------------
# the callers: one horizon rule, CLI output unchanged
# ---------------------------------------------------------------------------
def _cli_snapshot(tmp_path, capsys):
    """stdout and JSON of one ``repro traffic`` and one ``repro te`` run,
    host times and the temporary path masked."""
    from repro.cli import main

    snapshot = {}
    for name, argv in (
            ("traffic", ["traffic", "--scenario", "ring-4", "--demands",
                         "200", "--model", "gravity", "--duration", "5",
                         "--window", "10"]),
            ("te", ["te", "--scenario", "ring-4", "--policy", "none",
                    "--policy", "greedy", "--demands", "50", "--window", "5",
                    "--settle", "1"])):
        out = tmp_path / f"{name}.json"
        assert main(argv + ["--out", str(out)]) == 0
        document = json.loads(out.read_text())
        for record in (document if isinstance(document, list)
                       else document["policies"]):
            assert record.pop("wall_seconds") >= 0.0
        snapshot[name] = {
            "stdout": capsys.readouterr().out.replace(str(out), "OUT"),
            "json": document}
    return snapshot


class TestCallers:
    def test_cli_traffic_and_te_output_is_byte_identical(self, tmp_path,
                                                         capsys):
        expected = json.loads((DATA / "cli_traffic_te_snapshot.json")
                              .read_text())
        assert _cli_snapshot(tmp_path, capsys) == expected

    def test_horizon_rule(self):
        from repro.experiments.te import _horizon as te_horizon
        from repro.experiments.traffic import _horizon

        assert te_horizon is _horizon
        quiet = ScenarioSpec("tmp-horizon-quiet", "ring", {"num_switches": 4})
        churned = ScenarioSpec(
            "tmp-horizon-churned", "ring", {"num_switches": 4},
            failures=FailureSchedule([FailureEvent(2.0, "link_down", 1, 2),
                                      FailureEvent(7.0, "link_up", 1, 2)]))
        assert churned.failures.duration == 7.0
        open_ended = uniform_demands(_addresses(4), 10, rate_bps=1.0)
        timed = generate_demands(
            DemandSpec(count=10, seed=1, start_window=4.0, duration=2.0),
            _addresses(4))
        assert 2.0 < timed.last_end() < 6.0
        assert _horizon(quiet, open_ended, 30.0) == 30.0
        assert _horizon(churned, open_ended, 30.0) == 37.0
        assert _horizon(quiet, timed, 30.0) == timed.last_end()
        assert _horizon(churned, timed, 30.0) == 7.0
