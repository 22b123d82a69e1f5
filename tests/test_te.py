"""Property and lifecycle tests for the TE subsystem (``repro.te``).

Hypothesis drives the pure-path invariants: Yen's k-shortest paths are
loop-free, cost-nondecreasing and distinct on seeded connected
topologies; ``ecmp_split`` conserves demand exactly; ``greedy_choice``
never selects a path with a link utilized at or above the bottleneck of
the path it abandons; ``suffix_compatible`` steer sets induce a
single-successor (loop-free) forwarding function per destination.

The lifecycle tests then pin the actuation contract on a converged
ring-4 control plane: moving a steered prefix emits exactly one
RouteMod DELETE + ADD pair per moved prefix (the OFPFC_DELETE
withdrawal lifecycle), and withdrawing every steer restores the
byte-identical OSPF route tables — with the TE stack imported, the
golden ring-4 trace stays byte-identical, because without TE routes in
the RIB the rfclient's pair branch is unreachable.
"""

from __future__ import annotations

import json

import pytest

from repro.sim import SeededRandom
from repro.te import (
    KShortestPathEngine,
    bottleneck,
    ecmp_split,
    greedy_choice,
    k_shortest_paths,
    path_links,
    shortest_path,
    suffix_compatible,
)
from repro.topology.generators import random_topology

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _adjacency(topology):
    """Sorted-neighbor adjacency straight from a Topology object."""
    neighbors = {node.node_id: [] for node in topology.nodes}
    for link in topology.links:
        neighbors[link.node_a].append(link.node_b)
        neighbors[link.node_b].append(link.node_a)
    return {node: tuple(sorted(peers)) for node, peers in neighbors.items()}


def _bfs_hops(adjacency, source):
    from collections import deque

    hops = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for peer in adjacency.get(node, ()):
            if peer not in hops:
                hops[peer] = hops[node] + 1
                queue.append(peer)
    return hops


#: (num_switches, extra-link prob %, topology seed, src pick, dst pick)
ksp_params = st.tuples(
    st.integers(min_value=3, max_value=14),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=0, max_value=2**16),
)


def _ksp_case(params, k=5):
    """Build a seeded connected graph and a (src, dst, paths) instance."""
    num, prob, seed, src_pick, dst_pick = params
    topology = random_topology(num, extra_link_probability=prob / 100.0,
                               seed=seed)
    adjacency = _adjacency(topology)
    src = 1 + src_pick % num
    dst = 1 + dst_pick % num
    return adjacency, src, dst, k_shortest_paths(adjacency, src, dst, k)


class TestKShortestPathProperties:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(params=ksp_params)
    def test_paths_are_loop_free_walks(self, params):
        adjacency, src, dst, paths = _ksp_case(params)
        assert paths, "random_topology graphs are connected"
        for path in paths:
            assert path[0] == src and path[-1] == dst
            assert len(set(path)) == len(path)          # loop-free
            for hop, successor in zip(path, path[1:]):  # real edges only
                assert successor in adjacency[hop]

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(params=ksp_params)
    def test_costs_nondecreasing_and_first_is_shortest(self, params):
        adjacency, src, dst, paths = _ksp_case(params)
        costs = [len(path) - 1 for path in paths]
        assert costs == sorted(costs)
        assert costs[0] == _bfs_hops(adjacency, src)[dst]

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(params=ksp_params)
    def test_paths_are_distinct(self, params):
        _adjacency_, _src, _dst, paths = _ksp_case(params)
        assert len(set(paths)) == len(paths)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(params=ksp_params)
    def test_dijkstra_agrees_with_bfs(self, params):
        adjacency, src, dst, _paths = _ksp_case(params, k=1)
        path = shortest_path(adjacency, src, dst)
        assert path is not None
        assert len(path) - 1 == _bfs_hops(adjacency, src)[dst]


class TestEcmpSplit:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(rate=st.floats(min_value=0.0, max_value=1e12,
                          allow_nan=False, allow_infinity=False),
           ways=st.integers(min_value=1, max_value=64))
    def test_split_conserves_demand_to_one_ulp(self, rate, ways):
        import math

        shares = ecmp_split(rate, ways)
        assert len(shares) == ways
        assert abs(sum(shares) - rate) <= math.ulp(rate)
        assert all(share >= 0.0 for share in shares)
        # All but the residue-absorbing first share are the even split,
        # and the first deviates by at most the summation error bound
        # (one rounding step per addition).
        even = rate / ways
        assert shares[1:] == [even] * (ways - 1)
        assert abs(shares[0] - even) <= 2 * ways * math.ulp(max(rate, 1.0))

    def test_zero_ways_rejected(self):
        with pytest.raises(ValueError):
            ecmp_split(1e6, 0)


class TestGreedyChoice:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(params=ksp_params,
           cur_pick=st.integers(min_value=0, max_value=2**16),
           util_seed=st.integers(min_value=0, max_value=2**16))
    def test_never_selects_a_link_hotter_than_the_abandoned_path(
            self, params, cur_pick, util_seed):
        _adj, _src, _dst, paths = _ksp_case(params)
        hypothesis.assume(len(paths) >= 2)
        rng = SeededRandom(util_seed)
        utilization = {}
        for path in paths:
            for key in path_links(path):
                utilization.setdefault(key, rng.random())
        current = paths[cur_pick % len(paths)]
        candidates = [path for path in paths if path != current]
        choice = greedy_choice(candidates, current, utilization)
        abandoned = bottleneck(current, utilization)
        if choice is None:
            # Nothing strictly better exists.
            assert all(bottleneck(path, utilization) >= abandoned
                       for path in candidates)
        else:
            # No link on the chosen path is utilized at or above the
            # level the greedy policy is fleeing.
            assert all(utilization.get(key, 0.0) < abandoned
                       for key in path_links(choice))
            # And it is the coldest strict improvement on offer.
            assert bottleneck(choice, utilization) == min(
                bottleneck(path, utilization) for path in candidates)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(params=ksp_params,
           util_seed=st.integers(min_value=0, max_value=2**16))
    def test_peer_constrained_choice_is_suffix_compatible(
            self, params, util_seed):
        _adj, _src, _dst, paths = _ksp_case(params)
        hypothesis.assume(len(paths) >= 3)
        rng = SeededRandom(util_seed)
        utilization = {key: rng.random()
                       for path in paths for key in path_links(path)}
        current, peer = paths[0], paths[1]
        candidates = [path for path in paths if path != current]
        choice = greedy_choice(candidates, current, utilization,
                               peers=[peer])
        if choice is not None:
            assert suffix_compatible(choice, [peer])


class TestSuffixCompatible:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(params=ksp_params)
    def test_reflexive_and_unconstrained(self, params):
        _adj, _src, _dst, paths = _ksp_case(params)
        for path in paths:
            assert suffix_compatible(path, [])
            assert suffix_compatible(path, [path])

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(params=ksp_params)
    def test_compatible_set_forwards_loop_free(self, params):
        """Greedily accepted compatible steers induce one successor per
        node, and following successors from any node reaches ``dst``."""
        _adj, _src, dst, paths = _ksp_case(params)
        accepted = []
        for path in paths:
            if suffix_compatible(path, accepted):
                accepted.append(path)
        assert accepted  # the first path is always accepted
        successor = {}
        for path in accepted:
            for hop, nxt in zip(path, path[1:]):
                assert successor.get(hop, nxt) == nxt  # a function
                successor[hop] = nxt
        for start in successor:
            node, steps = start, 0
            while node != dst:
                node = successor[node]
                steps += 1
                assert steps <= len(successor)  # no cycle

    def test_conflicting_successor_detected(self):
        assert not suffix_compatible((1, 2, 3), [(4, 2, 5, 3)])
        assert suffix_compatible((1, 2, 5, 3), [(4, 2, 5, 3)])


class TestKspEngineMemo:
    def test_memoizes_until_invalidated(self):
        calls = []
        adjacency = {1: (2, 3), 2: (1, 4), 3: (1, 4), 4: (2, 3)}

        def source():
            calls.append(1)
            return adjacency

        engine = KShortestPathEngine(source, k=3)
        first = engine.paths(1, 4)
        again = engine.paths(1, 4)
        assert first == again and first[0] in ((1, 2, 4), (1, 3, 4))
        assert engine.computations == 1 and engine.hits == 1
        assert len(calls) == 1            # adjacency built lazily, once
        engine.invalidate()
        assert engine.version == 1
        engine.paths(1, 4)
        assert engine.computations == 2 and len(calls) == 2


# ---------------------------------------------------------------------------
# lifecycle: the RouteMod pair contract and the no-TE gating
# ---------------------------------------------------------------------------
def _converged_ring4():
    """A converged 4-ring with loopbacks advertised (TE steerable)."""
    from repro.core import (AutoConfigFramework, FrameworkConfig,
                            IPAddressManager)
    from repro.sim import Simulator
    from repro.topology.emulator import EmulatedNetwork
    from repro.topology.generators import ring_topology

    sim = Simulator()
    ipam = IPAddressManager()
    framework = AutoConfigFramework(
        sim, config=FrameworkConfig(detect_edge_ports=False,
                                    advertise_loopbacks=True), ipam=ipam)
    network = EmulatedNetwork(sim, ring_topology(4), ipam=ipam)
    framework.attach(network)
    assert framework.run_until_configured(max_time=3600.0) is not None
    return sim, framework, network, ipam


class TestZebraRerouteLifecycle:
    def test_exactly_one_delete_add_pair_per_moved_prefix(self):
        from repro.net.addresses import IPv4Network
        from repro.te import ZebraActuator

        sim, framework, network, ipam = _converged_ring4()
        addresses = {dpid: ipam.router_id(dpid) for dpid in network.switches}
        actuator = ZebraActuator(
            framework.control_plane, network,
            prefix_of=lambda dst: IPv4Network((addresses[dst], 32)))
        mods = []
        framework.bus.subscribe(
            framework.rfserver.route_mods_topic,
            lambda envelope: mods.append(json.loads(envelope.payload)))
        prefix = str(IPv4Network((addresses[3], 32)))

        # Steer dst 3 from ingress 1 one way around the ring, then flip
        # it to the other: the second apply must move VM 1's next hop.
        actuator.apply({(1, 3): (1, 2, 3)})
        sim.run(until=sim.now + 2.0)
        mods.clear()
        actuator.apply({(1, 3): (1, 4, 3)})
        sim.run(until=sim.now + 2.0)

        moved = [mod for mod in mods if mod["prefix"] == prefix]
        assert moved, "flipping the steer must emit RouteMods"
        # The moved VM emits its strict withdrawal immediately before the
        # replacement ADD — one pair, nothing else.
        vm1 = [mod["mod_type"] for mod in moved if mod["vm_id"] == 1]
        assert vm1 == ["delete", "add"]
        # No other VM saw its next hop change, so no other DELETE:
        # exactly one pair per moved prefix.
        deletes = [mod for mod in moved if mod["mod_type"] == "delete"]
        assert len(deletes) == 1 and deletes[0]["vm_id"] == 1
        adds = [mod for mod in moved
                if mod["mod_type"] == "add" and mod["vm_id"] == 1]
        assert adds[0]["metric"] == 2  # TE metric is the path hop count

    def test_withdrawing_all_steers_restores_ospf_tables(self):
        from repro.net.addresses import IPv4Network
        from repro.te import ZebraActuator

        sim, framework, network, ipam = _converged_ring4()
        addresses = {dpid: ipam.router_id(dpid) for dpid in network.switches}
        before = {dpid: framework.rfserver.vm_for_dpid(dpid).zebra
                  .show_ip_route() for dpid in sorted(network.switches)}
        actuator = ZebraActuator(
            framework.control_plane, network,
            prefix_of=lambda dst: IPv4Network((addresses[dst], 32)))
        actuator.apply({(1, 3): (1, 2, 3), (2, 4): (2, 3, 4)})
        sim.run(until=sim.now + 2.0)
        during = framework.rfserver.vm_for_dpid(1).zebra.show_ip_route()
        assert during != before[1]        # the steer really landed
        actuator.apply({})
        sim.run(until=sim.now + 2.0)
        after = {dpid: framework.rfserver.vm_for_dpid(dpid).zebra
                 .show_ip_route() for dpid in sorted(network.switches)}
        assert after == before            # byte-identical fallback


class TestTESpec:
    @pytest.mark.parametrize("fields, message", [
        ({"policy": "fastest"}, "unknown TE policy 'fastest'"),
        ({"engine": "warp"}, "unknown TE engine 'warp'"),
        ({"k_paths": 0}, "k_paths must be >= 1"),
        ({"interval": 0.0}, "interval must be positive"),
        ({"epsilon": 1.5}, r"epsilon must be within \[0, 1\]"),
        ({"threshold": -0.1}, r"threshold must be within \[0, 1\]"),
        ({"max_steers_per_tick": 0}, "max_steers_per_tick must be >= 1"),
        ({"hot_link": "1-2"}, "hot_link must look like 'a:b', got '1-2'"),
        ({"hot_capacity_scale": 0.0},
         r"hot_capacity_scale must be within \(0, 1\]")])
    def test_invalid_field_rejected(self, fields, message):
        from repro.te import TESpec

        with pytest.raises(ValueError, match=message):
            TESpec(**fields)


class TestNoTEGating:
    def test_scenarios_without_te_carry_no_te_spec(self):
        from repro.scenarios import get

        for name in ("ring-4", "fat-tree-k4", "torus-8x8"):
            assert get(name).te is None
        assert get("te-torus-8x8").te is not None
        assert get("te-torus-16x16").te is not None

    def test_golden_ring4_trace_byte_identical_with_te_imported(self):
        """Importing/steering machinery present, no TE configured: the
        seed golden trace must not move by a byte (same gate as
        ``enable_bgp`` — the rfclient pair branch stays unreachable)."""
        import repro.te  # noqa: F401  (the stack under suspicion)
        from test_golden_trace import assert_matches_golden, run_traced_ring4

        assert_matches_golden(*run_traced_ring4())


# ---------------------------------------------------------------------------
# the measurement loop, the experiment and the CLI
# ---------------------------------------------------------------------------
def _synthetic_torus(rows=4, cols=4):
    from repro.sim import Simulator
    from repro.topology.emulator import EmulatedNetwork
    from repro.topology.generators import torus_topology
    from repro.traffic import FluidEngine, SyntheticRoutes, service_address

    sim = Simulator()
    network = EmulatedNetwork(sim, torus_topology(rows, cols))
    routes = SyntheticRoutes(network)
    routes.install()
    addresses = {dpid: service_address(dpid) for dpid in network.switches}
    owners = {int(address): dpid for dpid, address in addresses.items()}
    engine = FluidEngine(sim, network, owner_of=owners.get)
    engine.attach()
    return sim, network, routes, engine, addresses, owners


class TestUtilizationMonitor:
    def test_snapshots_fluid_busy_time_on_the_timer(self):
        from repro.te import UtilizationMonitor
        from repro.traffic import DemandSpec, generate_demands

        sim, network, _routes, engine, addresses, _owners = _synthetic_torus()
        monitor = UtilizationMonitor(sim, network, interval=2.0,
                                     pre_sample=engine.reallocate)
        engine.register(generate_demands(
            DemandSpec(model="uniform", count=60, rate_bps=5e7, seed=3),
            addresses))
        monitor.start()
        assert monitor.running
        sim.run(until=sim.now + 7.0)
        assert monitor.samples == 3
        assert monitor.utilization  # every up link got a reading
        assert all(0.0 <= value <= 1.0
                   for value in monitor.utilization.values())
        (node_a, node_b), value = next(iter(monitor.utilization.items()))
        assert monitor.utilization_of(node_b, node_a) == value  # symmetric
        hottest = monitor.hottest(count=3)
        assert hottest == sorted(hottest, key=lambda item: (-item[0], item[1]))
        assert hottest[0][0] > 0.0  # 60 demands really moved bits
        monitor.stop()
        assert not monitor.running


class TestTEExperiment:
    def test_run_te_synthetic_compares_policies(self, tmp_path):
        from dataclasses import replace as dc_replace

        from repro.experiments import render_te_table, run_te, write_json
        from repro.scenarios import get
        from repro.traffic import DemandSpec

        spec = get("te-torus-8x8")
        suite = run_te(spec,
                       policies=("none", "static-ecmp", "greedy", "bandit"),
                       demands=DemandSpec(model="uniform", count=80,
                                          rate_bps=5e6, seed=5),
                       te_spec=dc_replace(spec.te, engine="synthetic"),
                       settle=2.0, window=10.0)
        assert suite.healthy
        assert [result.policy for result in suite.results] == \
            ["none", "static-ecmp", "greedy", "bandit"]
        baseline = suite.baseline
        assert baseline.policy == "none"
        assert baseline.delivered_gain == 0.0
        assert baseline.reroutes == 0 and baseline.steers == 0
        for result in suite.results:
            assert result.offered_bits > 0
            assert 0.0 <= result.loss_fraction <= 1.0
            assert result.stretch_p99 >= result.stretch_mean >= 1.0
        rendered = render_te_table(suite)
        for name in ("none", "static-ecmp", "greedy", "bandit"):
            assert name in rendered
        target = write_json(suite, tmp_path / "te.json")
        payload = json.loads(target.read_text())
        assert payload["scenario"] == "te-torus-8x8"
        assert payload["engine"] == "synthetic"
        assert len(payload["policies"]) == 4

    def test_run_te_zebra_rides_route_mods(self):
        from repro.experiments import run_te
        from repro.scenarios import ScenarioSpec
        from repro.te import TESpec
        from repro.traffic import DemandSpec

        suite = run_te(
            ScenarioSpec("te-unit-torus", "torus", {"rows": 3, "cols": 3}),
            policies=("none", "greedy"),
            demands=DemandSpec(model="uniform", count=24, rate_bps=2e7,
                               seed=2),
            te_spec=TESpec(policy="greedy", engine="zebra", interval=2.0,
                           threshold=0.0, hot_link="1:2",
                           hot_capacity_scale=0.05, k_paths=4),
            settle=2.0, window=10.0)
        assert suite.healthy and suite.engine == "zebra"
        greedy = suite.result_for("greedy")
        assert greedy.reroutes > 0      # the hot link forced steers
        # Steering happened over the bus, not behind it: the greedy run
        # carries the baseline's RouteMods plus the TE pairs.
        assert greedy.route_mods > suite.baseline.route_mods

    @pytest.mark.parametrize("controllers", [1, 2])
    def test_route_mods_counted_on_every_shard(self, controllers):
        from repro.experiments import run_te
        from repro.scenarios import FailureSchedule, ScenarioSpec
        from repro.traffic import DemandSpec

        spec = ScenarioSpec(
            "te-unit-ring", "ring", {"num_switches": 8},
            controllers=controllers,
            failures=FailureSchedule.single_link_failure(
                1, 2, at=5.0, restore_after=20.0))
        suite = run_te(spec, policies=("none",),
                       demands=DemandSpec(count=20, seed=1),
                       settle=1.0, window=40.0)
        # The flap's routing reaction does not depend on the shard count,
        # so neither does the RouteMod count summed over every shard's
        # topic.
        assert suite.engine == "zebra"
        assert suite.baseline.route_mods == 76

    def test_cli_te(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "te.json"
        code = main(["te", "--scenario", "te-torus-8x8",
                     "--policy", "none", "--policy", "greedy",
                     "--demands", "60", "--window", "15",
                     "--settle", "2", "--out", str(out)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "greedy" in captured and "vs baseline" in captured
        assert out.exists() and json.loads(out.read_text())["policies"]

    def test_cli_te_rejects_unknown_scenario(self, capsys):
        from repro.cli import main

        assert main(["te", "--scenario", "no-such-scenario"]) == 2
        assert "no scenario named" in capsys.readouterr().err
