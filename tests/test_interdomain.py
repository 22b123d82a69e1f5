"""End-to-end interdomain tests: multi-AS topologies, the framework with
BGP enabled, the full withdrawal lifecycle under border failures, and the
``run_interdomain`` experiment harness."""

from __future__ import annotations

import pickle

import pytest

from repro.core import AutoConfigFramework, FrameworkConfig, IPAddressManager
from repro.experiments.failover import verify_spf_rib_consistency
from repro.experiments.run import mirror_into_routeflow
from repro.experiments.interdomain import run_interdomain, verify_interdomain
from repro.quagga.ospf.constants import EXTERNAL_ROUTE_TAG
from repro.quagga.rib import RouteSource
from repro.routeflow.membership import PartitionError, make_partitioner
from repro.scenarios import FailureSchedule, ScenarioSpec, get
from repro.sim import Simulator
from repro.topology.emulator import EmulatedNetwork
from repro.topology.generators import (
    BASE_ASN,
    as_map_from_topology,
    multi_as_topology,
    ring_topology,
    transit_stub_topology,
)
from repro.topology.graph import TopologyError


class TestGenerators:
    def test_multi_as_ring_shape(self):
        topology = multi_as_topology(3, as_size=4)
        assert topology.num_nodes == 12
        # 3 ASes x 4 ring links + 3 border links.
        assert topology.num_links == 15
        as_map = as_map_from_topology(topology)
        assert sorted(set(as_map.values())) == [BASE_ASN + 1, BASE_ASN + 2,
                                                BASE_ASN + 3]
        assert all(as_map[n] == BASE_ASN + 1 for n in (1, 2, 3, 4))
        assert topology.is_connected()

    def test_multi_as_two_ases_single_border(self):
        topology = multi_as_topology(2, as_size=3)
        # 2 x 3 ring links + exactly one border link (no duplicate).
        assert topology.num_links == 7

    def test_multi_as_torus_shape(self):
        topology = multi_as_topology(2, shape="torus", as_rows=2, as_cols=2)
        assert topology.num_nodes == 8
        # Each 2x2 grid has 4 links; one border link joins the two ASes.
        assert topology.num_links == 9

    def test_multi_as_validation(self):
        with pytest.raises(TopologyError):
            multi_as_topology(1)
        with pytest.raises(TopologyError):
            multi_as_topology(2, shape="torus")  # needs rows/cols

    def test_transit_stub_shape(self):
        topology = transit_stub_topology(3, stub_size=3, transit_size=3)
        assert topology.num_nodes == 12
        # Transit mesh 3 + 3 stub rings x 3 + 3 border links.
        assert topology.num_links == 15
        as_map = as_map_from_topology(topology)
        assert {as_map[n] for n in (1, 2, 3)} == {BASE_ASN}
        assert len(set(as_map.values())) == 4

    def test_as_map_requires_assignment(self):
        with pytest.raises(TopologyError, match="no AS assignment"):
            as_map_from_topology(ring_topology(4))


class TestASPartitioner:
    def test_whole_as_lands_on_one_shard(self):
        topology = multi_as_topology(3, as_size=4)
        as_map = as_map_from_topology(topology)
        partitioner = make_partitioner("as", 3, as_map=as_map)
        for asn in set(as_map.values()):
            members = [n for n, owner in as_map.items() if owner == asn]
            assert len({partitioner.shard_for(n) for n in members}) == 1
        # 3 ASes over 3 shards: all shards used.
        assert {partitioner.shard_for(n) for n in as_map} == {0, 1, 2}

    def test_needs_an_as_map(self):
        with pytest.raises(PartitionError, match="dpid->AS map"):
            make_partitioner("as", 2)


class TestScenarioSpec:
    def test_interdomain_spec_round_trips(self):
        spec = ScenarioSpec("tmp-inter", "multi-as",
                            {"num_ases": 2, "as_size": 2}, interdomain=True)
        # Sweep workers receive specs pickled.
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.interdomain
        assert clone == spec

    def test_interdomain_framework_config(self):
        spec = get("interdomain-3as")
        config = spec.framework_config()
        assert config.enable_bgp
        assert len(config.as_map) == 12

    def test_interdomain_needs_as_topology(self):
        from repro.scenarios import ScenarioError

        spec = ScenarioSpec("tmp-bad-inter", "ring", {"num_switches": 4},
                            interdomain=True)
        with pytest.raises(ScenarioError, match="no AS assignment"):
            spec.framework_config()

    def test_enable_bgp_requires_as_map(self):
        with pytest.raises(ValueError, match="as_map"):
            AutoConfigFramework(Simulator(),
                                config=FrameworkConfig(enable_bgp=True))

    def test_registry_interdomain_entries_build(self):
        for name in ("interdomain-3as", "interdomain-4as-torus",
                     "interdomain-transit-3", "interdomain-3as-c3",
                     "interdomain-3as-flap"):
            spec = get(name)
            assert spec.interdomain
            topology = spec.build_topology()
            assert topology.is_connected()
            as_map_from_topology(topology)


def configure_interdomain(spec_name=None, topology=None, max_time=900.0):
    """Configure a multi-AS topology with BGP enabled; returns the pieces."""
    if topology is None:
        spec = get(spec_name)
        topology = spec.build_topology()
        config = spec.framework_config(topology)
    else:
        config = FrameworkConfig(
            detect_edge_ports=False, enable_bgp=True,
            as_map=as_map_from_topology(topology))
    sim = Simulator()
    ipam = IPAddressManager()
    framework = AutoConfigFramework(sim, config=config, ipam=ipam)
    network = EmulatedNetwork(sim, topology, ipam=ipam)
    framework.attach(network)
    configured = framework.run_until_configured(max_time=max_time)
    return sim, framework, network, configured


class TestInterdomainEndToEnd:
    @pytest.fixture(scope="class")
    def small_run(self):
        """A configured 2-AS network (2 routers per AS), settled."""
        topology = multi_as_topology(2, as_size=2)
        sim, framework, network, configured = configure_interdomain(
            topology=topology)
        assert configured is not None
        sim.run(until=configured + 60.0)
        return sim, framework, network

    def test_full_reachability_and_bgp_flows(self, small_run):
        _, framework, _ = small_run
        control_plane = framework.control_plane
        # 3 links (two intra rings of one link each + the border) plus
        # 4 loopbacks = 7 prefixes everywhere.
        for vm in control_plane.vms.values():
            assert len(vm.zebra.fib) == 7
        # Border VMs (2 and 3) hold eBGP routes in their FIBs and the
        # corresponding flows are installed on their switches.
        for border in (2, 3):
            vm = control_plane.vms[border]
            bgp_routes = [r for r in vm.zebra.fib_routes
                          if r.source == RouteSource.BGP]
            assert bgp_routes
            for route in bgp_routes:
                assert (border, str(route.prefix)) in \
                    framework.rfproxy.installed_flows

    def test_interior_learns_through_redistribution(self, small_run):
        _, framework, _ = small_run
        # Interior VMs (1 and 4) have no eBGP sessions; other-AS prefixes
        # arrive as tagged OSPF AS-external routes.
        for interior in (1, 4):
            vm = framework.control_plane.vms[interior]
            assert not vm.bgp.ebgp_sessions
            external = [r for r in vm.zebra.fib_routes
                        if r.tag == EXTERNAL_ROUTE_TAG]
            assert external

    def test_interdomain_invariants(self, small_run):
        _, framework, _ = small_run
        as_map = dict(framework.config.as_map)
        assert verify_interdomain(framework.control_plane, as_map) == []
        assert verify_spf_rib_consistency(framework.control_plane) == []

    def test_shard_loads_report_bgp_message_counts(self, small_run):
        _, framework, _ = small_run
        loads = framework.shard_loads()
        for load in loads:
            assert "bgp_updates_sent" in load
            assert "bgp_withdrawals_sent" in load
            assert "bgp_updates_received" in load
        # The eBGP exchange actually happened and both directions saw it.
        assert sum(load["bgp_updates_sent"] for load in loads) > 0
        assert sum(load["bgp_updates_received"] for load in loads) > 0

    def test_border_flap_withdraws_and_recovers(self):
        """Session flap -> withdrawal -> OFPFC_DELETE -> re-advertisement."""
        topology = multi_as_topology(2, as_size=2)
        sim, framework, network, configured = configure_interdomain(
            topology=topology)
        assert configured is not None
        sim.run(until=configured + 60.0)
        steady_flows = sum(load["flows_current"]
                           for load in framework.shard_loads())
        removed_before = sum(load["flow_mods_removed"]
                             for load in framework.shard_loads())
        network.add_failure_listener(
            mirror_into_routeflow(network, framework.bus))
        network.schedule_failures(FailureSchedule.single_link_failure(
            2, 3, at=5.0, restore_after=60.0))
        sim.run(until=sim.now + 35.0)
        # Both eBGP sessions dropped; withdrawals reached the switches.
        for border, peer in ((2, 3), (3, 2)):
            vm = framework.control_plane.vms[border]
            assert not vm.bgp.established_sessions or all(
                s.is_ibgp for s in vm.bgp.established_sessions)
        # The dead border /30 left the area too: the borders withdrew the
        # redistributed-connected external, so no interior router keeps a
        # route towards a subnet its border lost (the blackhole case).
        nets2 = {i.network for i in
                 framework.control_plane.vms[2].interfaces.values() if i.ip}
        nets3 = {i.network for i in
                 framework.control_plane.vms[3].interfaces.values() if i.ip}
        (border_net,) = nets2 & nets3
        for interior in (1, 4):
            vm = framework.control_plane.vms[interior]
            assert border_net not in vm.zebra.fib
        removed_after = sum(load["flow_mods_removed"]
                            for load in framework.shard_loads())
        assert removed_after > removed_before
        assert sum(load["flows_current"]
                   for load in framework.shard_loads()) < steady_flows
        # Restore: sessions re-establish and the flows come back exactly.
        sim.run(until=sim.now + 90.0)
        for border in (2, 3):
            vm = framework.control_plane.vms[border]
            assert any(not s.is_ibgp for s in vm.bgp.established_sessions)
        assert sum(load["flows_current"]
                   for load in framework.shard_loads()) == steady_flows
        assert verify_spf_rib_consistency(framework.control_plane) == []

    def test_border_teardown_races_shard_failover(self):
        """BGP session teardown racing shard failover: the border dpid
        migrates to the standby while its eBGP hold timer is already
        running.  The adopting shard must process the teardown — flow
        withdrawals included — and the later session recovery; the dead
        shard must stay frozen throughout."""
        topology = multi_as_topology(2, as_size=2)
        config = FrameworkConfig(detect_edge_ports=False, enable_bgp=True,
                                 as_map=as_map_from_topology(topology),
                                 controllers=2, partitioner="as")
        sim = Simulator()
        ipam = IPAddressManager()
        framework = AutoConfigFramework(sim, config=config, ipam=ipam)
        network = EmulatedNetwork(sim, topology, ipam=ipam)
        framework.attach(network)
        configured = framework.run_until_configured(max_time=900.0)
        assert configured is not None
        sim.run(until=configured + 60.0)
        plane = framework.control_plane
        steady_flows = sum(load["flows_current"]
                           for load in framework.shard_loads())
        network.add_failure_listener(
            mirror_into_routeflow(network, framework.bus))
        from repro.scenarios import FailureAction, FailureEvent

        victim = plane.membership.owner_of(2)  # shard hosting border dpid 2
        survivor = 1 - victim
        network.schedule_failures(FailureSchedule((
            FailureEvent(5.0, FailureAction.LINK_DOWN, 2, 3),
            # 10s into the 30s hold window: the border dpid migrates
            # while its hold timer is running.
            FailureEvent(15.0, FailureAction.SHARD_FAILOVER, victim),
            FailureEvent(100.0, FailureAction.LINK_UP, 2, 3),
            FailureEvent(100.0, FailureAction.SHARD_UP, victim),
        )))
        dead_proxy = framework.shards[victim].rfproxy
        # Run past the hold-timer expiry (~35s after the link drop).
        sim.run(until=sim.now + 60.0)
        assert plane.takeovers == 1
        assert plane.membership.owner_of(2) == survivor
        dead_installed = dead_proxy.flows_installed
        dead_removed = dead_proxy.flows_removed
        vm2 = plane.vms[2]
        assert all(s.is_ibgp for s in vm2.bgp.established_sessions)
        # The withdrawals reached the switches through the adopting shard.
        assert sum(load["flows_current"]
                   for load in framework.shard_loads()) < steady_flows
        # Recovery: the link returns, the session re-establishes under the
        # adopting shard, and the flows come back exactly.
        sim.run(until=sim.now + 120.0)
        assert any(not s.is_ibgp for s in vm2.bgp.established_sessions)
        assert sum(load["flows_current"]
                   for load in framework.shard_loads()) == steady_flows
        assert dead_proxy.flows_installed == dead_installed
        assert dead_proxy.flows_removed == dead_removed
        assert verify_spf_rib_consistency(plane) == []
        assert plane.ownership_violations() == []
        assert plane.orphaned_parked_route_mods() == []

    def test_node_failure_tears_down_border_sessions(self):
        """A fail-stopped border switch takes its eBGP sessions with it."""
        topology = multi_as_topology(2, as_size=2)
        sim, framework, network, configured = configure_interdomain(
            topology=topology)
        assert configured is not None
        sim.run(until=configured + 60.0)
        network.add_failure_listener(
            mirror_into_routeflow(network, framework.bus))
        from repro.scenarios import FailureAction, FailureEvent

        network.schedule_failures(FailureSchedule((
            FailureEvent(5.0, FailureAction.NODE_DOWN, 3),)))
        sim.run(until=sim.now + 40.0)
        vm2 = framework.control_plane.vms[2]
        assert all(s.is_ibgp for s in vm2.bgp.established_sessions)
        # AS1 still has full reachability to its own prefixes.
        vm1 = framework.control_plane.vms[1]
        assert any(r.source == RouteSource.OSPF for r in vm1.zebra.fib_routes)


class TestRunInterdomain:
    def test_run_interdomain_healthy_with_flap(self):
        spec = ScenarioSpec("tmp-run-inter", "multi-as",
                            {"num_ases": 2, "as_size": 2}, interdomain=True)
        result = run_interdomain(spec, flap=True)
        assert result.configured
        assert result.settled
        assert result.healthy
        assert result.num_ases == 2
        assert result.border_links == 1
        assert result.ebgp_sessions == 1
        assert result.redistribution_violations == []
        assert set(result.per_as) == {BASE_ASN + 1, BASE_ASN + 2}
        assert all(report["flows"] > 0 for report in result.per_as.values())
        flap = result.flap
        assert flap is not None and flap.verified
        assert flap.withdrawn_flow_mods > 0
        assert flap.sessions_dropped and flap.reestablished
        assert flap.flows_restored

    def test_run_interdomain_rejects_single_domain_scenario(self):
        with pytest.raises(Exception):
            run_interdomain("ring-4", flap=False)

    def test_run_interdomain_rejects_non_border_flap_link(self):
        spec = ScenarioSpec("tmp-run-inter2", "multi-as",
                            {"num_ases": 2, "as_size": 2}, interdomain=True)
        with pytest.raises(ValueError, match="not an eBGP border link"):
            run_interdomain(spec, flap=True, flap_link=(1, 2))
