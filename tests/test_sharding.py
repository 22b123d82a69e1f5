"""Tests for the sharded control plane and the satellite RFServer fixes
(pending-RouteMod replay, indexed next-hop resolution)."""

from __future__ import annotations

import pickle

import pytest

from repro.core import AutoConfigFramework, FrameworkConfig, IPAddressManager
from repro.experiments.ctlscale import (
    check_load_conservation,
    run_ctlscale,
    write_ctlscale_csv,
)
from repro.experiments.failover import verify_spf_rib_consistency
from repro.experiments.run import mirror_into_routeflow, write_json
from repro.bus import MessageBus
from repro.net import IPv4Address, IPv4Network, MACAddress
from repro.quagga import InterfaceConfig, generate_zebra_conf
from repro.routeflow import (
    ContiguousPartitioner,
    FlowSpec,
    HashPartitioner,
    HostEntry,
    PartitionError,
    RouteMod,
    ShardedControlPlane,
    ShardRole,
    TakeoverAnnouncement,
    make_partitioner,
)
from repro.scenarios import (
    FailureAction,
    FailureEvent,
    FailureSchedule,
    FailureScheduleError,
    ScenarioError,
    ScenarioSpec,
)
from repro.sim import Simulator
from repro.topology.emulator import EmulatedNetwork
from repro.topology.generators import linear_topology, ring_topology


@pytest.fixture
def sim():
    return Simulator()


# ---------------------------------------------------------------------------
# partitioners
# ---------------------------------------------------------------------------
class TestPartitioners:
    def test_hash_covers_every_shard(self):
        partitioner = HashPartitioner(3)
        shards = {partitioner.shard_for(dpid) for dpid in range(1, 10)}
        assert shards == {0, 1, 2}

    def test_contiguous_blocks_are_contiguous(self):
        partitioner = ContiguousPartitioner(2)
        partitioner.seed([5, 1, 3, 2, 4, 6])
        assignment = {dpid: partitioner.shard_for(dpid) for dpid in range(1, 7)}
        assert assignment == {1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1}

    def test_contiguous_unseeded_dpid_rejected(self):
        partitioner = ContiguousPartitioner(2)
        with pytest.raises(PartitionError, match="seeded universe"):
            partitioner.shard_for(7)

    def test_make_partitioner(self):
        assert isinstance(make_partitioner("hash", 2), HashPartitioner)
        assert isinstance(make_partitioner("contiguous", 2),
                          ContiguousPartitioner)
        for unknown in ("round-robin", "slice"):
            with pytest.raises(PartitionError, match="unknown partitioner"):
                make_partitioner(unknown, 2)


# ---------------------------------------------------------------------------
# satellite fixes on the (single) RFServer
# ---------------------------------------------------------------------------
def build_two_switch_pipeline(sim, one_shard_plane):
    """Two switches + two VMs on a one-shard plane, configuration
    injected directly."""
    plane = one_shard_plane(vm_boot_delay=0.2)
    shard = plane.shards[0]
    network = EmulatedNetwork(sim, linear_topology(2))
    network.connect_control_plane(shard.controller.accept_channel,
                                  shard.controller)
    for vm_id in (1, 2):
        shard.rfserver.create_vm(vm_id=vm_id, num_ports=2)
    return plane, shard.rfproxy, shard.rfserver, network


class TestPendingRouteMods:
    def test_route_mod_before_gateway_address_is_parked_then_replayed(
            self, sim, one_shard_plane):
        """Regression: a RouteMod arriving before the next-hop gateway
        address is assigned must install its flow once the address lands,
        not vanish."""
        plane, rfproxy, rfserver, network = build_two_switch_pipeline(
            sim, one_shard_plane)
        rfserver.assign_interface_address(1, "eth1", IPv4Address("172.16.0.1"), 30)
        sim.run(until=1.0)
        mod = RouteMod.add(vm_id=1, prefix=IPv4Network("192.168.2.0/24"),
                           next_hop=IPv4Address("172.16.0.2"), interface="eth1")
        rfserver.receive_route_mod(mod.to_json())
        sim.run(until=2.0)
        # The next hop (VM 2's eth1) has no address yet: parked, no flow.
        assert len(network.switch(1).flow_table) == 0
        assert rfserver.pending_route_mods == 1
        assert rfserver.route_mods_parked == 1
        # The gateway address arrives (RPC link configuration lands).
        rfserver.assign_interface_address(2, "eth1", IPv4Address("172.16.0.2"), 30)
        sim.run(until=3.0)
        assert rfserver.pending_route_mods == 0
        flows = network.switch(1).flow_table.entries
        assert len(flows) == 1
        assert flows[0].match.nw_dst == IPv4Address("192.168.2.0")

    def test_newer_parked_route_mod_replaces_older(self, sim, one_shard_plane):
        plane, rfproxy, rfserver, network = build_two_switch_pipeline(
            sim, one_shard_plane)
        rfserver.assign_interface_address(1, "eth1", IPv4Address("172.16.0.1"), 30)
        for metric in (10, 20):
            mod = RouteMod.add(vm_id=1, prefix=IPv4Network("192.168.2.0/24"),
                               next_hop=IPv4Address("172.16.0.2"),
                               interface="eth1", metric=metric)
            rfserver.receive_route_mod(mod.to_json())
        sim.run(until=1.0)
        assert rfserver.pending_route_mods == 1  # keyed by (vm, prefix)
        rfserver.assign_interface_address(2, "eth1", IPv4Address("172.16.0.2"), 30)
        sim.run(until=2.0)
        installed = rfproxy.flows_on(1)
        assert len(installed) == 1
        assert installed[0].metric == 20  # the newer announcement won

    def test_delete_drops_parked_add(self, sim, one_shard_plane):
        plane, rfproxy, rfserver, network = build_two_switch_pipeline(
            sim, one_shard_plane)
        rfserver.assign_interface_address(1, "eth1", IPv4Address("172.16.0.1"), 30)
        prefix = IPv4Network("192.168.2.0/24")
        add = RouteMod.add(vm_id=1, prefix=prefix,
                           next_hop=IPv4Address("172.16.0.2"), interface="eth1")
        rfserver.receive_route_mod(add.to_json())
        sim.run(until=1.0)
        assert rfserver.pending_route_mods == 1
        rfserver.receive_route_mod(RouteMod.delete(vm_id=1, prefix=prefix).to_json())
        sim.run(until=2.0)
        assert rfserver.pending_route_mods == 0
        rfserver.assign_interface_address(2, "eth1", IPv4Address("172.16.0.2"), 30)
        sim.run(until=3.0)
        assert len(network.switch(1).flow_table) == 0  # nothing resurrected


class TestAddressIndexing:
    def test_zebra_applied_address_is_resolvable_without_assignment(
            self, sim, one_shard_plane):
        """Addresses applied through zebra.conf land in the next-hop index
        via the interface address listeners (no linear VM scan)."""
        plane, rfproxy, rfserver, network = build_two_switch_pipeline(
            sim, one_shard_plane)
        vm = rfserver.vm(2)
        plane.write_config_file(2, "zebra.conf", generate_zebra_conf(
            vm.name, [InterfaceConfig("eth1", IPv4Address("172.16.0.2"), 30)]))
        sim.run(until=1.0)  # boot + config apply
        owner = rfserver.interface_owning_ip(IPv4Address("172.16.0.2"))
        assert owner is not None
        assert owner[0] is vm
        assert owner[1].name == "eth1"

    def test_reassigned_address_drops_stale_index_entry(
            self, sim, one_shard_plane):
        plane, rfproxy, rfserver, network = build_two_switch_pipeline(
            sim, one_shard_plane)
        vm = rfserver.vm(2)
        sim.run(until=1.0)
        vm.interfaces["eth1"].configure_ip(IPv4Address("172.16.0.2"), 30)
        assert rfserver.interface_owning_ip(IPv4Address("172.16.0.2")) is not None
        vm.interfaces["eth1"].configure_ip(IPv4Address("172.16.0.6"), 30)
        assert rfserver.interface_owning_ip(IPv4Address("172.16.0.2")) is None
        assert rfserver.interface_owning_ip(
            IPv4Address("172.16.0.6"))[1].name == "eth1"

    def test_one_shard_publishes_no_mapping_records(self, sim, one_shard_plane):
        """Mapping records feed the peer shards' directories; one shard
        has no peer, so its VMs and addresses never reach the bus."""
        plane, rfproxy, rfserver, network = build_two_switch_pipeline(
            sim, one_shard_plane)
        sim.run(until=1.0)
        rfserver.vm(2).interfaces["eth1"].configure_ip(
            IPv4Address("172.16.0.2"), 30)
        assert rfserver.interface_owning_ip(IPv4Address("172.16.0.2")) is not None
        assert "routeflow.mapping" not in plane.bus.stats()


# ---------------------------------------------------------------------------
# sharded convergence
# ---------------------------------------------------------------------------
def configure_ring(num_switches, controllers, partitioner="hash",
                   settle=5.0, **config_kwargs):
    sim = Simulator()
    ipam = IPAddressManager()
    config = FrameworkConfig(detect_edge_ports=False, controllers=controllers,
                             partitioner=partitioner, **config_kwargs)
    framework = AutoConfigFramework(sim, config=config, ipam=ipam)
    network = EmulatedNetwork(sim, ring_topology(num_switches), ipam=ipam)
    framework.attach(network)
    configured_at = framework.run_until_configured(max_time=1200.0,
                                                   settle=settle)
    return sim, framework, network, configured_at


class TestShardedConvergence:
    def test_two_shards_converge_with_consistent_ribs(self):
        sim, framework, network, configured_at = configure_ring(8, 2)
        assert configured_at is not None
        assert verify_spf_rib_consistency(framework.control_plane) == []
        loads = framework.shard_loads()
        assert len(loads) == 2
        assert sum(load["switches"] for load in loads) == 8
        assert all(load["vms"] == 4 for load in loads)
        # Every switch holds flows, whichever shard owns it.
        for switch in network.switches.values():
            assert len(switch.flow_table) >= 2

    def test_sharding_reduces_configuration_time(self):
        _, _, _, single = configure_ring(8, 1, settle=0.0)
        _, _, _, sharded = configure_ring(8, 4, settle=0.0)
        assert single is not None and sharded is not None
        assert sharded < single  # per-shard VM boot serialisation

    def test_flow_state_is_conserved_across_shard_counts(self):
        spec = ScenarioSpec("tmp-ctlscale-ring8", "ring", {"num_switches": 8})
        results = run_ctlscale(spec, controller_counts=(1, 2, 4))
        assert all(result.configured for result in results)
        assert check_load_conservation(results) == []
        reference = results[0].total_flows
        assert reference > 0
        assert all(result.total_flows == reference for result in results)

    def test_sharded_framework_requires_flowvisor(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="FlowVisor"):
            AutoConfigFramework(sim, config=FrameworkConfig(
                controllers=2, use_flowvisor=False))

    def test_contiguous_partition_keeps_neighbours_together(self):
        sim, framework, network, configured_at = configure_ring(
            8, 2, partitioner="contiguous")
        assert configured_at is not None
        loads = {load["shard"]: load for load in framework.shard_loads()}
        shard0 = framework.shards[0].rfserver.mapping.mapped_datapaths
        shard1 = framework.shards[1].rfserver.mapping.mapped_datapaths
        assert shard0 == [1, 2, 3, 4]
        assert shard1 == [5, 6, 7, 8]
        assert loads[0]["flows_current"] > 0 and loads[1]["flows_current"] > 0

    def test_bus_reports_per_shard_topics(self):
        sim, framework, network, configured_at = configure_ring(8, 2)
        stats = framework.bus.stats()
        for shard in (0, 1):
            assert stats[f"routeflow.route_mods.{shard}"]["delivered"] > 0
            assert stats[f"routeflow.flow_specs.{shard}"]["delivered"] > 0
        assert stats["routeflow.mapping"]["published"] > 0
        assert stats["config.rpc"]["delivered"] > 0


# ---------------------------------------------------------------------------
# shard failure injection
# ---------------------------------------------------------------------------
class TestShardFailure:
    def test_surviving_shards_keep_converging_after_shard_death(self):
        """Kill shard 0 via the failure-injection subsystem, then fail a
        link wholly inside shard 1's partition: shard 1 must reroute its
        switches while the dead shard processes nothing."""
        sim, framework, network, configured_at = configure_ring(
            8, 2, partitioner="contiguous")
        assert configured_at is not None
        plane = framework.control_plane
        schedule = FailureSchedule((
            FailureEvent(5.0, FailureAction.SHARD_DOWN, 0),
            FailureEvent(10.0, FailureAction.LINK_DOWN, 6, 7),
        ))
        network.schedule_failures(schedule)
        # Mirror physical changes into the virtual topology like the
        # failover harness does (over the port-status bus topic).
        network.add_failure_listener(mirror_into_routeflow(network,
                                                           framework.bus))
        frozen_route_mods = None
        dead, alive = framework.shards
        sim.run(until=sim.now + 7.0)
        assert dead.failed and not alive.failed
        frozen_route_mods = dead.rfserver.route_mods_received
        flows_before = alive.rfproxy.flows_installed + alive.rfproxy.flows_removed
        sim.run(until=sim.now + 120.0)
        # The dead shard processed nothing after its failure...
        assert dead.rfserver.route_mods_received == frozen_route_mods
        # ...while the surviving shard rerouted its switches...
        assert alive.rfproxy.flows_installed + alive.rfproxy.flows_removed \
            > flows_before
        # ...and every surviving-shard VM's RIB matches a fresh SPF run.
        assert verify_spf_rib_consistency(alive.rfserver) == []

    def test_restored_shard_resumes_processing(self):
        sim, framework, network, configured_at = configure_ring(4, 2)
        plane = framework.control_plane
        plane.fail_shard(1)
        assert framework.shards[1].failed
        plane.restore_shard(1)
        assert not framework.shards[1].failed
        assert framework.shards[1].rfserver.active

    def test_unknown_shard_index_rejected(self):
        sim, framework, network, configured_at = configure_ring(4, 2)
        with pytest.raises(PartitionError, match="no controller shard"):
            framework.control_plane.fail_shard(7)

    def test_failed_shard_does_not_replay_parked_route_mods(
            self, sim, one_shard_plane):
        """A fail-stopped shard must not install flows through the parked
        RouteMod replay path (a dead controller mutating switch state)."""
        plane, rfproxy, rfserver, network = build_two_switch_pipeline(
            sim, one_shard_plane)
        rfserver.assign_interface_address(1, "eth1", IPv4Address("172.16.0.1"), 30)
        mod = RouteMod.add(vm_id=1, prefix=IPv4Network("192.168.2.0/24"),
                           next_hop=IPv4Address("172.16.0.2"), interface="eth1")
        rfserver.receive_route_mod(mod.to_json())
        sim.run(until=1.0)
        assert rfserver.pending_route_mods == 1
        rfserver.active = False
        assert rfserver.replay_pending_next_hop(IPv4Address("172.16.0.2")) == 0
        assert rfserver.pending_route_mods == 1  # parked, not lost
        assert len(network.switch(1).flow_table) == 0

    def test_schedule_validation_rejects_unknown_shard_up_front(self):
        schedule = FailureSchedule((
            FailureEvent(5.0, FailureAction.SHARD_DOWN, 5),))
        from repro.scenarios import FailureScheduleError
        with pytest.raises(FailureScheduleError, match="no controller shard"):
            schedule.validate_against([1, 2], [(1, 2)], shards=2)
        # Without a shard count (the emulator's view) the event passes.
        schedule.validate_against([1, 2], [(1, 2)])

    def test_shard_events_fail_stop_the_single_controller(self):
        """Regression: a schedule validated against one controller may
        fail it.  ``shard_down 0`` used to pass validation and then be
        dropped, so the 'dead' controller kept processing RouteMods."""
        sim, framework, network, configured_at = configure_ring(
            4, 1, vm_boot_delay=0.5)
        assert configured_at is not None
        schedule = FailureSchedule((
            FailureEvent(5.0, FailureAction.SHARD_DOWN, 0),
            FailureEvent(10.0, FailureAction.LINK_DOWN, 1, 2),
        ))
        schedule.validate_against(list(network.switches),
                                  list(network.link_ports), shards=1)
        network.schedule_failures(schedule)
        network.add_failure_listener(mirror_into_routeflow(network,
                                                           framework.bus))
        received = framework.rfserver.route_mods_received
        sim.run(until=sim.now + 80.0)
        assert framework.control_plane.membership.failed == [True]
        assert framework.rfserver.route_mods_received == received

    def test_replaced_address_is_retracted_from_peer_directories(self):
        """Re-addressing an interface must retract the old entry from the
        cross-shard directory, not leave a stale gateway behind."""
        sim, framework, network, configured_at = configure_ring(
            4, 2, partitioner="contiguous")
        assert configured_at is not None
        plane = framework.control_plane
        vm = framework.shards[0].rfserver.vms[1]
        old_ip = vm.interfaces["eth1"].ip
        assert old_ip is not None
        assert plane.interface_owning_ip(old_ip) is not None
        vm.interfaces["eth1"].configure_ip(IPv4Address("10.99.99.1"), 30)
        assert plane.interface_owning_ip(old_ip) is None
        assert plane.interface_owning_ip(IPv4Address("10.99.99.1")) is not None


# ---------------------------------------------------------------------------
# scenario knob and exports
# ---------------------------------------------------------------------------
class TestControllersKnob:
    def test_scenario_spec_controllers_round_trip(self):
        spec = ScenarioSpec("tmp-c", "ring", {"num_switches": 4}, controllers=3)
        assert spec.framework_config().controllers == 3
        # Sweep workers receive specs pickled.
        assert pickle.loads(pickle.dumps(spec)).controllers == 3
        assert ScenarioSpec("tmp-d", "ring",
                            {"num_switches": 4}).controllers == 1

    def test_with_controllers_preserves_name(self):
        spec = ScenarioSpec("tmp-c", "ring", {"num_switches": 4})
        copy = spec.with_controllers(2)
        assert copy.name == spec.name
        assert copy.controllers == 2
        assert spec.controllers == 1

    def test_invalid_controllers_rejected(self):
        with pytest.raises(ScenarioError, match="controllers"):
            ScenarioSpec("tmp-c", "ring", {"num_switches": 4}, controllers=0)

    def test_framework_override_of_controllers_rejected(self):
        """framework={'controllers': N} would silently defeat
        with_controllers() and the conservation check."""
        spec = ScenarioSpec("tmp-c", "ring", {"num_switches": 4},
                            framework={"controllers": 2})
        with pytest.raises(ScenarioError, match="ScenarioSpec.controllers"):
            spec.framework_config()

    def test_ctlscale_exports_round_trip(self, tmp_path):
        spec = ScenarioSpec("tmp-ctlscale-ring4", "ring", {"num_switches": 4})
        results = run_ctlscale(spec, controller_counts=(1, 2))
        json_path = write_json(results, tmp_path / "ctl.json")
        csv_path = write_ctlscale_csv(results, tmp_path / "ctl.csv")
        import csv as csv_module
        import json as json_module

        payload = json_module.loads(json_path.read_text())
        assert [entry["controllers"] for entry in payload] == [1, 2]
        assert payload[1]["total_flows"] == payload[0]["total_flows"]
        assert "routeflow.route_mods.0" in payload[0]["bus_stats"]
        with csv_path.open() as handle:
            rows = list(csv_module.DictReader(handle))
        assert len(rows) == 3  # 1 shard + 2 shards
        assert {row["shard"] for row in rows} == {"0", "1"}
        # Per-shard BGP message counters ride along (zero without BGP).
        for entry in payload:
            for load in entry["shard_loads"]:
                assert load["bgp_updates_sent"] == 0
                assert load["bgp_updates_received"] == 0
        assert all(row["bgp_updates_sent"] == "0" for row in rows)


# ---------------------------------------------------------------------------
# master/standby roles, takeover and live resharding
# ---------------------------------------------------------------------------
class TestTakeoverAndResharding:
    def test_coordinated_failover_preserves_flows(self):
        """A standby adopting a failed master's partition must not drop a
        single installed flow."""
        sim, framework, network, configured_at = configure_ring(
            8, 2, partitioner="contiguous")
        assert configured_at is not None
        plane = framework.control_plane
        flows_before = sum(len(switch.flow_table)
                           for switch in network.switches.values())
        plane.fail_shard(0)
        assert plane.takeover(0) == 1
        sim.run(until=sim.now + 10.0)
        assert plane.takeovers == 1
        assert plane.membership.role_of(0) == ShardRole.FAILED
        assert plane.membership.role_of(1) == ShardRole.MASTER
        assert plane.membership.owned(0) == []
        assert plane.membership.owned(1) == [1, 2, 3, 4, 5, 6, 7, 8]
        assert sum(len(switch.flow_table)
                   for switch in network.switches.values()) == flows_before
        assert plane.ownership_violations() == []
        assert plane.orphaned_parked_route_mods() == []
        assert verify_spf_rib_consistency(plane) == []

    def test_adopted_partition_keeps_reconverging(self):
        """After takeover the adopting shard must route around failures
        inside the adopted partition (the datapaths really moved, control
        channels included)."""
        sim, framework, network, configured_at = configure_ring(
            8, 2, partitioner="contiguous")
        assert configured_at is not None
        plane = framework.control_plane
        network.add_failure_listener(mirror_into_routeflow(network,
                                                           framework.bus))
        plane.fail_shard(0)
        plane.takeover(0)
        sim.run(until=sim.now + 10.0)
        survivor = framework.shards[1]
        activity_before = (survivor.rfproxy.flows_installed
                          + survivor.rfproxy.flows_removed)
        # Link 2-3 lies wholly inside the partition shard 1 adopted.
        network.apply_failure_event(
            FailureEvent(0.0, FailureAction.LINK_DOWN, 2, 3))
        sim.run(until=sim.now + 120.0)
        assert (survivor.rfproxy.flows_installed
                + survivor.rfproxy.flows_removed) > activity_before
        assert verify_spf_rib_consistency(plane) == []

    def test_failure_detector_triggers_takeover(self):
        """A silently dead master (no coordinated failover event) must be
        detected by heartbeat silence and its partition taken over."""
        sim, framework, network, configured_at = configure_ring(8, 2)
        assert configured_at is not None
        plane = framework.control_plane
        plane.fail_shard(0)
        assert plane.takeovers == 0
        sim.run(until=sim.now + plane.FAILURE_TIMEOUT
                + 2 * plane.HEARTBEAT_INTERVAL + 1.0)
        assert plane.takeovers == 1
        assert plane.membership.owned(0) == []
        assert plane.ownership_violations() == []

    def test_standby_is_next_live_shard_in_ring_order(self):
        sim, framework, network, configured_at = configure_ring(8, 3)
        assert configured_at is not None
        plane = framework.control_plane
        assert plane.membership.standby_for(0) == 1
        assert plane.membership.standby_for(2) == 0
        plane.fail_shard(1)
        assert plane.membership.standby_for(0) == 2
        assert plane.membership.role_of(1) == ShardRole.FAILED
        plane.takeover(1)
        plane.restore_shard(1)
        # Its partition was taken over, so the restored shard owns
        # nothing: it comes back as a standby.
        assert plane.membership.owned(1) == []
        assert plane.membership.role_of(1) == ShardRole.STANDBY

    def test_reshard_moves_one_dpid_without_flow_loss(self):
        sim, framework, network, configured_at = configure_ring(
            8, 2, partitioner="contiguous")
        assert configured_at is not None
        plane = framework.control_plane
        flows_before = sum(len(switch.flow_table)
                           for switch in network.switches.values())
        assert plane.reshard(3, 1) is True
        sim.run(until=sim.now + 10.0)
        assert plane.reshards == 1
        assert plane.membership.owner_of(3) == 1
        assert 3 in framework.shards[1].rfserver.mapping.mapped_datapaths
        assert 3 not in framework.shards[0].rfserver.mapping.mapped_datapaths
        assert sum(len(switch.flow_table)
                   for switch in network.switches.values()) == flows_before
        assert plane.ownership_violations() == []
        assert verify_spf_rib_consistency(plane) == []

    def test_injected_reshard_onto_a_failed_shard_is_logged(self, caplog):
        """A schedule's reshard onto a shard failed by then changes no
        ownership and raises nothing; the rejection is logged."""
        sim, framework, network, configured_at = configure_ring(
            4, 2, partitioner="contiguous")
        assert configured_at is not None
        plane = framework.control_plane
        owners = {dpid: plane.membership.owner_of(dpid) for dpid in (1, 2)}
        network.schedule_failures(FailureSchedule((
            FailureEvent(5.0, FailureAction.SHARD_DOWN, 1),
            FailureEvent(6.0, FailureAction.RESHARD, 1, 1),
        )))
        with caplog.at_level("WARNING", logger="repro.core.autoconfig"):
            sim.run(until=sim.now + 10.0)
        assert plane.reshards == 0
        assert {dpid: plane.membership.owner_of(dpid)
                for dpid in (1, 2)} == owners == {1: 0, 2: 0}
        assert "injected reshard rejected: cannot reshard dpid 0x1 onto " \
            "failed shard 1" in caplog.text

    def test_reshard_rejects_failed_target_and_self_moves(self):
        sim, framework, network, configured_at = configure_ring(
            4, 2, partitioner="contiguous")
        assert configured_at is not None
        plane = framework.control_plane
        assert plane.reshard(1, 0) is False  # already the owner
        assert plane.reshards == 0
        plane.fail_shard(1)
        with pytest.raises(PartitionError, match="failed"):
            plane.reshard(1, 1)

    def test_takeover_transfers_parked_route_mods_and_blocks_dead_replay(self):
        """Regression: a fail-stopped shard must never install flows via
        parked-RouteMod replay after takeover transfers its partition.
        The parked entry follows its VM to the adopting shard and replays
        there — and only there — once the gateway address lands."""
        sim, framework, network, configured_at = configure_ring(
            8, 2, partitioner="contiguous")
        assert configured_at is not None
        plane = framework.control_plane
        shard0, shard1 = framework.shards
        gateway = IPv4Address("10.123.45.2")
        mod = RouteMod.add(vm_id=1, prefix=IPv4Network("203.0.113.0/24"),
                           next_hop=gateway, interface="eth1")
        shard0.rfserver.receive_route_mod(mod.to_json())
        sim.run(until=sim.now + 2.0)
        assert shard0.rfserver.pending_route_mods == 1
        plane.fail_shard(0)
        plane.takeover(0)
        sim.run(until=sim.now + 5.0)
        assert shard0.rfserver.pending_route_mods == 0
        assert shard1.rfserver.pending_route_mods == 1
        assert plane.orphaned_parked_route_mods() == []
        dead_installed = shard0.rfproxy.flows_installed
        # The awaited gateway address lands on a VM the adopter now hosts.
        shard1.rfserver.vms[2].interfaces["eth1"].configure_ip(gateway, 30)
        sim.run(until=sim.now + 5.0)
        assert shard1.rfserver.pending_route_mods == 0
        assert (1, "203.0.113.0/24") in shard1.rfproxy.installed_flows
        assert (1, "203.0.113.0/24") not in shard0.rfproxy.installed_flows
        assert shard0.rfproxy.flows_installed == dead_installed


def record_families(rfserver):
    """Every per-dpid record an RFServer and its RFProxy keep, by family;
    each record leads with its dpid (VM ids equal dpids here)."""
    proxy = rfserver.rfproxy
    return {
        "vms": {(vm_id,) for vm_id in rfserver.vms},
        "rfclients": {(vm_id,) for vm_id in rfserver.rfclients},
        "mapping": {(dpid,) for dpid in rfserver.mapping.mapped_datapaths},
        "indexed addresses": {(vm.vm_id, str(address)) for address, (vm, _)
                              in rfserver._ip_index.items()},
        "parked RouteMods": set(rfserver.parked()),
        "installed flows": set(proxy.installed_flows),
        "pending connected": set(proxy._pending_connected),
        "hosts": {(host.datapath_id, str(address))
                  for address, host in proxy.hosts.items()},
        "gateway ARP": set(proxy._gateway_arp_sent),
    }


class TestHandOver:
    def test_hand_over_conserves_every_record_family(self, sim):
        """Handing a dpid over leaves none of its records on the source
        and loses or invents none: per family, the union of source and
        target is unchanged, and the other dpid's records stay put."""
        plane = ShardedControlPlane(sim, MessageBus(sim),
                                    make_partitioner("hash", 2),
                                    vm_boot_delay=0.0)
        source, target = (shard.rfserver for shard in plane.shards)
        moved, kept = 2, 4          # both on shard 0 under dpid % 2
        for dpid in (moved, kept):
            vm = plane.create_vm(dpid, num_ports=2)
            # Applied the way zebra applies an address: the VM's address
            # listener indexes it on the RFServer.
            vm.interfaces["eth1"].configure_ip(
                IPv4Address(f"10.0.{dpid}.1"), 30)
            source.receive_route_mod(RouteMod.add(
                vm_id=dpid, prefix=IPv4Network(f"203.0.{dpid}.0/24"),
                next_hop=IPv4Address("10.9.9.9"), interface="eth1").to_json())
            mac = MACAddress(f"02:00:00:00:00:0{dpid}")
            source.rfproxy.install_route(FlowSpec(
                datapath_id=dpid, prefix=IPv4Network(f"10.{dpid}.0.0/16"),
                out_port=1, src_mac=mac, dst_mac=mac))
            source.rfproxy.install_route(FlowSpec(
                datapath_id=dpid, prefix=IPv4Network(f"192.168.{dpid}.0/24"),
                out_port=2, src_mac=mac, dst_mac=None))
            host = IPv4Address(f"192.168.{dpid}.9")
            source.rfproxy.hosts[host] = HostEntry(
                ip=host, mac=mac, datapath_id=dpid, port_no=2, learned_at=0.0)
            source.rfproxy._gateway_arp_sent[
                (dpid, IPv4Address(f"192.168.{dpid}.7"))] = 0.0
        sim.run(until=1.0)  # RouteMods reach flow_specs delivery: parked
        before = {family: (records, record_families(target)[family])
                  for family, records in record_families(source).items()}
        for family, (records, _) in before.items():
            assert {r[0] for r in records} == {moved, kept}, family

        client = source.hand_over_vm(moved, moved, target)
        source.rfproxy.hand_over(moved, target.rfproxy)

        assert client is target.rfclients[moved]
        assert client.rfserver is target
        after_source = record_families(source)
        after_target = record_families(target)
        for family, (old_source, old_target) in before.items():
            assert not {r for r in after_source[family] if r[0] == moved}, \
                family
            assert after_source[family] | after_target[family] \
                == old_source | old_target, family
            assert {r for r in after_source[family] if r[0] == kept} \
                == {r for r in old_source if r[0] == kept}, family

    def test_an_assigned_but_unapplied_address_moves_with_its_vm(self, sim):
        """An address the RPC server assigned that zebra has not applied
        to the interface yet is indexed to the VM, so it moves with it."""
        plane = ShardedControlPlane(sim, MessageBus(sim),
                                    make_partitioner("hash", 2),
                                    vm_boot_delay=0.0)
        source, target = (shard.rfserver for shard in plane.shards)
        vm = plane.create_vm(2, num_ports=2)
        assigned = IPv4Address("10.0.2.1")
        source.assign_interface_address(2, "eth1", assigned, 30)
        assert vm.interfaces["eth1"].ip is None

        source.hand_over_vm(2, 2, target)

        assert assigned not in source._ip_index
        assert target._ip_index[assigned] == (vm, vm.interfaces["eth1"])


class TestFailureDetectorOnLossyBus:
    def test_takeover_deadline_tracks_heartbeat_channel_delay(self):
        """The detector's deadline is FAILURE_TIMEOUT plus the heartbeat
        channel's latency and worst-case fault delay — exactly the plain
        constant on the default direct, fault-free channel."""
        sim, framework, network, configured_at = configure_ring(4, 2)
        plane = framework.control_plane
        assert plane.effective_failure_timeout == plane.FAILURE_TIMEOUT
        framework.bus.configure_faults("routeflow.heartbeat",
                                       jitter=3.0, reorder=0.2,
                                       reorder_delay=0.5)
        assert plane.effective_failure_timeout == pytest.approx(
            plane.FAILURE_TIMEOUT + 3.5)

    def test_delayed_heartbeats_never_trigger_spurious_takeover(self):
        """Regression: heartbeat jitter close to FAILURE_TIMEOUT itself
        must not look like shard death.  With a 3 s jitter a beat can land
        ~4 s after its predecessor — past the raw 3.5 s constant — but the
        deadline stretches by the channel's worst-case delay, so a
        delayed-but-delivered beat is never mistaken for silence."""
        sim, framework, network, configured_at = configure_ring(
            8, 2, bus_faults={"routeflow.heartbeat": {"jitter": 3.0}},
            bus_fault_seed=7)
        assert configured_at is not None
        plane = framework.control_plane
        assert plane.effective_failure_timeout == pytest.approx(
            plane.FAILURE_TIMEOUT + 3.0)
        sim.run(until=sim.now + 60.0)
        assert plane.takeovers == 0
        assert plane.ownership_violations() == []
        # The detector still works: actual silence past the stretched
        # deadline is declared dead.
        plane.fail_shard(0)
        sim.run(until=sim.now + plane.effective_failure_timeout
                + 2 * plane.HEARTBEAT_INTERVAL + 1.0)
        assert plane.takeovers == 1
        assert plane.membership.owned(0) == []

    def test_replayed_takeover_announcement_is_fenced(self):
        """A duplicated or delayed TakeoverAnnouncement (lossy bus) must
        not double-count a takeover or roll ownership backwards."""
        sim, framework, network, configured_at = configure_ring(
            8, 2, partitioner="contiguous")
        assert configured_at is not None
        plane = framework.control_plane
        partition = plane.membership.owned(0)
        plane.fail_shard(0)
        plane.takeover(0)
        sim.run(until=sim.now + 5.0)
        assert plane.takeovers == 1
        owned = plane.membership.owned(1)
        stale_before = plane.stale_announcements
        replay = TakeoverAnnouncement(
            event=TakeoverAnnouncement.TAKEOVER, from_shard=0, to_shard=1,
            datapaths=list(partition), epoch=1)
        framework.bus.publish("routeflow.mapping", replay.to_json(),
                              sender="plane")
        assert plane.takeovers == 1                  # not double-applied
        assert plane.stale_announcements == stale_before + 1
        assert plane.membership.owned(1) == owned
        assert plane.ownership_violations() == []

    def test_stale_epoch_cannot_roll_ownership_backwards(self):
        """After a reshard moved a dpid forward under a newer epoch, a
        delayed announcement from an older epoch must not reclaim it."""
        sim, framework, network, configured_at = configure_ring(
            8, 2, partitioner="contiguous")
        assert configured_at is not None
        plane = framework.control_plane
        assert plane.reshard(3, 1) is True           # epoch 1: dpid 3 -> shard 1
        sim.run(until=sim.now + 5.0)
        assert plane.membership.owner_of(3) == 1
        rollback = TakeoverAnnouncement(
            event=TakeoverAnnouncement.RESHARD, from_shard=1, to_shard=0,
            datapaths=[3], epoch=1)
        framework.bus.publish("routeflow.mapping", rollback.to_json(),
                              sender="plane")
        assert plane.membership.owner_of(3) == 1                # still with shard 1
        assert plane.stale_announcements == 1
        assert plane.reshards == 1
        # A genuinely newer epoch still moves it.
        assert plane.reshard(3, 0) is True
        sim.run(until=sim.now + 5.0)
        assert plane.membership.owner_of(3) == 0


class TestReshardEvents:
    def test_reshard_event_requires_target_shard(self):
        with pytest.raises(FailureScheduleError,
                           match="reshard requires a target shard"):
            FailureEvent(1.0, FailureAction.RESHARD, 3)

    def test_reshard_event_describe(self):
        event = FailureEvent(1.0, FailureAction.RESHARD, 3, 1)
        assert event.describe() == "reshard dpid 3 -> shard 1 @ 1s"

    def test_reshard_validation_checks_dpid_and_shard_range(self):
        bad_dpid = FailureSchedule((
            FailureEvent(1.0, FailureAction.RESHARD, 99, 0),))
        with pytest.raises(FailureScheduleError, match="not in"):
            bad_dpid.validate_against([1, 2], [(1, 2)], shards=2)
        bad_shard = FailureSchedule((
            FailureEvent(1.0, FailureAction.RESHARD, 1, 5),))
        with pytest.raises(FailureScheduleError, match="no controller shard"):
            bad_shard.validate_against([1, 2], [(1, 2)], shards=2)
        # The emulator validates without a shard count: the dpid is still
        # checked, the target shard is not its business.
        bad_shard.validate_against([1, 2], [(1, 2)])

    def test_injected_failover_and_reshard_round_trip(self):
        """The failure-injection path (schedule -> emulator -> control
        plane listener) drives both new actions end to end."""
        sim, framework, network, configured_at = configure_ring(
            8, 2, partitioner="contiguous")
        assert configured_at is not None
        plane = framework.control_plane
        schedule = FailureSchedule((
            FailureEvent(5.0, FailureAction.SHARD_FAILOVER, 0),
            FailureEvent(15.0, FailureAction.SHARD_UP, 0),
            FailureEvent(25.0, FailureAction.RESHARD, 5, 0),
        ))
        network.schedule_failures(schedule)
        sim.run(until=sim.now + 40.0)
        assert plane.takeovers == 1
        assert plane.reshards == 1
        assert plane.membership.owner_of(5) == 0
        assert plane.ownership_violations() == []
