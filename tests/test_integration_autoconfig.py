"""End-to-end integration tests of the automatic-configuration framework.

These tests assemble the full stack — emulated switches, FlowVisor, the
topology controller, the RPC path, RouteFlow VMs running OSPF, and the
RFProxy flow installation — exactly as the experiments do, but on small
topologies so they stay fast.
"""

from __future__ import annotations

import pytest

from repro.app import PingApp, VideoStreamClient, VideoStreamServer
from repro.core import AutoConfigFramework, FrameworkConfig, IPAddressManager
from repro.net import IPv4Network
from repro.sim import Simulator
from repro.topology.emulator import EmulatedNetwork
from repro.topology.generators import linear_topology, ring_topology


def fast_config(**overrides) -> FrameworkConfig:
    """A configuration tuned for quick tests (short boots and timers)."""
    defaults = dict(vm_boot_delay=1.0, ospf_hello_interval=2, ospf_dead_interval=8,
                    discovery_probe_interval=2.0, edge_port_grace=5.0,
                    monitor_interval=0.5)
    defaults.update(overrides)
    return FrameworkConfig(**defaults)


def build(sim, topology, config):
    ipam = IPAddressManager()
    framework = AutoConfigFramework(sim, config=config, ipam=ipam)
    network = EmulatedNetwork(sim, topology, ipam=ipam)
    framework.attach(network)
    return framework, network


class TestRingConfiguration:
    def test_ring4_reaches_all_milestones(self, sim):
        framework, _ = build(sim, ring_topology(4),
                             fast_config(detect_edge_ports=False))
        configured = framework.run_until_configured(max_time=300.0)
        assert configured is not None
        milestones = framework.milestones
        assert milestones["all_switches_discovered"] <= milestones["all_switches_configured"]
        assert milestones["all_switches_configured"] <= milestones["ospf_converged"]
        assert framework.configuration_complete
        assert framework.gui.all_green

    def test_every_vm_learns_every_link_prefix(self, sim):
        framework, _ = build(sim, ring_topology(4),
                             fast_config(detect_edge_ports=False))
        framework.run_until_configured(max_time=300.0)
        for vm in framework.rfserver.vms.values():
            assert len(vm.zebra.fib) == 4  # four /30 link prefixes in a 4-ring

    def test_flows_installed_on_every_switch(self, sim):
        framework, network = build(sim, ring_topology(4),
                                   fast_config(detect_edge_ports=False))
        framework.run_until_configured(max_time=300.0, settle=10.0)
        for switch in network.switches.values():
            assert len(switch.flow_table) >= 2, \
                f"{switch.name} should hold flows for remote prefixes"
        assert framework.rfproxy.flows_installed > 0

    def test_single_controller_mode_also_converges(self, sim):
        framework, _ = build(sim, ring_topology(4),
                             fast_config(detect_edge_ports=False, use_flowvisor=False))
        assert framework.flowvisor is None
        configured = framework.run_until_configured(max_time=300.0)
        assert configured is not None

    def test_parallel_vm_creation_is_faster(self):
        results = {}
        for serialize in (True, False):
            sim = Simulator()
            framework, _ = build(sim, ring_topology(6),
                                 fast_config(detect_edge_ports=False,
                                             vm_boot_delay=5.0,
                                             serialize_vm_creation=serialize))
            results[serialize] = framework.run_until_configured(max_time=600.0)
        assert results[True] is not None and results[False] is not None
        assert results[False] < results[True]


class TestDataPlaneAfterConfiguration:
    @pytest.fixture
    def configured_line(self, sim):
        """Two switches, one host on each, fully auto-configured."""
        topology = linear_topology(2)
        topology.attach_host("h1", 1)
        topology.attach_host("h2", 2)
        framework, network = build(sim, topology, fast_config())
        return framework, network

    def test_ping_works_across_the_configured_network(self, sim, configured_line):
        framework, network = configured_line
        framework.run_until_configured(max_time=300.0)
        h1, h2 = network.host("h1"), network.host("h2")
        ping = PingApp(sim, h1, h2.ip, interval=1.0)
        ping.start()
        sim.run(until=framework.configuration_time + 60.0)
        stats = ping.finish()
        assert stats.received > 0, "end-to-end reachability after auto-configuration"

    def test_video_stream_started_before_configuration_arrives(self, sim, configured_line):
        framework, network = configured_line
        server_host = network.host("h1")
        client_host = network.host("h2")
        server = VideoStreamServer(sim, server_host, client_ip=client_host.ip,
                                   frame_rate=5.0)
        client = VideoStreamClient(sim, client_host, server_ip=server_host.ip)
        server.start()
        client.start()
        configured = framework.run_until_configured(max_time=300.0)
        assert configured is not None
        sim.run(until=configured + 90.0)
        assert client.video_started
        # The stream cannot arrive before the network is configured; it should
        # arrive within a couple of minutes of the start.
        assert 0 < client.time_to_first_frame <= configured + 90.0
        assert client.stats.frames_received > 10

    def test_host_gateways_answered_by_rfproxy(self, sim, configured_line):
        framework, network = configured_line
        framework.run_until_configured(max_time=300.0)
        h1 = network.host("h1")
        h1.ping(network.host("h2").ip)
        sim.run(until=framework.configuration_time + 30.0)
        assert h1.gateway in h1.arp_table
        assert len(framework.rfproxy.hosts) >= 1


class TestFailureHandling:
    def test_link_failure_after_configuration_reroutes(self, sim):
        framework, network = build(sim, ring_topology(4),
                                   fast_config(detect_edge_ports=False))
        framework.run_until_configured(max_time=300.0, settle=5.0)
        # Fail one physical link; no port-status mirror is armed here, so
        # the mirrored virtual link stays up and the VMs never see the
        # failure: this only checks the control plane stays alive.
        network.fail_link(1, 2)
        sim.run(until=framework.configuration_time + 60.0)
        assert framework.control_plane.all_vms_running()

    @staticmethod
    def lose_switch_2(sim, controllers):
        """Close switch 2's control channel after configuration and check
        no controller lists it, and its VM is stopped and unmapped on
        every shard.  Returns the framework and the VM's addresses."""
        framework, network = build(sim, ring_topology(4),
                                   fast_config(detect_edge_ports=False,
                                               controllers=controllers))
        framework.run_until_configured(max_time=300.0)
        plane = framework.control_plane
        addresses = [iface.ip for iface in plane.vm(2).interfaces.values()
                     if iface.ip is not None]
        assert addresses
        network.control_channel(2).close()
        sim.run(until=framework.configuration_time + 20.0)
        rfservers = [s.rfserver for s in framework.shards]
        assert all(2 not in s.rfproxy.controller.connected_datapaths
                   for s in rfservers)
        assert not plane.vm(2).is_running
        assert all(s.mapping.dpid_for_vm(2) is None for s in rfservers)
        return framework, addresses

    def test_switch_connection_loss_reported(self, sim):
        self.lose_switch_2(sim, controllers=1)

    def test_switch_connection_loss_reported_sharded(self, sim):
        framework, addresses = self.lose_switch_2(sim, controllers=2)
        # The plane's directory forgets the VM: peer shards no longer
        # resolve next hops to its addresses.
        for address in addresses:
            assert framework.control_plane.interface_owning_ip(address) is None
