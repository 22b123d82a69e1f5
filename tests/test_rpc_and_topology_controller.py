"""Tests for the RPC client/server and the topology-controller glue."""

from __future__ import annotations

import pytest

from repro.controller import Controller, TopologyDiscovery
from repro.core import IPAddressManager, RPCClient, RPCServer
from repro.core.rpc import BGP_AS_BASE
from repro.core.config_messages import (
    EdgePortConfigMessage,
    LinkConfigMessage,
    SwitchConfigMessage,
    SwitchRemovedMessage,
)
from repro.core.topology_controller import TopologyControllerApp, build_topology_controller
from repro.net import IPv4Address, IPv4Network
from repro.quagga import parse_ospfd_conf, parse_zebra_conf
from repro.topology.emulator import EmulatedNetwork
from repro.topology.generators import linear_topology, ring_topology


@pytest.fixture
def rpc_stack(one_shard_plane):
    """A one-shard control plane + RPC server/client with fast VM boots."""
    plane = one_shard_plane(vm_boot_delay=0.5)
    rpc_server = RPCServer(plane.sim, plane, ipam=IPAddressManager())
    rpc_client = RPCClient(plane.sim, rpc_server)
    return plane, rpc_server, rpc_client


def send_switch(rpc_client, switch_id, ports=2):
    rpc_client.send(SwitchConfigMessage(switch_id=switch_id, num_ports=ports))


def send_link(rpc_client, dpid_a, port_a, dpid_b, port_b, base="172.16.0"):
    rpc_client.send(LinkConfigMessage(
        dpid_a=dpid_a, port_a=port_a, address_a=f"{base}.1",
        dpid_b=dpid_b, port_b=port_b, address_b=f"{base}.2", prefix_len=30))


class TestRPCServer:
    def test_switch_config_creates_vm_and_configs(self, sim, rpc_stack):
        plane, rpc_server, rpc_client = rpc_stack
        send_switch(rpc_client, 1, ports=3)
        sim.run(until=5.0)
        vm = plane.vm(1)
        assert vm is not None and vm.is_running
        assert vm.num_ports == 3
        assert plane.shards[0].rfserver.mapping.dpid_for_vm(1) == 1
        assert "zebra.conf" in vm.config_files
        assert "ospfd.conf" in vm.config_files
        assert "bgpd.conf" in vm.config_files
        parsed = parse_ospfd_conf(vm.config_files["ospfd.conf"])
        assert parsed.router_id == IPAddressManager().router_id(1)

    def test_switch_config_is_idempotent(self, sim, rpc_stack):
        plane, rpc_server, rpc_client = rpc_stack
        send_switch(rpc_client, 1)
        send_switch(rpc_client, 1)
        sim.run(until=5.0)
        assert plane.vm_count == 1

    def test_switch_configured_callback_fires(self, sim, rpc_stack):
        _, rpc_server, rpc_client = rpc_stack
        configured = []
        rpc_server.on_switch_configured(configured.append)
        send_switch(rpc_client, 7)
        sim.run(until=5.0)
        assert configured == [7]

    def test_link_config_assigns_addresses_and_wires_vms(self, sim, rpc_stack):
        plane, rpc_server, rpc_client = rpc_stack
        send_switch(rpc_client, 1)
        send_switch(rpc_client, 2)
        sim.run(until=2.0)
        send_link(rpc_client, 1, 1, 2, 1)
        sim.run(until=6.0)
        vm_a, vm_b = plane.vm(1), plane.vm(2)
        assert vm_a.interface("eth1").ip == IPv4Address("172.16.0.1")
        assert vm_b.interface("eth1").ip == IPv4Address("172.16.0.2")
        assert plane.rfvs.is_connected(vm_a.interface("eth1"), vm_b.interface("eth1"))
        zebra_conf = parse_zebra_conf(vm_a.config_files["zebra.conf"])
        assert zebra_conf.interface("eth1").prefix_len == 30
        ospf_conf = parse_ospfd_conf(vm_a.config_files["ospfd.conf"])
        assert any(str(n.prefix) == "172.16.0.0/30" for n in ospf_conf.networks)
        assert rpc_server.configured_link_count == 1

    def test_duplicate_link_config_ignored(self, sim, rpc_stack):
        plane, rpc_server, rpc_client = rpc_stack
        send_switch(rpc_client, 1)
        send_switch(rpc_client, 2)
        sim.run(until=2.0)
        send_link(rpc_client, 1, 1, 2, 1)
        send_link(rpc_client, 2, 1, 1, 1)  # same link, reversed direction
        sim.run(until=6.0)
        assert rpc_server.configured_link_count == 1

    def test_link_config_before_switch_config_is_deferred(self, sim, rpc_stack):
        plane, rpc_server, rpc_client = rpc_stack
        send_link(rpc_client, 1, 1, 2, 1)
        sim.run(until=1.0)
        assert rpc_server.configured_link_count == 0
        send_switch(rpc_client, 1)
        send_switch(rpc_client, 2)
        sim.run(until=6.0)
        assert rpc_server.configured_link_count == 1
        assert plane.vm(1).interface("eth1").ip is not None

    def test_edge_port_config(self, sim, rpc_stack):
        plane, rpc_server, rpc_client = rpc_stack
        send_switch(rpc_client, 3)
        sim.run(until=2.0)
        rpc_client.send(EdgePortConfigMessage(datapath_id=3, port_no=2,
                                              gateway="192.168.9.1", prefix_len=24))
        sim.run(until=5.0)
        vm = plane.vm(3)
        assert vm.interface("eth2").ip == IPv4Address("192.168.9.1")
        owner = plane.shards[0].rfserver.interface_owning_ip(
            IPv4Address("192.168.9.1"))
        assert owner is not None and owner[0] is vm

    def test_switch_removed_stops_vm(self, sim, rpc_stack):
        plane, rpc_server, rpc_client = rpc_stack
        send_switch(rpc_client, 1)
        sim.run(until=2.0)
        rpc_client.send(SwitchRemovedMessage(switch_id=1))
        sim.run(until=4.0)
        assert not plane.vm(1).is_running
        assert plane.shards[0].rfserver.mapping.dpid_for_vm(1) is None

    def test_bgp_config_lists_link_neighbors(self, sim, rpc_stack):
        plane, rpc_server, rpc_client = rpc_stack
        send_switch(rpc_client, 1)
        send_switch(rpc_client, 2)
        sim.run(until=2.0)
        send_link(rpc_client, 1, 1, 2, 1)
        sim.run(until=6.0)
        from repro.quagga import parse_bgpd_conf

        bgp_a = parse_bgpd_conf(plane.vm(1).config_files["bgpd.conf"])
        assert bgp_a.local_as == BGP_AS_BASE + 1
        assert any(n.address == IPv4Address("172.16.0.2") for n in bgp_a.neighbors)

    def test_event_log_records_configuration_steps(self, sim, rpc_stack):
        """Every configuration step leaves its state behind: both VMs run
        and report configured, their files are written, the link is
        configured and wired."""
        plane, rpc_server, rpc_client = rpc_stack
        configured = []
        rpc_server.on_switch_configured(configured.append)
        send_switch(rpc_client, 1)
        send_switch(rpc_client, 2)
        sim.run(until=2.0)
        send_link(rpc_client, 1, 1, 2, 1)
        sim.run(until=6.0)
        vm_a, vm_b = plane.vm(1), plane.vm(2)
        assert sorted(configured) == [1, 2]
        assert vm_a.is_running and vm_b.is_running
        for vm in (vm_a, vm_b):
            assert set(vm.config_files) == {"zebra.conf", "ospfd.conf",
                                            "bgpd.conf"}
        assert rpc_server.configured_link_count == 1
        assert plane.rfvs.is_connected(vm_a.interface("eth1"),
                                       vm_b.interface("eth1"))


class TestTopologyControllerApp:
    def build(self, plane, topology, detect_edge_ports=True, grace=3.0):
        """Discovery and RPC in front of a one-shard plane (fast boots);
        ``self.sent`` collects every configuration message the app sends."""
        sim = plane.sim
        ipam = IPAddressManager()
        rpc_server = RPCServer(sim, plane, ipam=ipam)
        rpc_client = RPCClient(sim, rpc_server)
        self.sent = []
        send = rpc_client.send
        rpc_client.send = lambda message: (self.sent.append(message),
                                           send(message))
        controller, discovery, app = build_topology_controller(
            sim, rpc_client, ipam=ipam, probe_interval=2.0,
            edge_port_grace=grace, detect_edge_ports=detect_edge_ports)
        network = EmulatedNetwork(sim, topology, ipam=ipam)
        network.connect_control_plane(controller.accept_channel, controller)
        return plane, rpc_server, app, network

    def test_switch_and_link_messages_sent(self, sim, one_shard_plane):
        plane, rpc_server, app, _ = self.build(
            one_shard_plane(0.2), ring_topology(4), detect_edge_ports=False)
        sim.run(until=20.0)
        kinds = [type(message) for message in self.sent]
        assert kinds.count(SwitchConfigMessage) == 4
        assert kinds.count(LinkConfigMessage) == 4
        assert app.known_switches == [1, 2, 3, 4]
        assert rpc_server.configured_link_count == 4
        assert plane.vm_count == 4

    def test_each_physical_link_announced_once(self, sim, one_shard_plane):
        _, rpc_server, app, _ = self.build(
            one_shard_plane(0.2), linear_topology(3), detect_edge_ports=False)
        sim.run(until=30.0)
        assert sum(isinstance(message, LinkConfigMessage)
                   for message in self.sent) == 2
        assert app.known_link_count == 2

    def test_edge_ports_detected_after_grace(self, sim, one_shard_plane):
        topology = linear_topology(2)
        topology.attach_host("h1", 1)
        plane, rpc_server, app, network = self.build(
            one_shard_plane(0.2), topology, grace=3.0)
        sim.run(until=30.0)
        assert app.edge_port_count == 1
        info = network.hosts["h1"]
        vm = plane.vm(info.datapath_id)
        gateway_iface = vm.interface(f"eth{info.port_no}")
        assert gateway_iface.ip == info.gateway

    def test_edge_detection_disabled(self, sim, one_shard_plane):
        topology = linear_topology(2)
        topology.attach_host("h1", 1)
        _, _, app, _ = self.build(one_shard_plane(0.2), topology,
                                  detect_edge_ports=False)
        sim.run(until=30.0)
        assert app.edge_port_count == 0

    def test_inter_switch_ports_never_become_edges(self, sim, one_shard_plane):
        _, _, app, _ = self.build(one_shard_plane(0.2), ring_topology(4),
                                  grace=3.0)
        sim.run(until=30.0)
        assert app.edge_port_count == 0
