"""Unit tests for the RFServer / RFProxy route-to-flow pipeline.

These complement the end-to-end tests in test_integration_autoconfig.py by
exercising the RouteMod processing, next-hop resolution, host learning and
flow withdrawal logic against a real controller and switches but with the
configuration injected directly (no discovery / RPC in the loop).
"""

from __future__ import annotations

import pytest

from repro.net import ARP, Ethernet, EtherType, IPv4Address, IPv4Network, MACAddress
from repro.quagga import InterfaceConfig, generate_zebra_conf
from repro.routeflow import RouteMod
from repro.topology.emulator import EmulatedNetwork
from repro.topology.generators import linear_topology


@pytest.fixture
def pipeline(sim, one_shard_plane):
    """Two switches connected to an RF-controller, mirrored by two VMs."""
    plane = one_shard_plane(vm_boot_delay=0.2)
    shard = plane.shards[0]
    controller, rfproxy, rfserver = shard.controller, shard.rfproxy, shard.rfserver
    network = EmulatedNetwork(sim, linear_topology(2))
    network.connect_control_plane(controller.accept_channel, controller)
    for vm_id in (1, 2):
        rfserver.create_vm(vm_id=vm_id, num_ports=2)
    # Addressing: eth1 is the inter-switch link, eth2 faces hosts.
    configs = {
        1: [InterfaceConfig("eth1", IPv4Address("172.16.0.1"), 30),
            InterfaceConfig("eth2", IPv4Address("192.168.1.1"), 24)],
        2: [InterfaceConfig("eth1", IPv4Address("172.16.0.2"), 30),
            InterfaceConfig("eth2", IPv4Address("192.168.2.1"), 24)],
    }
    for vm_id, interfaces in configs.items():
        vm = rfserver.vm(vm_id)
        plane.write_config_file(vm_id, "zebra.conf",
                                generate_zebra_conf(vm.name, interfaces))
        for iface in interfaces:
            rfserver.assign_interface_address(vm_id, iface.name, iface.ip,
                                              iface.prefix_len)
    sim.run(until=2.0)
    return sim, controller, rfproxy, rfserver, network, plane


class TestRouteModProcessing:
    def test_remote_route_becomes_flow_with_rewrites(self, pipeline):
        sim, controller, rfproxy, rfserver, network, _ = pipeline
        mod = RouteMod.add(vm_id=1, prefix=IPv4Network("192.168.2.0/24"),
                           next_hop=IPv4Address("172.16.0.2"), interface="eth1",
                           metric=20)
        rfserver.receive_route_mod(mod.to_json())
        sim.run(until=4.0)
        flows = network.switch(1).flow_table.entries
        assert len(flows) == 1
        entry = flows[0]
        assert entry.priority == 32000 + 24
        # dl_dst is rewritten to the next-hop VM interface MAC.
        next_hop_mac = rfserver.vm(2).interface("eth1").mac
        from repro.openflow import OutputAction, SetDlDstAction, SetDlSrcAction

        assert any(isinstance(a, SetDlDstAction) and a.mac == next_hop_mac
                   for a in entry.actions)
        assert any(isinstance(a, OutputAction) and a.port == 1 for a in entry.actions)

    def test_unresolvable_next_hop_is_skipped(self, pipeline):
        sim, _, rfproxy, rfserver, network, _ = pipeline
        mod = RouteMod.add(vm_id=1, prefix=IPv4Network("10.99.0.0/16"),
                           next_hop=IPv4Address("172.16.9.9"), interface="eth1")
        rfserver.receive_route_mod(mod.to_json())
        sim.run(until=4.0)
        assert len(network.switch(1).flow_table) == 0

    def test_connected_route_waits_for_host_learning(self, pipeline,
                                                     monkeypatch):
        sim, controller, rfproxy, rfserver, network, _ = pipeline
        packet_outs = []
        monkeypatch.setattr(
            controller.connection_for(1), "send_packet_out",
            lambda data, out_port: packet_outs.append((data, out_port)))
        mod = RouteMod.add(vm_id=1, prefix=IPv4Network("192.168.1.0/24"),
                           next_hop=None, interface="eth2")
        rfserver.receive_route_mod(mod.to_json())
        sim.run(until=4.0)
        assert len(network.switch(1).flow_table) == 0  # host unknown yet
        # Host 192.168.1.50 ARPs for its gateway via switch 1 port 2.
        host_mac = MACAddress("02:aa:00:00:00:01")
        arp = ARP.request(host_mac, IPv4Address("192.168.1.50"), IPv4Address("192.168.1.1"))
        frame = Ethernet(src=host_mac, dst=MACAddress.broadcast(),
                         ethertype=EtherType.ARP, payload=arp)
        network.switch(1)._process_frame(2, frame.encode())
        sim.run(until=6.0)
        assert IPv4Address("192.168.1.50") in rfproxy.hosts
        flows = network.switch(1).flow_table.entries
        assert len(flows) == 1
        assert flows[0].match.nw_dst_prefix_len == 32
        # The proxy answered for the gateway, out of the port it asked on.
        ((data, out_port),) = packet_outs
        reply = Ethernet.decode(data).payload
        assert out_port == 2 and reply.opcode == ARP.REPLY
        assert reply.sender_ip == IPv4Address("192.168.1.1")
        assert reply.sender_mac == rfserver.vm(1).interface("eth2").mac
        assert reply.target_mac == host_mac

    def test_route_delete_removes_flow(self, pipeline):
        sim, _, rfproxy, rfserver, network, _ = pipeline
        add = RouteMod.add(vm_id=1, prefix=IPv4Network("192.168.2.0/24"),
                           next_hop=IPv4Address("172.16.0.2"), interface="eth1")
        rfserver.receive_route_mod(add.to_json())
        sim.run(until=4.0)
        assert len(network.switch(1).flow_table) == 1
        delete = RouteMod.delete(vm_id=1, prefix=IPv4Network("192.168.2.0/24"))
        rfserver.receive_route_mod(delete.to_json())
        sim.run(until=6.0)
        assert len(network.switch(1).flow_table) == 0
        assert rfproxy.flows_removed >= 1

    @pytest.mark.parametrize("interface", ["eth0", "lo", "eth3"])
    def test_route_mod_outside_the_vm_ports_installs_nothing(
            self, pipeline, caplog, interface):
        """VM interface eth<N> mirrors switch port N for 1 <= N <= the
        VM's port count (2 here); any other name has no port."""
        sim, _, _, rfserver, network, _ = pipeline
        mod = RouteMod.add(vm_id=1, prefix=IPv4Network("10.7.0.0/16"),
                           next_hop=IPv4Address("172.16.0.2"),
                           interface=interface)
        with caplog.at_level("WARNING", logger="repro.routeflow.rfserver"):
            rfserver.receive_route_mod(mod.to_json())
            sim.run(until=4.0)
        assert len(network.switch(1).flow_table) == 0
        assert f"no port mapping for VM 1 iface {interface}" in caplog.text

    @pytest.mark.parametrize("port", [1, 2])
    def test_route_mod_on_eth_n_outputs_to_port_n(self, pipeline, port):
        from repro.openflow import OutputAction

        sim, _, _, rfserver, network, _ = pipeline
        mod = RouteMod.add(vm_id=1, prefix=IPv4Network("10.7.0.0/16"),
                           next_hop=IPv4Address("172.16.0.2"),
                           interface=f"eth{port}")
        rfserver.receive_route_mod(mod.to_json())
        sim.run(until=4.0)
        (entry,) = network.switch(1).flow_table.entries
        assert [a.port for a in entry.actions
                if isinstance(a, OutputAction)] == [port]

    def test_route_mod_for_unmapped_vm_ignored(self, pipeline):
        sim, _, _, rfserver, network, _ = pipeline
        mod = RouteMod.add(vm_id=99, prefix=IPv4Network("10.0.0.0/8"),
                           next_hop=IPv4Address("172.16.0.2"), interface="eth1")
        rfserver.receive_route_mod(mod.to_json())
        sim.run(until=4.0)
        assert all(len(s.flow_table) == 0 for s in network.switches.values())


class TestHostLearning:
    def test_gateway_addresses_are_not_learned_as_hosts(self, pipeline):
        sim, controller, rfproxy, rfserver, network, _ = pipeline
        # An ARP sourced from the *other VM's* gateway address must not be
        # recorded as an end host.
        gateway_mac = rfserver.vm(2).interface("eth1").mac
        arp = ARP.request(gateway_mac, IPv4Address("172.16.0.2"), IPv4Address("172.16.0.1"))
        frame = Ethernet(src=gateway_mac, dst=MACAddress.broadcast(),
                         ethertype=EtherType.ARP, payload=arp)
        network.switch(1)._process_frame(1, frame.encode())
        sim.run(until=4.0)
        assert IPv4Address("172.16.0.2") not in rfproxy.hosts

    def test_flows_on_reports_per_switch_state(self, pipeline):
        sim, _, rfproxy, rfserver, network, _ = pipeline
        mod = RouteMod.add(vm_id=2, prefix=IPv4Network("192.168.1.0/24"),
                           next_hop=IPv4Address("172.16.0.1"), interface="eth1")
        rfserver.receive_route_mod(mod.to_json())
        sim.run(until=4.0)
        assert len(rfproxy.flows_on(2)) == 1
        assert rfproxy.flows_on(1) == []

    def test_vm_count_and_configured_switches(self, pipeline):
        *_, plane = pipeline
        assert plane.vm_count == 2
        assert plane.all_vms_running()
