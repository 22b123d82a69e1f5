"""Tests for RouteFlow building blocks: VM, mapping, IPC, virtual switch."""

from __future__ import annotations

import pytest

from repro.net import IPv4Address, IPv4Network, MACAddress
from repro.quagga import InterfaceConfig, generate_ospfd_conf, generate_zebra_conf
from repro.quagga.configfile import OSPFNetworkStatement
from repro.routeflow import (
    MappingError,
    MappingTable,
    RFVirtualSwitch,
    RouteMod,
    RouteModType,
    VirtualMachine,
    VMState,
)
from repro.routeflow.vm import interface_port, port_interface


class TestVirtualMachine:
    def test_interfaces_created_for_each_port(self, sim):
        vm = VirtualMachine(sim, vm_id=7, num_ports=3)
        assert sorted(vm.interfaces) == ["eth1", "eth2", "eth3"]
        assert vm.num_ports == 3
        assert vm.interfaces["eth2"].port_no == 2
        macs = {iface.mac for iface in vm.interfaces.values()}
        assert len(macs) == 3

    def test_boot_delay_gates_running_state(self, sim):
        vm = VirtualMachine(sim, vm_id=1, num_ports=1, boot_delay=5.0)
        vm.start()
        sim.run(until=4.999)
        assert vm.state == VMState.BOOTING
        assert not vm.is_running
        sim.run(until=5.0)
        assert vm.is_running

    def test_config_written_before_boot_is_applied_after_boot(self, sim):
        vm = VirtualMachine(sim, vm_id=1, num_ports=1, boot_delay=2.0)
        vm.start()
        text = generate_zebra_conf(vm.name, [InterfaceConfig("eth1", IPv4Address("10.0.0.1"), 24)])
        vm.write_config_file("zebra.conf", text)
        assert vm.interface("eth1").ip is None
        sim.run(until=3.0)
        assert vm.interface("eth1").ip == IPv4Address("10.0.0.1")
        assert IPv4Network("10.0.0.0/24") in vm.zebra.fib

    def test_ospfd_config_starts_daemon(self, sim):
        vm = VirtualMachine(sim, vm_id=1, num_ports=1, boot_delay=0.5)
        vm.start()
        vm.write_config_file("zebra.conf", generate_zebra_conf(
            vm.name, [InterfaceConfig("eth1", IPv4Address("10.0.0.1"), 24)]))
        vm.write_config_file("ospfd.conf", generate_ospfd_conf(
            "o", IPv4Address("1.1.1.1"),
            [OSPFNetworkStatement(IPv4Network("10.0.0.0/24"))]))
        sim.run(until=5.0)
        assert vm.ospf is not None
        assert vm.ospf.running
        assert "eth1" in vm.ospf.interfaces

    def test_unknown_config_file_ignored(self, sim):
        vm = VirtualMachine(sim, vm_id=1, num_ports=1, boot_delay=0.1)
        vm.start()
        sim.run(until=1.0)
        vm.write_config_file("ripd.conf", "hostname rip\n")
        assert "ripd.conf" in vm.config_files

    def test_owns_ip(self, sim):
        vm = VirtualMachine(sim, vm_id=1, num_ports=2, boot_delay=0.1)
        vm.start()
        vm.write_config_file("zebra.conf", generate_zebra_conf(
            vm.name, [InterfaceConfig("eth2", IPv4Address("172.16.0.5"), 30)]))
        sim.run(until=1.0)
        assert vm.owns_ip(IPv4Address("172.16.0.5")).name == "eth2"
        assert vm.owns_ip(IPv4Address("172.16.0.9")) is None

    def test_stop_prevents_further_activity(self, sim):
        vm = VirtualMachine(sim, vm_id=1, num_ports=1, boot_delay=0.1)
        vm.start()
        sim.run(until=1.0)
        vm.stop()
        assert vm.state == VMState.STOPPED
        assert not vm.is_running

    def test_add_port_after_creation(self, sim):
        vm = VirtualMachine(sim, vm_id=1, num_ports=1)
        iface = vm.add_port(2)
        assert iface.name == "eth2"
        assert vm.add_port(2) is iface  # idempotent


class TestMappingTable:
    def test_vm_and_port_mapping(self):
        table = MappingTable()
        table.map_vm(1, 0x11)
        assert table.dpid_for_vm(1) == 0x11
        assert table.vm_for_dpid(0x11) == 1
        assert table.mapped_datapaths == [0x11]
        # Ports need no table: eth<N> mirrors port N, for N >= 1 only.
        assert port_interface(2) == "eth2"
        assert [interface_port(name) for name in ("eth1", "eth12")] == [1, 12]
        for name in ("eth0", "eth01", "eth", "eth-1", "lo", "veth1"):
            assert interface_port(name) is None

    def test_conflicting_vm_mapping_rejected(self):
        table = MappingTable()
        table.map_vm(1, 0x11)
        with pytest.raises(MappingError):
            table.map_vm(1, 0x22)
        with pytest.raises(MappingError):
            table.map_vm(2, 0x11)

    def test_remapping_same_pair_is_idempotent(self):
        table = MappingTable()
        table.map_vm(1, 0x11)
        table.map_vm(1, 0x11)
        assert table.mapped_datapaths == [0x11]

    def test_unmap_vm_clears_ports(self):
        """Unmapped, the switch's ports lead to no VM interface: neither
        direction of the association survives."""
        table = MappingTable()
        table.map_vm(1, 0x11)
        table.unmap_vm(1)
        assert table.dpid_for_vm(1) is None
        assert table.vm_for_dpid(0x11) is None
        assert table.mapped_datapaths == []
        table.map_vm(2, 0x11)  # the switch is free for another VM
        assert table.vm_for_dpid(0x11) == 2

    def test_missing_lookups_return_none(self):
        table = MappingTable()
        assert table.vm_for_dpid(5) is None
        assert table.dpid_for_vm(5) is None


class TestRouteMod:
    def test_add_roundtrip_via_json(self):
        message = RouteMod.add(vm_id=3, prefix=IPv4Network("10.1.0.0/24"),
                               next_hop=IPv4Address("172.16.0.2"), interface="eth1",
                               metric=20)
        decoded = RouteMod.from_json(message.to_json())
        assert decoded.mod_type == RouteModType.ADD
        assert decoded.vm_id == 3
        assert decoded.prefix_network == IPv4Network("10.1.0.0/24")
        assert decoded.next_hop_address == IPv4Address("172.16.0.2")
        assert decoded.interface == "eth1"
        assert decoded.metric == 20
        assert not decoded.is_connected

    def test_connected_route(self):
        message = RouteMod.add(vm_id=1, prefix=IPv4Network("192.168.0.0/24"),
                               next_hop=None, interface="eth2")
        decoded = RouteMod.from_json(message.to_json())
        assert decoded.is_connected
        assert decoded.next_hop_address is None

    def test_delete_roundtrip(self):
        message = RouteMod.delete(vm_id=1, prefix=IPv4Network("10.1.0.0/24"))
        decoded = RouteMod.from_json(message.to_json())
        assert decoded.mod_type == RouteModType.DELETE

    def test_non_routemod_json_rejected(self):
        with pytest.raises(ValueError):
            RouteMod.from_json('{"kind": "other"}')


class TestRFVirtualSwitch:
    def test_connect_creates_wire(self, sim):
        rfvs = RFVirtualSwitch(sim)
        vm_a = VirtualMachine(sim, 1, 1)
        vm_b = VirtualMachine(sim, 2, 1)
        link = rfvs.connect(vm_a.interface("eth1"), vm_b.interface("eth1"))
        assert len(rfvs) == 1
        assert rfvs.is_connected(vm_a.interface("eth1"), vm_b.interface("eth1"))
        assert link.up

    def test_connect_is_idempotent(self, sim):
        rfvs = RFVirtualSwitch(sim)
        vm_a = VirtualMachine(sim, 1, 1)
        vm_b = VirtualMachine(sim, 2, 1)
        first = rfvs.connect(vm_a.interface("eth1"), vm_b.interface("eth1"))
        second = rfvs.connect(vm_b.interface("eth1"), vm_a.interface("eth1"))
        assert first is second
        assert len(rfvs) == 1

    def test_interface_already_wired_elsewhere_rejected(self, sim):
        rfvs = RFVirtualSwitch(sim)
        vm_a = VirtualMachine(sim, 1, 2)
        vm_b = VirtualMachine(sim, 2, 2)
        vm_c = VirtualMachine(sim, 3, 2)
        rfvs.connect(vm_a.interface("eth1"), vm_b.interface("eth1"))
        with pytest.raises(ValueError):
            rfvs.connect(vm_a.interface("eth1"), vm_c.interface("eth1"))

    def test_disconnect(self, sim):
        rfvs = RFVirtualSwitch(sim)
        vm_a = VirtualMachine(sim, 1, 1)
        vm_b = VirtualMachine(sim, 2, 1)
        rfvs.connect(vm_a.interface("eth1"), vm_b.interface("eth1"))
        assert rfvs.disconnect(vm_a.interface("eth1"), vm_b.interface("eth1")) is True
        assert len(rfvs) == 0
        assert vm_a.interface("eth1").link is None
        # Disconnecting again is a no-op.
        assert rfvs.disconnect(vm_a.interface("eth1"), vm_b.interface("eth1")) is False
