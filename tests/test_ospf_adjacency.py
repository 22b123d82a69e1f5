"""Integration tests: OSPF adjacency formation between RouteFlow VMs.

These tests drive real VirtualMachine instances wired together by the
RouteFlow virtual switch, booting zebra + ospfd from generated Quagga
configuration files — the same path the RPC server exercises.
"""

from __future__ import annotations

import pytest

from repro.net import IPv4Address, IPv4Network
from repro.quagga import (
    InterfaceConfig,
    OSPFNetworkStatement,
    generate_ospfd_conf,
    generate_zebra_conf,
)
from repro.quagga.ospf.constants import INITIAL_SEQUENCE, NeighborState
from repro.routeflow import RFVirtualSwitch, VirtualMachine
from repro.sim import Simulator


def configure_vm(vm: VirtualMachine, router_id: str,
                 interfaces: list, hello: int = 2) -> None:
    """Write zebra.conf + ospfd.conf covering the given (name, ip, plen) list."""
    iface_configs = [InterfaceConfig(name, IPv4Address(ip), plen)
                     for name, ip, plen in interfaces]
    vm.write_config_file("zebra.conf", generate_zebra_conf(vm.name, iface_configs))
    statements = [OSPFNetworkStatement(IPv4Network((IPv4Address(ip), plen)))
                  for _, ip, plen in interfaces]
    vm.write_config_file("ospfd.conf", generate_ospfd_conf(
        f"{vm.name}-ospfd", IPv4Address(router_id), statements,
        hello_interval=hello, dead_interval=4 * hello))


@pytest.fixture
def linked_pair(sim):
    """Two VMs with one point-to-point link, booted and configured."""
    rfvs = RFVirtualSwitch(sim)
    vm_a = VirtualMachine(sim, vm_id=1, num_ports=2, boot_delay=1.0)
    vm_b = VirtualMachine(sim, vm_id=2, num_ports=2, boot_delay=1.0)
    rfvs.connect(vm_a.interface("eth1"), vm_b.interface("eth1"))
    configure_vm(vm_a, "10.0.0.1", [("eth1", "172.16.0.1", 30),
                                    ("eth2", "192.168.1.1", 24)])
    configure_vm(vm_b, "10.0.0.2", [("eth1", "172.16.0.2", 30),
                                    ("eth2", "192.168.2.1", 24)])
    vm_a.start()
    vm_b.start()
    return vm_a, vm_b, rfvs


class TestAdjacency:
    def test_full_adjacency_forms(self, sim, linked_pair):
        vm_a, vm_b, _ = linked_pair
        sim.run(until=30.0)
        assert vm_a.ospf is not None and vm_b.ospf is not None
        assert vm_a.ospf.full_neighbor_count == 1
        assert vm_b.ospf.full_neighbor_count == 1
        neighbor = vm_a.ospf.interfaces["eth1"].neighbors[IPv4Address("10.0.0.2")]
        assert neighbor.state == NeighborState.FULL
        assert neighbor.address == IPv4Address("172.16.0.2")

    def test_lsdbs_synchronise(self, sim, linked_pair):
        vm_a, vm_b, _ = linked_pair
        sim.run(until=30.0)
        keys_a = {lsa.key for lsa in vm_a.ospf.lsdb.lsas}
        keys_b = {lsa.key for lsa in vm_b.ospf.lsdb.lsas}
        assert keys_a == keys_b
        assert len(keys_a) == 2

    def test_remote_stub_routes_installed(self, sim, linked_pair):
        vm_a, vm_b, _ = linked_pair
        sim.run(until=30.0)
        remote = IPv4Network("192.168.2.0/24")
        assert remote in vm_a.zebra.fib
        route = vm_a.zebra.fib[remote]
        assert route.source == "ospf"
        assert route.next_hop == IPv4Address("172.16.0.2")
        assert route.interface == "eth1"
        # And symmetrically on the other VM.
        assert IPv4Network("192.168.1.0/24") in vm_b.zebra.fib

    def test_connected_routes_not_overridden(self, sim, linked_pair):
        vm_a, _, _ = linked_pair
        sim.run(until=30.0)
        link_prefix = IPv4Network("172.16.0.0/30")
        assert vm_a.zebra.fib[link_prefix].source == "connected"

    def test_neighbor_dead_timer_withdraws_routes(self, sim, linked_pair):
        vm_a, vm_b, rfvs = linked_pair
        sim.run(until=30.0)
        assert IPv4Network("192.168.2.0/24") in vm_a.zebra.fib
        rfvs.disconnect(vm_a.interface("eth1"), vm_b.interface("eth1"))
        sim.run(until=80.0)
        assert vm_a.ospf.full_neighbor_count == 0
        assert IPv4Network("192.168.2.0/24") not in vm_a.zebra.fib

    def test_show_ip_ospf_neighbor_lists_peer(self, sim, linked_pair):
        vm_a, _, _ = linked_pair
        sim.run(until=30.0)
        output = vm_a.ospf.show_ip_ospf_neighbor()
        assert "10.0.0.2" in output
        assert "Full" in output

    def test_spf_run_counters(self, sim, linked_pair):
        vm_a, _, _ = linked_pair
        sim.run(until=30.0)
        assert vm_a.ospf.spf_runs >= 1
        # The self-originated Router LSA was re-originated after the
        # adjacency came up: initial origination + at least one more.
        own = vm_a.ospf.lsdb.router_lsa(vm_a.ospf.router_id)
        assert own.header.sequence >= INITIAL_SEQUENCE + 1


class TestThreeNodeLine:
    def build(self, sim, hello=2):
        rfvs = RFVirtualSwitch(sim)
        vms = {i: VirtualMachine(sim, vm_id=i, num_ports=2, boot_delay=0.5)
               for i in (1, 2, 3)}
        rfvs.connect(vms[1].interface("eth1"), vms[2].interface("eth1"))
        rfvs.connect(vms[2].interface("eth2"), vms[3].interface("eth1"))
        configure_vm(vms[1], "10.0.0.1", [("eth1", "172.16.0.1", 30),
                                          ("eth2", "192.168.1.1", 24)], hello)
        configure_vm(vms[2], "10.0.0.2", [("eth1", "172.16.0.2", 30),
                                          ("eth2", "172.16.0.5", 30)], hello)
        configure_vm(vms[3], "10.0.0.3", [("eth1", "172.16.0.6", 30),
                                          ("eth2", "192.168.3.1", 24)], hello)
        for vm in vms.values():
            vm.start()
        return vms

    def test_multi_hop_route_via_middle_router(self, sim):
        vms = self.build(sim)
        sim.run(until=60.0)
        remote = IPv4Network("192.168.3.0/24")
        assert remote in vms[1].zebra.fib
        route = vms[1].zebra.fib[remote]
        # Next hop is the middle router's interface towards VM 1.
        assert route.next_hop == IPv4Address("172.16.0.2")
        assert route.metric == 30  # two p2p hops + stub cost

    def test_every_vm_learns_every_prefix(self, sim):
        vms = self.build(sim)
        sim.run(until=60.0)
        all_prefixes = {IPv4Network("172.16.0.0/30"), IPv4Network("172.16.0.4/30"),
                        IPv4Network("192.168.1.0/24"), IPv4Network("192.168.3.0/24")}
        for vm in vms.values():
            assert all_prefixes.issubset(set(vm.zebra.fib))

    def test_flooding_reaches_non_adjacent_router(self, sim):
        vms = self.build(sim)
        sim.run(until=60.0)
        assert vms[1].ospf.lsdb.router_lsa(IPv4Address("10.0.0.3")) is not None
