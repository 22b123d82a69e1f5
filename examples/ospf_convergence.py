#!/usr/bin/env python3
"""Drive the Quagga substrate directly: three VMs forming OSPF adjacencies.

This example skips the OpenFlow/controller layers entirely and exercises the
routing control platform the way RouteFlow does internally: three virtual
machines are wired in a line by the RouteFlow virtual switch, each boots
zebra + ospfd from generated configuration files, and the script prints the
adjacency states and routing tables as the protocol converges.

Run with:  python examples/ospf_convergence.py
"""

from __future__ import annotations

from repro.net import IPv4Address, IPv4Network
from repro.quagga import InterfaceConfig, OSPFNetworkStatement, generate_ospfd_conf, generate_zebra_conf
from repro.routeflow import RFVirtualSwitch, VirtualMachine
from repro.sim import Simulator


def configure(vm: VirtualMachine, router_id: str, interfaces) -> None:
    iface_configs = [InterfaceConfig(name, IPv4Address(ip), plen)
                     for name, ip, plen in interfaces]
    vm.write_config_file("zebra.conf", generate_zebra_conf(vm.name, iface_configs))
    statements = [OSPFNetworkStatement(IPv4Network((IPv4Address(ip), plen)))
                  for _, ip, plen in interfaces]
    vm.write_config_file("ospfd.conf", generate_ospfd_conf(
        f"{vm.name}-ospfd", IPv4Address(router_id), statements,
        hello_interval=5, dead_interval=20))


def main() -> None:
    sim = Simulator()
    rfvs = RFVirtualSwitch(sim)
    vms = {index: VirtualMachine(sim, vm_id=index, num_ports=2, boot_delay=2.0)
           for index in (1, 2, 3)}
    rfvs.connect(vms[1].interface("eth1"), vms[2].interface("eth1"))
    rfvs.connect(vms[2].interface("eth2"), vms[3].interface("eth1"))

    configure(vms[1], "10.0.0.1", [("eth1", "172.16.0.1", 30), ("eth2", "192.168.1.1", 24)])
    configure(vms[2], "10.0.0.2", [("eth1", "172.16.0.2", 30), ("eth2", "172.16.0.5", 30)])
    configure(vms[3], "10.0.0.3", [("eth1", "172.16.0.6", 30), ("eth2", "192.168.3.1", 24)])
    for vm in vms.values():
        vm.start()

    for checkpoint in (10.0, 30.0, 60.0):
        sim.run(until=checkpoint)
        print(f"===== t = {checkpoint:.0f} s =====")
        for vm in vms.values():
            print(vm.ospf.show_ip_ospf_neighbor())
        print()

    print("===== final routing tables =====")
    for vm in vms.values():
        print(vm.zebra.show_ip_route())
        print()

    remote = IPv4Network("192.168.3.0/24")
    route = vms[1].zebra.fib.get(remote)
    print(f"VM-1's route to {remote}: {route}")


if __name__ == "__main__":
    main()
