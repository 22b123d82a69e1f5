"""Tests for the FlowVisor slicing proxy and flowspace."""

from __future__ import annotations

import pytest

from repro.controller import Controller, ControllerApp
from repro.core.ipam import IPAddressManager
from repro.flowvisor import FlowSpace, FlowVisor, Permission, build_flowspace
from repro.net import Ethernet, EtherType, IPv4, IPv4Address, LLDP, LLDP_MULTICAST, MACAddress, UDP
from repro.net.ipv4 import IPProtocol
from repro.openflow import ErrorMessage, FlowMod, Match, OutputAction, PacketFields, PacketIn
from repro.topology.emulator import EmulatedNetwork
from repro.topology.generators import linear_topology


def lldp_frame() -> bytes:
    return Ethernet(src=MACAddress(1), dst=LLDP_MULTICAST, ethertype=EtherType.LLDP,
                    payload=LLDP(chassis_id=1, port_id=1)).encode()


def ipv4_frame() -> bytes:
    packet = IPv4(src=IPv4Address("10.0.0.1"), dst=IPv4Address("10.0.0.2"),
                  protocol=IPProtocol.UDP, payload=UDP(1, 2, b"x"))
    return Ethernet(src=MACAddress(1), dst=MACAddress(2), ethertype=EtherType.IPV4,
                    payload=packet).encode()


class TestFlowSpace:
    def test_paper_flowspace_routes_lldp_to_topology_slice(self):
        flowspace = build_flowspace("topo", ["rf"])
        fields = PacketFields.from_frame(lldp_frame())
        # The RouteFlow wildcard matches LLDP too, but sits below the
        # LLDP rule: the highest-priority matching rule decides alone.
        assert flowspace.slices_for_packet(fields) == ["topo"]

    def test_paper_flowspace_routes_ipv4_to_routeflow_slice(self):
        flowspace = build_flowspace("topo", ["rf"])
        fields = PacketFields.from_frame(ipv4_frame())
        assert flowspace.slices_for_packet(fields) == ["rf"]

    def test_read_permission_required_for_packet_in(self):
        flowspace = FlowSpace()
        flowspace.add(Match.wildcard_all(), "writer-only", Permission.WRITE)
        assert flowspace.slices_for_packet(PacketFields.from_frame(ipv4_frame())) == []

    def test_write_permission_check(self):
        flowspace = build_flowspace("topo", ["rf"])
        route_match = Match.for_destination_prefix(IPv4Address("10.0.0.0"), 24)
        assert flowspace.may_write("rf", route_match)
        lldp_match = Match.wildcard_all().set_dl_type(EtherType.LLDP)
        assert flowspace.may_write("topo", lldp_match)
        assert not flowspace.may_write("unknown", route_match)

    def test_priority_order_decides_owner(self):
        flowspace = FlowSpace()
        flowspace.add(Match.wildcard_all(), "low", priority=10)
        flowspace.add(Match.wildcard_all(), "high", priority=100)
        slices = flowspace.slices_for_packet(PacketFields.from_frame(ipv4_frame()))
        assert slices[0] == "high"

    def test_duplicate_slice_not_repeated(self):
        flowspace = FlowSpace()
        flowspace.add(Match.wildcard_all(), "s", priority=10)
        flowspace.add(Match.wildcard_all(), "s", priority=20)
        assert flowspace.slices_for_packet(PacketFields.from_frame(ipv4_frame())) == ["s"]


class CountingApp(ControllerApp):
    def __init__(self):
        super().__init__()
        self.joined = []
        self.packet_ins = []
        self.errors = []

    def on_datapath_join(self, connection):
        self.joined.append(connection.datapath_id)

    def on_packet_in(self, connection, message):
        self.packet_ins.append((connection.datapath_id, message.data))

    def on_error(self, connection, message):
        self.errors.append(message)


@pytest.fixture
def sliced_network(sim):
    """Two switches behind FlowVisor with a topology slice and an RF slice."""
    topo_controller = Controller(sim, name="topo")
    rf_controller = Controller(sim, name="rf")
    topo_app = CountingApp()
    rf_app = CountingApp()
    topo_controller.register_app(topo_app)
    rf_controller.register_app(rf_app)
    flowvisor = FlowVisor(sim, build_flowspace("topo", ["rf"]))
    flowvisor.add_slice("topo", topo_controller)
    flowvisor.add_slice("rf", rf_controller)
    network = EmulatedNetwork(sim, linear_topology(2), ipam=IPAddressManager())
    network.connect_control_plane(flowvisor.accept_switch_channel, flowvisor)
    sim.run(until=2.0)
    return flowvisor, topo_controller, rf_controller, topo_app, rf_app, network


class TestFlowVisor:
    def test_both_slices_see_every_switch(self, sliced_network):
        flowvisor, topo_controller, rf_controller, topo_app, rf_app, _ = sliced_network
        assert sorted(topo_app.joined) == [1, 2]
        assert sorted(rf_app.joined) == [1, 2]
        assert flowvisor.connected_switches == [1, 2]
        # Controllers see the true datapath features through the proxy.
        assert len(topo_controller.connection_for(1).ports) == 1

    def test_packet_in_routed_by_flowspace(self, sim, sliced_network):
        flowvisor, _, _, topo_app, rf_app, network = sliced_network
        # Inject an LLDP frame and an IPv4 frame on switch 1 port 1.
        switch = network.switch(1)
        switch._process_frame(1, lldp_frame())
        switch._process_frame(1, ipv4_frame())
        sim.run(until=4.0)
        assert any(data.startswith(lldp_frame()[:14]) for _, data in topo_app.packet_ins)
        assert all(Ethernet.decode(d).ethertype == EtherType.LLDP
                   for _, d in topo_app.packet_ins)
        rf_types = {Ethernet.decode(d).ethertype for _, d in rf_app.packet_ins}
        assert EtherType.IPV4 in rf_types and EtherType.LLDP not in rf_types
        assert flowvisor.packet_ins_routed >= 2

    def test_flow_mod_outside_flowspace_denied(self, sim, sliced_network):
        flowvisor, topo_controller, _, topo_app, _, network = sliced_network
        connection = topo_controller.connection_for(1)
        # The topology slice only owns LLDP; an IPv4 route is outside its space.
        ipv4_match = Match.for_destination_prefix(IPv4Address("10.0.0.0"), 24)
        connection.send_flow_mod(match=ipv4_match, actions=[OutputAction(1)])
        sim.run(until=4.0)
        assert flowvisor.flow_mods_denied == 1
        assert topo_app.errors, "slice should receive a permission error"
        assert len(network.switch(1).flow_table) == 0

    def test_flow_mod_inside_flowspace_forwarded(self, sim, sliced_network):
        flowvisor, _, rf_controller, _, _, network = sliced_network
        connection = rf_controller.connection_for(1)
        match = Match.for_destination_prefix(IPv4Address("10.0.0.0"), 24)
        connection.send_flow_mod(match=match, actions=[OutputAction(1)])
        sim.run(until=4.0)
        assert flowvisor.flow_mods_forwarded == 1
        assert len(network.switch(1).flow_table) == 1

    def test_barrier_reply_routed_back_with_original_xid(self, sim, sliced_network):
        from repro.openflow import BarrierReply, BarrierRequest

        flowvisor, _, rf_controller, _, _, _ = sliced_network
        connection = rf_controller.connection_for(2)
        received = []
        original_handle = rf_controller._handle

        def spy(conn, data):
            from repro.openflow import OpenFlowMessage
            message = OpenFlowMessage.decode(data)
            if isinstance(message, BarrierReply):
                received.append(message.xid)
            original_handle(conn, data)

        rf_controller._handle = spy
        connection.send(BarrierRequest(xid=4242))
        sim.run(until=4.0)
        assert received == [4242]

    def test_packet_out_forwarded_to_switch(self, sim, sliced_network):
        flowvisor, topo_controller, _, _, _, network = sliced_network
        connection = topo_controller.connection_for(1)
        before = network.switch(1).ports[1].interface.tx_packets
        connection.send_packet_out(lldp_frame(), out_port=1)
        sim.run(until=4.0)
        assert network.switch(1).ports[1].interface.tx_packets == before + 1

    def test_duplicate_slice_rejected(self, sim):
        flowvisor = FlowVisor(sim, FlowSpace())
        flowvisor.add_slice("a", Controller(sim))
        with pytest.raises(ValueError):
            flowvisor.add_slice("a", Controller(sim))
