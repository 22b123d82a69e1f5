"""Tests for the controller framework and LLDP topology discovery."""

from __future__ import annotations

import pytest

from repro.controller import (Controller, ControllerApp, DatapathConnection,
                              DiscoveredLink, TopologyDiscovery)
from repro.core.ipam import IPAddressManager
from repro.openflow import PacketIn
from repro.openflow.channel import ControlChannel
from repro.scenarios import all_scenarios
from repro.sim import Simulator
from repro.topology.emulator import EmulatedNetwork
from repro.topology.generators import linear_topology, ring_topology


class RecordingApp(ControllerApp):
    """Collects every event for assertions."""

    def __init__(self):
        super().__init__(name="recorder")
        self.joined = []
        self.left = []
        self.packet_ins = []
        self.port_statuses = []

    def on_datapath_join(self, connection):
        self.joined.append(connection.datapath_id)

    def on_datapath_leave(self, connection):
        self.left.append(connection.datapath_id)

    def on_packet_in(self, connection, message):
        self.packet_ins.append((connection.datapath_id, message.in_port))

    def on_port_status(self, connection, message):
        self.port_statuses.append((connection.datapath_id, message.port.port_no))


def build_network(sim, topology, controller):
    network = EmulatedNetwork(sim, topology, ipam=IPAddressManager())
    network.connect_control_plane(controller.accept_channel, controller)
    return network


class TestController:
    def test_handshake_registers_datapaths(self, sim):
        controller = Controller(sim, name="c0")
        app = RecordingApp()
        controller.register_app(app)
        build_network(sim, linear_topology(3), controller)
        sim.run(until=2.0)
        assert sorted(app.joined) == [1, 2, 3]
        assert controller.connected_datapaths == [1, 2, 3]
        connection = controller.connection_for(2)
        assert connection is not None
        assert connection.handshake_complete
        assert len(connection.ports) == 2  # middle switch of a 3-chain

    def test_apps_receive_events_in_registration_order(self, sim):
        controller = Controller(sim, name="c0")
        order = []

        class First(ControllerApp):
            def on_datapath_join(self, connection):
                order.append("first")

        class Second(ControllerApp):
            def on_datapath_join(self, connection):
                order.append("second")

        controller.register_app(First())
        controller.register_app(Second())
        build_network(sim, linear_topology(2), controller)
        sim.run(until=2.0)
        assert order[:2] == ["first", "second"]

    def test_app_lookup_by_type(self, sim):
        controller = Controller(sim)
        app = RecordingApp()
        controller.register_app(app)
        assert controller.app(RecordingApp) is app
        assert controller.app(TopologyDiscovery) is None

    def test_channel_close_triggers_leave(self, sim):
        controller = Controller(sim, name="c0")
        app = RecordingApp()
        controller.register_app(app)
        network = build_network(sim, linear_topology(2), controller)
        sim.run(until=2.0)
        network.control_channel(1).close()
        sim.run(until=3.0)
        assert app.left == [1]
        assert controller.connection_for(1) is None

    def test_port_status_updates_connection_ports(self, sim):
        controller = Controller(sim, name="c0")
        app = RecordingApp()
        controller.register_app(app)
        network = build_network(sim, linear_topology(2), controller)
        sim.run(until=2.0)
        network.switch(1).set_port_state(1, up=False)
        sim.run(until=3.0)
        assert (1, 1) in app.port_statuses


def wired_links(network):
    """Both directions of every switch-to-switch link, named as discovery
    names them (dpid = node id)."""
    links = set()
    for (node_a, node_b), (port_a, port_b) in network.link_ports.items():
        links.add(DiscoveredLink(node_a, port_a, node_b, port_b))
        links.add(DiscoveredLink(node_b, port_b, node_a, port_a))
    return links


def record_probes(monkeypatch):
    """Every PACKET_OUT a controller sends, as (dpid, out port)."""
    sent = []

    def send_packet_out(connection, data, out_port):
        sent.append((connection.datapath_id, out_port))

    monkeypatch.setattr(DatapathConnection, "send_packet_out", send_packet_out)
    return sent


class TestDiscovery:
    def build(self, sim, topology, probe_interval=2.0):
        controller = Controller(sim, name="topo")
        discovery = TopologyDiscovery(probe_interval=probe_interval)
        controller.register_app(discovery)
        network = build_network(sim, topology, controller)
        return controller, discovery, network

    def test_switches_reported(self, sim):
        _, discovery, _ = self.build(sim, ring_topology(4))
        seen = []
        discovery.on_switch_discovered(lambda dpid, ports: seen.append((dpid, tuple(ports))))
        sim.run(until=3.0)
        assert sorted(d for d, _ in seen) == [1, 2, 3, 4]
        # Every ring switch has exactly two ports.
        assert all(ports == (1, 2) for _, ports in seen)

    def test_links_discovered_in_both_directions(self, sim):
        _, discovery, network = self.build(sim, linear_topology(2))
        sim.run(until=10.0)
        assert len(discovery.links) == 2  # one per direction
        assert discovery.links == wired_links(network)

    def test_ring_links_all_found(self, sim):
        _, discovery, network = self.build(sim, ring_topology(6))
        sim.run(until=15.0)
        assert len(wired_links(network)) == 12
        assert discovery.links == wired_links(network)

    def test_link_callbacks_fire_once_per_direction(self, sim):
        _, discovery, _ = self.build(sim, linear_topology(2))
        events = []
        discovery.on_link_discovered(events.append)
        sim.run(until=20.0)
        assert len(events) == 2
        first, second = events
        assert (second.src_dpid, second.src_port, second.dst_dpid, second.dst_port) \
            == (first.dst_dpid, first.dst_port, first.src_dpid, first.src_port)

    def test_a_round_after_every_link_is_known_sends_nothing(self, sim, monkeypatch):
        _, discovery, network = self.build(sim, ring_topology(4))
        sim.run(until=5.0)
        assert discovery.links == wired_links(network)
        sent = record_probes(monkeypatch)
        sim.run(until=11.0)  # three periodic rounds
        assert sent == []

    def test_a_port_status_probes_only_its_port(self, sim, monkeypatch):
        _, discovery, network = self.build(sim, ring_topology(4))
        sim.run(until=5.0)
        sent = record_probes(monkeypatch)
        network.switch(1).set_port_state(2, up=True)
        sim.run(until=5.5)  # before the round at 6
        assert sent == [(1, 2)]

    def test_an_unlinked_port_is_probed_every_round(self, sim, monkeypatch):
        topology = linear_topology(2)
        topology.attach_host("h1", 1)
        _, discovery, network = self.build(sim, topology)
        host_port = 2  # switch 1's port 1 faces switch 2
        sim.run(until=5.0)
        assert discovery.links == wired_links(network)
        sent = record_probes(monkeypatch)
        sim.run(until=11.0)  # the rounds at 6, 8 and 10
        assert sent == [(1, host_port)] * 3

    def test_a_late_joiner_learns_both_directions(self, sim):
        controller = Controller(sim, name="topo")
        discovery = TopologyDiscovery(probe_interval=2.0)
        controller.register_app(discovery)
        network = EmulatedNetwork(sim, linear_topology(2), ipam=IPAddressManager())
        network.SWITCH_CONNECT_STAGGER = 3.0  # switch 2 connects at t=3
        network.connect_control_plane(controller.accept_channel, controller)
        sim.run(until=3.5)
        # Switch 1's probes (join at 0, round at 2) reached a switch with
        # no controller; switch 2's join probe was heard on switch 1.
        port_1, port_2 = network.ports_for_link(1, 2)
        assert discovery.links == {DiscoveredLink(2, port_2, 1, port_1)}
        sim.run(until=4.5)  # the round at 4 re-probes switch 1's port
        assert discovery.links == wired_links(network)

    def test_leave_then_rejoin_relearns_the_links(self, sim):
        controller, discovery, network = self.build(sim, linear_topology(3))
        lost = []
        discovery.on_switch_lost(lost.append)
        sim.run(until=5.0)
        assert discovery.links == wired_links(network)
        network.control_channel(2).close()
        sim.run(until=5.5)
        assert lost == [2]
        assert discovery.links == set()
        channel = ControlChannel(sim, name="ctl:s2-again")
        channel.connect(network.switch(2), controller)
        controller.accept_channel(channel)
        network.switch(2).connect_to_controller(channel)
        sim.run(until=8.5)  # the rejoin's probes, then the round at 8
        assert discovery.links == wired_links(network)

    @pytest.mark.parametrize(
        "spec", [spec for spec in all_scenarios() if not spec.interdomain],
        ids=lambda spec: spec.name)
    def test_every_ospf_scenario_is_discovered_exactly(self, spec):
        sim = Simulator()
        _, discovery, network = self.build(sim, spec.build_topology())
        # Switches connect one stagger apart; then two probe rounds.
        sim.run(until=network.SWITCH_CONNECT_STAGGER * network.num_switches + 4.0)
        assert discovery.links == wired_links(network)

    def test_non_lldp_packet_in_ignored(self, sim):
        controller = Controller(sim, name="topo")
        discovery = TopologyDiscovery()
        controller.register_app(discovery)
        connection = DatapathConnection(controller, channel=None)
        connection.datapath_id = 42
        message = PacketIn(buffer_id=0, in_port=1, reason=0, data=b"not lldp")
        discovery.on_packet_in(connection, message)
        assert discovery.links == set()
