"""Tests for the software OpenFlow switch against a scripted controller."""

from __future__ import annotations

import struct
from typing import List

import pytest

from repro.net import Ethernet, EtherType, IPv4, IPv4Address, MACAddress, UDP
from repro.net.ipv4 import IPProtocol
from repro.net.link import Interface, connect
from repro.openflow import (
    BarrierReply,
    BarrierRequest,
    ControlChannel,
    EchoReply,
    EchoRequest,
    ErrorMessage,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    Hello,
    Match,
    OFPFlowModCommand,
    OFPPort,
    OpenFlowMessage,
    OpenFlowSwitch,
    OutputAction,
    PacketIn,
    PacketOut,
    PortStatus,
    SetDlDstAction,
)
from repro.openflow.actions import UnknownAction
from repro.openflow.constants import (
    OFP_NO_BUFFER,
    OFPActionType,
    OFPBadActionCode,
    OFPBadRequestCode,
    OFPErrorType,
    OFPFlowModFailedCode,
    OFPFlowModFlags,
    OFPType,
)
from repro.openflow.messages import UnknownMessage


class ScriptedController:
    """A channel endpoint that records every message from the switch."""

    def __init__(self, sim):
        self.sim = sim
        self.channel = None
        self.messages: List[OpenFlowMessage] = []

    def attach(self, switch: OpenFlowSwitch, latency: float = 0.001) -> ControlChannel:
        self.channel = ControlChannel(self.sim, latency=latency, name="test")
        self.channel.connect(switch, self)
        switch.connect_to_controller(self.channel)
        # Play the controller's half of the handshake.
        self.send(Hello(xid=1))
        self.send(FeaturesRequest(xid=2))
        return self.channel

    def channel_receive(self, channel, data: bytes) -> None:
        self.messages.append(OpenFlowMessage.decode(data))

    def channel_closed(self, channel) -> None:
        pass

    def send(self, message: OpenFlowMessage) -> None:
        self.channel.send(self, message.encode())

    def of_type(self, klass) -> List[OpenFlowMessage]:
        return [m for m in self.messages if isinstance(m, klass)]

    def errors(self) -> List[tuple]:
        """(type, code, xid) of every ERROR the switch sent."""
        return [(m.error_type, m.code, m.xid)
                for m in self.of_type(ErrorMessage)]


@pytest.fixture
def switch_setup(sim):
    """A 2-port switch whose data ports feed into capture interfaces."""
    switch = OpenFlowSwitch(sim, datapath_id=0x11, name="s1")
    captures = {}
    for port in (1, 2):
        iface = Interface(f"s1-eth{port}", MACAddress.from_local_id(0x11, port))
        switch.add_port(port, iface)
        peer = Interface(f"peer{port}", MACAddress.from_local_id(0x99, port))
        received = []
        peer.set_handler(lambda i, d, bucket=received: bucket.append(d))
        connect(sim, iface, peer)
        captures[port] = (peer, received)
    controller = ScriptedController(sim)
    controller.attach(switch)
    sim.run(until=1.0)
    return switch, controller, captures


def ipv4_frame(dst_ip: str, dst_mac: str = "02:00:00:00:00:ff") -> bytes:
    packet = IPv4(src=IPv4Address("10.0.0.1"), dst=IPv4Address(dst_ip),
                  protocol=IPProtocol.UDP, payload=UDP(1, 2, b"data"))
    return Ethernet(src=MACAddress("02:00:00:00:00:aa"), dst=MACAddress(dst_mac),
                    ethertype=EtherType.IPV4, payload=packet).encode()


class TestHandshake:
    def test_switch_sends_hello_and_features_reply(self, switch_setup):
        switch, controller, _ = switch_setup
        assert controller.of_type(Hello)
        replies = controller.of_type(FeaturesReply)
        assert len(replies) == 1
        assert replies[0].datapath_id == 0x11
        assert sorted(p.port_no for p in replies[0].ports) == [1, 2]
        assert switch.connected

    def test_echo_is_answered(self, sim, switch_setup):
        switch, controller, _ = switch_setup
        controller.send(EchoRequest(data=b"ping", xid=55))
        sim.run(until=2.0)
        replies = controller.of_type(EchoReply)
        assert replies and replies[-1].data == b"ping" and replies[-1].xid == 55

    def test_barrier_is_answered_with_same_xid(self, sim, switch_setup):
        switch, controller, _ = switch_setup
        controller.send(BarrierRequest(xid=77))
        sim.run(until=2.0)
        replies = controller.of_type(BarrierReply)
        assert replies and replies[-1].xid == 77

    def test_stats_request_answered(self, sim, switch_setup):
        """Stats are not implemented: a DESC request gets BAD_TYPE."""
        switch, controller, _ = switch_setup
        controller.send(UnknownMessage(OFPType.STATS_REQUEST,
                                       struct.pack("!HH", 0, 0), xid=5))
        sim.run(until=2.0)
        assert controller.errors() == [
            (OFPErrorType.BAD_REQUEST, OFPBadRequestCode.BAD_TYPE, 5)]


class TestDataPlane:
    def test_table_miss_generates_packet_in(self, sim, switch_setup):
        switch, controller, captures = switch_setup
        frame = ipv4_frame("10.9.9.9")
        peer, _ = captures[1]
        peer.send(frame)
        sim.run(until=2.0)
        packet_ins = controller.of_type(PacketIn)
        assert len(packet_ins) == 1
        assert packet_ins[0].in_port == 1
        assert packet_ins[0].total_len == len(frame)

    def test_flow_mod_then_forwarding(self, sim, switch_setup):
        switch, controller, captures = switch_setup
        match = Match.for_destination_prefix(IPv4Address("10.9.0.0"), 16)
        controller.send(FlowMod(match=match, actions=[OutputAction(2)], priority=100))
        sim.run(until=2.0)
        assert len(switch.flow_table) == 1
        peer1, _ = captures[1]
        _, received2 = captures[2]
        peer1.send(ipv4_frame("10.9.1.1"))
        sim.run(until=3.0)
        assert len(received2) == 1
        # No packet-in for the matched packet.
        assert len(controller.of_type(PacketIn)) == 0

    def test_flow_actions_rewrite_headers(self, sim, switch_setup):
        switch, controller, captures = switch_setup
        new_mac = MACAddress("02:00:00:00:00:77")
        match = Match.for_destination_prefix(IPv4Address("10.9.0.0"), 16)
        controller.send(FlowMod(match=match, priority=10,
                                actions=[SetDlDstAction(new_mac), OutputAction(2)]))
        sim.run(until=2.0)
        captures[1][0].send(ipv4_frame("10.9.1.1"))
        sim.run(until=3.0)
        _, received2 = captures[2]
        assert len(received2) == 1
        assert Ethernet.decode(received2[0]).dst == new_mac

    def test_packet_out_flood_excludes_in_port(self, sim, switch_setup):
        switch, controller, captures = switch_setup
        frame = ipv4_frame("10.1.1.1")
        controller.send(PacketOut(in_port=1, actions=[OutputAction(OFPPort.FLOOD)],
                                  data=frame))
        sim.run(until=2.0)
        assert len(captures[1][1]) == 0
        assert len(captures[2][1]) == 1

    def test_packet_out_to_specific_port(self, sim, switch_setup):
        switch, controller, captures = switch_setup
        controller.send(PacketOut(actions=[OutputAction(1)], data=b"\x00" * 20))
        sim.run(until=2.0)
        assert len(captures[1][1]) == 1

    def test_packet_out_with_buffer_id_releases_buffered_packet(self, sim, switch_setup):
        switch, controller, captures = switch_setup
        captures[1][0].send(ipv4_frame("10.9.9.9"))
        sim.run(until=2.0)
        packet_in = controller.of_type(PacketIn)[0]
        assert packet_in.buffer_id != OFP_NO_BUFFER
        controller.send(PacketOut(buffer_id=packet_in.buffer_id,
                                  in_port=packet_in.in_port,
                                  actions=[OutputAction(2)]))
        sim.run(until=3.0)
        assert len(captures[2][1]) == 1

    def test_empty_action_list_drops(self, sim, switch_setup):
        switch, controller, captures = switch_setup
        controller.send(FlowMod(match=Match.wildcard_all(), actions=[], priority=1))
        sim.run(until=2.0)
        captures[1][0].send(ipv4_frame("10.9.9.9"))
        sim.run(until=3.0)
        assert len(captures[2][1]) == 0
        assert len(controller.of_type(PacketIn)) == 0


class TestFlowModSemantics:
    def test_delete_removes_covered_entries(self, sim, switch_setup):
        switch, controller, _ = switch_setup
        for prefix, plen in (("10.9.0.0", 16), ("10.9.1.0", 24)):
            controller.send(FlowMod(
                match=Match.for_destination_prefix(IPv4Address(prefix), plen),
                actions=[OutputAction(2)], priority=plen))
        sim.run(until=2.0)
        assert len(switch.flow_table) == 2
        controller.send(FlowMod(match=Match.wildcard_all(),
                                command=OFPFlowModCommand.DELETE, actions=[]))
        sim.run(until=3.0)
        assert len(switch.flow_table) == 0
        assert not controller.of_type(ErrorMessage)

    def _refused(self, sim, controller, switch, message, error) -> None:
        """Send ``message``; the switch must answer ``error`` (type, code)
        with the message's xid and install nothing."""
        controller.send(message)
        sim.run(until=sim.now + 1.0)
        assert controller.errors() == [(*error, message.xid)]
        assert len(switch.flow_table) == 0

    def test_timeouts_are_refused(self, sim, switch_setup):
        switch, controller, _ = switch_setup
        unsupported = (OFPErrorType.FLOW_MOD_FAILED,
                       OFPFlowModFailedCode.UNSUPPORTED)
        for xid, timeouts in ((31, {"idle_timeout": 3}),
                              (32, {"hard_timeout": 30})):
            controller.messages.clear()
            self._refused(sim, controller, switch, FlowMod(
                match=Match.wildcard_all(), actions=[OutputAction(2)],
                xid=xid, **timeouts), unsupported)

    def test_send_flow_rem_flag_is_refused(self, sim, switch_setup):
        switch, controller, _ = switch_setup
        match = Match.for_destination_prefix(IPv4Address("10.9.0.0"), 16)
        self._refused(sim, controller, switch, FlowMod(
            match=match, actions=[OutputAction(2)], priority=9, xid=33,
            flags=OFPFlowModFlags.SEND_FLOW_REM),
            (OFPErrorType.FLOW_MOD_FAILED, OFPFlowModFailedCode.UNSUPPORTED))

    def test_check_overlap_rejected_with_error(self, sim, switch_setup):
        """Overlap checks are not implemented: the flag is refused even
        where nothing overlaps."""
        switch, controller, _ = switch_setup
        match = Match.for_destination_prefix(IPv4Address("10.1.0.0"), 16)
        self._refused(sim, controller, switch, FlowMod(
            match=match, actions=[OutputAction(1)], priority=5, xid=34,
            flags=OFPFlowModFlags.CHECK_OVERLAP),
            (OFPErrorType.FLOW_MOD_FAILED, OFPFlowModFailedCode.UNSUPPORTED))

    def test_unknown_action_in_flow_mod_is_refused(self, sim, switch_setup):
        switch, controller, _ = switch_setup
        set_nw_dst = UnknownAction(OFPActionType.SET_NW_DST, struct.pack(
            "!HH4s", OFPActionType.SET_NW_DST, 8, bytes(4)))
        match = Match.for_destination_prefix(IPv4Address("10.9.0.0"), 16)
        self._refused(sim, controller, switch, FlowMod(
            match=match, actions=[set_nw_dst, OutputAction(2)], xid=35),
            (OFPErrorType.BAD_ACTION, OFPBadActionCode.BAD_TYPE))

    def test_unknown_action_in_packet_out_is_refused(self, sim, switch_setup):
        switch, controller, captures = switch_setup
        strip_vlan = UnknownAction(OFPActionType.STRIP_VLAN, struct.pack(
            "!HH4x", OFPActionType.STRIP_VLAN, 8))
        self._refused(sim, controller, switch, PacketOut(
            in_port=1, actions=[strip_vlan, OutputAction(2)],
            data=ipv4_frame("10.1.1.1"), xid=36),
            (OFPErrorType.BAD_ACTION, OFPBadActionCode.BAD_TYPE))
        assert captures[2][1] == []

    def test_modify_without_match_behaves_as_add(self, sim, switch_setup):
        switch, controller, _ = switch_setup
        match = Match.for_destination_prefix(IPv4Address("10.5.0.0"), 16)
        controller.send(FlowMod(match=match, command=OFPFlowModCommand.MODIFY,
                                actions=[OutputAction(1)]))
        sim.run(until=2.0)
        assert len(switch.flow_table) == 1


class TestPortStatus:
    def test_port_state_change_notifies_controller(self, sim, switch_setup):
        switch, controller, _ = switch_setup
        switch.set_port_state(1, up=False)
        sim.run(until=2.0)
        updates = controller.of_type(PortStatus)
        assert updates
        assert updates[-1].port.port_no == 1

    def test_add_port_after_connect_notifies_controller(self, sim, switch_setup):
        switch, controller, _ = switch_setup
        iface = Interface("s1-eth3", MACAddress.from_local_id(0x11, 3))
        switch.add_port(3, iface)
        sim.run(until=2.0)
        updates = controller.of_type(PortStatus)
        assert any(u.port.port_no == 3 for u in updates)

    def test_duplicate_port_number_rejected(self, sim, switch_setup):
        switch, _, _ = switch_setup
        with pytest.raises(ValueError):
            switch.add_port(1, Interface("dup", MACAddress.from_local_id(1, 1)))
