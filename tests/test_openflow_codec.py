"""Tests for the OpenFlow 1.0 wire codec: match, actions, messages."""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import Ethernet, EtherType, IPv4, IPv4Address, MACAddress, UDP
from repro.net.ipv4 import IPProtocol
from repro.net.packet import DecodeError
from repro.openflow import (
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    FlowRemoved,
    Hello,
    Match,
    OFPFlowModCommand,
    OFPPort,
    OFPType,
    OpenFlowMessage,
    OutputAction,
    PacketFields,
    PacketIn,
    PacketOut,
    PhyPort,
    PortStatus,
    SetDlDstAction,
    SetDlSrcAction,
    SetNwDstAction,
    SetNwSrcAction,
    SetTpDstAction,
    SetTpSrcAction,
    SetVlanVidAction,
    StripVlanAction,
    decode_message,
)
from repro.openflow.actions import Action, UnknownAction
from repro.openflow.constants import OFP_VERSION, OFPFlowWildcards
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    ErrorMessage,
    StatsReply,
    StatsRequest,
)

MAC = MACAddress("02:00:00:00:00:0a")
IP = IPv4Address("10.1.2.3")


def sample_frame(dst_ip="10.9.9.9", dport=80) -> bytes:
    packet = IPv4(src=IPv4Address("10.1.1.1"), dst=IPv4Address(dst_ip),
                  protocol=IPProtocol.UDP, payload=UDP(1234, dport, b"x"))
    return Ethernet(src=MACAddress(1), dst=MACAddress(2),
                    ethertype=EtherType.IPV4, payload=packet).encode()


class TestMatch:
    def test_wildcard_all_matches_everything(self):
        match = Match.wildcard_all()
        fields = PacketFields.from_frame(sample_frame(), in_port=3)
        assert match.matches(fields)

    def test_encode_length_is_40(self):
        assert len(Match.wildcard_all().encode()) == 40

    def test_roundtrip(self):
        match = Match.wildcard_all()
        match.set_in_port(7).set_dl_type(EtherType.IPV4)
        match.set_nw_dst(IPv4Address("10.9.0.0"), 16).set_tp_dst(80)
        decoded = Match.decode(match.encode())
        assert decoded == match
        assert decoded.nw_dst_prefix_len == 16

    def test_destination_prefix_match(self):
        match = Match.for_destination_prefix(IPv4Address("10.9.0.0"), 16)
        assert match.matches(PacketFields.from_frame(sample_frame("10.9.1.2")))
        assert not match.matches(PacketFields.from_frame(sample_frame("10.8.1.2")))

    def test_in_port_match(self):
        match = Match.wildcard_all().set_in_port(4)
        assert match.matches(PacketFields.from_frame(sample_frame(), in_port=4))
        assert not match.matches(PacketFields.from_frame(sample_frame(), in_port=5))

    def test_transport_port_match_requires_value(self):
        match = Match.wildcard_all().set_dl_type(EtherType.IPV4).set_tp_dst(80)
        assert match.matches(PacketFields.from_frame(sample_frame(dport=80)))
        assert not match.matches(PacketFields.from_frame(sample_frame(dport=81)))

    def test_exact_from_fields_matches_own_packet(self):
        fields = PacketFields.from_frame(sample_frame(), in_port=2)
        match = Match.exact_from_fields(fields)
        assert match.is_exact
        assert match.matches(fields)

    def test_covers_wider_prefix_covers_narrower(self):
        wide = Match.for_destination_prefix(IPv4Address("10.0.0.0"), 8)
        narrow = Match.for_destination_prefix(IPv4Address("10.9.0.0"), 16)
        assert wide.covers(narrow)
        assert not narrow.covers(wide)

    def test_covers_wildcard_all_covers_everything(self):
        assert Match.wildcard_all().covers(
            Match.for_destination_prefix(IPv4Address("10.0.0.0"), 24))

    def test_truncated_match_rejected(self):
        with pytest.raises(DecodeError):
            Match.decode(b"\x00" * 20)

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=1, max_value=32))
    def test_prefix_roundtrip_property(self, base, plen):
        match = Match.wildcard_all().set_dl_type(EtherType.IPV4)
        match.set_nw_dst(IPv4Address(base), plen)
        decoded = Match.decode(match.encode())
        assert decoded.nw_dst_prefix_len == plen
        assert decoded == match


class TestActions:
    ALL_ACTIONS = [
        OutputAction(3),
        OutputAction(OFPPort.CONTROLLER, max_len=64),
        SetVlanVidAction(101),
        StripVlanAction(),
        SetDlSrcAction(MAC),
        SetDlDstAction(MAC),
        SetNwSrcAction(IP),
        SetNwDstAction(IP),
        SetTpSrcAction(8080),
        SetTpDstAction(9090),
    ]

    def test_each_action_roundtrips(self):
        for action in self.ALL_ACTIONS:
            decoded = Action.decode_list(action.encode())
            assert len(decoded) == 1
            assert decoded[0] == action

    def test_action_list_roundtrip(self):
        encoded = Action.encode_list(self.ALL_ACTIONS)
        decoded = Action.decode_list(encoded)
        assert decoded == self.ALL_ACTIONS

    def test_lengths_are_multiples_of_8(self):
        for action in self.ALL_ACTIONS:
            assert len(action.encode()) % 8 == 0

    def test_bad_length_rejected(self):
        with pytest.raises(DecodeError):
            Action.decode_list(b"\x00\x00\x00\x04")

    def test_known_action_shorter_than_its_type_rejected(self):
        """An 8-byte SET_DL_SRC used to reach ``struct.unpack`` and raise
        ``struct.error`` out of ``decode_message``."""
        raw = bytearray(FlowMod(
            match=Match.for_destination_prefix(IPv4Address("10.1.2.0"), 24),
            actions=[SetDlSrcAction(MACAddress(5)), OutputAction(3)]).encode())
        raw[75] = 0x08  # low byte of the first action's length
        with pytest.raises(DecodeError):
            decode_message(bytes(raw))

    def test_set_dl_dst_apply_rewrites_frame(self):
        frame = Ethernet.decode(sample_frame())
        SetDlDstAction(MAC).apply(frame)
        assert frame.dst == MAC

    def test_set_nw_dst_apply_rewrites_packet(self):
        frame = Ethernet.decode(sample_frame())
        SetNwDstAction(IP).apply(frame)
        assert frame.payload.dst == IP

    def test_set_tp_dst_apply_rewrites_udp(self):
        frame = Ethernet.decode(sample_frame())
        SetTpDstAction(4444).apply(frame)
        assert frame.payload.payload.dst_port == 4444

    def test_vlan_actions_apply(self):
        frame = Ethernet.decode(sample_frame())
        SetVlanVidAction(7).apply(frame)
        assert frame.vlan == 7
        StripVlanAction().apply(frame)
        assert frame.vlan is None


class TestMessages:
    def roundtrip(self, message):
        decoded = OpenFlowMessage.decode(message.encode())
        assert type(decoded) is type(message)
        assert decoded.xid == message.xid
        return decoded

    def test_header_version_and_length(self):
        data = Hello(xid=9).encode()
        assert data[0] == OFP_VERSION
        assert data[1] == OFPType.HELLO
        assert int.from_bytes(data[2:4], "big") == len(data)

    def test_hello_and_barrier(self):
        self.roundtrip(Hello(xid=1))
        self.roundtrip(BarrierRequest(xid=2))
        self.roundtrip(BarrierReply(xid=3))
        self.roundtrip(FeaturesRequest(xid=4))

    def test_echo_roundtrip_preserves_data(self):
        decoded = self.roundtrip(EchoRequest(data=b"probe", xid=5))
        assert decoded.data == b"probe"
        decoded = self.roundtrip(EchoReply(data=b"probe", xid=6))
        assert decoded.data == b"probe"

    def test_error_roundtrip(self):
        decoded = self.roundtrip(ErrorMessage(error_type=3, code=2, data=b"ctx", xid=7))
        assert decoded.error_type == 3 and decoded.code == 2 and decoded.data == b"ctx"

    def test_features_reply_roundtrip(self):
        ports = [PhyPort(port_no=1, hw_addr=MAC, name="s1-eth1"),
                 PhyPort(port_no=2, hw_addr=MAC, name="s1-eth2")]
        message = FeaturesReply(datapath_id=0x1234, ports=ports, n_buffers=64,
                                n_tables=2, xid=8)
        decoded = self.roundtrip(message)
        assert decoded.datapath_id == 0x1234
        assert decoded.n_buffers == 64
        assert decoded.ports == ports
        assert decoded.ports[1].name == "s1-eth2"

    def test_packet_in_roundtrip(self):
        frame = sample_frame()
        message = PacketIn(buffer_id=77, in_port=4, reason=0, data=frame, xid=9)
        decoded = self.roundtrip(message)
        assert decoded.buffer_id == 77
        assert decoded.in_port == 4
        assert decoded.data == frame
        assert decoded.total_len == len(frame)

    def test_packet_out_roundtrip(self):
        message = PacketOut(in_port=OFPPort.NONE,
                            actions=[SetDlDstAction(MAC), OutputAction(2)],
                            data=b"frame-bytes", xid=10)
        decoded = self.roundtrip(message)
        assert decoded.actions == message.actions
        assert decoded.data == b"frame-bytes"

    def test_flow_mod_roundtrip(self):
        match = Match.for_destination_prefix(IPv4Address("10.2.0.0"), 16)
        message = FlowMod(match=match, command=OFPFlowModCommand.ADD,
                          actions=[OutputAction(5)], priority=4321,
                          idle_timeout=30, hard_timeout=300, cookie=0xdead,
                          xid=11)
        decoded = self.roundtrip(message)
        assert decoded.match == match
        assert decoded.command == OFPFlowModCommand.ADD
        assert decoded.priority == 4321
        assert decoded.idle_timeout == 30 and decoded.hard_timeout == 300
        assert decoded.cookie == 0xdead
        assert decoded.actions == [OutputAction(5)]
        assert decoded.encode() == message.encode()

    def test_flow_removed_roundtrip(self):
        match = Match.for_destination_prefix(IPv4Address("10.2.0.0"), 16)
        message = FlowRemoved(match=match, cookie=1, priority=2, reason=0,
                              duration_sec=60, idle_timeout=10,
                              packet_count=100, byte_count=6400, xid=12)
        decoded = self.roundtrip(message)
        assert decoded.packet_count == 100 and decoded.byte_count == 6400
        assert decoded.match == match

    def test_port_status_roundtrip(self):
        port = PhyPort(port_no=3, hw_addr=MAC, name="s1-eth3", state=1)
        decoded = self.roundtrip(PortStatus(reason=2, port=port, xid=13))
        assert decoded.reason == 2
        assert decoded.port == port
        assert decoded.port.is_link_down

    def test_stats_roundtrip(self):
        decoded = self.roundtrip(StatsRequest(stats_type=1, body_bytes=b"q", xid=14))
        assert decoded.stats_type == 1 and decoded.body_bytes == b"q"
        decoded = self.roundtrip(StatsReply(stats_type=1, body_bytes=b"r", xid=15))
        assert decoded.body_bytes == b"r"

    def test_unknown_type_is_carried_opaquely(self):
        raw = bytes([OFP_VERSION, 30, 0, 9, 0, 0, 0, 1, 0xAB])
        decoded = decode_message(raw)
        assert decoded.msg_type == 30
        assert decoded.encode() == raw

    def test_wrong_version_rejected(self):
        raw = bytearray(Hello(xid=1).encode())
        raw[0] = 0x04
        with pytest.raises(DecodeError):
            decode_message(bytes(raw))

    def test_truncated_message_rejected(self):
        raw = Hello(xid=1).encode()[:4]
        with pytest.raises(DecodeError):
            decode_message(raw)

    def test_length_field_honoured(self):
        raw = PacketIn(buffer_id=1, in_port=1, reason=0, data=b"abc", xid=1).encode()
        with pytest.raises(DecodeError):
            decode_message(raw[:-1])

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.binary(max_size=64))
    def test_echo_roundtrip_property(self, xid, data):
        decoded = decode_message(EchoRequest(data=data, xid=xid).encode())
        assert isinstance(decoded, EchoRequest)
        assert decoded.xid == xid and decoded.data == data

    @given(st.integers(min_value=0, max_value=0xFFFF),
           st.integers(min_value=0, max_value=0xFFFF),
           st.integers(min_value=0, max_value=65535),
           st.integers(min_value=0, max_value=65535))
    def test_flow_mod_roundtrip_property(self, priority, out_port, idle, hard):
        message = FlowMod(match=Match.wildcard_all(), priority=priority,
                          out_port=out_port, idle_timeout=idle, hard_timeout=hard,
                          actions=[OutputAction(1)])
        decoded = decode_message(message.encode())
        assert decoded.priority == priority and decoded.out_port == out_port
        assert decoded.idle_timeout == idle and decoded.hard_timeout == hard


#: Valid messages for the fuzz to mutate: every known action type, a match,
#: and a frame inside PACKET_OUT and PACKET_IN.
VALID = [
    FlowMod(match=Match.for_destination_prefix(IPv4Address("10.1.2.0"), 24),
            actions=[SetDlSrcAction(MACAddress(5)), SetDlDstAction(MAC),
                     OutputAction(3)]).encode(),
    PacketOut(in_port=OFPPort.NONE,
              actions=[SetVlanVidAction(7), StripVlanAction(),
                       SetNwSrcAction(IP), SetNwDstAction(IP),
                       SetTpSrcAction(1), SetTpDstAction(2), OutputAction(2)],
              data=sample_frame()).encode(),
    PacketIn(buffer_id=1, in_port=4, reason=0, data=sample_frame()).encode(),
]
#: Where the match, the actions and the frames start in those messages.
OFFSETS = (0, 8, 16, 18, 72)


#: Every action type the codec knows, plus two it does not.
ACTION_TYPES = st.sampled_from(list(range(12)) + [0xFFFF])


@st.composite
def hostile_bytes(draw) -> bytes:
    """Arbitrary bytes; a FLOW_MOD or PACKET_OUT whose actions are TLVs of
    any type and length field; or a valid message with bytes changed and
    cut."""
    kind = draw(st.sampled_from(("any", "actions", "mutated")))
    if kind == "any":
        return draw(st.binary(max_size=160))
    if kind == "actions":
        tlvs = b""
        for action_type, length in draw(st.lists(st.tuples(
                ACTION_TYPES, st.integers(min_value=0, max_value=24)),
                max_size=4)):
            tlvs += struct.pack("!HH", action_type, length) + draw(
                st.binary(min_size=max(length - 4, 0),
                          max_size=max(length - 4, 0)))
        verbatim = [UnknownAction(0, tlvs)]
        if draw(st.booleans()):
            return FlowMod(match=Match.wildcard_all(), actions=verbatim).encode()
        return PacketOut(actions=verbatim, data=sample_frame()).encode()
    data = bytearray(draw(st.sampled_from(VALID)))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        data[draw(st.integers(min_value=0, max_value=len(data) - 1))] = draw(
            st.integers(min_value=0, max_value=255))
    return bytes(data[:draw(st.integers(min_value=0, max_value=len(data)))])


class TestHostileInput:
    """No byte sequence from the wire raises anything but DecodeError."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(data=hostile_bytes())
    def test_only_decode_errors_escape(self, data):
        for offset in OFFSETS:
            for decode in (decode_message, Match.decode, Action.decode_list,
                           PacketFields.from_frame):
                try:
                    decode(data[offset:])
                except DecodeError:
                    pass
