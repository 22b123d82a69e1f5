"""Tests for the OpenFlow 1.0 wire codec: match, actions, messages."""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import (
    ARP,
    ICMP,
    LLDP,
    UDP,
    Ethernet,
    EtherType,
    IPv4,
    IPv4Address,
    MACAddress,
)
from repro.net.ipv4 import IPProtocol
from repro.net.packet import DecodeError
from repro.openflow import (
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
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
    decode_message,
)
from repro.openflow.actions import Action, UnknownAction
from repro.openflow.constants import OFP_VERSION, OFPActionType, OFPFlowWildcards
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    ErrorMessage,
    UnknownMessage,
)
from repro.quagga.ospf.packets import HelloPacket
from repro.routeflow.vm import VirtualMachine, VMState
from repro.sim import Simulator

MAC = MACAddress("02:00:00:00:00:0a")


#: The OpenFlow 1.0 action types the codec does not implement, with their
#: lengths: VLAN, IP and transport rewrites, and ENQUEUE.
UNIMPLEMENTED_ACTIONS = ((OFPActionType.SET_VLAN_VID, 8),
                         (OFPActionType.SET_VLAN_PCP, 8),
                         (OFPActionType.STRIP_VLAN, 8),
                         (OFPActionType.SET_NW_SRC, 8),
                         (OFPActionType.SET_NW_DST, 8),
                         (OFPActionType.SET_NW_TOS, 8),
                         (OFPActionType.SET_TP_SRC, 8),
                         (OFPActionType.SET_TP_DST, 8),
                         (OFPActionType.ENQUEUE, 16))


def unknown_action(action_type: int, length: int) -> UnknownAction:
    """A TLV of an action type the codec carries opaquely."""
    return UnknownAction(action_type, struct.pack(
        "!HH", action_type, length) + bytes(range(length - 4)))


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
        SetDlSrcAction(MAC),
        SetDlDstAction(MAC),
    ] + [unknown_action(*spec) for spec in UNIMPLEMENTED_ACTIONS]

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

    def test_unimplemented_action_types_decode_as_unknown(self):
        encoded = b"".join(struct.pack("!HH", action_type, length)
                           + bytes(length - 4)
                           for action_type, length in UNIMPLEMENTED_ACTIONS)
        decoded = Action.decode_list(encoded)
        assert [(type(action), action.type) for action in decoded] == [
            (UnknownAction, action_type)
            for action_type, _length in UNIMPLEMENTED_ACTIONS]


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

    def unknown_roundtrip(self, msg_type: int, body: bytes, xid: int):
        """Wire bytes of a type the codec does not implement decode as an
        UnknownMessage that encodes back to the same bytes."""
        raw = struct.pack("!BBHI", OFP_VERSION, msg_type, 8 + len(body),
                          xid) + body
        decoded = decode_message(raw)
        assert type(decoded) is UnknownMessage
        assert (decoded.msg_type, decoded.xid) == (msg_type, xid)
        assert decoded.encode() == raw

    def test_flow_removed_roundtrip(self):
        match = Match.for_destination_prefix(IPv4Address("10.2.0.0"), 16)
        self.unknown_roundtrip(OFPType.FLOW_REMOVED, match.encode() + struct.pack(
            "!QHBxIIH2xQQ", 1, 2, 0, 60, 0, 10, 100, 6400), xid=12)

    def test_port_status_roundtrip(self):
        port = PhyPort(port_no=3, hw_addr=MAC, name="s1-eth3", state=1)
        decoded = self.roundtrip(PortStatus(reason=2, port=port, xid=13))
        assert decoded.reason == 2
        assert decoded.port == port
        assert decoded.port.is_link_down

    def test_stats_roundtrip(self):
        self.unknown_roundtrip(OFPType.STATS_REQUEST,
                               struct.pack("!HH", 1, 0) + b"q", xid=14)
        self.unknown_roundtrip(OFPType.STATS_REPLY,
                               struct.pack("!HH", 1, 0) + b"r", xid=15)

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


#: Valid messages for the fuzz to mutate: every OpenFlow 1.0 action type,
#: a match, and a frame inside PACKET_OUT and PACKET_IN.
VALID = [
    FlowMod(match=Match.for_destination_prefix(IPv4Address("10.1.2.0"), 24),
            actions=[SetDlSrcAction(MACAddress(5)), SetDlDstAction(MAC),
                     OutputAction(3)]).encode(),
    PacketOut(in_port=OFPPort.NONE,
              actions=[unknown_action(*spec) for spec in UNIMPLEMENTED_ACTIONS]
              + [OutputAction(2)],
              data=sample_frame()).encode(),
    PacketIn(buffer_id=1, in_port=4, reason=0, data=sample_frame()).encode(),
]
#: Where the match, the actions and the frames start in those messages.
OFFSETS = (0, 8, 16, 18, 72)


#: Every OpenFlow 1.0 action type, plus one that is none.
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


def _base_frames():
    """(kind, frame, offset of the layer-3 header): one valid frame per
    payload kind, without and with an 802.1Q tag."""
    l4_of = {
        "udp": (IPProtocol.UDP, UDP(1234, 53, b"x")),
        # No codec parses TCP: its header stays raw bytes.
        "tcp": (IPProtocol.TCP, struct.pack("!HHIIHHHH", 179, 40000, 7, 9,
                                            5 << 12, 65535, 0, 0)),
        "icmp": (IPProtocol.ICMP, ICMP(ICMP.ECHO_REQUEST, 0, 3, 4, b"p")),
        "ospf": (IPProtocol.OSPF, HelloPacket(
            IPv4Address("1.1.1.1"), IPv4Address("255.255.255.252"), 10, 40,
            neighbors=[IPv4Address("2.2.2.2")])),
    }
    for vlan in (None, 5):
        for kind, (protocol, l4) in l4_of.items():
            yield kind, vlan, EtherType.IPV4, IPv4(
                src=IPv4Address("10.0.0.1"), dst=IPv4Address("10.0.0.2"),
                protocol=protocol, payload=l4, tos=0x13)
        yield "arp", vlan, EtherType.ARP, ARP(
            ARP.REQUEST, MAC, IPv4Address("10.0.0.1"), MACAddress(0),
            IPv4Address("10.0.0.2"))
        yield "lldp", vlan, EtherType.LLDP, LLDP(chassis_id=9, port_id=2)


def _edited_frames():
    """Every base frame, and copies with one header field the decoders
    check set to each value around its limits."""
    frames = []
    for kind, vlan, ethertype, payload in _base_frames():
        frame = Ethernet(src=MAC, dst=MACAddress(2), ethertype=ethertype,
                         payload=payload, vlan=vlan, vlan_pcp=3).encode()
        l3 = 14 if vlan is None else 18
        edits = [(l3 - 2, "!H", value) for value in (
            EtherType.IPV4, EtherType.ARP, EtherType.LLDP, 0x86DD)]
        if ethertype == EtherType.IPV4:
            edits += [(l3, "!B", value) for value in (0x44, 0x46, 0x55)]
            edits += [(l3 + 2, "!H", value)
                      for value in list(range(49)) + [0xFFFF]]
            if kind == "udp":
                edits += [(l3 + 24, "!H", value) for value in range(13)]
        if kind == "arp":
            edits += [(l3, "!H", 6), (l3 + 2, "!H", 0x86DD),
                      (l3 + 4, "!B", 8), (l3 + 5, "!B", 16)]
        frames.append(frame)
        for offset, field, value in edits:
            edited = bytearray(frame)
            struct.pack_into(field, edited, offset, value)
            frames.append(bytes(edited))
    return frames


EDITED_FRAMES = _edited_frames()


@st.composite
def hostile_frames(draw) -> bytes:
    """An edited frame with bytes changed and cut anywhere."""
    data = bytearray(draw(st.sampled_from(EDITED_FRAMES)))
    # sampled_from draws positions uniformly; integers() favours the ends.
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        data[draw(st.sampled_from(range(len(data))))] = draw(
            st.integers(min_value=0, max_value=255))
    return bytes(data[:draw(st.sampled_from(range(len(data) + 1)))])


def fields_from_header_tree(data: bytes, in_port: int) -> PacketFields:
    """The flow-match fields of a frame, read off ``Ethernet.decode``'s
    header tree: the reference model of ``PacketFields.from_frame``."""
    fields = PacketFields(in_port=in_port)
    try:
        frame = Ethernet.decode(data)
    except DecodeError:
        return fields
    if frame.vlan is not None:
        fields.dl_vlan, fields.dl_vlan_pcp = frame.vlan, frame.vlan_pcp
    fields.dl_src, fields.dl_dst = frame.src, frame.dst
    fields.dl_type = frame.ethertype
    packet = frame.payload
    if isinstance(packet, IPv4):
        fields.nw_tos, fields.nw_proto = packet.tos, packet.protocol
        fields.nw_src, fields.nw_dst = packet.src, packet.dst
        segment = packet.payload
        if isinstance(segment, UDP):
            fields.tp_src, fields.tp_dst = segment.src_port, segment.dst_port
        elif isinstance(segment, ICMP):
            fields.tp_src, fields.tp_dst = segment.icmp_type, segment.code
    elif isinstance(packet, ARP):
        fields.nw_proto = packet.opcode
        fields.nw_src, fields.nw_dst = packet.sender_ip, packet.target_ip
    return fields


def assert_fields_match_the_codec(data: bytes) -> None:
    actual = PacketFields.from_frame(data, in_port=3)
    expected = fields_from_header_tree(data, in_port=3)
    assert ({slot: getattr(actual, slot) for slot in PacketFields.__slots__}
            == {slot: getattr(expected, slot)
                for slot in PacketFields.__slots__}), data


class _OSPFRecorder:
    """Stands in for a VM's ospfd and keeps what it was handed."""

    def __init__(self) -> None:
        self.received = []

    def receive_packet(self, interface_name, src, payload) -> None:
        self.received.append((interface_name, src, payload))


def assert_vm_hands_ospfd_what_the_codec_decodes(data: bytes) -> None:
    """``VirtualMachine._on_frame`` passes ospfd a packet exactly when
    ``Ethernet.decode`` yields IPv4 carrying OSPF, and passes that."""
    vm = VirtualMachine(Simulator(), vm_id=1, num_ports=1)
    vm.state = VMState.RUNNING
    vm.ospf = recorder = _OSPFRecorder()
    vm._on_frame(vm.interfaces["eth1"], data)
    try:
        packet = Ethernet.decode(data).payload
    except DecodeError:
        packet = None
    if not (isinstance(packet, IPv4) and packet.protocol == IPProtocol.OSPF):
        assert recorder.received == [], data
        return
    [(interface_name, src, payload)] = recorder.received
    assert (interface_name, src) == ("eth1", packet.src)
    assert type(payload) is type(packet.payload)
    if isinstance(payload, bytes):
        assert payload == packet.payload
    else:
        assert payload.encode() == packet.payload.encode()


class TestFrameReference:
    """Every per-hop frame reader agrees with the header tree the codec
    builds, on valid, edited, mutated and truncated frames."""

    def test_every_edit_and_cut_matches_the_codec(self):
        for frame in EDITED_FRAMES:
            for cut in range(len(frame) + 1):
                assert_fields_match_the_codec(frame[:cut])
                assert_vm_hands_ospfd_what_the_codec_decodes(frame[:cut])

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(data=hostile_frames())
    def test_packet_fields_match_the_codec(self, data):
        assert_fields_match_the_codec(data)

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(data=hostile_frames())
    def test_vm_hands_ospfd_what_the_codec_decodes(self, data):
        assert_vm_hands_ospfd_what_the_codec_decodes(data)
