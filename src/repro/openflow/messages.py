"""OpenFlow 1.0 message codec.

Every control-plane message exchanged between switches, FlowVisor and the
controllers is encoded to and decoded from the OpenFlow 1.0 wire format
defined here, so the slicing proxy and the controllers operate on genuine
protocol bytes exactly as they would against Open vSwitch.

Implemented message types: HELLO, ERROR, ECHO_REQUEST/REPLY,
FEATURES_REQUEST/REPLY, PACKET_IN, PACKET_OUT, FLOW_MOD, PORT_STATUS and
BARRIER_REQUEST/REPLY.  Any other type decodes as an
:class:`UnknownMessage` that keeps its body verbatim.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Type

from repro.net.addresses import MACAddress
from repro.net.packet import DecodeError
from repro.openflow.actions import Action
from repro.openflow.constants import (
    OFP_NO_BUFFER,
    OFP_VERSION,
    OFPActionType,
    OFPFlowModCommand,
    OFPPortState,
    OFPType,
)
from repro.openflow.match import Match

OFP_HEADER_LEN = 8
PHY_PORT_LEN = 48
#: The ``actions`` bitmap of a FEATURES_REPLY: the action types the switch
#: implements (it has no stats, so no capability bit is set).
IMPLEMENTED_ACTIONS = ((1 << OFPActionType.OUTPUT) | (1 << OFPActionType.SET_DL_SRC)
                       | (1 << OFPActionType.SET_DL_DST))


class OpenFlowMessage:
    """Base class: the common ``ofp_header`` plus a typed body."""

    msg_type: int = -1

    def __init__(self, xid: int = 0) -> None:
        self.xid = xid

    # -------------------------------------------------------------- encoding
    def body(self) -> bytes:
        """Encode the message body (everything after the 8-byte header)."""
        return b""

    def encode(self) -> bytes:
        body = self.body()
        return struct.pack("!BBHI", OFP_VERSION, self.msg_type,
                           OFP_HEADER_LEN + len(body), self.xid) + body

    @classmethod
    def decode(cls, data: bytes) -> "OpenFlowMessage":
        """Decode one complete message (header + body)."""
        if len(data) < OFP_HEADER_LEN:
            raise DecodeError(f"OpenFlow message too short: {len(data)} bytes")
        version, msg_type, length, xid = struct.unpack("!BBHI", data[:OFP_HEADER_LEN])
        if version != OFP_VERSION:
            raise DecodeError(f"unsupported OpenFlow version {version}")
        if length < OFP_HEADER_LEN or len(data) < length:
            raise DecodeError(f"truncated OpenFlow message (length field {length})")
        body = data[OFP_HEADER_LEN:length]
        klass = _MESSAGE_TYPES.get(msg_type)
        if klass is None:
            message = UnknownMessage(msg_type=msg_type, raw_body=body, xid=xid)
            return message
        return klass.decode_body(body, xid)

    @classmethod
    def decode_body(cls, body: bytes, xid: int) -> "OpenFlowMessage":
        """Decode the message body.  Default: body-less message."""
        return cls(xid=xid)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} xid={self.xid}>"


class UnknownMessage(OpenFlowMessage):
    """A message type we do not interpret; body kept verbatim."""

    def __init__(self, msg_type: int, raw_body: bytes, xid: int = 0) -> None:
        super().__init__(xid=xid)
        self.msg_type = msg_type
        self.raw_body = raw_body

    def body(self) -> bytes:
        return self.raw_body


class Hello(OpenFlowMessage):
    msg_type = OFPType.HELLO


class EchoRequest(OpenFlowMessage):
    msg_type = OFPType.ECHO_REQUEST

    def __init__(self, data: bytes = b"", xid: int = 0) -> None:
        super().__init__(xid=xid)
        self.data = data

    def body(self) -> bytes:
        return self.data

    @classmethod
    def decode_body(cls, body: bytes, xid: int) -> "EchoRequest":
        return cls(data=body, xid=xid)


class EchoReply(OpenFlowMessage):
    msg_type = OFPType.ECHO_REPLY

    def __init__(self, data: bytes = b"", xid: int = 0) -> None:
        super().__init__(xid=xid)
        self.data = data

    def body(self) -> bytes:
        return self.data

    @classmethod
    def decode_body(cls, body: bytes, xid: int) -> "EchoReply":
        return cls(data=body, xid=xid)


class ErrorMessage(OpenFlowMessage):
    msg_type = OFPType.ERROR

    def __init__(self, error_type: int, code: int, data: bytes = b"", xid: int = 0) -> None:
        super().__init__(xid=xid)
        self.error_type = error_type
        self.code = code
        self.data = data

    def body(self) -> bytes:
        return struct.pack("!HH", self.error_type, self.code) + self.data

    @classmethod
    def decode_body(cls, body: bytes, xid: int) -> "ErrorMessage":
        if len(body) < 4:
            raise DecodeError("truncated error message")
        error_type, code = struct.unpack("!HH", body[:4])
        return cls(error_type=error_type, code=code, data=body[4:], xid=xid)

    def __repr__(self) -> str:
        return f"<ErrorMessage type={self.error_type} code={self.code}>"


class FeaturesRequest(OpenFlowMessage):
    msg_type = OFPType.FEATURES_REQUEST


class PhyPort:
    """An ``ofp_phy_port`` description inside FEATURES_REPLY / PORT_STATUS."""

    def __init__(self, port_no: int, hw_addr: MACAddress, name: str,
                 config: int = 0, state: int = 0, curr: int = 0x02,
                 advertised: int = 0, supported: int = 0, peer: int = 0) -> None:
        self.port_no = port_no
        self.hw_addr = MACAddress(hw_addr)
        self.name = name
        self.config = config
        self.state = state
        self.curr = curr
        self.advertised = advertised
        self.supported = supported
        self.peer = peer

    @property
    def is_link_down(self) -> bool:
        return bool(self.state & OFPPortState.LINK_DOWN)

    def encode(self) -> bytes:
        name_bytes = self.name.encode()[:15].ljust(16, b"\x00")
        return struct.pack(
            "!H6s16sIIIIII",
            self.port_no,
            self.hw_addr.packed,
            name_bytes,
            self.config,
            self.state,
            self.curr,
            self.advertised,
            self.supported,
            self.peer,
        )

    @classmethod
    def decode(cls, data: bytes) -> "PhyPort":
        if len(data) < PHY_PORT_LEN:
            raise DecodeError(f"ofp_phy_port too short: {len(data)}")
        (port_no, hw_addr, name, config, state, curr, advertised,
         supported, peer) = struct.unpack("!H6s16sIIIIII", data[:PHY_PORT_LEN])
        return cls(
            port_no=port_no,
            hw_addr=MACAddress(hw_addr),
            name=name.rstrip(b"\x00").decode(errors="replace"),
            config=config,
            state=state,
            curr=curr,
            advertised=advertised,
            supported=supported,
            peer=peer,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhyPort):
            return NotImplemented
        return self.encode() == other.encode()

    def __repr__(self) -> str:
        return f"<PhyPort {self.port_no} {self.name} mac={self.hw_addr}>"


class FeaturesReply(OpenFlowMessage):
    msg_type = OFPType.FEATURES_REPLY

    def __init__(self, datapath_id: int, ports: List[PhyPort],
                 n_buffers: int = 256, n_tables: int = 1,
                 capabilities: int = 0,
                 actions_bitmap: int = IMPLEMENTED_ACTIONS, xid: int = 0) -> None:
        super().__init__(xid=xid)
        self.datapath_id = datapath_id
        self.ports = list(ports)
        self.n_buffers = n_buffers
        self.n_tables = n_tables
        self.capabilities = capabilities
        self.actions_bitmap = actions_bitmap

    def body(self) -> bytes:
        header = struct.pack("!QIB3xII", self.datapath_id, self.n_buffers,
                             self.n_tables, self.capabilities, self.actions_bitmap)
        return header + b"".join(port.encode() for port in self.ports)

    @classmethod
    def decode_body(cls, body: bytes, xid: int) -> "FeaturesReply":
        if len(body) < 24:
            raise DecodeError("truncated FEATURES_REPLY")
        datapath_id, n_buffers, n_tables, capabilities, actions_bitmap = struct.unpack(
            "!QIB3xII", body[:24])
        ports = []
        offset = 24
        while offset + PHY_PORT_LEN <= len(body):
            ports.append(PhyPort.decode(body[offset:offset + PHY_PORT_LEN]))
            offset += PHY_PORT_LEN
        return cls(datapath_id=datapath_id, ports=ports, n_buffers=n_buffers,
                   n_tables=n_tables, capabilities=capabilities,
                   actions_bitmap=actions_bitmap, xid=xid)

    def __repr__(self) -> str:
        return f"<FeaturesReply dpid={self.datapath_id:#x} ports={len(self.ports)}>"


class PacketIn(OpenFlowMessage):
    msg_type = OFPType.PACKET_IN

    def __init__(self, buffer_id: int, in_port: int, reason: int,
                 data: bytes, total_len: Optional[int] = None, xid: int = 0) -> None:
        super().__init__(xid=xid)
        self.buffer_id = buffer_id
        self.in_port = in_port
        self.reason = reason
        self.data = data
        self.total_len = total_len if total_len is not None else len(data)

    def body(self) -> bytes:
        return struct.pack("!IHHBx", self.buffer_id, self.total_len,
                           self.in_port, self.reason) + self.data

    @classmethod
    def decode_body(cls, body: bytes, xid: int) -> "PacketIn":
        if len(body) < 10:
            raise DecodeError("truncated PACKET_IN")
        buffer_id, total_len, in_port, reason = struct.unpack("!IHHB", body[:9])
        return cls(buffer_id=buffer_id, in_port=in_port, reason=reason,
                   data=body[10:], total_len=total_len, xid=xid)

    def __repr__(self) -> str:
        return f"<PacketIn in_port={self.in_port} len={len(self.data)} reason={self.reason}>"


class PacketOut(OpenFlowMessage):
    msg_type = OFPType.PACKET_OUT

    def __init__(self, buffer_id: int = OFP_NO_BUFFER, in_port: int = 0xFFFF,
                 actions: Optional[List[Action]] = None, data: bytes = b"",
                 xid: int = 0) -> None:
        super().__init__(xid=xid)
        self.buffer_id = buffer_id
        self.in_port = in_port
        self.actions = list(actions or [])
        self.data = data

    def body(self) -> bytes:
        actions = Action.encode_list(self.actions)
        return struct.pack("!IHH", self.buffer_id, self.in_port, len(actions)) + actions + self.data

    @classmethod
    def decode_body(cls, body: bytes, xid: int) -> "PacketOut":
        if len(body) < 8:
            raise DecodeError("truncated PACKET_OUT")
        buffer_id, in_port, actions_len = struct.unpack("!IHH", body[:8])
        if len(body) < 8 + actions_len:
            raise DecodeError("PACKET_OUT actions truncated")
        actions = Action.decode_list(body[8:8 + actions_len])
        return cls(buffer_id=buffer_id, in_port=in_port, actions=actions,
                   data=body[8 + actions_len:], xid=xid)

    def __repr__(self) -> str:
        return f"<PacketOut in_port={self.in_port} actions={self.actions} len={len(self.data)}>"


class FlowMod(OpenFlowMessage):
    msg_type = OFPType.FLOW_MOD

    def __init__(self, match: Match, command: int = OFPFlowModCommand.ADD,
                 actions: Optional[List[Action]] = None, priority: int = 0x8000,
                 idle_timeout: int = 0, hard_timeout: int = 0, cookie: int = 0,
                 buffer_id: int = OFP_NO_BUFFER, out_port: int = 0xFFFF,
                 flags: int = 0, xid: int = 0) -> None:
        super().__init__(xid=xid)
        self.match = match
        self.command = command
        self.actions = list(actions or [])
        self.priority = priority
        self.idle_timeout = idle_timeout
        self.hard_timeout = hard_timeout
        self.cookie = cookie
        self.buffer_id = buffer_id
        self.out_port = out_port
        self.flags = flags

    def body(self) -> bytes:
        return (
            self.match.encode()
            + struct.pack("!QHHHHIHH", self.cookie, self.command, self.idle_timeout,
                          self.hard_timeout, self.priority, self.buffer_id,
                          self.out_port, self.flags)
            + Action.encode_list(self.actions)
        )

    @classmethod
    def decode_body(cls, body: bytes, xid: int) -> "FlowMod":
        if len(body) < 40 + 24:
            raise DecodeError("truncated FLOW_MOD")
        match = Match.decode(body[:40])
        cookie, command, idle_timeout, hard_timeout, priority, buffer_id, out_port, flags = (
            struct.unpack("!QHHHHIHH", body[40:64]))
        actions = Action.decode_list(body[64:])
        return cls(match=match, command=command, actions=actions, priority=priority,
                   idle_timeout=idle_timeout, hard_timeout=hard_timeout, cookie=cookie,
                   buffer_id=buffer_id, out_port=out_port, flags=flags, xid=xid)

    def __repr__(self) -> str:
        return (f"<FlowMod cmd={self.command} prio={self.priority} "
                f"{self.match!r} actions={self.actions}>")


class PortStatus(OpenFlowMessage):
    msg_type = OFPType.PORT_STATUS

    def __init__(self, reason: int, port: PhyPort, xid: int = 0) -> None:
        super().__init__(xid=xid)
        self.reason = reason
        self.port = port

    def body(self) -> bytes:
        return struct.pack("!B7x", self.reason) + self.port.encode()

    @classmethod
    def decode_body(cls, body: bytes, xid: int) -> "PortStatus":
        if len(body) < 8 + PHY_PORT_LEN:
            raise DecodeError("truncated PORT_STATUS")
        (reason,) = struct.unpack("!B", body[:1])
        port = PhyPort.decode(body[8:8 + PHY_PORT_LEN])
        return cls(reason=reason, port=port, xid=xid)

    def __repr__(self) -> str:
        return f"<PortStatus reason={self.reason} port={self.port.port_no}>"


class BarrierRequest(OpenFlowMessage):
    msg_type = OFPType.BARRIER_REQUEST


class BarrierReply(OpenFlowMessage):
    msg_type = OFPType.BARRIER_REPLY


_MESSAGE_TYPES: Dict[int, Type[OpenFlowMessage]] = {
    OFPType.HELLO: Hello,
    OFPType.ERROR: ErrorMessage,
    OFPType.ECHO_REQUEST: EchoRequest,
    OFPType.ECHO_REPLY: EchoReply,
    OFPType.FEATURES_REQUEST: FeaturesRequest,
    OFPType.FEATURES_REPLY: FeaturesReply,
    OFPType.PACKET_IN: PacketIn,
    OFPType.PACKET_OUT: PacketOut,
    OFPType.FLOW_MOD: FlowMod,
    OFPType.PORT_STATUS: PortStatus,
    OFPType.BARRIER_REQUEST: BarrierRequest,
    OFPType.BARRIER_REPLY: BarrierReply,
}


def decode_message(data: bytes) -> OpenFlowMessage:
    """Module-level convenience wrapper around ``OpenFlowMessage.decode``."""
    return OpenFlowMessage.decode(data)
