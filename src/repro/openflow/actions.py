"""OpenFlow 1.0 actions: wire codec and application to packets.

Each action encodes to the specification's TLV layout and knows how to
apply itself to a decoded Ethernet frame (rewriting headers) or to emit the
frame on a port (OUTPUT, handled by the switch).
"""

from __future__ import annotations

import struct
from typing import List

from repro.net.addresses import IPv4Address, MACAddress
from repro.net.ethernet import Ethernet
from repro.net.ipv4 import IPv4
from repro.net.packet import DecodeError
from repro.net.transport import TCP, UDP
from repro.openflow.constants import OFPActionType, OFPCML_NO_BUFFER


class Action:
    """Base class for OpenFlow actions."""

    __slots__ = ()
    type: int = -1

    def encode(self) -> bytes:  # pragma: no cover - abstract
        raise NotImplementedError

    def apply(self, frame: Ethernet) -> None:
        """Rewrite the frame in place.  Output actions do nothing here."""

    @staticmethod
    def decode_list(data: bytes) -> List["Action"]:
        """Decode a concatenated action list."""
        actions: List[Action] = []
        offset = 0
        while offset + 4 <= len(data):
            action_type, length = struct.unpack("!HH", data[offset:offset + 4])
            if length < 8 or offset + length > len(data):
                raise DecodeError(f"bad action length {length}")
            body = data[offset:offset + length]
            actions.append(Action._decode_one(action_type, body))
            offset += length
        return actions

    @staticmethod
    def _decode_one(action_type: int, body: bytes) -> "Action":
        known = _DECODERS.get(action_type)
        if known is None:
            return UnknownAction(action_type, body)
        length, decoder = known
        if len(body) != length:
            raise DecodeError(f"action type {action_type} is {len(body)} "
                              f"bytes, not {length}")
        return decoder(body)

    @staticmethod
    def encode_list(actions: List["Action"]) -> bytes:
        return b"".join(action.encode() for action in actions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Action):
            return NotImplemented
        return self.encode() == other.encode()

    def __hash__(self) -> int:
        return hash(self.encode())


class OutputAction(Action):
    """Send the packet out of a port (or to the controller)."""

    __slots__ = ("port", "max_len")
    type = OFPActionType.OUTPUT

    def __init__(self, port: int, max_len: int = OFPCML_NO_BUFFER) -> None:
        self.port = port
        self.max_len = max_len

    def encode(self) -> bytes:
        return struct.pack("!HHHH", self.type, 8, self.port, self.max_len)

    @classmethod
    def decode(cls, body: bytes) -> "OutputAction":
        _type, _len, port, max_len = struct.unpack("!HHHH", body[:8])
        return cls(port=port, max_len=max_len)

    def __repr__(self) -> str:
        return f"<Output port={self.port}>"


class SetVlanVidAction(Action):
    __slots__ = ("vlan_vid",)
    type = OFPActionType.SET_VLAN_VID

    def __init__(self, vlan_vid: int) -> None:
        self.vlan_vid = vlan_vid

    def encode(self) -> bytes:
        return struct.pack("!HHH2x", self.type, 8, self.vlan_vid)

    @classmethod
    def decode(cls, body: bytes) -> "SetVlanVidAction":
        _type, _len, vid = struct.unpack("!HHH", body[:6])
        return cls(vlan_vid=vid)

    def apply(self, frame: Ethernet) -> None:
        frame.vlan = self.vlan_vid

    def __repr__(self) -> str:
        return f"<SetVlanVid {self.vlan_vid}>"


class StripVlanAction(Action):
    __slots__ = ()
    type = OFPActionType.STRIP_VLAN

    def encode(self) -> bytes:
        return struct.pack("!HH4x", self.type, 8)

    @classmethod
    def decode(cls, _body: bytes) -> "StripVlanAction":
        return cls()

    def apply(self, frame: Ethernet) -> None:
        frame.vlan = None
        frame.vlan_pcp = 0

    def __repr__(self) -> str:
        return "<StripVlan>"


class SetDlSrcAction(Action):
    __slots__ = ("mac",)
    type = OFPActionType.SET_DL_SRC

    def __init__(self, mac: MACAddress) -> None:
        self.mac = MACAddress(mac)

    def encode(self) -> bytes:
        return struct.pack("!HH6s6x", self.type, 16, self.mac.packed)

    @classmethod
    def decode(cls, body: bytes) -> "SetDlSrcAction":
        _type, _len, mac = struct.unpack("!HH6s", body[:10])
        return cls(mac=MACAddress(mac))

    def apply(self, frame: Ethernet) -> None:
        frame.src = self.mac

    def __repr__(self) -> str:
        return f"<SetDlSrc {self.mac}>"


class SetDlDstAction(Action):
    __slots__ = ("mac",)
    type = OFPActionType.SET_DL_DST

    def __init__(self, mac: MACAddress) -> None:
        self.mac = MACAddress(mac)

    def encode(self) -> bytes:
        return struct.pack("!HH6s6x", self.type, 16, self.mac.packed)

    @classmethod
    def decode(cls, body: bytes) -> "SetDlDstAction":
        _type, _len, mac = struct.unpack("!HH6s", body[:10])
        return cls(mac=MACAddress(mac))

    def apply(self, frame: Ethernet) -> None:
        frame.dst = self.mac

    def __repr__(self) -> str:
        return f"<SetDlDst {self.mac}>"


class SetNwSrcAction(Action):
    __slots__ = ("ip",)
    type = OFPActionType.SET_NW_SRC

    def __init__(self, ip: IPv4Address) -> None:
        self.ip = IPv4Address(ip)

    def encode(self) -> bytes:
        return struct.pack("!HH4s", self.type, 8, self.ip.packed)

    @classmethod
    def decode(cls, body: bytes) -> "SetNwSrcAction":
        _type, _len, ip = struct.unpack("!HH4s", body[:8])
        return cls(ip=IPv4Address(ip))

    def apply(self, frame: Ethernet) -> None:
        if isinstance(frame.payload, IPv4):
            frame.payload.src = self.ip

    def __repr__(self) -> str:
        return f"<SetNwSrc {self.ip}>"


class SetNwDstAction(Action):
    __slots__ = ("ip",)
    type = OFPActionType.SET_NW_DST

    def __init__(self, ip: IPv4Address) -> None:
        self.ip = IPv4Address(ip)

    def encode(self) -> bytes:
        return struct.pack("!HH4s", self.type, 8, self.ip.packed)

    @classmethod
    def decode(cls, body: bytes) -> "SetNwDstAction":
        _type, _len, ip = struct.unpack("!HH4s", body[:8])
        return cls(ip=IPv4Address(ip))

    def apply(self, frame: Ethernet) -> None:
        if isinstance(frame.payload, IPv4):
            frame.payload.dst = self.ip

    def __repr__(self) -> str:
        return f"<SetNwDst {self.ip}>"


class SetTpSrcAction(Action):
    __slots__ = ("port",)
    type = OFPActionType.SET_TP_SRC

    def __init__(self, port: int) -> None:
        self.port = port

    def encode(self) -> bytes:
        return struct.pack("!HHH2x", self.type, 8, self.port)

    @classmethod
    def decode(cls, body: bytes) -> "SetTpSrcAction":
        _type, _len, port = struct.unpack("!HHH", body[:6])
        return cls(port=port)

    def apply(self, frame: Ethernet) -> None:
        ip = frame.payload
        if isinstance(ip, IPv4) and isinstance(ip.payload, (TCP, UDP)):
            ip.payload.src_port = self.port

    def __repr__(self) -> str:
        return f"<SetTpSrc {self.port}>"


class SetTpDstAction(Action):
    __slots__ = ("port",)
    type = OFPActionType.SET_TP_DST

    def __init__(self, port: int) -> None:
        self.port = port

    def encode(self) -> bytes:
        return struct.pack("!HHH2x", self.type, 8, self.port)

    @classmethod
    def decode(cls, body: bytes) -> "SetTpDstAction":
        _type, _len, port = struct.unpack("!HHH", body[:6])
        return cls(port=port)

    def apply(self, frame: Ethernet) -> None:
        ip = frame.payload
        if isinstance(ip, IPv4) and isinstance(ip.payload, (TCP, UDP)):
            ip.payload.dst_port = self.port

    def __repr__(self) -> str:
        return f"<SetTpDst {self.port}>"


class UnknownAction(Action):
    """An action type we do not implement; carried opaquely."""

    __slots__ = ("type", "raw")

    def __init__(self, action_type: int, raw: bytes) -> None:
        self.type = action_type
        self.raw = raw

    def encode(self) -> bytes:
        return self.raw

    def __repr__(self) -> str:
        return f"<UnknownAction type={self.type}>"


#: Action type -> (its OpenFlow 1.0 length, decoder).
_DECODERS = {
    OFPActionType.OUTPUT: (8, OutputAction.decode),
    OFPActionType.SET_VLAN_VID: (8, SetVlanVidAction.decode),
    OFPActionType.STRIP_VLAN: (8, StripVlanAction.decode),
    OFPActionType.SET_DL_SRC: (16, SetDlSrcAction.decode),
    OFPActionType.SET_DL_DST: (16, SetDlDstAction.decode),
    OFPActionType.SET_NW_SRC: (8, SetNwSrcAction.decode),
    OFPActionType.SET_NW_DST: (8, SetNwDstAction.decode),
    OFPActionType.SET_TP_SRC: (8, SetTpSrcAction.decode),
    OFPActionType.SET_TP_DST: (8, SetTpDstAction.decode),
}


