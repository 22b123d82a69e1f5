"""OpenFlow 1.0 actions: wire codec and application to packets.

The actions RouteFlow sends are implemented: OUTPUT (handled by the
switch) and the two MAC rewrites, which apply themselves to a decoded
Ethernet frame.  Every other type decodes as an :class:`UnknownAction`,
which the switch refuses with BAD_ACTION / BAD_TYPE.
"""

from __future__ import annotations

import struct
from typing import List

from repro.net.addresses import MACAddress
from repro.net.ethernet import Ethernet
from repro.net.packet import DecodeError
from repro.openflow.constants import OFPActionType, OFPCML_NO_BUFFER


class Action:
    """Base class for OpenFlow actions."""

    __slots__ = ()
    type: int = -1

    def encode(self) -> bytes:  # pragma: no cover - abstract
        raise NotImplementedError

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


class UnknownAction(Action):
    """An action type the switch does not implement; carried opaquely."""

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
    OFPActionType.SET_DL_SRC: (16, SetDlSrcAction.decode),
    OFPActionType.SET_DL_DST: (16, SetDlDstAction.decode),
}


