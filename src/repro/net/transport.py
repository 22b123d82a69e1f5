"""UDP and ICMP codecs.

Nothing in the simulation sends TCP (the RouteFlow IPC runs on the message
bus and BGP sessions on their broker), so an IPv4 payload of protocol 6
stays raw bytes.
"""

from __future__ import annotations

import struct

from repro.net.addresses import checksum16
from repro.net.packet import DecodeError, Header, Payload, as_bytes


class UDP(Header):
    """A UDP datagram (RFC 768)."""

    HEADER_LEN = 8

    def __init__(self, src_port: int, dst_port: int, payload: Payload = None) -> None:
        self.src_port = src_port
        self.dst_port = dst_port
        self.payload = payload

    def encode(self) -> bytes:
        body = as_bytes(self.payload)
        length = self.HEADER_LEN + len(body)
        header = struct.pack("!HHHH", self.src_port, self.dst_port, length, 0)
        csum = checksum16(header + body)
        return struct.pack("!HHHH", self.src_port, self.dst_port, length, csum) + body

    @classmethod
    def decode(cls, data: bytes) -> "UDP":
        if len(data) < cls.HEADER_LEN:
            raise DecodeError(f"UDP datagram too short: {len(data)} bytes")
        src_port, dst_port, length, _csum = struct.unpack("!HHHH", data[0:8])
        if length < cls.HEADER_LEN:
            raise DecodeError(f"UDP length field too small: {length}")
        return cls(src_port=src_port, dst_port=dst_port, payload=data[8:length])

    def __repr__(self) -> str:
        return f"<UDP {self.src_port} -> {self.dst_port} len={len(as_bytes(self.payload))}>"


class ICMP(Header):
    """An ICMP message (echo request/reply are the interesting types here)."""

    ECHO_REPLY = 0
    DEST_UNREACHABLE = 3
    ECHO_REQUEST = 8
    TIME_EXCEEDED = 11

    def __init__(
        self,
        icmp_type: int,
        code: int = 0,
        identifier: int = 0,
        sequence: int = 0,
        payload: Payload = None,
    ) -> None:
        self.icmp_type = icmp_type
        self.code = code
        self.identifier = identifier
        self.sequence = sequence
        self.payload = payload

    @classmethod
    def echo_request(cls, identifier: int, sequence: int, data: bytes = b"") -> "ICMP":
        return cls(cls.ECHO_REQUEST, 0, identifier, sequence, data)

    @classmethod
    def echo_reply(cls, identifier: int, sequence: int, data: bytes = b"") -> "ICMP":
        return cls(cls.ECHO_REPLY, 0, identifier, sequence, data)

    def encode(self) -> bytes:
        body = as_bytes(self.payload)
        header = struct.pack("!BBHHH", self.icmp_type, self.code, 0, self.identifier, self.sequence)
        csum = checksum16(header + body)
        header = header[:2] + struct.pack("!H", csum) + header[4:]
        return header + body

    @classmethod
    def decode(cls, data: bytes) -> "ICMP":
        if len(data) < 8:
            raise DecodeError(f"ICMP message too short: {len(data)} bytes")
        icmp_type, code, _csum, identifier, sequence = struct.unpack("!BBHHH", data[0:8])
        return cls(icmp_type, code, identifier, sequence, data[8:])

    def __repr__(self) -> str:
        return f"<ICMP type={self.icmp_type} code={self.code} id={self.identifier} seq={self.sequence}>"
