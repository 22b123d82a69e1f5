"""IPv4 header codec (RFC 791) with checksum computation."""

from __future__ import annotations

import struct
from typing import Optional, Tuple

from repro.net.addresses import IPv4Address, checksum16
from repro.net.packet import DecodeError, Header, Payload, as_bytes

#: (protocol, body sliced per total_length)
IPv4Framing = Tuple[int, bytes]


class IPProtocol:
    """IP protocol numbers used in this reproduction."""

    ICMP = 1
    TCP = 6
    UDP = 17
    OSPF = 89


def ipv4_framing(ip: bytes) -> Optional[IPv4Framing]:
    """The IPv4 header framing of a packet, or None for one that is too
    short or has a bad version or IHL.

    This is the whole header check of :meth:`IPv4.decode`, which also
    slices the body by ``total_length`` through it.
    """
    if len(ip) < 20:
        return None
    version_ihl = ip[0]
    header_len = (version_ihl & 0x0F) * 4
    if version_ihl >> 4 != 4 or header_len < 20 or len(ip) < header_len:
        return None
    total_length = (ip[2] << 8) | ip[3]
    body = (ip[header_len:total_length] if total_length >= header_len
            else ip[header_len:])
    return ip[9], body


class IPv4(Header):
    """An IPv4 packet.  Options are not supported (IHL is always 5)."""

    HEADER_LEN = 20

    def __init__(
        self,
        src: IPv4Address,
        dst: IPv4Address,
        protocol: int,
        payload: Payload = None,
        ttl: int = 64,
        tos: int = 0,
        identification: int = 0,
        flags: int = 0,
        fragment_offset: int = 0,
    ) -> None:
        self.src = IPv4Address(src)
        self.dst = IPv4Address(dst)
        self.protocol = protocol
        self.payload = payload
        self.ttl = ttl
        self.tos = tos
        self.identification = identification
        self.flags = flags
        self.fragment_offset = fragment_offset

    def encode(self) -> bytes:
        body = as_bytes(self.payload)
        total_length = self.HEADER_LEN + len(body)
        version_ihl = (4 << 4) | 5
        flags_frag = ((self.flags & 0x7) << 13) | (self.fragment_offset & 0x1FFF)
        header = struct.pack(
            "!BBHHHBBH",
            version_ihl,
            self.tos,
            total_length,
            self.identification,
            flags_frag,
            self.ttl,
            self.protocol,
            0,
        ) + self.src.packed + self.dst.packed
        csum = checksum16(header)
        header = header[:10] + struct.pack("!H", csum) + header[12:]
        return header + body

    @classmethod
    def decode(cls, data: bytes) -> "IPv4":
        framing = ipv4_framing(data)
        if framing is None:
            raise DecodeError(f"malformed IPv4 header ({len(data)} bytes)")
        protocol, body = framing
        _version_ihl, tos, _total, identification, flags_frag, ttl = (
            struct.unpack("!BBHHHB", data[0:9]))
        return cls(
            src=IPv4Address(data[12:16]),
            dst=IPv4Address(data[16:20]),
            protocol=protocol,
            payload=cls._decode_payload(protocol, body),
            ttl=ttl,
            tos=tos,
            identification=identification,
            flags=(flags_frag >> 13) & 0x7,
            fragment_offset=flags_frag & 0x1FFF,
        )

    @staticmethod
    def _decode_payload(protocol: int, data: bytes) -> Payload:
        from repro.net.transport import ICMP, UDP
        from repro.quagga.ospf.packets import OSPFPacket

        try:
            if protocol == IPProtocol.UDP:
                return UDP.decode(data)
            if protocol == IPProtocol.ICMP:
                return ICMP.decode(data)
            if protocol == IPProtocol.OSPF:
                return OSPFPacket.decode(data)
        except DecodeError:
            return data
        return data

    def __repr__(self) -> str:
        return f"<IPv4 {self.src} -> {self.dst} proto={self.protocol} ttl={self.ttl}>"
