"""LLDP (IEEE 802.1AB) frame codec.

The topology-discovery module referenced by the paper (the NOX discovery
application) works by injecting an LLDP frame out of every switch port and
learning a link when the frame shows up as a PACKET_IN on another switch.
This module provides just the TLVs the discovery application needs:
Chassis ID (the datapath id), Port ID (the port number) and TTL.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

from repro.net.addresses import MACAddress
from repro.net.packet import DecodeError, Header

#: Destination MAC used by LLDP (nearest-bridge group address).
LLDP_MULTICAST = MACAddress("01:80:c2:00:00:0e")

#: Wire-bytes -> decoded LLDP intern table (bounded; see LLDP.decode).
_DECODED_LLDP: dict = {}
_DECODED_LLDP_LIMIT = 1 << 16


class LLDPTLVType:
    END = 0
    CHASSIS_ID = 1
    PORT_ID = 2
    TTL = 3
    SYSTEM_NAME = 5


class LLDP(Header):
    """An LLDP data unit carrying chassis/port/TTL TLVs.

    ``chassis_id`` is the OpenFlow datapath id (64-bit int) encoded as a
    locally-assigned string, and ``port_id`` is the OpenFlow port number.
    """

    CHASSIS_SUBTYPE_LOCAL = 7
    PORT_SUBTYPE_LOCAL = 7

    def __init__(self, chassis_id: int, port_id: int, ttl: int = 120, system_name: str = "") -> None:
        self.chassis_id = chassis_id
        self.port_id = port_id
        self.ttl = ttl
        self.system_name = system_name
        self.payload = None

    # --------------------------------------------------------------- helpers
    @staticmethod
    def _tlv(tlv_type: int, value: bytes) -> bytes:
        if len(value) > 511:
            raise ValueError("TLV value too long")
        type_len = (tlv_type << 9) | len(value)
        return struct.pack("!H", type_len) + value

    @staticmethod
    def _parse_tlvs(data: bytes) -> List[Tuple[int, bytes]]:
        tlvs = []
        offset = 0
        while offset + 2 <= len(data):
            (type_len,) = struct.unpack("!H", data[offset:offset + 2])
            tlv_type = type_len >> 9
            length = type_len & 0x1FF
            offset += 2
            value = data[offset:offset + length]
            if len(value) < length:
                raise DecodeError("truncated LLDP TLV")
            offset += length
            tlvs.append((tlv_type, value))
            if tlv_type == LLDPTLVType.END:
                break
        return tlvs

    # -------------------------------------------------------------- encoding
    def encode(self) -> bytes:
        chassis_value = bytes([self.CHASSIS_SUBTYPE_LOCAL]) + f"dpid:{self.chassis_id:016x}".encode()
        port_value = bytes([self.PORT_SUBTYPE_LOCAL]) + str(self.port_id).encode()
        out = self._tlv(LLDPTLVType.CHASSIS_ID, chassis_value)
        out += self._tlv(LLDPTLVType.PORT_ID, port_value)
        out += self._tlv(LLDPTLVType.TTL, struct.pack("!H", self.ttl))
        if self.system_name:
            out += self._tlv(LLDPTLVType.SYSTEM_NAME, self.system_name.encode())
        out += self._tlv(LLDPTLVType.END, b"")
        return out

    @classmethod
    def decode(cls, data: bytes) -> "LLDP":
        # Discovery re-sends the identical probe frame on every port at
        # every interval; intern the decoded (immutable) frame by its bytes.
        wire = bytes(data)
        cached = _DECODED_LLDP.get(wire)
        if cached is not None:
            return cached
        lldp = cls._decode_uncached(wire)
        if len(_DECODED_LLDP) < _DECODED_LLDP_LIMIT:
            _DECODED_LLDP[wire] = lldp
        return lldp

    @classmethod
    def _decode_uncached(cls, data: bytes) -> "LLDP":
        tlvs = cls._parse_tlvs(data)
        chassis_id = None
        port_id = None
        ttl = 120
        system_name = ""
        for tlv_type, value in tlvs:
            if tlv_type == LLDPTLVType.CHASSIS_ID:
                if not value:
                    raise DecodeError("empty chassis TLV")
                text = value[1:].decode(errors="replace")
                if not text.startswith("dpid:"):
                    raise DecodeError(f"unrecognised chassis id: {text!r}")
                try:
                    chassis_id = int(text[5:], 16)
                except ValueError as exc:
                    raise DecodeError("unparseable chassis id") from exc
            elif tlv_type == LLDPTLVType.PORT_ID:
                if not value:
                    raise DecodeError("empty port TLV")
                try:
                    port_id = int(value[1:].decode())
                except ValueError as exc:
                    raise DecodeError("unparseable port id") from exc
            elif tlv_type == LLDPTLVType.TTL:
                if len(value) >= 2:
                    (ttl,) = struct.unpack("!H", value[:2])
            elif tlv_type == LLDPTLVType.SYSTEM_NAME:
                system_name = value.decode(errors="replace")
        if chassis_id is None or port_id is None:
            raise DecodeError("LLDP frame missing chassis or port TLV")
        return cls(chassis_id=chassis_id, port_id=port_id, ttl=ttl, system_name=system_name)

    def __repr__(self) -> str:
        return f"<LLDP dpid={self.chassis_id:#x} port={self.port_id} ttl={self.ttl}>"
