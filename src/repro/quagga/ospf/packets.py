"""OSPFv2 packet and LSA wire formats (RFC 2328 subset).

Implemented packet types: Hello, Database Description, Link State Request,
Link State Update and Link State Acknowledgment.  Implemented LSA type:
Router LSA (type 1) — sufficient because every adjacency in the RouteFlow
virtual topology is a point-to-point link between two VMs, so no Network
LSAs are ever originated.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from repro.net.addresses import IPv4Address, checksum16
from repro.net.packet import DecodeError, Header
from repro.quagga.ospf.constants import (
    LSAType,
    OSPF_VERSION,
    OSPFPacketType,
    RouterLinkType,
)

OSPF_HEADER_LEN = 24
LSA_HEADER_LEN = 20

_ZERO_ADDR = bytes(4)

#: One Router LSA link: link id, link data, type, TOS count, metric.
_ROUTER_LINK = struct.Struct("!IIBBH")

#: Wire-bytes -> decoded RouterLSA intern table (see RouterLSA.decode).
#: Bounded so a long-running simulation cannot grow it without limit.
_DECODED_LSAS: dict = {}
_DECODED_LSAS_LIMIT = 1 << 16

#: Wire-bytes -> decoded OSPFPacket intern table (see OSPFPacket.decode).
_DECODED_PACKETS: dict = {}
_DECODED_PACKETS_LIMIT = 1 << 16


# --------------------------------------------------------------------------
# LSA structures
# --------------------------------------------------------------------------
class LSAHeader:
    """The 20-byte LSA header used in DD packets, acks and the LSDB index."""

    def __init__(self, ls_type: int, link_state_id: IPv4Address,
                 advertising_router: IPv4Address, sequence: int,
                 age: int = 0, options: int = 0x02, length: int = LSA_HEADER_LEN) -> None:
        self.ls_type = ls_type
        self.link_state_id = IPv4Address(link_state_id)
        self.advertising_router = IPv4Address(advertising_router)
        self.sequence = sequence
        self.age = age
        self.options = options
        self.length = length
        # Headers sit in the LSDB and are re-encoded for every DD summary
        # and ack; the wire form is cached until ``length`` changes (the one
        # field RouterLSA rewrites after construction).
        self._encoded: Optional[bytes] = None
        self._encoded_length = -1

    @property
    def key(self) -> Tuple[int, int, int]:
        """LSDB identity: (type, link-state id, advertising router)."""
        return (self.ls_type, int(self.link_state_id), int(self.advertising_router))

    def is_newer_than(self, other: "LSAHeader") -> bool:
        """RFC 2328 §13.1 freshness comparison (sequence number, then age)."""
        if self.sequence != other.sequence:
            return self.sequence > other.sequence
        return self.age < other.age

    def encode(self) -> bytes:
        if self._encoded is None or self._encoded_length != self.length:
            self._encoded = struct.pack(
                "!HBB4s4sIHH", self.age, self.options, self.ls_type,
                self.link_state_id.packed, self.advertising_router.packed,
                self.sequence & 0xFFFFFFFF, 0, self.length)
            self._encoded_length = self.length
        return self._encoded

    @classmethod
    def decode(cls, data: bytes) -> "LSAHeader":
        if len(data) < LSA_HEADER_LEN:
            raise DecodeError("truncated LSA header")
        age, options, ls_type, lsid, adv, sequence, _csum, length = struct.unpack(
            "!HBB4s4sIHH", data[:LSA_HEADER_LEN])
        return cls(ls_type=ls_type, link_state_id=IPv4Address(lsid),
                   advertising_router=IPv4Address(adv), sequence=sequence,
                   age=age, options=options, length=length)

    def __repr__(self) -> str:
        return (f"<LSAHeader type={self.ls_type} id={self.link_state_id} "
                f"adv={self.advertising_router} seq={self.sequence:#x}>")


class RouterLink:
    """One link description inside a Router LSA."""

    def __init__(self, link_id: IPv4Address, link_data: IPv4Address,
                 link_type: int, metric: int) -> None:
        self.link_id = IPv4Address(link_id)
        self.link_data = IPv4Address(link_data)
        self.link_type = link_type
        self.metric = metric

    @classmethod
    def point_to_point(cls, neighbor_router_id: IPv4Address,
                       local_interface_ip: IPv4Address, metric: int) -> "RouterLink":
        return cls(neighbor_router_id, local_interface_ip,
                   RouterLinkType.POINT_TO_POINT, metric)

    @classmethod
    def stub(cls, network: IPv4Address, netmask: IPv4Address, metric: int) -> "RouterLink":
        return cls(network, netmask, RouterLinkType.STUB, metric)

    @classmethod
    def external(cls, network: IPv4Address, netmask: IPv4Address,
                 metric: int) -> "RouterLink":
        """A redistributed AS-external prefix (the type-5 LSA stand-in)."""
        return cls(network, netmask, RouterLinkType.EXTERNAL, metric)

    def encode(self) -> bytes:
        return _ROUTER_LINK.pack(self.link_id._value, self.link_data._value,
                                 self.link_type, 0, self.metric)

    @classmethod
    def decode(cls, data: bytes) -> "RouterLink":
        if len(data) < 12:
            raise DecodeError("truncated router link")
        link_id = IPv4Address(data[0:4])
        link_data = IPv4Address(data[4:8])
        link_type, _ntos, metric = struct.unpack("!BBH", data[8:12])
        return cls(link_id, link_data, link_type, metric)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RouterLink):
            return NotImplemented
        return self.encode() == other.encode()

    def __repr__(self) -> str:
        kind = {1: "p2p", 2: "transit", 3: "stub", 4: "virtual",
                7: "external"}.get(self.link_type, "?")
        return f"<RouterLink {kind} id={self.link_id} data={self.link_data} metric={self.metric}>"


class RouterLSA:
    """A type-1 (Router) LSA: header + the router's link descriptions."""

    def __init__(self, header: LSAHeader, links: List[RouterLink], flags: int = 0) -> None:
        self.header = header
        self.links = list(links)
        self.flags = flags
        self.header.length = LSA_HEADER_LEN + 4 + 12 * len(self.links)
        # LSAs are immutable once originated/decoded but are flooded out of
        # every interface on every topology change: serialize once.
        self._encoded: Optional[bytes] = None

    @classmethod
    def originate(cls, router_id: IPv4Address, sequence: int,
                  links: List[RouterLink], age: int = 0) -> "RouterLSA":
        """Originate an LSA; ``age=MAX_AGE`` produces a premature-aging flush."""
        header = LSAHeader(ls_type=LSAType.ROUTER, link_state_id=router_id,
                           advertising_router=router_id, sequence=sequence,
                           age=age)
        return cls(header=header, links=links)

    @property
    def key(self) -> Tuple[int, int, int]:
        return self.header.key

    def encode(self) -> bytes:
        if self._encoded is None:
            body = struct.pack("!BxH", self.flags, len(self.links))
            body += b"".join(link.encode() for link in self.links)
            self.header.length = LSA_HEADER_LEN + len(body)
            self._encoded = self.header.encode() + body
        return self._encoded

    @classmethod
    def decode(cls, data: bytes) -> "RouterLSA":
        """Decode a Router LSA, interning by wire bytes.

        Flooding delivers the identical LSA bytes to every router in the
        area; the decoded instance is shared between them, which is safe
        because LSAs are immutable once decoded (nothing in the LSDB or the
        flooding path writes to them).
        """
        if len(data) < LSA_HEADER_LEN:
            raise DecodeError("truncated LSA header")
        if data[3] != LSAType.ROUTER:
            raise DecodeError(f"not a router LSA (type {data[3]})")
        length = (data[18] << 8) | data[19]
        if len(data) < length:
            raise DecodeError("truncated router LSA")
        wire = bytes(data[:length])
        cached = _DECODED_LSAS.get(wire)
        if cached is not None:
            return cached
        header = LSAHeader.decode(wire)
        body = wire[LSA_HEADER_LEN:]
        if len(body) < 4:
            raise DecodeError("router LSA body too short")
        flags, num_links = struct.unpack("!BxH", body[:4])
        links = []
        offset = 4
        for _ in range(num_links):
            links.append(RouterLink.decode(body[offset:offset + 12]))
            offset += 12
        lsa = cls(header=header, links=links, flags=flags)
        if len(_DECODED_LSAS) < _DECODED_LSAS_LIMIT:
            _DECODED_LSAS[wire] = lsa
        return lsa

    def __repr__(self) -> str:
        return f"<RouterLSA {self.header.advertising_router} links={len(self.links)}>"


def decode_lsa(data: bytes) -> Tuple[RouterLSA, int]:
    """Decode one LSA from a byte string; returns (lsa, bytes consumed).

    Unknown LSA types are rejected — only Router LSAs circulate in the
    reproduced topologies.
    """
    if len(data) < LSA_HEADER_LEN:
        raise DecodeError("truncated LSA header")
    if data[3] == LSAType.ROUTER:
        lsa = RouterLSA.decode(data)
        return lsa, lsa.header.length
    raise DecodeError(f"unsupported LSA type {data[3]}")


# --------------------------------------------------------------------------
# OSPF packets
# --------------------------------------------------------------------------
class OSPFPacket(Header):
    """Base: the 24-byte OSPF header followed by a typed body."""

    packet_type: int = 0

    def __init__(self, router_id: IPv4Address, area_id: IPv4Address = IPv4Address(0)) -> None:
        self.router_id = IPv4Address(router_id)
        self.area_id = IPv4Address(area_id)
        self.payload = None

    def body(self) -> bytes:
        return b""

    def encode(self) -> bytes:
        body = self.body()
        length = OSPF_HEADER_LEN + len(body)
        header = struct.pack("!BBH4s4sHHQ", OSPF_VERSION, self.packet_type, length,
                             self.router_id.packed, self.area_id.packed, 0, 0, 0)
        csum = checksum16(header + body)
        header = header[:12] + struct.pack("!H", csum) + header[14:]
        return header + body

    @classmethod
    def decode(cls, data: bytes) -> "OSPFPacket":
        """Decode an OSPF packet, interning by wire bytes.

        Steady-state hellos repeat byte-identically every interval and a
        flooded LS Update reaches every neighbor with the same bytes, so the
        decoded (immutable) packet is shared between deliveries.
        """
        wire = bytes(data)
        cached = _DECODED_PACKETS.get(wire)
        if cached is not None:
            return cached
        packet = cls._decode_uncached(wire)
        if len(_DECODED_PACKETS) < _DECODED_PACKETS_LIMIT:
            _DECODED_PACKETS[wire] = packet
        return packet

    @classmethod
    def _decode_uncached(cls, data: bytes) -> "OSPFPacket":
        if len(data) < OSPF_HEADER_LEN:
            raise DecodeError(f"OSPF packet too short: {len(data)} bytes")
        version, ptype, length, router_id, area_id, _csum, _autype, _auth = struct.unpack(
            "!BBH4s4sHHQ", data[:OSPF_HEADER_LEN])
        if version != OSPF_VERSION:
            raise DecodeError(f"unsupported OSPF version {version}")
        if length < OSPF_HEADER_LEN or len(data) < length:
            raise DecodeError("truncated OSPF packet")
        body = data[OSPF_HEADER_LEN:length]
        klass = _PACKET_TYPES.get(ptype)
        if klass is None:
            raise DecodeError(f"unsupported OSPF packet type {ptype}")
        return klass.decode_body(IPv4Address(router_id), IPv4Address(area_id), body)

    @classmethod
    def decode_body(cls, router_id: IPv4Address, area_id: IPv4Address,
                    body: bytes) -> "OSPFPacket":
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} from {self.router_id}>"


class HelloPacket(OSPFPacket):
    packet_type = OSPFPacketType.HELLO

    def __init__(self, router_id: IPv4Address, network_mask: IPv4Address,
                 hello_interval: int, dead_interval: int,
                 neighbors: Optional[List[IPv4Address]] = None,
                 area_id: IPv4Address = IPv4Address(0), priority: int = 1) -> None:
        super().__init__(router_id, area_id)
        self.network_mask = IPv4Address(network_mask)
        self.hello_interval = hello_interval
        self.dead_interval = dead_interval
        self.neighbors = [IPv4Address(n) for n in (neighbors or [])]
        self.priority = priority

    def body(self) -> bytes:
        out = self.network_mask.packed
        out += struct.pack("!HBB", self.hello_interval, 0x02, self.priority)
        out += struct.pack("!I", self.dead_interval)
        out += _ZERO_ADDR  # designated router (unused on p2p)
        out += _ZERO_ADDR  # backup designated router
        for neighbor in self.neighbors:
            out += neighbor.packed
        return out

    @classmethod
    def decode_body(cls, router_id, area_id, body: bytes) -> "HelloPacket":
        if len(body) < 20:
            raise DecodeError("truncated OSPF hello")
        network_mask = IPv4Address(body[0:4])
        hello_interval, _options, priority = struct.unpack("!HBB", body[4:8])
        (dead_interval,) = struct.unpack("!I", body[8:12])
        neighbors = []
        offset = 20
        while offset + 4 <= len(body):
            neighbors.append(IPv4Address(body[offset:offset + 4]))
            offset += 4
        return cls(router_id=router_id, network_mask=network_mask,
                   hello_interval=hello_interval, dead_interval=dead_interval,
                   neighbors=neighbors, area_id=area_id, priority=priority)

    def __repr__(self) -> str:
        return f"<Hello from {self.router_id} neighbors={len(self.neighbors)}>"


class DBDescriptionPacket(OSPFPacket):
    packet_type = OSPFPacketType.DB_DESCRIPTION

    def __init__(self, router_id: IPv4Address, dd_sequence: int, flags: int,
                 lsa_headers: Optional[List[LSAHeader]] = None,
                 area_id: IPv4Address = IPv4Address(0), mtu: int = 1500) -> None:
        super().__init__(router_id, area_id)
        self.dd_sequence = dd_sequence
        self.flags = flags
        self.lsa_headers = list(lsa_headers or [])
        self.mtu = mtu

    def body(self) -> bytes:
        out = struct.pack("!HBBI", self.mtu, 0x02, self.flags, self.dd_sequence)
        out += b"".join(header.encode() for header in self.lsa_headers)
        return out

    @classmethod
    def decode_body(cls, router_id, area_id, body: bytes) -> "DBDescriptionPacket":
        if len(body) < 8:
            raise DecodeError("truncated DB description")
        mtu, _options, flags, dd_sequence = struct.unpack("!HBBI", body[:8])
        headers = []
        offset = 8
        while offset + LSA_HEADER_LEN <= len(body):
            headers.append(LSAHeader.decode(body[offset:offset + LSA_HEADER_LEN]))
            offset += LSA_HEADER_LEN
        return cls(router_id=router_id, dd_sequence=dd_sequence, flags=flags,
                   lsa_headers=headers, area_id=area_id, mtu=mtu)


class LSRequestPacket(OSPFPacket):
    packet_type = OSPFPacketType.LS_REQUEST

    def __init__(self, router_id: IPv4Address,
                 requests: Optional[List[Tuple[int, IPv4Address, IPv4Address]]] = None,
                 area_id: IPv4Address = IPv4Address(0)) -> None:
        super().__init__(router_id, area_id)
        #: list of (ls_type, link_state_id, advertising_router)
        self.requests = [(t, IPv4Address(i), IPv4Address(a)) for t, i, a in (requests or [])]

    def body(self) -> bytes:
        out = b""
        for ls_type, lsid, adv in self.requests:
            out += struct.pack("!I", ls_type) + lsid.packed + adv.packed
        return out

    @classmethod
    def decode_body(cls, router_id, area_id, body: bytes) -> "LSRequestPacket":
        requests = []
        offset = 0
        while offset + 12 <= len(body):
            (ls_type,) = struct.unpack("!I", body[offset:offset + 4])
            lsid = IPv4Address(body[offset + 4:offset + 8])
            adv = IPv4Address(body[offset + 8:offset + 12])
            requests.append((ls_type, lsid, adv))
            offset += 12
        return cls(router_id=router_id, requests=requests, area_id=area_id)


class LSUpdatePacket(OSPFPacket):
    packet_type = OSPFPacketType.LS_UPDATE

    def __init__(self, router_id: IPv4Address, lsas: Optional[List[RouterLSA]] = None,
                 area_id: IPv4Address = IPv4Address(0)) -> None:
        super().__init__(router_id, area_id)
        self.lsas = list(lsas or [])

    def body(self) -> bytes:
        out = struct.pack("!I", len(self.lsas))
        out += b"".join(lsa.encode() for lsa in self.lsas)
        return out

    @classmethod
    def decode_body(cls, router_id, area_id, body: bytes) -> "LSUpdatePacket":
        if len(body) < 4:
            raise DecodeError("truncated LS update")
        (count,) = struct.unpack("!I", body[:4])
        lsas = []
        offset = 4
        for _ in range(count):
            lsa, consumed = decode_lsa(body[offset:])
            lsas.append(lsa)
            offset += consumed
        return cls(router_id=router_id, lsas=lsas, area_id=area_id)

    def __repr__(self) -> str:
        return f"<LSUpdate from {self.router_id} lsas={len(self.lsas)}>"


class LSAckPacket(OSPFPacket):
    packet_type = OSPFPacketType.LS_ACK

    def __init__(self, router_id: IPv4Address,
                 lsa_headers: Optional[List[LSAHeader]] = None,
                 area_id: IPv4Address = IPv4Address(0)) -> None:
        super().__init__(router_id, area_id)
        self.lsa_headers = list(lsa_headers or [])

    def body(self) -> bytes:
        return b"".join(header.encode() for header in self.lsa_headers)

    @classmethod
    def decode_body(cls, router_id, area_id, body: bytes) -> "LSAckPacket":
        headers = []
        offset = 0
        while offset + LSA_HEADER_LEN <= len(body):
            headers.append(LSAHeader.decode(body[offset:offset + LSA_HEADER_LEN]))
            offset += LSA_HEADER_LEN
        return cls(router_id=router_id, lsa_headers=headers, area_id=area_id)


_PACKET_TYPES = {
    OSPFPacketType.HELLO: HelloPacket,
    OSPFPacketType.DB_DESCRIPTION: DBDescriptionPacket,
    OSPFPacketType.LS_REQUEST: LSRequestPacket,
    OSPFPacketType.LS_UPDATE: LSUpdatePacket,
    OSPFPacketType.LS_ACK: LSAckPacket,
}
