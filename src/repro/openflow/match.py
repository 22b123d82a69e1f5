"""The OpenFlow 1.0 ``ofp_match`` structure and packet-field extraction.

A :class:`Match` is both a wire structure (40 bytes, encoded/decoded
exactly as the specification lays it out) and a predicate: it can be asked
whether a concrete packet's extracted fields satisfy it, taking wildcards
and the CIDR-style network-address wildcards into account.
"""

from __future__ import annotations

import struct
from typing import Optional

from repro.net.addresses import IPv4Address, MACAddress
from repro.net.ethernet import EtherType, ethernet_framing
from repro.net.ipv4 import IPProtocol, ipv4_framing
from repro.net.packet import DecodeError
from repro.openflow.constants import OFPFlowWildcards as W

MATCH_LEN = 40

#: The single-bit (non-prefix) field wildcards, for covers() containment.
_EXACT_FIELD_BITS = (
    W.IN_PORT | W.DL_VLAN | W.DL_SRC | W.DL_DST | W.DL_TYPE
    | W.NW_PROTO | W.TP_SRC | W.TP_DST | W.DL_VLAN_PCP | W.NW_TOS
)

#: Wildcard pattern of a "destination-prefix" match (everything wildcarded
#: except dl_type and some nw_dst prefix), with the nw_dst bits masked out.
_DST_SHAPE = W.ALL & ~W.DL_TYPE


class PacketFields:
    """Fields extracted from a concrete packet for flow-table lookup."""

    __slots__ = (
        "in_port", "dl_src", "dl_dst", "dl_vlan", "dl_vlan_pcp", "dl_type",
        "nw_tos", "nw_proto", "nw_src", "nw_dst", "tp_src", "tp_dst",
    )

    def __init__(self, in_port: int = 0) -> None:
        self.in_port = in_port
        self.dl_src = MACAddress(0)
        self.dl_dst = MACAddress(0)
        self.dl_vlan = 0xFFFF  # OFP_VLAN_NONE
        self.dl_vlan_pcp = 0
        self.dl_type = 0
        self.nw_tos = 0
        self.nw_proto = 0
        self.nw_src = IPv4Address(0)
        self.nw_dst = IPv4Address(0)
        self.tp_src = 0
        self.tp_dst = 0

    @classmethod
    def from_frame(cls, data: bytes, in_port: int = 0) -> "PacketFields":
        """Extract match fields from an encoded Ethernet frame.

        This is the per-packet path of every switch pipeline, so it runs
        the Ethernet and IPv4 codecs' own header checks
        (:func:`~repro.net.ethernet.ethernet_framing`,
        :func:`~repro.net.ipv4.ipv4_framing`) and reads the rest straight
        out of the bytes instead of decoding the whole header-object tree
        (which would parse OSPF LSA payloads just to read two port
        numbers).  A header the codec would reject leaves its fields at
        their defaults; ``TestFrameReference`` holds the L4 and ARP reads
        to the decoded tree.
        """
        fields = cls(in_port=in_port)
        framing = ethernet_framing(data)
        if framing is None:
            return fields
        ethertype, offset, vlan, vlan_pcp = framing
        if vlan is not None:
            fields.dl_vlan = vlan
            fields.dl_vlan_pcp = vlan_pcp
        fields.dl_dst = MACAddress(data[0:6])
        fields.dl_src = MACAddress(data[6:12])
        fields.dl_type = ethertype
        if ethertype == EtherType.IPV4:
            ip = data[offset:]
            ip_framing = ipv4_framing(ip)
            if ip_framing is None:
                return fields
            protocol, body = ip_framing
            fields.nw_tos = ip[1]
            fields.nw_proto = protocol
            fields.nw_src = IPv4Address(ip[12:16])
            fields.nw_dst = IPv4Address(ip[16:20])
            blen = len(body)
            if protocol == IPProtocol.UDP:
                if blen >= 8 and ((body[4] << 8) | body[5]) >= 8:
                    fields.tp_src = (body[0] << 8) | body[1]
                    fields.tp_dst = (body[2] << 8) | body[3]
            elif protocol == IPProtocol.ICMP:
                if blen >= 8:
                    fields.tp_src = body[0]
                    fields.tp_dst = body[1]
        elif ethertype == EtherType.ARP:
            arp = data[offset:]
            if (len(arp) >= 28 and arp[0:2] == b"\x00\x01"
                    and arp[2:4] == b"\x08\x00" and arp[4] == 6 and arp[5] == 4):
                fields.nw_proto = (arp[6] << 8) | arp[7]
                fields.nw_src = IPv4Address(arp[14:18])
                fields.nw_dst = IPv4Address(arp[24:28])
        return fields


class Match:
    """An ``ofp_match``: wildcard bitmap plus concrete field values."""

    __slots__ = (
        "wildcards", "in_port", "dl_src", "dl_dst", "dl_vlan", "dl_vlan_pcp",
        "dl_type", "nw_tos", "nw_proto", "nw_src", "nw_dst", "tp_src", "tp_dst",
        "_key_cache", "_plen_cache", "_dst_cache", "_identity_cache",
    )

    def __init__(
        self,
        wildcards: int = W.ALL,
        in_port: int = 0,
        dl_src: MACAddress = MACAddress(0),
        dl_dst: MACAddress = MACAddress(0),
        dl_vlan: int = 0,
        dl_vlan_pcp: int = 0,
        dl_type: int = 0,
        nw_tos: int = 0,
        nw_proto: int = 0,
        nw_src: IPv4Address = IPv4Address(0),
        nw_dst: IPv4Address = IPv4Address(0),
        tp_src: int = 0,
        tp_dst: int = 0,
    ) -> None:
        self.wildcards = wildcards
        self.in_port = in_port
        self.dl_src = MACAddress(dl_src)
        self.dl_dst = MACAddress(dl_dst)
        self.dl_vlan = dl_vlan
        self.dl_vlan_pcp = dl_vlan_pcp
        self.dl_type = dl_type
        self.nw_tos = nw_tos
        self.nw_proto = nw_proto
        self.nw_src = IPv4Address(nw_src)
        self.nw_dst = IPv4Address(nw_dst)
        self.tp_src = tp_src
        self.tp_dst = tp_dst
        # Field-tuple cache backing __eq__/__hash__; flow tables compare
        # matches constantly, so the tuple is built once and dropped by the
        # set_* mutators below.  The prefix-length pair is cached the same
        # way: covers()/matches() run millions of times per experiment.  So
        # are the flow-table index keys (identity(), destination_prefix_key()):
        # entries sharing one match share them instead of building their own.
        self._forget()

    def _forget(self) -> None:
        """Drop every cached derivation of the fields (a setter ran)."""
        self._key_cache = None
        self._plen_cache = None
        # False, not None: "not worked out yet" (the key itself may be None).
        self._dst_cache = False
        self._identity_cache = None

    # --------------------------------------------------------- constructors
    @classmethod
    def wildcard_all(cls) -> "Match":
        """A match that accepts every packet."""
        return cls(wildcards=W.ALL)

    @classmethod
    def for_destination_prefix(cls, network: IPv4Address, prefix_len: int) -> "Match":
        """Match IPv4 traffic towards a destination prefix (RouteFlow routes)."""
        match = cls.wildcard_all()
        match.set_dl_type(EtherType.IPV4)
        match.set_nw_dst(network, prefix_len)
        return match

    @classmethod
    def exact_from_fields(cls, fields: PacketFields) -> "Match":
        """Exact match mirroring every extracted field (wildcards = 0)."""
        return cls(
            wildcards=0,
            in_port=fields.in_port,
            dl_src=fields.dl_src,
            dl_dst=fields.dl_dst,
            dl_vlan=fields.dl_vlan,
            dl_vlan_pcp=fields.dl_vlan_pcp,
            dl_type=fields.dl_type,
            nw_tos=fields.nw_tos,
            nw_proto=fields.nw_proto,
            nw_src=fields.nw_src,
            nw_dst=fields.nw_dst,
            tp_src=fields.tp_src,
            tp_dst=fields.tp_dst,
        )

    # --------------------------------------------------------------- setters
    def set_in_port(self, port: int) -> "Match":
        self._forget()
        self.in_port = port
        self.wildcards &= ~W.IN_PORT
        return self

    def set_dl_type(self, dl_type: int) -> "Match":
        self._forget()
        self.dl_type = dl_type
        self.wildcards &= ~W.DL_TYPE
        return self

    def set_nw_src(self, address: IPv4Address, prefix_len: int = 32) -> "Match":
        self._forget()
        self.nw_src = IPv4Address(address)
        self.wildcards &= ~W.NW_SRC_MASK
        self.wildcards |= ((32 - prefix_len) << W.NW_SRC_SHIFT) & W.NW_SRC_MASK
        return self

    def set_nw_dst(self, address: IPv4Address, prefix_len: int = 32) -> "Match":
        self._forget()
        self.nw_dst = IPv4Address(address)
        self.wildcards &= ~W.NW_DST_MASK
        self.wildcards |= ((32 - prefix_len) << W.NW_DST_SHIFT) & W.NW_DST_MASK
        return self

    def set_tp_dst(self, port: int) -> "Match":
        self._forget()
        self.tp_dst = port
        self.wildcards &= ~W.TP_DST
        return self

    # ------------------------------------------------------------ properties
    def _prefix_lens(self) -> tuple:
        """(nw_src_prefix_len, nw_dst_prefix_len), cached until a mutator
        touches the address wildcards."""
        lens = self._plen_cache
        if lens is None:
            w = self.wildcards
            src_ignored = (w & W.NW_SRC_MASK) >> W.NW_SRC_SHIFT
            dst_ignored = (w & W.NW_DST_MASK) >> W.NW_DST_SHIFT
            lens = self._plen_cache = (
                32 - src_ignored if src_ignored < 32 else 0,
                32 - dst_ignored if dst_ignored < 32 else 0,
            )
        return lens

    @property
    def nw_src_prefix_len(self) -> int:
        return self._prefix_lens()[0]

    @property
    def nw_dst_prefix_len(self) -> int:
        return self._prefix_lens()[1]

    @property
    def is_exact(self) -> bool:
        """True when no field is wildcarded."""
        return self.wildcards == 0

    # --------------------------------------------------------------- predicate
    def matches(self, fields: PacketFields) -> bool:
        """Does a packet with the given extracted fields satisfy this match?"""
        w = self.wildcards
        if not w & W.IN_PORT and self.in_port != fields.in_port:
            return False
        if not w & W.DL_SRC and self.dl_src != fields.dl_src:
            return False
        if not w & W.DL_DST and self.dl_dst != fields.dl_dst:
            return False
        if not w & W.DL_VLAN and self.dl_vlan != fields.dl_vlan:
            return False
        if not w & W.DL_VLAN_PCP and self.dl_vlan_pcp != fields.dl_vlan_pcp:
            return False
        if not w & W.DL_TYPE and self.dl_type != fields.dl_type:
            return False
        if not w & W.NW_TOS and self.nw_tos != fields.nw_tos:
            return False
        if not w & W.NW_PROTO and self.nw_proto != fields.nw_proto:
            return False
        src_len, dst_len = self._prefix_lens()
        if src_len and (int(self.nw_src) ^ int(fields.nw_src)) >> (32 - src_len):
            return False
        if dst_len and (int(self.nw_dst) ^ int(fields.nw_dst)) >> (32 - dst_len):
            return False
        if not w & W.TP_SRC and self.tp_src != fields.tp_src:
            return False
        if not w & W.TP_DST and self.tp_dst != fields.tp_dst:
            return False
        return True

    def covers(self, other: "Match") -> bool:
        """True when every packet matched by ``other`` is matched by self.

        Used for OpenFlow's non-strict delete/modify semantics.  Every
        field that self constrains must also be constrained (at least as
        tightly) by other, and the values must agree.  Flow tables call
        this once per entry per non-strict flow-mod, so the comparison is
        straight field-by-field rather than built on matches().
        """
        w_self, w_other = self.wildcards, other.wildcards
        if w_other & _EXACT_FIELD_BITS & ~w_self:
            return False
        if not w_self & W.IN_PORT and self.in_port != other.in_port:
            return False
        if not w_self & W.DL_SRC and self.dl_src != other.dl_src:
            return False
        if not w_self & W.DL_DST and self.dl_dst != other.dl_dst:
            return False
        if not w_self & W.DL_VLAN and self.dl_vlan != other.dl_vlan:
            return False
        if not w_self & W.DL_VLAN_PCP and self.dl_vlan_pcp != other.dl_vlan_pcp:
            return False
        if not w_self & W.DL_TYPE and self.dl_type != other.dl_type:
            return False
        if not w_self & W.NW_TOS and self.nw_tos != other.nw_tos:
            return False
        if not w_self & W.NW_PROTO and self.nw_proto != other.nw_proto:
            return False
        if not w_self & W.TP_SRC and self.tp_src != other.tp_src:
            return False
        if not w_self & W.TP_DST and self.tp_dst != other.tp_dst:
            return False
        src_len, dst_len = self._prefix_lens()
        other_src_len, other_dst_len = other._prefix_lens()
        if src_len > other_src_len or dst_len > other_dst_len:
            return False
        if src_len and (int(self.nw_src) ^ int(other.nw_src)) >> (32 - src_len):
            return False
        if dst_len and (int(self.nw_dst) ^ int(other.nw_dst)) >> (32 - dst_len):
            return False
        return True

    def destination_prefix_key(self) -> Optional[tuple]:
        """``(dl_type, masked nw_dst, prefix_len)`` for a pure
        destination-prefix match, else None.

        A destination-prefix match constrains exactly dl_type plus some
        nw_dst prefix — the shape :meth:`for_destination_prefix` builds and
        the only shape RouteFlow installs.  Flow tables index these for
        O(covered) non-strict deletes instead of scanning every entry.
        """
        key = self._dst_cache
        if key is False:
            if (self.wildcards | W.NW_DST_MASK) != _DST_SHAPE | W.NW_DST_MASK:
                key = None
            else:
                prefix_len = self._prefix_lens()[1]
                shift = 32 - prefix_len
                key = (self.dl_type, int(self.nw_dst) >> shift << shift,
                       prefix_len)
            self._dst_cache = key
        return key

    def identity(self, priority: int) -> tuple:
        """``(priority, field key)``: equal for exactly the flow entries an
        OpenFlow table treats as identical (replace on add, STRICT commands).
        Cached for the last priority asked."""
        identity = self._identity_cache
        if identity is None or identity[0] != priority:
            identity = self._identity_cache = (priority, self._key())
        return identity

    # -------------------------------------------------------------- encoding
    def encode(self) -> bytes:
        return struct.pack(
            "!IH6s6sHBxHBB2x4s4sHH",
            self.wildcards,
            self.in_port,
            self.dl_src.packed,
            self.dl_dst.packed,
            self.dl_vlan,
            self.dl_vlan_pcp,
            self.dl_type,
            self.nw_tos,
            self.nw_proto,
            self.nw_src.packed,
            self.nw_dst.packed,
            self.tp_src,
            self.tp_dst,
        )

    @classmethod
    def decode(cls, data: bytes) -> "Match":
        if len(data) < MATCH_LEN:
            raise DecodeError(f"ofp_match too short: {len(data)} bytes")
        (wildcards, in_port, dl_src, dl_dst, dl_vlan, dl_vlan_pcp, dl_type,
         nw_tos, nw_proto, nw_src, nw_dst, tp_src, tp_dst) = struct.unpack(
            "!IH6s6sHBxHBB2x4s4sHH", data[:MATCH_LEN])
        return cls(
            wildcards=wildcards,
            in_port=in_port,
            dl_src=MACAddress(dl_src),
            dl_dst=MACAddress(dl_dst),
            dl_vlan=dl_vlan,
            dl_vlan_pcp=dl_vlan_pcp,
            dl_type=dl_type,
            nw_tos=nw_tos,
            nw_proto=nw_proto,
            nw_src=IPv4Address(nw_src),
            nw_dst=IPv4Address(nw_dst),
            tp_src=tp_src,
            tp_dst=tp_dst,
        )

    # ------------------------------------------------------------------ misc
    def _key(self) -> tuple:
        key = self._key_cache
        if key is None:
            key = self._key_cache = (
                self.wildcards, self.in_port, int(self.dl_src), int(self.dl_dst),
                self.dl_vlan, self.dl_vlan_pcp, self.dl_type, self.nw_tos,
                self.nw_proto, int(self.nw_src), int(self.nw_dst),
                self.tp_src, self.tp_dst,
            )
        return key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Match):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        parts = []
        w = self.wildcards
        if not w & W.IN_PORT:
            parts.append(f"in_port={self.in_port}")
        if not w & W.DL_TYPE:
            parts.append(f"dl_type={self.dl_type:#06x}")
        if not w & W.DL_SRC:
            parts.append(f"dl_src={self.dl_src}")
        if not w & W.DL_DST:
            parts.append(f"dl_dst={self.dl_dst}")
        if self.nw_src_prefix_len:
            parts.append(f"nw_src={self.nw_src}/{self.nw_src_prefix_len}")
        if self.nw_dst_prefix_len:
            parts.append(f"nw_dst={self.nw_dst}/{self.nw_dst_prefix_len}")
        if not w & W.NW_PROTO:
            parts.append(f"nw_proto={self.nw_proto}")
        if not w & W.TP_SRC:
            parts.append(f"tp_src={self.tp_src}")
        if not w & W.TP_DST:
            parts.append(f"tp_dst={self.tp_dst}")
        return f"<Match {' '.join(parts) or 'any'}>"
