"""Ethernet II frame codec (with optional 802.1Q VLAN tag)."""

from __future__ import annotations

import struct
from typing import Optional, Tuple

from repro.net.addresses import MACAddress
from repro.net.packet import DecodeError, Header, Payload, as_bytes

#: (inner ethertype, payload offset, vlan id or None, vlan pcp)
EthernetFraming = Tuple[int, int, Optional[int], int]


class EtherType:
    """Well-known EtherType values used in this reproduction."""

    IPV4 = 0x0800
    ARP = 0x0806
    VLAN = 0x8100
    LLDP = 0x88CC


def ethernet_framing(data: bytes) -> Optional[EthernetFraming]:
    """The Ethernet II framing (with optional 802.1Q tag) of a frame, or
    None for one too short to hold it.

    This is the whole header check of :meth:`Ethernet.decode`; per-hop
    readers that only dispatch on the framing (the switch pipeline's
    :meth:`~repro.openflow.match.PacketFields.from_frame`, the VM's OSPF
    receive path) call it instead of building the header tree.
    """
    length = len(data)
    if length < 14:
        return None
    ethertype = (data[12] << 8) | data[13]
    if ethertype != EtherType.VLAN:
        return ethertype, 14, None, 0
    if length < 18:
        return None
    tci = (data[14] << 8) | data[15]
    inner = (data[16] << 8) | data[17]
    return inner, 18, tci & 0x0FFF, (tci >> 13) & 0x7


class Ethernet(Header):
    """An Ethernet II frame.

    The payload is decoded into the matching upper-layer header when the
    EtherType is known (IPv4, ARP, LLDP); otherwise it is kept as raw bytes.
    """

    def __init__(
        self,
        src: MACAddress,
        dst: MACAddress,
        ethertype: int,
        payload: Payload = None,
        vlan: Optional[int] = None,
        vlan_pcp: int = 0,
    ) -> None:
        self.src = MACAddress(src)
        self.dst = MACAddress(dst)
        self.ethertype = ethertype
        self.payload = payload
        self.vlan = vlan
        self.vlan_pcp = vlan_pcp

    def encode(self) -> bytes:
        body = as_bytes(self.payload)
        if self.vlan is not None:
            tci = ((self.vlan_pcp & 0x7) << 13) | (self.vlan & 0x0FFF)
            header = (
                self.dst.packed
                + self.src.packed
                + struct.pack("!HH", EtherType.VLAN, tci)
                + struct.pack("!H", self.ethertype)
            )
        else:
            header = self.dst.packed + self.src.packed + struct.pack("!H", self.ethertype)
        return header + body

    @classmethod
    def decode(cls, data: bytes) -> "Ethernet":
        framing = ethernet_framing(data)
        if framing is None:
            raise DecodeError(f"Ethernet frame too short: {len(data)} bytes")
        ethertype, offset, vlan, vlan_pcp = framing
        return cls(dst=MACAddress(data[0:6]), src=MACAddress(data[6:12]),
                   ethertype=ethertype,
                   payload=cls._decode_payload(ethertype, data[offset:]),
                   vlan=vlan, vlan_pcp=vlan_pcp)

    @staticmethod
    def _decode_payload(ethertype: int, data: bytes) -> Payload:
        # Imported lazily to avoid circular imports between codec modules.
        from repro.net.arp import ARP
        from repro.net.ipv4 import IPv4
        from repro.net.lldp import LLDP

        try:
            if ethertype == EtherType.IPV4:
                return IPv4.decode(data)
            if ethertype == EtherType.ARP:
                return ARP.decode(data)
            if ethertype == EtherType.LLDP:
                return LLDP.decode(data)
        except DecodeError:
            return data
        return data

    def __repr__(self) -> str:
        vlan = f" vlan={self.vlan}" if self.vlan is not None else ""
        return f"<Ethernet {self.src} -> {self.dst} type={self.ethertype:#06x}{vlan}>"
