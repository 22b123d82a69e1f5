"""End hosts with a small IPv4 stack (ARP, ICMP echo, UDP sockets).

Hosts are the video-streaming server and client of the paper's demo.  They
sit at the edge of the OpenFlow network, resolve their next hop with ARP
and exchange UDP/ICMP traffic through whatever forwarding state the
RouteFlow-programmed switches provide.
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.addresses import IPv4Address, IPv4Network, MACAddress
from repro.net.arp import ARP
from repro.net.ethernet import Ethernet, EtherType
from repro.net.ipv4 import IPProtocol, IPv4
from repro.net.link import Interface
from repro.net.packet import DecodeError, as_bytes
from repro.net.transport import ICMP, UDP
from repro.sim import Simulator

LOG = logging.getLogger(__name__)

#: UDP receive callback: ``handler(src_ip, src_port, payload_bytes)``.
UDPHandler = Callable[[IPv4Address, int, bytes], None]


class Host:
    """A simulated end host with one interface and a minimal IP stack."""

    ARP_RETRY_INTERVAL = 1.0
    ARP_MAX_RETRIES = 600
    #: Packets queued per unresolved next hop (oldest dropped beyond this),
    #: mirroring the kernel's small per-neighbour ARP queue.
    ARP_QUEUE_LIMIT = 16

    def __init__(self, sim: Simulator, name: str, mac: MACAddress,
                 ip: IPv4Address, prefix_len: int = 24,
                 gateway: Optional[IPv4Address] = None) -> None:
        self.sim = sim
        self.name = name
        self.interface = Interface(f"{name}-eth0", mac, owner=self)
        self.interface.configure_ip(ip, prefix_len)
        self.interface.set_handler(self._on_frame)
        self.gateway = IPv4Address(gateway) if gateway is not None else None
        self.arp_table: Dict[IPv4Address, MACAddress] = {}
        self._pending_arp: Dict[IPv4Address, List[IPv4]] = {}
        self._arp_retries: Dict[IPv4Address, int] = {}
        self._udp_handlers: Dict[int, UDPHandler] = {}
        self._icmp_echo_replies: List[Tuple[float, IPv4Address, int]] = []
        self._next_ident = 1

    # ------------------------------------------------------------ properties
    @property
    def ip(self) -> IPv4Address:
        return self.interface.ip

    @property
    def mac(self) -> MACAddress:
        return self.interface.mac

    @property
    def network(self) -> IPv4Network:
        return self.interface.network

    # ------------------------------------------------------------ UDP socket
    def bind_udp(self, port: int, handler: UDPHandler) -> None:
        """Register a callback for datagrams arriving on ``port``."""
        if port in self._udp_handlers:
            raise ValueError(f"UDP port {port} already bound on {self.name}")
        self._udp_handlers[port] = handler

    def send_udp(self, dst_ip: IPv4Address, dst_port: int, payload: bytes,
                 src_port: int = 0) -> None:
        """Send a UDP datagram (resolving the next hop with ARP if needed)."""
        udp = UDP(src_port=src_port, dst_port=dst_port, payload=payload)
        packet = IPv4(src=self.ip, dst=dst_ip, protocol=IPProtocol.UDP, payload=udp)
        self._send_ip(packet)

    # ------------------------------------------------------------------ ICMP
    def ping(self, dst_ip: IPv4Address, sequence: int = 1) -> int:
        """Send an ICMP echo request; returns the identifier used."""
        ident = self._next_ident
        self._next_ident += 1
        icmp = ICMP.echo_request(identifier=ident, sequence=sequence)
        packet = IPv4(src=self.ip, dst=dst_ip, protocol=IPProtocol.ICMP, payload=icmp)
        self._send_ip(packet)
        return ident

    @property
    def echo_replies(self) -> List[Tuple[float, IPv4Address, int]]:
        """(time, source, identifier) tuples for every echo reply received."""
        return list(self._icmp_echo_replies)

    # ----------------------------------------------------------- IP datapath
    def _next_hop(self, dst_ip: IPv4Address) -> Optional[IPv4Address]:
        if dst_ip in self.network:
            return dst_ip
        return self.gateway

    def _send_ip(self, packet: IPv4) -> None:
        next_hop = self._next_hop(packet.dst)
        if next_hop is None:
            LOG.debug("%s: no route to %s", self.name, packet.dst)
            return
        mac = self.arp_table.get(next_hop)
        if mac is None:
            queue = self._pending_arp.setdefault(next_hop, [])
            queue.append(packet)
            if len(queue) > self.ARP_QUEUE_LIMIT:
                del queue[0]
            if len(queue) == 1:
                self._arp_retries[next_hop] = 0
                self._send_arp_request(next_hop)
            return
        self._emit(packet, mac)

    def _emit(self, packet: IPv4, dst_mac: MACAddress) -> None:
        frame = Ethernet(src=self.mac, dst=dst_mac, ethertype=EtherType.IPV4, payload=packet)
        self.interface.send(frame.encode())

    def _send_arp_request(self, target_ip: IPv4Address) -> None:
        pending = self._pending_arp.get(target_ip)
        if not pending or target_ip in self.arp_table:
            return
        retries = self._arp_retries.get(target_ip, 0)
        if retries >= self.ARP_MAX_RETRIES:
            LOG.debug("%s: giving up ARP for %s", self.name, target_ip)
            self._pending_arp.pop(target_ip, None)
            return
        self._arp_retries[target_ip] = retries + 1
        arp = ARP.request(sender_mac=self.mac, sender_ip=self.ip, target_ip=target_ip)
        frame = Ethernet(src=self.mac, dst=MACAddress.broadcast(),
                         ethertype=EtherType.ARP, payload=arp)
        self.interface.send(frame.encode())
        self.sim.schedule(self.ARP_RETRY_INTERVAL, self._send_arp_request, target_ip,
                          label=f"{self.name}:arp-retry")

    # --------------------------------------------------------------- receive
    def _on_frame(self, _iface: Interface, data: bytes) -> None:
        try:
            frame = Ethernet.decode(data)
        except DecodeError:
            return
        if frame.dst != self.mac and not frame.dst.is_broadcast and not frame.dst.is_multicast:
            return
        if frame.ethertype == EtherType.ARP and isinstance(frame.payload, ARP):
            self._on_arp(frame.payload)
        elif frame.ethertype == EtherType.IPV4 and isinstance(frame.payload, IPv4):
            self._on_ip(frame.payload)

    def _on_arp(self, arp: ARP) -> None:
        # Learn the sender either way (gratuitous learning keeps tables warm).
        self.arp_table[arp.sender_ip] = arp.sender_mac
        self._flush_pending(arp.sender_ip)
        if arp.opcode == ARP.REQUEST and arp.target_ip == self.ip:
            reply = ARP.reply(sender_mac=self.mac, sender_ip=self.ip,
                              target_mac=arp.sender_mac, target_ip=arp.sender_ip)
            frame = Ethernet(src=self.mac, dst=arp.sender_mac,
                             ethertype=EtherType.ARP, payload=reply)
            self.interface.send(frame.encode())

    def _flush_pending(self, next_hop: IPv4Address) -> None:
        pending = self._pending_arp.pop(next_hop, [])
        self._arp_retries.pop(next_hop, None)
        mac = self.arp_table.get(next_hop)
        if mac is None:
            return
        for packet in pending:
            self._emit(packet, mac)

    def _on_ip(self, packet: IPv4) -> None:
        if packet.dst != self.ip and not packet.dst.is_broadcast:
            return
        if packet.protocol == IPProtocol.UDP and isinstance(packet.payload, UDP):
            handler = self._udp_handlers.get(packet.payload.dst_port)
            if handler is not None:
                handler(packet.src, packet.payload.src_port, as_bytes(packet.payload.payload))
        elif packet.protocol == IPProtocol.ICMP and isinstance(packet.payload, ICMP):
            self._on_icmp(packet.src, packet.payload)

    def _on_icmp(self, src: IPv4Address, icmp: ICMP) -> None:
        if icmp.icmp_type == ICMP.ECHO_REQUEST:
            reply = ICMP.echo_reply(identifier=icmp.identifier, sequence=icmp.sequence,
                                    data=as_bytes(icmp.payload))
            packet = IPv4(src=self.ip, dst=src, protocol=IPProtocol.ICMP, payload=reply)
            self._send_ip(packet)
        elif icmp.icmp_type == ICMP.ECHO_REPLY:
            self._icmp_echo_replies.append((self.sim.now, src, icmp.identifier))

    def __repr__(self) -> str:
        return f"<Host {self.name} {self.ip}/{self.interface.prefix_len}>"
