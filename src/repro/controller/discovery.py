"""LLDP-based topology discovery (the NOX "Discovery" module of the paper).

The application periodically emits an LLDP frame out of every port of every
connected switch via PACKET_OUT.  When such a frame re-enters the control
plane as a PACKET_IN on a *different* switch, the application has witnessed
a unidirectional link (src dpid/port → dst dpid/port).  Links that stop
being refreshed for ``link_timeout`` seconds are declared dead.

Observers register callbacks for switch and link discovery; the paper's
topology controller uses those callbacks to drive the RPC configuration
messages towards RouteFlow.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.net.addresses import MACAddress
from repro.net.ethernet import Ethernet, EtherType
from repro.net.lldp import LLDP, LLDP_MULTICAST
from repro.net.packet import DecodeError
from repro.controller.base import ControllerApp, DatapathConnection
from repro.openflow.constants import OFPPort
from repro.openflow.messages import PacketIn, PortStatus
from repro.sim import PeriodicTask

LOG = logging.getLogger(__name__)

#: Callback invoked when a new switch joins: ``f(datapath_id, port_numbers)``.
SwitchCallback = Callable[[int, List[int]], None]
#: Callback invoked on link discovery/loss: ``f(DiscoveredLink)``.
LinkCallback = Callable[["DiscoveredLink"], None]


@dataclass(frozen=True)
class DiscoveredLink:
    """A unidirectional link learned from an LLDP frame."""

    src_dpid: int
    src_port: int
    dst_dpid: int
    dst_port: int

    def canonical(self) -> Tuple[int, int, int, int]:
        """Direction-independent identity of the physical link."""
        forward = (self.src_dpid, self.src_port, self.dst_dpid, self.dst_port)
        backward = (self.dst_dpid, self.dst_port, self.src_dpid, self.src_port)
        return min(forward, backward)

    def __str__(self) -> str:
        return (f"{self.src_dpid:#x}:{self.src_port} -> "
                f"{self.dst_dpid:#x}:{self.dst_port}")


class TopologyDiscovery(ControllerApp):
    """Periodic LLDP probing and link inference."""

    def __init__(self, probe_interval: float = 5.0, link_timeout: float = 15.0) -> None:
        super().__init__(name="topology-discovery")
        self.probe_interval = probe_interval
        self.link_timeout = link_timeout
        self.switches: Dict[int, DatapathConnection] = {}
        #: directional link -> last time an LLDP refresh was seen
        self.links: Dict[DiscoveredLink, float] = {}
        self._switch_callbacks: List[SwitchCallback] = []
        self._switch_lost_callbacks: List[Callable[[int], None]] = []
        self._link_up_callbacks: List[LinkCallback] = []
        self._link_down_callbacks: List[LinkCallback] = []
        self._probe_task: Optional[PeriodicTask] = None
        self._expiry_task: Optional[PeriodicTask] = None
        # Counters
        self.lldp_sent = 0
        self.lldp_received = 0

    # -------------------------------------------------------------- observers
    def on_switch_discovered(self, callback: SwitchCallback) -> None:
        self._switch_callbacks.append(callback)

    def on_switch_lost(self, callback: Callable[[int], None]) -> None:
        """Register a callback fired when a switch's connection goes away."""
        self._switch_lost_callbacks.append(callback)

    def on_link_discovered(self, callback: LinkCallback) -> None:
        self._link_up_callbacks.append(callback)

    def on_link_lost(self, callback: LinkCallback) -> None:
        self._link_down_callbacks.append(callback)

    # ------------------------------------------------------------- lifecycle
    def started(self, controller) -> None:
        sim = controller.sim
        self._probe_task = PeriodicTask(sim, self.probe_interval, self._probe_all,
                                        name="discovery:probe")
        self._probe_task.start()
        self._expiry_task = PeriodicTask(sim, self.link_timeout / 3.0,
                                         self._expire_links, name="discovery:expire")
        self._expiry_task.start()

    # ----------------------------------------------------------- switch events
    def on_datapath_join(self, connection: DatapathConnection) -> None:
        dpid = connection.datapath_id
        self.switches[dpid] = connection
        ports = sorted(connection.ports)
        LOG.info("discovery: switch %#x joined (ports %s)", dpid, ports)
        for callback in self._switch_callbacks:
            callback(dpid, ports)
        self._probe_switch(connection)

    def on_datapath_leave(self, connection: DatapathConnection) -> None:
        dpid = connection.datapath_id
        if dpid is None:
            return
        self.switches.pop(dpid, None)
        dead = [link for link in self.links if link.src_dpid == dpid or link.dst_dpid == dpid]
        for link in dead:
            del self.links[link]
            for callback in self._link_down_callbacks:
                callback(link)
        for callback in self._switch_lost_callbacks:
            callback(dpid)

    def on_port_status(self, connection: DatapathConnection, message: PortStatus) -> None:
        # A port change may invalidate links through that port; let the normal
        # timeout handle removal, but probe quickly to re-learn fresh state.
        if connection.datapath_id in self.switches:
            self._probe_switch(connection)

    # -------------------------------------------------------------- LLDP TX
    def _probe_all(self) -> None:
        for connection in list(self.switches.values()):
            self._probe_switch(connection)

    def _probe_switch(self, connection: DatapathConnection) -> None:
        dpid = connection.datapath_id
        if dpid is None:
            return
        for port_no, port in sorted(connection.ports.items()):
            if port_no >= OFPPort.MAX:
                continue
            frame = self._build_lldp(dpid, port_no, port.hw_addr)
            connection.send_packet_out(frame, out_port=port_no)
            self.lldp_sent += 1

    @staticmethod
    def _build_lldp(dpid: int, port_no: int, hw_addr: MACAddress) -> bytes:
        lldp = LLDP(chassis_id=dpid, port_id=port_no)
        frame = Ethernet(src=hw_addr, dst=LLDP_MULTICAST,
                         ethertype=EtherType.LLDP, payload=lldp)
        return frame.encode()

    # -------------------------------------------------------------- LLDP RX
    def on_packet_in(self, connection: DatapathConnection, message: PacketIn) -> None:
        try:
            frame = Ethernet.decode(message.data)
        except DecodeError:
            return
        if frame.ethertype != EtherType.LLDP or not isinstance(frame.payload, LLDP):
            return
        lldp = frame.payload
        self.lldp_received += 1
        dst_dpid = connection.datapath_id
        if dst_dpid is None or lldp.chassis_id == dst_dpid:
            return
        link = DiscoveredLink(src_dpid=lldp.chassis_id, src_port=lldp.port_id,
                              dst_dpid=dst_dpid, dst_port=message.in_port)
        is_new = link not in self.links
        self.links[link] = self.controller.sim.now
        if is_new:
            LOG.info("discovery: link %s", link)
            for callback in self._link_up_callbacks:
                callback(link)

    # ---------------------------------------------------------------- expiry
    def _expire_links(self) -> None:
        now = self.controller.sim.now
        dead = [link for link, seen in self.links.items()
                if now - seen > self.link_timeout]
        for link in dead:
            del self.links[link]
            LOG.info("discovery: link lost %s", link)
            for callback in self._link_down_callbacks:
                callback(link)

    # ------------------------------------------------------------- inventory
    @property
    def bidirectional_links(self) -> Set[Tuple[int, int, int, int]]:
        """Canonical (dpid_a, port_a, dpid_b, port_b) tuples seen in either direction."""
        return {link.canonical() for link in self.links}

    def topology_snapshot(self) -> Dict[str, object]:
        """A serialisable snapshot of switches and links (used by the GUI)."""
        return {
            "switches": sorted(self.switches),
            "links": sorted(self.bidirectional_links),
        }
