"""LLDP-based topology discovery (the NOX "Discovery" module of the paper).

The application emits an LLDP frame out of every port of a switch via
PACKET_OUT when the switch joins, and out of a port whenever the switch
reports a PORT_STATUS for it.  When such a frame re-enters the control
plane as a PACKET_IN on a *different* switch, the application has
witnessed a unidirectional link (src dpid/port -> dst dpid/port).  Every
``probe_interval`` seconds it probes again, but only the ports whose own
probe has not been heard yet: discovery's job ends once it has learned a
link.  Link liveness is carrier's job (the port-status mirror relays a
failed link into RouteFlow's virtual topology), so links are not
refreshed or timed out here; they are forgotten only when a switch at
either end leaves.  A probe frame is encoded once per (dpid, port, MAC)
and re-sent from a cache.

Observers register callbacks for switch and link discovery; the paper's
topology controller uses those callbacks to drive the RPC configuration
messages towards RouteFlow.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Dict, List, Set, Tuple

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
#: Callback invoked on link discovery: ``f(DiscoveredLink)``.
LinkCallback = Callable[["DiscoveredLink"], None]


@dataclass(frozen=True)
class DiscoveredLink:
    """A unidirectional link learned from an LLDP frame."""

    src_dpid: int
    src_port: int
    dst_dpid: int
    dst_port: int


class TopologyDiscovery(ControllerApp):
    """LLDP probing until every port's probe is heard, and link inference."""

    def __init__(self, probe_interval: float = 5.0) -> None:
        super().__init__(name="topology-discovery")
        self.probe_interval = probe_interval
        self.switches: Dict[int, DatapathConnection] = {}
        #: Every directional link learned so far.  A link's source
        #: (dpid, port) is a port whose probe has been heard, which the
        #: periodic round no longer probes.
        self.links: Set[DiscoveredLink] = set()
        self._switch_callbacks: List[SwitchCallback] = []
        self._switch_lost_callbacks: List[Callable[[int], None]] = []
        self._link_up_callbacks: List[LinkCallback] = []
        #: (dpid, port_no, hw_addr) -> its probe frame, encoded once.
        self._probe_frames: Dict[Tuple[int, int, MACAddress], bytes] = {}

    # -------------------------------------------------------------- observers
    def on_switch_discovered(self, callback: SwitchCallback) -> None:
        self._switch_callbacks.append(callback)

    def on_switch_lost(self, callback: Callable[[int], None]) -> None:
        """Register a callback fired when a switch's connection goes away."""
        self._switch_lost_callbacks.append(callback)

    def on_link_discovered(self, callback: LinkCallback) -> None:
        self._link_up_callbacks.append(callback)

    # ------------------------------------------------------------- lifecycle
    def started(self, controller) -> None:
        PeriodicTask(controller.sim, self.probe_interval, self._probe_unheard,
                     name="discovery:probe").start()

    # ----------------------------------------------------------- switch events
    def on_datapath_join(self, connection: DatapathConnection) -> None:
        dpid = connection.datapath_id
        self.switches[dpid] = connection
        ports = sorted(connection.ports)
        LOG.info("discovery: switch %#x joined (ports %s)", dpid, ports)
        for callback in self._switch_callbacks:
            callback(dpid, ports)
        for port_no in ports:
            self._probe(connection, port_no)

    def on_datapath_leave(self, connection: DatapathConnection) -> None:
        # Teardown: entered when a switch's control channel closes, which no
        # entry point does (node failures drop links, not channels).
        dpid = connection.datapath_id
        if dpid is None:
            return
        self.switches.pop(dpid, None)
        # Forgetting the links at both ends also un-hears their sources,
        # so the neighbours' ports towards this switch are probed again.
        self.links = {link for link in self.links
                      if dpid not in (link.src_dpid, link.dst_dpid)}
        for callback in self._switch_lost_callbacks:
            callback(dpid)

    def on_port_status(self, connection: DatapathConnection, message: PortStatus) -> None:
        # Entered on an administrative port flip or a port added after
        # connect; an emulated link failure drops carrier without a
        # PORT_STATUS.  Re-probe that port to learn what is behind it now.
        port_no = message.port.port_no
        if connection.datapath_id in self.switches and port_no in connection.ports:
            self._probe(connection, port_no)

    # -------------------------------------------------------------- LLDP TX
    def _probe_unheard(self) -> None:
        heard = {(link.src_dpid, link.src_port) for link in self.links}
        for dpid, connection in self.switches.items():
            for port_no in sorted(connection.ports):
                if (dpid, port_no) not in heard:
                    self._probe(connection, port_no)

    def _probe(self, connection: DatapathConnection, port_no: int) -> None:
        if port_no >= OFPPort.MAX:
            return
        key = (connection.datapath_id, port_no, connection.ports[port_no].hw_addr)
        frame = self._probe_frames.get(key)
        if frame is None:
            frame = self._probe_frames[key] = self._build_lldp(*key)
        connection.send_packet_out(frame, out_port=port_no)

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
        dst_dpid = connection.datapath_id
        if dst_dpid is None or lldp.chassis_id == dst_dpid:
            return
        link = DiscoveredLink(src_dpid=lldp.chassis_id, src_port=lldp.port_id,
                              dst_dpid=dst_dpid, dst_port=message.in_port)
        if link in self.links:
            return
        self.links.add(link)
        LOG.info("discovery: link %s", link)
        for callback in self._link_up_callbacks:
            callback(link)
