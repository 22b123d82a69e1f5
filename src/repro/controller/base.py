"""OpenFlow controller framework.

A :class:`Controller` owns one control-channel connection per datapath
(behind FlowVisor each of those connections is actually a slice of the real
switch connection, but the controller cannot tell the difference).  For
every connection it drives the OpenFlow handshake and then dispatches
events — datapath join/leave, packet-in, port-status — to the registered
:class:`ControllerApp` instances, in registration order.

This mirrors the structure of NOX/POX-era controllers that the paper's
framework builds on: the topology-discovery module and the RouteFlow proxy
are both apps on top of this base.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional

from repro.net.packet import DecodeError
from repro.openflow.channel import ControlChannel
from repro.openflow.constants import OFP_NO_BUFFER, OFPPort
from repro.openflow.actions import Action, OutputAction
from repro.openflow.match import Match
from repro.openflow.messages import (
    EchoReply,
    EchoRequest,
    ErrorMessage,
    FeaturesReply,
    FeaturesRequest,
    FlowMod,
    Hello,
    OpenFlowMessage,
    PacketIn,
    PacketOut,
    PhyPort,
    PortStatus,
)
from repro.sim import Simulator

LOG = logging.getLogger(__name__)


class DatapathConnection:
    """The controller-side state of one switch connection."""

    def __init__(self, controller: "Controller", channel: ControlChannel) -> None:
        self.controller = controller
        self.channel = channel
        self.datapath_id: Optional[int] = None
        self.ports: Dict[int, PhyPort] = {}
        self.handshake_complete = False
        self._next_xid = 1

    def take_xid(self) -> int:
        xid = self._next_xid
        self._next_xid += 1
        return xid

    # ------------------------------------------------------------- send APIs
    def send(self, message: OpenFlowMessage) -> None:
        """Encode and transmit a message towards the switch."""
        self.channel.send(self.controller, message.encode())

    def send_packet_out(self, data: bytes, out_port: int) -> None:
        """Inject a packet into the datapath out of a specific port; the
        packet enters from no port (``OFPP_NONE``)."""
        message = PacketOut(buffer_id=OFP_NO_BUFFER, in_port=OFPPort.NONE,
                            actions=[OutputAction(out_port)], data=data,
                            xid=self.take_xid())
        self.send(message)

    def send_flow_mod(self, match: Match, actions: List[Action],
                      command: int = 0, priority: int = 0x8000) -> None:
        """Install / modify / delete a permanent flow entry on the datapath."""
        self.send(FlowMod(match=match, command=command, actions=actions,
                          priority=priority, xid=self.take_xid()))

    def __repr__(self) -> str:
        dpid = f"{self.datapath_id:#x}" if self.datapath_id is not None else "?"
        return f"<DatapathConnection dpid={dpid} ports={len(self.ports)}>"


class ControllerApp:
    """Base class for controller applications.

    Subclasses override whichever handlers they care about.  Handlers are
    invoked synchronously in simulated time by the owning controller.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name or type(self).__name__
        self.controller: Optional["Controller"] = None

    def started(self, controller: "Controller") -> None:
        """Called once when the app is registered with a controller."""

    def on_datapath_join(self, connection: DatapathConnection) -> None:
        """A switch completed the OpenFlow handshake."""

    def on_datapath_leave(self, connection: DatapathConnection) -> None:
        """A switch connection closed."""

    def on_packet_in(self, connection: DatapathConnection, message: PacketIn) -> None:
        """A PACKET_IN arrived from a switch."""

    def on_port_status(self, connection: DatapathConnection, message: PortStatus) -> None:
        """A PORT_STATUS arrived from a switch."""

    def on_error(self, connection: DatapathConnection, message: ErrorMessage) -> None:
        """An ERROR arrived from a switch."""


class Controller:
    """An OpenFlow controller hosting one or more applications."""

    #: Controller-side processing latency applied to each handled message.
    PROCESSING_DELAY = 0.0005

    def __init__(self, sim: Simulator, name: str = "controller") -> None:
        self.sim = sim
        self.name = name
        self._handle_label = f"{self.name}:handle"
        self.apps: List[ControllerApp] = []
        self.connections: Dict[ControlChannel, DatapathConnection] = {}
        self.datapaths: Dict[int, DatapathConnection] = {}
        # Counters
        self.packet_in_count = 0
        self.messages_received = 0

    # ------------------------------------------------------------------ apps
    def register_app(self, app: ControllerApp) -> ControllerApp:
        """Register an application; events reach apps in registration order."""
        app.controller = self
        self.apps.append(app)
        app.started(self)
        return app

    def app(self, app_type: type) -> Optional[ControllerApp]:
        """Find a registered app by type."""
        for candidate in self.apps:
            if isinstance(candidate, app_type):
                return candidate
        return None

    # ----------------------------------------------------------- connections
    def accept_channel(self, channel: ControlChannel) -> DatapathConnection:
        """Attach a new switch-facing channel (called by the emulator/FlowVisor)."""
        connection = DatapathConnection(self, channel)
        self.connections[channel] = connection
        # Controller initiates its half of the handshake.
        connection.send(Hello(xid=connection.take_xid()))
        connection.send(FeaturesRequest(xid=connection.take_xid()))
        return connection

    def connection_for(self, datapath_id: int) -> Optional[DatapathConnection]:
        return self.datapaths.get(datapath_id)

    @property
    def connected_datapaths(self) -> List[int]:
        return sorted(self.datapaths)

    # -------------------------------------------------------- channel events
    def channel_receive(self, channel: ControlChannel, data: bytes) -> None:
        connection = self.connections.get(channel)
        if connection is None:
            LOG.warning("%s: message on unknown channel", self.name)
            return
        self.messages_received += 1
        self.sim.schedule(self.PROCESSING_DELAY, self._handle, connection, data,
                          label=self._handle_label)

    def channel_closed(self, channel: ControlChannel) -> None:
        connection = self.connections.pop(channel, None)
        if connection is None:
            return
        if connection.datapath_id is not None:
            self.datapaths.pop(connection.datapath_id, None)
        for app in self.apps:
            app.on_datapath_leave(connection)

    # -------------------------------------------------------------- dispatch
    def _handle(self, connection: DatapathConnection, data: bytes) -> None:
        try:
            message = OpenFlowMessage.decode(data)
        except DecodeError as exc:
            LOG.warning("%s: cannot decode message from switch: %s", self.name, exc)
            return
        if isinstance(message, Hello):
            return
        if isinstance(message, EchoRequest):
            connection.send(EchoReply(data=message.data, xid=message.xid))
            return
        if isinstance(message, FeaturesReply):
            self._complete_handshake(connection, message)
            return
        if isinstance(message, PacketIn):
            self.packet_in_count += 1
            for app in self.apps:
                app.on_packet_in(connection, message)
            return
        if isinstance(message, PortStatus):
            self._update_port(connection, message)
            for app in self.apps:
                app.on_port_status(connection, message)
            return
        if isinstance(message, ErrorMessage):
            for app in self.apps:
                app.on_error(connection, message)
            return
        LOG.debug("%s: unhandled message %r", self.name, message)

    def _complete_handshake(self, connection: DatapathConnection,
                            message: FeaturesReply) -> None:
        connection.datapath_id = message.datapath_id
        connection.ports = {port.port_no: port for port in message.ports
                            if port.port_no < OFPPort.MAX}
        connection.handshake_complete = True
        self.datapaths[message.datapath_id] = connection
        LOG.info("%s: datapath %#x joined with %d ports",
                 self.name, message.datapath_id, len(connection.ports))
        for app in self.apps:
            app.on_datapath_join(connection)

    def _update_port(self, connection: DatapathConnection, message: PortStatus) -> None:
        from repro.openflow.constants import OFPPortReason

        port = message.port
        if message.reason == OFPPortReason.DELETE:
            connection.ports.pop(port.port_no, None)
        else:
            connection.ports[port.port_no] = port

    def __repr__(self) -> str:
        return f"<Controller {self.name} datapaths={len(self.datapaths)} apps={len(self.apps)}>"
