"""A software OpenFlow 1.0 switch (the Open vSwitch stand-in).

Each switch owns a set of ports (data-plane interfaces), one flow table and
one control channel towards its controller (in the paper's deployment that
controller is FlowVisor, which fans the connection out to the topology
controller and the RF-controller).

The switch performs the OpenFlow handshake (HELLO, FEATURES), generates
PACKET_IN for table misses, executes PACKET_OUT and FLOW_MOD, answers ECHO
and BARRIER and reports port changes with PORT_STATUS.  It implements the
OpenFlow 1.0 subset RouteFlow sends and answers the rest with a typed
error (docs/DESIGN.md, "The OpenFlow subset RouteFlow sends"): a FLOW_MOD
with a timeout or a flag, an action it does not implement, or a message
type it does not handle.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional

from repro.net.addresses import MACAddress
from repro.net.ethernet import Ethernet
from repro.net.link import Interface
from repro.net.packet import DecodeError
from repro.openflow.actions import Action, OutputAction, UnknownAction
from repro.openflow.channel import ControlChannel
from repro.openflow.constants import (
    OFP_NO_BUFFER,
    OFPBadActionCode,
    OFPBadRequestCode,
    OFPErrorType,
    OFPFlowModCommand,
    OFPFlowModFailedCode,
    OFPPacketInReason,
    OFPPort,
    OFPPortReason,
    OFPPortState,
)
from repro.openflow.flow_table import FlowEntry, FlowTable
from repro.openflow.match import PacketFields
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
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
    UnknownMessage,
)
from repro.sim import Simulator

LOG = logging.getLogger(__name__)


class SwitchPort:
    """A data-plane port: an interface plus its OpenFlow port description."""

    def __init__(self, port_no: int, interface: Interface) -> None:
        self.port_no = port_no
        self.interface = interface

    @property
    def name(self) -> str:
        return self.interface.name

    @property
    def hw_addr(self) -> MACAddress:
        return self.interface.mac

    @property
    def link_up(self) -> bool:
        return self.interface.link is not None and self.interface.link.up and self.interface.up

    def describe(self) -> PhyPort:
        state = 0 if self.link_up else OFPPortState.LINK_DOWN
        return PhyPort(port_no=self.port_no, hw_addr=self.hw_addr,
                       name=self.name, state=state)

    def __repr__(self) -> str:
        return f"<SwitchPort {self.port_no} {self.name}>"


class OpenFlowSwitch:
    """An OpenFlow 1.0 datapath."""

    #: Per-packet pipeline processing latency (seconds) — models the software
    #: datapath cost of Open vSwitch in user space.
    PROCESSING_DELAY = 0.0001
    #: Number of packets the switch can park while waiting for the controller.
    MAX_BUFFERS = 256
    #: Bytes of a buffered packet included in PACKET_IN.
    MISS_SEND_LEN = 128

    def __init__(self, sim: Simulator, datapath_id: int, name: str = "") -> None:
        self.sim = sim
        self.datapath_id = datapath_id
        self.name = name or f"s{datapath_id}"
        self._pipeline_label = f"{self.name}:pipeline"
        self.ports: Dict[int, SwitchPort] = {}
        self.flow_table = FlowTable()
        self.channel: Optional[ControlChannel] = None
        self.connected = False          # handshake finished
        self._next_xid = 1
        self._buffers: Dict[int, tuple] = {}
        self._next_buffer_id = 1
        # Counters
        self.packet_in_count = 0
        self.flow_mod_count = 0
        #: Optional pipeline observer called after every data-plane lookup
        #: as ``observer(switch, in_port, fields, entry_or_None)``.  None
        #: (the default) costs nothing; the fluid-vs-packet equivalence
        #: test uses it to trace the hop sequence a frame takes.
        self.lookup_observer = None

    # ------------------------------------------------------------------ ports
    def add_port(self, port_no: int, interface: Interface) -> SwitchPort:
        """Register a data-plane port.  Port numbers start at 1."""
        if port_no in self.ports:
            raise ValueError(f"{self.name}: port {port_no} already exists")
        port = SwitchPort(port_no, interface)
        interface.port_no = port_no
        interface.owner = self
        interface.set_handler(self._on_data_frame)
        self.ports[port_no] = port
        if self.connected:
            self._send_port_status(OFPPortReason.ADD, port)
        return port

    def port(self, port_no: int) -> SwitchPort:
        return self.ports[port_no]

    @property
    def port_numbers(self) -> List[int]:
        return sorted(self.ports)

    def set_port_state(self, port_no: int, up: bool) -> None:
        """Administratively flip a port and notify the controller."""
        port = self.ports[port_no]
        port.interface.up = up
        if self.connected:
            self._send_port_status(OFPPortReason.MODIFY, port)

    # ---------------------------------------------------------------- control
    def connect_to_controller(self, channel: ControlChannel) -> None:
        """Attach the control channel and start the handshake."""
        self.channel = channel
        self.connected = False
        self._send_message(Hello(xid=self._take_xid()))

    def channel_receive(self, channel: ControlChannel, data: bytes) -> None:
        """Entry point for control messages from the channel."""
        try:
            message = OpenFlowMessage.decode(data)
        except DecodeError as exc:
            LOG.warning("%s: undecodable OpenFlow message: %s", self.name, exc)
            self._send_message(ErrorMessage(OFPErrorType.BAD_REQUEST,
                                            OFPBadRequestCode.BAD_TYPE))
            return
        self._dispatch(message)

    def channel_closed(self, channel: ControlChannel) -> None:
        self.connected = False

    def _dispatch(self, message: OpenFlowMessage) -> None:
        if isinstance(message, Hello):
            return
        if isinstance(message, FeaturesRequest):
            self._send_features_reply(message.xid)
            self.connected = True
            return
        if isinstance(message, EchoRequest):
            self._send_message(EchoReply(data=message.data, xid=message.xid))
            return
        if isinstance(message, BarrierRequest):
            self._send_message(BarrierReply(xid=message.xid))
            return
        if isinstance(message, PacketOut):
            self._handle_packet_out(message)
            return
        if isinstance(message, FlowMod):
            self._handle_flow_mod(message)
            return
        if isinstance(message, UnknownMessage):
            self._send_error(OFPErrorType.BAD_REQUEST,
                             OFPBadRequestCode.BAD_TYPE, message.xid)
            return
        LOG.debug("%s: ignoring message %r", self.name, message)

    def _send_features_reply(self, xid: int) -> None:
        ports = [port.describe() for _, port in sorted(self.ports.items())]
        reply = FeaturesReply(datapath_id=self.datapath_id, ports=ports,
                              n_buffers=self.MAX_BUFFERS, xid=xid)
        self._send_message(reply)

    def _send_port_status(self, reason: int, port: SwitchPort) -> None:
        self._send_message(PortStatus(reason=reason, port=port.describe(),
                                      xid=self._take_xid()))

    def _send_error(self, error_type: int, code: int, xid: int) -> None:
        self._send_message(ErrorMessage(error_type, code, xid=xid))

    def _refuses_actions(self, actions: List[Action], xid: int) -> bool:
        """Answer BAD_ACTION / BAD_TYPE if an action is one the switch
        does not implement (it decoded as an ``UnknownAction``)."""
        for action in actions:
            if action.__class__ is UnknownAction:
                self._send_error(OFPErrorType.BAD_ACTION,
                                 OFPBadActionCode.BAD_TYPE, xid)
                return True
        return False

    def _send_message(self, message: OpenFlowMessage) -> None:
        if self.channel is None:
            return
        self.channel.send(self, message.encode())

    def _take_xid(self) -> int:
        xid = self._next_xid
        self._next_xid += 1
        return xid

    # ------------------------------------------------------------- PACKET_OUT
    def _handle_packet_out(self, message: PacketOut) -> None:
        if self._refuses_actions(message.actions, message.xid):
            return
        if message.buffer_id != OFP_NO_BUFFER:
            buffered = self._buffers.pop(message.buffer_id, None)
            if buffered is None:
                self._send_error(OFPErrorType.BAD_REQUEST,
                                 OFPBadRequestCode.BAD_TYPE, message.xid)
                return
            data, _in_port = buffered
        else:
            data = message.data
        self._apply_actions(data, message.actions, in_port=message.in_port)

    # --------------------------------------------------------------- FLOW_MOD
    def _handle_flow_mod(self, message: FlowMod) -> None:
        self.flow_mod_count += 1
        if message.idle_timeout or message.hard_timeout or message.flags:
            # Entries are permanent: no expiry, FLOW_REMOVED or overlap check.
            self._send_error(OFPErrorType.FLOW_MOD_FAILED,
                             OFPFlowModFailedCode.UNSUPPORTED, message.xid)
            return
        if self._refuses_actions(message.actions, message.xid):
            return
        command = message.command
        if command == OFPFlowModCommand.ADD:
            self._flow_add(message)
        elif command in (OFPFlowModCommand.MODIFY, OFPFlowModCommand.MODIFY_STRICT):
            strict = command == OFPFlowModCommand.MODIFY_STRICT
            touched = self.flow_table.modify(message.match, message.actions,
                                             strict, message.priority)
            if touched == 0:
                # Per the spec MODIFY with no matching entry behaves as ADD.
                self._flow_add(message)
        elif command in (OFPFlowModCommand.DELETE, OFPFlowModCommand.DELETE_STRICT):
            strict = command == OFPFlowModCommand.DELETE_STRICT
            self.flow_table.delete(message.match, strict, message.priority,
                                   message.out_port)
        else:
            self._send_error(OFPErrorType.FLOW_MOD_FAILED,
                             OFPFlowModFailedCode.BAD_COMMAND, message.xid)
            return
        # A buffered packet referenced by the flow-mod is released through the
        # new flow entry's actions.
        if message.buffer_id != OFP_NO_BUFFER:
            buffered = self._buffers.pop(message.buffer_id, None)
            if buffered is not None:
                data, in_port = buffered
                self._apply_actions(data, message.actions, in_port=in_port)

    def _flow_add(self, message: FlowMod) -> None:
        if self.flow_table.is_full:
            self._send_error(OFPErrorType.FLOW_MOD_FAILED,
                             OFPFlowModFailedCode.ALL_TABLES_FULL, message.xid)
            return
        self.flow_table.add(FlowEntry(match=message.match,
                                      actions=message.actions,
                                      priority=message.priority))

    # -------------------------------------------------------------- dataplane
    def _on_data_frame(self, interface: Interface, data: bytes) -> None:
        """A frame arrived on a data-plane port."""
        self.sim.schedule(self.PROCESSING_DELAY, self._process_frame,
                          interface.port_no, data, label=self._pipeline_label)

    def _process_frame(self, in_port: int, data: bytes) -> None:
        fields = PacketFields.from_frame(data, in_port=in_port)
        entry = self.flow_table.lookup(fields)
        if self.lookup_observer is not None:
            self.lookup_observer(self, in_port, fields, entry)
        if entry is None:
            self._table_miss(in_port, data)
            return
        self._apply_actions(data, entry.actions, in_port=in_port)

    def _table_miss(self, in_port: int, data: bytes) -> None:
        if not self.connected:
            return
        self.packet_in_count += 1
        if len(self._buffers) < self.MAX_BUFFERS:
            buffer_id = self._next_buffer_id
            self._next_buffer_id += 1
            self._buffers[buffer_id] = (data, in_port)
            payload = data[:self.MISS_SEND_LEN]
        else:
            buffer_id = OFP_NO_BUFFER
            payload = data
        message = PacketIn(buffer_id=buffer_id, in_port=in_port,
                           reason=OFPPacketInReason.NO_MATCH, data=payload,
                           total_len=len(data), xid=self._take_xid())
        self._send_message(message)

    # ---------------------------------------------------------------- actions
    def _apply_actions(self, data: bytes, actions: List[Action], in_port: int) -> None:
        """Execute an action list on a packet (rewrites then outputs); the
        frame is decoded at the first rewrite, if any, and rewrites of an
        undecodable frame are skipped."""
        frame = None
        undecodable = False
        for action in actions:
            if isinstance(action, OutputAction):
                out_data = data if frame is None else frame.encode()
                self._output(out_data, action.port, in_port)
            elif not undecodable:
                if frame is None:
                    try:
                        frame = Ethernet.decode(data)
                    except DecodeError:
                        undecodable = True
                        continue
                action.apply(frame)

    def _output(self, data: bytes, out_port: int, in_port: int) -> None:
        if out_port == OFPPort.CONTROLLER:
            self._packet_in_from_action(data, in_port)
            return
        if out_port == OFPPort.IN_PORT:
            self._transmit(in_port, data)
            return
        if out_port in (OFPPort.FLOOD, OFPPort.ALL):
            for port_no in self.port_numbers:
                if port_no != in_port:
                    self._transmit(port_no, data)
            return
        if out_port in self.ports:
            self._transmit(out_port, data)

    def _packet_in_from_action(self, data: bytes, in_port: int) -> None:
        if not self.connected:
            return
        self.packet_in_count += 1
        message = PacketIn(buffer_id=OFP_NO_BUFFER, in_port=in_port,
                           reason=OFPPacketInReason.ACTION, data=data,
                           total_len=len(data), xid=self._take_xid())
        self._send_message(message)

    def _transmit(self, port_no: int, data: bytes) -> None:
        port = self.ports.get(port_no)
        if port is None:
            return
        port.interface.send(data)

    def __repr__(self) -> str:
        return (f"<OpenFlowSwitch {self.name} dpid={self.datapath_id:#x} "
                f"ports={len(self.ports)} flows={len(self.flow_table)}>")
