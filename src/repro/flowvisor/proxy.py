"""The FlowVisor slicing proxy.

FlowVisor terminates each switch's OpenFlow connection itself (performing
the handshake and caching the FEATURES_REPLY) and exposes one *virtual*
switch connection per slice to each slice's controller.  Messages are
decoded, checked against the flowspace and re-encoded on the way through,
so both halves of the proxy exercise the real OpenFlow codec:

* switch → controllers: PACKET_IN is delivered only to slices whose
  flowspace grants read access to the packet; PORT_STATUS and FLOW_REMOVED
  are delivered to every slice; ECHO is answered locally.
* controller → switch: FLOW_MOD and PACKET_OUT are permitted only when the
  slice has write access; FEATURES_REQUEST is answered from the cached
  reply; BARRIER is forwarded with xid translation so replies find their
  way back to the requesting slice.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.net.packet import DecodeError
from repro.openflow.channel import ControlChannel
from repro.openflow.constants import (
    OFP_VERSION,
    OFPBadRequestCode,
    OFPErrorType,
    OFPType,
)
from repro.openflow.match import MATCH_LEN, Match, PacketFields
from repro.openflow.messages import (
    OFP_HEADER_LEN,
    BarrierRequest,
    EchoReply,
    EchoRequest,
    ErrorMessage,
    FeaturesReply,
    FeaturesRequest,
    Hello,
    OpenFlowMessage,
    PacketIn,
    PortStatus,
)
from repro.flowvisor.flowspace import FlowSpace
from repro.sim import Simulator

LOG = logging.getLogger(__name__)


@dataclass
class Slice:
    """A controller slice registered with FlowVisor."""

    name: str
    controller: object  # repro.controller.base.Controller (duck-typed endpoint)
    #: Optional datapath filter: a set of dpids or a ``dpid -> bool``
    #: predicate.  None exposes every switch to the slice (the classic
    #: two-slice deployment); sharded RouteFlow deployments register one
    #: slice per controller shard, each restricted to its partition.
    datapaths: object = None

    def covers(self, datapath_id: int) -> bool:
        if self.datapaths is None:
            return True
        if callable(self.datapaths):
            return bool(self.datapaths(datapath_id))
        return datapath_id in self.datapaths


class _SwitchSession:
    """FlowVisor's state for one connected switch."""

    def __init__(self, channel: ControlChannel) -> None:
        self.channel = channel
        self.datapath_id: Optional[int] = None
        self.features: Optional[FeaturesReply] = None
        self.handshake_complete = False
        #: slice name -> channel towards that slice's controller
        self.slice_channels: Dict[str, ControlChannel] = {}
        #: xid translation for request/reply pairs: proxy_xid -> (slice, original_xid)
        self.pending_replies: Dict[int, Tuple[str, int]] = {}
        self.next_proxy_xid = 1


class FlowVisor:
    """The slicing proxy between switches and per-slice controllers."""

    #: Per-message processing latency of the proxy.
    PROCESSING_DELAY = 0.0005
    #: Latency of the proxy-to-controller channels it creates.
    SLICE_CHANNEL_LATENCY = 0.002

    def __init__(self, sim: Simulator, flowspace: FlowSpace) -> None:
        self.sim = sim
        self.name = "flowvisor"
        self._route_label = f"{self.name}:route"
        self.flowspace = flowspace
        self.slices: Dict[str, Slice] = {}
        self._switch_sessions: Dict[ControlChannel, _SwitchSession] = {}
        self._slice_channel_index: Dict[ControlChannel, Tuple[_SwitchSession, str]] = {}
        # Counters
        self.packet_ins_routed = 0
        self.packet_ins_dropped = 0
        self.flow_mods_forwarded = 0
        self.flow_mods_denied = 0

    # ------------------------------------------------------------------ slices
    def add_slice(self, name: str, controller: object,
                  datapaths: object = None) -> Slice:
        """Register a slice.  Must be done before switches connect.

        ``datapaths`` optionally restricts the slice to a subset of the
        switches (a set of dpids or a predicate); switches outside the
        subset are never exposed to the slice's controller.
        """
        if name in self.slices:
            raise ValueError(f"slice {name} already exists")
        new_slice = Slice(name=name, controller=controller, datapaths=datapaths)
        self.slices[name] = new_slice
        return new_slice

    # ---------------------------------------------------------------- switches
    def accept_switch_channel(self, channel: ControlChannel) -> None:
        """Attach a switch-facing channel; FlowVisor plays the controller role."""
        session = _SwitchSession(channel)
        self._switch_sessions[channel] = session
        self._send_to_switch(session, Hello())
        self._send_to_switch(session, FeaturesRequest(xid=self._take_proxy_xid(session)))

    # ------------------------------------------------------------ channel glue
    def channel_receive(self, channel: ControlChannel, data: bytes) -> None:
        self.sim.schedule(self.PROCESSING_DELAY, self._route, channel, data,
                          label=self._route_label)

    def channel_closed(self, channel: ControlChannel) -> None:
        session = self._switch_sessions.pop(channel, None)
        if session is not None:
            for slice_channel in session.slice_channels.values():
                slice_channel.close()
            return
        entry = self._slice_channel_index.pop(channel, None)
        if entry is not None:
            session, slice_name = entry
            session.slice_channels.pop(slice_name, None)

    def _route(self, channel: ControlChannel, data: bytes) -> None:
        if channel in self._switch_sessions:
            self._from_switch(self._switch_sessions[channel], data)
        elif channel in self._slice_channel_index:
            session, slice_name = self._slice_channel_index[channel]
            self._from_controller(session, slice_name, data)
        else:
            LOG.warning("%s: message on unknown channel", self.name)

    # -------------------------------------------------------- switch -> slices
    def _from_switch(self, session: _SwitchSession, data: bytes) -> None:
        try:
            message = OpenFlowMessage.decode(data)
        except DecodeError as exc:
            LOG.warning("%s: undecodable message from switch: %s", self.name, exc)
            return
        if isinstance(message, Hello):
            return
        if isinstance(message, EchoRequest):
            self._send_to_switch(session, EchoReply(data=message.data, xid=message.xid))
            return
        if isinstance(message, FeaturesReply):
            self._complete_switch_handshake(session, message)
            return
        if isinstance(message, PacketIn):
            self._route_packet_in(session, message, data)
            return
        if isinstance(message, (PortStatus, ErrorMessage)):
            self._maybe_route_reply(session, message) or self._broadcast(session, data)
            return
        # Barrier replies and anything else follow the xid-translation path.
        self._maybe_route_reply(session, message)

    def _complete_switch_handshake(self, session: _SwitchSession,
                                   features: FeaturesReply) -> None:
        session.datapath_id = features.datapath_id
        session.features = features
        session.handshake_complete = True
        LOG.info("%s: switch %#x connected; exposing it to %d slice(s)",
                 self.name, features.datapath_id, len(self.slices))
        for slice_name, registered in self.slices.items():
            if not registered.covers(features.datapath_id):
                continue
            self._open_slice_channel(session, slice_name, registered)

    def _open_slice_channel(self, session: _SwitchSession, slice_name: str,
                            registered: Slice) -> ControlChannel:
        slice_channel = ControlChannel(
            self.sim, latency=self.SLICE_CHANNEL_LATENCY,
            name=f"{self.name}:{slice_name}:dpid{session.datapath_id:x}")
        slice_channel.connect(self, registered.controller)
        session.slice_channels[slice_name] = slice_channel
        self._slice_channel_index[slice_channel] = (session, slice_name)
        registered.controller.accept_channel(slice_channel)
        return slice_channel

    def rehome_datapath(self, datapath_id: int) -> int:
        """Re-evaluate which slices cover a connected switch.

        Called by the sharded control plane after a dpid changes owner
        (takeover or resharding): slices that now cover the switch get a
        fresh channel — completing the same handshake as at connect time,
        with the FEATURES_REPLY answered from FlowVisor's cache — and
        slices that no longer cover it lose theirs.  The switch itself
        notices nothing; its flow table is untouched.  Returns the number
        of slice channels opened or closed.
        """
        changed = 0
        for session in list(self._switch_sessions.values()):
            if (session.datapath_id != datapath_id
                    or not session.handshake_complete):
                continue
            for slice_name, registered in self.slices.items():
                attached = slice_name in session.slice_channels
                covered = registered.covers(datapath_id)
                if covered and not attached:
                    self._open_slice_channel(session, slice_name, registered)
                    changed += 1
                elif attached and not covered:
                    session.slice_channels.pop(slice_name).close()
                    changed += 1
        return changed

    def _route_packet_in(self, session: _SwitchSession, message: PacketIn,
                         data: bytes) -> None:
        # The packet-in is forwarded untranslated (xid untouched), so the
        # original wire bytes go out instead of re-encoding the message.
        fields = PacketFields.from_frame(message.data, in_port=message.in_port)
        slice_names = self.flowspace.slices_for_packet(fields)
        if not slice_names:
            self.packet_ins_dropped += 1
            return
        for slice_name in slice_names:
            channel = session.slice_channels.get(slice_name)
            if channel is None:
                continue
            self.packet_ins_routed += 1
            channel.send(self, data)

    def _broadcast(self, session: _SwitchSession, data: bytes) -> bool:
        """Forward an (unmodified) switch message to every slice."""
        for channel in session.slice_channels.values():
            channel.send(self, data)
        return True

    def _maybe_route_reply(self, session: _SwitchSession,
                           message: OpenFlowMessage) -> bool:
        """Route a reply back to the slice whose request carried this xid."""
        entry = session.pending_replies.pop(message.xid, None)
        if entry is None:
            return False
        slice_name, original_xid = entry
        channel = session.slice_channels.get(slice_name)
        if channel is None:
            return True
        message.xid = original_xid
        channel.send(self, message.encode())
        return True

    # ----------------------------------------------------- controller -> switch
    def _from_controller(self, session: _SwitchSession, slice_name: str,
                         data: bytes) -> None:
        # Hot-path dispatch on the header type byte: flow-mods and
        # packet-outs — the bulk of controller traffic — are forwarded from
        # the original wire bytes (xid untouched) instead of being decoded
        # and re-encoded just to pass through.
        if len(data) >= OFP_HEADER_LEN and data[0] == OFP_VERSION:
            msg_type = data[1]
            if msg_type == OFPType.FLOW_MOD:
                self._forward_flow_mod(session, slice_name, data)
                return
            if msg_type == OFPType.PACKET_OUT:
                self._forward_packet_out(session, slice_name, data)
                return
        try:
            message = OpenFlowMessage.decode(data)
        except DecodeError as exc:
            LOG.warning("%s: undecodable message from slice %s: %s",
                        self.name, slice_name, exc)
            return
        if isinstance(message, Hello):
            return
        if isinstance(message, EchoRequest):
            self._reply_to_slice(session, slice_name,
                                 EchoReply(data=message.data, xid=message.xid))
            return
        if isinstance(message, FeaturesRequest):
            self._answer_features(session, slice_name, message)
            return
        if isinstance(message, (BarrierRequest,)) or message.msg_type == OFPType.STATS_REQUEST:
            self._forward_with_xid_translation(session, slice_name, message)
            return
        # Other controller->switch messages pass through unmodified.
        self._send_to_switch_raw(session, message.encode())

    def _answer_features(self, session: _SwitchSession, slice_name: str,
                         request: FeaturesRequest) -> None:
        if session.features is None:
            return
        reply = FeaturesReply(
            datapath_id=session.features.datapath_id,
            ports=session.features.ports,
            n_buffers=session.features.n_buffers,
            n_tables=session.features.n_tables,
            capabilities=session.features.capabilities,
            actions_bitmap=session.features.actions_bitmap,
            xid=request.xid,
        )
        self._reply_to_slice(session, slice_name, reply)

    def _forward_flow_mod(self, session: _SwitchSession, slice_name: str,
                          data: bytes) -> None:
        # Only the match is needed for the flowspace write check; the rest
        # of the flow-mod travels through as the original bytes.
        try:
            match = Match.decode(data[OFP_HEADER_LEN:OFP_HEADER_LEN + MATCH_LEN])
        except DecodeError as exc:
            LOG.warning("%s: undecodable flow-mod from slice %s: %s",
                        self.name, slice_name, exc)
            return
        if not self.flowspace.may_write(slice_name, match):
            self.flow_mods_denied += 1
            xid = struct.unpack_from("!I", data, 4)[0]
            error = ErrorMessage(OFPErrorType.BAD_REQUEST,
                                 OFPBadRequestCode.PERM_ERROR, xid=xid)
            self._reply_to_slice(session, slice_name, error)
            return
        self.flow_mods_forwarded += 1
        self._send_to_switch_raw(session, data)

    def _forward_packet_out(self, session: _SwitchSession, slice_name: str,
                            data: bytes) -> None:
        # Packet-outs are always permitted for slices holding any write rule;
        # the paper's two slices both inject packets (LLDP probes and routed
        # data respectively).
        self._send_to_switch_raw(session, data)

    def _forward_with_xid_translation(self, session: _SwitchSession, slice_name: str,
                                      message: OpenFlowMessage) -> None:
        proxy_xid = self._take_proxy_xid(session)
        session.pending_replies[proxy_xid] = (slice_name, message.xid)
        message.xid = proxy_xid
        self._send_to_switch_raw(session, message.encode())

    # ------------------------------------------------------------------ sends
    def _take_proxy_xid(self, session: _SwitchSession) -> int:
        xid = session.next_proxy_xid
        session.next_proxy_xid += 1
        return xid

    def _send_to_switch(self, session: _SwitchSession, message: OpenFlowMessage) -> None:
        session.channel.send(self, message.encode())

    def _send_to_switch_raw(self, session: _SwitchSession, data: bytes) -> None:
        session.channel.send(self, data)

    def _reply_to_slice(self, session: _SwitchSession, slice_name: str,
                        message: OpenFlowMessage) -> None:
        channel = session.slice_channels.get(slice_name)
        if channel is not None:
            channel.send(self, message.encode())

    # ------------------------------------------------------------------- info
    @property
    def connected_switches(self) -> List[int]:
        return sorted(s.datapath_id for s in self._switch_sessions.values()
                      if s.datapath_id is not None)

    def __repr__(self) -> str:
        return (f"<FlowVisor {self.name} slices={sorted(self.slices)} "
                f"switches={len(self._switch_sessions)}>")
