"""OpenFlow 1.0: wire codec, flow table, software switch, control channel."""

from repro.openflow.actions import (
    Action,
    OutputAction,
    SetDlDstAction,
    SetDlSrcAction,
)
from repro.openflow.channel import ControlChannel
from repro.openflow.constants import (
    OFP_NO_BUFFER,
    OFP_VERSION,
    OFPFlowModCommand,
    OFPPacketInReason,
    OFPPort,
    OFPPortReason,
    OFPType,
)
from repro.openflow.flow_table import FlowEntry, FlowTable
from repro.openflow.match import Match, PacketFields
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
    decode_message,
)
from repro.openflow.switch import OpenFlowSwitch, SwitchPort

__all__ = [
    "Action",
    "BarrierReply",
    "BarrierRequest",
    "ControlChannel",
    "EchoReply",
    "EchoRequest",
    "ErrorMessage",
    "FeaturesReply",
    "FeaturesRequest",
    "FlowEntry",
    "FlowMod",
    "FlowTable",
    "Hello",
    "Match",
    "OFPFlowModCommand",
    "OFPPacketInReason",
    "OFPPort",
    "OFPPortReason",
    "OFPType",
    "OFP_NO_BUFFER",
    "OFP_VERSION",
    "OpenFlowMessage",
    "OpenFlowSwitch",
    "OutputAction",
    "PacketFields",
    "PacketIn",
    "PacketOut",
    "PhyPort",
    "PortStatus",
    "SetDlDstAction",
    "SetDlSrcAction",
    "SwitchPort",
    "decode_message",
]
