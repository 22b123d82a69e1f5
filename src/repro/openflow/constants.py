"""OpenFlow 1.0 protocol constants (subset used by this reproduction).

Names and numeric values follow the OpenFlow 1.0.0 specification so that
the wire encoding produced by :mod:`repro.openflow.messages` is the real
protocol, byte for byte, for the message types we implement.
"""

from __future__ import annotations

#: Protocol version byte for OpenFlow 1.0.
OFP_VERSION = 0x01

#: Maximum length value meaning "send the complete packet" in PACKET_IN.
OFPCML_NO_BUFFER = 0xFFFF

#: "No buffer" sentinel for buffer_id fields.
OFP_NO_BUFFER = 0xFFFFFFFF


class OFPType:
    """Message type codes (ofp_type)."""

    HELLO = 0
    ERROR = 1
    ECHO_REQUEST = 2
    ECHO_REPLY = 3
    VENDOR = 4
    FEATURES_REQUEST = 5
    FEATURES_REPLY = 6
    GET_CONFIG_REQUEST = 7
    GET_CONFIG_REPLY = 8
    SET_CONFIG = 9
    PACKET_IN = 10
    FLOW_REMOVED = 11
    PORT_STATUS = 12
    PACKET_OUT = 13
    FLOW_MOD = 14
    PORT_MOD = 15
    STATS_REQUEST = 16
    STATS_REPLY = 17
    BARRIER_REQUEST = 18
    BARRIER_REPLY = 19


class OFPPort:
    """Reserved port numbers (ofp_port)."""

    MAX = 0xFF00
    IN_PORT = 0xFFF8
    TABLE = 0xFFF9
    NORMAL = 0xFFFA
    FLOOD = 0xFFFB
    ALL = 0xFFFC
    CONTROLLER = 0xFFFD
    LOCAL = 0xFFFE
    NONE = 0xFFFF


class OFPFlowWildcards:
    """Flow wildcard bits (ofp_flow_wildcards)."""

    IN_PORT = 1 << 0
    DL_VLAN = 1 << 1
    DL_SRC = 1 << 2
    DL_DST = 1 << 3
    DL_TYPE = 1 << 4
    NW_PROTO = 1 << 5
    TP_SRC = 1 << 6
    TP_DST = 1 << 7
    NW_SRC_SHIFT = 8
    NW_SRC_BITS = 6
    NW_SRC_MASK = ((1 << NW_SRC_BITS) - 1) << NW_SRC_SHIFT
    NW_SRC_ALL = 32 << NW_SRC_SHIFT
    NW_DST_SHIFT = 14
    NW_DST_BITS = 6
    NW_DST_MASK = ((1 << NW_DST_BITS) - 1) << NW_DST_SHIFT
    NW_DST_ALL = 32 << NW_DST_SHIFT
    DL_VLAN_PCP = 1 << 20
    NW_TOS = 1 << 21
    ALL = ((1 << 22) - 1)


class OFPActionType:
    """Action type codes (ofp_action_type)."""

    OUTPUT = 0
    SET_VLAN_VID = 1
    SET_VLAN_PCP = 2
    STRIP_VLAN = 3
    SET_DL_SRC = 4
    SET_DL_DST = 5
    SET_NW_SRC = 6
    SET_NW_DST = 7
    SET_NW_TOS = 8
    SET_TP_SRC = 9
    SET_TP_DST = 10
    ENQUEUE = 11


class OFPFlowModCommand:
    """Flow-mod commands (ofp_flow_mod_command)."""

    ADD = 0
    MODIFY = 1
    MODIFY_STRICT = 2
    DELETE = 3
    DELETE_STRICT = 4


class OFPFlowModFlags:
    SEND_FLOW_REM = 1 << 0
    CHECK_OVERLAP = 1 << 1
    EMERG = 1 << 2


class OFPPacketInReason:
    NO_MATCH = 0
    ACTION = 1


class OFPPortReason:
    ADD = 0
    DELETE = 1
    MODIFY = 2


class OFPPortState:
    LINK_DOWN = 1 << 0


class OFPErrorType:
    HELLO_FAILED = 0
    BAD_REQUEST = 1
    BAD_ACTION = 2
    FLOW_MOD_FAILED = 3
    PORT_MOD_FAILED = 4
    QUEUE_OP_FAILED = 5


class OFPBadRequestCode:
    BAD_VERSION = 0
    BAD_TYPE = 1
    BAD_STAT = 2
    BAD_VENDOR = 3
    PERM_ERROR = 5


class OFPBadActionCode:
    BAD_TYPE = 0


class OFPFlowModFailedCode:
    ALL_TABLES_FULL = 0
    OVERLAP = 1
    EPERM = 2
    BAD_EMERG_TIMEOUT = 3
    BAD_COMMAND = 4
    UNSUPPORTED = 5
