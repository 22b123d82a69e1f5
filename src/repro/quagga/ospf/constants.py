"""OSPFv2 constants (RFC 2328 subset)."""

from __future__ import annotations

from repro.net.addresses import IPv4Address

#: OSPF protocol version implemented here.
OSPF_VERSION = 2

#: AllSPFRouters multicast group — every OSPF packet on a point-to-point
#: interface is addressed here.
ALL_SPF_ROUTERS = IPv4Address("224.0.0.5")

#: Multicast MAC corresponding to 224.0.0.5.
ALL_SPF_ROUTERS_MAC = "01:00:5e:00:00:05"


class OSPFPacketType:
    HELLO = 1
    DB_DESCRIPTION = 2
    LS_REQUEST = 3
    LS_UPDATE = 4
    LS_ACK = 5


class LSAType:
    ROUTER = 1
    NETWORK = 2
    SUMMARY = 3
    ASBR_SUMMARY = 4
    AS_EXTERNAL = 5


class RouterLinkType:
    POINT_TO_POINT = 1
    TRANSIT = 2
    STUB = 3
    VIRTUAL = 4
    #: A stub link describing a redistributed AS-external prefix.  Stand-in
    #: for type-5 AS-external LSAs (which this Router-LSA-only area never
    #: floods): the prefix rides in the originator's Router LSA like a stub
    #: network but keeps its "external" nature on the wire, so every router
    #: can apply the RFC 2328 preference (intra-area routes always beat
    #: external ones) and tag the resulting RIB entries.  Value 7 is unused
    #: by RFC 2328 link types.  See docs/DESIGN.md ("OSPF external routes").
    EXTERNAL = 7


class NeighborState:
    """Neighbor FSM states, ordered by progress."""

    DOWN = 0
    INIT = 1
    TWO_WAY = 2
    EXSTART = 3
    EXCHANGE = 4
    LOADING = 5
    FULL = 6

    NAMES = {
        DOWN: "Down",
        INIT: "Init",
        TWO_WAY: "2-Way",
        EXSTART: "ExStart",
        EXCHANGE: "Exchange",
        LOADING: "Loading",
        FULL: "Full",
    }


class DDFlags:
    """Database-description packet flags."""

    MASTER = 0x01
    MORE = 0x02
    INIT = 0x04


#: Default protocol timers (seconds), matching Quagga's defaults.
DEFAULT_HELLO_INTERVAL = 10
DEFAULT_DEAD_INTERVAL = 40
#: SPF throttle (seconds): delay before a run and minimum gap between runs.
SPF_DELAY = 1.0
SPF_HOLDTIME = 5.0

#: Interface cost (Quagga: reference bandwidth 100 Mb/s over the link
#: bandwidth; our emulated gigabit links round up to 1, we keep 10 to
#: match the pan-European reference studies).
INTERFACE_COST = 10

#: Metric of a redistributed (AS-external) prefix, matching the classic
#: type-2 external default.
EXTERNAL_METRIC = 20
#: Debounce applied to Router-LSA re-origination triggered by external
#: route changes (a border router learning a BGP table would otherwise
#: flood one LSA per redistributed prefix) — a small MinLSInterval.
EXTERNAL_LSA_DELAY = 1.0
#: Tag carried by RIB routes that OSPF computed from EXTERNAL stub links;
#: the BGP daemon's ``redistribute ospf`` skips tagged routes so external
#: prefixes never re-enter BGP with a truncated AS path.
EXTERNAL_ROUTE_TAG = 1

#: Initial LSA sequence number (RFC 2328 §12.1.6).
INITIAL_SEQUENCE = 0x80000001
#: An LSA whose age reaches MaxAge is flushed from the area (RFC 2328 §14).
MAX_AGE = 3600
#: How often a router re-originates its own LSAs so they never reach
#: MaxAge while it is alive (RFC 2328 appendix B, LSRefreshTime).
LS_REFRESH_TIME = 1800
