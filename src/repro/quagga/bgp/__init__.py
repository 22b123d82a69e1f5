"""BGP-4 speaker: eBGP/iBGP roles, per-peer policy, redistribution, flaps."""

from repro.quagga.bgp.daemon import BGPDaemon
from repro.quagga.bgp.session import (
    BGPAnnouncement,
    BGPPeerSession,
    BGPSessionBroker,
    BGPSessionState,
)

__all__ = [
    "BGPAnnouncement",
    "BGPDaemon",
    "BGPPeerSession",
    "BGPSessionBroker",
    "BGPSessionState",
]
