"""BGP peering: the session records, the announcement value, the choice
of the address a session binds to, and the broker.

The broker stands in for BGP's TCP transport, the one deliberately
simplified substrate, documented in docs/DESIGN.md ("BGP session
broker"): message delivery is a small fixed delay, iBGP sessions run
between any two speakers that name each other (loopback peering without
modelling the TCP path), and loss of IGP reachability surfaces through
next-hop resolution rather than session teardown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from repro.net.addresses import IPv4Address, IPv4Network
from repro.sim import Simulator

if TYPE_CHECKING:
    from repro.quagga.bgp.daemon import BGPDaemon

#: Default LOCAL_PREF assigned to routes that arrive without one (RFC 4271).
DEFAULT_LOCAL_PREF = 100

#: One-way delivery delay of a BGP UPDATE/KEEPALIVE through the broker.
UPDATE_DELAY = 0.05

#: Callable returning the speaker's current address book:
#: address -> (interface name, prefix length).
AddressBook = Callable[[], Dict[IPv4Address, Tuple[str, int]]]


def prefix_order(prefix: IPv4Network) -> Tuple[int, int]:
    """The order prefixes are walked in: by network, then length."""
    return int(prefix.network), prefix.prefix_len


class BGPSessionState:
    IDLE = "Idle"
    OPEN_SENT = "OpenSent"
    ESTABLISHED = "Established"


@dataclass(frozen=True)
class BGPAnnouncement:
    """A route announcement exchanged between peers.

    ``as_path`` never contains the *originating* speaker's own AS while the
    route is locally originated — the AS is prepended on eBGP egress, so a
    receiver's loop check (own AS in path) is exact.
    """

    prefix: IPv4Network
    next_hop: IPv4Address
    as_path: Tuple[int, ...]
    local_pref: int = DEFAULT_LOCAL_PREF
    med: int = 0


@dataclass
class BGPPeerSession:
    """State of one configured peering."""

    local_address: IPv4Address
    peer_address: IPv4Address
    remote_as: int
    local_as: int
    #: Interface owning the local address; eBGP sessions tear down when it
    #: loses carrier (fast external fallover).  Empty for loopback (iBGP)
    #: sessions.
    interface: str = ""
    state: str = BGPSessionState.IDLE
    established_at: Optional[float] = None
    last_keepalive: float = 0.0
    #: Adj-RIB-In: routes received from the peer.
    received: Dict[IPv4Network, BGPAnnouncement] = field(default_factory=dict)
    #: Adj-RIB-Out: what we last advertised to the peer.
    advertised: Dict[IPv4Network, BGPAnnouncement] = field(default_factory=dict)
    #: This session is queued in the broker's pending set for a
    #: (re-)establishment probe.
    retry_pending: bool = False
    #: Adj-RIBs as they stood when the session last went down
    #: (graceful-restart-style retention, see :meth:`resync`).  None =
    #: nothing retained.
    stale_received: Optional[Dict[IPv4Network, BGPAnnouncement]] = None
    stale_advertised: Optional[Dict[IPv4Network, BGPAnnouncement]] = None

    @property
    def is_ibgp(self) -> bool:
        return self.remote_as == self.local_as

    @property
    def established(self) -> bool:
        return self.state == BGPSessionState.ESTABLISHED

    def resync(self, exports: List[Optional[BGPAnnouncement]],
               peer_stale: Optional[Dict[IPv4Network, BGPAnnouncement]]
               ) -> List[Tuple[BGPAnnouncement, bool]]:
        """Fill the Adj-RIB-Out of a freshly established session with
        ``exports`` (in prefix order, None where nothing is exported) and
        return the (announcement, withdraw) updates the peer needs: none
        for a prefix the peer retained exactly (``peer_stale``, its stale
        Adj-RIB-In), which the end-of-RIB marker revalidates, and a
        withdrawal for what it retained that we no longer export."""
        stale_out, self.stale_advertised = self.stale_advertised, None
        updates: List[Tuple[BGPAnnouncement, bool]] = []
        for announcement in exports:
            if announcement is None:
                continue
            prefix = announcement.prefix
            self.advertised[prefix] = announcement
            if peer_stale is not None and stale_out is not None \
                    and stale_out.get(prefix) == announcement \
                    and prefix in peer_stale:
                continue
            updates.append((announcement, False))
        if peer_stale is not None:
            for prefix in sorted(set(peer_stale) - set(self.advertised),
                                 key=prefix_order):
                updates.append((peer_stale[prefix], True))
        return updates

    def end_of_rib(self, retained: bool, touched: Set[IPv4Network]
                   ) -> List[BGPAnnouncement]:
        """End-of-RIB: discard the stale snapshot, returning the routes
        that re-enter the Adj-RIB-In.  ``retained`` says the sender skipped
        what we retained, so every entry the batch did not touch is valid."""
        stale, self.stale_received = self.stale_received, None
        if not stale or not retained:
            return []
        return [stale[prefix]
                for prefix in sorted(set(stale) - touched, key=prefix_order)]


def connected_interface(book: Dict[IPv4Address, Tuple[str, int]],
                        address: IPv4Address
                        ) -> Optional[Tuple[IPv4Address, str]]:
    """The (local address, interface) whose connected prefix holds
    ``address``, or None."""
    for local, (name, prefix_len) in book.items():
        if prefix_len and name != "lo" \
                and address in IPv4Network((local, prefix_len)):
            return local, name
    return None


def known_addresses(book: Dict[IPv4Address, Tuple[str, int]],
                    local_addresses: List[IPv4Address],
                    router_id: IPv4Address) -> List[IPv4Address]:
    """Every address a speaker answers on: its interfaces, any configured
    local address, and its router id (the loopback)."""
    known = dict(book)
    for address in local_addresses:
        known.setdefault(IPv4Address(address), ("", 0))
    if int(router_id):
        known.setdefault(IPv4Address(router_id), ("lo", 32))
    return list(known)


def local_address_for(book: Dict[IPv4Address, Tuple[str, int]],
                      local_addresses: List[IPv4Address],
                      router_id: IPv4Address,
                      peer: IPv4Address) -> Optional[IPv4Address]:
    """Pick the local address a session with ``peer`` binds to.

    Preference order: an interface whose connected prefix contains the
    peer (the eBGP border link), the same-/24 heuristic the session
    broker's tests rely on, our router id for loopback (iBGP) peering,
    else the first known address.
    """
    peer = IPv4Address(peer)
    connected = connected_interface(book, peer)
    if connected is not None:
        return connected[0]
    known = known_addresses(book, local_addresses, router_id)
    for address in known:
        if int(address) >> 8 == int(peer) >> 8:
            return address
    if int(router_id) and (router_id in book or not local_addresses):
        return IPv4Address(router_id)
    return known[0] if known else None


class BGPSessionBroker:
    """Connects speakers that name each other as neighbors.

    The broker abstracts the TCP transport: it pairs matching neighbor
    statements, runs the (delayed) session establishment handshake, and
    delivers UPDATEs and KEEPALIVEs between established endpoints.

    Idle sessions sit in a *pending set* keyed by the peer address they
    are waiting for; a probe runs when that address registers, or on the
    daemons' ConnectRetry ticks.  Only pending sessions are probed — the
    steady state (everything established) costs nothing per tick, where a
    full rescan of every registered speaker used to cost
    O(speakers x sessions).
    """

    def __init__(self, sim: Simulator, session_delay: float = 1.0) -> None:
        self.sim = sim
        self.session_delay = session_delay
        self._speakers: Dict[IPv4Address, BGPDaemon] = {}
        #: peer address -> idle sessions waiting to establish towards it.
        self._pending: Dict[IPv4Address,
                            List[Tuple[BGPDaemon, BGPPeerSession]]] = {}

    def register(self, address: IPv4Address, speaker: BGPDaemon) -> None:
        address = IPv4Address(address)
        self._speakers[address] = speaker
        # Sessions elsewhere that were waiting for this address can try
        # now, and so can the registering speaker's own idle sessions
        # (their peers may already be registered).
        self._probe(self._pending.pop(address, []))
        for session in list(speaker.sessions.values()):
            if session.state == BGPSessionState.IDLE:
                self._try_establish(speaker, session)
                if session.state == BGPSessionState.IDLE:
                    self.enlist(speaker, session)

    def unregister_speaker(self, speaker: BGPDaemon) -> None:
        for address in [a for a, s in self._speakers.items() if s is speaker]:
            del self._speakers[address]

    def speaker_at(self, address: IPv4Address) -> Optional[BGPDaemon]:
        return self._speakers.get(IPv4Address(address))

    def enlist(self, speaker: BGPDaemon, session: BGPPeerSession) -> None:
        """Queue an idle session for (re-)establishment probing."""
        if session.retry_pending:
            return
        session.retry_pending = True
        self._pending.setdefault(session.peer_address, []).append(
            (speaker, session))

    def retry(self) -> None:
        """Re-attempt establishment of every pending idle session."""
        for address in list(self._pending):
            self._probe(self._pending.pop(address, []))

    def _probe(self, entries: List[Tuple[BGPDaemon, BGPPeerSession]]) -> None:
        for speaker, session in entries:
            session.retry_pending = False
            if not speaker.running or session.state != BGPSessionState.IDLE \
                    or speaker.sessions.get(session.peer_address) is not session:
                continue  # daemon stopped or session replaced: drop lazily
            self._try_establish(speaker, session)
            if session.state == BGPSessionState.IDLE:
                self.enlist(speaker, session)  # still idle: keep pending

    def _try_establish(self, speaker: BGPDaemon,
                       session: BGPPeerSession) -> None:
        if session.state != BGPSessionState.IDLE or not speaker.running \
                or not speaker.session_ready(session):
            return
        peer = self._speakers.get(session.peer_address)
        if peer is None or not peer.running:
            return
        reverse = peer.sessions.get(session.local_address)
        if reverse is None or reverse.state != BGPSessionState.IDLE \
                or not peer.session_ready(reverse):
            return
        session.state = BGPSessionState.OPEN_SENT
        reverse.state = BGPSessionState.OPEN_SENT
        self.sim.schedule(self.session_delay, self._establish,
                          speaker, session, peer, reverse,
                          label="bgp:establish")

    def _establish(self, speaker: BGPDaemon, session: BGPPeerSession,
                   peer: BGPDaemon, reverse: BGPPeerSession) -> None:
        # Re-check at fire time: a carrier loss or daemon stop during the
        # handshake aborts it (the sessions go back to Idle for a retry).
        if not (speaker.running and peer.running
                and session.state == BGPSessionState.OPEN_SENT
                and reverse.state == BGPSessionState.OPEN_SENT
                and speaker.session_ready(session)
                and peer.session_ready(reverse)):
            if session.state == BGPSessionState.OPEN_SENT:
                session.state = BGPSessionState.IDLE
                self.enlist(speaker, session)
            if reverse.state == BGPSessionState.OPEN_SENT:
                reverse.state = BGPSessionState.IDLE
                self.enlist(peer, reverse)
            return
        for sess in (session, reverse):
            sess.state = BGPSessionState.ESTABLISHED
            sess.established_at = self.sim.now
            sess.last_keepalive = self.sim.now
        speaker.on_session_established(session, reverse)
        peer.on_session_established(reverse, session)

    def deliver_batch(self, session: BGPPeerSession,
                      updates: List[Tuple[BGPAnnouncement, bool]],
                      eor: bool = False, retained: bool = False) -> None:
        """Deliver a coalesced set of (announcement, withdraw) updates as
        one event.  ``eor=True`` marks the batch as the end of an initial
        Adj-RIB-Out sync; ``retained`` says the sender skipped prefixes
        the receiver retained across the session drop."""
        peer = self._speakers.get(session.peer_address)
        if peer is None:
            return
        self.sim.schedule(UPDATE_DELAY, peer.receive_update_batch,
                          session.peer_address, session.local_address,
                          updates, eor, retained, label="bgp:update")

    def deliver_keepalive(self, session: BGPPeerSession) -> None:
        peer = self._speakers.get(session.peer_address)
        if peer is None:
            return
        self.sim.schedule(UPDATE_DELAY, peer.receive_keepalive,
                          session.peer_address, session.local_address,
                          label="bgp:keepalive")
