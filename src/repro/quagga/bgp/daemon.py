"""A BGP-4 speaker with eBGP/iBGP session roles, policy and redistribution.

The paper's RPC server writes ``bgpd.conf`` files alongside the OSPF
configuration; this module is the daemon that boots from them.  It models
the pieces an interdomain experiment actually measures:

* **Session roles.**  A neighbor in the same AS forms an *iBGP* session,
  a neighbor in another AS an *eBGP* session.  The textbook rules apply:
  routes learned from an iBGP peer are never re-advertised to other iBGP
  peers (the full-mesh assumption — unless one side of the hop is a
  configured route-reflector client, RFC 4456 style), eBGP-learned and
  locally originated routes go to everyone, the AS path is prepended on
  eBGP egress only, and iBGP-learned routes install with administrative
  distance 200 versus eBGP's 20.
* **Per-peer policy.**  ``local-preference`` applied on ingress, ``med``
  attached on egress, and ``prefix-list ... out`` export filters — all
  honoured from the parsed configuration.
* **Lifecycle.**  Sessions walk Idle → OpenSent → Established through a
  :class:`BGPSessionBroker`; established sessions exchange keepalives and
  tear down on **hold-timer expiry** when the peer falls silent, or
  immediately on interface carrier loss (fast external fallover: eBGP
  sessions are bound to the interface owning their local address).  A
  session going down withdraws every route learned over it — from zebra,
  and with explicit withdrawals to the remaining peers — and the broker
  re-establishes it (and re-advertises) once both sides are back.
* **Redistribution.**  ``redistribute ospf`` / ``redistribute connected``
  originate the IGP's prefixes into BGP (skipping routes OSPF itself
  derived from redistributed external prefixes — the
  :data:`~repro.quagga.ospf.constants.EXTERNAL_ROUTE_TAG` guard against
  AS-path-truncating re-export).  The reverse direction, BGP → OSPF, is
  wired by the virtual machine (see ``repro.routeflow.vm``): BGP routes
  that win the FIB are injected into the area as AS-external prefixes.
* **Recursive next-hop resolution.**  A route whose next hop is not on a
  connected subnet (an iBGP next-hop-self pointing at a peer's loopback)
  resolves through the IGP: the installed zebra route carries the next
  hop and interface of the RIB route *towards* the BGP next hop, and is
  re-resolved whenever the underlying IGP routes change.

Peering transport is abstracted by the broker rather than a full TCP
implementation — the one deliberately simplified substrate, documented in
docs/DESIGN.md ("BGP session broker"): message delivery is a small fixed
delay, iBGP sessions run between any two speakers that name each other
(loopback peering without modelling the TCP path), and loss of IGP
reachability surfaces through next-hop resolution rather than session
teardown.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.net.addresses import IPv4Address, IPv4Network
from repro.quagga.configfile import BGPConfig
from repro.quagga.rib import Route, RouteSource
from repro.quagga.zebra import ZebraDaemon
from repro.sim import PeriodicTask, Simulator

LOG = logging.getLogger(__name__)

#: Default LOCAL_PREF assigned to routes that arrive without one (RFC 4271).
DEFAULT_LOCAL_PREF = 100

#: Valley-free export threshold.  The RPC server stamps eBGP ingress
#: LOCAL_PREF by business relationship (customer 200 > peer 100 >
#: provider 50), so a route is customer-learned — and exportable to peers
#: and providers under Gao-Rexford — exactly when its LOCAL_PREF clears
#: this bar.  LOCAL_PREF is transitive over iBGP, which makes the check
#: correct on multi-border ASes too.
VALLEY_FREE_EXPORT_MIN = 150

#: One-way delivery delay of a BGP UPDATE/KEEPALIVE through the broker.
UPDATE_DELAY = 0.05

#: Interned AS-path tuples.  At internet scale most announcements share a
#: small set of paths (everything a border re-advertises gets the same
#: prepended path); interning collapses them to one object per distinct
#: path, cutting memory and making the frequent path comparisons hit the
#: tuple identity fast path.
_AS_PATH_INTERN: Dict[Tuple[int, ...], Tuple[int, ...]] = {}


def _intern_as_path(path: Tuple[int, ...]) -> Tuple[int, ...]:
    return _AS_PATH_INTERN.setdefault(path, path)


#: Sentinel distinguishing "not passed" from None in export helpers.
_UNSET = object()

#: The export basis of a prefix nobody originates or announces.
_EMPTY_BASIS: Tuple[None, None, None] = (None, None, None)


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
    #: (graceful-restart-style retention, see
    #: :meth:`BGPDaemon.on_session_established`).  None = nothing retained.
    stale_received: Optional[Dict[IPv4Network, BGPAnnouncement]] = None
    stale_advertised: Optional[Dict[IPv4Network, BGPAnnouncement]] = None

    @property
    def is_ibgp(self) -> bool:
        return self.remote_as == self.local_as

    @property
    def established(self) -> bool:
        return self.state == BGPSessionState.ESTABLISHED


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
        self._speakers: Dict[IPv4Address, "BGPDaemon"] = {}
        #: peer address -> idle sessions waiting to establish towards it.
        self._pending: Dict[IPv4Address,
                            List[Tuple["BGPDaemon", BGPPeerSession]]] = {}
        #: Establishment probes attempted (the pending-set regression test
        #: pins this to stay linear in the number of idle sessions).
        self.probe_attempts = 0

    def register(self, address: IPv4Address, speaker: "BGPDaemon") -> None:
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

    def unregister_speaker(self, speaker: "BGPDaemon") -> None:
        for address in [a for a, s in self._speakers.items() if s is speaker]:
            del self._speakers[address]

    def speaker_at(self, address: IPv4Address) -> Optional["BGPDaemon"]:
        return self._speakers.get(IPv4Address(address))

    def enlist(self, speaker: "BGPDaemon", session: BGPPeerSession) -> None:
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

    def _probe(self, entries: List[Tuple["BGPDaemon", BGPPeerSession]]) -> None:
        for speaker, session in entries:
            session.retry_pending = False
            if not speaker.running or session.state != BGPSessionState.IDLE \
                    or speaker.sessions.get(session.peer_address) is not session:
                continue  # daemon stopped or session replaced: drop lazily
            self._try_establish(speaker, session)
            if session.state == BGPSessionState.IDLE:
                self.enlist(speaker, session)  # still idle: keep pending

    def _try_establish(self, speaker: "BGPDaemon",
                       session: BGPPeerSession) -> None:
        self.probe_attempts += 1
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

    def _establish(self, speaker: "BGPDaemon", session: BGPPeerSession,
                   peer: "BGPDaemon", reverse: BGPPeerSession) -> None:
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

    def deliver_batch(self, sender: "BGPDaemon", session: BGPPeerSession,
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

    def deliver_keepalive(self, sender: "BGPDaemon",
                          session: BGPPeerSession) -> None:
        peer = self._speakers.get(session.peer_address)
        if peer is None:
            return
        self.sim.schedule(UPDATE_DELAY, peer.receive_keepalive,
                          session.peer_address, session.local_address,
                          label="bgp:keepalive")


#: Callable returning the speaker's current address book:
#: address -> (interface name, prefix length).
AddressBook = Callable[[], Dict[IPv4Address, Tuple[str, int]]]


class BGPDaemon:
    """A BGP speaker configured from a parsed bgpd.conf."""

    def __init__(self, sim: Simulator, zebra: ZebraDaemon, config: BGPConfig,
                 broker: BGPSessionBroker,
                 local_addresses: Optional[List[IPv4Address]] = None,
                 hostname: str = "",
                 address_book: Optional[AddressBook] = None) -> None:
        self.sim = sim
        self.zebra = zebra
        self.config = config
        self.broker = broker
        self.hostname = hostname or config.hostname
        self.local_as = config.local_as
        self.local_addresses = [IPv4Address(a) for a in (local_addresses or [])]
        self.router_id = config.router_id or (
            self.local_addresses[0] if self.local_addresses else IPv4Address(0))
        if address_book is None:
            address_book = lambda: {IPv4Address(a): ("", 0)
                                    for a in self.local_addresses}
        self.address_book = address_book
        #: keyed by the *peer* address — one session per neighbor statement.
        self.sessions: Dict[IPv4Address, BGPPeerSession] = {}
        #: Locally originated prefixes (``network`` statements and
        #: :meth:`announce_network` calls).
        self._local_networks: Dict[IPv4Network, BGPAnnouncement] = {}
        #: Prefixes originated through ``redistribute ospf|connected``.
        self._redistributed: Dict[IPv4Network, BGPAnnouncement] = {}
        #: What we currently have installed in zebra, per prefix.
        self._installed: Dict[IPv4Network, Route] = {}
        #: Received best routes whose next hop the IGP cannot resolve yet.
        self._unresolved: Set[IPv4Network] = set()
        #: prefix -> the BGP next hop its best path rides on (installed or
        #: unresolved), so an IGP change only re-resolves the prefixes it
        #: can actually affect (those whose next hop the changed prefix
        #: covers), not every tracked route.
        self._tracked_next_hops: Dict[IPv4Network, IPv4Address] = {}
        #: Interfaces currently without carrier (fast-fallover bookkeeping).
        self._down_interfaces: Set[str] = set()
        #: prefix -> {peer address: (session, announcement)} mirror of the
        #: per-session Adj-RIBs-In, so the decision process walks only the
        #: sessions that actually hold the prefix instead of all of them.
        self._adj_in: Dict[IPv4Network,
                           Dict[IPv4Address,
                                Tuple[BGPPeerSession, BGPAnnouncement]]] = {}
        #: prefix -> (best peer, best announcement, local origination) at
        #: the last re-evaluation; an unchanged basis means neither zebra
        #: nor any Adj-RIB-Out can change, so the whole fan-out is skipped.
        self._export_basis: Dict[
            IPv4Network,
            Tuple[Optional[IPv4Address], Optional[BGPAnnouncement],
                  Optional[BGPAnnouncement]]] = {}
        #: Outbound batching: while a batch is open (depth > 0), updates
        #: buffer per peer and flush as one coalesced event per peer.
        self._batch_depth = 0
        self._pending_out: Dict[IPv4Address,
                                List[Tuple[BGPAnnouncement, bool]]] = {}
        self._pending_eor: Dict[IPv4Address, bool] = {}
        self._in_reevaluate = False
        self._fib_listener_armed = False
        self._timer = PeriodicTask(
            sim, max(config.keepalive_interval, 0.5), self._on_timer,
            name=f"bgp:{self.hostname}:keepalive")
        self.running = False
        # Statistics used by the experiments.
        self.updates_sent = 0
        self.updates_received = 0
        self.withdrawals_sent = 0
        self.sessions_established = 0
        self.sessions_lost = 0

    # ---------------------------------------------------------------- control
    def start(self) -> None:
        self.running = True
        self._ensure_sessions()
        for network in self.config.networks:
            self._local_networks.setdefault(
                network, BGPAnnouncement(prefix=network, next_hop=self.router_id,
                                         as_path=()))
        if not self._fib_listener_armed:
            self.zebra.add_fib_listener(self._on_fib_change)
            self._fib_listener_armed = True
        # Routes installed before bgpd came up (OSPF usually converges while
        # the daemon package is still starting) seed the redistribution.
        for route in list(self.zebra.fib.values()):
            self._maybe_redistribute(route.prefix, route)
        for address in self._known_addresses():
            self.broker.register(address, self)
        self._timer.start()
        for prefix in self._all_prefixes():
            self._reevaluate(prefix)

    def stop(self) -> None:
        """Shut down: close every session (peers withdraw immediately, like
        a TCP reset) and withdraw our routes from zebra."""
        if not self.running:
            return
        self.running = False
        self._timer.stop()
        for session in list(self.sessions.values()):
            if session.established:
                peer = self.broker.speaker_at(session.peer_address)
                self._session_down(session, "daemon stopped")
                if peer is not None:
                    reverse = peer.sessions.get(session.local_address)
                    if reverse is not None:
                        peer._session_down(reverse, "peer closed the session")
        self.broker.unregister_speaker(self)
        self.zebra.rib.remove_all_from(RouteSource.BGP)
        self._installed.clear()
        self._unresolved.clear()
        self._tracked_next_hops.clear()
        # A stopped daemon loses its RIB state, so nothing can be retained
        # across a restart from our side (peers keep their own snapshots).
        for session in self.sessions.values():
            session.stale_received = None
            session.stale_advertised = None
        self._adj_in.clear()
        self._export_basis.clear()
        self._pending_out.clear()
        self._pending_eor.clear()

    def apply_config(self, config: BGPConfig) -> None:
        """Apply a regenerated bgpd.conf (the RPC server rewrites the file
        as new links and switches are discovered)."""
        self.config = config
        self.local_as = config.local_as
        if not self.running:
            return
        self._ensure_sessions()
        # Per-neighbor policy (local-pref, MED, prefix lists, relationship)
        # may have changed with the rewrite; drop the skip-memo so the next
        # re-evaluation of each prefix recomputes its exports from scratch.
        self._export_basis.clear()
        for network in config.networks:
            if network not in self._local_networks:
                self.announce_network(network)
        # Newly enabled redistribution picks up the existing FIB.
        for route in list(self.zebra.fib.values()):
            self._maybe_redistribute(route.prefix, route)
        self.broker.retry()

    def local_address_added(self, address: IPv4Address) -> None:
        """An interface address appeared (zebra applied a configuration)."""
        if self.running:
            self._ensure_sessions()
            self.broker.register(IPv4Address(address), self)

    # ------------------------------------------------------------- sessions
    def _known_addresses(self) -> List[IPv4Address]:
        book = dict(self.address_book())
        for address in self.local_addresses:
            book.setdefault(IPv4Address(address), ("", 0))
        if int(self.router_id):
            book.setdefault(IPv4Address(self.router_id), ("lo", 32))
        return list(book)

    def _ensure_sessions(self) -> None:
        for neighbor in self.config.neighbors:
            if neighbor.address in self.sessions:
                continue
            local = self._local_address_for(neighbor.address)
            if local is None:
                LOG.warning("%s: no local address facing neighbor %s",
                            self.hostname, neighbor.address)
                continue
            book = self.address_book()
            interface = book.get(IPv4Address(local), ("", 0))[0]
            if interface == "lo":
                interface = ""
            session = BGPPeerSession(
                local_address=IPv4Address(local),
                peer_address=IPv4Address(neighbor.address),
                remote_as=neighbor.remote_as, local_as=self.local_as,
                interface=interface)
            self.sessions[neighbor.address] = session
            # Queue the new session for establishment probing; the probe
            # fires when the peer address registers or on a retry tick.
            self.broker.enlist(self, session)

    def _local_address_for(self, peer: IPv4Address) -> Optional[IPv4Address]:
        """Pick the local address a session with ``peer`` binds to.

        Preference order: an interface whose connected prefix contains the
        peer (the eBGP border link), the same-/24 heuristic the session
        broker's tests rely on, our router id for loopback (iBGP) peering,
        else the first known address.
        """
        peer = IPv4Address(peer)
        book = self.address_book()
        for address, (name, prefix_len) in book.items():
            if prefix_len and name != "lo" \
                    and peer in IPv4Network((address, prefix_len)):
                return address
        for address in self._known_addresses():
            if int(address) >> 8 == int(peer) >> 8:
                return address
        if int(self.router_id) and (self.router_id in book
                                    or not self.local_addresses):
            return IPv4Address(self.router_id)
        addresses = self._known_addresses()
        return addresses[0] if addresses else None

    def session_ready(self, session: BGPPeerSession) -> bool:
        """Can this session (re-)establish right now?"""
        return self.running and (not session.interface
                                 or session.interface not in self._down_interfaces)

    def interface_down(self, name: str) -> None:
        """Carrier lost on an interface: fast external fallover.

        Every session bound to the interface drops immediately — both ends
        of a failed link observe the carrier loss, so the teardown is
        symmetric without waiting out the hold timer.
        """
        self._down_interfaces.add(name)
        for session in self.sessions.values():
            if session.interface == name \
                    and session.state != BGPSessionState.IDLE:
                self._session_down(session, "interface down")

    def interface_up(self, name: str) -> None:
        """Carrier returned: allow the broker to re-establish."""
        self._down_interfaces.discard(name)
        if self.running:
            self.broker.retry()

    def _session_down(self, session: BGPPeerSession, reason: str) -> None:
        if session.state == BGPSessionState.IDLE:
            return
        was_established = session.established
        session.state = BGPSessionState.IDLE
        session.established_at = None
        affected = set(session.received) | set(session.advertised)
        if was_established:
            # Graceful-restart-style snapshots: the peer keeps a copy of
            # what it had received from us, we keep a copy of what we had
            # advertised, and a re-established session re-sends only the
            # delta.  A drop mid-handshake keeps any earlier snapshot.
            session.stale_received = dict(session.received)
            session.stale_advertised = dict(session.advertised)
        for prefix in session.received:
            self._adj_in_discard(session, prefix)
        session.received.clear()
        session.advertised.clear()
        self._pending_out.pop(session.peer_address, None)
        self._pending_eor.pop(session.peer_address, None)
        if was_established:
            self.sessions_lost += 1
            LOG.info("%s: BGP session with %s down (%s)", self.hostname,
                     session.peer_address, reason)
        self._begin_batch()
        try:
            for prefix in sorted(affected,
                                 key=lambda p: (int(p.network), p.prefix_len)):
                self._reevaluate(prefix)
        finally:
            self._end_batch()
        if self.running:
            self.broker.enlist(self, session)

    # ----------------------------------------------------------------- timers
    def _on_timer(self) -> None:
        """Keepalives out, hold-timer check, ConnectRetry for idle sessions."""
        if not self.running:
            return
        now = self.sim.now
        idle = False
        for session in self.sessions.values():
            if session.established:
                self.broker.deliver_keepalive(self, session)
                silent_since = max(session.last_keepalive,
                                   session.established_at or 0.0)
                if now - silent_since > self.config.hold_time:
                    self._session_down(session, "hold timer expired")
                    idle = True
            elif session.state == BGPSessionState.IDLE:
                self.broker.enlist(self, session)
                idle = True
        if idle:
            self.broker.retry()

    def receive_keepalive(self, local_address: IPv4Address,
                          peer_address: IPv4Address) -> None:
        session = self.sessions.get(IPv4Address(peer_address))
        if session is not None and session.established:
            session.last_keepalive = self.sim.now

    # ------------------------------------------------------------ origination
    def announce_network(self, prefix: IPv4Network) -> None:
        """Originate a prefix from this AS (a ``network`` statement)."""
        self._local_networks[prefix] = BGPAnnouncement(
            prefix=prefix, next_hop=self.router_id, as_path=())
        self._reevaluate(prefix)

    def _maybe_redistribute(self, prefix: IPv4Network,
                            route: Optional[Route]) -> None:
        """Sync one FIB route into the redistribution table."""
        wanted = (
            route is not None
            and ((self.config.redistribute_ospf
                  and route.source == RouteSource.OSPF and route.tag == 0)
                 or (self.config.redistribute_connected
                     and route.source == RouteSource.CONNECTED)))
        if wanted:
            if prefix not in self._redistributed:
                self._redistributed[prefix] = BGPAnnouncement(
                    prefix=prefix, next_hop=self.router_id, as_path=())
                self._reevaluate(prefix)
        elif route is None or route.source != RouteSource.BGP:
            # A BGP route displacing the IGP route in the FIB does not
            # withdraw the origination (the IGP candidate still exists).
            if self._redistributed.pop(prefix, None) is not None:
                self._reevaluate(prefix)

    # -------------------------------------------------------------- reception
    def on_session_established(self, session: BGPPeerSession,
                               reverse: Optional[BGPPeerSession] = None) -> None:
        """Initial Adj-RIB-Out sync towards a freshly established peer.

        When the broker hands us the ``reverse`` session we can see what
        the peer retained from the previous incarnation of this session
        (its stale Adj-RIB-In); prefixes whose advertisement is unchanged
        are skipped and re-validated by the end-of-RIB marker instead of
        being re-sent — a session flap re-advertises one coalesced delta.
        """
        LOG.info("%s: BGP %s session with %s established", self.hostname,
                 "iBGP" if session.is_ibgp else "eBGP", session.peer_address)
        self.sessions_established += 1
        peer_stale = reverse.stale_received if reverse is not None else None
        stale_out = session.stale_advertised
        session.stale_advertised = None
        retained = peer_stale is not None
        order = lambda p: (int(p.network), p.prefix_len)
        self._begin_batch()
        try:
            for prefix in sorted(self._all_prefixes(), key=order):
                candidate = self._export_candidate(session, prefix)
                if candidate is None:
                    continue
                session.advertised[prefix] = candidate
                if retained and stale_out is not None \
                        and stale_out.get(prefix) == candidate \
                        and prefix in peer_stale:
                    # The peer still holds exactly this route from the
                    # previous session: the EOR marker revalidates it.
                    continue
                self.updates_sent += 1
                self._queue_update(session, candidate)
            if retained:
                for prefix in sorted(set(peer_stale) - set(session.advertised),
                                     key=order):
                    self.withdrawals_sent += 1
                    self._queue_update(session, peer_stale[prefix],
                                       withdraw=True)
            self._pending_eor[session.peer_address] = retained
        finally:
            self._end_batch()

    def receive_announcement(self, local_address: IPv4Address,
                             peer_address: IPv4Address,
                             announcement: BGPAnnouncement,
                             withdraw: bool = False) -> None:
        session = self.sessions.get(IPv4Address(peer_address))
        if session is None or not session.established:
            return
        if self.local_as in announcement.as_path:
            return  # AS-path loop
        self.updates_received += 1
        prefix = announcement.prefix
        if withdraw:
            if session.received.pop(prefix, None) is None:
                return
            self._adj_in_discard(session, prefix)
        else:
            if not session.is_ibgp:
                # eBGP ingress: LOCAL_PREF is not transitive across AS
                # borders; assign ours (per-peer policy or the default).
                neighbor = self.config.neighbor(session.peer_address)
                local_pref = neighbor.local_pref if neighbor is not None \
                    and neighbor.local_pref is not None else DEFAULT_LOCAL_PREF
                announcement = replace(announcement, local_pref=local_pref)
            session.received[prefix] = announcement
            self._adj_in_set(session, announcement)
        self._reevaluate(prefix)

    def receive_update_batch(self, local_address: IPv4Address,
                             peer_address: IPv4Address,
                             updates: List[Tuple[BGPAnnouncement, bool]],
                             eor: bool = False,
                             retained: bool = False) -> None:
        """Process a coalesced update set as one event.

        All triggered re-advertisements batch per peer, so a burst of N
        updates costs each downstream peer one delivery, not N.
        """
        session = self.sessions.get(IPv4Address(peer_address))
        if session is None or not session.established:
            return
        self._begin_batch()
        try:
            for announcement, withdraw in updates:
                self.receive_announcement(local_address, peer_address,
                                          announcement, withdraw)
            if eor:
                touched = {announcement.prefix for announcement, _ in updates}
                self._handle_eor(session, retained, touched)
        finally:
            self._end_batch()

    def _handle_eor(self, session: BGPPeerSession, retained: bool,
                    touched: Set[IPv4Network]) -> None:
        """End-of-RIB: promote retained stale routes, discard the rest.

        ``retained=True`` means the sender deliberately skipped prefixes we
        still hold in the stale snapshot; any snapshot entry the batch did
        not touch is therefore still valid and re-enters the Adj-RIB-In.
        """
        stale = session.stale_received
        session.stale_received = None
        if not stale or not retained:
            return
        for prefix in sorted(set(stale) - touched,
                             key=lambda p: (int(p.network), p.prefix_len)):
            if prefix in session.received:
                continue
            announcement = stale[prefix]
            session.received[prefix] = announcement
            self._adj_in_set(session, announcement)
            self._reevaluate(prefix)

    # ----------------------------------------------------------- path selection
    def _adj_in_set(self, session: BGPPeerSession,
                    announcement: BGPAnnouncement) -> None:
        self._adj_in.setdefault(announcement.prefix, {})[
            session.peer_address] = (session, announcement)

    def _adj_in_discard(self, session: BGPPeerSession,
                        prefix: IPv4Network) -> None:
        holders = self._adj_in.get(prefix)
        if holders is not None:
            holders.pop(session.peer_address, None)
            if not holders:
                del self._adj_in[prefix]

    def _all_prefixes(self) -> Set[IPv4Network]:
        prefixes: Set[IPv4Network] = set(self._local_networks)
        prefixes.update(self._redistributed)
        prefixes.update(self._adj_in)
        prefixes.update(self._installed)
        return prefixes

    def _best_received(self, prefix: IPv4Network
                       ) -> Optional[Tuple[BGPPeerSession, BGPAnnouncement]]:
        """RFC 4271 decision process over the Adj-RIBs-In.

        Walks the per-prefix holder index, not every session: on a border
        router with hundreds of sessions a prefix typically arrives over a
        handful of them.
        """
        holders = self._adj_in.get(prefix)
        if not holders:
            return None
        candidates = [item for item in holders.values() if item[0].established]
        if not candidates:
            return None
        return min(candidates, key=lambda item: (
            -item[1].local_pref,              # highest LOCAL_PREF
            len(item[1].as_path),             # shortest AS path
            item[1].med,                      # lowest MED
            1 if item[0].is_ibgp else 0,      # prefer eBGP over iBGP
            int(item[0].peer_address),        # lowest peer address
        ))

    def _local_origination(self, prefix: IPv4Network) -> Optional[BGPAnnouncement]:
        return self._local_networks.get(prefix) or self._redistributed.get(prefix)

    def _reevaluate(self, prefix: IPv4Network) -> None:
        """Recompute best path, zebra installation and Adj-RIBs-Out for a
        prefix.  The single entry point for every BGP state change.

        Incremental: everything downstream — the zebra installation and
        every per-peer export — is a pure function of (best path, local
        origination), so when that basis matches the memo from the last
        evaluation the fan-out is skipped entirely.  IGP re-resolution does
        not flow through here (see :meth:`_on_fib_change`).
        """
        best = self._best_received(prefix)
        local = self._local_origination(prefix)
        basis = (best[0].peer_address if best is not None else None,
                 best[1] if best is not None else None,
                 local)
        if basis == self._export_basis.get(prefix, _EMPTY_BASIS):
            return
        if basis == _EMPTY_BASIS:
            self._export_basis.pop(prefix, None)
        else:
            self._export_basis[prefix] = basis
        self._update_zebra(prefix, best)
        self._begin_batch()
        try:
            for session in self.sessions.values():
                if session.established:
                    self._sync_export(session, prefix, best, local)
        finally:
            self._end_batch()

    # ------------------------------------------------------------ installation
    def _update_zebra(self, prefix: IPv4Network,
                      best: Optional[Tuple[BGPPeerSession, BGPAnnouncement]]) -> None:
        route = None
        if best is not None and self._local_origination(prefix) is None:
            session, announcement = best
            self._tracked_next_hops[prefix] = IPv4Address(announcement.next_hop)
            if not session.is_ibgp \
                    and announcement.next_hop == session.peer_address:
                # The common eBGP case: the next hop *is* the peer across
                # the shared link — directly connected by construction.
                resolution = (IPv4Address(announcement.next_hop),
                              session.interface)
            else:
                # iBGP (next-hop-self = the peer's loopback) and third-party
                # next hops resolve recursively through the IGP.
                resolution = self._resolve_next_hop(announcement.next_hop)
            if resolution is None:
                self._unresolved.add(prefix)
            else:
                self._unresolved.discard(prefix)
                next_hop, interface = resolution
                route = Route(
                    prefix=prefix, next_hop=next_hop, interface=interface,
                    source=RouteSource.BGP, metric=len(announcement.as_path),
                    distance=RouteSource.IBGP_DISTANCE if session.is_ibgp else None)
        if best is None or self._local_origination(prefix) is not None:
            self._unresolved.discard(prefix)
            self._tracked_next_hops.pop(prefix, None)
        installed = self._installed.get(prefix)
        if route == installed:
            return
        self._in_reevaluate = True
        try:
            if route is None:
                if installed is not None:
                    del self._installed[prefix]
                    self.zebra.withdraw_route(prefix, RouteSource.BGP)
            else:
                self._installed[prefix] = route
                if installed is not None and installed.next_hop != route.next_hop:
                    # add_route replaces by (source, next hop, interface);
                    # a changed next hop must drop the old candidate first.
                    self.zebra.withdraw_route(prefix, RouteSource.BGP)
                self.zebra.announce_route(route)
        finally:
            self._in_reevaluate = False

    def _resolve_next_hop(self, next_hop: IPv4Address
                          ) -> Optional[Tuple[IPv4Address, str]]:
        """Recursively resolve a BGP next hop through the local RIB.

        Directly connected next hops (an eBGP peer across the border link)
        resolve to themselves; anything else (an iBGP peer's loopback)
        resolves to the next hop and interface of the IGP route towards it.
        Routes that would resolve through another BGP route stay unresolved
        (no BGP-over-BGP recursion).
        """
        next_hop = IPv4Address(next_hop)
        for address, (name, prefix_len) in self.address_book().items():
            if prefix_len and name != "lo" \
                    and next_hop in IPv4Network((address, prefix_len)):
                return next_hop, name
        via = self.zebra.rib.lookup(next_hop)
        if via is None or via.source == RouteSource.BGP:
            return None
        if via.is_connected:
            return next_hop, via.interface
        if via.next_hop is None:
            return None
        return via.next_hop, via.interface

    def _on_fib_change(self, prefix: IPv4Network, new: Optional[Route],
                       old: Optional[Route]) -> None:
        """Zebra FIB listener: drives redistribution and re-resolution."""
        if not self.running:
            return
        self._maybe_redistribute(prefix, new)
        if self._in_reevaluate:
            return
        touched_source = (new.source if new is not None
                          else old.source if old is not None else None)
        if touched_source == RouteSource.BGP:
            return
        # An IGP change can re-route (or break) the recursive resolution of
        # a route — but only of routes whose BGP next hop the changed
        # prefix covers (resolution is a longest-prefix match on the next
        # hop, so nothing else can be affected).
        affected = [tracked for tracked, next_hop
                    in self._tracked_next_hops.items() if next_hop in prefix]
        for tracked in sorted(affected,
                              key=lambda p: (int(p.network), p.prefix_len)):
            self._update_zebra(tracked, self._best_received(tracked))

    # ---------------------------------------------------------------- egress
    def _reflects_between(self, source: BGPPeerSession,
                          session: BGPPeerSession) -> bool:
        """Route reflection (RFC 4456, simplified): an iBGP-learned route
        passes to another iBGP peer iff either side of the hop is one of
        our route-reflector clients.  With one reflector per AS (the RPC
        server's hub) this is loop-free without cluster lists."""
        for address in (source.peer_address, session.peer_address):
            neighbor = self.config.neighbor(address)
            if neighbor is not None and neighbor.route_reflector_client:
                return True
        return False

    def _export_candidate(self, session: BGPPeerSession, prefix: IPv4Network,
                          best: Any = _UNSET,
                          local: Any = _UNSET) -> Optional[BGPAnnouncement]:
        """What (if anything) we should be advertising to this peer.

        ``best`` and ``local`` can be passed in by a caller that already
        ran the decision process, so a re-evaluation fanning out to N
        peers computes them once instead of N times.
        """
        if local is _UNSET:
            local = self._local_origination(prefix)
        if local is not None:
            source: Optional[BGPPeerSession] = None
            candidate = local
        else:
            if best is _UNSET:
                best = self._best_received(prefix)
            if best is None:
                return None
            source, candidate = best
            if source is session:
                return None  # never back to the peer it came from
            if source.is_ibgp and session.is_ibgp \
                    and not self._reflects_between(source, session):
                return None  # iBGP routes do not transit iBGP (full mesh)
        neighbor = self.config.neighbor(session.peer_address)
        if local is None and not session.is_ibgp and neighbor is not None \
                and neighbor.relationship in ("peer", "provider") \
                and candidate.as_path \
                and candidate.local_pref < VALLEY_FREE_EXPORT_MIN:
            # Gao-Rexford: only customer-learned or own-AS routes are
            # exported to peers and providers — no valley paths.  An empty
            # AS path means the route originated inside our AS (prepending
            # happens on eBGP egress only), e.g. a redistributed border
            # prefix relayed over iBGP from another border router.
            return None
        export_list = neighbor.export_prefix_list if neighbor is not None else None
        if not self.config.prefix_list_permits(export_list, prefix):
            return None
        if session.is_ibgp:
            # next-hop-self towards iBGP peers: our loopback, resolvable
            # through the IGP; LOCAL_PREF and the AS path travel unchanged.
            return replace(candidate, next_hop=self.router_id)
        med = neighbor.med if neighbor is not None and neighbor.med is not None \
            else 0
        return BGPAnnouncement(
            prefix=prefix, next_hop=session.local_address,
            as_path=_intern_as_path((self.local_as,) + candidate.as_path),
            local_pref=DEFAULT_LOCAL_PREF, med=med)

    def _sync_export(self, session: BGPPeerSession, prefix: IPv4Network,
                     best: Any = _UNSET, local: Any = _UNSET) -> None:
        outgoing = self._export_candidate(session, prefix, best, local)
        previous = session.advertised.get(prefix)
        if outgoing == previous:
            return
        if outgoing is None:
            del session.advertised[prefix]
            self.withdrawals_sent += 1
            self._queue_update(session, previous, withdraw=True)
        else:
            session.advertised[prefix] = outgoing
            self.updates_sent += 1
            self._queue_update(session, outgoing)

    # ---------------------------------------------------------- out batching
    def _queue_update(self, session: BGPPeerSession,
                      announcement: BGPAnnouncement,
                      withdraw: bool = False) -> None:
        # Every caller runs inside a _begin_batch / _end_batch pair, whose
        # outermost end hands each peer its updates as one batch.
        self._pending_out.setdefault(session.peer_address, []).append(
            (announcement, withdraw))

    def _begin_batch(self) -> None:
        self._batch_depth += 1

    def _end_batch(self) -> None:
        self._batch_depth -= 1
        if self._batch_depth:
            return
        while self._pending_out or self._pending_eor:
            pending, self._pending_out = self._pending_out, {}
            eor, self._pending_eor = self._pending_eor, {}
            targets = list(pending)
            targets.extend(a for a in eor if a not in pending)
            for peer_address in targets:
                session = self.sessions.get(peer_address)
                if session is None or not session.established:
                    continue
                self.broker.deliver_batch(
                    self, session, pending.get(peer_address, []),
                    eor=peer_address in eor,
                    retained=eor.get(peer_address, False))

    # ------------------------------------------------------------------ status
    @property
    def established_sessions(self) -> List[BGPPeerSession]:
        return [s for s in self.sessions.values() if s.established]

    @property
    def ebgp_sessions(self) -> List[BGPPeerSession]:
        return [s for s in self.sessions.values() if not s.is_ibgp]

    def best_routes(self) -> Dict[IPv4Network, BGPAnnouncement]:
        """The winning announcement per prefix (received routes only)."""
        result: Dict[IPv4Network, BGPAnnouncement] = {}
        for prefix in self._all_prefixes():
            best = self._best_received(prefix)
            if best is not None and self._local_origination(prefix) is None:
                result[prefix] = best[1]
        return result

    def __repr__(self) -> str:
        return (f"<BGPDaemon {self.hostname} AS{self.local_as} "
                f"sessions={len(self.sessions)} "
                f"established={len(self.established_sessions)}>")
