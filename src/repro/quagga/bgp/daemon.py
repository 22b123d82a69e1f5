"""A BGP-4 speaker: the glue around the pure route policy.

The paper's RPC server writes ``bgpd.conf`` files alongside the OSPF
configuration; this module is the daemon that boots from them.  What a
route may do (ingress LOCAL_PREF, path selection, export, redistribution,
next-hop resolution) is decided by :mod:`repro.quagga.bgp.policy`;
session records and the transport are :mod:`repro.quagga.bgp.session`.
The daemon owns the rest: the session lifecycle (keepalives, hold timer,
fast external fallover on carrier loss, the graceful-restart delta on
re-establishment), reception into the Adj-RIBs-In, the per-prefix
export-basis memo, installation into zebra (iBGP routes at distance 200,
eBGP at 20, re-resolved when the IGP changes) and per-peer batching of
outgoing updates.  BGP routes re-enter OSPF through the virtual machine
(``repro.routeflow.vm``).  docs/ARCHITECTURE.md ("Interdomain routing")
walks through all of it.
"""

from __future__ import annotations

import logging
from dataclasses import replace
from typing import Dict, List, Optional, Set, Tuple

from repro.net.addresses import IPv4Address, IPv4Network
from repro.quagga.bgp.policy import (
    Path,
    best_path,
    export_route,
    zebra_route,
)
from repro.quagga.bgp.session import (
    DEFAULT_LOCAL_PREF,
    AddressBook,
    BGPAnnouncement,
    BGPPeerSession,
    BGPSessionBroker,
    BGPSessionState,
    known_addresses,
    local_address_for,
    prefix_order,
)
from repro.quagga.configfile import BGPConfig
from repro.quagga.rib import Route, RouteSource
from repro.quagga.zebra import ZebraDaemon
from repro.sim import PeriodicTask, Simulator

LOG = logging.getLogger(__name__)

#: The export basis of a prefix nobody originates or announces.
_EMPTY_BASIS: Tuple[None, None, None] = (None, None, None)


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
        self._adj_in: Dict[IPv4Network, Dict[IPv4Address, Path]] = {}
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
        for address in known_addresses(self.address_book(),
                                       self.local_addresses, self.router_id):
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
    def _ensure_sessions(self) -> None:
        for neighbor in self.config.neighbors:
            if neighbor.address in self.sessions:
                continue
            book = self.address_book()
            local = local_address_for(book, self.local_addresses,
                                      self.router_id, neighbor.address)
            if local is None:
                LOG.warning("%s: no local address facing neighbor %s",
                            self.hostname, neighbor.address)
                continue
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
            LOG.info("%s: BGP session with %s down (%s)", self.hostname,
                     session.peer_address, reason)
        self._begin_batch()
        try:
            for prefix in sorted(affected, key=prefix_order):
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
                self.broker.deliver_keepalive(session)
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

        The broker hands us the ``reverse`` session, whose stale
        Adj-RIB-In is what the peer retained from the session's previous
        incarnation; :meth:`BGPPeerSession.resync` sends only the delta.
        """
        LOG.info("%s: BGP %s session with %s established", self.hostname,
                 "iBGP" if session.is_ibgp else "eBGP", session.peer_address)
        self.sessions_established += 1
        peer_stale = reverse.stale_received if reverse is not None else None
        exports = [export_route(self.config, self.router_id, session, prefix,
                                self._best_received(prefix),
                                self._local_origination(prefix))
                   for prefix in sorted(self._all_prefixes(), key=prefix_order)]
        self._begin_batch()
        try:
            for announcement, withdraw in session.resync(exports, peer_stale):
                if withdraw:
                    self.withdrawals_sent += 1
                else:
                    self.updates_sent += 1
                self._queue_update(session, announcement, withdraw)
            self._pending_eor[session.peer_address] = peer_stale is not None
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
                for announcement in session.end_of_rib(retained, touched):
                    if announcement.prefix in session.received:
                        continue
                    session.received[announcement.prefix] = announcement
                    self._adj_in_set(session, announcement)
                    self._reevaluate(announcement.prefix)
        finally:
            self._end_batch()

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

    def _best_received(self, prefix: IPv4Network) -> Optional[Path]:
        """The decision over the prefix's holder index, not every session:
        on a border router with hundreds of sessions a prefix typically
        arrives over a handful of them."""
        holders = self._adj_in.get(prefix)
        return best_path(holders.values()) if holders else None

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
    def _update_zebra(self, prefix: IPv4Network, best: Optional[Path]) -> None:
        route = None
        if best is not None and self._local_origination(prefix) is None:
            self._tracked_next_hops[prefix] = IPv4Address(best[1].next_hop)
            route = zebra_route(self.address_book, self.zebra.rib, prefix, best)
        else:
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
                              key=prefix_order):
            self._update_zebra(tracked, self._best_received(tracked))

    # ---------------------------------------------------------------- egress
    def _sync_export(self, session: BGPPeerSession, prefix: IPv4Network,
                     best: Optional[Path],
                     local: Optional[BGPAnnouncement]) -> None:
        outgoing = export_route(self.config, self.router_id, session, prefix,
                                best, local)
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
                    session, pending.get(peer_address, []),
                    eor=peer_address in eor,
                    retained=eor.get(peer_address, False))

    # ------------------------------------------------------------------ status
    @property
    def established_sessions(self) -> List[BGPPeerSession]:
        return [s for s in self.sessions.values() if s.established]

    @property
    def ebgp_sessions(self) -> List[BGPPeerSession]:
        return [s for s in self.sessions.values() if not s.is_ibgp]

    def __repr__(self) -> str:
        return (f"<BGPDaemon {self.hostname} AS{self.local_as} "
                f"sessions={len(self.sessions)} "
                f"established={len(self.established_sessions)}>")
