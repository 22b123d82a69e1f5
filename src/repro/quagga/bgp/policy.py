"""BGP route policy as pure functions: path selection, export, and the
zebra route a best path installs as.

They take plain values (sessions, announcements, the parsed
``bgpd.conf``, an address book, a RIB to read) and touch no daemon
state, so ``tests/test_bgp_policy_models.py`` checks the decision and
the export against reference models without a simulator.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, Optional, Tuple

from repro.net.addresses import IPv4Address, IPv4Network
from repro.quagga.bgp.session import (
    DEFAULT_LOCAL_PREF,
    AddressBook,
    BGPAnnouncement,
    BGPPeerSession,
    connected_interface,
)
from repro.quagga.configfile import BGPConfig
from repro.quagga.rib import RIB, Route, RouteSource

#: Valley-free export threshold.  The RPC server stamps eBGP ingress
#: LOCAL_PREF by business relationship (customer 200 > peer 100 >
#: provider 50), so a route is customer-learned — and exportable to peers
#: and providers under Gao-Rexford — exactly when its LOCAL_PREF clears
#: this bar.  LOCAL_PREF is transitive over iBGP, which makes the check
#: correct on multi-border ASes too.
VALLEY_FREE_EXPORT_MIN = 150

#: A received route: the session it arrived over and the announcement.
Path = Tuple[BGPPeerSession, BGPAnnouncement]

#: Interned AS-path tuples.  At internet scale most announcements share a
#: small set of paths (everything a border re-advertises gets the same
#: prepended path); interning collapses them to one object per distinct
#: path, cutting memory and making the frequent path comparisons hit the
#: tuple identity fast path.
_AS_PATH_INTERN: Dict[Tuple[int, ...], Tuple[int, ...]] = {}


def _preference(path: Path) -> Tuple[int, int, int, int, int]:
    """The decision order as a sort key: the smallest key wins.

    MED is compared between routes from any two neighbouring ASes, which
    is Quagga's ``bgp always-compare-med``, not RFC 4271's default (same
    neighbour AS only).  The RPC server never writes a ``med`` line, so no
    generated configuration can tell the two apart.
    """
    session, announcement = path
    return (-announcement.local_pref,           # highest LOCAL_PREF
            len(announcement.as_path),          # shortest AS path
            announcement.med,                   # lowest MED, any neighbour AS
            1 if session.is_ibgp else 0,        # eBGP over iBGP
            int(session.peer_address))          # lowest peer address


def best_path(holders: Iterable[Path]) -> Optional[Path]:
    """The best of a prefix's Adj-RIB-In holders over established
    sessions, or None when no established session holds the prefix."""
    return min((path for path in holders if path[0].established),
               key=_preference, default=None)


def export_route(config: BGPConfig, router_id: IPv4Address,
                 session: BGPPeerSession, prefix: IPv4Network,
                 best: Optional[Path],
                 local: Optional[BGPAnnouncement]) -> Optional[BGPAnnouncement]:
    """What (if anything) a speaker advertises for ``prefix`` to one session.

    ``best`` is the prefix's decision result and ``local`` its local
    origination (a ``network`` statement or redistribution), which wins
    over any received path.  The rules apply in this order: split
    horizon, the iBGP no-transit rule (unless reflected), the Gao-Rexford
    gate towards eBGP peers and providers, the outbound prefix list; then
    next-hop-self on iBGP, or our AS prepended and the neighbour's MED on
    eBGP.
    """
    if local is not None:
        source: Optional[BGPPeerSession] = None
        candidate = local
    else:
        if best is None:
            return None
        source, candidate = best
        if source is session:
            return None  # never back to the peer it came from
        if source.is_ibgp and session.is_ibgp \
                and not _reflects_between(config, source, session):
            return None  # iBGP routes do not transit iBGP (full mesh)
    neighbor = config.neighbor(session.peer_address)
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
    if not config.prefix_list_permits(export_list, prefix):
        return None
    if session.is_ibgp:
        # next-hop-self towards iBGP peers: our loopback, resolvable
        # through the IGP; LOCAL_PREF and the AS path travel unchanged.
        return replace(candidate, next_hop=router_id)
    med = neighbor.med if neighbor is not None and neighbor.med is not None \
        else 0
    as_path = (config.local_as,) + candidate.as_path
    return BGPAnnouncement(
        prefix=prefix, next_hop=session.local_address,
        as_path=_AS_PATH_INTERN.setdefault(as_path, as_path),
        local_pref=DEFAULT_LOCAL_PREF, med=med)


def _reflects_between(config: BGPConfig, source: BGPPeerSession,
                      session: BGPPeerSession) -> bool:
    """Route reflection: an iBGP-learned route passes to another iBGP
    peer iff either side of the hop is one of our route-reflector
    clients.  With one reflector per AS (the RPC server's hub) this is
    loop-free without cluster lists."""
    for address in (source.peer_address, session.peer_address):
        neighbor = config.neighbor(address)
        if neighbor is not None and neighbor.route_reflector_client:
            return True
    return False


def zebra_route(address_book: AddressBook, rib: RIB, prefix: IPv4Network,
                best: Path) -> Optional[Route]:
    """The zebra route a best path installs as, or None while its next hop
    does not resolve.  iBGP routes install at distance 200, eBGP at 20."""
    session, announcement = best
    if not session.is_ibgp and announcement.next_hop == session.peer_address:
        # The common eBGP case: the next hop *is* the peer across the
        # shared link — directly connected by construction.
        resolution = (IPv4Address(announcement.next_hop), session.interface)
    else:
        # iBGP (next-hop-self = the peer's loopback) and third-party next
        # hops resolve recursively through the IGP.
        resolution = _resolve_next_hop(address_book(), rib,
                                       announcement.next_hop)
    if resolution is None:
        return None
    next_hop, interface = resolution
    return Route(prefix=prefix, next_hop=next_hop, interface=interface,
                 source=RouteSource.BGP, metric=len(announcement.as_path),
                 distance=RouteSource.IBGP_DISTANCE if session.is_ibgp else None)


def _resolve_next_hop(book: Dict[IPv4Address, Tuple[str, int]], rib: RIB,
                      next_hop: IPv4Address
                      ) -> Optional[Tuple[IPv4Address, str]]:
    """Recursively resolve a BGP next hop through the local RIB.

    Directly connected next hops (an eBGP peer across the border link)
    resolve to themselves; anything else (an iBGP peer's loopback)
    resolves to the next hop and interface of the IGP route towards it.
    Routes that would resolve through another BGP route stay unresolved
    (no BGP-over-BGP recursion).
    """
    next_hop = IPv4Address(next_hop)
    connected = connected_interface(book, next_hop)
    if connected is not None:
        return next_hop, connected[1]
    via = rib.lookup(next_hop)
    if via is None or via.source == RouteSource.BGP:
        return None
    if via.is_connected:
        return next_hop, via.interface
    if via.next_hop is None:
        return None
    return via.next_hop, via.interface
