"""Routing information base (RIB) shared by the Quagga-style daemons.

The RIB holds candidate routes from multiple protocols (connected, static,
OSPF, BGP), selects the best one per prefix using administrative distance
then metric, and notifies listeners when the selected route for a prefix
changes.  The zebra daemon wraps one RIB per virtual machine and pushes
selected routes into the VM's FIB, from where the RouteFlow client exports
them to the physical switches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from repro.net.addresses import IPv4Address, IPv4Network


class RouteSource:
    """Route origins and their default administrative distances."""

    CONNECTED = "connected"
    STATIC = "static"
    OSPF = "ospf"
    BGP = "bgp"
    #: Traffic-engineering overrides installed by the TE controller
    #: (:mod:`repro.te`).  Distance 15 sits between static (1) and eBGP
    #: (20): a TE steer beats every protocol-learned route to the same
    #: prefix but never a connected or operator-pinned static route.
    TE = "te"

    DISTANCES = {
        CONNECTED: 0,
        STATIC: 1,
        TE: 15,
        OSPF: 110,
        BGP: 20,
    }

    #: Routes learned over *internal* BGP sessions carry the classic 200
    #: administrative distance (set per-route via :attr:`Route.distance`),
    #: so an iBGP path never beats the IGP to the same prefix while an
    #: eBGP path (20) always does.
    IBGP_DISTANCE = 200

    @classmethod
    def distance(cls, source: str) -> int:
        return cls.DISTANCES.get(source, 255)


@dataclass(frozen=True)
class Route:
    """A single candidate route."""

    prefix: IPv4Network
    next_hop: Optional[IPv4Address]
    interface: str
    source: str
    metric: int = 0
    distance: Optional[int] = None
    #: Opaque route tag carried with the route (like the OSPF external route
    #: tag): OSPF marks routes it computed from redistributed (AS-external)
    #: prefixes with :data:`repro.quagga.ospf.constants.EXTERNAL_ROUTE_TAG`,
    #: and the BGP daemon's ``redistribute ospf`` skips them — the guard
    #: that keeps a leaked external route from re-entering BGP with a
    #: truncated AS path.
    tag: int = 0

    @property
    def admin_distance(self) -> int:
        if self.distance is not None:
            return self.distance
        return RouteSource.distance(self.source)

    @property
    def is_connected(self) -> bool:
        return self.source == RouteSource.CONNECTED

    def __str__(self) -> str:
        via = str(self.next_hop) if self.next_hop is not None else "directly connected"
        return f"{self.prefix} via {via} dev {self.interface} [{self.source}/{self.metric}]"


#: Callback signature: ``f(prefix, new_best_or_None, previous_best_or_None)``.
RouteChangeListener = Callable[[IPv4Network, Optional[Route], Optional[Route]], None]


class RIB:
    """Candidate routes per prefix with best-path selection."""

    def __init__(self) -> None:
        self._routes: Dict[IPv4Network, List[Route]] = {}
        self._selected: Dict[IPv4Network, Route] = {}
        self._listeners: List[RouteChangeListener] = []

    # -------------------------------------------------------------- listeners
    def add_listener(self, listener: RouteChangeListener) -> None:
        self._listeners.append(listener)

    # ------------------------------------------------------------------- CRUD
    def add_route(self, route: Route) -> bool:
        """Insert or replace a candidate; returns True if the best changed."""
        candidates = self._routes.setdefault(route.prefix, [])
        # A protocol re-announcing a prefix replaces its previous candidate.
        candidates[:] = [r for r in candidates
                         if not (r.source == route.source and r.next_hop == route.next_hop
                                 and r.interface == route.interface)]
        candidates.append(route)
        return self._reselect(route.prefix)

    def remove_route(self, prefix: IPv4Network, source: str,
                     next_hop: Optional[IPv4Address] = None) -> bool:
        """Withdraw candidates of a protocol; returns True if the best changed."""
        candidates = self._routes.get(prefix)
        if not candidates:
            return False
        remaining = [r for r in candidates
                     if not (r.source == source
                             and (next_hop is None or r.next_hop == next_hop))]
        if len(remaining) == len(candidates):
            return False
        if remaining:
            self._routes[prefix] = remaining
        else:
            del self._routes[prefix]
        return self._reselect(prefix)

    def remove_all_from(self, source: str) -> List[IPv4Network]:
        """Withdraw every candidate of a protocol (daemon shutdown)."""
        changed = []
        for prefix in list(self._routes):
            if self.remove_route(prefix, source):
                changed.append(prefix)
        return changed

    def replace_routes(self, source: str,
                       routes: Iterable[Route]) -> List[IPv4Network]:
        """Reconcile a protocol's candidates against a full snapshot.

        ``routes`` is the protocol's *complete* current route set (one per
        prefix, e.g. the result of an SPF run).  Candidates the protocol no
        longer announces — including ones for the same prefix with a stale
        next hop or metric — are withdrawn, new and changed ones installed,
        and best-path selection re-runs once per affected prefix.  This is
        what keeps an equal-metric stale candidate from surviving a
        next-hop change and winning :meth:`_reselect`'s tie-break forever.

        Returns the prefixes whose selected route changed, in ascending
        prefix order (listeners fire in the same deterministic order).
        """
        new_by_prefix: Dict[IPv4Network, Route] = {}
        for route in routes:
            if route.source != source:
                raise ValueError(
                    f"route {route} does not belong to source {source!r}")
            new_by_prefix[route.prefix] = route
        affected = set(new_by_prefix)
        for prefix, candidates in self._routes.items():
            if any(r.source == source for r in candidates):
                affected.add(prefix)
        changed: List[IPv4Network] = []
        for prefix in sorted(affected,
                             key=lambda p: (int(p.network), p.prefix_len)):
            candidates = self._routes.get(prefix)
            new = new_by_prefix.get(prefix)
            if candidates:
                existing = [r for r in candidates if r.source == source]
                if new is not None and len(existing) == 1 and existing[0] == new:
                    continue  # unchanged: skip the reselect round trip
                remaining = [r for r in candidates if r.source != source]
            else:
                remaining = []
            if new is not None:
                remaining.append(new)
            if remaining:
                self._routes[prefix] = remaining
            else:
                self._routes.pop(prefix, None)
            if self._reselect(prefix):
                changed.append(prefix)
        return changed

    # -------------------------------------------------------------- selection
    def _reselect(self, prefix: IPv4Network) -> bool:
        candidates = self._routes.get(prefix, [])
        best = min(candidates, key=lambda r: (r.admin_distance, r.metric),
                   default=None)
        previous = self._selected.get(prefix)
        if best == previous:
            return False
        if best is None:
            del self._selected[prefix]
        else:
            self._selected[prefix] = best
        for listener in self._listeners:
            listener(prefix, best, previous)
        return True

    # ------------------------------------------------------------------ reads
    def best_route(self, prefix: IPv4Network) -> Optional[Route]:
        return self._selected.get(prefix)

    def lookup(self, destination: IPv4Address) -> Optional[Route]:
        """Longest-prefix-match lookup over the selected routes."""
        best: Optional[Route] = None
        for prefix, route in self._selected.items():
            if destination in prefix:
                if best is None or prefix.prefix_len > best.prefix.prefix_len:
                    best = route
        return best

    @property
    def selected_routes(self) -> List[Route]:
        return sorted(self._selected.values(),
                      key=lambda r: (int(r.prefix.network), r.prefix.prefix_len))

    def candidates(self, prefix: IPv4Network) -> List[Route]:
        """All candidate routes for a prefix (selected or not)."""
        return list(self._routes.get(prefix, ()))

    def candidates_from(self, source: str) -> Dict[IPv4Network, List[Route]]:
        """Every candidate a protocol currently has installed, per prefix."""
        result: Dict[IPv4Network, List[Route]] = {}
        for prefix, candidates in self._routes.items():
            mine = [r for r in candidates if r.source == source]
            if mine:
                result[prefix] = mine
        return result

    def __len__(self) -> int:
        return len(self._selected)

    def __contains__(self, prefix: IPv4Network) -> bool:
        return prefix in self._selected
