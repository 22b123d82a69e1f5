"""Shortest-path-first (Dijkstra) computation over the OSPF LSDB.

The SPF run builds the router graph from Router LSAs — an edge exists only
when *both* endpoints advertise the point-to-point link (the RFC's
bidirectional connectivity check) — computes shortest paths from the
calculating router, and derives one candidate route per stub network
advertised anywhere in the area.

Everything that does not depend on the calculating router lives in an
:class:`SPFBase`: the router graph (adjacency pre-sorted by neighbor id, so
the Dijkstra visit order and every tie-break are those of a sorted scan)
and the stub candidates grouped per prefix in final route order.  A base
is a pure function of the database *content*, and every router of an
area converges on the same content, so bases are shared by content
across all LSDBs of the process:

* the base map is keyed by :attr:`LSDB.digest`, an order-free integer
  digest of the LSAs' wire bytes (no hash seed enters);
* a digest hit is confirmed exactly, by comparing every key's wire bytes
  with those the base was built from, so a digest collision costs a
  rebuild, never a wrong route;
* the map holds bases weakly and each LSDB holds its current base
  strongly, so memory is bounded by the live LSDBs.

One input stays per LSDB: when two advertisers give a prefix the same
``(external, cost)``, the winner is the one that comes first in *this*
router's LSDB iteration order (arrival position, then link position).
Routers holding the same content can have received it in different
orders, so the shared base cannot carry that order;
:meth:`LSDB.arrival_rank` is consulted only on such a tie.

The per-root work runs on integer router ids: Dijkstra fills ``dist`` /
``first_hop`` dicts and :func:`route_table` walks the grouped stubs once.
:func:`compute_routes` dresses that table as :class:`SPFRoute` tuples.
"""

from __future__ import annotations

import heapq
import weakref
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.net.addresses import IPv4Address, IPv4Network, PREFIXLEN_FROM_NETMASK
from repro.quagga.ospf.constants import RouterLinkType
from repro.quagga.ospf.lsdb import LSDB

#: Shared (address, prefix-length) -> IPv4Network intern table.  Every
#: router in an area derives routes for the same handful of stub prefixes on
#: every SPF run; reusing the network objects also makes the RIB's
#: prefix-keyed dict lookups hit precomputed hashes.  Bounded like the
#: address intern tables.
_NETWORK_CACHE: Dict[Tuple[int, int], IPv4Network] = {}
_NETWORK_CACHE_LIMIT = 1 << 16

#: One advertiser's candidate for a stub prefix: (advertising router,
#: metric, external, prefix, LSA key, link position).  The last two are
#: the tie-break inputs: the key is ranked by arrival in each LSDB.  A
#: plain tuple: a base holds one per stub link of every LSA.
Stub = Tuple[int, int, bool, IPv4Network, Tuple[int, int, int], int]

#: One row of :func:`route_table`: (prefix, cost, first-hop router id or
#: None for a local stub, advertising router id, external).
TableRow = Tuple[IPv4Network, int, Optional[int], int, bool]


class SPFRoute(NamedTuple):
    """One route produced by an SPF run.

    A named tuple rather than a (frozen) dataclass: an SPF run emits one per
    stub network and large areas mean hundreds of thousands of them, where
    tuple allocation is several times cheaper than ``object.__setattr__``.
    """

    prefix: IPv4Network
    cost: int
    #: Router id of the first hop on the shortest path (None = local stub).
    first_hop: Optional[IPv4Address]
    #: Router id of the router advertising the stub network.
    advertising_router: IPv4Address
    #: True when the prefix was redistributed into the area (an EXTERNAL
    #: stub link, the type-5 stand-in); intra-area routes always win over
    #: external ones regardless of cost, per RFC 2328 §16.4.
    external: bool = False


class SPFNode:
    """Per-router result of the Dijkstra run (see :func:`shortest_paths`)."""

    __slots__ = ("router_id", "distance", "first_hop")

    def __init__(self, router_id: IPv4Address, distance: int,
                 first_hop: Optional[IPv4Address]) -> None:
        self.router_id = router_id
        self.distance = distance
        self.first_hop = first_hop

    def __repr__(self) -> str:
        return (f"SPFNode(router_id={self.router_id!r}, "
                f"distance={self.distance!r}, first_hop={self.first_hop!r})")


class SPFBase:
    """What SPF derives from one LSDB content, whichever router computes."""

    __slots__ = ("wires", "graph", "stubs", "__weakref__")

    def __init__(self, wires: Dict[Tuple[int, int, int], bytes],
                 graph: Dict[int, Dict[int, int]],
                 stubs: List[Tuple[Stub, ...]]) -> None:
        #: key -> wire bytes of the LSAs the base was built from.
        self.wires = wires
        #: {router -> {neighbor -> cost}}, neighbors in ascending id order.
        self.graph = graph
        #: Stub candidates per prefix, prefixes in ascending (network,
        #: length) order, candidates in (LSA key, link position) order.
        self.stubs = stubs


#: digest -> base, held weakly (each LSDB holds its current base).
_BASES: "weakref.WeakValueDictionary[int, SPFBase]" = \
    weakref.WeakValueDictionary()


def _same_content(base: SPFBase, lsdb: LSDB) -> bool:
    """Confirm a digest hit exactly: every key's wire bytes are equal."""
    return base.wires == lsdb.wires


def _build_base(lsdb: LSDB) -> SPFBase:
    wires = lsdb.wires
    advertised: Dict[int, Dict[int, int]] = {}
    groups: Dict[Tuple[int, int], List[Stub]] = {}
    networks = _NETWORK_CACHE
    # Sorted keys: the base is a function of the content alone, never of
    # the arrival order of whichever LSDB built it first.
    for key in sorted(wires):
        router = key[2]
        edges = advertised.setdefault(router, {})
        for position, link in enumerate(lsdb.get(key).links):
            kind = link.link_type
            if kind == RouterLinkType.POINT_TO_POINT:
                neighbor, cost = int(link.link_id), link.metric
                if neighbor not in edges or cost < edges[neighbor]:
                    edges[neighbor] = cost
            elif kind in (RouterLinkType.STUB, RouterLinkType.EXTERNAL):
                netmask = int(link.link_data)
                prefix_len = PREFIXLEN_FROM_NETMASK.get(netmask)
                if prefix_len is None:  # non-contiguous mask: count the bits
                    prefix_len = bin(netmask).count("1")
                network_key = (int(link.link_id), prefix_len)
                prefix = networks.get(network_key)
                if prefix is None:
                    prefix = IPv4Network((link.link_id, prefix_len))
                    if len(networks) < _NETWORK_CACHE_LIMIT:
                        networks[network_key] = prefix
                groups.setdefault(
                    (prefix.network._value, prefix.prefix_len), []).append(
                    (router, link.metric, kind == RouterLinkType.EXTERNAL,
                     prefix, key, position))
    graph = {
        router: {neighbor: edges[neighbor] for neighbor in sorted(edges)
                 if neighbor in advertised and router in advertised[neighbor]}
        for router, edges in advertised.items()}
    return SPFBase(dict(wires), graph,
                   [tuple(groups[prefix]) for prefix in sorted(groups)])


def spf_base(lsdb: LSDB) -> SPFBase:
    """The shared base of the database's current content."""
    base = lsdb.spf_base
    if base is None:
        digest = lsdb.digest
        base = _BASES.get(digest)
        if base is None or not _same_content(base, lsdb):
            base = _BASES[digest] = _build_base(lsdb)
        lsdb.spf_base = base
    return base


def build_router_graph(lsdb: LSDB) -> Dict[int, Dict[int, int]]:
    """Adjacency map {router -> {neighbor -> cost}} with bidirectional check.

    Shared between every LSDB of the same content, so callers must treat it
    as read-only.  Neighbor iteration order is ascending router id.
    """
    return spf_base(lsdb).graph


def _dijkstra(graph: Dict[int, Dict[int, int]], root: int
              ) -> Tuple[Dict[int, int], Dict[int, Optional[int]]]:
    """(distance, first-hop router) per reachable router, integer ids."""
    dist: Dict[int, int] = {root: 0}
    first: Dict[int, Optional[int]] = {root: None}
    if root not in graph:
        return dist, first
    # Heap entries are (distance, router).  A router is pushed again only
    # at a strictly shorter distance, so no two entries tie and the entry
    # that matches dist[router] is its one final visit; metrics are
    # unsigned, so a visited router is never improved again.
    heap = [(0, root)]
    heappop, heappush = heapq.heappop, heapq.heappush
    while heap:
        distance, router = heappop(heap)
        if distance > dist[router]:
            continue  # superseded entry
        first_hop = first[router]
        for neighbor, cost in graph[router].items():
            candidate = distance + cost
            existing = dist.get(neighbor)
            if existing is None or candidate < existing:
                dist[neighbor] = candidate
                # The first hop of a direct neighbor of the root is that
                # neighbor.
                first[neighbor] = neighbor if router == root else first_hop
                heappush(heap, (candidate, neighbor))
    return dist, first


def shortest_paths(lsdb: LSDB, root: IPv4Address) -> Dict[int, SPFNode]:
    """Dijkstra from ``root``; result keyed by integer router id."""
    dist, first = _dijkstra(spf_base(lsdb).graph, int(IPv4Address(root)))
    return {router: SPFNode(IPv4Address(router), distance,
                            None if first[router] is None
                            else IPv4Address(first[router]))
            for router, distance in dist.items()}


def route_table(lsdb: LSDB, root: int) -> List[TableRow]:
    """The SPF result from router id ``root``, in ascending prefix order.

    Per prefix, the cheapest reachable advertiser wins, intra-area stubs
    before external ones whatever the cost; equal ``(external, cost)``
    goes to the advertiser first in this LSDB's arrival order.
    """
    base = spf_base(lsdb)
    dist, first = _dijkstra(base.graph, root)
    table: List[TableRow] = []
    for group in base.stubs:
        best = None
        best_cost = 0
        for stub in group:
            distance = dist.get(stub[0])
            if distance is None:
                continue  # advertising router unreachable
            cost = distance + stub[1]
            if best is None or (stub[2], cost) < (best[2], best_cost):
                best, best_cost = stub, cost
            elif cost == best_cost and stub[2] == best[2]:
                rank = lsdb.arrival_rank()
                if (rank[stub[4]], stub[5]) < (rank[best[4]], best[5]):
                    best = stub
        if best is not None:
            router = best[0]
            table.append((best[3], best_cost, first[router], router,
                          best[2]))
    return table


def compute_routes(lsdb: LSDB, root: IPv4Address) -> List[SPFRoute]:
    """Derive routes to every stub network advertised in the area.

    Local stubs (advertised by the root itself) are returned with
    ``first_hop=None`` and are normally shadowed by connected routes in the
    RIB.  For every other stub, the route cost is the distance to its
    advertising router plus the stub metric; when several routers advertise
    the same prefix (the two ends of a point-to-point link do), the cheapest
    wins.  Routes come in ascending (network, prefix length) order.
    """
    return [SPFRoute(prefix, cost,
                     None if first_hop is None else IPv4Address(first_hop),
                     IPv4Address(adv), external)
            for prefix, cost, first_hop, adv, external
            in route_table(lsdb, int(IPv4Address(root)))]
