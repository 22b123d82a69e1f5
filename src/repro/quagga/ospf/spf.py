"""Shortest-path-first (Dijkstra) computation over the OSPF LSDB.

The SPF run builds the router graph from Router LSAs — an edge exists only
when *both* endpoints advertise the point-to-point link (the RFC's
bidirectional connectivity check) — computes shortest paths from the
calculating router, and derives one candidate route per stub network
advertised anywhere in the area.

Derived data is cached on the LSDB and keyed by its version counter: the
router graph and the flattened stub-prefix list are rebuilt only when the
database actually changed, so the N routers of an area flooding N LSAs no
longer cost N² from-scratch graph builds.  Adjacency lists are stored
pre-sorted by neighbor id, which keeps the Dijkstra visit order (and
therefore every tie-break) exactly as it was when the inner loop sorted on
every pop.
"""

from __future__ import annotations

import heapq
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
    """Per-router result of the Dijkstra run."""

    __slots__ = ("router_id", "distance", "first_hop")

    def __init__(self, router_id: IPv4Address, distance: int,
                 first_hop: Optional[IPv4Address]) -> None:
        self.router_id = router_id
        self.distance = distance
        self.first_hop = first_hop

    def __repr__(self) -> str:
        return (f"SPFNode(router_id={self.router_id!r}, "
                f"distance={self.distance!r}, first_hop={self.first_hop!r})")


def build_router_graph(lsdb: LSDB) -> Dict[int, Dict[int, int]]:
    """Adjacency map {router -> {neighbor -> cost}} with bidirectional check.

    Cached per LSDB version; the returned mapping is shared, so callers must
    treat it as read-only.  Neighbor iteration order is ascending router id.
    """
    cached = getattr(lsdb, "_spf_graph", None)
    if cached is not None and lsdb._spf_graph_version == lsdb.version:
        return cached
    advertised: Dict[int, Dict[int, int]] = {}
    for lsa in lsdb.lsas:
        router = int(lsa.header.advertising_router)
        edges = advertised.setdefault(router, {})
        # The parsed point-to-point link list rides on the (immutable,
        # interned) LSA itself: extracted once, shared by every router that
        # holds the LSA in its database.
        p2p = getattr(lsa, "_spf_p2p", None)
        if p2p is None:
            p2p = lsa._spf_p2p = [
                (int(link.link_id), link.metric) for link in lsa.links
                if link.link_type == RouterLinkType.POINT_TO_POINT]
        for neighbor, cost in p2p:
            if neighbor not in edges or cost < edges[neighbor]:
                edges[neighbor] = cost
    graph: Dict[int, Dict[int, int]] = {}
    for router, edges in advertised.items():
        graph[router] = {
            neighbor: edges[neighbor]
            for neighbor in sorted(edges)
            if neighbor in advertised and router in advertised[neighbor]
        }
    lsdb._spf_graph = graph
    lsdb._spf_graph_version = lsdb.version
    return graph


def _stub_links(lsdb: LSDB) -> List[Tuple[int, IPv4Network, int, bool]]:
    """Flattened ``(advertising router, prefix, metric, external)`` stubs.

    Covers plain STUB links and the EXTERNAL (redistributed-prefix) links,
    distinguished by the trailing flag.  Cached per LSDB version so the
    per-SPF cost of rebuilding every stub's :class:`IPv4Network` (including
    the netmask → prefix-length conversion) is paid once per database
    change, not once per SPF run.
    """
    cached = getattr(lsdb, "_spf_stubs", None)
    if cached is not None and lsdb._spf_stubs_version == lsdb.version:
        return cached
    stubs: List[Tuple[int, IPv4Network, int, bool]] = []
    networks = _NETWORK_CACHE
    for lsa in lsdb.lsas:
        # Like the p2p list in build_router_graph, the parsed stub list is
        # cached on the shared LSA object itself.
        lsa_stubs = getattr(lsa, "_spf_stubs", None)
        if lsa_stubs is None:
            lsa_stubs = []
            for link in lsa.links:
                if link.link_type not in (RouterLinkType.STUB,
                                          RouterLinkType.EXTERNAL):
                    continue
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
                lsa_stubs.append((prefix, link.metric,
                                  link.link_type == RouterLinkType.EXTERNAL))
            lsa._spf_stubs = lsa_stubs
        adv = int(lsa.header.advertising_router)
        for prefix, metric, external in lsa_stubs:
            stubs.append((adv, prefix, metric, external))
    lsdb._spf_stubs = stubs
    lsdb._spf_stubs_version = lsdb.version
    return stubs


def shortest_paths(lsdb: LSDB, root: IPv4Address) -> Dict[int, SPFNode]:
    """Dijkstra from ``root``; result keyed by integer router id."""
    graph = build_router_graph(lsdb)
    root_id = int(IPv4Address(root))
    if root_id not in graph:
        return {root_id: SPFNode(IPv4Address(root), 0, None)}
    distances: Dict[int, SPFNode] = {root_id: SPFNode(IPv4Address(root), 0, None)}
    # heap entries: (distance, router_id, first_hop_router_id or None)
    heap: List[Tuple[int, int, Optional[int]]] = [(0, root_id, None)]
    visited: set = set()
    while heap:
        distance, router, first_hop = heapq.heappop(heap)
        if router in visited:
            continue
        visited.add(router)
        # Adjacency lists come out of build_router_graph pre-sorted.
        for neighbor, cost in graph[router].items():
            if neighbor in visited:
                continue
            candidate = distance + cost
            # The first hop of a direct neighbor of the root is that neighbor.
            hop = neighbor if router == root_id else first_hop
            existing = distances.get(neighbor)
            if existing is None or candidate < existing.distance:
                distances[neighbor] = SPFNode(IPv4Address(neighbor), candidate,
                                              IPv4Address(hop) if hop is not None else None)
                heapq.heappush(heap, (candidate, neighbor, hop))
    return distances


def compute_routes(lsdb: LSDB, root: IPv4Address) -> List[SPFRoute]:
    """Derive routes to every stub network advertised in the area.

    Local stubs (advertised by the root itself) are returned with
    ``first_hop=None`` and are normally shadowed by connected routes in the
    RIB.  For every other stub, the route cost is the distance to its
    advertising router plus the stub metric; when several routers advertise
    the same prefix (the two ends of a point-to-point link do), the cheapest
    wins.
    """
    root_id = IPv4Address(root)
    root_int = int(root_id)
    nodes = shortest_paths(lsdb, root_id)
    # Keyed by (network value, prefix length) — the tuple doubles as the
    # final sort key, so the result ordering costs one C-level tuple sort
    # instead of a per-route lambda.
    best: Dict[Tuple[int, int], SPFRoute] = {}
    for adv_int, prefix, metric, external in _stub_links(lsdb):
        node = nodes.get(adv_int)
        if node is None:
            continue  # advertising router unreachable
        cost = node.distance + metric
        key = (prefix.network._value, prefix.prefix_len)
        existing = best.get(key)
        # Intra-area stubs beat external (redistributed) prefixes no matter
        # the cost; within a class, the cheapest wins.
        if existing is None or (external, cost) < (existing.external,
                                                   existing.cost):
            best[key] = SPFRoute(
                prefix=prefix, cost=cost,
                first_hop=node.first_hop if adv_int != root_int else None,
                advertising_router=IPv4Address(adv_int),
                external=external)
    return [route for _, route in sorted(best.items())]
