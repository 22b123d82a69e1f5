"""Synthetic topology generators.

The paper's Figure 3 experiments run on ring topologies of increasing size;
the other generators are provided so the scenario registry can sweep the
framework over datacenter- (fat-tree), ISP- (Waxman random geometric),
WAN- (torus/grid) and congestion-study- (dumbbell) shaped networks, plus
the simpler families (linear, star, tree, full mesh, random) used by the
wider test suite and the ablations.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from repro.sim import SeededRandom
from repro.topology.graph import Topology, TopologyError
from repro.topology.pan_european import link_delay_seconds

#: First AS number handed out by the multi-AS generators (the start of the
#: RFC 6996 private-use range).
BASE_ASN = 64512

#: Every link takes :meth:`Topology.add_link`'s delay and bandwidth (1 ms,
#: 1 Gb/s) except these: eBGP border links between ASes are twice as long,
#: and the dumbbell's trunk has 5x the delay and a tenth of the bandwidth
#: of its access links.  Waxman links follow fibre length instead.
BORDER_DELAY = 0.002
TRUNK_DELAY = 0.005
TRUNK_BANDWIDTH_BPS = 1e8

#: Side of the square Waxman switches are placed in.
WAXMAN_REGION_KM = 3000.0


def as_map_from_topology(topology: Topology) -> Dict[int, int]:
    """Extract the node -> AS assignment of a multi-AS topology.

    Raises :class:`TopologyError` when the topology carries no (or only a
    partial) AS assignment — interdomain experiments need every switch to
    belong to exactly one AS.
    """
    as_map = {node.node_id: node.asn for node in topology.nodes if node.asn}
    if not as_map:
        raise TopologyError(
            f"topology {topology.name} carries no AS assignment; use a "
            f"multi-AS generator (multi_as_topology, transit_stub_topology)")
    missing = [node.node_id for node in topology.nodes if not node.asn]
    if missing:
        raise TopologyError(
            f"topology {topology.name}: nodes without an AS assignment: "
            + ", ".join(map(str, missing)))
    return as_map


def ring_topology(num_switches: int) -> Topology:
    """The ring topologies used for the paper's configuration-time figure."""
    if num_switches < 3:
        raise TopologyError("a ring needs at least 3 switches")
    topology = Topology(f"ring-{num_switches}")
    for node_id in range(1, num_switches + 1):
        topology.add_node(node_id)
    for node_id in range(1, num_switches + 1):
        neighbor = node_id % num_switches + 1
        topology.add_link(node_id, neighbor)
    return topology


def linear_topology(num_switches: int) -> Topology:
    """A chain of switches."""
    if num_switches < 2:
        raise TopologyError("a linear topology needs at least 2 switches")
    topology = Topology(f"linear-{num_switches}")
    for node_id in range(1, num_switches + 1):
        topology.add_node(node_id)
    for node_id in range(1, num_switches):
        topology.add_link(node_id, node_id + 1)
    return topology


def star_topology(num_leaves: int) -> Topology:
    """One hub switch with ``num_leaves`` leaf switches."""
    if num_leaves < 1:
        raise TopologyError("a star needs at least one leaf")
    topology = Topology(f"star-{num_leaves}")
    hub = topology.add_node(1, name="hub")
    for leaf in range(2, num_leaves + 2):
        topology.add_node(leaf)
        topology.add_link(hub.node_id, leaf)
    return topology


def tree_topology(depth: int, fanout: int) -> Topology:
    """A complete tree of switches with the given depth and fanout."""
    if depth < 1 or fanout < 1:
        raise TopologyError("tree depth and fanout must be at least 1")
    topology = Topology(f"tree-d{depth}-f{fanout}")
    topology.add_node(1, name="root")
    next_id = 2
    frontier = [1]
    for _ in range(depth):
        new_frontier = []
        for parent in frontier:
            for _ in range(fanout):
                topology.add_node(next_id)
                topology.add_link(parent, next_id)
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return topology


def full_mesh_topology(num_switches: int) -> Topology:
    """Every switch connected to every other switch."""
    if num_switches < 2:
        raise TopologyError("a mesh needs at least 2 switches")
    topology = Topology(f"mesh-{num_switches}")
    for node_id in range(1, num_switches + 1):
        topology.add_node(node_id)
    for node_a in range(1, num_switches + 1):
        for node_b in range(node_a + 1, num_switches + 1):
            topology.add_link(node_a, node_b)
    return topology


def random_topology(num_switches: int, extra_link_probability: float = 0.15,
                    seed: int = 0) -> Topology:
    """A connected random topology: a random spanning tree plus extra links."""
    if num_switches < 2:
        raise TopologyError("a random topology needs at least 2 switches")
    if not 0.0 <= extra_link_probability <= 1.0:
        raise TopologyError("extra_link_probability must be in [0, 1]")
    rng = SeededRandom(seed)
    topology = Topology(f"random-{num_switches}-seed{seed}")
    for node_id in range(1, num_switches + 1):
        topology.add_node(node_id)
    # Random spanning tree guarantees connectivity.  Record every tree link
    # in ``existing`` as it is created so the extra-link pass below can never
    # draw a duplicate, regardless of the order the tree was built in.
    existing: Set[Tuple[int, int]] = set()
    connected = [1]
    for node_id in range(2, num_switches + 1):
        parent = rng.choice(connected)
        link = topology.add_link(parent, node_id)
        existing.add(link.canonical())
        connected.append(node_id)
    for node_a in range(1, num_switches + 1):
        for node_b in range(node_a + 1, num_switches + 1):
            if (node_a, node_b) in existing:
                continue
            if rng.random() < extra_link_probability:
                topology.add_link(node_a, node_b)
                existing.add((node_a, node_b))
    return topology


def fat_tree_topology(k: int = 4) -> Topology:
    """A k-ary fat tree (the canonical datacenter fabric).

    ``(k/2)^2`` core switches connect ``k`` pods, each holding ``k/2``
    aggregation and ``k/2`` edge switches.  Core switch ``i`` uplinks to one
    aggregation switch per pod; within a pod every aggregation switch links
    to every edge switch.  For ``k=4`` that is 20 switches and 32 links.
    """
    if k < 2 or k % 2 != 0:
        raise TopologyError("fat-tree arity k must be an even number >= 2")
    half = k // 2
    topology = Topology(f"fat-tree-k{k}")
    core_ids = []
    for index in range(half * half):
        node = topology.add_node(index + 1, name=f"core{index + 1}")
        core_ids.append(node.node_id)
    next_id = half * half + 1
    for pod in range(k):
        agg_ids = []
        edge_ids = []
        for index in range(half):
            topology.add_node(next_id, name=f"agg{pod + 1}-{index + 1}")
            agg_ids.append(next_id)
            next_id += 1
        for index in range(half):
            topology.add_node(next_id, name=f"edge{pod + 1}-{index + 1}")
            edge_ids.append(next_id)
            next_id += 1
        for agg_index, agg in enumerate(agg_ids):
            # Aggregation switch j of every pod serves core switches
            # j*half .. j*half+half-1, so each core sees one uplink per pod.
            for core in core_ids[agg_index * half:(agg_index + 1) * half]:
                topology.add_link(core, agg)
            for edge in edge_ids:
                topology.add_link(agg, edge)
    return topology


def torus_topology(rows: int, cols: int, wrap: bool = True) -> Topology:
    """A 2-D grid of switches, optionally wrapped into a torus.

    With ``wrap=True`` each row and column closes into a ring, giving every
    switch degree 4 (a dimension of size 2 is not wrapped — the wrap link
    would duplicate the grid link).  With ``wrap=False`` this is a plain
    mesh-of-rows grid.
    """
    if rows < 2 or cols < 2:
        raise TopologyError("a torus/grid needs at least 2 rows and 2 columns")
    kind = "torus" if wrap else "grid"
    topology = Topology(f"{kind}-{rows}x{cols}")

    def node_id(row: int, col: int) -> int:
        return row * cols + col + 1

    for row in range(rows):
        for col in range(cols):
            topology.add_node(node_id(row, col), name=f"s{row + 1}-{col + 1}")
    for row in range(rows):
        for col in range(cols):
            if col + 1 < cols:
                topology.add_link(node_id(row, col), node_id(row, col + 1))
            if row + 1 < rows:
                topology.add_link(node_id(row, col), node_id(row + 1, col))
        if wrap and cols > 2:
            topology.add_link(node_id(row, cols - 1), node_id(row, 0))
    if wrap and rows > 2:
        for col in range(cols):
            topology.add_link(node_id(rows - 1, col), node_id(0, col))
    return topology


def waxman_topology(num_switches: int, alpha: float = 0.4, beta: float = 0.4,
                    seed: int = 0) -> Topology:
    """A Waxman random geometric graph (the classic ISP/WAN model).

    Switches are placed uniformly in a :data:`WAXMAN_REGION_KM` square
    and each pair is linked with probability ``alpha * exp(-d / (beta * L))``
    where ``d`` is their distance and ``L`` the region diagonal.  Link delays
    follow fibre length.  Isolated components are stitched together through
    their closest node pair, so the result is always connected.
    """
    if num_switches < 2:
        raise TopologyError("a Waxman topology needs at least 2 switches")
    if not 0.0 < alpha <= 1.0 or beta <= 0.0:
        raise TopologyError("Waxman parameters need 0 < alpha <= 1 and beta > 0")
    rng = SeededRandom(seed)
    topology = Topology(f"waxman-{num_switches}-seed{seed}")
    positions: List[Tuple[float, float]] = []
    for node_id in range(1, num_switches + 1):
        x = rng.uniform(0.0, WAXMAN_REGION_KM)
        y = rng.uniform(0.0, WAXMAN_REGION_KM)
        positions.append((x, y))
        topology.add_node(node_id, latitude=y, longitude=x)

    def distance_km(node_a: int, node_b: int) -> float:
        (ax, ay), (bx, by) = positions[node_a - 1], positions[node_b - 1]
        return math.hypot(ax - bx, ay - by)

    def fibre_delay(km: float) -> float:
        # Same fibre model as the pan-European map, floored for co-located
        # nodes (a zero-delay link would never be scheduled).
        return max(link_delay_seconds(km), 1e-5)

    diagonal = math.hypot(WAXMAN_REGION_KM, WAXMAN_REGION_KM)
    for node_a in range(1, num_switches + 1):
        for node_b in range(node_a + 1, num_switches + 1):
            d = distance_km(node_a, node_b)
            if rng.random() < alpha * math.exp(-d / (beta * diagonal)):
                topology.add_link(node_a, node_b, delay=fibre_delay(d))
    # Stitch disconnected components through their closest node pair.  One
    # union-find pass finds the components; each is then merged into the
    # growing connected block, so the whole stitch is O(V^2) rather than a
    # BFS-per-merge over the full graph.
    uf_parent = list(range(num_switches + 1))

    def find(node: int) -> int:
        root = node
        while uf_parent[root] != root:
            root = uf_parent[root]
        while uf_parent[node] != root:
            uf_parent[node], node = root, uf_parent[node]
        return root

    for link in topology.links:
        uf_parent[find(link.node_a)] = find(link.node_b)
    components: Dict[int, List[int]] = {}
    for node in range(1, num_switches + 1):
        components.setdefault(find(node), []).append(node)
    blocks = sorted(components.values(), key=lambda nodes: nodes[0])
    block, *rest = blocks
    for other in rest:
        node_a, node_b = min(
            ((a, b) for a in block for b in other),
            key=lambda pair: distance_km(pair[0], pair[1]))
        topology.add_link(node_a, node_b,
                          delay=fibre_delay(distance_km(node_a, node_b)))
        block.extend(other)
    return topology


def _add_as_members(topology: Topology, asn: int, as_label: str,
                    node_ids: List[int], shape: str, rows: int,
                    cols: int) -> None:
    """Populate one AS: add its nodes and intra-AS (IGP) links."""
    for index, node_id in enumerate(node_ids):
        topology.add_node(node_id, name=f"{as_label}r{index + 1}", asn=asn)
    size = len(node_ids)
    if shape == "ring":
        if size >= 3:
            for index in range(size):
                topology.add_link(node_ids[index], node_ids[(index + 1) % size])
        elif size == 2:
            topology.add_link(node_ids[0], node_ids[1])
    elif shape == "torus":
        def grid(row: int, col: int) -> int:
            return node_ids[row * cols + col]

        for row in range(rows):
            for col in range(cols):
                if col + 1 < cols:
                    topology.add_link(grid(row, col), grid(row, col + 1))
                if row + 1 < rows:
                    topology.add_link(grid(row, col), grid(row + 1, col))
            if cols > 2:
                topology.add_link(grid(row, cols - 1), grid(row, 0))
        if rows > 2:
            for col in range(cols):
                topology.add_link(grid(rows - 1, col), grid(0, col))
    elif shape == "mesh":
        for a in range(size):
            for b in range(a + 1, size):
                topology.add_link(node_ids[a], node_ids[b])
    else:
        raise TopologyError(f"unknown AS shape {shape!r} (ring/torus/mesh)")


def multi_as_topology(num_ases: int, as_size: int = 4, shape: str = "ring",
                      as_rows: Optional[int] = None,
                      as_cols: Optional[int] = None) -> Topology:
    """A ring of autonomous systems stitched together by eBGP border links.

    Each AS is a ring (or, with ``shape="torus"`` and ``as_rows`` ×
    ``as_cols``, a torus/grid) of ``as_size`` switches running the IGP
    internally; AS *i* and AS *i+1* are joined by one border link between
    a router of each (the last router of one, the first of the next), and
    the last AS closes the ring back to the first — so every AS has two
    border routers and interdomain traffic can route around a failed
    border link.  AS numbers start at :data:`BASE_ASN` (the private-use
    range).
    """
    if num_ases < 2:
        raise TopologyError("a multi-AS topology needs at least 2 ASes")
    if shape == "torus":
        if as_rows is None or as_cols is None:
            raise TopologyError("shape='torus' needs as_rows and as_cols")
        if as_rows < 2 or as_cols < 2:
            raise TopologyError("an AS torus needs at least 2x2 routers")
        as_size = as_rows * as_cols
    elif as_size < 1:
        raise TopologyError("as_size must be at least 1")
    topology = Topology(f"multi-as-{shape}-{num_ases}x{as_size}")
    members: List[List[int]] = []
    next_id = 1
    for index in range(num_ases):
        node_ids = list(range(next_id, next_id + as_size))
        next_id += as_size
        _add_as_members(topology, BASE_ASN + index + 1, f"as{index + 1}-",
                        node_ids, shape, as_rows or 0, as_cols or 0)
        members.append(node_ids)
    # Stitch the ASes into a ring of eBGP border links (a single link for
    # two ASes — a 2-AS "ring" would duplicate it).
    pairs = num_ases if num_ases > 2 else 1
    for index in range(pairs):
        left = members[index]
        right = members[(index + 1) % num_ases]
        topology.add_link(left[-1], right[0], delay=BORDER_DELAY)
    return topology


def transit_stub_topology(num_stubs: int, stub_size: int = 3,
                          transit_size: int = 3) -> Topology:
    """An Internet-like transit/stub arrangement of autonomous systems.

    One transit (provider) AS — a full mesh of ``transit_size`` routers,
    AS number :data:`BASE_ASN` — carries traffic between ``num_stubs``
    stub (customer) ASes, each a ring of ``stub_size`` routers homed onto
    one transit router by an eBGP border link (stubs are dealt over the
    transit routers round-robin).  Stub-to-stub traffic must transit the
    provider: the shape that exercises iBGP route propagation across the
    transit core.
    """
    if num_stubs < 1:
        raise TopologyError("a transit/stub topology needs at least one stub AS")
    if transit_size < 1 or stub_size < 1:
        raise TopologyError("transit_size and stub_size must be at least 1")
    topology = Topology(f"transit-stub-{num_stubs}x{stub_size}")
    transit_ids = list(range(1, transit_size + 1))
    _add_as_members(topology, BASE_ASN, "transit-", transit_ids, "mesh",
                    0, 0)
    next_id = transit_size + 1
    for index in range(num_stubs):
        node_ids = list(range(next_id, next_id + stub_size))
        next_id += stub_size
        _add_as_members(topology, BASE_ASN + index + 1, f"stub{index + 1}-",
                        node_ids, "ring", 0, 0)
        home = transit_ids[index % transit_size]
        topology.add_link(home, node_ids[0], delay=BORDER_DELAY)
    return topology


#: Ingress LOCAL_PREF encoding the Gao-Rexford route preference: customer
#: routes beat peer routes beat provider routes.  The customer value doubles
#: as the valley-free export marker (see ``repro.quagga.bgp.policy``).
RELATIONSHIP_LOCAL_PREF = {"customer": 200, "peer": 100, "provider": 50}


def as_relationships_from_topology(topology: Topology) -> Dict[Tuple[int, int], str]:
    """The AS-relationship map of a topology (empty if none was assigned)."""
    return dict(getattr(topology, "as_relationships", {}) or {})


def scale_free_as_topology(num_ases: int, seed: int = 0, attach: int = 2,
                           core_ases: Optional[int] = None,
                           transit_as_size: int = 3) -> Topology:
    """An Internet-like scale-free AS graph with commercial relationships.

    The AS-level graph follows preferential attachment (Barabási–Albert):
    a clique of ``core_ases`` transit ASes peers with each other, and every
    further AS homes onto ``attach`` distinct providers drawn from the
    existing ASes with probability proportional to their current degree —
    hubs attract customers, producing the heavy-tailed degree distribution
    of the real AS graph.  Attachment links are customer→provider, clique
    links are peer↔peer, so the provider relation is acyclic by
    construction and every AS reaches the core valley-free.

    Core (transit) ASes are rings of ``transit_as_size`` routers; every
    other AS is a single router.  Border links rotate over an AS's
    member routers so eBGP sessions spread across them.  The resulting
    :class:`Topology` carries ``as_relationships`` (``(asn_a, asn_b) ->
    relationship of asn_b from asn_a's perspective``) and ``as_roles``
    (``transit`` for the clique, ``mid`` for ASes with both providers and
    customers, ``stub`` for customer-only leaves), from which the RPC
    server derives valley-free per-peer export policies.
    """
    if num_ases < 3:
        raise TopologyError("a scale-free AS graph needs at least 3 ASes")
    if attach < 1:
        raise TopologyError("attach must be at least 1")
    if transit_as_size < 1:
        raise TopologyError("transit_as_size must be at least 1")
    core = core_ases if core_ases is not None else max(2, round(num_ases * 0.06))
    if core >= num_ases:
        raise TopologyError("core_ases must leave room for at least one stub AS")
    rng = SeededRandom(seed)

    # ---- AS-level graph: preferential attachment over AS indices 0..n-1.
    relationships: Dict[Tuple[int, int], str] = {}
    as_links: List[Tuple[int, int]] = []   # (customer-or-peer, provider-or-peer)
    #: classic BA bookkeeping: every AS appears once per unit of degree, so
    #: a uniform draw from the list is a degree-weighted draw over ASes.
    weighted: List[int] = []

    def relate(index_a: int, index_b: int, rel_of_b: str) -> None:
        asn_a, asn_b = BASE_ASN + index_a, BASE_ASN + index_b
        relationships[(asn_a, asn_b)] = rel_of_b
        inverse = {"customer": "provider", "provider": "customer",
                   "peer": "peer"}[rel_of_b]
        relationships[(asn_b, asn_a)] = inverse

    for index_a in range(core):
        for index_b in range(index_a + 1, core):
            as_links.append((index_a, index_b))
            relate(index_a, index_b, "peer")
            weighted.extend((index_a, index_b))
    for index in range(core, num_ases):
        wanted = min(attach, index)
        providers: List[int] = []
        while len(providers) < wanted:
            candidate = rng.choice(weighted) if weighted else rng.randint(0, index - 1)
            if candidate not in providers:
                providers.append(candidate)
        for provider in providers:
            as_links.append((index, provider))
            relate(index, provider, "provider")
            weighted.extend((index, provider))

    # ---- Switch-level topology: rings of routers per AS, border links
    # rotating over each AS's members.
    topology = Topology(f"scale-free-as-{num_ases}-seed{seed}")
    members: List[List[int]] = []
    next_id = 1
    for index in range(num_ases):
        size = transit_as_size if index < core else 1
        node_ids = list(range(next_id, next_id + size))
        next_id += size
        _add_as_members(topology, BASE_ASN + index, f"as{index + 1}-",
                        node_ids, "ring", 0, 0)
        members.append(node_ids)
    border_slot = [0] * num_ases
    for index_a, index_b in as_links:
        router_a = members[index_a][border_slot[index_a] % len(members[index_a])]
        router_b = members[index_b][border_slot[index_b] % len(members[index_b])]
        border_slot[index_a] += 1
        border_slot[index_b] += 1
        topology.add_link(router_a, router_b, delay=BORDER_DELAY)

    topology.as_relationships = relationships
    has_customers = {a for (a, b), rel in relationships.items() if rel == "customer"}
    for index in range(num_ases):
        asn = BASE_ASN + index
        if index < core:
            role = "transit"
        elif asn in has_customers:
            role = "mid"
        else:
            role = "stub"
        topology.as_roles[asn] = role
    return topology


def dumbbell_topology(left_leaves: int, right_leaves: int,
                      trunk_switches: int = 0) -> Topology:
    """Two access stars joined by a (longer, thinner) trunk path.

    Node 1 and node 2 are the left and right hub switches; an optional chain
    of ``trunk_switches`` sits between them on the bottleneck path, and the
    leaf switches hang off their hub.  The trunk has 10x less bandwidth and
    5x more delay than the access links, the classic shape for congestion
    and failover studies.
    """
    if left_leaves < 1 or right_leaves < 1:
        raise TopologyError("a dumbbell needs at least one leaf on each side")
    if trunk_switches < 0:
        raise TopologyError("trunk_switches must be >= 0")
    topology = Topology(
        f"dumbbell-{left_leaves}x{right_leaves}-t{trunk_switches}")
    left_hub = topology.add_node(1, name="hub-left").node_id
    right_hub = topology.add_node(2, name="hub-right").node_id
    next_id = 3
    trunk_path = [left_hub]
    for index in range(trunk_switches):
        topology.add_node(next_id, name=f"trunk{index + 1}")
        trunk_path.append(next_id)
        next_id += 1
    trunk_path.append(right_hub)
    for node_a, node_b in zip(trunk_path, trunk_path[1:]):
        topology.add_link(node_a, node_b, delay=TRUNK_DELAY,
                          bandwidth_bps=TRUNK_BANDWIDTH_BPS)
    for hub, leaves, side in ((left_hub, left_leaves, "l"),
                              (right_hub, right_leaves, "r")):
        for index in range(leaves):
            topology.add_node(next_id, name=f"leaf-{side}{index + 1}")
            topology.add_link(hub, next_id)
            next_id += 1
    return topology
