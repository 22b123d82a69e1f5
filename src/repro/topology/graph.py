"""Topology description used by the generators and the emulator.

A :class:`Topology` is a plain declarative graph: named nodes (switches)
and undirected edges (links), plus host attachment points.  The emulator
turns it into live simulated switches, links and hosts; the experiment
harness reports on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


class TopologyError(ValueError):
    """Raised for malformed topology definitions."""


@dataclass(frozen=True)
class TopologyNode:
    """A switch in the topology."""

    node_id: int
    name: str
    #: Optional geographic coordinates (used by the pan-European topology).
    latitude: float = 0.0
    longitude: float = 0.0
    #: Autonomous-system number of the router mirroring this switch
    #: (multi-AS topologies; 0 = no AS assignment, single-domain).
    asn: int = 0


@dataclass(frozen=True)
class TopologyLink:
    """An undirected link between two switches."""

    node_a: int
    node_b: int
    #: Propagation delay in seconds (derived from fibre length when known).
    delay: float = 0.001
    bandwidth_bps: float = 1e9

    def canonical(self) -> Tuple[int, int]:
        return (min(self.node_a, self.node_b), max(self.node_a, self.node_b))


@dataclass(frozen=True)
class HostAttachment:
    """A host attached to a switch."""

    host_name: str
    node_id: int


class Topology:
    """A named collection of nodes, links and host attachment points."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._nodes: Dict[int, TopologyNode] = {}
        self._links: List[TopologyLink] = []
        self._hosts: List[HostAttachment] = []
        #: Gao-Rexford business relationships between ASes of a multi-AS
        #: topology: ``(asn_a, asn_b) -> "customer"|"peer"|"provider"``,
        #: read as "from asn_a's perspective, asn_b is my <relationship>".
        #: Both directions are stored.  Empty for single-domain topologies
        #: and multi-AS generators without commercial roles.
        self.as_relationships: Dict[Tuple[int, int], str] = {}
        #: AS role classification of a scale-free AS graph:
        #: ``asn -> "transit"|"mid"|"stub"``.  Empty unless the generator
        #: assigned roles.
        self.as_roles: Dict[int, str] = {}

    # --------------------------------------------------------------- building
    def add_node(self, node_id: int, name: str = "", latitude: float = 0.0,
                 longitude: float = 0.0, asn: int = 0) -> TopologyNode:
        if node_id in self._nodes:
            raise TopologyError(f"node {node_id} already exists")
        if node_id <= 0:
            raise TopologyError("node ids must be positive (they become datapath ids)")
        node = TopologyNode(node_id=node_id, name=name or f"s{node_id}",
                            latitude=latitude, longitude=longitude, asn=asn)
        self._nodes[node_id] = node
        return node

    def add_link(self, node_a: int, node_b: int, delay: float = 0.001,
                 bandwidth_bps: float = 1e9) -> TopologyLink:
        if node_a not in self._nodes or node_b not in self._nodes:
            raise TopologyError(f"link references unknown node ({node_a}, {node_b})")
        if node_a == node_b:
            raise TopologyError("self-loops are not allowed")
        link = TopologyLink(node_a=node_a, node_b=node_b, delay=delay,
                            bandwidth_bps=bandwidth_bps)
        if link.canonical() in {l.canonical() for l in self._links}:
            raise TopologyError(f"duplicate link {link.canonical()}")
        self._links.append(link)
        return link

    def attach_host(self, host_name: str, node_id: int) -> HostAttachment:
        if node_id not in self._nodes:
            raise TopologyError(f"cannot attach host to unknown node {node_id}")
        if any(h.host_name == host_name for h in self._hosts):
            raise TopologyError(f"host {host_name} already attached")
        attachment = HostAttachment(host_name=host_name, node_id=node_id)
        self._hosts.append(attachment)
        return attachment

    # ---------------------------------------------------------------- queries
    @property
    def nodes(self) -> List[TopologyNode]:
        return [self._nodes[node_id] for node_id in sorted(self._nodes)]

    @property
    def links(self) -> List[TopologyLink]:
        return list(self._links)

    @property
    def hosts(self) -> List[HostAttachment]:
        return list(self._hosts)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_links(self) -> int:
        return len(self._links)

    def node_by_name(self, name: str) -> TopologyNode:
        for node in self._nodes.values():
            if node.name == name:
                return node
        raise TopologyError(f"no node named {name!r} in topology {self.name}")

    def neighbors(self, node_id: int) -> List[int]:
        result = []
        for link in self._links:
            if link.node_a == node_id:
                result.append(link.node_b)
            elif link.node_b == node_id:
                result.append(link.node_a)
        return sorted(result)

    def degree(self, node_id: int) -> int:
        return len(self.neighbors(node_id))

    def is_connected(self) -> bool:
        """Is the switch graph connected (ignoring hosts)?"""
        if not self._nodes:
            return False
        start = next(iter(self._nodes))
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for neighbor in self.neighbors(current):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(self._nodes)

    def __repr__(self) -> str:
        return (f"<Topology {self.name} nodes={self.num_nodes} links={self.num_links} "
                f"hosts={len(self._hosts)}>")
