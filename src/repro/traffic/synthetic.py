"""Synthetic RouteFlow-shaped routing state for large-scale benchmarks.

The million-demand and churn benchmarks need fully populated flow tables
on topologies (e.g. a 16x16 torus, 256 routers) far larger than what the
control-plane benches converge in reasonable wall time.  This module
installs exactly the flow entries RouteFlow's RFProxy would have sent —
same :meth:`Match.for_destination_prefix` match, same
``[SetDlSrc, SetDlDst, Output]`` action chain, same
``ROUTE_PRIORITY_BASE + prefix_len`` priority — but computed directly
from deterministic BFS shortest paths instead of a full OSPF run.

Each router ``d`` owns the synthetic service prefix ``10.d.0/24``
(:func:`service_prefix`), and demands target :func:`service_address`
inside it.  :meth:`SyntheticRoutes.reroute` recomputes shortest paths
over the currently-up links and applies only the *diff* as strict
deletes plus adds — the flow-mod churn a link failure would cause.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.net.addresses import IPv4Address, IPv4Network
from repro.openflow.actions import OutputAction, SetDlDstAction, SetDlSrcAction
from repro.openflow.flow_table import FlowEntry
from repro.openflow.match import Match
from repro.routeflow.rfproxy import ROUTE_PRIORITY_BASE

#: Synthetic service prefixes are /24s carved out of 10.0.0.0/8.
SERVICE_PREFIX_LEN = 24

#: The priority RFProxy gives a /24 route.
ROUTE_PRIORITY = ROUTE_PRIORITY_BASE + SERVICE_PREFIX_LEN


def service_prefix(dpid: int) -> IPv4Network:
    """The /24 service prefix owned by router ``dpid`` (``10.<dpid>.0/24``)."""
    return IPv4Network((IPv4Address(0x0A000000 | (dpid << 8)), SERVICE_PREFIX_LEN))


def service_address(dpid: int) -> IPv4Address:
    """A host address inside :func:`service_prefix` — what demands target."""
    return IPv4Address(0x0A000000 | (dpid << 8) | 1)


class SyntheticRoutes:
    """Installs and incrementally repairs BFS shortest-path flow tables."""

    def __init__(self, network) -> None:
        self.network = network
        #: node -> sorted [(peer, out port, link)] — sorted for a
        #: deterministic BFS tie-break, matching what a stable OSPF SPF
        #: with ordered neighbor ids would pick.
        self._neighbors: Dict[int, List[tuple]] = {n: [] for n in network.switches}
        #: (node, peer) -> out port on node towards peer.
        self._port_to: Dict[Tuple[int, int], int] = {}
        for (a, b), (port_a, port_b) in network.link_ports.items():
            iface_a = network.switches[a].port(port_a).interface
            iface_b = network.switches[b].port(port_b).interface
            link = iface_a.link
            self._neighbors[a].append((b, port_a, link))
            self._neighbors[b].append((a, port_b, link))
            self._port_to[(a, b)] = port_a
            self._port_to[(b, a)] = port_b
        for peers in self._neighbors.values():
            peers.sort()
        #: Current installed state: (node, dst dpid) -> out port.
        self._installed: Dict[Tuple[int, int], int] = {}
        #: The parts entries have in common, built once: the match per
        #: destination and the action chain per (node, out port).  Private:
        #: a :class:`Match` has mutating setters, and nothing here hands
        #: one out.  The chain is a tuple that every entry towards that
        #: port keeps; a ``modify`` of one entry swaps in a tuple of its
        #: own and leaves its siblings alone.
        self._matches: Dict[int, Match] = {}
        self._actions: Dict[Tuple[int, int], tuple] = {}

    # ----------------------------------------------------------- computation
    def _next_hops(self, dst: int) -> Dict[int, int]:
        """BFS from the destination over up links: node -> out port."""
        ports: Dict[int, int] = {}
        seen = {dst}
        queue = deque([dst])
        while queue:
            node = queue.popleft()
            for peer, _port, link in self._neighbors[node]:
                if peer in seen or link is None or not link.up:
                    continue
                seen.add(peer)
                ports[peer] = self._port_to[(peer, node)]
                queue.append(peer)
        return ports

    def _compute(self) -> Dict[Tuple[int, int], int]:
        table: Dict[Tuple[int, int], int] = {}
        for dst in sorted(self.network.switches):
            for node, port in self._next_hops(dst).items():
                table[(node, dst)] = port
        return table

    # ----------------------------------------------------------- application
    def _match(self, dst: int) -> Match:
        match = self._matches.get(dst)
        if match is None:
            match = self._matches[dst] = Match.for_destination_prefix(
                service_prefix(dst).network, SERVICE_PREFIX_LEN)
        return match

    def _entry(self, node: int, dst: int, out_port: int) -> FlowEntry:
        actions = self._actions.get((node, out_port))
        if actions is None:
            src_iface = self.network.switches[node].port(out_port).interface
            dst_iface = (src_iface.link.peer_of(src_iface)
                         if src_iface.link else None)
            chain = [SetDlSrcAction(src_iface.mac)]
            if dst_iface is not None:
                chain.append(SetDlDstAction(dst_iface.mac))
            chain.append(OutputAction(out_port))
            actions = self._actions[(node, out_port)] = tuple(chain)
        return FlowEntry(self._match(dst), actions, priority=ROUTE_PRIORITY)

    def _remove(self, node: int, dst: int) -> None:
        self.network.switches[node].flow_table.delete(
            self._match(dst), strict=True, priority=ROUTE_PRIORITY)

    def install(self) -> int:
        """Full install of shortest-path routes; returns entries added."""
        desired = self._compute()
        for (node, dst), port in desired.items():
            self.network.switches[node].flow_table.add(self._entry(node, dst, port))
        self._installed = desired
        return len(desired)

    def reroute(self) -> int:
        """Recompute over up links and apply only the difference.

        Mirrors the RouteMod churn after a topology change: strict
        OFPFC_DELETE for withdrawn routes, ADD for new or moved next
        hops.  Returns the number of (node, destination) pairs changed.
        """
        desired = self._compute()
        changed = 0
        for key, port in self._installed.items():
            if desired.get(key) != port:
                self._remove(*key)
                changed += 1
        for (node, dst), port in desired.items():
            if self._installed.get((node, dst)) != port:
                self.network.switches[node].flow_table.add(
                    self._entry(node, dst, port))
        self._installed = desired
        return changed
