"""Resolve demands against installed flow tables — once per demand.

The packet pipeline answers "where does this packet go?" per frame:
:meth:`OpenFlowSwitch._process_frame` extracts :class:`PacketFields`,
consults the flow table, applies the actions.  The fluid fast path asks
the same question once per *demand* and records the answer as a
:class:`ResolvedPath`: the resolver walks the network hop by hop, running
:meth:`FlowTable.lookup_destination` (the probe :meth:`FlowTable.lookup`
itself makes) at every switch, following the
``OUTPUT`` action across the physical link to the next datapath — so a
fluid path is pinned to exactly what the frames would have done (the
equivalence test in ``tests/test_traffic.py`` enforces this).

Resolution is memoized per (datapath, flow-table version, destination):
a million demands towards a few hundred service addresses collapse into
one table lookup per (switch, destination) pair, and a RouteMod evicts
only the destinations its prefix covers from that one switch's memo.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.net.ethernet import EtherType
from repro.openflow.actions import OutputAction

#: Terminal states of a resolution walk.
DELIVERED = "delivered"      # reached the switch owning the destination
UNROUTED = "unrouted"        # table miss at a non-owning switch (no route)
LOOP = "loop"                # revisited a datapath (transient routing loop)
LINK_DOWN = "link_down"      # the chosen next hop crosses a failed link


def changed_ranges(changed) -> Optional[List[Tuple[int, int]]]:
    """The destination address ranges a flow-table change can re-route.

    ``changed`` is what :class:`~repro.openflow.flow_table.FlowTable`
    hands its listeners.  A destination-prefix entry can only alter
    lookups inside its prefix (cover, not equality: real RouteFlow tables
    hold /32 loopbacks under shorter connected prefixes); None means "any
    destination": the table was cleared, or an entry matches on more than
    the destination.
    """
    if changed is None:
        return None
    ranges = set()
    for entry in changed:
        key = entry.match.destination_prefix_key()
        if key is None:
            return None
        _dl_type, network, prefix_len = key
        ranges.add((network, network | (0xFFFFFFFF >> prefix_len)))
    return sorted(ranges)


class ResolvedPath:
    """The outcome of resolving one (src datapath, destination) commodity."""

    __slots__ = ("status", "dpids", "hops")

    def __init__(self, status: str, dpids: Tuple[int, ...], hops: tuple) -> None:
        #: One of :data:`DELIVERED` / :data:`UNROUTED` / :data:`LOOP` /
        #: :data:`LINK_DOWN`.
        self.status = status
        #: Every datapath whose flow table the walk consulted, in order
        #: (includes the final switch, also on a miss — a route installed
        #: there later must invalidate this path).
        self.dpids = dpids
        #: The links crossed, as (link, tx_interface) pairs — the transmit
        #: side is what capacity accounting charges.
        self.hops = hops

    @property
    def delivered(self) -> bool:
        return self.status == DELIVERED

    def __repr__(self) -> str:
        return f"<ResolvedPath {self.status} via {list(self.dpids)}>"


class PathResolver:
    """Walks demands through the installed flow tables of a network."""

    def __init__(self, network, owner_of: Optional[Callable[[int], Optional[int]]] = None) -> None:
        self.network = network
        #: destination (int address) -> datapath id owning it, for the
        #: delivery check: RouteFlow never installs a flow for a router's
        #: own loopback (RFClient skips ``lo`` routes), so the walk ends in
        #: a table miss at the owner — exactly like the packet pipeline,
        #: where that final frame goes to the controller as a PACKET_IN.
        self.owner_of = owner_of if owner_of is not None else (lambda dst: None)
        #: (dpid, out port) -> (peer dpid, (link, tx interface)): one hop
        #: tuple per port, shared by every path crossing it.  Never
        #: rebuilt: the emulator does not re-cable links, it only flips
        #: them up/down.
        self._adjacency: Dict[Tuple[int, int], tuple] = {}
        #: Per-datapath lookup memo: dpid -> (table version, {dst: entry}).
        self._memo: Dict[int, list] = {}
        self.lookups = 0
        self.walks = 0
        self._build_adjacency()

    def _build_adjacency(self) -> None:
        switches = self.network.switches
        for (node_a, node_b), (port_a, port_b) in self.network.link_ports.items():
            iface_a = switches[node_a].port(port_a).interface
            iface_b = switches[node_b].port(port_b).interface
            self._adjacency[(node_a, port_a)] = (node_b, (iface_a.link, iface_a))
            self._adjacency[(node_b, port_b)] = (node_a, (iface_b.link, iface_b))

    def invalidate(self, dpid: int,
                   ranges: Optional[List[Tuple[int, int]]] = None) -> None:
        """One mutation of ``dpid``'s flow table landed: evict the memoized
        lookups inside ``ranges`` (see :func:`changed_ranges`; None = all).

        The memo only moves on to the table's new version when it held the
        version just before it; told late, or not about every mutation, it
        is dropped whole.
        """
        memo = self._memo.get(dpid)
        if memo is None:
            return
        version = self.network.switches[dpid].flow_table.version
        if ranges is None or memo[0] != version - 1:
            del self._memo[dpid]
            return
        memo[0] = version
        cache = memo[1]
        for low, high in ranges:
            for dst in [dst for dst in cache if low <= dst <= high]:
                del cache[dst]

    def _lookup(self, dpid: int, dst: int):
        """Memoized flow-table lookup of ``dst`` at ``dpid``.

        The memo is keyed by the table's version counter, so a version
        :meth:`invalidate` was never told about can never serve an entry.
        """
        table = self.network.switches[dpid].flow_table
        memo = self._memo.get(dpid)
        if memo is None or memo[0] != table.version:
            memo = [table.version, {}]
            self._memo[dpid] = memo
        cache = memo[1]
        if dst in cache:
            return cache[dst]
        # The packet the pipeline would have seen: IPv4 towards the
        # demand's destination, every other field at its default.
        entry = table.lookup_destination(EtherType.IPV4, dst)
        self.lookups += 1
        cache[dst] = entry
        return entry

    @staticmethod
    def _out_port(entry) -> Optional[int]:
        for action in entry.actions:
            if isinstance(action, OutputAction):
                return action.port
        return None

    @staticmethod
    def _ends_like(visited: Set[int], known: ResolvedPath) -> bool:
        """May a walk that has visited ``visited`` and now steps onto the
        first datapath of ``known`` end the way ``known`` did?  Not if
        ``known`` comes back through the walk's own prefix: the plain walk
        closes that loop earlier than ``known`` did."""
        return visited.isdisjoint(known.dpids)

    def resolve(self, src_dpid: int, dst: int,
                known: Optional[Dict[int, Dict[int, ResolvedPath]]] = None,
                ) -> ResolvedPath:
        """Walk ``dst`` from ``src_dpid`` through the flow tables.

        ``known`` (destination -> first datapath -> path) is the caller's
        memo of one batch of walks between which no table and no link
        changes.  Forwarding is by destination alone, so a walk that steps
        onto the start of a known one is spliced onto it, whatever its
        outcome was, and what follows each datapath of a walk is the walk
        from there.  The result is the plain walk's; a batch costs one step
        per (datapath, destination) it meets instead of one per hop.
        """
        self.walks += 1
        towards = known.setdefault(dst, {}) if known is not None else {}
        path = towards.get(src_dpid)
        if path is not None:
            return path
        dpids = [src_dpid]
        hops: list = []
        visited = {src_dpid}
        dpid = src_dpid
        while True:
            entry = self._lookup(dpid, dst)
            if entry is None:
                status = DELIVERED if self.owner_of(dst) == dpid else UNROUTED
                break
            out_port = self._out_port(entry)
            if out_port is None:
                # An actionless (drop) or non-output entry terminates the
                # walk without delivery.
                status = UNROUTED
                break
            neighbor = self._adjacency.get((dpid, out_port))
            if neighbor is None:
                # Output towards an edge (host-facing) port: the demand
                # leaves the switching fabric here — delivered.
                status = DELIVERED
                break
            peer, hop = neighbor
            hops.append(hop)
            link = hop[0]
            if link is None or not link.up:
                status = LINK_DOWN
                break
            if peer in visited:
                dpids.append(peer)
                status = LOOP
                break
            rest = towards.get(peer)
            if rest is not None and self._ends_like(visited, rest):
                dpids += rest.dpids
                hops += rest.hops
                status = rest.status
                break
            visited.add(peer)
            dpids.append(peer)
            dpid = peer
        dpids, hops = tuple(dpids), tuple(hops)
        path = towards[src_dpid] = ResolvedPath(status, dpids, hops)
        if known is not None and status != LOOP:
            # The rest of the walk from each datapath consulted on the way
            # (all of ``visited``).  Not for a loop: a walk that starts
            # inside one closes it somewhere else.
            for at in range(1, len(visited)):
                towards[dpids[at]] = ResolvedPath(status, dpids[at:], hops[at:])
        return path
