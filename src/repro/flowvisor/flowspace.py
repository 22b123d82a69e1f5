"""FlowVisor flowspace: which traffic belongs to which slice.

A :class:`FlowSpace` is an ordered list of rules.  Each rule pairs an
OpenFlow :class:`~repro.openflow.match.Match` with the slice that owns the
matching traffic and the permissions that slice holds over it (read =
receive PACKET_IN, write = install flow-mods / send packet-outs).

The paper's deployment needs exactly two slices:

* the *topology controller* slice owns LLDP traffic (read/write) so the
  discovery module can probe the network, and
* the *RF-controller* slice owns everything else (IPv4, ARP, OSPF) so
  RouteFlow can steer both the virtual-machine control traffic and the
  user data plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set

from repro.net.ethernet import EtherType
from repro.openflow.match import Match, PacketFields


class Permission:
    """Permission bits of a flowspace rule."""

    READ = 0x1
    WRITE = 0x2
    READ_WRITE = READ | WRITE


@dataclass
class FlowSpaceRule:
    """One flowspace entry: a match, the owning slice and its permissions."""

    match: Match
    slice_name: str
    permissions: int = Permission.READ_WRITE
    priority: int = 100

    def allows_read(self) -> bool:
        return bool(self.permissions & Permission.READ)

    def allows_write(self) -> bool:
        return bool(self.permissions & Permission.WRITE)


class FlowSpace:
    """The ordered rule set consulted by the FlowVisor proxy."""

    def __init__(self) -> None:
        self._rules: List[FlowSpaceRule] = []

    def add_rule(self, rule: FlowSpaceRule) -> None:
        self._rules.append(rule)
        self._rules.sort(key=lambda r: r.priority, reverse=True)

    def add(self, match: Match, slice_name: str,
            permissions: int = Permission.READ_WRITE, priority: int = 100) -> FlowSpaceRule:
        rule = FlowSpaceRule(match=match, slice_name=slice_name,
                             permissions=permissions, priority=priority)
        self.add_rule(rule)
        return rule

    # ------------------------------------------------------------ evaluation
    def slices_for_packet(self, fields: PacketFields) -> List[str]:
        """All slices entitled to *read* a packet with these fields.

        FlowVisor delivers a PACKET_IN to every slice whose highest-priority
        matching rule grants read access; we return them in priority order
        without duplicates.
        """
        result: List[str] = []
        seen: Set[str] = set()
        for rule in self._rules:
            if rule.slice_name in seen:
                continue
            if rule.match.matches(fields) and rule.allows_read():
                result.append(rule.slice_name)
                seen.add(rule.slice_name)
        return result

    def may_write(self, slice_name: str, match: Match) -> bool:
        """May a slice install forwarding state for the given match?

        The slice must hold *write* permission on a rule that intersects the
        requested match.  We approximate intersection with a containment
        test in either direction, which is exact for the disjoint
        ethertype-based slicing used in the reproduction.
        """
        for rule in self._rules:
            if rule.slice_name != slice_name or not rule.allows_write():
                continue
            if rule.match.covers(match) or match.covers(rule.match):
                return True
        return False


def build_sharded_flowspace(topology_slice: str,
                            routeflow_slices: List[str]) -> FlowSpace:
    """The flowspace for a sharded RouteFlow deployment.

    LLDP still belongs to the topology controller; every routeflow shard
    slice holds read/write on everything else.  The per-slice *datapath*
    restriction lives on the FlowVisor slice registration
    (:meth:`~repro.flowvisor.proxy.FlowVisor.add_slice`), not in the
    flowspace — matches on packet fields cannot see the dpid.
    """
    flowspace = FlowSpace()
    lldp = Match.wildcard_all().set_dl_type(EtherType.LLDP)
    flowspace.add(lldp, topology_slice, Permission.READ_WRITE, priority=200)
    everything = Match.wildcard_all()
    for slice_name in routeflow_slices:
        flowspace.add(everything, slice_name, Permission.READ_WRITE,
                      priority=100)
    return flowspace


def build_paper_flowspace(topology_slice: str, routeflow_slice: str) -> FlowSpace:
    """The two-slice flowspace used by the paper's framework.

    LLDP goes to the topology controller; every other ethertype belongs to
    the RF-controller.
    """
    flowspace = FlowSpace()
    lldp = Match.wildcard_all().set_dl_type(EtherType.LLDP)
    flowspace.add(lldp, topology_slice, Permission.READ_WRITE, priority=200)
    everything = Match.wildcard_all()
    flowspace.add(everything, routeflow_slice, Permission.READ_WRITE, priority=100)
    return flowspace
