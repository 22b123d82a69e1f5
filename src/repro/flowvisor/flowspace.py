"""FlowVisor flowspace: which traffic belongs to which slice.

A :class:`FlowSpace` is an ordered list of rules.  Each rule pairs an
OpenFlow :class:`~repro.openflow.match.Match` with the slice that owns the
matching traffic and the permissions that slice holds over it (read =
receive PACKET_IN, write = install flow-mods / send packet-outs).

As in FlowVisor, the highest-priority rules matching a packet decide who
reads it.  The paper's deployment needs exactly two slices:

* the *topology controller* slice owns LLDP traffic (read/write) so the
  discovery module can probe the network, and
* the *RF-controller* slice owns everything else (IPv4, ARP, OSPF) so
  RouteFlow can steer both the virtual-machine control traffic and the
  user data plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

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
        """The read-permitted slices of the matching rules at the highest
        matching priority, in rule order without duplicates; a lower rule
        that also matches (the wildcard under the LLDP rule) adds nothing.
        """
        result: List[str] = []
        top = None
        for rule in self._rules:
            if top is not None and rule.priority < top:
                break
            if rule.match.matches(fields):
                top = rule.priority
                if rule.allows_read() and rule.slice_name not in result:
                    result.append(rule.slice_name)
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


def build_flowspace(topology_slice: str,
                    routeflow_slices: List[str]) -> FlowSpace:
    """The flowspace of the framework's FlowVisor.

    LLDP belongs to the topology controller alone (its rule sits above
    the rest); every RouteFlow slice (one in the paper's deployment, one
    per shard in a sharded one) holds read/write on everything else at
    one shared priority.  A shard slice's *datapath*
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
