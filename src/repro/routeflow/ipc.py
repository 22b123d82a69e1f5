"""RouteFlow IPC messages.

RouteFlow's three components (RFClient in each VM, RFServer, RFProxy in the
controller) exchange JSON messages over an IPC bus.  We keep the same
message vocabulary — RouteMod being the important one: "this VM's FIB now
routes prefix P via next hop N out of interface I" — and serialise them to
JSON so the bus carries bytes rather than Python objects: every message
here is a :class:`~repro.bus.envelope.Message`, tagged with its ``KIND``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.bus.envelope import Message
from repro.net.addresses import IPv4Address, IPv4Network


class RouteModType:
    ADD = "add"
    DELETE = "delete"


@dataclass
class RouteMod(Message):
    """A route installed into / removed from a VM's FIB."""

    KIND = "route_mod"

    mod_type: str
    vm_id: int
    prefix: str            # textual "a.b.c.d/len"
    next_hop: Optional[str]  # textual IP or None for connected routes
    interface: str         # VM interface name, e.g. "eth2"
    metric: int = 0

    @classmethod
    def add(cls, vm_id: int, prefix: IPv4Network, next_hop: Optional[IPv4Address],
            interface: str, metric: int = 0) -> "RouteMod":
        return cls(mod_type=RouteModType.ADD, vm_id=vm_id, prefix=str(prefix),
                   next_hop=str(next_hop) if next_hop is not None else None,
                   interface=interface, metric=metric)

    @classmethod
    def delete(cls, vm_id: int, prefix: IPv4Network, interface: str = "") -> "RouteMod":
        return cls(mod_type=RouteModType.DELETE, vm_id=vm_id, prefix=str(prefix),
                   next_hop=None, interface=interface, metric=0)

    # --------------------------------------------------------------- accessors
    @property
    def prefix_network(self) -> IPv4Network:
        return IPv4Network(self.prefix)

    @property
    def next_hop_address(self) -> Optional[IPv4Address]:
        return IPv4Address(self.next_hop) if self.next_hop is not None else None

    @property
    def is_connected(self) -> bool:
        return self.next_hop is None


@dataclass
class MappingRecord(Message):
    """A VM/interface ownership fact shared on the bus mapping topic.

    Controller shards publish one record per VM registration
    (``event="vm_mapped"``, no address), one per interface address
    (``event="address_assigned"``) and a retraction when an address is
    replaced (``event="address_removed"``), so every peer shard can
    resolve next hops and answer ARP for gateways it does not host
    itself — the east/west state exchange between coordinated controller
    instances.
    """

    KIND = "mapping_record"

    event: str     # "vm_mapped" | "address_assigned" | "address_removed"
    vm_id: int
    datapath_id: int
    shard: int = 0
    interface: str = ""       # VM interface name for address records
    address: Optional[str] = None   # textual IP for address records
    num_ports: int = 0        # VM port count, replicated on "vm_mapped"

    VM_MAPPED = "vm_mapped"
    ADDRESS_ASSIGNED = "address_assigned"
    ADDRESS_REMOVED = "address_removed"

    @property
    def address_value(self) -> Optional[IPv4Address]:
        return IPv4Address(self.address) if self.address is not None else None


@dataclass
class ShardHeartbeat(Message):
    """A controller shard's periodic "I am alive" beacon.

    Every live shard publishes one on :data:`repro.bus.topics.HEARTBEAT`
    each heartbeat interval.  The control plane's failure detector keeps
    the last beat per shard; a master that stays silent past the failure
    timeout while still owning datapaths is declared dead and its
    partition is taken over by its standby.
    """

    KIND = "shard_heartbeat"

    shard_id: int
    sent_at: float      # simulated publish time, echoed for observability
    epoch: int = 0      # bumped on restore so stale beats are recognisable


@dataclass
class TakeoverAnnouncement(Message):
    """A coordinated change of dpid-partition ownership.

    Published on the shared mapping topic (:data:`repro.bus.topics.MAPPING`)
    so every shard applies the same ownership flip at the same bus step.
    Two events share the envelope: ``takeover`` (a standby adopts the full
    partition of a failed master) and ``reshard`` (live re-balancing moves
    a dpid between two healthy shards).
    """

    KIND = "takeover"

    event: str          # "takeover" | "reshard"
    from_shard: int
    to_shard: int
    datapaths: list     # dpids changing owner, ascending
    reason: str = ""
    #: Fencing epoch: the coordinator stamps a strictly increasing value
    #: (>= 1) so a duplicated or stale announcement replayed by a lossy
    #: bus can never roll ownership backwards.  The default 0 is older
    #: than every fence: such an announcement is never applied.
    epoch: int = 0

    TAKEOVER = "takeover"
    RESHARD = "reshard"


@dataclass
class PortStatusRelay(Message):
    """A physical link state change relayed into the virtual topology.

    In RouteFlow the RFProxy receives the switch's port-status message and
    relays it to the RFServer over the IPC bus; the RFServer then takes
    the corresponding virtual wire down (or up).
    """

    KIND = "port_status"

    dpid_a: int
    port_a: int
    dpid_b: int
    port_b: int
    up: bool

