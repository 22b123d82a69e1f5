"""RouteFlow: VMs, virtual switch, mappings, RFClient/RFServer/RFProxy."""

from repro.routeflow.ipc import (
    MappingRecord,
    PortStatusRelay,
    RouteMod,
    RouteModType,
    ShardHeartbeat,
    TakeoverAnnouncement,
)
from repro.routeflow.mapping import MappingError, MappingTable
from repro.routeflow.rfclient import RFClient
from repro.routeflow.rfproxy import FlowSpec, HostEntry, RFProxy
from repro.routeflow.membership import (
    PARTITIONERS,
    ContiguousPartitioner,
    HashPartitioner,
    PartitionError,
    Partitioner,
    ShardRole,
    make_partitioner,
)
from repro.routeflow.rfserver import ControllerShard, RFServer
from repro.routeflow.sharding import ShardedControlPlane
from repro.routeflow.virtual_switch import RFVirtualSwitch
from repro.routeflow.vm import VirtualMachine, VMState

__all__ = [
    "ContiguousPartitioner",
    "ControllerShard",
    "FlowSpec",
    "HashPartitioner",
    "HostEntry",
    "MappingError",
    "MappingRecord",
    "MappingTable",
    "PARTITIONERS",
    "PartitionError",
    "Partitioner",
    "PortStatusRelay",
    "RFClient",
    "RFProxy",
    "RFServer",
    "RFVirtualSwitch",
    "RouteMod",
    "RouteModType",
    "ShardHeartbeat",
    "ShardRole",
    "ShardedControlPlane",
    "TakeoverAnnouncement",
    "VMState",
    "VirtualMachine",
    "make_partitioner",
]
