"""Sharding the RouteFlow control plane across N controller instances.

Following the distributed-controller line of work (Yazıcı et al.,
"Controlling a Software-Defined Network via Distributed Controllers"), the
control plane can be split into :class:`ControllerShard` instances — each
an OpenFlow controller hosting one RFProxy plus one RFServer — with every
shard owning a partition of the datapath space.  The partition function is
pluggable (:data:`PARTITIONERS`): hash, contiguous blocks, or whole
autonomous systems.

The shards never call each other: all east/west coordination flows over
the shared control-plane bus.  Each shard publishes
:class:`~repro.routeflow.ipc.MappingRecord` facts (VM registrations,
interface addresses) on the :data:`~repro.bus.topics.MAPPING` topic; the
:class:`ShardedControlPlane` maintains the resulting global directory and
serves as the ``peers`` view through which a shard resolves next hops
owned by another shard.  Port-status relays on the
:data:`~repro.bus.topics.PORT_STATUS` topic are likewise handled centrally
because one physical link's endpoints may live on two different shards.

The :class:`ShardedControlPlane` duck-types the :class:`RFServer` surface
the RPC server and the framework use (``create_vm``,
``assign_interface_address``, ``connect_virtual_link``, milestones, …), so
the rest of the system is oblivious to the shard count.

Shards carry master/standby roles over the dpid partition: every shard is
the *master* of the datapaths it owns and the *standby* of the previous
live shard in ring order.  Liveness is tracked with heartbeats on the
:data:`~repro.bus.topics.HEARTBEAT` topic; a master silent past the
failure timeout has its whole partition adopted by its standby, announced
as a :class:`~repro.routeflow.ipc.TakeoverAnnouncement` on the mapping
topic so every shard applies the same ownership flip.  The same migration
path implements live re-balancing (:meth:`ShardedControlPlane.reshard`):
a dpid moves between two healthy shards without its installed flows ever
leaving the switch.
"""

from __future__ import annotations

import functools
import logging
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.bus import Envelope, MessageBus, topics
from repro.bus.reliable import acquire_publisher, consume
from repro.controller.base import Controller
from repro.net.addresses import IPv4Address
from repro.routeflow.ipc import (
    MappingRecord,
    PortStatusRelay,
    ShardHeartbeat,
    TakeoverAnnouncement,
    payload_kind,
)
from repro.routeflow.rfproxy import RFProxy
from repro.routeflow.rfserver import RFServer, ospf_converged_over
from repro.routeflow.virtual_switch import RFVirtualSwitch
from repro.routeflow.vm import VirtualMachine
from repro.sim import EventLog, PeriodicTask, Simulator

LOG = logging.getLogger(__name__)


class PartitionError(ValueError):
    """Raised when a datapath cannot be assigned to a shard."""


class ShardRole:
    """The role a shard currently plays in the partition."""

    MASTER = "master"    # owns at least one datapath
    STANDBY = "standby"  # live, owns nothing; adopts a dead master's dpids
    FAILED = "failed"    # fail-stopped; processes nothing


class Partitioner:
    """Maps datapath ids to shard indices.  Subclasses are pure functions
    of the dpid (plus optional seeding), so every component that asks gets
    the same answer."""

    name = "abstract"

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise PartitionError(f"need at least one shard, got {num_shards}")
        self.num_shards = num_shards

    def seed(self, dpids) -> None:
        """Give the partitioner the universe of datapaths (optional)."""

    def shard_for(self, dpid: int) -> int:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} shards={self.num_shards}>"


class HashPartitioner(Partitioner):
    """``dpid % num_shards`` — stateless, uniform for dense dpid spaces."""

    name = "hash"

    def shard_for(self, dpid: int) -> int:
        return dpid % self.num_shards


class ContiguousPartitioner(Partitioner):
    """Sorted dpids split into ``num_shards`` contiguous blocks.

    Needs :meth:`seed` with the full dpid universe first (the framework
    seeds it from the topology at attach time).  Contiguous blocks keep
    neighbouring switches of regularly-numbered fabrics on one shard, so
    fewer links cross the partition.
    """

    name = "contiguous"

    def __init__(self, num_shards: int) -> None:
        super().__init__(num_shards)
        self._assignment: Dict[int, int] = {}

    def seed(self, dpids) -> None:
        ordered = sorted(set(dpids))
        if not ordered:
            return
        block = -(-len(ordered) // self.num_shards)  # ceil division
        self._assignment = {dpid: min(index // block, self.num_shards - 1)
                            for index, dpid in enumerate(ordered)}

    def shard_for(self, dpid: int) -> int:
        try:
            return self._assignment[dpid]
        except KeyError:
            raise PartitionError(
                f"dpid {dpid:#x} is not in the seeded universe of the "
                f"contiguous partitioner (seed() it from the topology "
                f"first)") from None


class ASPartitioner(Partitioner):
    """Shard per autonomous system: every switch of an AS lands on the
    same controller shard (ASes are dealt round-robin over the shards in
    ascending AS-number order).  Interdomain deployments use this so each
    shard hosts whole routing domains and only eBGP border traffic crosses
    the partition."""

    name = "as"

    def __init__(self, num_shards: int, as_map: Mapping[int, int]) -> None:
        super().__init__(num_shards)
        if not as_map:
            raise PartitionError(
                "the AS partitioner needs a dpid->AS map "
                "(FrameworkConfig.as_map, set by interdomain scenarios)")
        self._as_map = dict(as_map)
        ases = sorted(set(self._as_map.values()))
        self._shard_of_as = {asn: index % num_shards
                             for index, asn in enumerate(ases)}

    def shard_for(self, dpid: int) -> int:
        asn = self._as_map.get(dpid)
        if asn is None:
            raise PartitionError(
                f"dpid {dpid:#x} has no AS assignment in the as_map")
        return self._shard_of_as[asn]


#: Partitioner kinds selectable through ``FrameworkConfig.partitioner``.
PARTITIONERS = ("hash", "contiguous", "as")


def make_partitioner(kind: str, num_shards: int,
                     as_map: Optional[Mapping[int, int]] = None) -> Partitioner:
    """Build a partitioner by name (``hash``/``contiguous``/``as``)."""
    if kind == "hash":
        return HashPartitioner(num_shards)
    if kind == "contiguous":
        return ContiguousPartitioner(num_shards)
    if kind == "as":
        return ASPartitioner(num_shards, as_map or {})
    raise PartitionError(
        f"unknown partitioner {kind!r}; known kinds: " + ", ".join(PARTITIONERS))


class ControllerShard:
    """One controller instance: an RFServer + RFProxy pair on its own
    OpenFlow controller, owning a partition of the datapaths."""

    def __init__(self, sim: Simulator, shard_id: int, bus: MessageBus,
                 rfvs: RFVirtualSwitch, event_log: EventLog,
                 vm_boot_delay: float = 5.0,
                 serialize_vm_creation: bool = True,
                 hello_interval: Optional[int] = None,
                 bgp_broker=None) -> None:
        self.shard_id = shard_id
        self.controller = Controller(sim, name=f"rf-controller-{shard_id}")
        self.rfproxy = RFProxy()
        self.controller.register_app(self.rfproxy)
        self.rfserver = RFServer(
            sim, self.rfproxy, vm_boot_delay=vm_boot_delay,
            event_log=event_log, hello_interval=hello_interval,
            serialize_vm_creation=serialize_vm_creation, bus=bus,
            shard_id=shard_id, rfvs=rfvs, bgp_broker=bgp_broker)
        self.failed = False
        #: Incarnation counter, bumped on every restore; heartbeats carry
        #: it so beats of a previous life are distinguishable.
        self.epoch = 0

    def fail(self) -> None:
        """Fail-stop the shard's control processing (the VMs it created
        keep running — in RouteFlow terms the controller process dies,
        not the virtualised routing environment)."""
        self.failed = True
        self.rfserver.active = False

    def restore(self) -> None:
        self.failed = False
        self.epoch += 1
        self.rfserver.active = True

    def load(self) -> Dict[str, int]:
        """Per-shard control-plane load counters (the ctlscale export)."""
        return self.rfserver.load()

    def __repr__(self) -> str:
        state = "FAILED" if self.failed else "up"
        return (f"<ControllerShard {self.shard_id} {state} "
                f"vms={self.rfserver.vm_count}>")


class ShardedControlPlane:
    """N coordinated controller shards behind the RFServer interface."""

    #: Seconds between shard heartbeats on the heartbeat topic.
    HEARTBEAT_INTERVAL = 1.0
    #: Heartbeat silence beyond which a master is declared dead (> 3
    #: missed beats) and its partition is taken over by its standby.
    FAILURE_TIMEOUT = 3.5
    #: Delay between adopting a dpid and asking its RFClient for a full
    #: FIB resync — long enough for the FlowVisor slice channel to the
    #: new master to complete its handshake (a few milliseconds).
    RESYNC_DELAY = 0.1

    def __init__(self, sim: Simulator, bus: MessageBus,
                 partitioner: Partitioner, event_log: Optional[EventLog] = None,
                 vm_boot_delay: float = 5.0,
                 serialize_vm_creation: bool = True,
                 hello_interval: Optional[int] = None,
                 bgp_broker=None) -> None:
        self.sim = sim
        self.bus = bus
        self.partitioner = partitioner
        self.event_log = event_log if event_log is not None else EventLog(sim)
        #: One virtual environment spans all shards: the VM-to-VM wires of
        #: cross-shard physical links terminate on one shared RFVS.  The
        #: BGP session broker is likewise shared — eBGP sessions cross the
        #: shard partition like any other control-plane state.
        self.rfvs = RFVirtualSwitch(sim)
        self.shards: List[ControllerShard] = [
            ControllerShard(sim, shard_id, bus, self.rfvs, self.event_log,
                            vm_boot_delay=vm_boot_delay,
                            serialize_vm_creation=serialize_vm_creation,
                            hello_interval=hello_interval,
                            bgp_broker=bgp_broker)
            for shard_id in range(partitioner.num_shards)
        ]
        # Global directory fed exclusively by the shared mapping topic.
        self._vm_shard: Dict[int, int] = {}
        self._vm_dpid: Dict[int, int] = {}
        self._addresses: Dict[IPv4Address, Tuple[int, str]] = {}
        #: Replicated mapping state: VM port counts carried on the
        #: ``vm_mapped`` records, so a standby can rebuild a dead
        #: master's mapping table without reading its memory.
        self._vm_ports: Dict[int, int] = {}
        #: Ownership map: dpid -> owning shard.  Lazily seeded from the
        #: partitioner; diverges from it after takeovers and resharding.
        self._owner: Dict[int, int] = {}
        self._universe: List[int] = []
        #: Hook called with a dpid after its owner changed; the framework
        #: points it at :meth:`FlowVisor.rehome_datapath` so the slice
        #: channels follow the partition.
        self.on_ownership_change: Optional[Callable[[int], None]] = None
        self.takeovers = 0
        self.reshards = 0
        #: Takeover announcements discarded by the fencing check (stale
        #: or duplicated replays on a lossy bus).
        self.stale_announcements = 0
        #: Fencing: every announced ownership change carries a strictly
        #: increasing epoch, and each dpid remembers the highest epoch
        #: applied to it — a replayed announcement can never roll a dpid
        #: back to a previous owner.
        self._fence_epoch = 0
        self._dpid_fence: Dict[int, int] = {}
        # The plane's bus attachments go through the reliability layer
        # (passthrough on a perfect bus): it consumes the shared topics at
        # the "plane" endpoint and announces ownership changes through one
        # reliable publisher, so announcements are retransmitted until
        # every live consumer has acknowledged them.
        consume(bus, topics.MAPPING, self._on_mapping_record,
                endpoint="plane")
        consume(bus, topics.PORT_STATUS, self._on_port_status,
                endpoint="plane")
        self._announce_pub = acquire_publisher(
            bus, topics.MAPPING, "plane", endpoint="plane")
        for shard in self.shards:
            shard.rfserver.peers = self
        # Liveness: every shard beats on the heartbeat topic; the detector
        # declares a silent master dead and hands its partition over.
        self._last_heartbeat: Dict[int, float] = {
            shard.shard_id: sim.now for shard in self.shards}
        consume(bus, topics.HEARTBEAT, self._on_heartbeat,
                endpoint="plane")
        self._heartbeat_pubs = {
            shard.shard_id: acquire_publisher(
                bus, topics.HEARTBEAT, f"shard:{shard.shard_id}",
                endpoint=f"shard:{shard.shard_id}")
            for shard in self.shards}
        self._heartbeat_tasks = [
            PeriodicTask(sim, self.HEARTBEAT_INTERVAL,
                         functools.partial(self._publish_heartbeat, shard),
                         name=f"shard{shard.shard_id}:heartbeat")
            for shard in self.shards]
        self._detector = PeriodicTask(sim, self.HEARTBEAT_INTERVAL,
                                      self._check_liveness,
                                      name="shard:failure-detector")
        for task in self._heartbeat_tasks:
            task.start()
        self._detector.start()

    # ------------------------------------------------------------- bus intake
    def _on_mapping_record(self, envelope: Envelope) -> None:
        # The mapping topic carries two families: ownership facts
        # (MappingRecord) and ownership *changes* (TakeoverAnnouncement).
        if payload_kind(envelope.payload) == "takeover":
            self._apply_takeover(
                TakeoverAnnouncement.from_json(envelope.payload))
            return
        record = MappingRecord.from_json(envelope.payload)
        if record.event == MappingRecord.VM_MAPPED:
            self._vm_shard[record.vm_id] = record.shard
            self._vm_dpid[record.vm_id] = record.datapath_id
            if record.num_ports:
                self._vm_ports[record.vm_id] = record.num_ports
            self._owner.setdefault(record.datapath_id, record.shard)
            return
        address = record.address_value
        if address is None:
            return
        if record.event == MappingRecord.ADDRESS_REMOVED:
            if self._addresses.get(address) == (record.vm_id, record.interface):
                del self._addresses[address]
            return
        self._vm_shard.setdefault(record.vm_id, record.shard)
        self._addresses[address] = (record.vm_id, record.interface)
        # An address one shard just learned may unblock RouteMods parked
        # on any other shard.
        for shard in self.shards:
            shard.rfserver.replay_pending_next_hop(address)

    def _on_port_status(self, envelope: Envelope) -> None:
        relay = PortStatusRelay.from_json(envelope.payload)
        self.mirror_physical_link(relay.dpid_a, relay.port_a,
                                  relay.dpid_b, relay.port_b, relay.up)

    # ------------------------------------------------------------ peer lookups
    def interface_owning_ip(self, address: IPv4Address):
        """Resolve an interface address anywhere in the partition (the
        ``peers`` view shard RFServers fall back to)."""
        entry = self._addresses.get(IPv4Address(address))
        if entry is None:
            return None
        vm_id, interface_name = entry
        vm = self.vm(vm_id)
        if vm is None:
            return None
        interface = vm.interfaces.get(interface_name)
        if interface is None:
            return None
        return (vm, interface)

    def unmap_vm(self, vm_id: int) -> None:
        """Unmap a removed switch's VM on its owning shard and drop it
        from the directory, so no peer resolves its addresses any more."""
        shard = self.shard_of_vm(vm_id)
        if shard is not None:
            shard.rfserver.unmap_vm(vm_id)
        self._vm_shard.pop(vm_id, None)
        self._vm_dpid.pop(vm_id, None)
        stale = [address for address, (owner, _) in self._addresses.items()
                 if owner == vm_id]
        for address in stale:
            del self._addresses[address]

    def shard_of_vm(self, vm_id: int) -> Optional[ControllerShard]:
        index = self._vm_shard.get(vm_id)
        if index is not None:
            return self.shards[index]
        # Pre-directory fallback: on a jittery bus the vm_mapped record may
        # still be in flight when a local lookup (e.g. the RPC server writing
        # config files right after create_vm) needs the owner.
        for shard in self.shards:
            if vm_id in shard.rfserver.vms:
                return shard
        return None

    def owner_of(self, datapath_id: int) -> int:
        """The shard index currently owning a dpid.

        First contact consults the static partitioner and memoises the
        answer; takeovers and resharding then move entries around without
        ever touching the partitioner (which stays the *initial* layout).
        """
        owner = self._owner.get(datapath_id)
        if owner is None:
            owner = self.partitioner.shard_for(datapath_id)
            self._owner[datapath_id] = owner
        return owner

    def shard_for_dpid(self, datapath_id: int) -> ControllerShard:
        return self.shards[self.owner_of(datapath_id)]

    def known_datapaths(self) -> List[int]:
        """Every dpid the plane has heard of (topology seed, ownership
        map, VM registrations), ascending."""
        known = set(self._universe) | set(self._owner)
        known.update(self._vm_dpid.values())
        return sorted(known)

    def owned_dpids(self, shard_id: int) -> List[int]:
        """The dpids a shard currently owns (its partition), ascending."""
        return [dpid for dpid in self.known_datapaths()
                if self.owner_of(dpid) == shard_id]

    def role_of(self, shard_id: int) -> str:
        """The shard's current role (:class:`ShardRole`): a live shard
        owning datapaths is a master, a live shard owning none is a
        standby, a fail-stopped shard is neither."""
        shard = self._shard_by_index(shard_id)
        if shard.failed:
            return ShardRole.FAILED
        return (ShardRole.MASTER if self.owned_dpids(shard_id)
                else ShardRole.STANDBY)

    def standby_for(self, shard_id: int) -> Optional[int]:
        """The shard that adopts ``shard_id``'s partition if it dies: the
        next live shard in ring order (None if no other shard is live)."""
        count = len(self.shards)
        for offset in range(1, count):
            candidate = (shard_id + offset) % count
            if not self.shards[candidate].failed:
                return candidate
        return None

    def seed_partitioner(self, dpids) -> None:
        self._universe = sorted(set(dpids))
        self.partitioner.seed(self._universe)

    # ------------------------------------------------ RFServer facade surface
    def create_vm(self, vm_id: int, num_ports: int,
                  datapath_id: Optional[int] = None) -> VirtualMachine:
        dpid = datapath_id if datapath_id is not None else vm_id
        return self.shard_for_dpid(dpid).rfserver.create_vm(
            vm_id, num_ports, datapath_id=dpid)

    def vm(self, vm_id: int) -> Optional[VirtualMachine]:
        shard = self.shard_of_vm(vm_id)
        if shard is not None:
            return shard.rfserver.vms.get(vm_id)
        for candidate in self.shards:  # pre-directory fallback
            vm = candidate.rfserver.vms.get(vm_id)
            if vm is not None:
                return vm
        return None

    def vm_for_dpid(self, datapath_id: int) -> Optional[VirtualMachine]:
        for shard in self.shards:
            vm = shard.rfserver.vm_for_dpid(datapath_id)
            if vm is not None:
                return vm
        return None

    @property
    def vms(self) -> Dict[int, VirtualMachine]:
        """Merged view over every shard's VMs (shard order, then creation)."""
        merged: Dict[int, VirtualMachine] = {}
        for shard in self.shards:
            merged.update(shard.rfserver.vms)
        return merged

    @property
    def vm_count(self) -> int:
        return sum(shard.rfserver.vm_count for shard in self.shards)

    def assign_interface_address(self, vm_id: int, interface_name: str,
                                 address: IPv4Address, prefix_len: int) -> None:
        shard = self.shard_of_vm(vm_id)
        if shard is None:
            raise KeyError(f"unknown VM {vm_id}")
        shard.rfserver.assign_interface_address(vm_id, interface_name,
                                                address, prefix_len)

    def connect_virtual_link(self, vm_id_a: int, iface_a: str,
                             vm_id_b: int, iface_b: str) -> None:
        """Wire two VM interfaces together, possibly across shards."""
        vm_a = self.vm(vm_id_a)
        vm_b = self.vm(vm_id_b)
        if vm_a is None or vm_b is None:
            missing = vm_id_a if vm_a is None else vm_id_b
            raise KeyError(missing)
        self.rfvs.connect(vm_a.interfaces[iface_a], vm_b.interfaces[iface_b])
        self.event_log.record(
            "virtual_link",
            f"virtual wire {vm_a.name}:{iface_a} <-> {vm_b.name}:{iface_b}",
            vm_a=vm_id_a, iface_a=iface_a, vm_b=vm_id_b, iface_b=iface_b)

    def write_config_file(self, vm_id: int, filename: str, text: str) -> None:
        shard = self.shard_of_vm(vm_id)
        if shard is None:
            raise KeyError(vm_id)
        shard.rfserver.write_config_file(vm_id, filename, text)

    def mirror_physical_link(self, dpid_a: int, port_a: int,
                             dpid_b: int, port_b: int, up: bool) -> bool:
        """Mirror a physical link state change (endpoints may be on two
        different shards; the shared RFVS holds the wire)."""
        vm_a = self.vm_for_dpid(dpid_a)
        vm_b = self.vm_for_dpid(dpid_b)
        if vm_a is None or vm_b is None:
            return False
        iface_a = vm_a.interfaces.get(f"eth{port_a}")
        iface_b = vm_b.interfaces.get(f"eth{port_b}")
        if iface_a is None or iface_b is None:
            return False
        changed = self.rfvs.set_wire_state(iface_a, iface_b, up)
        if changed:
            self.event_log.record(
                "link_state",
                f"virtual wire {vm_a.name}:{iface_a.name} <-> "
                f"{vm_b.name}:{iface_b.name} {'up' if up else 'down'}",
                dpid_a=dpid_a, port_a=port_a, dpid_b=dpid_b, port_b=port_b,
                up=up)
        return changed

    # ---------------------------------------------------------------- status
    def all_vms_running(self) -> bool:
        vms = self.vms
        return bool(vms) and all(vm.is_running for vm in vms.values())

    def ospf_converged(self, expected_prefixes: Optional[int] = None) -> bool:
        """RFServer's convergence predicate over the whole partition."""
        return ospf_converged_over(self.vms, expected_prefixes)

    # ------------------------------------------------- liveness / heartbeats
    def _publish_heartbeat(self, shard: ControllerShard) -> None:
        if shard.failed:
            return  # a fail-stopped controller process emits nothing
        self._heartbeat_pubs[shard.shard_id].publish(
            ShardHeartbeat(shard_id=shard.shard_id, sent_at=self.sim.now,
                           epoch=shard.epoch).to_json())

    def _on_heartbeat(self, envelope: Envelope) -> None:
        beat = ShardHeartbeat.from_json(envelope.payload)
        if not 0 <= beat.shard_id < len(self.shards):
            return
        if beat.epoch != self.shards[beat.shard_id].epoch:
            # A beat from a previous life of the shard, delayed on a lossy
            # bus past a fail/restore cycle: it proves nothing about the
            # shard's *current* incarnation being alive.
            return
        self._last_heartbeat[beat.shard_id] = self.sim.now

    @property
    def effective_failure_timeout(self) -> float:
        """The takeover deadline adjusted for the heartbeat channel.

        :attr:`FAILURE_TIMEOUT` budgets for lost beats; on top of that a
        beat needs the channel's one-way latency to arrive at all, plus
        whatever extra delay the channel's fault model can legally add
        (jitter, reorder hold-back).  A delayed-but-delivered heartbeat
        therefore never looks like silence.  On the default direct,
        fault-free channel this is exactly ``FAILURE_TIMEOUT``.
        """
        channel = self.bus._implicit_channel(topics.HEARTBEAT)
        return self.FAILURE_TIMEOUT + channel.latency + channel.max_fault_delay()

    def _check_liveness(self) -> None:
        """The failure detector tick: any master silent past the timeout
        loses its partition to its standby.  Idempotent — after a takeover
        the dead shard owns nothing, so it is not flagged again."""
        deadline = self.effective_failure_timeout
        for shard in self.shards:
            silence = self.sim.now - self._last_heartbeat[shard.shard_id]
            if silence <= deadline:
                continue
            if not self.owned_dpids(shard.shard_id):
                continue
            self.takeover(shard.shard_id,
                          reason=f"no heartbeat for {silence:.1f}s")

    # ------------------------------------------------ takeover / re-balancing
    def takeover(self, shard_id: int, to_shard: Optional[int] = None,
                 reason: str = "") -> Optional[int]:
        """Hand a (dead) master's whole dpid partition to its standby.

        The change is announced on the shared mapping topic so every
        shard applies the same ownership flip; the announcement carries
        the full dpid list being adopted.  Returns the adopting shard
        index, or None when the shard owned nothing or no live standby
        exists (logged and retried by the next detector tick).
        """
        datapaths = self.owned_dpids(shard_id)
        if not datapaths:
            return None
        target = to_shard if to_shard is not None else self.standby_for(shard_id)
        if target is None:
            self.event_log.record(
                "takeover_aborted",
                f"no live standby to adopt shard {shard_id}'s partition",
                shard=shard_id)
            return None
        if self._shard_by_index(target).failed:
            raise PartitionError(
                f"cannot hand shard {shard_id}'s partition to failed "
                f"shard {target}")
        if target == shard_id:
            return None
        self._fence_epoch += 1
        self._announce_pub.publish(TakeoverAnnouncement(
            event=TakeoverAnnouncement.TAKEOVER, from_shard=shard_id,
            to_shard=target, datapaths=datapaths, reason=reason,
            epoch=self._fence_epoch).to_json())
        return target

    def reshard(self, datapath_id: int, to_shard: int,
                reason: str = "rebalance") -> bool:
        """Live re-balancing: migrate one dpid onto a healthy shard.

        The switch's installed flows never leave its flow table — only
        the controller-side records move.  Returns False when the dpid
        already lives on the target shard.
        """
        target = self._shard_by_index(to_shard)
        if target.failed:
            raise PartitionError(
                f"cannot reshard dpid {datapath_id:#x} onto failed shard "
                f"{to_shard}")
        from_shard = self.owner_of(datapath_id)
        if from_shard == to_shard:
            return False
        self._fence_epoch += 1
        self._announce_pub.publish(TakeoverAnnouncement(
            event=TakeoverAnnouncement.RESHARD, from_shard=from_shard,
            to_shard=to_shard, datapaths=[datapath_id],
            reason=reason, epoch=self._fence_epoch).to_json())
        return True

    def _apply_takeover(self, announcement: TakeoverAnnouncement) -> None:
        datapaths = announcement.datapaths
        if announcement.epoch:
            # Fencing: apply only dpids whose recorded fence is older than
            # this announcement.  A duplicated or delayed replay (lossy
            # bus) is filtered wholesale — it must not bump the takeover
            # counters, let alone roll ownership backwards.  Unfenced
            # (epoch 0) announcements apply unconditionally for
            # compatibility with hand-built payloads.
            datapaths = [dpid for dpid in datapaths
                         if announcement.epoch > self._dpid_fence.get(dpid, 0)]
            if not datapaths:
                self.stale_announcements += 1
                return
            for dpid in datapaths:
                self._dpid_fence[dpid] = announcement.epoch
        source = self._shard_by_index(announcement.from_shard)
        target = self._shard_by_index(announcement.to_shard)
        migrated = [dpid for dpid in datapaths
                    if self._migrate_dpid(dpid, source, target)]
        if announcement.event == TakeoverAnnouncement.TAKEOVER:
            self.takeovers += 1
            category, what = "shard_takeover", "took over"
        else:
            self.reshards += 1
            category, what = "shard_reshard", "adopted (reshard)"
        self.event_log.record(
            category,
            f"shard {target.shard_id} {what} dpids "
            f"{migrated} from shard {source.shard_id}",
            from_shard=source.shard_id, to_shard=target.shard_id,
            datapaths=migrated, reason=announcement.reason)

    def _migrate_dpid(self, dpid: int, source: ControllerShard,
                      target: ControllerShard) -> bool:
        """Move one dpid's control-plane state between shards.

        The physical switch keeps its flow table throughout; everything
        that moves is controller memory: the VM/port mapping (rebuilt on
        the target from the replicated directory, never read from the
        source's possibly-dead tables), the VM and its RFClient, the
        next-hop address index, parked RouteMods, and the RFProxy's flow
        records.  Finishes by re-homing the FlowVisor slice channel and
        scheduling a full RFClient resync to cover FIB changes that
        happened while the partition was in flight.
        """
        if source is target:
            return False
        self._owner[dpid] = target.shard_id
        vm_id = self._vm_dpid_reverse(dpid)
        if vm_id is None:
            # No VM registered for this dpid yet: the ownership flip is
            # the whole migration.
            self._notify_ownership(dpid)
            return True
        vm = source.rfserver.vms.pop(vm_id, None)
        if vm is None:
            self._notify_ownership(dpid)
            return True
        # 1. Mapping state: drop the source's entries, rebuild the
        #    target's from the replicated vm_mapped directory.
        source.rfserver.mapping.unmap_vm(vm_id)
        target.rfserver.vms[vm_id] = vm
        if target.rfserver.mapping.dpid_for_vm(vm_id) is None:
            target.rfserver.mapping.map_vm(vm_id, dpid)
            num_ports = self._vm_ports.get(vm_id) or vm.num_ports
            for port in range(1, num_ports + 1):
                target.rfserver.mapping.map_port(vm_id, f"eth{port}",
                                                 dpid, port)
        # 2. The RFClient keeps watching the same zebra FIB but now
        #    publishes on the new master's RouteMod topic.
        client = source.rfserver.rfclients.pop(vm_id, None)
        if client is not None:
            target.rfserver.rfclients[vm_id] = client
            client.repoint(target.rfserver)
        # 3. The VM's address-change listener slot moves to the adopting
        #    RFServer, and its current interface addresses re-index there.
        vm.replace_address_listener(source.rfserver._on_vm_address_change,
                                    target.rfserver._on_vm_address_change)
        for interface in vm.interfaces.values():
            if interface.ip is None:
                continue
            if source.rfserver._ip_index.get(interface.ip, (None,))[0] is vm:
                del source.rfserver._ip_index[interface.ip]
            target.rfserver._ip_index[interface.ip] = (vm, interface)
        # 4. Parked RouteMods travel with the partition: the adopting
        #    master replays them when the missing gateway appears; the
        #    dead master must never replay them itself.
        pending = source.rfserver._pending_by_next_hop
        for next_hop in list(pending):
            bucket = pending[next_hop]
            moved = {key: mod for key, mod in bucket.items()
                     if mod.vm_id == vm_id}
            if not moved:
                continue
            for key in moved:
                del bucket[key]
            if not bucket:
                del pending[next_hop]
            target.rfserver._pending_by_next_hop.setdefault(
                next_hop, {}).update(moved)
        # 5. RFProxy flow records follow the dpid, conserving the
        #    flows_current accounting; the switch's flow table itself is
        #    untouched (takeover without dropping installed flows).
        self._move_proxy_records(dpid, source.rfproxy, target.rfproxy)
        # 6. Directory + slice channels + deferred resync.
        self._vm_shard[vm_id] = target.shard_id
        self._vm_dpid[vm_id] = dpid
        self._notify_ownership(dpid)
        if client is not None:
            self.sim.schedule(self.RESYNC_DELAY, self._resync_vm, target,
                              vm_id, label=f"shard{target.shard_id}:resync")
        return True

    def _vm_dpid_reverse(self, dpid: int) -> Optional[int]:
        for vm_id, mapped in self._vm_dpid.items():
            if mapped == dpid:
                return vm_id
        return None

    @staticmethod
    def _move_proxy_records(dpid: int, source_proxy: RFProxy,
                            target_proxy: RFProxy) -> None:
        for key in [k for k in source_proxy.installed_flows if k[0] == dpid]:
            target_proxy.installed_flows[key] = \
                source_proxy.installed_flows.pop(key)
        for key in [k for k in source_proxy._pending_connected
                    if k[0] == dpid]:
            target_proxy._pending_connected[key] = \
                source_proxy._pending_connected.pop(key)
        for address in [ip for ip, host in source_proxy.hosts.items()
                        if host.datapath_id == dpid]:
            target_proxy.hosts[address] = source_proxy.hosts.pop(address)
        for key in [k for k in source_proxy._gateway_arp_sent
                    if k[0] == dpid]:
            target_proxy._gateway_arp_sent[key] = \
                source_proxy._gateway_arp_sent.pop(key)

    def _notify_ownership(self, dpid: int) -> None:
        if self.on_ownership_change is not None:
            self.on_ownership_change(dpid)

    def _resync_vm(self, shard: ControllerShard, vm_id: int) -> None:
        """Post-migration reconciliation on the adopting master: drop
        adopted flow records whose route has left the VM's FIB, then have
        the RFClient re-announce the full FIB (idempotent overwrites)."""
        if shard.failed:
            return
        client = shard.rfserver.rfclients.get(vm_id)
        if client is None or client.rfserver is not shard.rfserver:
            return  # migrated again before the resync fired
        self._reconcile_flows(shard, vm_id)
        client.resync()

    def _reconcile_flows(self, shard: ControllerShard, vm_id: int) -> None:
        vm = shard.rfserver.vms.get(vm_id)
        dpid = shard.rfserver.mapping.dpid_for_vm(vm_id)
        if vm is None or dpid is None:
            return
        fib_prefixes = set()
        connected = []
        for prefix, route in vm.zebra.fib.items():
            if route.interface == "lo":
                continue
            fib_prefixes.add(str(prefix))
            if route.next_hop is None:
                connected.append(prefix)
        proxy = shard.rfproxy
        for key in [k for k in proxy._pending_connected
                    if k[0] == dpid and k[1] not in fib_prefixes]:
            del proxy._pending_connected[key]
        for key, spec in list(proxy.installed_flows.items()):
            if key[0] != dpid or key[1] in fib_prefixes:
                continue
            if spec.prefix.prefix_len == 32 and any(
                    spec.prefix.network in prefix for prefix in connected):
                continue  # learned-host flow under a live connected prefix
            proxy.remove_route(dpid, spec.prefix)

    # ------------------------------------------------------------ invariants
    def ownership_violations(self) -> List[str]:
        """Check the one-live-master-per-dpid invariant (at quiescence).

        Every known dpid must be owned by exactly one live shard, and any
        shard holding a VM mapping for a dpid must be that owner.
        """
        problems: List[str] = []
        if all(shard.failed for shard in self.shards):
            return ["every controller shard is failed"]
        mapped_on: Dict[int, int] = {}
        for shard in self.shards:
            for dpid in shard.rfserver.mapping.mapped_datapaths:
                if dpid in mapped_on:
                    problems.append(
                        f"dpid {dpid:#x} is mapped on shards "
                        f"{mapped_on[dpid]} and {shard.shard_id}")
                mapped_on[dpid] = shard.shard_id
        for dpid in self.known_datapaths():
            owner = self.owner_of(dpid)
            if self.shards[owner].failed:
                problems.append(
                    f"dpid {dpid:#x} is owned by failed shard {owner}")
            mapped = mapped_on.get(dpid)
            if mapped is not None and mapped != owner:
                problems.append(
                    f"dpid {dpid:#x} is owned by shard {owner} but its VM "
                    f"is mapped on shard {mapped}")
        return problems

    def orphaned_parked_route_mods(self) -> List[str]:
        """Check that no parked RouteMod is stranded (at quiescence):
        parked entries may only live on a live shard that hosts the VM."""
        problems: List[str] = []
        for shard in self.shards:
            for bucket in shard.rfserver._pending_by_next_hop.values():
                for vm_id, prefix in bucket:
                    if shard.failed:
                        problems.append(
                            f"failed shard {shard.shard_id} still parks a "
                            f"RouteMod for vm {vm_id} ({prefix})")
                    elif vm_id not in shard.rfserver.vms:
                        problems.append(
                            f"shard {shard.shard_id} parks a RouteMod for "
                            f"vm {vm_id} it does not host ({prefix})")
        return problems

    # -------------------------------------------------------- failure control
    def fail_shard(self, shard_id: int) -> None:
        self._shard_by_index(shard_id).fail()
        self.event_log.record("shard_failed",
                              f"controller shard {shard_id} failed",
                              shard=shard_id)

    def restore_shard(self, shard_id: int) -> None:
        self._shard_by_index(shard_id).restore()
        # A restored shard starts a new epoch as a standby: it owns
        # nothing until resharding hands it datapaths, and its heartbeat
        # clock restarts now.
        self._last_heartbeat[shard_id] = self.sim.now
        self.event_log.record("shard_restored",
                              f"controller shard {shard_id} restored",
                              shard=shard_id)

    def _shard_by_index(self, shard_id: int) -> ControllerShard:
        if not 0 <= shard_id < len(self.shards):
            raise PartitionError(
                f"no controller shard {shard_id} (have {len(self.shards)})")
        return self.shards[shard_id]

    def failure_listener(self) -> Callable[[object], None]:
        """A network failure listener executing shard events.

        Wire it via :meth:`EmulatedNetwork.add_failure_listener` so
        ``shard_down``/``shard_up``/``shard_failover``/``reshard`` entries
        of a :class:`~repro.scenarios.FailureSchedule` reach the control
        plane.  A ``reshard`` whose target shard is failed at execution
        time is rejected and logged rather than crashing the run (the
        schedule was generated against an earlier shard state).
        """
        from repro.scenarios.events import FailureAction

        def dispatch(event) -> None:
            if event.action == FailureAction.SHARD_DOWN:
                self.fail_shard(event.node_a)
            elif event.action == FailureAction.SHARD_UP:
                self.restore_shard(event.node_a)
            elif event.action == FailureAction.SHARD_FAILOVER:
                self.fail_shard(event.node_a)
                self.takeover(event.node_a, reason="injected failover")
            elif event.action == FailureAction.RESHARD:
                try:
                    self.reshard(event.node_a, event.node_b,
                                 reason="injected reshard")
                except PartitionError as exc:
                    self.event_log.record("reshard_rejected", str(exc),
                                          dpid=event.node_a,
                                          shard=event.node_b)

        return dispatch

    def shard_loads(self) -> List[Dict[str, int]]:
        return [shard.load() for shard in self.shards]

    def __repr__(self) -> str:
        return (f"<ShardedControlPlane shards={len(self.shards)} "
                f"vms={self.vm_count} partitioner={self.partitioner.name}>")
