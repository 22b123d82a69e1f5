"""The RouteFlow control plane: N controller shards, one by default.

Following the distributed-controller line of work (Yazıcı et al.,
"Controlling a Software-Defined Network via Distributed Controllers"), the
control plane is split into :class:`ControllerShard` instances — each an
OpenFlow controller hosting one RFProxy plus one RFServer — with every
shard owning a partition of the datapath space.  The paper's single
RF-controller is the one-shard case, and this module's
:class:`ShardedControlPlane` is the only code that knows the shard count:
one shard keeps the paper's names and skips the coordination below, which
has no peer to talk to.  Who owns what, who is alive and which ownership
changes may apply is the bus-free state machine of
:mod:`repro.routeflow.membership`; this module is the glue that feeds it
and carries out its decisions.

The plane owns the virtual environment the RPC server and the framework
see: it creates VMs on their owner's shard, writes configuration files,
wires VM interfaces together on one RouteFlow virtual switch, mirrors
physical link changes relayed on the
:data:`~repro.bus.topics.PORT_STATUS` topic (one physical link's
endpoints may live on two shards) and answers the milestone predicates.

The shards never call each other: all east/west coordination flows over
the shared control-plane bus.  Each shard publishes
:class:`~repro.routeflow.ipc.MappingRecord` facts (VM registrations,
interface addresses) on the :data:`~repro.bus.topics.MAPPING` topic; the
plane maintains the resulting global directory, through which a shard
resolves next hops owned by another shard.  Shards beat on the
:data:`~repro.bus.topics.HEARTBEAT` topic.  A takeover (a silent
master's partition to its standby) and a live reshard (one dpid between
two healthy shards) travel as a
:class:`~repro.routeflow.ipc.TakeoverAnnouncement` on the mapping topic,
so every shard applies the same ownership flip; the dpids migrate,
through the RFServer's and RFProxy's hand-over methods, without their
installed flows ever leaving the switch.
"""

from __future__ import annotations

import functools
import logging
from typing import Callable, Dict, List, Optional, Tuple

from repro.bus import Envelope, MessageBus, decode, topics
from repro.bus.reliable import acquire_publisher, consume
from repro.net.addresses import IPv4Address, IPv4Network
from repro.net.packet import DecodeError
from repro.routeflow.ipc import (
    MappingRecord,
    PortStatusRelay,
    ShardHeartbeat,
    TakeoverAnnouncement,
)
from repro.routeflow.membership import Membership, Partitioner, PartitionError
from repro.routeflow.rfserver import ControllerShard
from repro.routeflow.virtual_switch import RFVirtualSwitch
from repro.routeflow.vm import VirtualMachine, port_interface
from repro.sim import PeriodicTask, Simulator

LOG = logging.getLogger(__name__)


class ShardedControlPlane:
    """N coordinated controller shards behind one virtual environment."""

    #: The paper's names for the one RF-controller and its FlowVisor
    #: slice; N shards add ``-<index>``.
    CONTROLLER_NAME = "rf-controller"
    SLICE_NAME = "routeflow"

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
                 partitioner: Partitioner,
                 vm_boot_delay: float = 5.0,
                 serialize_vm_creation: bool = True,
                 bgp_broker=None) -> None:
        self.sim = sim
        self.bus = bus
        self.vm_boot_delay = vm_boot_delay
        self.serialize_vm_creation = serialize_vm_creation
        #: One virtual environment spans all shards: the VM-to-VM wires of
        #: cross-shard physical links terminate on one shared RFVS.  The
        #: BGP session broker is likewise shared — eBGP sessions cross the
        #: shard partition like any other control-plane state.
        self.rfvs = RFVirtualSwitch(sim)
        self.bgp_broker = bgp_broker
        #: Roles, liveness, the ownership map (lazily seeded from the
        #: partitioner, diverging from it after takeovers and resharding)
        #: and the takeover fence.
        self.membership = Membership(partitioner, now=sim.now)
        count = partitioner.num_shards
        # One shard keeps the paper's names; N shards number theirs.
        suffixes = [f"-{shard_id}" for shard_id in range(count)] \
            if count > 1 else [""]
        self.shards: List[ControllerShard] = [
            ControllerShard(self, shard_id, self.CONTROLLER_NAME + suffix,
                            self.SLICE_NAME + suffix)
            for shard_id, suffix in enumerate(suffixes)
        ]
        # Global directory fed exclusively by the shared mapping topic.
        self._vm_shard: Dict[int, int] = {}
        self._vm_dpid: Dict[int, int] = {}
        self._addresses: Dict[IPv4Address, Tuple[int, str]] = {}
        #: Hook called with a dpid after its owner changed; the framework
        #: points it at :meth:`FlowVisor.rehome_datapath` so the slice
        #: channels follow the partition.
        self.on_ownership_change: Optional[Callable[[int], None]] = None
        #: Takeover and reshard announcements applied.
        self.takeovers = 0
        self.reshards = 0
        # The plane's bus attachments go through the reliability layer
        # (passthrough on a perfect bus), at the "plane" endpoint.  One
        # shard has no peer to share mapping records with and no standby
        # to hand its partition to, so it takes only the port-status
        # relays.
        consume(bus, topics.PORT_STATUS, self._on_port_status,
                endpoint="plane")
        if count > 1:
            self._coordinate()

    def _coordinate(self) -> None:
        """Wire the shard coordination: the mapping directory, ownership
        announcements through one reliable publisher (retransmitted until
        every live consumer has acknowledged them), and the liveness
        protocol — every shard beats on the heartbeat topic, and the
        detector declares a silent master dead and hands its partition
        over."""
        bus = self.bus
        consume(bus, topics.MAPPING, self._on_mapping_record,
                endpoint="plane")
        self._announce_pub = acquire_publisher(
            bus, topics.MAPPING, "plane", endpoint="plane")
        consume(bus, topics.HEARTBEAT, self._on_heartbeat,
                endpoint="plane")
        self._heartbeat_pubs = {
            shard.shard_id: acquire_publisher(
                bus, topics.HEARTBEAT, f"shard:{shard.shard_id}",
                endpoint=f"shard:{shard.shard_id}")
            for shard in self.shards}
        heartbeat_tasks = [
            PeriodicTask(self.sim, self.HEARTBEAT_INTERVAL,
                         functools.partial(self._publish_heartbeat, shard),
                         name=f"shard{shard.shard_id}:heartbeat")
            for shard in self.shards]
        detector = PeriodicTask(self.sim, self.HEARTBEAT_INTERVAL,
                                self._check_liveness,
                                name="shard:failure-detector")
        for task in heartbeat_tasks:
            task.start()
        detector.start()

    # ------------------------------------------------------------- bus intake
    def _on_mapping_record(self, envelope: Envelope) -> None:
        # The mapping topic carries two families: ownership facts
        # (MappingRecord) and ownership *changes* (TakeoverAnnouncement).
        record = decode(envelope.payload)
        if isinstance(record, TakeoverAnnouncement):
            self._apply_takeover(record)
            return
        if not isinstance(record, MappingRecord):
            raise DecodeError(f"not a mapping-topic payload: {envelope.payload!r}")
        if record.event == MappingRecord.VM_MAPPED:
            self._vm_shard[record.vm_id] = record.shard
            self._vm_dpid[record.vm_id] = record.datapath_id
            self.membership.owner.setdefault(record.datapath_id, record.shard)
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

    # ------------------------------------------------------------ peer lookups
    def interface_owning_ip(self, address: IPv4Address):
        """Resolve an interface address anywhere in the partition, from the
        directory a shard's RFServer falls back to (empty with one shard,
        whose RFServer indexes every address itself)."""
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
        # config files right after create_vm) needs the owner.  One shard
        # keeps no directory, so it always asks its RFServer.
        for shard in self.shards:
            if vm_id in shard.rfserver.vms:
                return shard
        return None

    # ------------------------------------------------- virtual environment
    def create_vm(self, vm_id: int, num_ports: int,
                  datapath_id: Optional[int] = None) -> VirtualMachine:
        dpid = datapath_id if datapath_id is not None else vm_id
        return self.shards[self.membership.owner_of(dpid)].rfserver.create_vm(
            vm_id, num_ports, datapath_id=dpid)

    def vm(self, vm_id: int) -> Optional[VirtualMachine]:
        shard = self.shard_of_vm(vm_id)
        return shard.rfserver.vms.get(vm_id) if shard is not None else None

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

    def assign_interface_address(self, vm_id: int, interface_name: str,
                                 address: IPv4Address, prefix_len: int) -> None:
        shard = self.shard_of_vm(vm_id)
        if shard is None:
            raise KeyError(f"unknown VM {vm_id}")
        shard.rfserver.assign_interface_address(vm_id, interface_name,
                                                address, prefix_len)

    def write_config_file(self, vm_id: int, filename: str, text: str) -> None:
        """Write a Quagga configuration file into a VM (RPC-server helper)."""
        vm = self.vm(vm_id)
        if vm is None:
            raise KeyError(vm_id)
        vm.write_config_file(filename, text)

    def connect_virtual_link(self, vm_id_a: int, iface_a: str,
                             vm_id_b: int, iface_b: str) -> None:
        """Wire two VM interfaces together, mirroring a physical link (the
        two VMs may live on two shards)."""
        vm_a = self.vm(vm_id_a)
        vm_b = self.vm(vm_id_b)
        if vm_a is None or vm_b is None:
            raise KeyError(vm_id_a if vm_a is None else vm_id_b)
        self.rfvs.connect(vm_a.interfaces[iface_a], vm_b.interfaces[iface_b])

    def _on_port_status(self, envelope: Envelope) -> None:
        """Bus delivery of a relayed port-status change."""
        relay = PortStatusRelay.from_json(envelope.payload)
        self.mirror_physical_link(relay.dpid_a, relay.port_a,
                                  relay.dpid_b, relay.port_b, relay.up)

    def mirror_physical_link(self, dpid_a: int, port_a: int,
                             dpid_b: int, port_b: int, up: bool) -> bool:
        """Mirror a physical link state change into the virtual topology.

        In RouteFlow the RFProxy relays switch port-status messages to the
        RFServer, which takes the corresponding virtual wire down (or back
        up) so the routing engines see the same topology the data plane
        has.  Returns False if either end is not (yet) mapped to a VM
        interface or no virtual wire connects them.
        """
        vm_a = self.vm_for_dpid(dpid_a)
        vm_b = self.vm_for_dpid(dpid_b)
        if vm_a is None or vm_b is None:
            return False
        iface_a = vm_a.interfaces.get(port_interface(port_a))
        iface_b = vm_b.interfaces.get(port_interface(port_b))
        if iface_a is None or iface_b is None:
            return False
        return self.rfvs.set_wire_state(iface_a, iface_b, up)

    @property
    def vm_count(self) -> int:
        return len(self.vms)

    def all_vms_running(self) -> bool:
        vms = self.vms
        return bool(vms) and all(vm.is_running for vm in vms.values())

    def ospf_converged(self) -> bool:
        """Has every VM learned a route to every OSPF-enabled prefix (as many
        FIB entries as distinct prefixes configured across the VMs)?"""
        vms = self.vms
        if not vms:
            return False
        prefixes = {IPv4Network((iface.ip, iface.prefix_len)).network
                    for vm in vms.values()
                    for iface in vm.interfaces.values() if iface.ip is not None}
        expected = len(prefixes)
        if expected == 0:
            return False
        for vm in vms.values():
            if not vm.is_running:
                return False
            if len(vm.zebra.fib) < expected:
                return False
        return True

    # ------------------------------------------------- liveness / heartbeats
    def _publish_heartbeat(self, shard: ControllerShard) -> None:
        shard_id = shard.shard_id
        if self.membership.failed[shard_id]:
            return  # a fail-stopped controller process emits nothing
        self._heartbeat_pubs[shard_id].publish(
            ShardHeartbeat(shard_id=shard_id, sent_at=self.sim.now,
                           epoch=self.membership.epochs[shard_id]).to_json())

    def _on_heartbeat(self, envelope: Envelope) -> None:
        beat = ShardHeartbeat.from_json(envelope.payload)
        self.membership.beat(beat.shard_id, beat.epoch, self.sim.now)

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
        for shard_id, _ in self.membership.tick(
                self.sim.now, self.effective_failure_timeout):
            self.takeover(shard_id)

    @property
    def stale_announcements(self) -> int:
        """Announcements the fence discarded (replays on a lossy bus)."""
        return self.membership.stale_announcements

    # ------------------------------------------------ takeover / re-balancing
    def takeover(self, shard_id: int) -> Optional[int]:
        """Hand a (dead) master's whole dpid partition to its standby.

        The change is announced on the shared mapping topic so every
        shard applies the same ownership flip; the announcement carries
        the full dpid list being adopted.  Returns the adopting shard
        index, or None when the shard owned nothing or no live standby
        exists (the next detector tick retries).
        """
        datapaths = self.membership.owned(shard_id)
        if not datapaths:
            return None
        target = self.membership.standby_for(shard_id)
        if target is None:
            return None
        self._announce_pub.publish(TakeoverAnnouncement(
            event=TakeoverAnnouncement.TAKEOVER, from_shard=shard_id,
            to_shard=target, datapaths=datapaths,
            epoch=self.membership.announce()).to_json())
        return target

    def reshard(self, datapath_id: int, to_shard: int) -> bool:
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
        from_shard = self.membership.owner_of(datapath_id)
        if from_shard == to_shard:
            return False
        self._announce_pub.publish(TakeoverAnnouncement(
            event=TakeoverAnnouncement.RESHARD, from_shard=from_shard,
            to_shard=to_shard, datapaths=[datapath_id],
            epoch=self.membership.announce()).to_json())
        return True

    def _apply_takeover(self, announcement: TakeoverAnnouncement) -> None:
        datapaths = self.membership.admit(announcement.epoch,
                                          announcement.datapaths)
        if datapaths is None:
            return
        source = self._shard_by_index(announcement.from_shard)
        target = self._shard_by_index(announcement.to_shard)
        for dpid in datapaths:
            self._migrate_dpid(dpid, source, target)
        if announcement.event == TakeoverAnnouncement.TAKEOVER:
            self.takeovers += 1
        else:
            self.reshards += 1

    def _migrate_dpid(self, dpid: int, source: ControllerShard,
                      target: ControllerShard) -> None:
        """Move one dpid's control-plane state between shards.

        The physical switch keeps its flow table throughout; everything
        that moves is controller memory, handed over by its owners: the
        RFServer's VM, mapping, RFClient, address index and parked
        RouteMods (:meth:`RFServer.hand_over_vm`, the mapping rebuilt
        from the replicated directory), then the RFProxy's flow records
        (:meth:`RFProxy.hand_over`).  Finishes by re-homing the FlowVisor
        slice channel and scheduling a full RFClient resync to cover FIB
        changes that happened while the partition was in flight.
        """
        if source is target:
            return
        self.membership.owner[dpid] = target.shard_id
        vm_id = self._vm_dpid_reverse(dpid)
        # No VM registered for this dpid yet, or none on the source: the
        # ownership flip is the whole migration.
        client = None if vm_id is None else source.rfserver.hand_over_vm(
            vm_id, dpid, target.rfserver)
        if client is None:
            self._notify_ownership(dpid)
            return
        source.rfproxy.hand_over(dpid, target.rfproxy)
        self._vm_shard[vm_id] = target.shard_id
        self._notify_ownership(dpid)
        self.sim.schedule(self.RESYNC_DELAY, self._resync_vm, target,
                          vm_id, label=f"shard{target.shard_id}:resync")

    def _vm_dpid_reverse(self, dpid: int) -> Optional[int]:
        for vm_id, mapped in self._vm_dpid.items():
            if mapped == dpid:
                return vm_id
        return None

    def _notify_ownership(self, dpid: int) -> None:
        if self.on_ownership_change is not None:
            self.on_ownership_change(dpid)

    def _resync_vm(self, shard: ControllerShard, vm_id: int) -> None:
        """Post-migration reconciliation on the adopting master: drop
        adopted flow records whose route has left the VM's FIB, then have
        the RFClient re-announce the full FIB (idempotent overwrites)."""
        if self.membership.failed[shard.shard_id]:
            return
        client = shard.rfserver.rfclients.get(vm_id)
        if client is None or client.rfserver is not shard.rfserver:
            return  # migrated again before the resync fired
        dpid = shard.rfserver.mapping.dpid_for_vm(vm_id)
        if dpid is not None:
            shard.rfproxy.reconcile(dpid, shard.rfserver.vms[vm_id].zebra.fib)
        client.resync()

    # ------------------------------------------------------------ invariants
    def ownership_violations(self) -> List[str]:
        """Check the one-live-master-per-dpid invariant (at quiescence).

        Every known dpid must be owned by exactly one live shard, and any
        shard holding a VM mapping for a dpid must be that owner.
        """
        problems: List[str] = []
        if all(self.membership.failed):
            return ["every controller shard is failed"]
        mapped_on: Dict[int, int] = {}
        for shard in self.shards:
            for dpid in shard.rfserver.mapping.mapped_datapaths:
                if dpid in mapped_on:
                    problems.append(
                        f"dpid {dpid:#x} is mapped on shards "
                        f"{mapped_on[dpid]} and {shard.shard_id}")
                mapped_on[dpid] = shard.shard_id
        for dpid in self.membership.known():
            owner = self.membership.owner_of(dpid)
            if self.membership.failed[owner]:
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
            for vm_id, prefix in shard.rfserver.parked():
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
        """Fail-stop the shard's control processing (the VMs it created
        keep running — in RouteFlow terms the controller process dies,
        not the virtualised routing environment)."""
        self._shard_by_index(shard_id).rfserver.active = False
        self.membership.fail(shard_id)

    def restore_shard(self, shard_id: int) -> None:
        self._shard_by_index(shard_id).rfserver.active = True
        self.membership.restore(shard_id, self.sim.now)

    def _shard_by_index(self, shard_id: int) -> ControllerShard:
        if not 0 <= shard_id < len(self.shards):
            raise PartitionError(
                f"no controller shard {shard_id} (have {len(self.shards)})")
        return self.shards[shard_id]

    def __repr__(self) -> str:
        return (f"<ShardedControlPlane shards={len(self.shards)} "
                f"vms={self.vm_count} partitioner={self.membership.partitioner.name}>")
