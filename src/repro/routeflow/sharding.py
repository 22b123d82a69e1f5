"""Sharding the RouteFlow control plane across N controller instances.

Following the distributed-controller line of work (Yazıcı et al.,
"Controlling a Software-Defined Network via Distributed Controllers"), the
control plane can be split into :class:`ControllerShard` instances — each
an OpenFlow controller hosting one RFProxy plus one RFServer — with every
shard owning a partition of the datapath space.  Who owns what, who is
alive and which ownership changes may apply is the bus-free state machine
of :mod:`repro.routeflow.membership`; this module is the glue that feeds
it and carries out its decisions.

The shards never call each other: all east/west coordination flows over
the shared control-plane bus.  Each shard publishes
:class:`~repro.routeflow.ipc.MappingRecord` facts (VM registrations,
interface addresses) on the :data:`~repro.bus.topics.MAPPING` topic; the
:class:`ShardedControlPlane` maintains the resulting global directory and
serves as the ``peers`` view through which a shard resolves next hops
owned by another shard.  Port-status relays on the
:data:`~repro.bus.topics.PORT_STATUS` topic are likewise handled centrally
because one physical link's endpoints may live on two different shards.

The :class:`ShardedControlPlane` presents the RFServer surface the RPC
server and the framework use, so the rest of the system is oblivious to
the shard count.

Shards beat on the :data:`~repro.bus.topics.HEARTBEAT` topic.  A
takeover (a silent master's partition to its standby) and a live reshard
(one dpid between two healthy shards) travel as a
:class:`~repro.routeflow.ipc.TakeoverAnnouncement` on the mapping topic,
so every shard applies the same ownership flip; the dpids migrate without
their installed flows ever leaving the switch.
"""

from __future__ import annotations

import functools
import logging
from typing import Callable, Dict, List, Optional, Tuple

from repro.bus import Envelope, MessageBus, decode, topics
from repro.bus.reliable import acquire_publisher, consume
from repro.net.addresses import IPv4Address
from repro.net.packet import DecodeError
from repro.routeflow.ipc import (
    MappingRecord,
    ShardHeartbeat,
    TakeoverAnnouncement,
)
from repro.routeflow.membership import Membership, Partitioner, PartitionError
from repro.routeflow.rfproxy import RFProxy
from repro.routeflow.rfserver import ControllerShard, VirtualEnvironment
from repro.routeflow.virtual_switch import RFVirtualSwitch
from repro.routeflow.vm import VirtualMachine
from repro.sim import EventLog, PeriodicTask, Simulator

LOG = logging.getLogger(__name__)


class ShardedControlPlane(VirtualEnvironment):
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
                 bgp_broker=None) -> None:
        self.sim = sim
        self.bus = bus
        self.event_log = event_log if event_log is not None else EventLog(sim)
        #: One virtual environment spans all shards: the VM-to-VM wires of
        #: cross-shard physical links terminate on one shared RFVS.  The
        #: BGP session broker is likewise shared — eBGP sessions cross the
        #: shard partition like any other control-plane state.
        self.rfvs = RFVirtualSwitch(sim)
        self.shards: List[ControllerShard] = [
            ControllerShard(sim, shard_id, bus, self.event_log, rfvs=self.rfvs,
                            vm_boot_delay=vm_boot_delay,
                            serialize_vm_creation=serialize_vm_creation,
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
        #: Roles, liveness, the ownership map (lazily seeded from the
        #: partitioner, diverging from it after takeovers and resharding)
        #: and the takeover fence.
        self.membership = Membership(partitioner, now=sim.now)
        #: Hook called with a dpid after its owner changed; the framework
        #: points it at :meth:`FlowVisor.rehome_datapath` so the slice
        #: channels follow the partition.
        self.on_ownership_change: Optional[Callable[[int], None]] = None
        #: Takeover and reshard announcements applied.
        self.takeovers = 0
        self.reshards = 0
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
        record = decode(envelope.payload)
        if isinstance(record, TakeoverAnnouncement):
            self._apply_takeover(record)
            return
        if not isinstance(record, MappingRecord):
            raise DecodeError(f"not a mapping-topic payload: {envelope.payload!r}")
        if record.event == MappingRecord.VM_MAPPED:
            self._vm_shard[record.vm_id] = record.shard
            self._vm_dpid[record.vm_id] = record.datapath_id
            if record.num_ports:
                self._vm_ports[record.vm_id] = record.num_ports
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

    # ------------------------------------------------ RFServer facade surface
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
        for shard_id, silence in self.membership.tick(
                self.sim.now, self.effective_failure_timeout):
            self.takeover(shard_id, reason=f"no heartbeat for {silence:.1f}s")

    @property
    def stale_announcements(self) -> int:
        """Announcements the fence discarded (replays on a lossy bus)."""
        return self.membership.stale_announcements

    # ------------------------------------------------ takeover / re-balancing
    def takeover(self, shard_id: int, reason: str = "") -> Optional[int]:
        """Hand a (dead) master's whole dpid partition to its standby.

        The change is announced on the shared mapping topic so every
        shard applies the same ownership flip; the announcement carries
        the full dpid list being adopted.  Returns the adopting shard
        index, or None when the shard owned nothing or no live standby
        exists (logged and retried by the next detector tick).
        """
        datapaths = self.membership.owned(shard_id)
        if not datapaths:
            return None
        target = self.membership.standby_for(shard_id)
        if target is None:
            self.event_log.record(
                "takeover_aborted",
                f"no live standby to adopt shard {shard_id}'s partition",
                shard=shard_id)
            return None
        self._announce_pub.publish(TakeoverAnnouncement(
            event=TakeoverAnnouncement.TAKEOVER, from_shard=shard_id,
            to_shard=target, datapaths=datapaths, reason=reason,
            epoch=self.membership.announce()).to_json())
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
        from_shard = self.membership.owner_of(datapath_id)
        if from_shard == to_shard:
            return False
        self._announce_pub.publish(TakeoverAnnouncement(
            event=TakeoverAnnouncement.RESHARD, from_shard=from_shard,
            to_shard=to_shard, datapaths=[datapath_id],
            reason=reason, epoch=self.membership.announce()).to_json())
        return True

    def _apply_takeover(self, announcement: TakeoverAnnouncement) -> None:
        datapaths = self.membership.admit(announcement.epoch,
                                          announcement.datapaths)
        if datapaths is None:
            return
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
        self.membership.owner[dpid] = target.shard_id
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
            target.rfserver.mapping.map_vm(
                vm_id, dpid, self._vm_ports.get(vm_id) or vm.num_ports)
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
        if self.membership.failed[shard.shard_id]:
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
        """Fail-stop the shard's control processing (the VMs it created
        keep running — in RouteFlow terms the controller process dies,
        not the virtualised routing environment)."""
        self._shard_by_index(shard_id).rfserver.active = False
        self.membership.fail(shard_id)
        self.event_log.record("shard_failed",
                              f"controller shard {shard_id} failed",
                              shard=shard_id)

    def restore_shard(self, shard_id: int) -> None:
        self._shard_by_index(shard_id).rfserver.active = True
        self.membership.restore(shard_id, self.sim.now)
        self.event_log.record("shard_restored",
                              f"controller shard {shard_id} restored",
                              shard=shard_id)

    def _shard_by_index(self, shard_id: int) -> ControllerShard:
        if not 0 <= shard_id < len(self.shards):
            raise PartitionError(
                f"no controller shard {shard_id} (have {len(self.shards)})")
        return self.shards[shard_id]

    def __repr__(self) -> str:
        return (f"<ShardedControlPlane shards={len(self.shards)} "
                f"vms={self.vm_count} partitioner={self.membership.partitioner.name}>")
