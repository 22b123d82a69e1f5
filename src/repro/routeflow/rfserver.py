"""RFServer: the central coordination component of RouteFlow.

The RFServer owns its shard's share of the virtual environment — the VMs
and the mapping tables that associate VMs with switches and VM interfaces
with switch ports.  It receives RouteMods from the per-VM RFClients over
the control-plane bus, resolves next hops against the virtual environment
and hands fully resolved flow specifications to its RFProxy for
installation on the physical switches.

One RFServer runs per controller shard, and a
:class:`~repro.routeflow.sharding.ShardedControlPlane` builds them all
(one shard in the paper's deployment).  The plane owns what spans the
shards: the RouteFlow virtual switch wiring the VMs together, the
configuration files and virtual links the RPC server asks for, the
physical link mirror, and the directory through which a server resolves
next hops owned by another shard.

Every IPC hop runs over the plane's :class:`~repro.bus.MessageBus`:

* ``route_mods.<shard>`` — RouteMods arriving from the RFClients (delay
  channel, :attr:`RFClient.IPC_DELAY` one-way latency);
* ``flow_specs.<shard>`` — the RFServer→RFProxy handoff (delay channel,
  :attr:`IPC_DELAY`); next hops are resolved at delivery, and the
  resolved :class:`~repro.routeflow.rfproxy.FlowSpec` goes straight into
  the proxy;
* ``routeflow.mapping`` — mapping records (VM registrations, interface
  addresses) this server publishes for peer controller shards (direct
  channel); a one-shard plane has no peer and publishes none.

When the plane moves a dpid to another shard, :meth:`RFServer.hand_over_vm`
and :meth:`~repro.routeflow.rfproxy.RFProxy.hand_over` carry the
controller-side records across.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.bus import Discipline, Envelope, topics
from repro.bus.reliable import acquire_publisher, consume
from repro.controller.base import Controller
from repro.net.addresses import IPv4Address, MACAddress
from repro.net.link import Interface
from repro.routeflow.ipc import MappingRecord, RouteMod, RouteModType
from repro.routeflow.mapping import MappingTable
from repro.routeflow.rfclient import RFClient
from repro.routeflow.rfproxy import FlowSpec, RFProxy
from repro.routeflow.vm import VirtualMachine, interface_port

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.routeflow.sharding import ShardedControlPlane

LOG = logging.getLogger(__name__)


class RFServer:
    """RouteFlow's central server (one per controller shard)."""

    #: Latency of the RFServer -> RFProxy IPC hop.
    IPC_DELAY = 0.005

    def __init__(self, plane: "ShardedControlPlane", shard_id: int) -> None:
        self.sim = plane.sim
        #: The plane this server is a shard of: it resolves next hops
        #: that live on another shard.
        self.plane = plane
        self.rfproxy = RFProxy(self)
        self.vm_boot_delay = plane.vm_boot_delay
        #: BGP session broker handed to every VM (interdomain deployments);
        #: None leaves the VMs OSPF-only.
        self.bgp_broker = plane.bgp_broker
        #: The RF-controller host clones and boots VMs one at a time (LXC
        #: cloning is disk/CPU bound), so VM creation is serialised by default;
        #: ablation A4 compares against fully parallel creation.  Each shard
        #: is its own host, so serialisation is per-shard.
        self.serialize_vm_creation = plane.serialize_vm_creation
        self._vm_creation_free_at = 0.0
        self.shard_id = shard_id
        self.mapping = MappingTable()
        self.vms: Dict[int, VirtualMachine] = {}
        self.rfclients: Dict[int, RFClient] = {}
        #: IP -> (vm, interface) index used for next-hop and ARP resolution.
        #: Fed by :meth:`assign_interface_address` and by interface address
        #: listeners registered at VM creation, so lookups never fall back
        #: to scanning every VM interface.
        self._ip_index: Dict[IPv4Address, Tuple[VirtualMachine, Interface]] = {}
        #: RouteMods whose next hop was not resolvable when they arrived,
        #: parked per next-hop address and replayed the moment the address
        #: is assigned: next_hop -> {(vm_id, prefix): RouteMod}.
        self._pending_by_next_hop: Dict[
            IPv4Address, Dict[Tuple[int, str], RouteMod]] = {}
        self.route_mods_received = 0
        self.route_mods_parked = 0
        #: Decoded RouteMods in flight on the flow_specs channel, keyed by
        #: envelope sequence number, so delivery needs no second decode.
        self._in_flight: Dict[int, RouteMod] = {}
        #: Shards stop processing bus traffic when their controller is
        #: failed by the failure-injection subsystem.
        self.active = True
        # --- bus wiring -----------------------------------------------------
        self._sender = f"rfserver:{shard_id}"
        self._endpoint = f"shard:{shard_id}"
        self.route_mods_topic = topics.route_mods_topic(shard_id)
        self.flow_specs_topic = topics.flow_specs_topic(shard_id)
        self.bus = plane.bus
        self.bus.channel(self.route_mods_topic, latency=RFClient.IPC_DELAY,
                         discipline=Discipline.DELAY)
        self.bus.channel(self.flow_specs_topic, latency=self.IPC_DELAY,
                         discipline=Discipline.DELAY, label="rfserver:routemod")
        # Consumption and publication go through the reliability layer:
        # on a perfect bus these degrade to the bare subscribe/publish
        # calls; with reliable IPC enabled the consumers dedup and
        # re-order per sender and the publishers retransmit until acked.
        consume(self.bus, self.route_mods_topic,
                lambda envelope: self.receive_route_mod(envelope.payload),
                endpoint=self._endpoint, active=lambda: self.active)
        consume(self.bus, self.flow_specs_topic, self._deliver_route_mod,
                endpoint=self._endpoint, active=lambda: self.active)
        self._flow_pub = acquire_publisher(
            self.bus, self.flow_specs_topic, self._sender,
            endpoint=self._endpoint)
        # Mapping records feed the peer shards' directories; one shard has
        # no peer, so it publishes none.
        self._mapping_pub = acquire_publisher(
            self.bus, topics.MAPPING, self._sender, endpoint=self._endpoint) \
            if plane.membership.partitioner.num_shards > 1 else None

    # --------------------------------------------------------------------- VMs
    def create_vm(self, vm_id: int, num_ports: int,
                  datapath_id: Optional[int] = None) -> VirtualMachine:
        """Create, map and boot the VM mirroring a switch.

        As in the paper, the VM id equals the switch's datapath id and the VM
        has one interface per switch port.
        """
        if vm_id in self.vms:
            return self.vms[vm_id]
        dpid = datapath_id if datapath_id is not None else vm_id
        vm = VirtualMachine(sim=self.sim, vm_id=vm_id, num_ports=num_ports,
                            boot_delay=self.vm_boot_delay,
                            bgp_broker=self.bgp_broker)
        self.vms[vm_id] = vm
        self.mapping.map_vm(vm_id, dpid)
        vm.add_address_listener(self._on_vm_address_change)
        self.rfclients[vm_id] = RFClient(self.sim, vm, self)
        if self.serialize_vm_creation:
            start_at = max(self.sim.now, self._vm_creation_free_at)
            self._vm_creation_free_at = start_at + self.vm_boot_delay
            self.sim.schedule_at(start_at, vm.start, label=f"rfserver:boot:{vm_id}")
        else:
            vm.start()
        self._share_mapping(MappingRecord(
            event=MappingRecord.VM_MAPPED, vm_id=vm_id, datapath_id=dpid,
            shard=self.shard_id))
        return vm

    def vm(self, vm_id: int) -> Optional[VirtualMachine]:
        return self.vms.get(vm_id)

    def vm_for_dpid(self, datapath_id: int) -> Optional[VirtualMachine]:
        vm_id = self.mapping.vm_for_dpid(datapath_id)
        return self.vms.get(vm_id) if vm_id is not None else None

    def unmap_vm(self, vm_id: int) -> None:
        """Drop a removed switch's VM from the VM<->datapath mapping."""
        self.mapping.unmap_vm(vm_id)

    # ------------------------------------------------------------- addressing
    def assign_interface_address(self, vm_id: int, interface_name: str,
                                 address: IPv4Address, prefix_len: int) -> None:
        """Record an interface address in the next-hop/ARP index.

        The address itself reaches the VM through the regenerated zebra.conf;
        this index only lets the RFServer resolve next hops and lets RFProxy
        answer ARP for gateway addresses.
        """
        vm = self.vms.get(vm_id)
        if vm is None:
            raise KeyError(f"unknown VM {vm_id}")
        interface = vm.interfaces.get(interface_name)
        if interface is None:
            raise KeyError(f"VM {vm_id} has no interface {interface_name}")
        self._index_interface_address(vm, interface, IPv4Address(address))

    def _on_vm_address_change(self, vm: VirtualMachine, interface: Interface,
                              old_ip: Optional[IPv4Address]) -> None:
        """A VM interface address changed (zebra applied a configuration)."""
        if old_ip is not None and \
                self._ip_index.get(old_ip, (None, None))[1] is interface:
            del self._ip_index[old_ip]
            # Retract the replaced address from peer shards' directories
            # too, or they would keep resolving next hops to a gateway
            # address that no longer exists.
            self._share_mapping(MappingRecord(
                event=MappingRecord.ADDRESS_REMOVED, vm_id=vm.vm_id,
                datapath_id=self.mapping.dpid_for_vm(vm.vm_id) or vm.vm_id,
                shard=self.shard_id, interface=interface.name,
                address=str(old_ip)))
        if interface.ip is not None:
            self._index_interface_address(vm, interface, interface.ip)

    def _index_interface_address(self, vm: VirtualMachine, interface: Interface,
                                 address: IPv4Address) -> None:
        """Index an address, share it on the mapping topic, replay parkers."""
        known = self._ip_index.get(address)
        self._ip_index[address] = (vm, interface)
        if known is None or known[1] is not interface:
            self._share_mapping(MappingRecord(
                event=MappingRecord.ADDRESS_ASSIGNED, vm_id=vm.vm_id,
                datapath_id=self.mapping.dpid_for_vm(vm.vm_id) or vm.vm_id,
                shard=self.shard_id, interface=interface.name,
                address=str(address)))
        self.replay_pending_next_hop(address)

    def _share_mapping(self, record: MappingRecord) -> None:
        if self._mapping_pub is not None:
            self._mapping_pub.publish(record.to_json())

    def interface_owning_ip(self, address: IPv4Address):
        """Return (vm, interface) holding the address, or None.

        A dict hit on the hot path: interface addresses are indexed when
        they are assigned (RPC server) or applied (zebra), so there is no
        linear scan over every VM interface.  Addresses owned by a peer
        controller shard are resolved through the plane's directory, which
        the shared mapping topic feeds.
        """
        entry = self._ip_index.get(IPv4Address(address))
        if entry is not None:
            return entry
        return self.plane.interface_owning_ip(address)

    # --------------------------------------------------------------- RouteMods
    def receive_route_mod(self, payload: str) -> None:
        """Entry point for JSON RouteMods arriving from RFClients.

        Hands the message over to the RFProxy side on the ``flow_specs``
        channel; resolution happens at delivery, one IPC hop later.
        """
        if not self.active:
            return
        route_mod = RouteMod.from_json(payload)
        self.route_mods_received += 1
        envelope = self._flow_pub.publish(payload)
        if not self._flow_pub.is_reliable:
            # The decoded-message cache is keyed by the bus sequence of
            # the publish; a reliable publisher may retransmit under a
            # fresh sequence, so in that mode delivery re-decodes instead.
            self._in_flight[envelope.seq] = route_mod

    def _deliver_route_mod(self, envelope: Envelope) -> None:
        route_mod = self._in_flight.pop(envelope.seq, None)
        if not self.active:
            return
        if route_mod is None:
            route_mod = RouteMod.from_json(envelope.payload)
        self._process_route_mod(route_mod)

    def _process_route_mod(self, route_mod: RouteMod) -> None:
        if not self.active:
            return
        dpid = self.mapping.dpid_for_vm(route_mod.vm_id)
        if dpid is None:
            LOG.warning("rfserver: RouteMod for unmapped VM %s", route_mod.vm_id)
            return
        prefix = route_mod.prefix_network
        if route_mod.mod_type == RouteModType.DELETE:
            self._drop_parked(route_mod.vm_id, route_mod.prefix)
            self.rfproxy.remove_route(dpid, prefix)
            return
        # Switch port N is VM interface eth<N>, one per port of the switch.
        out_interface = self.vms[route_mod.vm_id].interfaces.get(
            route_mod.interface)
        port = interface_port(route_mod.interface)
        if out_interface is None or port is None:
            LOG.warning("rfserver: no port mapping for VM %s iface %s",
                        route_mod.vm_id, route_mod.interface)
            return
        dst_mac: Optional[MACAddress] = None
        next_hop = route_mod.next_hop_address
        if next_hop is not None:
            owner = self.interface_owning_ip(next_hop)
            if owner is None:
                self._park_route_mod(next_hop, route_mod)
                return
            dst_mac = owner[1].mac
        spec = FlowSpec(datapath_id=dpid, prefix=prefix, out_port=port,
                        src_mac=out_interface.mac, dst_mac=dst_mac,
                        metric=route_mod.metric)
        self.rfproxy.install_route(spec)

    # ------------------------------------------------------ pending RouteMods
    def _park_route_mod(self, next_hop: IPv4Address, route_mod: RouteMod) -> None:
        """Park a RouteMod until its next hop address is assigned.

        A RouteMod can legitimately race ahead of the gateway address that
        resolves it (the RPC link configuration and the routing protocol
        run concurrently); dropping it would leave a permanent hole in the
        switch's flow table because OSPF will not re-announce an unchanged
        route.  Parked entries are keyed by (vm, prefix) so a newer
        announcement replaces an older one instead of piling up.
        """
        LOG.debug("rfserver: next hop %s not (yet) resolvable; parking %s",
                  next_hop, route_mod.prefix)
        bucket = self._pending_by_next_hop.setdefault(IPv4Address(next_hop), {})
        bucket[(route_mod.vm_id, route_mod.prefix)] = route_mod
        self.route_mods_parked += 1

    def _drop_parked(self, vm_id: int, prefix: str) -> None:
        """A DELETE supersedes any parked ADD for the same (vm, prefix)."""
        empty = []
        for next_hop, bucket in self._pending_by_next_hop.items():
            bucket.pop((vm_id, prefix), None)
            if not bucket:
                empty.append(next_hop)
        for next_hop in empty:
            del self._pending_by_next_hop[next_hop]

    def replay_pending_next_hop(self, address: IPv4Address) -> int:
        """Replay RouteMods that were waiting for this next-hop address.

        Returns the number of replayed messages.  Called locally when the
        address is indexed, and by the sharded control plane when a peer
        shard announces the address on the mapping topic.  A fail-stopped
        shard replays nothing (the parked entries stay put, like any
        other in-flight state a dead controller holds).
        """
        if not self.active:
            return 0
        bucket = self._pending_by_next_hop.pop(IPv4Address(address), None)
        if not bucket:
            return 0
        for route_mod in bucket.values():
            self._process_route_mod(route_mod)
        return len(bucket)

    def parked(self) -> List[Tuple[int, str]]:
        """The (vm id, prefix) of every parked RouteMod."""
        return [key for bucket in self._pending_by_next_hop.values()
                for key in bucket]

    @property
    def pending_route_mods(self) -> int:
        return len(self.parked())

    # --------------------------------------------------------------- hand-over
    def hand_over_vm(self, vm_id: int, dpid: int,
                     target: "RFServer") -> Optional[RFClient]:
        """Move a VM and this server's records of it to ``target``.

        Moves the VM, its mapping (rebuilt on the target as ``vm_id`` on
        ``dpid``, the plane's replicated record, never read from this
        server's possibly-dead tables), its RFClient
        (repointed at the target's RouteMod topic), its address-listener
        slot, its next-hop index entries and its parked RouteMods, which
        the target replays when the missing gateway appears and this
        server must never replay itself.  Returns the RFClient, or None
        when this server does not host the VM.
        """
        vm = self.vms.pop(vm_id, None)
        if vm is None:
            return None
        self.mapping.unmap_vm(vm_id)
        target.vms[vm_id] = vm
        if target.mapping.dpid_for_vm(vm_id) is None:
            target.mapping.map_vm(vm_id, dpid)
        client = self.rfclients.pop(vm_id)
        target.rfclients[vm_id] = client
        client.repoint(target)
        vm.replace_address_listener(self._on_vm_address_change,
                                    target._on_vm_address_change)
        # Every address indexed to the VM moves, including one the RPC
        # server assigned that zebra has not applied to the interface yet.
        moved_ips = {address: entry for address, entry
                     in self._ip_index.items() if entry[0] is vm}
        for address in moved_ips:
            del self._ip_index[address]
        target._ip_index.update(moved_ips)
        for interface in vm.interfaces.values():
            if interface.ip is not None:
                target._ip_index[interface.ip] = (vm, interface)
        for next_hop in list(self._pending_by_next_hop):
            bucket = self._pending_by_next_hop[next_hop]
            moved = {key: mod for key, mod in bucket.items()
                     if mod.vm_id == vm_id}
            if not moved:
                continue
            for key in moved:
                del bucket[key]
            if not bucket:
                del self._pending_by_next_hop[next_hop]
            target._pending_by_next_hop.setdefault(next_hop, {}).update(moved)
        return client

    # ------------------------------------------------------------------ status
    def load(self) -> Dict[str, int]:
        """This server's control-plane load counters (one ctlscale row)."""
        bgp_updates_sent = 0
        bgp_withdrawals_sent = 0
        bgp_updates_received = 0
        for vm in self.vms.values():
            daemon = vm.bgp
            if daemon is not None:
                bgp_updates_sent += daemon.updates_sent
                bgp_withdrawals_sent += daemon.withdrawals_sent
                bgp_updates_received += daemon.updates_received
        return {
            "shard": self.shard_id,
            "switches": len(self.mapping.mapped_datapaths),
            "vms": len(self.vms),
            "route_mods": self.route_mods_received,
            "route_mods_parked": self.route_mods_parked,
            "flow_mods_installed": self.rfproxy.flows_installed,
            "flow_mods_removed": self.rfproxy.flows_removed,
            "flows_current": len(self.rfproxy.installed_flows),
            "bgp_updates_sent": bgp_updates_sent,
            "bgp_withdrawals_sent": bgp_withdrawals_sent,
            "bgp_updates_received": bgp_updates_received,
        }

    def __repr__(self) -> str:
        return f"<RFServer vms={len(self.vms)} routes={self.route_mods_received}>"


class ControllerShard:
    """One RF-controller host: an RFServer + RFProxy pair on its own
    OpenFlow controller, owning a partition of the datapaths, and the
    FlowVisor slice that carries them.  The plane names both."""

    def __init__(self, plane: "ShardedControlPlane", shard_id: int,
                 name: str, slice_name: str) -> None:
        self.shard_id = shard_id
        self.slice_name = slice_name
        self.controller = Controller(plane.sim, name=name)
        self.rfserver = RFServer(plane, shard_id)
        self.rfproxy = self.rfserver.rfproxy
        self.controller.register_app(self.rfproxy)

    @property
    def failed(self) -> bool:
        """Fail-stopped: the shard's RFServer processes nothing."""
        return not self.rfserver.active

    def __repr__(self) -> str:
        state = "FAILED" if self.failed else "up"
        return (f"<ControllerShard {self.shard_id} {state} "
                f"vms={len(self.rfserver.vms)}>")
