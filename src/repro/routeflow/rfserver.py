"""RFServer: the central coordination component of RouteFlow.

The RFServer owns the virtual environment — the VMs, the RouteFlow virtual
switch wiring them together, and the mapping tables that associate VMs with
switches and VM interfaces with switch ports.  It receives RouteMods from
the per-VM RFClients over the control-plane bus, resolves next hops against
the virtual environment and hands fully resolved flow specifications to the
RFProxy for installation on the physical switches.

The paper's RPC server calls into this class: creating VMs, mapping ports,
assigning interface addresses and writing configuration files are exactly
the operations an administrator would otherwise perform by hand.

Every IPC hop runs over an explicit :class:`~repro.bus.MessageBus`:

* ``route_mods.<shard>`` — RouteMods arriving from the RFClients (delay
  channel, :attr:`RFClient.IPC_DELAY` one-way latency);
* ``flow_specs.<shard>`` — the RFServer→RFProxy handoff (delay channel,
  :attr:`IPC_DELAY`); next hops are resolved at delivery, and the
  resolved :class:`~repro.routeflow.rfproxy.FlowSpec` goes straight into
  the proxy;
* ``routeflow.mapping`` — mapping records (VM registrations, interface
  addresses) shared with peer controller shards (direct channel);
* ``routeflow.port_status`` — physical link state relayed into the
  virtual topology (direct channel).

When several RFServer shards coordinate, a
:class:`~repro.routeflow.sharding.ShardedControlPlane` provides the
``peers`` view used to resolve next hops that live on another shard.
Both present the same :class:`VirtualEnvironment` surface to the RPC
server and the milestone monitor.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional, Tuple

from repro.bus import Discipline, Envelope, MessageBus, topics
from repro.bus.reliable import acquire_publisher, consume
from repro.controller.base import Controller
from repro.net.addresses import IPv4Address, IPv4Network, MACAddress
from repro.net.link import Interface
from repro.routeflow.ipc import MappingRecord, PortStatusRelay, RouteMod, RouteModType
from repro.routeflow.mapping import MappingTable
from repro.routeflow.rfclient import RFClient
from repro.routeflow.rfproxy import FlowSpec, RFProxy
from repro.routeflow.virtual_switch import RFVirtualSwitch
from repro.routeflow.vm import VirtualMachine
from repro.sim import EventLog, Simulator

LOG = logging.getLogger(__name__)


class VirtualEnvironment:
    """The VMs and their wiring as the RPC server and the framework see
    them, written over the ``vm`` / ``vm_for_dpid`` / ``vms`` / ``rfvs`` /
    ``event_log`` of one RFServer or of N coordinated shards."""

    #: A fail-stopped holder processes no bus traffic.
    active = True

    def write_config_file(self, vm_id: int, filename: str, text: str) -> None:
        """Write a Quagga configuration file into a VM (RPC-server helper)."""
        vm = self.vm(vm_id)
        if vm is None:
            raise KeyError(vm_id)
        vm.write_config_file(filename, text)
        self.event_log.record("config_file", f"{filename} written to {vm.name}",
                              vm_id=vm_id, filename=filename, size=len(text))

    def connect_virtual_link(self, vm_id_a: int, iface_a: str,
                             vm_id_b: int, iface_b: str) -> None:
        """Wire two VM interfaces together, mirroring a physical link (the
        two VMs may live on two shards)."""
        vm_a = self.vm(vm_id_a)
        vm_b = self.vm(vm_id_b)
        if vm_a is None or vm_b is None:
            raise KeyError(vm_id_a if vm_a is None else vm_id_b)
        self.rfvs.connect(vm_a.interfaces[iface_a], vm_b.interfaces[iface_b])
        self.event_log.record(
            "virtual_link",
            f"virtual wire {vm_a.name}:{iface_a} <-> {vm_b.name}:{iface_b}",
            vm_a=vm_id_a, iface_a=iface_a, vm_b=vm_id_b, iface_b=iface_b)

    def _on_port_status(self, envelope: Envelope) -> None:
        """Bus delivery of a relayed port-status change."""
        if not self.active:
            return
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


class RFServer(VirtualEnvironment):
    """RouteFlow's central server (one per controller shard)."""

    #: Latency of the RFServer -> RFProxy IPC hop.
    IPC_DELAY = 0.005

    def __init__(self, sim: Simulator, rfproxy: RFProxy, vm_boot_delay: float = 5.0,
                 event_log: Optional[EventLog] = None,
                 serialize_vm_creation: bool = True,
                 bus: Optional[MessageBus] = None,
                 shard_id: int = 0,
                 rfvs: Optional[RFVirtualSwitch] = None,
                 bgp_broker=None) -> None:
        self.sim = sim
        self.rfproxy = rfproxy
        self.vm_boot_delay = vm_boot_delay
        #: BGP session broker handed to every VM (interdomain deployments);
        #: None leaves the VMs OSPF-only.
        self.bgp_broker = bgp_broker
        #: The RF-controller host clones and boots VMs one at a time (LXC
        #: cloning is disk/CPU bound), so VM creation is serialised by default;
        #: ablation A4 compares against fully parallel creation.  Each shard
        #: is its own host, so serialisation is per-shard.
        self.serialize_vm_creation = serialize_vm_creation
        self._vm_creation_free_at = 0.0
        self.event_log = event_log if event_log is not None else EventLog(sim)
        self.shard_id = shard_id
        self.mapping = MappingTable()
        self.rfvs = rfvs if rfvs is not None else RFVirtualSwitch(sim)
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
        #: Cross-shard lookup view, set by the sharded control plane; None
        #: in single-controller deployments.
        self.peers = None
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
        owns_bus = bus is None
        self.bus = bus if bus is not None else MessageBus(sim, name="rfserver-bus")
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
        self._mapping_pub = acquire_publisher(
            self.bus, topics.MAPPING, self._sender, endpoint=self._endpoint)
        if owns_bus:
            # Standalone deployments wire the shared topics to this server;
            # a sharded control plane owns these subscriptions instead.
            consume(self.bus, topics.PORT_STATUS, self._on_port_status,
                    endpoint=self._endpoint, active=lambda: self.active)
        rfproxy.attach_rfserver(self)

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
        self.mapping.map_vm(vm_id, dpid, num_ports)
        vm.add_address_listener(self._on_vm_address_change)
        self.rfclients[vm_id] = RFClient(self.sim, vm, self)
        if self.serialize_vm_creation:
            start_at = max(self.sim.now, self._vm_creation_free_at)
            self._vm_creation_free_at = start_at + self.vm_boot_delay
            self.sim.schedule_at(start_at, vm.start, label=f"rfserver:boot:{vm_id}")
        else:
            vm.start()
        self._mapping_pub.publish(MappingRecord(
            event=MappingRecord.VM_MAPPED, vm_id=vm_id, datapath_id=dpid,
            shard=self.shard_id, num_ports=num_ports).to_json())
        self.event_log.record("vm_created", f"VM {vm.name} created for dpid {dpid:#x}",
                              vm_id=vm_id, datapath_id=dpid, num_ports=num_ports)
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
            self._mapping_pub.publish(MappingRecord(
                event=MappingRecord.ADDRESS_REMOVED, vm_id=vm.vm_id,
                datapath_id=self.mapping.dpid_for_vm(vm.vm_id) or vm.vm_id,
                shard=self.shard_id, interface=interface.name,
                address=str(old_ip)).to_json())
        if interface.ip is not None:
            self._index_interface_address(vm, interface, interface.ip)

    def _index_interface_address(self, vm: VirtualMachine, interface: Interface,
                                 address: IPv4Address) -> None:
        """Index an address, share it on the mapping topic, replay parkers."""
        known = self._ip_index.get(address)
        self._ip_index[address] = (vm, interface)
        if known is None or known[1] is not interface:
            self._mapping_pub.publish(MappingRecord(
                event=MappingRecord.ADDRESS_ASSIGNED, vm_id=vm.vm_id,
                datapath_id=self.mapping.dpid_for_vm(vm.vm_id) or vm.vm_id,
                shard=self.shard_id, interface=interface.name,
                address=str(address)).to_json())
        self.replay_pending_next_hop(address)

    def interface_owning_ip(self, address: IPv4Address):
        """Return (vm, interface) holding the address, or None.

        A dict hit on the hot path: interface addresses are indexed when
        they are assigned (RPC server) or applied (zebra), so there is no
        linear scan over every VM interface.  Addresses owned by a peer
        controller shard are resolved through the shared mapping topic.
        """
        entry = self._ip_index.get(IPv4Address(address))
        if entry is not None:
            return entry
        if self.peers is not None:
            return self.peers.interface_owning_ip(address)
        return None

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
        port = self.mapping.port_for_interface(route_mod.vm_id, route_mod.interface)
        if port is None:
            LOG.warning("rfserver: no port mapping for VM %s iface %s",
                        route_mod.vm_id, route_mod.interface)
            return
        vm = self.vms[route_mod.vm_id]
        out_interface = vm.interfaces.get(route_mod.interface)
        if out_interface is None:
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

    @property
    def pending_route_mods(self) -> int:
        return sum(len(bucket) for bucket in self._pending_by_next_hop.values())

    # ------------------------------------------------------------------ status
    def configured_switches(self) -> List[int]:
        """Datapaths that have a mirroring VM (the GUI's green switches)."""
        return sorted(self.mapping.mapped_datapaths)

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
            "vms": self.vm_count,
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
    OpenFlow controller.  A sharded control plane runs N of them, each
    owning a partition of the datapaths; a single-controller deployment
    runs one, named plainly ``rf-controller``."""

    def __init__(self, sim: Simulator, shard_id: int, bus: MessageBus,
                 event_log: EventLog,
                 rfvs: Optional[RFVirtualSwitch] = None,
                 vm_boot_delay: float = 5.0,
                 serialize_vm_creation: bool = True,
                 bgp_broker=None, name: Optional[str] = None) -> None:
        self.shard_id = shard_id
        self.controller = Controller(
            sim, name=name or f"rf-controller-{shard_id}")
        self.rfproxy = RFProxy()
        self.controller.register_app(self.rfproxy)
        self.rfserver = RFServer(
            sim, self.rfproxy, vm_boot_delay=vm_boot_delay,
            event_log=event_log,
            serialize_vm_creation=serialize_vm_creation, bus=bus,
            shard_id=shard_id, rfvs=rfvs, bgp_broker=bgp_broker)

    @property
    def failed(self) -> bool:
        """Fail-stopped: the shard's RFServer processes nothing."""
        return not self.rfserver.active

    def __repr__(self) -> str:
        state = "FAILED" if self.failed else "up"
        return (f"<ControllerShard {self.shard_id} {state} "
                f"vms={self.rfserver.vm_count}>")
