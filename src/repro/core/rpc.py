"""The RPC client and RPC server of the automatic-configuration framework.

The RPC client collects configuration messages from the topology controller
and forwards them to the RPC server, which lives alongside RouteFlow in the
RF-controller.  On reception the RPC server performs exactly the four
manual steps the paper lists: (1) create the VM, (2) create the VM↔switch
mapping, (3) map VM interfaces to switch interfaces, and (4) write the
routing configuration files (zebra.conf, ospfd.conf, bgpd.conf) — all by
calling into the RouteFlow control plane,
:class:`repro.routeflow.sharding.ShardedControlPlane`, which places each
VM on the RFServer of the shard that owns its switch.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.bus import Discipline, MessageBus, topics
from repro.bus.reliable import acquire_publisher, consume
from repro.net.addresses import IPv4Address, IPv4Network
from repro.core.config_messages import (
    ConfigMessage,
    EdgePortConfigMessage,
    LinkConfigMessage,
    SwitchConfigMessage,
    SwitchRemovedMessage,
)
from repro.core.ipam import IPAddressManager
from repro.quagga.configfile import (
    BGPNeighbor,
    InterfaceConfig,
    OSPFNetworkStatement,
    generate_bgpd_conf,
    generate_ospfd_conf,
    generate_zebra_conf,
)
from repro.routeflow.sharding import ShardedControlPlane
from repro.routeflow.vm import port_interface
from repro.sim import Simulator
from repro.topology.generators import RELATIONSHIP_LOCAL_PREF

LOG = logging.getLogger(__name__)

#: One-way latency of the RPC client -> RPC server transport (seconds).
RPC_NETWORK_DELAY = 0.01
#: A VM's AS number outside an AS map is this base plus its id.
BGP_AS_BASE = 65000
#: BGP keepalive/hold timers written into every interdomain bgpd.conf.
BGP_KEEPALIVE_INTERVAL = 10.0
BGP_HOLD_TIME = 30.0


class RPCClient:
    """Forwards configuration messages from the topology controller.

    The transport is the control-plane bus: messages are published on the
    :data:`repro.bus.topics.CONFIG` delay channel (one-way latency
    :data:`RPC_NETWORK_DELAY`) and delivered to :meth:`RPCServer.receive`.  The
    client wires the server subscription itself, so one bus carries at
    most one RPC client/server pair.
    """

    def __init__(self, sim: Simulator, server: "RPCServer",
                 bus: Optional[MessageBus] = None) -> None:
        self.sim = sim
        self.server = server
        self.bus = bus if bus is not None else MessageBus(sim, name="rpc-bus")
        self.bus.channel(topics.CONFIG, latency=RPC_NETWORK_DELAY,
                         discipline=Discipline.DELAY, label="rpc:deliver")
        # Pub/sub runs through the reliability layer: a passthrough shim on
        # a perfect bus, acknowledged retransmission when the framework
        # enables reliable IPC (a lost configuration message would
        # otherwise permanently miss a VM or link).
        consume(self.bus, topics.CONFIG,
                lambda envelope: self.server.receive(envelope.payload),
                endpoint="rpc-server")
        self._publisher = acquire_publisher(self.bus, topics.CONFIG,
                                            "rpc-client", endpoint="rpc-client")

    def send(self, message: ConfigMessage) -> None:
        """Serialise and deliver a configuration message to the RPC server."""
        self._publisher.publish(message.to_json())


@dataclass
class _VMConfigState:
    """The RPC server's record of one VM's generated configuration."""

    vm_id: int
    num_ports: int
    hostname: str
    router_id: IPv4Address
    #: The VM's AS number (only meaningful in interdomain deployments).
    local_as: int = 0
    interfaces: Dict[str, Tuple[IPv4Address, int]] = field(default_factory=dict)
    ospf_networks: List[IPv4Network] = field(default_factory=list)
    bgp_neighbors: List[BGPNeighbor] = field(default_factory=list)


class RPCServer:
    """Configures RouteFlow on reception of configuration messages."""

    #: Time the RPC server spends handling a switch-configuration message
    #: before the VM starts booting (validating, cloning templates, ...).
    SWITCH_PROCESSING_DELAY = 0.5
    #: Time spent handling a link or edge-port configuration message
    #: (regenerating and writing the configuration files).
    LINK_PROCESSING_DELAY = 0.2

    def __init__(self, sim: Simulator, plane: ShardedControlPlane,
                 ipam: Optional[IPAddressManager] = None,
                 ospf_hello_interval: int = 10, ospf_dead_interval: int = 40,
                 as_map: Optional[Mapping[int, int]] = None,
                 as_relationships: Optional[Mapping[Tuple[int, int], str]] = None,
                 ibgp_route_reflector: bool = False,
                 advertise_loopbacks: bool = False) -> None:
        self.sim = sim
        self.plane = plane
        self.ipam = ipam if ipam is not None else IPAddressManager()
        self.ospf_hello_interval = ospf_hello_interval
        self.ospf_dead_interval = ospf_dead_interval
        #: dpid -> AS number.  When set, the server generates *interdomain*
        #: configurations: inter-AS links run eBGP instead of OSPF, routers
        #: of one AS form an iBGP full mesh over their loopbacks, and the
        #: generated ospfd.conf/bgpd.conf redistribute into each other.
        self.as_map: Optional[Dict[int, int]] = dict(as_map) if as_map else None
        #: ``(as_a, as_b) -> "customer"|"peer"|"provider"`` (as_b's role seen
        #: from as_a).  When set, inter-AS neighbors carry the relationship
        #: and a matching ingress LOCAL_PREF so the daemons implement
        #: Gao-Rexford valley-free export.
        self.as_relationships: Optional[Dict[Tuple[int, int], str]] = (
            dict(as_relationships) if as_relationships else None)
        #: Replace the per-AS iBGP full mesh (O(n²) sessions in routers per
        #: AS) with a hub-and-spoke route-reflector topology: the lowest
        #: dpid of each AS reflects between its clients.
        self.ibgp_route_reflector = ibgp_route_reflector
        self._rr_hub: Dict[int, int] = {}
        if ibgp_route_reflector and self.as_map:
            for dpid, asn in self.as_map.items():
                if asn not in self._rr_hub or dpid < self._rr_hub[asn]:
                    self._rr_hub[asn] = dpid
        #: Also put the router id on a loopback /32 and announce it into
        #: OSPF when running single-domain (interdomain always does).
        self.advertise_loopbacks = advertise_loopbacks
        self._vm_state: Dict[int, _VMConfigState] = {}
        self._configured_links: Set[Tuple[int, int, int, int]] = set()
        #: Link / edge-port messages that arrived before the switch they refer
        #: to was configured; replayed once the switch configuration lands.
        self._deferred: List[ConfigMessage] = []
        self.messages_received = 0
        self._switch_configured_callbacks: List[Callable[[int], None]] = []

    # -------------------------------------------------------------- observers
    def on_switch_configured(self, callback: Callable[[int], None]) -> None:
        """Register a callback fired when a switch's VM has been created.

        The paper's GUI turns a switch green at exactly this moment ("a
        switch is considered as configured when it has a corresponding VM").
        """
        self._switch_configured_callbacks.append(callback)

    # ---------------------------------------------------------------- receive
    def receive(self, payload: str) -> None:
        """Entry point for serialised configuration messages."""
        message = ConfigMessage.from_json(payload)
        self.messages_received += 1
        if isinstance(message, SwitchConfigMessage):
            delay = self.SWITCH_PROCESSING_DELAY
            handler = self._handle_switch_config
        elif isinstance(message, LinkConfigMessage):
            delay = self.LINK_PROCESSING_DELAY
            handler = self._handle_link_config
        elif isinstance(message, EdgePortConfigMessage):
            delay = self.LINK_PROCESSING_DELAY
            handler = self._handle_edge_port_config
        elif isinstance(message, SwitchRemovedMessage):
            delay = self.LINK_PROCESSING_DELAY
            handler = self._handle_switch_removed
        else:  # pragma: no cover - defensive
            LOG.warning("rpc-server: unhandled message %r", message)
            return
        self.sim.schedule(delay, handler, message, label="rpc:handle")

    # ------------------------------------------------------- switch handling
    def _handle_switch_config(self, message: SwitchConfigMessage) -> None:
        vm_id = message.switch_id
        if vm_id in self._vm_state:
            return  # idempotent: re-detection of a known switch
        state = _VMConfigState(
            vm_id=vm_id, num_ports=message.num_ports,
            hostname=f"VM-{vm_id:016x}", router_id=self.ipam.router_id(vm_id))
        if self.as_map is not None:
            state.local_as = self.as_map.get(vm_id, BGP_AS_BASE + vm_id)
            hub = self._rr_hub.get(state.local_as)
            # iBGP per AS, peered over the router-id loopbacks.  Default is
            # a full mesh: the new router and every already-configured
            # router of its AS name each other.  In route-reflector mode
            # only hub<->spoke sessions exist (the hub marks its neighbors
            # as clients and reflects between them), so an n-router AS runs
            # n-1 sessions instead of n(n-1)/2.
            for other in self._vm_state.values():
                if other.local_as != state.local_as:
                    continue
                if hub is not None and vm_id != hub and other.vm_id != hub:
                    continue
                state.bgp_neighbors.append(BGPNeighbor(
                    address=other.router_id, remote_as=state.local_as,
                    route_reflector_client=(vm_id == hub)))
                other.bgp_neighbors.append(BGPNeighbor(
                    address=state.router_id, remote_as=state.local_as,
                    route_reflector_client=(other.vm_id == hub)))
                self._write_configs(other)
        self._vm_state[vm_id] = state
        vm = self.plane.create_vm(vm_id=vm_id, num_ports=message.num_ports,
                                     datapath_id=message.switch_id)
        self._write_configs(state)
        # The paper: "a switch is considered as configured when it has a
        # corresponding VM" — i.e. once the clone finished booting, which is
        # when the demo GUI flips the switch from red to green.
        vm.on_running(lambda _vm, switch_id=vm_id: self._switch_became_configured(switch_id))
        self._replay_deferred()

    def _switch_became_configured(self, switch_id: int) -> None:
        for callback in self._switch_configured_callbacks:
            callback(switch_id)

    def _handle_switch_removed(self, message: SwitchRemovedMessage) -> None:
        state = self._vm_state.pop(message.switch_id, None)
        if state is None:
            return
        vm = self.plane.vm(message.switch_id)
        if vm is not None:
            vm.stop()
        self.plane.unmap_vm(message.switch_id)

    # --------------------------------------------------------- link handling
    def _handle_link_config(self, message: LinkConfigMessage) -> None:
        key = IPAddressManager.canonical_link(message.dpid_a, message.port_a,
                                              message.dpid_b, message.port_b)
        if key in self._configured_links:
            return
        state_a = self._vm_state.get(message.dpid_a)
        state_b = self._vm_state.get(message.dpid_b)
        if state_a is None or state_b is None:
            # The link notification raced ahead of the switch notification
            # (link discovery is fast, VM-creation handling is slower); keep
            # it until both switches have been configured.
            LOG.debug("rpc-server: deferring link config for unknown switch")
            self._deferred.append(message)
            return
        self._configured_links.add(key)
        iface_a = port_interface(message.port_a)
        iface_b = port_interface(message.port_b)
        prefix_len = message.prefix_len
        # An inter-AS link carries eBGP, not the IGP: its prefix stays out
        # of both ends' OSPF network statements (``redistribute connected``
        # injects it into each area as an external prefix instead).
        border = self.as_map is not None and state_a.local_as != state_b.local_as
        self._assign_interface(state_a, iface_a, IPv4Address(message.address_a),
                               prefix_len, ospf=not border)
        self._assign_interface(state_b, iface_b, IPv4Address(message.address_b),
                               prefix_len, ospf=not border)
        self.plane.connect_virtual_link(state_a.vm_id, iface_a, state_b.vm_id, iface_b)
        if self.as_map is not None:
            if border:
                # With commercial relationships known, stamp the neighbor
                # with its Gao-Rexford role and the matching ingress
                # LOCAL_PREF (customer > peer > provider), which is what
                # the daemons' valley-free export rule keys on.
                rel_ab = rel_ba = None
                if self.as_relationships is not None:
                    rel_ab = self.as_relationships.get(
                        (state_a.local_as, state_b.local_as))
                    rel_ba = self.as_relationships.get(
                        (state_b.local_as, state_a.local_as))
                state_a.bgp_neighbors.append(BGPNeighbor(
                    address=IPv4Address(message.address_b),
                    remote_as=state_b.local_as, relationship=rel_ab,
                    local_pref=RELATIONSHIP_LOCAL_PREF.get(rel_ab)
                    if rel_ab else None))
                state_b.bgp_neighbors.append(BGPNeighbor(
                    address=IPv4Address(message.address_a),
                    remote_as=state_a.local_as, relationship=rel_ba,
                    local_pref=RELATIONSHIP_LOCAL_PREF.get(rel_ba)
                    if rel_ba else None))
        else:
            state_a.bgp_neighbors.append(BGPNeighbor(
                address=IPv4Address(message.address_b),
                remote_as=BGP_AS_BASE + state_b.vm_id))
            state_b.bgp_neighbors.append(BGPNeighbor(
                address=IPv4Address(message.address_a),
                remote_as=BGP_AS_BASE + state_a.vm_id))
        self._write_configs(state_a)
        self._write_configs(state_b)

    def _handle_edge_port_config(self, message: EdgePortConfigMessage) -> None:
        state = self._vm_state.get(message.datapath_id)
        if state is None:
            LOG.debug("rpc-server: deferring edge-port config for unknown switch")
            self._deferred.append(message)
            return
        iface = port_interface(message.port_no)
        if iface in state.interfaces:
            return
        self._assign_interface(state, iface, IPv4Address(message.gateway),
                               message.prefix_len)
        self._write_configs(state)

    def _replay_deferred(self) -> None:
        """Re-handle link/edge messages that were waiting for switch configs."""
        pending, self._deferred = self._deferred, []
        for message in pending:
            if isinstance(message, LinkConfigMessage):
                self._handle_link_config(message)
            elif isinstance(message, EdgePortConfigMessage):
                self._handle_edge_port_config(message)

    # ----------------------------------------------------------- config files
    def _assign_interface(self, state: _VMConfigState, iface: str,
                          address: IPv4Address, prefix_len: int,
                          ospf: bool = True) -> None:
        state.interfaces[iface] = (address, prefix_len)
        network = IPv4Network((address, prefix_len))
        if ospf and network not in state.ospf_networks:
            state.ospf_networks.append(network)
        self.plane.assign_interface_address(state.vm_id, iface, address, prefix_len)

    def _write_configs(self, state: _VMConfigState) -> None:
        """Regenerate and write zebra.conf / ospfd.conf / bgpd.conf for a VM."""
        interface_configs = [
            InterfaceConfig(name=name, ip=address, prefix_len=prefix_len,
                            description=f"auto-configured by RPC server")
            for name, (address, prefix_len) in sorted(state.interfaces.items())
        ]
        interdomain = self.as_map is not None
        # Only *border* routers (those with at least one eBGP neighbor)
        # redistribute between the protocols: an interior router running
        # ``redistribute bgp`` would re-inject its iBGP-learned routes as
        # its own externals and shadow the border's advertisement in its
        # own SPF — the classic mutual-redistribution feedback.
        border = interdomain and any(n.remote_as != state.local_as
                                     for n in state.bgp_neighbors)
        announce_lo = interdomain or self.advertise_loopbacks
        if announce_lo:
            # The router id lives on a loopback /32 so iBGP next-hop-self
            # addresses resolve through the IGP (interdomain), and so the
            # fluid traffic path has a routable per-router destination.
            interface_configs.append(InterfaceConfig(
                name="lo", ip=state.router_id, prefix_len=32,
                description="loopback (router id)"))
        zebra_text = generate_zebra_conf(state.hostname, interface_configs)
        self.plane.write_config_file(state.vm_id, "zebra.conf", zebra_text)
        ospf_statements = [OSPFNetworkStatement(prefix=network, area="0.0.0.0")
                           for network in state.ospf_networks]
        if announce_lo:
            ospf_statements.append(OSPFNetworkStatement(
                prefix=IPv4Network((state.router_id, 32)), area="0.0.0.0"))
        ospfd_text = generate_ospfd_conf(
            hostname=f"{state.hostname}-ospfd", router_id=state.router_id,
            networks=ospf_statements, hello_interval=self.ospf_hello_interval,
            dead_interval=self.ospf_dead_interval,
            redistribute_bgp=border, redistribute_connected=border)
        self.plane.write_config_file(state.vm_id, "ospfd.conf", ospfd_text)
        if interdomain:
            bgpd_text = generate_bgpd_conf(
                hostname=f"{state.hostname}-bgpd", local_as=state.local_as,
                router_id=state.router_id, neighbors=state.bgp_neighbors,
                redistribute_ospf=border, redistribute_connected=border,
                keepalive_interval=BGP_KEEPALIVE_INTERVAL,
                hold_time=BGP_HOLD_TIME)
            self.plane.write_config_file(state.vm_id, "bgpd.conf", bgpd_text)
        else:
            # The paper lists bgpd.conf among the generated files even
            # though its experiments only run OSPF.
            bgpd_text = generate_bgpd_conf(
                hostname=f"{state.hostname}-bgpd",
                local_as=BGP_AS_BASE + state.vm_id,
                router_id=state.router_id, neighbors=state.bgp_neighbors,
                redistribute_ospf=True)
            self.plane.write_config_file(state.vm_id, "bgpd.conf", bgpd_text)

    # ------------------------------------------------------------------ status
    @property
    def configured_link_count(self) -> int:
        return len(self._configured_links)

    def __repr__(self) -> str:
        return (f"<RPCServer switches={len(self._vm_state)} "
                f"links={len(self._configured_links)}>")
