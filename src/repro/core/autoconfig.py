"""The automatic-configuration framework (the paper's contribution).

:class:`AutoConfigFramework` assembles the five components of Figure 2 —
RF-controller (running RouteFlow), topology controller (running the
discovery module), RPC client, RPC server and FlowVisor — wires them
together, attaches them to an emulated OpenFlow network and tracks the
milestones the paper reports: every switch configured (GUI all green),
every VM running, and the routing protocol converged.

The RouteFlow side is always a
:class:`~repro.routeflow.sharding.ShardedControlPlane`: one shard, the
paper's RF-controller, by default, and N coordinated shards with
``controllers=N``.  Only the plane's constructor tells the two apart.

The framework can also be built without FlowVisor and with discovery
co-located on the RF-controller (``use_flowvisor=False``), which is the
single-controller deployment the paper argues against; ablation A1
compares the two.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.bus import ChannelFaults, MessageBus
from repro.core.gui import ConfigurationGUI
from repro.core.ipam import IPAddressManager
from repro.core.manual_model import ManualConfigurationModel
from repro.core.rpc import RPCClient, RPCServer
from repro.core.topology_controller import build_topology_controller
from repro.flowvisor import FlowVisor, build_flowspace
from repro.quagga.bgp.session import BGPSessionBroker
from repro.routeflow.membership import PartitionError, make_partitioner
from repro.routeflow.rfserver import ControllerShard
from repro.routeflow.sharding import ShardedControlPlane
from repro.sim import PeriodicTask, Simulator
from repro.topology.emulator import EmulatedNetwork

LOG = logging.getLogger(__name__)


@dataclass
class FrameworkConfig:
    """Tunable parameters of the framework (defaults match the paper setup)."""

    #: LXC clone/boot latency per VM — the dominant automatic-configuration cost.
    vm_boot_delay: float = 5.0
    #: Clone/boot VMs one at a time on the RF-controller host (the realistic
    #: default) or all in parallel (ablation A4).  With several controller
    #: shards, serialisation is per shard — each shard is its own host.
    serialize_vm_creation: bool = True
    #: OSPF timers written into every generated ospfd.conf.
    ospf_hello_interval: int = 10
    ospf_dead_interval: int = 40
    #: LLDP probe period of the discovery module.
    discovery_probe_interval: float = 5.0
    #: How long a port must stay link-less before it is declared an edge port.
    edge_port_grace: float = 12.0
    #: Whether to look for edge (host-facing) ports at all.
    detect_edge_ports: bool = True
    #: Deploy FlowVisor plus a separate topology controller (the paper's
    #: design) or co-locate discovery on the RF-controller (ablation A1).
    use_flowvisor: bool = True
    #: Run bgpd inside the VMs as a first-class interdomain protocol: the
    #: framework creates a shared BGP session broker, the RPC server
    #: generates multi-AS configurations from :attr:`as_map` (eBGP on
    #: inter-AS links, an iBGP full mesh per AS, OSPF↔BGP redistribution)
    #: and the VMs boot bgpd from them.  Requires :attr:`as_map`.
    enable_bgp: bool = False
    #: Datapath id -> AS number.  Interdomain scenarios derive it from the
    #: topology's per-node AS assignment (``as_map_from_topology``).
    as_map: Optional[Mapping[int, int]] = None
    #: Gao-Rexford relationships between ASes, ``(asn_a, asn_b) ->
    #: "customer"|"peer"|"provider"`` read from asn_a's perspective.
    #: When set, the RPC server emits valley-free per-peer policies on
    #: every eBGP neighbor statement (ingress local-preference by
    #: relationship plus the relationship export gate).  Interdomain
    #: scenarios derive it from the topology
    #: (``as_relationships_from_topology``); None = no commercial policy.
    as_relationships: Optional[Mapping[Tuple[int, int], str]] = None
    #: Replace each AS's iBGP full mesh with a per-AS route reflector (the
    #: lowest-dpid router of the AS becomes the hub, everyone else peers
    #: only with it).  Cuts the O(n²) iBGP session count to O(n) for large
    #: ASes at the cost of one extra reflection hop.
    ibgp_route_reflector: bool = False
    #: How often the convergence monitor samples the milestone predicates.
    monitor_interval: float = 1.0
    #: Number of RouteFlow controller shards (RFServer + RFProxy pairs).
    #: 1 reproduces the paper's single RF-controller; > 1 partitions the
    #: datapaths across coordinated shards (requires ``use_flowvisor``).
    controllers: int = 1
    #: How datapaths map to shards: ``hash``, ``contiguous`` or ``as``
    #: (whole autonomous systems per shard, from :attr:`as_map`).
    partitioner: str = "hash"
    #: Control-plane bus fault profiles: topic pattern -> fault parameters
    #: (``drop``/``duplicate``/``reorder``/``jitter``/``reorder_delay``,
    #: see :class:`repro.bus.ChannelFaults`).  None/empty leaves the bus a
    #: perfect transport, the behaviour every golden trace pins.
    bus_faults: Optional[Mapping[str, Mapping[str, float]]] = None
    #: Seed of the per-channel fault RNG streams (a lossy run replays
    #: identically from (bus_faults, bus_fault_seed)).
    bus_fault_seed: int = 0
    #: Run the critical IPC topics over the reliable-delivery layer
    #: (acks, retransmission, per-sender dedup/reorder windows).  None =
    #: automatic: enabled exactly when :attr:`bus_faults` injects faults.
    reliable_ipc: Optional[bool] = None
    #: Also advertise each router's loopback (its router id, a /32) into
    #: OSPF in single-domain scenarios.  Interdomain configurations always
    #: do this (iBGP needs it); traffic experiments enable it so fluid
    #: demands have a routable per-router destination address.  Off by
    #: default — the OSPF-only golden traces pin the no-loopback configs.
    advertise_loopbacks: bool = False


class AutoConfigFramework:
    """The assembled automatic-configuration framework."""

    TOPOLOGY_SLICE = "topology"

    def __init__(self, sim: Simulator, config: Optional[FrameworkConfig] = None,
                 ipam: Optional[IPAddressManager] = None) -> None:
        self.sim = sim
        self.config = config if config is not None else FrameworkConfig()
        self.ipam = ipam if ipam is not None else IPAddressManager()
        self.gui = ConfigurationGUI(sim)
        self.manual_model = ManualConfigurationModel()

        # The explicit control-plane bus every IPC hop runs over.  Fault
        # profiles and the reliability table must be in place before any
        # component wires itself to the bus: publishers and consumers
        # consult them at construction time.
        self.bus = MessageBus(sim, name="control-bus",
                              fault_seed=self.config.bus_fault_seed)
        reliable_ipc = self.config.reliable_ipc
        if reliable_ipc is None:
            reliable_ipc = bool(self.config.bus_faults)
        self.reliable_ipc = reliable_ipc
        if reliable_ipc:
            self.bus.enable_reliability()
        for pattern, params in (self.config.bus_faults or {}).items():
            self.bus.configure_faults(pattern, ChannelFaults.from_dict(params))
        vm_boot_delay = self.config.vm_boot_delay
        if not math.isfinite(vm_boot_delay):
            raise ValueError(f"vm_boot_delay must be finite, got {vm_boot_delay}")
        if vm_boot_delay < 0:
            raise ValueError(f"vm_boot_delay must be >= 0, got {vm_boot_delay}")
        num_controllers = self.config.controllers
        if num_controllers < 1:
            raise ValueError(f"controllers must be >= 1, got {num_controllers}")
        if num_controllers > 1 and not self.config.use_flowvisor:
            raise ValueError(
                "sharded deployments (controllers > 1) need FlowVisor: the "
                "topology-controller slice is what lets one discovery module "
                "see switches owned by every shard")
        if self.config.enable_bgp and not self.config.as_map:
            raise ValueError(
                "enable_bgp needs an as_map (dpid -> AS number): interdomain "
                "scenarios derive one from the topology via "
                "as_map_from_topology")
        #: Shared BGP session broker (one per deployment — eBGP sessions
        #: may cross controller shards); None in OSPF-only deployments.
        self.bgp_broker: Optional[BGPSessionBroker] = (
            BGPSessionBroker(sim) if self.config.enable_bgp else None)

        #: The RouteFlow control plane the RPC server and the milestone
        #: monitor talk to.
        self.control_plane = ShardedControlPlane(
            sim, bus=self.bus,
            partitioner=make_partitioner(self.config.partitioner,
                                         num_controllers,
                                         as_map=self.config.as_map),
            vm_boot_delay=self.config.vm_boot_delay,
            serialize_vm_creation=self.config.serialize_vm_creation,
            bgp_broker=self.bgp_broker)
        self.shards: List[ControllerShard] = self.control_plane.shards
        # The RF-controller, or with shards the coordinator host, shard 0.
        first = self.shards[0]
        self.rf_controller = first.controller
        self.rfproxy = first.rfproxy
        self.rfserver = first.rfserver

        # RPC server (inside the RF-controller) and RPC client.
        self.rpc_server = RPCServer(
            sim, self.control_plane, ipam=self.ipam,
            ospf_hello_interval=self.config.ospf_hello_interval,
            ospf_dead_interval=self.config.ospf_dead_interval,
            as_map=self.config.as_map if self.config.enable_bgp else None,
            as_relationships=(self.config.as_relationships
                              if self.config.enable_bgp else None),
            ibgp_route_reflector=self.config.ibgp_route_reflector,
            advertise_loopbacks=self.config.advertise_loopbacks)
        self.rpc_server.on_switch_configured(self.gui.mark_configured)
        self.rpc_client = RPCClient(sim, self.rpc_server, bus=self.bus)

        # Topology controller (discovery + configuration-message generation).
        if self.config.use_flowvisor:
            self.topology_controller, _, self.topology_app = \
                build_topology_controller(
                    sim, self.rpc_client, ipam=self.ipam,
                    probe_interval=self.config.discovery_probe_interval,
                    edge_port_grace=self.config.edge_port_grace,
                    detect_edge_ports=self.config.detect_edge_ports)
            flowspace = build_flowspace(
                self.TOPOLOGY_SLICE, [shard.slice_name for shard in self.shards])
            self.flowvisor: Optional[FlowVisor] = FlowVisor(sim, flowspace)
            self.flowvisor.add_slice(self.TOPOLOGY_SLICE, self.topology_controller)
            # Slice membership follows the control plane's *ownership*
            # map, not the static partitioner: after a takeover or a
            # reshard the new owner's slice covers the dpid, and
            # FlowVisor.rehome_datapath moves the slice channels.
            for shard in self.shards:
                self.flowvisor.add_slice(
                    shard.slice_name, shard.controller,
                    datapaths=lambda dpid, shard_id=shard.shard_id:
                        self.control_plane.membership.owner_of(dpid)
                        == shard_id)
            self.control_plane.on_ownership_change = \
                self.flowvisor.rehome_datapath
        else:
            # Single-controller deployment: discovery runs on the RF-controller
            # and switches connect to it directly.
            self.topology_controller, _, self.topology_app = \
                build_topology_controller(
                    sim, self.rpc_client, ipam=self.ipam,
                    probe_interval=self.config.discovery_probe_interval,
                    edge_port_grace=self.config.edge_port_grace,
                    controller=self.rf_controller,
                    detect_edge_ports=self.config.detect_edge_ports)
            self.flowvisor = None

        # Milestone tracking.
        self.milestones: Dict[str, float] = {}
        self._expected_switches = 0
        self._expected_links = 0
        self._monitor = PeriodicTask(sim, self.config.monitor_interval,
                                     self._sample_milestones, name="framework:monitor")
        self.network: Optional[EmulatedNetwork] = None

    # ------------------------------------------------------------------ wiring
    def attach(self, network: EmulatedNetwork) -> None:
        """Connect an emulated network's switches to the control plane."""
        if self.network is not None:
            raise RuntimeError("framework is already attached to a network")
        self.network = network
        self._expected_switches = network.num_switches
        self._expected_links = network.num_links
        # Partitioners that need the datapath universe (contiguous) get
        # it from the topology, before any switch connects.
        self.control_plane.membership.seed(
            node.node_id for node in network.topology.nodes)
        network.add_failure_listener(self._failure_listener)
        for node in network.topology.nodes:
            self.gui.add_switch(node.node_id, label=node.name)
        if self.flowvisor is not None:
            network.connect_control_plane(self.flowvisor.accept_switch_channel,
                                          self.flowvisor)
        else:
            network.connect_control_plane(self.rf_controller.accept_channel,
                                          self.rf_controller)
        self._monitor.start()

    def _bus_endpoint_pair(self, event) -> tuple:
        """The bus endpoint labels a partition event refers to: shard
        ``node_a`` against shard ``node_b``, or — with node_b omitted —
        against the coordination plane."""
        partner = "plane" if event.node_b is None else f"shard:{event.node_b}"
        return f"shard:{event.node_a}", partner

    def _failure_listener(self, event) -> None:
        """Execute a failure schedule's bus and shard events.  A
        ``reshard`` onto a shard failed by then is logged, not raised: the
        schedule was generated against an earlier shard state."""
        from repro.scenarios.events import FailureAction

        plane = self.control_plane
        if event.action == FailureAction.BUS_DEGRADE:
            params = event.params_dict
            patterns = str(params.pop("topics", "routeflow.*"))
            profile = ChannelFaults.from_dict(params)
            for pattern in patterns.split(","):
                self.bus.configure_faults(pattern.strip(), profile)
        elif event.action == FailureAction.BUS_PARTITION:
            endpoint_a, endpoint_b = self._bus_endpoint_pair(event)
            self.bus.partition(endpoint_a, endpoint_b)
        elif event.action == FailureAction.BUS_HEAL:
            if event.node_a < 0:
                self.bus.clear_faults()
                self.bus.heal_partition()
            else:
                self.bus.heal_partition(*self._bus_endpoint_pair(event))
        elif event.action == FailureAction.SHARD_DOWN:
            plane.fail_shard(event.node_a)
        elif event.action == FailureAction.SHARD_UP:
            plane.restore_shard(event.node_a)
        elif event.action == FailureAction.SHARD_FAILOVER:
            plane.fail_shard(event.node_a)
            plane.takeover(event.node_a)
        elif event.action == FailureAction.RESHARD:
            try:
                plane.reshard(event.node_a, event.node_b)
            except PartitionError as exc:
                LOG.warning("framework: injected reshard rejected: %s", exc)

    # -------------------------------------------------------------- milestones
    def _sample_milestones(self) -> None:
        self._check_milestone("all_switches_discovered",
                              len(self.topology_app.known_switches) >= self._expected_switches)
        self._check_milestone("all_links_discovered",
                              self.topology_app.known_link_count >= self._expected_links)
        self._check_milestone("all_switches_configured",
                              self.gui.all_green
                              and len(self.gui.green_switches) >= self._expected_switches)
        self._check_milestone("all_vms_running",
                              self.control_plane.vm_count >= self._expected_switches
                              and self.control_plane.all_vms_running())
        self._check_milestone("ospf_converged",
                              self.control_plane.vm_count >= self._expected_switches
                              and self.rpc_server.configured_link_count >= self._expected_links
                              and self.control_plane.ospf_converged())

    def _check_milestone(self, name: str, reached: bool) -> None:
        if reached and name not in self.milestones:
            self.milestones[name] = self.sim.now
            LOG.info("framework: milestone %s at t=%.1fs", name, self.sim.now)

    @property
    def configuration_complete(self) -> bool:
        """The paper's definition of "configured": routing is up everywhere."""
        return "ospf_converged" in self.milestones

    @property
    def configuration_time(self) -> Optional[float]:
        """Simulated seconds from start to full configuration, if reached."""
        return self.milestones.get("ospf_converged")

    def run_until_configured(self, max_time: float = 3600.0,
                             settle: float = 0.0) -> Optional[float]:
        """Run the simulation until the framework is fully configured.

        Returns the configuration time (or None when ``max_time`` elapsed
        first).  ``settle`` runs the simulation a bit longer afterwards so
        post-convergence activity (flow installation, data traffic) happens.
        """
        step = max(self.config.monitor_interval, 1.0)
        while self.sim.now < max_time and not self.configuration_complete:
            self.sim.run(until=min(self.sim.now + step, max_time))
        result = self.configuration_time
        if result is not None and settle > 0:
            self.sim.run(until=result + settle)
        return result

    # ------------------------------------------------------------------ report
    def shard_loads(self) -> List[Dict[str, int]]:
        """Per-shard control-plane load counters (``repro ctlscale``'s
        rows)."""
        return [shard.rfserver.load() for shard in self.shards]

    def __repr__(self) -> str:
        return (f"<AutoConfigFramework switches={self._expected_switches} "
                f"milestones={sorted(self.milestones)}>")
