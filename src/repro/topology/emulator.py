"""The network emulator: turns a :class:`Topology` into live simulated gear.

This plays the role of the second laptop in the paper's demo setup (and of
the namespace-per-switch OFELIA node in the §2.1 experiments): it
instantiates one OpenFlow switch per topology node, cables switch ports
according to the topology links, attaches end hosts to edge ports and
finally connects every switch's control channel to whatever control plane
the experiment provides (FlowVisor or a single controller).

Host addressing is taken from the same :class:`IPAddressManager` the
framework uses, mirroring the fact that host subnets are part of the
administrator's small static input.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.ipam import IPAddressManager
from repro.net.addresses import IPv4Address, MACAddress
from repro.net.host import Host
from repro.net.link import Link, connect
from repro.net.namespace import NamespaceRegistry
from repro.openflow.channel import ControlChannel
from repro.openflow.switch import OpenFlowSwitch
from repro.sim import Simulator
from repro.topology.graph import Topology

LOG = logging.getLogger(__name__)


@dataclass
class HostInfo:
    """Where a host lives and how it is addressed."""

    host: Host
    datapath_id: int
    port_no: int
    gateway: IPv4Address


class EmulatedNetwork:
    """Live switches, hosts and links built from a topology description."""

    #: Latency of the switch -> control-plane channels.
    CONTROL_CHANNEL_LATENCY = 0.002
    #: Stagger between successive switch control-plane connections, modelling
    #: switches coming up one after another on the emulation host.
    SWITCH_CONNECT_STAGGER = 0.1

    def __init__(self, sim: Simulator, topology: Topology,
                 ipam: Optional[IPAddressManager] = None) -> None:
        self.sim = sim
        self.topology = topology
        self.ipam = ipam if ipam is not None else IPAddressManager()
        self.namespaces = NamespaceRegistry()
        self.switches: Dict[int, OpenFlowSwitch] = {}
        self.hosts: Dict[str, HostInfo] = {}
        self.links: List[Link] = []
        #: (node_a, node_b) canonical -> (port on a, port on b)
        self.link_ports: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._next_port: Dict[int, int] = {}
        self._control_channels: Dict[int, ControlChannel] = {}
        self._failure_listeners: List[Callable[[object], None]] = []
        self.failures_applied = 0
        #: Failure-injection state: explicitly failed links (canonical node
        #: pairs) and fail-stopped nodes.  A link is operationally up only
        #: when it is not failed itself and neither endpoint is — so
        #: recovering a node cannot resurrect a link whose other end is
        #: still down, and vice versa.
        self._failed_links: set = set()
        self._failed_nodes: set = set()
        self._build()

    # ------------------------------------------------------------------ build
    def _build(self) -> None:
        for node in self.topology.nodes:
            switch = OpenFlowSwitch(self.sim, datapath_id=node.node_id, name=node.name)
            self.switches[node.node_id] = switch
            self._next_port[node.node_id] = 1
            self.namespaces.create(node.name).attach_device(switch)
        for link in self.topology.links:
            self._build_link(link.node_a, link.node_b, link.delay, link.bandwidth_bps)
        for index, attachment in enumerate(self.topology.hosts):
            self._build_host(attachment.host_name, attachment.node_id, index)

    def _take_port(self, node_id: int) -> int:
        port = self._next_port[node_id]
        self._next_port[node_id] = port + 1
        return port

    def _build_link(self, node_a: int, node_b: int, delay: float,
                    bandwidth_bps: float) -> None:
        switch_a = self.switches[node_a]
        switch_b = self.switches[node_b]
        port_a = self._take_port(node_a)
        port_b = self._take_port(node_b)
        iface_a = self._make_switch_interface(switch_a, port_a)
        iface_b = self._make_switch_interface(switch_b, port_b)
        link = connect(self.sim, iface_a, iface_b, delay=delay,
                       bandwidth_bps=bandwidth_bps)
        self.links.append(link)
        key = (min(node_a, node_b), max(node_a, node_b))
        if key[0] == node_a:
            self.link_ports[key] = (port_a, port_b)
        else:
            self.link_ports[key] = (port_b, port_a)

    def _make_switch_interface(self, switch: OpenFlowSwitch, port_no: int):
        from repro.net.link import Interface

        name = f"{switch.name}-eth{port_no}"
        mac = MACAddress.from_local_id(switch.datapath_id, port_no)
        interface = Interface(name=name, mac=mac, owner=switch, port_no=port_no)
        switch.add_port(port_no, interface)
        self.namespaces.get(switch.name).add_interface(interface)
        return interface

    def _build_host(self, host_name: str, node_id: int, index: int) -> None:
        switch = self.switches[node_id]
        port_no = self._take_port(node_id)
        switch_iface = self._make_switch_interface(switch, port_no)
        allocation = self.ipam.allocate_edge_port(node_id, port_no)
        host_ip = IPv4Address(int(allocation.network.network) + 100 + index)
        host_mac = MACAddress.from_local_id(0x200000 + node_id, port_no)
        host = Host(self.sim, name=host_name, mac=host_mac, ip=host_ip,
                    prefix_len=allocation.prefix_len, gateway=allocation.gateway)
        connect(self.sim, host.interface, switch_iface, delay=0.0005)
        namespace = self.namespaces.create(host_name)
        namespace.attach_device(host)
        namespace.add_interface(host.interface)
        self.hosts[host_name] = HostInfo(host=host, datapath_id=node_id,
                                         port_no=port_no, gateway=allocation.gateway)
        LOG.info("emulator: host %s = %s/%d gw %s on %s port %d", host_name, host_ip,
                 allocation.prefix_len, allocation.gateway, switch.name, port_no)

    # ---------------------------------------------------------- control plane
    def connect_control_plane(self, accept_channel: Callable[[ControlChannel], None],
                              endpoint: object) -> None:
        """Connect every switch to the control plane.

        ``endpoint`` is the controller-side channel endpoint (a FlowVisor or a
        Controller); ``accept_channel`` is the method that registers a new
        switch-facing channel on it.  Switch connections are staggered.
        """
        for offset, node_id in enumerate(sorted(self.switches)):
            switch = self.switches[node_id]
            channel = ControlChannel(self.sim, latency=self.CONTROL_CHANNEL_LATENCY,
                                     name=f"ctl:{switch.name}")
            channel.connect(switch, endpoint)
            self._control_channels[node_id] = channel
            delay = offset * self.SWITCH_CONNECT_STAGGER
            self.sim.schedule(delay, self._bring_up_switch, switch, channel,
                              accept_channel, label=f"emulator:connect:{switch.name}")

    def _bring_up_switch(self, switch: OpenFlowSwitch, channel: ControlChannel,
                         accept_channel: Callable[[ControlChannel], None]) -> None:
        accept_channel(channel)
        switch.connect_to_controller(channel)

    # ---------------------------------------------------------------- queries
    def host(self, name: str) -> Host:
        return self.hosts[name].host

    def switch(self, node_id: int) -> OpenFlowSwitch:
        return self.switches[node_id]

    def control_channel(self, node_id: int) -> ControlChannel:
        return self._control_channels[node_id]

    def ports_for_link(self, node_a: int, node_b: int) -> Tuple[int, int]:
        """(port on node_a, port on node_b) for a topology link."""
        key = (min(node_a, node_b), max(node_a, node_b))
        port_low, port_high = self.link_ports[key]
        if node_a <= node_b:
            return port_low, port_high
        return port_high, port_low

    # ------------------------------------------------------- failure injection
    def fail_link(self, node_a: int, node_b: int) -> None:
        """Take a switch-to-switch link down (failure injection)."""
        self._failed_links.add(self._canonical(node_a, node_b))
        self._apply_effective_state(node_a, node_b)

    def restore_link(self, node_a: int, node_b: int) -> None:
        """Lift an explicit link failure (the link stays down while either
        endpoint node is still fail-stopped)."""
        self._failed_links.discard(self._canonical(node_a, node_b))
        self._apply_effective_state(node_a, node_b)

    def fail_node(self, node_id: int) -> None:
        """Fail-stop a switch: every incident link drops."""
        self._failed_nodes.add(node_id)
        for node_a, node_b in self.links_of(node_id):
            self._apply_effective_state(node_a, node_b)

    def restore_node(self, node_id: int) -> None:
        """Recover a failed switch.  Incident links come back only if they
        are not themselves failed and their other endpoint is up too."""
        self._failed_nodes.discard(node_id)
        for node_a, node_b in self.links_of(node_id):
            self._apply_effective_state(node_a, node_b)

    def links_of(self, node_id: int) -> List[Tuple[int, int]]:
        """The (node_a, node_b) pairs of every link incident to a node."""
        return [(link.node_a, link.node_b) for link in self.topology.links
                if node_id in (link.node_a, link.node_b)]

    @staticmethod
    def _canonical(node_a: int, node_b: int) -> Tuple[int, int]:
        return (min(node_a, node_b), max(node_a, node_b))

    def _apply_effective_state(self, node_a: int, node_b: int) -> None:
        up = (self._canonical(node_a, node_b) not in self._failed_links
              and node_a not in self._failed_nodes
              and node_b not in self._failed_nodes)
        port_a, _ = self.ports_for_link(node_a, node_b)
        interface = self.switches[node_a].port(port_a).interface
        if interface.link is None:
            return
        if up:
            interface.link.set_up()
        else:
            interface.link.set_down()

    def add_failure_listener(self, listener: Callable[[object], None]) -> None:
        """Subscribe to executed failure events (fires after the physical
        change; RouteFlow uses this to mirror it into the virtual topology)."""
        self._failure_listeners.append(listener)

    def apply_failure_event(self, event) -> None:
        """Execute one :class:`~repro.scenarios.FailureEvent` right now."""
        from repro.scenarios.events import FailureAction

        if event.action == FailureAction.LINK_DOWN:
            self.fail_link(event.node_a, event.node_b)
        elif event.action == FailureAction.LINK_UP:
            self.restore_link(event.node_a, event.node_b)
        elif event.action == FailureAction.NODE_DOWN:
            self.fail_node(event.node_a)
        elif event.action == FailureAction.NODE_UP:
            self.restore_node(event.node_a)
        elif event.action in FailureAction.CONTROL_ACTIONS:
            # Controller-shard failures and resharding leave the physical
            # network alone; the control plane acts on them through a
            # failure listener.
            pass
        else:  # pragma: no cover - schedules validate their actions
            raise ValueError(f"unknown failure action {event.action!r}")
        self.failures_applied += 1
        LOG.info("emulator: t=%.1fs %s", self.sim.now, event.describe())
        for listener in self._failure_listeners:
            listener(event)

    def schedule_failures(self, schedule) -> int:
        """Arm a :class:`~repro.scenarios.FailureSchedule` as kernel events.

        Event times are interpreted relative to the current simulated time
        (the failover experiment arms the schedule at configuration
        completion).  Every event target is validated against the topology
        up front — an unknown link or node raises
        :class:`~repro.scenarios.FailureScheduleError` before anything is
        armed.  Returns the number of events scheduled.
        """
        schedule.validate_against(
            self.switches, ((a, b) for a, b in self.link_ports))
        for event in schedule:
            self.sim.schedule(event.time, self.apply_failure_event, event,
                              label=f"failure:{event.action}")
        return len(schedule)

    # ------------------------------------------------------------- statistics
    def stats(self) -> Dict[str, int]:
        """Aggregate delivery/drop counters over the physical network.

        Sums the interface counters of every switch port and host NIC plus
        the per-link frame counters (host access links included).  The
        failover experiment diffs consecutive snapshots to report frames
        lost per failure.
        """
        totals = {"tx_packets": 0, "rx_packets": 0, "tx_dropped": 0,
                  "rx_dropped": 0, "link_tx_frames": 0, "link_dropped_frames": 0}
        interfaces = [port.interface for switch in self.switches.values()
                      for port in switch.ports.values()]
        interfaces += [info.host.interface for info in self.hosts.values()]
        links = {id(link): link for link in self.links}
        for interface in interfaces:
            counters = interface.stats()
            totals["tx_packets"] += counters["tx_packets"]
            totals["rx_packets"] += counters["rx_packets"]
            totals["tx_dropped"] += counters["tx_dropped"]
            totals["rx_dropped"] += counters["rx_dropped"]
            if interface.link is not None:
                links.setdefault(id(interface.link), interface.link)
        for link in links.values():
            counters = link.stats()
            totals["link_tx_frames"] += counters["tx_frames"]
            totals["link_dropped_frames"] += counters["dropped_frames"]
        totals["frames_delivered"] = totals["rx_packets"]
        totals["frames_dropped"] = (totals["tx_dropped"] + totals["rx_dropped"]
                                    + totals["link_dropped_frames"])
        return totals

    @property
    def num_switches(self) -> int:
        return len(self.switches)

    @property
    def num_links(self) -> int:
        return len(self.topology.links)

    def __repr__(self) -> str:
        return (f"<EmulatedNetwork {self.topology.name} switches={len(self.switches)} "
                f"hosts={len(self.hosts)}>")
