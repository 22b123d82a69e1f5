"""The topology controller of the automatic-configuration framework.

A dedicated controller runs the LLDP topology-discovery module (§2, item 2
of the paper) and holds the administrator's only manual input: the address
ranges for the virtual environment.  On every discovered switch or link it
computes the required configuration and emits a configuration message
towards the RPC client, which forwards it to the RPC server inside the
RF-controller.

Ports on which no link is ever discovered are treated as edge ports (hosts
live behind them); after a grace period they are assigned a /24 whose .1
becomes the gateway address of the mirroring VM interface.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional, Set, Tuple

from repro.controller.base import Controller
from repro.controller.discovery import DiscoveredLink, TopologyDiscovery
from repro.core.config_messages import (
    EdgePortConfigMessage,
    LinkConfigMessage,
    SwitchConfigMessage,
    SwitchRemovedMessage,
)
from repro.core.ipam import IPAddressManager
from repro.core.rpc import RPCClient
from repro.sim import PeriodicTask, Simulator

LOG = logging.getLogger(__name__)

#: How often (seconds) link-less ports are checked against the edge grace.
EDGE_SCAN_INTERVAL = 2.0


class TopologyControllerApp:
    """Glue between the discovery module, the IPAM and the RPC client."""

    def __init__(self, sim: Simulator, discovery: TopologyDiscovery,
                 rpc_client: RPCClient, ipam: Optional[IPAddressManager] = None,
                 edge_port_grace: float = 12.0,
                 detect_edge_ports: bool = True) -> None:
        self.sim = sim
        self.rpc_client = rpc_client
        self.ipam = ipam if ipam is not None else IPAddressManager()
        self.edge_port_grace = edge_port_grace
        self.detect_edge_ports = detect_edge_ports
        #: switch id -> (discovery time, port numbers)
        self._switches: Dict[int, Tuple[float, List[int]]] = {}
        self._announced_links: Set[Tuple[int, int, int, int]] = set()
        self._linked_ports: Set[Tuple[int, int]] = set()
        self._edge_ports: Set[Tuple[int, int]] = set()
        discovery.on_switch_discovered(self._on_switch)
        discovery.on_switch_lost(self._on_switch_lost)
        discovery.on_link_discovered(self._on_link)
        self._edge_task = PeriodicTask(sim, EDGE_SCAN_INTERVAL, self._scan_edge_ports,
                                       name="topoctl:edge-scan")
        if detect_edge_ports:
            self._edge_task.start()

    # --------------------------------------------------------------- switches
    def _on_switch(self, datapath_id: int, ports: List[int]) -> None:
        if datapath_id in self._switches:
            return
        self._switches[datapath_id] = (self.sim.now, list(ports))
        message = SwitchConfigMessage(switch_id=datapath_id, num_ports=len(ports))
        self.rpc_client.send(message)
        LOG.info("topology-controller: switch %#x -> config message (%d ports)",
                 datapath_id, len(ports))

    def _on_switch_lost(self, datapath_id: int) -> None:
        """A switch connection went away: tell the RPC server to tear down its VM."""
        if datapath_id not in self._switches:
            return
        del self._switches[datapath_id]
        self._linked_ports = {(dpid, port) for dpid, port in self._linked_ports
                              if dpid != datapath_id}
        self._edge_ports = {(dpid, port) for dpid, port in self._edge_ports
                            if dpid != datapath_id}
        self._announced_links = {key for key in self._announced_links
                                 if key[0] != datapath_id and key[2] != datapath_id}
        self.rpc_client.send(SwitchRemovedMessage(switch_id=datapath_id))
        LOG.info("topology-controller: switch %#x lost -> removal message", datapath_id)

    # ------------------------------------------------------------------ links
    def _on_link(self, link: DiscoveredLink) -> None:
        key = IPAddressManager.canonical_link(link.src_dpid, link.src_port,
                                              link.dst_dpid, link.dst_port)
        if key in self._announced_links:
            return
        self._announced_links.add(key)
        self._linked_ports.add((link.src_dpid, link.src_port))
        self._linked_ports.add((link.dst_dpid, link.dst_port))
        allocation = self.ipam.allocate_link(link.src_dpid, link.src_port,
                                             link.dst_dpid, link.dst_port)
        dpid_a, port_a, dpid_b, port_b = key
        message = LinkConfigMessage(
            dpid_a=dpid_a, port_a=port_a, address_a=str(allocation.address_a),
            dpid_b=dpid_b, port_b=port_b, address_b=str(allocation.address_b),
            prefix_len=allocation.prefix_len)
        self.rpc_client.send(message)
        LOG.info("topology-controller: link %s -> config message (%s)",
                 link, allocation.network)

    # ------------------------------------------------------------- edge ports
    def _scan_edge_ports(self) -> None:
        """Declare ports without links as edge ports after the grace period."""
        now = self.sim.now
        for datapath_id, (seen_at, ports) in self._switches.items():
            if now - seen_at < self.edge_port_grace:
                continue
            for port_no in ports:
                key = (datapath_id, port_no)
                if key in self._linked_ports or key in self._edge_ports:
                    continue
                self._edge_ports.add(key)
                allocation = self.ipam.allocate_edge_port(datapath_id, port_no)
                message = EdgePortConfigMessage(
                    datapath_id=datapath_id, port_no=port_no,
                    gateway=str(allocation.gateway),
                    prefix_len=allocation.prefix_len)
                self.rpc_client.send(message)
                LOG.info("topology-controller: edge port %#x:%d -> %s",
                         datapath_id, port_no, allocation.network)

    # ------------------------------------------------------------------ status
    @property
    def known_switches(self) -> List[int]:
        return sorted(self._switches)

    @property
    def known_link_count(self) -> int:
        return len(self._announced_links)

    @property
    def edge_port_count(self) -> int:
        return len(self._edge_ports)


def build_topology_controller(sim: Simulator, rpc_client: RPCClient,
                              ipam: Optional[IPAddressManager] = None,
                              probe_interval: float = 5.0,
                              edge_port_grace: float = 12.0,
                              controller: Optional[Controller] = None,
                              detect_edge_ports: bool = True
                              ) -> Tuple[Controller, TopologyDiscovery, TopologyControllerApp]:
    """Assemble a controller running discovery plus the configuration glue.

    Passing an existing ``controller`` registers the discovery app on it
    instead of creating a dedicated one (used by the single-controller
    ablation).
    """
    owner = controller if controller is not None else Controller(sim, name="topology-controller")
    discovery = TopologyDiscovery(probe_interval=probe_interval)
    owner.register_app(discovery)
    app = TopologyControllerApp(sim=sim, discovery=discovery, rpc_client=rpc_client,
                                ipam=ipam, edge_port_grace=edge_port_grace,
                                detect_edge_ports=detect_edge_ports)
    return owner, discovery, app
