"""RFProxy: the RouteFlow application running on the RF-controller.

RFProxy turns the routes exported by the VMs into OpenFlow flow entries on
the mirrored physical switches, answers ARP on behalf of the VM gateway
interfaces, and learns where end hosts live so that connected prefixes can
be resolved to exact host flows on the edge switches.  Each RFServer
builds its own proxy; when a dpid moves to another controller shard,
:meth:`RFProxy.hand_over` carries the proxy's records of it across and
:meth:`RFProxy.reconcile` drops the ones the VM's FIB no longer backs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.net.addresses import IPv4Address, IPv4Network, MACAddress
from repro.net.arp import ARP
from repro.net.ethernet import Ethernet, EtherType
from repro.net.ipv4 import IPv4
from repro.net.packet import DecodeError
from repro.controller.base import ControllerApp, DatapathConnection
from repro.openflow.actions import OutputAction, SetDlDstAction, SetDlSrcAction
from repro.openflow.constants import OFPFlowModCommand
from repro.openflow.match import Match
from repro.openflow.messages import PacketIn
from repro.routeflow.vm import port_interface

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.routeflow.rfserver import RFServer

LOG = logging.getLogger(__name__)

#: Base flow priority; longer prefixes get proportionally higher priorities
#: so longest-prefix-match is preserved inside the single OpenFlow table.
ROUTE_PRIORITY_BASE = 32000


@dataclass
class FlowSpec:
    """A fully resolved route ready to be installed as a flow entry."""

    datapath_id: int
    prefix: IPv4Network
    out_port: int
    src_mac: MACAddress
    dst_mac: Optional[MACAddress]   # None until the destination host is learned
    metric: int = 0

    @property
    def priority(self) -> int:
        return ROUTE_PRIORITY_BASE + self.prefix.prefix_len


@dataclass
class HostEntry:
    """A learned end host."""

    ip: IPv4Address
    mac: MACAddress
    datapath_id: int
    port_no: int
    learned_at: float


class RFProxy(ControllerApp):
    """RouteFlow's controller-side application."""

    def __init__(self, rfserver: "RFServer") -> None:
        super().__init__(name="rfproxy")
        self.rfserver = rfserver
        self.hosts: Dict[IPv4Address, HostEntry] = {}
        #: Connected prefixes awaiting host discovery: (dpid, prefix) -> FlowSpec
        self._pending_connected: Dict[Tuple[int, str], FlowSpec] = {}
        #: Everything installed, for inspection: (dpid, prefix) -> FlowSpec
        self.installed_flows: Dict[Tuple[int, str], FlowSpec] = {}
        #: (dpid, destination ip) -> last time we ARPed for it on behalf of
        #: the gateway, to resolve silent hosts on connected subnets.
        self._gateway_arp_sent: Dict[Tuple[int, IPv4Address], float] = {}
        self.flows_installed = 0
        self.flows_removed = 0
        #: Installs that re-sent a spec identical to the one already in
        #: place for (dpid, prefix).  Flow installation is idempotent —
        #: the switch overwrites by (match, priority) and the record dict
        #: overwrites by key — so duplicates are harmless, but under a
        #: lossy bus (retransmits, resyncs) this counter shows how much
        #: redundant work reached the proxy.
        self.duplicate_installs = 0

    # ------------------------------------------------------------ route flows
    def install_route(self, spec: FlowSpec) -> None:
        """Install (or stage) the flow entry for a resolved route."""
        key = (spec.datapath_id, str(spec.prefix))
        if spec.dst_mac is None:
            # Connected prefix: we can only forward once the destination host
            # is learned; the edge flow then becomes an exact /32.
            previous = self.installed_flows.pop(key, None)
            if previous is not None:
                # The prefix was being *routed* until now (an alternate path
                # carried it while the connected link was down); that flow
                # is stale the moment the connected route wins the FIB.
                connection = self._connection(spec.datapath_id)
                if connection is not None:
                    match = Match.for_destination_prefix(
                        spec.prefix.network, spec.prefix.prefix_len)
                    connection.send_flow_mod(
                        match=match, actions=[],
                        command=OFPFlowModCommand.DELETE,
                        priority=previous.priority)
                    self.flows_removed += 1
            self._pending_connected[key] = spec
            self._install_flows_for_known_hosts(spec)
            return
        if self.installed_flows.get(key) == spec:
            self.duplicate_installs += 1
        self._send_flow(spec, command=OFPFlowModCommand.ADD)
        self.installed_flows[key] = spec

    def remove_route(self, datapath_id: int, prefix: IPv4Network) -> None:
        """Remove the flow(s) previously installed for a route."""
        key = (datapath_id, str(prefix))
        self._pending_connected.pop(key, None)
        spec = self.installed_flows.pop(key, None)
        connection = self._connection(datapath_id)
        if connection is None:
            return
        match = Match.for_destination_prefix(prefix.network, prefix.prefix_len)
        connection.send_flow_mod(match=match, actions=[],
                                 command=OFPFlowModCommand.DELETE,
                                 priority=ROUTE_PRIORITY_BASE + prefix.prefix_len)
        if spec is not None:
            self.flows_removed += 1

    def _send_flow(self, spec: FlowSpec, command: int) -> None:
        connection = self._connection(spec.datapath_id)
        if connection is None:
            LOG.warning("rfproxy: datapath %#x not connected; cannot install %s",
                        spec.datapath_id, spec.prefix)
            return
        match = Match.for_destination_prefix(spec.prefix.network, spec.prefix.prefix_len)
        actions = [SetDlSrcAction(spec.src_mac)]
        if spec.dst_mac is not None:
            actions.append(SetDlDstAction(spec.dst_mac))
        actions.append(OutputAction(spec.out_port))
        connection.send_flow_mod(match=match, actions=actions, command=command,
                                 priority=spec.priority)
        self.flows_installed += 1

    def _install_flows_for_known_hosts(self, spec: FlowSpec) -> None:
        """Turn a connected-prefix spec into exact flows for learned hosts."""
        for host in list(self.hosts.values()):
            if host.datapath_id != spec.datapath_id:
                continue
            if host.ip not in spec.prefix:
                continue
            self._install_host_flow(spec, host)

    def _install_host_flow(self, spec: FlowSpec, host: HostEntry) -> None:
        host_prefix = IPv4Network((host.ip, 32))
        host_spec = FlowSpec(datapath_id=spec.datapath_id, prefix=host_prefix,
                             out_port=host.port_no, src_mac=spec.src_mac,
                             dst_mac=host.mac, metric=spec.metric)
        key = (host_spec.datapath_id, str(host_prefix))
        if key in self.installed_flows:
            return
        self._send_flow(host_spec, command=OFPFlowModCommand.ADD)
        self.installed_flows[key] = host_spec

    def _connection(self, datapath_id: int) -> Optional[DatapathConnection]:
        if self.controller is None:
            return None
        return self.controller.connection_for(datapath_id)

    # --------------------------------------------------------------- packet-in
    def on_packet_in(self, connection: DatapathConnection, message: PacketIn) -> None:
        try:
            frame = Ethernet.decode(message.data)
        except DecodeError:
            return
        if frame.ethertype == EtherType.ARP and isinstance(frame.payload, ARP):
            self._handle_arp(connection, message.in_port, frame.payload)
        elif frame.ethertype == EtherType.IPV4 and isinstance(frame.payload, IPv4):
            self._learn_host(connection.datapath_id, message.in_port,
                             frame.payload.src, frame.src)
            self._maybe_resolve_destination(connection, frame.payload.dst)

    def _handle_arp(self, connection: DatapathConnection, in_port: int, arp: ARP) -> None:
        self._learn_host(connection.datapath_id, in_port, arp.sender_ip, arp.sender_mac)
        if arp.opcode != ARP.REQUEST:
            return
        owner = self.rfserver.interface_owning_ip(arp.target_ip)
        if owner is None:
            return
        vm, interface = owner
        if self.rfserver.mapping.dpid_for_vm(vm.vm_id) != connection.datapath_id:
            return  # gateway belongs to a different switch
        reply = ARP.reply(sender_mac=interface.mac, sender_ip=arp.target_ip,
                          target_mac=arp.sender_mac, target_ip=arp.sender_ip)
        frame = Ethernet(src=interface.mac, dst=arp.sender_mac,
                         ethertype=EtherType.ARP, payload=reply)
        connection.send_packet_out(frame.encode(), out_port=in_port)

    def _maybe_resolve_destination(self, connection: DatapathConnection,
                                   destination: IPv4Address) -> None:
        """ARP for a silent host on a connected subnet of this switch.

        A packet towards a connected prefix whose host has never spoken (so
        no /32 flow exists yet) falls through to the controller; the gateway
        VM's kernel would ARP for it, and so do we on its behalf.
        """
        if destination in self.hosts:
            return
        datapath_id = connection.datapath_id
        for spec in list(self._pending_connected.values()):
            if spec.datapath_id != datapath_id or destination not in spec.prefix:
                continue
            now = self.controller.sim.now if self.controller else 0.0
            last = self._gateway_arp_sent.get((datapath_id, destination))
            if last is not None and now - last < 1.0:
                return
            vm = self.rfserver.vm_for_dpid(datapath_id)
            if vm is None:
                return
            gateway_iface = vm.interfaces.get(port_interface(spec.out_port))
            if gateway_iface is None or gateway_iface.ip is None:
                return
            request = ARP.request(sender_mac=gateway_iface.mac,
                                  sender_ip=gateway_iface.ip,
                                  target_ip=destination)
            frame = Ethernet(src=gateway_iface.mac, dst=MACAddress.broadcast(),
                             ethertype=EtherType.ARP, payload=request)
            connection.send_packet_out(frame.encode(), out_port=spec.out_port)
            self._gateway_arp_sent[(datapath_id, destination)] = now
            return

    def _learn_host(self, datapath_id: int, port_no: int, ip: IPv4Address,
                    mac: MACAddress) -> None:
        if ip.is_unspecified or ip.is_multicast:
            return
        if self.rfserver.interface_owning_ip(ip) is not None:
            return  # VM gateway addresses are not end hosts
        existing = self.hosts.get(ip)
        if existing is not None and existing.mac == mac and \
                existing.datapath_id == datapath_id and existing.port_no == port_no:
            return
        entry = HostEntry(ip=IPv4Address(ip), mac=MACAddress(mac),
                          datapath_id=datapath_id, port_no=port_no,
                          learned_at=self.controller.sim.now if self.controller else 0.0)
        self.hosts[entry.ip] = entry
        LOG.info("rfproxy: learned host %s (%s) at %#x:%d", entry.ip, entry.mac,
                 datapath_id, port_no)
        for spec in list(self._pending_connected.values()):
            if spec.datapath_id == datapath_id and entry.ip in spec.prefix:
                self._install_host_flow(spec, entry)

    # --------------------------------------------------------------- hand-over
    def hand_over(self, datapath_id: int, target: "RFProxy") -> None:
        """Move every record this proxy keeps for a datapath to ``target``:
        its installed flows, pending connected prefixes, learned hosts and
        gateway ARP stamps.  The switch's flow table is untouched, so the
        ``flows_current`` accounting is conserved across the move."""
        for key in [k for k in self.installed_flows if k[0] == datapath_id]:
            target.installed_flows[key] = self.installed_flows.pop(key)
        for key in [k for k in self._pending_connected if k[0] == datapath_id]:
            target._pending_connected[key] = self._pending_connected.pop(key)
        for address in [ip for ip, host in self.hosts.items()
                        if host.datapath_id == datapath_id]:
            target.hosts[address] = self.hosts.pop(address)
        for key in [k for k in self._gateway_arp_sent if k[0] == datapath_id]:
            target._gateway_arp_sent[key] = self._gateway_arp_sent.pop(key)

    def reconcile(self, datapath_id: int, fib: Mapping) -> None:
        """Drop this datapath's flows and pending connected prefixes whose
        route has left ``fib`` (the mirroring VM's zebra FIB).  A learned
        host's /32 flow stays while a connected prefix still covers it."""
        fib_prefixes = set()
        connected = []
        for prefix, route in fib.items():
            if route.interface == "lo":
                continue
            fib_prefixes.add(str(prefix))
            if route.next_hop is None:
                connected.append(prefix)
        for key in [k for k in self._pending_connected
                    if k[0] == datapath_id and k[1] not in fib_prefixes]:
            del self._pending_connected[key]
        for key, spec in list(self.installed_flows.items()):
            if key[0] != datapath_id or key[1] in fib_prefixes:
                continue
            if spec.prefix.prefix_len == 32 and any(
                    spec.prefix.network in prefix for prefix in connected):
                continue  # learned-host flow under a live connected prefix
            self.remove_route(datapath_id, spec.prefix)

    # ------------------------------------------------------------------ status
    def flows_on(self, datapath_id: int) -> List[FlowSpec]:
        return [spec for (dpid, _), spec in self.installed_flows.items()
                if dpid == datapath_id]

    def __repr__(self) -> str:
        return (f"<RFProxy hosts={len(self.hosts)} flows={len(self.installed_flows)} "
                f"pending={len(self._pending_connected)}>")
