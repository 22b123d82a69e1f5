"""The ospfd daemon: ties interfaces, LSDB, flooding and SPF together.

One :class:`OSPFDaemon` runs inside every RouteFlow virtual machine.  It is
configured exclusively from a parsed ``ospfd.conf`` (produced by the RPC
server), announces a Router LSA describing its point-to-point adjacencies
and connected prefixes, floods database changes, and installs the SPF
result into the VM's zebra RIB — from where the RouteFlow client exports
routes to the physical switch.
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, List, Optional, Set

from repro.net.addresses import IPv4Address, IPv4Network
from repro.net.packet import DecodeError
from repro.quagga.configfile import InterfaceConfig, OSPFConfig
from repro.quagga.ospf.constants import (
    ALL_SPF_ROUTERS,
    EXTERNAL_LSA_DELAY,
    EXTERNAL_METRIC,
    EXTERNAL_ROUTE_TAG,
    INITIAL_SEQUENCE,
    INTERFACE_COST,
    LS_REFRESH_TIME,
    MAX_AGE,
    SPF_DELAY,
    SPF_HOLDTIME,
    NeighborState,
)
from repro.quagga.ospf.interface import OSPFInterface
from repro.quagga.ospf.lsdb import LSDB
from repro.quagga.ospf.neighbor import Neighbor
from repro.quagga.ospf.packets import (LSUpdatePacket, OSPFPacket, RouterLSA,
                                       RouterLink)
from repro.quagga.ospf.spf import route_table
from repro.quagga.rib import Route, RouteSource
from repro.quagga.zebra import ZebraDaemon
from repro.sim import PeriodicTask, Simulator

LOG = logging.getLogger(__name__)

#: Transmit callback provided by the hosting VM:
#: ``send(interface_name, destination_ip, payload_bytes)``.
SendCallback = Callable[[str, IPv4Address, bytes], None]


class OSPFDaemon:
    """An OSPFv2 routing daemon for one virtual machine."""

    def __init__(self, sim: Simulator, zebra: ZebraDaemon, config: OSPFConfig,
                 interfaces: List[InterfaceConfig], send_callback: SendCallback,
                 hostname: str = "") -> None:
        if config.router_id is None:
            raise ValueError("OSPF configuration must carry a router id")
        self.sim = sim
        self.zebra = zebra
        self.config = config
        self.router_id = IPv4Address(config.router_id)
        self.hostname = hostname or config.hostname
        self.send_callback = send_callback
        self._spf_label = f"ospf:{self.hostname}:spf"
        #: RFC 2328 LSRefreshTime: re-originate our Router LSA periodically
        #: so it never reaches MaxAge in the area while we are alive —
        #: without this, :meth:`LSDB.expire_aged` would flush *healthy*
        #: routers' LSAs in any simulation longer than MAX_AGE.
        self._refresh_task = PeriodicTask(
            self.sim, LS_REFRESH_TIME, self._refresh_router_lsa,
            name=f"ospf:{self.hostname}:lsa-refresh")
        self.lsdb = LSDB()
        self.interfaces: Dict[str, OSPFInterface] = {}
        self._interface_configs = list(interfaces)
        self._sequence = INITIAL_SEQUENCE
        #: Passive (loopback) interfaces: advertised as stub prefixes in the
        #: Router LSA but running no hello machinery — interface name ->
        #: prefix.  Empty outside interdomain deployments.
        self._passive_prefixes: Dict[str, IPv4Network] = {}
        #: Redistributed AS-external prefixes (``redistribute bgp`` /
        #: ``redistribute connected``), carried at :data:`EXTERNAL_METRIC`
        #: as EXTERNAL stub links in the Router LSA (the type-5 stand-in).
        self._external_routes: Set[IPv4Network] = set()
        #: Interface name -> prefix for externals that came from
        #: ``redistribute connected`` (an eBGP border link): withdrawn on
        #: carrier loss, re-announced on restore.
        self._connected_externals: Dict[str, IPv4Network] = {}
        self._reoriginate_scheduled = False
        self._spf_scheduled = False
        self._last_spf_time: Optional[float] = None
        #: prefix -> Route as last installed, the daemon's copy of its own
        #: snapshot in the RIB.  An SPF run that reproduces the same result
        #: skips the zebra round trip entirely; otherwise the *whole*
        #: snapshot is handed to zebra for reconciliation, so stale routes
        #: (changed next hop, vanished prefix) are withdrawn, not leaked.
        self._installed_routes: Dict[IPv4Network, Route] = {}
        self.running = False
        # Statistics used by the experiments.
        self.spf_runs = 0
        self.full_adjacency_times: List[float] = []

    # ---------------------------------------------------------------- control
    def start(self) -> None:
        """Bring up OSPF on every configured interface covered by a network
        statement and originate the initial Router LSA."""
        self.running = True
        for iface in self._interface_configs:
            self.add_interface(iface)
        self._originate_router_lsa()
        self._refresh_task.start()

    def stop(self) -> None:
        """Shut the daemon down.

        A running daemon floods a MaxAge copy of our Router LSA first
        (RFC 2328 premature aging), so the rest of the area withdraws our
        routes immediately instead of waiting out its dead intervals.
        """
        if self.running and self.interfaces:
            flush_lsa = RouterLSA.originate(
                router_id=self.router_id, sequence=self._next_sequence(),
                links=[], age=MAX_AGE)
            self.lsdb.install(flush_lsa, now=self.sim.now)
            self._flood(flush_lsa, exclude=None)
        self.running = False
        self._refresh_task.stop()
        for interface in self.interfaces.values():
            interface.stop()
        self.interfaces.clear()
        self._passive_prefixes.clear()
        self._external_routes.clear()
        self._connected_externals.clear()
        self.zebra.replace_routes(RouteSource.OSPF, [])
        self._installed_routes = {}

    def add_interface(self, iface: InterfaceConfig) -> Optional[OSPFInterface]:
        """Enable OSPF on an interface if a ``network`` statement covers it.

        Called at startup for configured interfaces and again by the VM when
        the RPC server adds interfaces later (new links discovered after the
        daemon booted).
        """
        if not self.running or iface.ip is None or iface.network is None:
            return None
        if iface.name in self.interfaces:
            return self.interfaces[iface.name]
        if iface.name == "lo" or iface.name in self._passive_prefixes:
            # Loopbacks are passive: no hellos, no adjacencies — just a stub
            # prefix in the Router LSA (when a network statement covers it).
            if self.config.covers(iface.network):
                if self._passive_prefixes.get(iface.name) != iface.network:
                    self._passive_prefixes[iface.name] = iface.network
                    self._originate_router_lsa()
            return None
        if not self.config.covers(iface.network):
            # Interfaces outside every network statement (an eBGP border
            # link) can still be injected as AS-external prefixes when the
            # configuration says ``redistribute connected``.
            if self.config.redistribute_connected:
                self._connected_externals[iface.name] = iface.network
                self.announce_external(iface.network)
            return None
        interface = OSPFInterface(
            daemon=self, name=iface.name, ip=iface.ip, prefix_len=iface.prefix_len,
            cost=INTERFACE_COST, hello_interval=self.config.hello_interval,
            dead_interval=self.config.dead_interval)
        self.interfaces[iface.name] = interface
        interface.start()
        self._originate_router_lsa()
        return interface

    def interface_down(self, name: str) -> None:
        """An enabled interface lost carrier (link or node failure).

        Adjacencies over the interface are torn down through the neighbor
        FSM, the Router LSA is re-originated without the interface's links
        (lost FULL adjacencies already trigger that; an interface with no
        adjacency still needs its stub prefix withdrawn) and SPF re-runs.
        A redistributed-connected external (an eBGP border prefix) on the
        interface is withdrawn too — without this the area would keep
        routing towards a border subnet the border router itself lost.
        """
        external = self._connected_externals.get(name)
        if external is not None:
            self.withdraw_external(external)
        interface = self.interfaces.get(name)
        if interface is None or not interface.up:
            return
        had_full = bool(interface.full_neighbors)
        interface.bring_down()
        if not had_full:
            self._originate_router_lsa()

    def interface_up(self, name: str) -> None:
        """Carrier returned on a downed interface: resume OSPF over it."""
        external = self._connected_externals.get(name)
        if external is not None and self.config.redistribute_connected:
            self.announce_external(external)
        interface = self.interfaces.get(name)
        if interface is None or interface.up:
            return
        interface.bring_up()
        self._originate_router_lsa()

    # --------------------------------------------------------------- transport
    def send_packet(self, interface_name: str, packet: OSPFPacket) -> None:
        """Hand an OSPF packet to the VM for transmission on an interface."""
        self.send_callback(interface_name, ALL_SPF_ROUTERS, packet.encode())

    def send_bytes(self, interface_name: str, wire: bytes) -> None:
        """Like :meth:`send_packet` for an already-encoded packet."""
        self.send_callback(interface_name, ALL_SPF_ROUTERS, wire)

    def receive_packet(self, interface_name: str, src_ip: IPv4Address, data: bytes) -> None:
        """Called by the VM when an OSPF packet arrives on an interface."""
        interface = self.interfaces.get(interface_name)
        if interface is None:
            return
        try:
            packet = data if isinstance(data, OSPFPacket) else OSPFPacket.decode(data)
        except DecodeError as exc:
            LOG.warning("%s: bad OSPF packet on %s: %s", self.hostname,
                        interface_name, exc)
            return
        interface.handle_packet(src_ip, packet)

    # ---------------------------------------------------------------- LSA side
    def _next_sequence(self) -> int:
        sequence = self._sequence
        self._sequence += 1
        return sequence

    def _originate_router_lsa(self) -> None:
        """(Re-)originate our Router LSA and flood it."""
        if not self.running:
            return
        links: List[RouterLink] = []
        for interface in self.interfaces.values():
            if not interface.up:
                continue
            for neighbor in interface.full_neighbors:
                links.append(RouterLink.point_to_point(
                    neighbor_router_id=neighbor.router_id,
                    local_interface_ip=interface.ip,
                    metric=interface.cost))
            links.append(RouterLink.stub(
                network=interface.network.network,
                netmask=interface.netmask,
                metric=interface.cost))
        for name in sorted(self._passive_prefixes):
            prefix = self._passive_prefixes[name]
            links.append(RouterLink.stub(network=prefix.network,
                                         netmask=prefix.netmask,
                                         metric=INTERFACE_COST))
        for prefix in sorted(self._external_routes,
                             key=lambda p: (int(p.network), p.prefix_len)):
            links.append(RouterLink.external(
                network=prefix.network, netmask=prefix.netmask,
                metric=EXTERNAL_METRIC))
        lsa = RouterLSA.originate(router_id=self.router_id,
                                  sequence=self._next_sequence(), links=links)
        self.lsdb.install(lsa, now=self.sim.now)
        self._flood(lsa, exclude=None)
        self.schedule_spf()

    def _refresh_router_lsa(self) -> None:
        """Periodic LSRefreshTime re-origination of our own Router LSA."""
        if self.running and self.interfaces:
            self._originate_router_lsa()

    # ------------------------------------------------------- external routes
    def announce_external(self, prefix: IPv4Network) -> None:
        """Redistribute an AS-external prefix into the area.

        The prefix rides in our Router LSA as an EXTERNAL stub link (the
        type-5 LSA stand-in) and every router in the area derives a route
        to it through us, tagged :data:`EXTERNAL_ROUTE_TAG` in the RIB.
        Re-origination is debounced by :data:`EXTERNAL_LSA_DELAY` so a
        border router importing a whole BGP table floods one LSA, not one
        per prefix.  Safe to call before :meth:`start`.
        """
        if prefix not in self._external_routes:
            self._external_routes.add(prefix)
            self._schedule_reoriginate()

    def withdraw_external(self, prefix: IPv4Network) -> None:
        """Stop redistributing an AS-external prefix."""
        if prefix in self._external_routes:
            self._external_routes.remove(prefix)
            self._schedule_reoriginate()

    def _schedule_reoriginate(self) -> None:
        if self._reoriginate_scheduled or not self.running:
            return
        self._reoriginate_scheduled = True
        self.sim.schedule(EXTERNAL_LSA_DELAY, self._do_reoriginate,
                          label=f"ospf:{self.hostname}:external-lsa")

    def _do_reoriginate(self) -> None:
        self._reoriginate_scheduled = False
        if self.running:
            self._originate_router_lsa()

    def on_lsa_installed(self, lsa: RouterLSA, from_interface: Optional[OSPFInterface]) -> None:
        """A fresher LSA entered the LSDB via flooding: propagate and re-run SPF."""
        self._flood(lsa, exclude=from_interface)
        self.schedule_spf()

    def _flood(self, lsa: RouterLSA, exclude: Optional[OSPFInterface]) -> None:
        """Send an LS Update carrying ``lsa`` out of every interface but
        ``exclude``; the update is encoded once, not per interface."""
        wire: Optional[bytes] = None
        for interface in self.interfaces.values():
            if interface is exclude or not interface.floods:
                continue
            if wire is None:
                wire = LSUpdatePacket(router_id=self.router_id,
                                      lsas=[lsa]).encode()
            self.send_bytes(interface.name, wire)

    # ------------------------------------------------------------- FSM events
    def on_neighbor_state_change(self, interface: OSPFInterface, neighbor: Neighbor,
                                 old_state: int, new_state: int) -> None:
        if new_state == NeighborState.FULL:
            self.full_adjacency_times.append(self.sim.now)
            self._originate_router_lsa()
        elif old_state == NeighborState.FULL:
            # Lost an adjacency: advertise the reduced connectivity.
            self._originate_router_lsa()

    # --------------------------------------------------------------------- SPF
    def schedule_spf(self) -> None:
        """Schedule an SPF run, honouring the delay/holdtime throttle."""
        if self._spf_scheduled or not self.running:
            return
        delay = SPF_DELAY
        if self._last_spf_time is not None:
            since_last = self.sim.now - self._last_spf_time
            if since_last < SPF_HOLDTIME:
                delay = max(delay, SPF_HOLDTIME - since_last)
        self._spf_scheduled = True
        self.sim.schedule(delay, self._run_spf, label=self._spf_label)

    def spf_routes(self) -> Dict[IPv4Network, Route]:
        """The daemon's current SPF result as resolved zebra routes.

        Pure computation (no RIB side effects): SPF over the LSDB plus
        next-hop resolution against the adjacency state.  Route objects
        from the installed snapshot are reused when unchanged, so the
        caller can compare snapshots cheaply (mostly by identity).
        """
        new_routes: Dict[IPv4Network, Route] = {}
        # Neighbor states cannot change while this event runs, so each
        # distinct first hop resolves once per SPF run, not once per route.
        resolutions: Dict[int, Optional[tuple]] = {}
        for prefix, cost, first_hop, _adv, external in route_table(
                self.lsdb, int(self.router_id)):
            if first_hop is None:
                continue  # local stub, covered by a connected route
            if first_hop in resolutions:
                resolution = resolutions[first_hop]
            else:
                resolution = resolutions[first_hop] = self._resolve_next_hop(first_hop)
            if resolution is None:
                continue
            next_hop, interface_name = resolution
            tag = EXTERNAL_ROUTE_TAG if external else 0
            installed = self._installed_routes.get(prefix)
            if installed is not None and installed.metric == cost \
                    and installed.tag == tag \
                    and installed.interface == interface_name \
                    and installed.next_hop == next_hop:
                new_routes[prefix] = installed
            else:
                new_routes[prefix] = Route(
                    prefix=prefix, next_hop=next_hop, interface=interface_name,
                    source=RouteSource.OSPF, metric=cost, tag=tag)
        return new_routes

    def _run_spf(self) -> None:
        self._spf_scheduled = False
        if not self.running:
            return
        self._last_spf_time = self.sim.now
        self.spf_runs += 1
        expired = self.lsdb.expire_aged(self.sim.now)
        if any(key[2] == int(self.router_id) for key in expired):
            # Defensive: the LSRefreshTime task re-originates well before
            # MaxAge, so our own LSA should never expire while we run —
            # but if it somehow did, re-originate rather than vanish.
            self._originate_router_lsa()
        new_routes = self.spf_routes()
        if new_routes != self._installed_routes:
            # Hand zebra the full snapshot: stale candidates — including a
            # same-prefix route whose next hop changed — are withdrawn by
            # the RIB's reconciliation, not left to win equal-metric
            # tie-breaks forever.
            self.zebra.replace_routes(RouteSource.OSPF, list(new_routes.values()))
        self._installed_routes = new_routes

    def _resolve_next_hop(self, first_hop_router: int):
        """Map a first-hop router id to (next-hop IP, outgoing interface)."""
        for interface in self.interfaces.values():
            neighbor = interface.neighbors.get(IPv4Address(first_hop_router))
            if neighbor is not None and neighbor.state == NeighborState.FULL:
                return neighbor.address, interface.name
        return None

    # ------------------------------------------------------------------ status
    @property
    def full_neighbor_count(self) -> int:
        return sum(len(i.full_neighbors) for i in self.interfaces.values())

    def show_ip_ospf_neighbor(self) -> str:
        """A ``show ip ospf neighbor``-style dump."""
        lines = [f"{self.hostname}# show ip ospf neighbor"]
        for interface in self.interfaces.values():
            for neighbor in interface.neighbors.values():
                lines.append(f"{str(neighbor.router_id):<16} {neighbor.state_name:<10} "
                             f"{str(neighbor.address):<16} {interface.name}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"<OSPFDaemon {self.hostname} rid={self.router_id} "
                f"ifaces={len(self.interfaces)} lsdb={len(self.lsdb)}>")
