"""The zebra daemon: RIB manager and FIB installer.

In Quagga, protocol daemons (ospfd, bgpd) talk to zebra over the ZAPI
socket; zebra arbitrates between them with administrative distances and
installs the winners into the kernel forwarding table.  Here the "kernel"
is the virtual machine's FIB, and the RouteFlow client subscribes to FIB
changes to translate them into OpenFlow flow entries on the corresponding
physical switch.
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, List, Optional

from repro.net.addresses import IPv4Address, IPv4Network
from repro.quagga.rib import RIB, Route, RouteSource

LOG = logging.getLogger(__name__)

#: FIB change callback: ``f(prefix, new_route_or_None, old_route_or_None)``.
FIBListener = Callable[[IPv4Network, Optional[Route], Optional[Route]], None]


class ZebraDaemon:
    """RIB manager for one virtual machine."""

    def __init__(self, hostname: str = "zebra") -> None:
        self.hostname = hostname
        self.rib = RIB()
        self.fib: Dict[IPv4Network, Route] = {}
        self._fib_listeners: List[FIBListener] = []
        self.rib.add_listener(self._on_best_route_change)
        self.running = False
        self.install_count = 0
        self.withdraw_count = 0

    # -------------------------------------------------------------- lifecycle
    def start(self) -> None:
        self.running = True

    def stop(self) -> None:
        self.running = False

    # -------------------------------------------------------------- listeners
    def add_fib_listener(self, listener: FIBListener) -> None:
        """Subscribe to FIB changes (used by the RouteFlow client)."""
        self._fib_listeners.append(listener)

    # ----------------------------------------------------------- protocol API
    def announce_connected(self, prefix: IPv4Network, interface: str) -> None:
        """Install a connected route for a locally configured interface."""
        self.rib.add_route(Route(prefix=prefix, next_hop=None, interface=interface,
                                 source=RouteSource.CONNECTED, metric=0))

    def withdraw_connected(self, prefix: IPv4Network) -> None:
        self.rib.remove_route(prefix, RouteSource.CONNECTED)

    def announce_route(self, route: Route) -> None:
        """A protocol daemon announces (or refreshes) a route."""
        self.rib.add_route(route)

    def withdraw_route(self, prefix: IPv4Network, source: str) -> None:
        self.rib.remove_route(prefix, source)

    def replace_routes(self, source: str, routes: List[Route]) -> List[IPv4Network]:
        """Reconcile a protocol's full route snapshot (see RIB.replace_routes).

        Stale candidates are withdrawn, changed ones replaced; every
        resulting FIB change reaches the FIB listeners — and from there the
        RouteFlow client — exactly once per prefix.
        """
        return self.rib.replace_routes(source, routes)

    def add_static_route(self, prefix: IPv4Network, next_hop: IPv4Address,
                         interface: str = "") -> None:
        self.rib.add_route(Route(prefix=prefix, next_hop=next_hop,
                                 interface=interface, source=RouteSource.STATIC))

    # -------------------------------------------------------------------- FIB
    def _on_best_route_change(self, prefix: IPv4Network, new: Optional[Route],
                              old: Optional[Route]) -> None:
        if new is None:
            self.fib.pop(prefix, None)
            self.withdraw_count += 1
        else:
            self.fib[prefix] = new
            self.install_count += 1
        for listener in self._fib_listeners:
            listener(prefix, new, old)

    def lookup(self, destination: IPv4Address) -> Optional[Route]:
        """Longest-prefix-match against the installed FIB."""
        best: Optional[Route] = None
        for prefix, route in self.fib.items():
            if destination in prefix:
                if best is None or prefix.prefix_len > best.prefix.prefix_len:
                    best = route
        return best

    @property
    def fib_routes(self) -> List[Route]:
        return sorted(self.fib.values(),
                      key=lambda r: (int(r.prefix.network), r.prefix.prefix_len))

    def show_ip_route(self) -> str:
        """A ``show ip route``-style dump, handy in examples and the GUI."""
        lines = [f"{self.hostname}# show ip route"]
        for route in self.fib_routes:
            code = {"connected": "C", "static": "S", "ospf": "O", "bgp": "B"}.get(route.source, "?")
            lines.append(f"{code}   {route}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<ZebraDaemon {self.hostname} fib={len(self.fib)}>"
