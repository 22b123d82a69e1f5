"""The RouteFlow virtual switch (RFVS).

In RouteFlow the VMs' interfaces are plugged into a virtual switch whose
forwarding is programmed so that the virtual topology mirrors the physical
one ("each virtual machine … is dynamically interconnected with other
VMs").  The observable behaviour is a point-to-point virtual wire between
the two VM interfaces that mirror the two ends of each physical link; the
RFVS here realises exactly that by creating a simulated link between the
VM interfaces on demand and tearing it down when the physical link
disappears.
"""

from __future__ import annotations

import logging
from typing import Dict, Optional, Tuple

from repro.net.link import Interface, Link
from repro.sim import Simulator

LOG = logging.getLogger(__name__)


class RFVirtualSwitch:
    """Manages the virtual wires interconnecting RouteFlow VMs."""

    #: Latency of a virtual wire (VM-to-VM traffic stays on one server).
    VIRTUAL_LINK_DELAY = 0.0002

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.name = "rfvs"
        #: canonical (id(min side), id(max side)) -> Link
        self._links: Dict[Tuple[str, str], Link] = {}

    @staticmethod
    def _key(iface_a: Interface, iface_b: Interface) -> Tuple[str, str]:
        names = sorted([iface_a.name + "@" + str(id(iface_a)),
                        iface_b.name + "@" + str(id(iface_b))])
        return (names[0], names[1])

    def connect(self, iface_a: Interface, iface_b: Interface) -> Link:
        """Create (or return) the virtual wire between two VM interfaces."""
        key = self._key(iface_a, iface_b)
        existing = self._links.get(key)
        if existing is not None:
            return existing
        if iface_a.link is not None or iface_b.link is not None:
            raise ValueError(
                f"{self.name}: interface already wired "
                f"({iface_a.name} or {iface_b.name})")
        link = Link(self.sim, iface_a, iface_b, delay=self.VIRTUAL_LINK_DELAY,
                    name=f"{self.name}:{iface_a.name}<->{iface_b.name}")
        self._links[key] = link
        LOG.debug("%s: wired %s <-> %s", self.name, iface_a.name, iface_b.name)
        return link

    def disconnect(self, iface_a: Interface, iface_b: Interface) -> bool:
        """Tear down the virtual wire, if present."""
        key = self._key(iface_a, iface_b)
        link = self._links.pop(key, None)
        if link is None:
            return False
        link.set_down()
        iface_a.link = None
        iface_b.link = None
        return True

    def wire_for(self, iface_a: Interface, iface_b: Interface) -> Optional[Link]:
        """The virtual wire between two VM interfaces, if one exists."""
        return self._links.get(self._key(iface_a, iface_b))

    def set_wire_state(self, iface_a: Interface, iface_b: Interface,
                       up: bool) -> bool:
        """Mirror a physical link state change onto the virtual wire.

        Taking the wire down (up) notifies both VM interfaces of the
        carrier change, so the routing daemons react exactly as Quagga does
        to a NIC losing link.  Returns False when no such wire exists.
        """
        link = self.wire_for(iface_a, iface_b)
        if link is None:
            return False
        if up:
            link.set_up()
        else:
            link.set_down()
        LOG.info("%s: wire %s %s", self.name, link.name, "up" if up else "down")
        return True

    def is_connected(self, iface_a: Interface, iface_b: Interface) -> bool:
        return self._key(iface_a, iface_b) in self._links

    def __len__(self) -> int:
        return len(self._links)

    def __repr__(self) -> str:
        return f"<RFVirtualSwitch {self.name} wires={len(self._links)}>"
