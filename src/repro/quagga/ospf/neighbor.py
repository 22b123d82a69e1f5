"""OSPF neighbor state."""

from __future__ import annotations

from typing import Set, Tuple

from repro.net.addresses import IPv4Address
from repro.quagga.ospf.constants import NeighborState


class Neighbor:
    """State kept per OSPF neighbor on an interface."""

    def __init__(self, router_id: IPv4Address, address: IPv4Address) -> None:
        self.router_id = IPv4Address(router_id)
        #: Source IP of the neighbor's packets — the next hop for SPF routes.
        self.address = IPv4Address(address)
        self.state = NeighborState.DOWN
        self.dd_sequence = 0
        self.is_master = False
        #: LSAs we still need from this neighbor: set of LSDB keys.
        self.ls_request_list: Set[Tuple[int, int, int]] = set()
        #: Simulation event for the inactivity (dead) timer.
        self.dead_timer_event = None

    @property
    def state_name(self) -> str:
        return NeighborState.NAMES.get(self.state, str(self.state))

    def __repr__(self) -> str:
        return f"<Neighbor {self.router_id} ({self.address}) {self.state_name}>"
