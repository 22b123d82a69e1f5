"""IP address management for the virtual environment.

The paper's topology controller holds "a very small part of configurations
from the administrator (e.g. a range of IP addresses for the virtual
environment)" and computes unique addresses for VM interfaces from it.
This module is that allocator: /30 transfer networks for switch-to-switch
links, /24 subnets for edge (host-facing) ports, and one router id per VM.
Allocations are deterministic and idempotent — asking again for the same
link or port returns the same addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.net.addresses import IPv4Address, IPv4Network


class IPAMError(Exception):
    """Raised when an address pool is exhausted or misconfigured."""


@dataclass(frozen=True)
class LinkAddressing:
    """Addresses assigned to one switch-to-switch link."""

    network: IPv4Network
    address_a: IPv4Address
    address_b: IPv4Address

    @property
    def prefix_len(self) -> int:
        return self.network.prefix_len


@dataclass(frozen=True)
class EdgeAddressing:
    """Addresses assigned to one edge (host-facing) port."""

    network: IPv4Network
    gateway: IPv4Address

    @property
    def prefix_len(self) -> int:
        return self.network.prefix_len


class IPAddressManager:
    """Deterministic allocator over administrator-provided ranges."""

    def __init__(self, link_range: str = "172.16.0.0/16",
                 edge_range: str = "192.168.0.0/16") -> None:
        self.link_range = IPv4Network(link_range)
        self.edge_range = IPv4Network(edge_range)
        if self.link_range.prefix_len > 30:
            raise IPAMError("link range must be at least a /30")
        if self.edge_range.prefix_len > 24:
            raise IPAMError("edge range must be at least a /24")
        self._link_allocations: Dict[Tuple[int, int, int, int], LinkAddressing] = {}
        self._edge_allocations: Dict[Tuple[int, int], EdgeAddressing] = {}
        self._next_link_index = 0
        self._next_edge_index = 0

    # ----------------------------------------------------------------- links
    @staticmethod
    def canonical_link(dpid_a: int, port_a: int, dpid_b: int, port_b: int
                       ) -> Tuple[int, int, int, int]:
        """Direction-independent identity of a link."""
        forward = (dpid_a, port_a, dpid_b, port_b)
        backward = (dpid_b, port_b, dpid_a, port_a)
        return min(forward, backward)

    def allocate_link(self, dpid_a: int, port_a: int, dpid_b: int, port_b: int
                      ) -> LinkAddressing:
        """Allocate (or return) the /30 for a link.

        ``address_a`` always belongs to the lower (dpid, port) end of the
        canonical link so both directions of discovery agree on who gets
        which address.
        """
        key = self.canonical_link(dpid_a, port_a, dpid_b, port_b)
        existing = self._link_allocations.get(key)
        if existing is not None:
            return existing
        max_links = self.link_range.num_addresses // 4
        if self._next_link_index >= max_links:
            raise IPAMError(f"link range {self.link_range} exhausted")
        base = int(self.link_range.network) + self._next_link_index * 4
        self._next_link_index += 1
        network = IPv4Network((IPv4Address(base), 30))
        allocation = LinkAddressing(network=network,
                                    address_a=IPv4Address(base + 1),
                                    address_b=IPv4Address(base + 2))
        self._link_allocations[key] = allocation
        return allocation

    def link_allocation(self, dpid_a: int, port_a: int, dpid_b: int, port_b: int
                        ) -> Optional[LinkAddressing]:
        return self._link_allocations.get(self.canonical_link(dpid_a, port_a, dpid_b, port_b))

    # ------------------------------------------------------------------ edges
    def allocate_edge_port(self, datapath_id: int, port_no: int) -> EdgeAddressing:
        """Allocate (or return) the /24 for a host-facing port."""
        key = (datapath_id, port_no)
        existing = self._edge_allocations.get(key)
        if existing is not None:
            return existing
        max_edges = self.edge_range.num_addresses // 256
        if self._next_edge_index >= max_edges:
            raise IPAMError(f"edge range {self.edge_range} exhausted")
        base = int(self.edge_range.network) + self._next_edge_index * 256
        self._next_edge_index += 1
        network = IPv4Network((IPv4Address(base), 24))
        allocation = EdgeAddressing(network=network, gateway=IPv4Address(base + 1))
        self._edge_allocations[key] = allocation
        return allocation

    def edge_allocation(self, datapath_id: int, port_no: int) -> Optional[EdgeAddressing]:
        return self._edge_allocations.get((datapath_id, port_no))

    # ------------------------------------------------------------- router ids
    def router_id(self, vm_id: int) -> IPv4Address:
        """A unique, stable router id per VM: 10.0.0.0 plus the VM/switch id."""
        if vm_id <= 0:
            raise IPAMError(f"VM ids must be positive, got {vm_id}")
        return IPv4Address((0x0A000000 + vm_id) & 0xFFFFFFFF)

    # ------------------------------------------------------------------ stats
    @property
    def allocated_links(self) -> int:
        return len(self._link_allocations)

    @property
    def allocated_edges(self) -> int:
        return len(self._edge_allocations)
