"""Switch ↔ VM mapping tables.

RouteFlow needs to know which VM mirrors which switch and which VM
interface corresponds to which switch port — exactly the mapping the
paper's manual procedure makes the administrator type in by hand.  The RPC
server fills this table automatically from the configuration messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


class MappingError(Exception):
    """Raised on inconsistent mapping operations."""


@dataclass(frozen=True)
class PortMapping:
    """One VM-interface ↔ switch-port association."""

    vm_id: int
    vm_interface: str
    datapath_id: int
    port_no: int


class MappingTable:
    """The VM↔switch and interface↔port association tables."""

    def __init__(self) -> None:
        self._vm_to_dpid: Dict[int, int] = {}
        self._dpid_to_vm: Dict[int, int] = {}
        self._port_mappings: Dict[Tuple[int, int], PortMapping] = {}

    # --------------------------------------------------------------- switches
    def map_vm(self, vm_id: int, datapath_id: int, num_ports: int = 0) -> None:
        """Map a VM to a switch and its eth1..ethN to ports 1..N."""
        existing = self._vm_to_dpid.get(vm_id)
        if existing is not None and existing != datapath_id:
            raise MappingError(f"VM {vm_id} already mapped to dpid {existing:#x}")
        existing_vm = self._dpid_to_vm.get(datapath_id)
        if existing_vm is not None and existing_vm != vm_id:
            raise MappingError(f"dpid {datapath_id:#x} already mapped to VM {existing_vm}")
        self._vm_to_dpid[vm_id] = datapath_id
        self._dpid_to_vm[datapath_id] = vm_id
        for port in range(1, num_ports + 1):
            self.map_port(vm_id, f"eth{port}", datapath_id, port)

    def unmap_vm(self, vm_id: int) -> None:
        dpid = self._vm_to_dpid.pop(vm_id, None)
        if dpid is not None:
            self._dpid_to_vm.pop(dpid, None)
        stale = [key for key, mapping in self._port_mappings.items()
                 if mapping.vm_id == vm_id]
        for key in stale:
            del self._port_mappings[key]

    def dpid_for_vm(self, vm_id: int) -> Optional[int]:
        return self._vm_to_dpid.get(vm_id)

    def vm_for_dpid(self, datapath_id: int) -> Optional[int]:
        return self._dpid_to_vm.get(datapath_id)

    # ------------------------------------------------------------------ ports
    def map_port(self, vm_id: int, vm_interface: str, datapath_id: int,
                 port_no: int) -> PortMapping:
        if self._vm_to_dpid.get(vm_id) != datapath_id:
            raise MappingError(
                f"cannot map port: VM {vm_id} is not mapped to dpid {datapath_id:#x}")
        mapping = PortMapping(vm_id=vm_id, vm_interface=vm_interface,
                              datapath_id=datapath_id, port_no=port_no)
        self._port_mappings[(datapath_id, port_no)] = mapping
        return mapping

    def port_mapping(self, datapath_id: int, port_no: int) -> Optional[PortMapping]:
        return self._port_mappings.get((datapath_id, port_no))

    def interface_for_port(self, datapath_id: int, port_no: int) -> Optional[str]:
        mapping = self._port_mappings.get((datapath_id, port_no))
        return mapping.vm_interface if mapping else None

    def port_for_interface(self, vm_id: int, vm_interface: str) -> Optional[int]:
        for mapping in self._port_mappings.values():
            if mapping.vm_id == vm_id and mapping.vm_interface == vm_interface:
                return mapping.port_no
        return None

    # -------------------------------------------------------------- inventory

    @property
    def mapped_datapaths(self) -> List[int]:
        return sorted(self._dpid_to_vm)

    @property
    def port_mappings(self) -> List[PortMapping]:
        return sorted(self._port_mappings.values(),
                      key=lambda m: (m.datapath_id, m.port_no))

    def __len__(self) -> int:
        return len(self._vm_to_dpid)

    def __contains__(self, vm_id: int) -> bool:
        return vm_id in self._vm_to_dpid
