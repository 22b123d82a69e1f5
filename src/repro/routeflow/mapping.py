"""The VM ↔ switch mapping table.

RouteFlow needs to know which VM mirrors which switch — exactly the
mapping the paper's manual procedure makes the administrator type in by
hand.  The RPC server fills this table automatically from the
configuration messages.  Interfaces need no table: VM interface
``eth<N>`` mirrors switch port N (:func:`repro.routeflow.vm.port_interface`
and :func:`repro.routeflow.vm.interface_port`).
"""

from __future__ import annotations

from typing import Dict, List, Optional


class MappingError(Exception):
    """Raised on inconsistent mapping operations."""


class MappingTable:
    """The VM↔switch association, kept in both directions."""

    def __init__(self) -> None:
        self._vm_to_dpid: Dict[int, int] = {}
        self._dpid_to_vm: Dict[int, int] = {}

    def map_vm(self, vm_id: int, datapath_id: int) -> None:
        """Map a VM to a switch; a VM or switch already mapped elsewhere
        is a conflict."""
        existing = self._vm_to_dpid.get(vm_id)
        if existing is not None and existing != datapath_id:
            raise MappingError(f"VM {vm_id} already mapped to dpid {existing:#x}")
        existing_vm = self._dpid_to_vm.get(datapath_id)
        if existing_vm is not None and existing_vm != vm_id:
            raise MappingError(f"dpid {datapath_id:#x} already mapped to VM {existing_vm}")
        self._vm_to_dpid[vm_id] = datapath_id
        self._dpid_to_vm[datapath_id] = vm_id

    def unmap_vm(self, vm_id: int) -> None:
        dpid = self._vm_to_dpid.pop(vm_id, None)
        if dpid is not None:
            self._dpid_to_vm.pop(dpid, None)

    def dpid_for_vm(self, vm_id: int) -> Optional[int]:
        return self._vm_to_dpid.get(vm_id)

    def vm_for_dpid(self, datapath_id: int) -> Optional[int]:
        return self._dpid_to_vm.get(datapath_id)

    @property
    def mapped_datapaths(self) -> List[int]:
        return sorted(self._dpid_to_vm)
