"""Network-namespace-style containers.

The paper's testbed runs each Open vSwitch instance in its own Linux
network namespace on a single OFELIA node.  The simulator mirrors that
structure with :class:`NetworkNamespace`: a named container that owns a
set of interfaces and (optionally) the device living inside it.  The
emulator in :mod:`repro.topology.emulator` creates one namespace per
switch and per host, which keeps interface names unique and gives the
experiments an inventory to report on.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.net.link import Interface


class NamespaceError(Exception):
    """Raised for namespace bookkeeping errors (duplicate names etc.)."""


class NetworkNamespace:
    """A named container holding interfaces and a single device object."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.device: Optional[object] = None
        self._interfaces: Dict[str, Interface] = {}

    def attach_device(self, device: object) -> None:
        if self.device is not None:
            raise NamespaceError(f"namespace {self.name} already has a device")
        self.device = device

    def add_interface(self, interface: Interface) -> None:
        if interface.name in self._interfaces:
            raise NamespaceError(
                f"interface {interface.name} already exists in namespace {self.name}"
            )
        self._interfaces[interface.name] = interface

    def interface(self, name: str) -> Interface:
        try:
            return self._interfaces[name]
        except KeyError:
            raise NamespaceError(f"no interface {name} in namespace {self.name}") from None

    def __repr__(self) -> str:
        return f"<NetworkNamespace {self.name} ifaces={len(self._interfaces)}>"


class NamespaceRegistry:
    """All namespaces of an emulated network, indexed by name."""

    def __init__(self) -> None:
        self._namespaces: Dict[str, NetworkNamespace] = {}

    def create(self, name: str) -> NetworkNamespace:
        if name in self._namespaces:
            raise NamespaceError(f"namespace {name} already exists")
        namespace = NetworkNamespace(name)
        self._namespaces[name] = namespace
        return namespace

    def get(self, name: str) -> NetworkNamespace:
        try:
            return self._namespaces[name]
        except KeyError:
            raise NamespaceError(f"no namespace named {name}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._namespaces

    def __len__(self) -> int:
        return len(self._namespaces)

