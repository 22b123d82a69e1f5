"""A vtysh-style facade over the routing suite of one virtual machine.

Real RouteFlow VMs expose Quagga's vtysh; operators (or the RPC server)
interact with the routing stack through it.  Our facade provides the same
role programmatically: ``show``-style inspection commands over zebra and
ospfd, used by the examples and the tests.
"""

from __future__ import annotations

from repro.quagga.zebra import ZebraDaemon


class Vtysh:
    """Aggregated inspection across the daemons of one VM."""

    def __init__(self, zebra: ZebraDaemon, ospf=None) -> None:
        self.zebra = zebra
        self.ospf = ospf

    # --------------------------------------------------------------- commands
    def show_running_config(self) -> str:
        """Summarise the active configuration of all daemons."""
        lines = [f"hostname {self.zebra.hostname}", "!"]
        if self.ospf is not None:
            lines.append("router ospf")
            lines.append(f" ospf router-id {self.ospf.router_id}")
            for name, interface in sorted(self.ospf.interfaces.items()):
                lines.append(f" ! interface {name} cost {interface.cost}")
            lines.append("!")
        return "\n".join(lines)

    def show_ip_route(self) -> str:
        return self.zebra.show_ip_route()

    def show_ip_ospf_neighbor(self) -> str:
        if self.ospf is None:
            return "% OSPF is not running"
        return self.ospf.show_ip_ospf_neighbor()

    def execute(self, command: str) -> str:
        """Dispatch a textual command to the matching ``show`` method."""
        normalized = " ".join(command.strip().lower().split())
        dispatch = {
            "show running-config": self.show_running_config,
            "show ip route": self.show_ip_route,
            "show ip ospf neighbor": self.show_ip_ospf_neighbor,
        }
        handler = dispatch.get(normalized)
        if handler is None:
            return f"% Unknown command: {command}"
        return handler()
