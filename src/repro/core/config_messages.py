"""Configuration messages exchanged between the topology controller and the
RPC server.

The paper defines two message contents explicitly — "the ID of the switch
and the number of switch ports" on switch detection, and the computed
interface addresses on link detection — and we add the analogous message
for edge (host-facing) ports.  Messages serialise to JSON (each is a
:class:`~repro.bus.envelope.Message`), which is what the RPC transport
actually carries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bus.envelope import Message


class ConfigMessage(Message):
    """The family of configuration messages (``from_json`` accepts any)."""


@dataclass
class SwitchConfigMessage(ConfigMessage):
    """Sent on detection of a new switch: create the mirroring VM."""

    KIND = "switch_config"

    switch_id: int
    num_ports: int


@dataclass
class LinkConfigMessage(ConfigMessage):
    """Sent on detection of a new link: configure both VM interfaces."""

    KIND = "link_config"

    dpid_a: int
    port_a: int
    address_a: str
    dpid_b: int
    port_b: int
    address_b: str
    prefix_len: int


@dataclass
class EdgePortConfigMessage(ConfigMessage):
    """Sent for a host-facing port: configure the gateway interface."""

    KIND = "edge_port_config"

    datapath_id: int
    port_no: int
    gateway: str
    prefix_len: int


@dataclass
class SwitchRemovedMessage(ConfigMessage):
    """Sent when a switch disappears (connection lost)."""

    KIND = "switch_removed"

    switch_id: int

