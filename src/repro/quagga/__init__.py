"""Quagga-style routing suite: zebra RIB, OSPFv2, simplified BGP, config files."""

from repro.quagga.configfile import (
    BGPConfig,
    BGPNeighbor,
    ConfigError,
    InterfaceConfig,
    OSPFConfig,
    OSPFNetworkStatement,
    ZebraConfig,
    generate_bgpd_conf,
    generate_ospfd_conf,
    generate_zebra_conf,
    parse_bgpd_conf,
    parse_ospfd_conf,
    parse_zebra_conf,
)
from repro.quagga.rib import RIB, Route, RouteSource
from repro.quagga.zebra import ZebraDaemon

__all__ = [
    "BGPConfig",
    "BGPNeighbor",
    "ConfigError",
    "InterfaceConfig",
    "OSPFConfig",
    "OSPFNetworkStatement",
    "RIB",
    "Route",
    "RouteSource",
    "ZebraConfig",
    "ZebraDaemon",
    "generate_bgpd_conf",
    "generate_ospfd_conf",
    "generate_zebra_conf",
    "parse_bgpd_conf",
    "parse_ospfd_conf",
    "parse_zebra_conf",
]
