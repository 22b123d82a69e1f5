"""Quagga configuration files: generation and parsing.

The paper's RPC server "writes routing configuration files (e.g.
ospf.conf, zebra.conf, bgp.conf) using the information present in the
configuration message".  This module produces those files in Quagga's
syntax and parses them back into structured objects; the virtual machines
boot their routing daemons from the parsed form, so the generated text is
a real interface rather than decoration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net.addresses import IPv4Address, IPv4Network


#: The vty password of every generated file: Quagga's stock "zebra".
VTY_PASSWORD = "zebra"


class ConfigError(ValueError):
    """Raised when a configuration file cannot be parsed."""


# --------------------------------------------------------------------------
# Structured configuration objects
# --------------------------------------------------------------------------
@dataclass
class InterfaceConfig:
    """One ``interface`` stanza of zebra.conf."""

    name: str
    ip: Optional[IPv4Address] = None
    prefix_len: int = 0
    description: str = ""

    @property
    def network(self) -> Optional[IPv4Network]:
        if self.ip is None:
            return None
        return IPv4Network((self.ip, self.prefix_len))


@dataclass
class ZebraConfig:
    """Parsed zebra.conf."""

    hostname: str = "zebra"
    password: str = VTY_PASSWORD
    interfaces: List[InterfaceConfig] = field(default_factory=list)

    def interface(self, name: str) -> Optional[InterfaceConfig]:
        for iface in self.interfaces:
            if iface.name == name:
                return iface
        return None


@dataclass
class OSPFNetworkStatement:
    """One ``network <prefix> area <area>`` statement."""

    prefix: IPv4Network
    area: str = "0.0.0.0"


@dataclass
class OSPFConfig:
    """Parsed ospfd.conf."""

    hostname: str = "ospfd"
    password: str = VTY_PASSWORD
    router_id: Optional[IPv4Address] = None
    networks: List[OSPFNetworkStatement] = field(default_factory=list)
    hello_interval: int = 10
    dead_interval: int = 40
    #: ``redistribute bgp``: inject BGP-learned FIB routes into the area as
    #: AS-external prefixes (how interior routers of an AS learn routes the
    #: border routers picked up over eBGP).
    redistribute_bgp: bool = False
    #: ``redistribute connected``: inject connected prefixes *not* covered
    #: by any network statement (an eBGP border link) as external prefixes.
    redistribute_connected: bool = False

    def covers(self, prefix: IPv4Network) -> bool:
        """Is a connected prefix enabled for OSPF by a network statement?"""
        return any(int(prefix.network) & int(stmt.prefix.netmask) == int(stmt.prefix.network)
                   and prefix.prefix_len >= stmt.prefix.prefix_len
                   for stmt in self.networks)


@dataclass
class BGPNeighbor:
    """One ``neighbor`` statement (plus its per-peer policy lines)."""

    address: IPv4Address
    remote_as: int
    #: LOCAL_PREF applied to routes received *from* this neighbor
    #: (``neighbor X local-preference N``); None = the daemon default.
    local_pref: Optional[int] = None
    #: MED attached to routes advertised *to* this neighbor
    #: (``neighbor X med N``).
    med: Optional[int] = None
    #: Name of the ``ip prefix-list`` applied to routes advertised to this
    #: neighbor (``neighbor X prefix-list NAME out``).
    export_prefix_list: Optional[str] = None
    #: Gao-Rexford business relationship of this neighbor from *our*
    #: perspective (``neighbor X relationship customer|peer|provider``).
    #: Towards peers and providers the daemon only exports locally
    #: originated routes and routes whose LOCAL_PREF marks them as
    #: customer-learned — the valley-free export rule.  None = no
    #: relationship policy (export everything the ordinary rules allow).
    relationship: Optional[str] = None
    #: ``neighbor X route-reflector-client``: iBGP routes learned from (or
    #: destined to) this neighbor are reflected across other iBGP sessions
    #: instead of being stopped by the full-mesh no-transit rule.
    route_reflector_client: bool = False


#: One ``ip prefix-list`` entry: ("permit"|"deny", prefix-or-None-for-any).
PrefixListEntry = Tuple[str, Optional[IPv4Network]]


@dataclass
class BGPConfig:
    """Parsed bgpd.conf."""

    hostname: str = "bgpd"
    password: str = VTY_PASSWORD
    local_as: int = 0
    router_id: Optional[IPv4Address] = None
    neighbors: List[BGPNeighbor] = field(default_factory=list)
    networks: List[IPv4Network] = field(default_factory=list)
    redistribute_ospf: bool = False
    redistribute_connected: bool = False
    #: ``timers bgp <keepalive> <holdtime>``.
    keepalive_interval: float = 10.0
    hold_time: float = 30.0
    #: ``ip prefix-list`` stanzas: name -> ordered (action, prefix) entries.
    prefix_lists: Dict[str, List[PrefixListEntry]] = field(default_factory=dict)

    def neighbor(self, address: IPv4Address) -> Optional[BGPNeighbor]:
        # The daemon calls this per prefix per session on the decision hot
        # path; a linear scan is O(degree) and scale-free hubs have large
        # degree.  The index is rebuilt whenever the neighbor list grew.
        index = self.__dict__.get("_neighbor_index")
        if index is None or len(index) != len(self.neighbors):
            index = {n.address: n for n in self.neighbors}
            self.__dict__["_neighbor_index"] = index
        return index.get(address)

    def prefix_list_permits(self, name: Optional[str],
                            prefix: IPv4Network) -> bool:
        """Evaluate a prefix list: first match wins, no match = permit."""
        if name is None:
            return True
        for action, entry in self.prefix_lists.get(name, ()):
            if entry is None or entry == prefix:
                return action == "permit"
        return True


# --------------------------------------------------------------------------
# Generation
# --------------------------------------------------------------------------
def generate_zebra_conf(hostname: str, interfaces: List[InterfaceConfig]) -> str:
    """Render a zebra.conf for a VM with the given interface addressing."""
    lines = [f"hostname {hostname}", f"password {VTY_PASSWORD}", "!"]
    for iface in interfaces:
        lines.append(f"interface {iface.name}")
        if iface.description:
            lines.append(f" description {iface.description}")
        if iface.ip is not None:
            lines.append(f" ip address {iface.ip}/{iface.prefix_len}")
        lines.append("!")
    lines.append("line vty")
    lines.append("!")
    return "\n".join(lines) + "\n"


def generate_ospfd_conf(hostname: str, router_id: IPv4Address,
                        networks: List[OSPFNetworkStatement],
                        hello_interval: int = 10, dead_interval: int = 40,
                        redistribute_bgp: bool = False,
                        redistribute_connected: bool = False) -> str:
    """Render an ospfd.conf enabling OSPF on the given prefixes."""
    lines = [f"hostname {hostname}", f"password {VTY_PASSWORD}", "!"]
    lines.append("router ospf")
    lines.append(f" ospf router-id {router_id}")
    lines.append(f" timers ospf hello-interval {hello_interval}")
    lines.append(f" timers ospf dead-interval {dead_interval}")
    for statement in networks:
        lines.append(f" network {statement.prefix} area {statement.area}")
    if redistribute_bgp:
        lines.append(" redistribute bgp")
    if redistribute_connected:
        lines.append(" redistribute connected")
    lines.append("!")
    lines.append("line vty")
    lines.append("!")
    return "\n".join(lines) + "\n"


def generate_bgpd_conf(hostname: str, local_as: int, router_id: IPv4Address,
                       neighbors: List[BGPNeighbor],
                       networks: Optional[List[IPv4Network]] = None,
                       redistribute_ospf: bool = False,
                       redistribute_connected: bool = False,
                       keepalive_interval: Optional[float] = None,
                       hold_time: Optional[float] = None,
                       prefix_lists: Optional[Dict[str, List[PrefixListEntry]]] = None,
                       password: str = VTY_PASSWORD) -> str:
    """Render a bgpd.conf with the given AS, neighbors and announcements."""
    lines = [f"hostname {hostname}", f"password {password}", "!"]
    for name in sorted(prefix_lists or {}):
        for index, (action, entry) in enumerate(prefix_lists[name]):
            target = "any" if entry is None else str(entry)
            lines.append(f"ip prefix-list {name} seq {(index + 1) * 5} "
                         f"{action} {target}")
    if prefix_lists:
        lines.append("!")
    lines.append(f"router bgp {local_as}")
    lines.append(f" bgp router-id {router_id}")
    if keepalive_interval is not None and hold_time is not None:
        lines.append(f" timers bgp {keepalive_interval:g} {hold_time:g}")
    for neighbor in neighbors:
        lines.append(f" neighbor {neighbor.address} remote-as {neighbor.remote_as}")
        if neighbor.local_pref is not None:
            lines.append(f" neighbor {neighbor.address} "
                         f"local-preference {neighbor.local_pref}")
        if neighbor.med is not None:
            lines.append(f" neighbor {neighbor.address} med {neighbor.med}")
        if neighbor.export_prefix_list is not None:
            lines.append(f" neighbor {neighbor.address} "
                         f"prefix-list {neighbor.export_prefix_list} out")
        if neighbor.relationship is not None:
            lines.append(f" neighbor {neighbor.address} "
                         f"relationship {neighbor.relationship}")
        if neighbor.route_reflector_client:
            lines.append(f" neighbor {neighbor.address} route-reflector-client")
    for network in networks or []:
        lines.append(f" network {network}")
    if redistribute_ospf:
        lines.append(" redistribute ospf")
    if redistribute_connected:
        lines.append(" redistribute connected")
    lines.append("!")
    lines.append("line vty")
    lines.append("!")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------
def _significant_lines(text: str) -> List[str]:
    lines = []
    for raw in text.splitlines():
        line = raw.rstrip()
        if not line or line.lstrip().startswith("!"):
            continue
        lines.append(line)
    return lines


def parse_zebra_conf(text: str) -> ZebraConfig:
    """Parse a zebra.conf produced by :func:`generate_zebra_conf` (or Quagga)."""
    config = ZebraConfig()
    current: Optional[InterfaceConfig] = None
    for line in _significant_lines(text):
        stripped = line.strip()
        indented = line.startswith(" ")
        tokens = stripped.split()
        if not indented:
            current = None
            if tokens[0] == "hostname" and len(tokens) >= 2:
                config.hostname = tokens[1]
            elif tokens[0] == "password" and len(tokens) >= 2:
                config.password = tokens[1]
            elif tokens[0] == "interface" and len(tokens) >= 2:
                current = InterfaceConfig(name=tokens[1])
                config.interfaces.append(current)
            elif tokens[0] == "line":
                continue
            continue
        if current is None:
            continue
        if tokens[:2] == ["ip", "address"] and len(tokens) >= 3:
            if "/" not in tokens[2]:
                raise ConfigError(f"interface address needs a prefix length: {stripped!r}")
            address, plen = tokens[2].split("/", 1)
            current.ip = IPv4Address(address)
            current.prefix_len = int(plen)
        elif tokens[0] == "description":
            current.description = " ".join(tokens[1:])
    return config


def parse_ospfd_conf(text: str) -> OSPFConfig:
    """Parse an ospfd.conf produced by :func:`generate_ospfd_conf` (or Quagga)."""
    config = OSPFConfig()
    in_router = False
    for line in _significant_lines(text):
        stripped = line.strip()
        indented = line.startswith(" ")
        tokens = stripped.split()
        if not indented:
            in_router = tokens[:2] == ["router", "ospf"]
            if tokens[0] == "hostname" and len(tokens) >= 2:
                config.hostname = tokens[1]
            elif tokens[0] == "password" and len(tokens) >= 2:
                config.password = tokens[1]
            continue
        if not in_router:
            continue
        if tokens[:2] == ["ospf", "router-id"] and len(tokens) >= 3:
            config.router_id = IPv4Address(tokens[2])
        elif tokens[:3] == ["timers", "ospf", "hello-interval"] and len(tokens) >= 4:
            config.hello_interval = int(tokens[3])
        elif tokens[:3] == ["timers", "ospf", "dead-interval"] and len(tokens) >= 4:
            config.dead_interval = int(tokens[3])
        elif tokens[0] == "network" and len(tokens) >= 4 and tokens[2] == "area":
            config.networks.append(OSPFNetworkStatement(prefix=IPv4Network(tokens[1]),
                                                        area=tokens[3]))
        elif tokens[:2] == ["redistribute", "bgp"]:
            config.redistribute_bgp = True
        elif tokens[:2] == ["redistribute", "connected"]:
            config.redistribute_connected = True
    if config.router_id is None:
        raise ConfigError("ospfd.conf is missing 'ospf router-id'")
    return config


def parse_bgpd_conf(text: str) -> BGPConfig:
    """Parse a bgpd.conf produced by :func:`generate_bgpd_conf` (or Quagga)."""
    config = BGPConfig()
    in_router = False
    for line in _significant_lines(text):
        stripped = line.strip()
        indented = line.startswith(" ")
        tokens = stripped.split()
        if not indented:
            if tokens[:2] == ["router", "bgp"] and len(tokens) >= 3:
                in_router = True
                config.local_as = int(tokens[2])
            else:
                in_router = False
                if tokens[0] == "hostname" and len(tokens) >= 2:
                    config.hostname = tokens[1]
                elif tokens[0] == "password" and len(tokens) >= 2:
                    config.password = tokens[1]
                elif tokens[:2] == ["ip", "prefix-list"] and len(tokens) >= 6 \
                        and tokens[3] == "seq":
                    action = tokens[5]
                    if action not in ("permit", "deny"):
                        raise ConfigError(f"bad prefix-list action: {stripped!r}")
                    entry = None if len(tokens) < 7 or tokens[6] == "any" \
                        else IPv4Network(tokens[6])
                    config.prefix_lists.setdefault(tokens[2], []).append(
                        (action, entry))
            continue
        if not in_router:
            continue
        if tokens[:2] == ["bgp", "router-id"] and len(tokens) >= 3:
            config.router_id = IPv4Address(tokens[2])
        elif tokens[:2] == ["timers", "bgp"] and len(tokens) >= 4:
            config.keepalive_interval = float(tokens[2])
            config.hold_time = float(tokens[3])
        elif tokens[0] == "neighbor" and len(tokens) >= 4 and tokens[2] == "remote-as":
            config.neighbors.append(BGPNeighbor(address=IPv4Address(tokens[1]),
                                                remote_as=int(tokens[3])))
        elif tokens[0] == "neighbor" and len(tokens) >= 4 \
                and tokens[2] in ("local-preference", "med", "prefix-list",
                                  "relationship"):
            neighbor = config.neighbor(IPv4Address(tokens[1]))
            if neighbor is None:
                raise ConfigError(
                    f"policy for unknown neighbor (no remote-as yet): {stripped!r}")
            if tokens[2] == "local-preference":
                neighbor.local_pref = int(tokens[3])
            elif tokens[2] == "med":
                neighbor.med = int(tokens[3])
            elif tokens[2] == "relationship":
                if tokens[3] not in ("customer", "peer", "provider"):
                    raise ConfigError(f"bad neighbor relationship: {stripped!r}")
                neighbor.relationship = tokens[3]
            else:  # prefix-list NAME out
                neighbor.export_prefix_list = tokens[3]
        elif tokens[0] == "neighbor" and len(tokens) >= 3 \
                and tokens[2] == "route-reflector-client":
            neighbor = config.neighbor(IPv4Address(tokens[1]))
            if neighbor is None:
                raise ConfigError(
                    f"policy for unknown neighbor (no remote-as yet): {stripped!r}")
            neighbor.route_reflector_client = True
        elif tokens[0] == "network" and len(tokens) >= 2:
            config.networks.append(IPv4Network(tokens[1]))
        elif tokens[:2] == ["redistribute", "ospf"]:
            config.redistribute_ospf = True
        elif tokens[:2] == ["redistribute", "connected"]:
            config.redistribute_connected = True
    return config
