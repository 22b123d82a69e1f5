"""Network substrate: addresses, packet codecs, links, hosts, namespaces."""

from repro.net.addresses import (
    AddressError,
    IPv4Address,
    IPv4Network,
    MACAddress,
    checksum16,
)
from repro.net.arp import ARP
from repro.net.ethernet import Ethernet, EtherType
from repro.net.host import Host
from repro.net.ipv4 import IPProtocol, IPv4
from repro.net.link import Interface, Link, connect
from repro.net.lldp import LLDP, LLDP_MULTICAST
from repro.net.namespace import NamespaceRegistry, NetworkNamespace
from repro.net.packet import DecodeError, Header, as_bytes
from repro.net.transport import ICMP, UDP

__all__ = [
    "ARP",
    "AddressError",
    "DecodeError",
    "Ethernet",
    "EtherType",
    "Header",
    "Host",
    "ICMP",
    "IPProtocol",
    "IPv4",
    "IPv4Address",
    "IPv4Network",
    "Interface",
    "LLDP",
    "LLDP_MULTICAST",
    "Link",
    "MACAddress",
    "NamespaceRegistry",
    "NetworkNamespace",
    "UDP",
    "as_bytes",
    "checksum16",
    "connect",
]
