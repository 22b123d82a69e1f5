"""The RouteFlow virtual machine.

Each OpenFlow switch is mirrored by one virtual machine that runs the
routing control platform (zebra + ospfd, optionally bgpd).  The RPC server
creates the VM with as many interfaces as the switch has ports, assigns
interface addresses when links are configured, and writes the Quagga
configuration files; the VM boots, parses those files and runs the routing
daemons over the *virtual* topology (VM-to-VM links mirroring the physical
links).

VM creation is not free: the ``boot_delay`` parameter models the LXC
clone/boot cost that dominates RouteFlow's automatic configuration time
(and is the knob swept by ablation A2).
"""

from __future__ import annotations

import logging
import struct
from typing import Callable, Dict, List, Optional

from repro.net.addresses import IPv4Address, IPv4Network, MACAddress
from repro.net.ethernet import EtherType, ethernet_framing
from repro.net.ipv4 import IPProtocol, ipv4_framing
from repro.net.link import Interface
from repro.net.packet import DecodeError
from repro.quagga.bgp import BGPDaemon, BGPSessionBroker
from repro.quagga.configfile import (
    InterfaceConfig,
    parse_bgpd_conf,
    parse_ospfd_conf,
    parse_zebra_conf,
)
from repro.quagga.ospf.constants import ALL_SPF_ROUTERS, ALL_SPF_ROUTERS_MAC
from repro.quagga.ospf.daemon import OSPFDaemon
from repro.quagga.ospf.packets import OSPFPacket
from repro.quagga.rib import Route, RouteSource
from repro.quagga.zebra import ZebraDaemon
from repro.sim import Simulator

LOG = logging.getLogger(__name__)


def port_interface(port: int) -> str:
    """The VM interface that mirrors switch port ``port``: ``eth<port>``."""
    return f"eth{port}"


def interface_port(name: str) -> Optional[int]:
    """The switch port VM interface ``name`` mirrors: N for ``eth<N>``
    with N >= 1, None for any other name (``lo``, ``eth0``)."""
    digits = name[3:]
    if name.startswith("eth") and digits.isdigit() and digits[0] != "0":
        return int(digits)
    return None


class VMState:
    CREATED = "created"
    BOOTING = "booting"
    RUNNING = "running"
    STOPPED = "stopped"


class VirtualMachine:
    """One routing VM mirroring one OpenFlow switch."""

    #: Delay between a daemon's configuration file appearing and the daemon
    #: actually running (package start-up cost inside the VM).
    DAEMON_START_DELAY = 1.0

    def __init__(self, sim: Simulator, vm_id: int, num_ports: int,
                 boot_delay: float = 5.0,
                 bgp_broker: Optional[BGPSessionBroker] = None) -> None:
        self.sim = sim
        self.vm_id = vm_id
        self.name = f"VM-{vm_id:016x}"
        self.boot_delay = boot_delay
        self.state = VMState.CREATED
        self.created_at = sim.now
        #: The session broker bgpd peers through; None leaves bgpd.conf
        #: configuration-complete but unwired (the OSPF-only deployments).
        self.bgp_broker = bgp_broker
        #: interface name ("eth<N>") -> Interface; eth0 is the management NIC.
        self.interfaces: Dict[str, Interface] = {}
        #: The generated configuration files, exactly as the RPC server wrote them.
        self.config_files: Dict[str, str] = {}
        self.zebra = ZebraDaemon(hostname=self.name)
        self.ospf: Optional[OSPFDaemon] = None
        self.bgp: Optional[BGPDaemon] = None
        self.zebra.add_fib_listener(self._redistribute_fib_change)
        self._pending_configs: List[tuple] = []
        self._boot_event = None
        self._boot_callbacks: List[Callable[["VirtualMachine"], None]] = []
        #: ``callback(vm, interface, old_ip)`` observers of interface
        #: address changes; the RFServer uses this to keep its next-hop
        #: index in sync without ever scanning interfaces.
        self._address_listeners: List[Callable] = []
        #: (iface, src-ip, dst-ip) -> precomputed frame head for ospfd sends.
        self._frame_heads: Dict[tuple, tuple] = {}
        for port in range(1, num_ports + 1):
            self._create_interface(port)

    # -------------------------------------------------------------- interfaces
    def _create_interface(self, port: int) -> Interface:
        name = port_interface(port)
        mac = MACAddress.from_local_id(0x10000 + self.vm_id, port)
        interface = Interface(name=name, mac=mac, owner=self, port_no=port)
        interface.set_handler(self._on_frame)
        interface.add_carrier_listener(self._on_carrier_change)
        interface.add_address_listener(self._on_address_change)
        self.interfaces[name] = interface
        return interface

    def add_address_listener(self, callback: Callable) -> None:
        """Subscribe ``callback(vm, interface, old_ip)`` to address changes
        on any of this VM's interfaces (including ports added later)."""
        self._address_listeners.append(callback)

    def replace_address_listener(self, old: Callable, new: Callable) -> None:
        """Swap one address listener for another, in place.

        Used when the VM's dpid migrates to a different controller shard:
        the adopting RFServer takes over the slot the old master held, so
        the dead shard's index never hears another address change."""
        try:
            index = self._address_listeners.index(old)
        except ValueError:
            self._address_listeners.append(new)
        else:
            self._address_listeners[index] = new

    def _on_address_change(self, interface: Interface, old_ip) -> None:
        for callback in self._address_listeners:
            callback(self, interface, old_ip)
        if self.bgp is not None and interface.ip is not None:
            self.bgp.local_address_added(interface.ip)

    def _on_carrier_change(self, interface: Interface, up: bool) -> None:
        """A virtual wire changed state (mirroring a physical link event).

        Exactly what a Linux kernel + Quagga stack does on carrier change:
        the connected route is withdrawn (reinstated) in zebra, ospfd
        tears down (re-forms) the adjacency over the interface — which in
        turn withdraws the routes through it everywhere in the area — and
        bgpd drops (re-establishes) the eBGP sessions bound to the
        interface (fast external fallover), withdrawing the routes learned
        over them.
        """
        if not self.is_running or interface.ip is None:
            return
        prefix = IPv4Network((interface.ip, interface.prefix_len))
        if up:
            self.zebra.announce_connected(prefix, interface.name)
            if self.ospf is not None:
                self.ospf.interface_up(interface.name)
            if self.bgp is not None:
                self.bgp.interface_up(interface.name)
        else:
            if self.ospf is not None:
                self.ospf.interface_down(interface.name)
            if self.bgp is not None:
                self.bgp.interface_down(interface.name)
            self.zebra.withdraw_connected(prefix)

    def _create_loopback(self) -> Interface:
        """Create the loopback interface (declared by an ``interface lo``
        stanza in zebra.conf — interdomain deployments put the router id
        on it as a /32 so iBGP next-hop-self resolves through the IGP).
        The loopback is never wired to the virtual topology and OSPF treats
        it as passive."""
        interface = Interface(name="lo",
                              mac=MACAddress.from_local_id(0x20000 + self.vm_id, 0),
                              owner=self, port_no=0)
        interface.add_address_listener(self._on_address_change)
        self.interfaces["lo"] = interface
        return interface

    def add_port(self, port: int) -> Interface:
        """Add an extra interface (switch grew a port after VM creation)."""
        name = port_interface(port)
        if name in self.interfaces:
            return self.interfaces[name]
        return self._create_interface(port)

    def interface(self, name: str) -> Interface:
        return self.interfaces[name]

    @property
    def num_ports(self) -> int:
        return len([name for name in self.interfaces if name != "lo"])

    # --------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Begin booting; the VM is usable ``boot_delay`` seconds later."""
        if self.state != VMState.CREATED:
            return
        self.state = VMState.BOOTING
        self._boot_event = self.sim.schedule(self.boot_delay, self._boot_complete,
                                             label=f"{self.name}:boot")

    def on_running(self, callback: Callable[["VirtualMachine"], None]) -> None:
        """Register a callback fired once the VM finishes booting.

        If the VM is already running the callback fires immediately.
        """
        if self.is_running:
            callback(self)
        else:
            self._boot_callbacks.append(callback)

    def _boot_complete(self) -> None:
        self.state = VMState.RUNNING
        self.zebra.start()
        LOG.info("%s: booted after %.1fs", self.name, self.sim.now - self.created_at)
        pending, self._pending_configs = self._pending_configs, []
        for filename, text in pending:
            self.write_config_file(filename, text)
        callbacks, self._boot_callbacks = self._boot_callbacks, []
        for callback in callbacks:
            callback(self)

    def stop(self) -> None:
        self.state = VMState.STOPPED
        if self._boot_event is not None:
            self._boot_event.cancel()
        if self.bgp is not None:
            self.bgp.stop()
        if self.ospf is not None:
            self.ospf.stop()
        self.zebra.stop()

    @property
    def is_running(self) -> bool:
        return self.state == VMState.RUNNING

    # ----------------------------------------------------------- configuration
    def write_config_file(self, filename: str, text: str) -> None:
        """The RPC server writes a Quagga configuration file into the VM.

        Files written before the VM finished booting are applied as soon as
        the boot completes (exactly like files staged into an LXC rootfs).
        """
        self.config_files[filename] = text
        if not self.is_running:
            self._pending_configs.append((filename, text))
            return
        if filename.startswith("zebra"):
            self._apply_zebra_config(text)
        elif filename.startswith("ospf"):
            self._apply_ospfd_config(text)
        elif filename.startswith("bgp"):
            self._apply_bgpd_config(text)
        else:
            LOG.warning("%s: unknown configuration file %s", self.name, filename)

    def _apply_zebra_config(self, text: str) -> None:
        config = parse_zebra_conf(text)
        for iface_config in config.interfaces:
            if iface_config.name == "lo" and "lo" not in self.interfaces \
                    and iface_config.ip is not None:
                self._create_loopback()
            interface = self.interfaces.get(iface_config.name)
            if interface is None or iface_config.ip is None:
                continue
            already = interface.ip == iface_config.ip and \
                interface.prefix_len == iface_config.prefix_len
            interface.configure_ip(iface_config.ip, iface_config.prefix_len)
            if not already:
                self.zebra.announce_connected(iface_config.network, iface_config.name)
            if self.ospf is not None:
                self.ospf.add_interface(iface_config)

    def _apply_ospfd_config(self, text: str) -> None:
        config = parse_ospfd_conf(text)
        if self.ospf is None:
            self.ospf = OSPFDaemon(
                sim=self.sim, zebra=self.zebra, config=config,
                interfaces=self._configured_interfaces(),
                send_callback=self._send_from_daemon, hostname=self.name)
            self.sim.schedule(self.DAEMON_START_DELAY, self._start_ospf,
                              label=f"{self.name}:ospfd-start")
        else:
            # Updated configuration: merge network statements, redistribute
            # flags and cover any newly enabled interfaces.
            became_redistribute_bgp = (config.redistribute_bgp
                                       and not self.ospf.config.redistribute_bgp)
            self.ospf.config.networks = config.networks
            self.ospf.config.hello_interval = config.hello_interval
            self.ospf.config.dead_interval = config.dead_interval
            self.ospf.config.redistribute_bgp = config.redistribute_bgp
            self.ospf.config.redistribute_connected = config.redistribute_connected
            for iface_config in self._configured_interfaces():
                self.ospf.add_interface(iface_config)
            if became_redistribute_bgp and self.ospf.running:
                # The router became a border: BGP routes already in the FIB
                # seed the redistribution.
                for prefix, route in list(self.zebra.fib.items()):
                    if route.source == RouteSource.BGP:
                        self.ospf.announce_external(prefix)

    def _start_ospf(self) -> None:
        if self.ospf is not None and self.is_running and not self.ospf.running:
            self.ospf.start()
            # Interfaces configured between daemon creation and daemon start
            # (zebra.conf updates staged while the VM was still booting) are
            # enabled now; add_interface is idempotent.
            for iface_config in self._configured_interfaces():
                self.ospf.add_interface(iface_config)
            if self.ospf.config.redistribute_bgp:
                # BGP routes that beat ospfd into the FIB seed the
                # redistribution now.
                for prefix, route in list(self.zebra.fib.items()):
                    if route.source == RouteSource.BGP:
                        self.ospf.announce_external(prefix)

    def _apply_bgpd_config(self, text: str) -> None:
        config = parse_bgpd_conf(text)
        if self.bgp_broker is None:
            # BGP stays configuration-complete but unwired: the OSPF-only
            # deployments generate and parse bgpd.conf without running it.
            return
        if self.bgp is None:
            self.bgp = BGPDaemon(sim=self.sim, zebra=self.zebra, config=config,
                                 broker=self.bgp_broker, hostname=self.name,
                                 address_book=self._bgp_address_book)
            self.sim.schedule(self.DAEMON_START_DELAY, self._start_bgp,
                              label=f"{self.name}:bgpd-start")
        else:
            self.bgp.apply_config(config)

    def _start_bgp(self) -> None:
        if self.bgp is not None and self.is_running and not self.bgp.running:
            self.bgp.start()

    def _bgp_address_book(self) -> Dict[IPv4Address, tuple]:
        """bgpd's view of the local addressing: ip -> (interface, plen)."""
        book = {}
        for name, interface in sorted(self.interfaces.items()):
            if interface.ip is not None:
                book[interface.ip] = (name, interface.prefix_len)
        return book

    def _redistribute_fib_change(self, prefix: IPv4Network,
                                 new: Optional[Route],
                                 old: Optional[Route]) -> None:
        """BGP → OSPF redistribution glue (``redistribute bgp``).

        A BGP route winning the FIB is injected into the OSPF area as an
        AS-external prefix, so interior routers learn interdomain routes
        through the IGP; losing it withdraws the external prefix.  No-op
        unless the parsed ospfd.conf asked for it.
        """
        ospf = self.ospf
        if ospf is None or not ospf.config.redistribute_bgp:
            return
        if new is not None and new.source == RouteSource.BGP:
            ospf.announce_external(prefix)
        elif old is not None and old.source == RouteSource.BGP:
            ospf.withdraw_external(prefix)

    def _configured_interfaces(self) -> List[InterfaceConfig]:
        configs = []
        for name, interface in sorted(self.interfaces.items()):
            if interface.ip is not None:
                configs.append(InterfaceConfig(name=name, ip=interface.ip,
                                               prefix_len=interface.prefix_len))
        return configs

    # ------------------------------------------------------------- virtual I/O
    def _send_from_daemon(self, interface_name: str, dst: IPv4Address, payload: bytes) -> None:
        """Transmit an OSPF packet originated by ospfd on a VM interface.

        Every hello/flood goes through here, so the Ethernet header and the
        constant part of the IPv4 header (everything except total length and
        checksum) are precomputed per (interface, source, destination); the
        emitted bytes are identical to building the full header objects.
        """
        interface = self.interfaces.get(interface_name)
        if interface is None or interface.ip is None or not self.is_running:
            return
        cache_key = (interface_name, interface.ip._value, int(dst))
        cached = self._frame_heads.get(cache_key)
        if cached is None:
            dst_mac = MACAddress(ALL_SPF_ROUTERS_MAC) if dst == ALL_SPF_ROUTERS \
                else MACAddress.broadcast()
            eth_head = (dst_mac.packed + interface.mac.packed
                        + struct.pack("!H", EtherType.IPV4))
            addrs = interface.ip.packed + IPv4Address(dst).packed
            # Checksum contribution of every halfword except total_length
            # (and the zeroed checksum field itself).
            const_sum = sum(struct.unpack(
                "!10H",
                struct.pack("!BBHHHBBH", 0x45, 0, 0, 0, 0, 1, IPProtocol.OSPF, 0)
                + addrs))
            cached = (eth_head, addrs, const_sum)
            self._frame_heads[cache_key] = cached
        eth_head, addrs, const_sum = cached
        total_length = 20 + len(payload)
        total = const_sum + total_length
        while total >> 16:
            total = (total & 0xFFFF) + (total >> 16)
        ip_head = struct.pack("!BBHHHBBH", 0x45, 0, total_length, 0, 0, 1,
                              IPProtocol.OSPF, ~total & 0xFFFF)
        interface.send(eth_head + ip_head + addrs + payload)

    def _on_frame(self, interface: Interface, data: bytes) -> None:
        """A frame arrived on a VM interface over the virtual topology.

        VM interfaces only ever receive OSPF-over-IPv4 frames, so only the
        Ethernet and IPv4 codecs' header checks run, not a decode of the
        full header-object tree per hop; a frame those checks reject, or
        that carries anything but OSPF over IPv4, is dropped.
        """
        if not self.is_running or self.ospf is None:
            return
        framing = ethernet_framing(data)
        if framing is None or framing[0] != EtherType.IPV4:
            return
        ip = data[framing[1]:]
        ip_framing = ipv4_framing(ip)
        if ip_framing is None or ip_framing[0] != IPProtocol.OSPF:
            return
        src = IPv4Address(ip[12:16])
        body = ip_framing[1]
        try:
            payload = OSPFPacket.decode(body)
        except DecodeError:
            # Hand the daemon the raw bytes so it logs the bad packet
            # exactly as it would have before.
            payload = body
        self.ospf.receive_packet(interface.name, src, payload)

    # ----------------------------------------------------------------- status
    def owns_ip(self, address: IPv4Address) -> Optional[Interface]:
        """Return the interface holding the given address, if any."""
        for interface in self.interfaces.values():
            if interface.ip is not None and interface.ip == IPv4Address(address):
                return interface
        return None

    def __repr__(self) -> str:
        return f"<VirtualMachine {self.name} state={self.state} ports={self.num_ports}>"
