"""Interfaces and links: the physical layer of the simulated network.

A :class:`Interface` belongs to a device (an OpenFlow switch port, a host
NIC, a VM NIC) and may be attached to a :class:`Link`.  Links connect
exactly two interfaces and deliver frames after a propagation delay plus a
serialization delay derived from the configured bandwidth.  Links can be
taken down and brought back up, which is how the experiments inject
failures.
"""

from __future__ import annotations

import logging
from typing import Callable, List, Optional

from repro.net.addresses import IPv4Address, IPv4Network, MACAddress
from repro.sim import Simulator

LOG = logging.getLogger(__name__)

#: Type of the frame-delivery callback: ``handler(interface, frame_bytes)``.
FrameHandler = Callable[["Interface", bytes], None]

#: Type of the carrier-change callback: ``listener(interface, up)``.  Fired
#: when the attached link changes operational state — the simulated
#: equivalent of a NIC driver reporting loss (or return) of carrier.
CarrierListener = Callable[["Interface", bool], None]

#: Type of the address-change callback: ``listener(interface, old_ip)``.
#: Fired after :meth:`Interface.configure_ip` changes the address, with the
#: previous address (or None) — the simulated equivalent of a netlink
#: RTM_NEWADDR notification.
AddressListener = Callable[["Interface", Optional[IPv4Address]], None]


class Interface:
    """A network interface attached to a simulated device.

    Attributes
    ----------
    name:
        Human-readable name, e.g. ``"s3-eth2"`` or ``"h1-eth0"``.
    mac:
        The interface's MAC address.
    ip / prefix_len:
        Optional IPv4 configuration (hosts and VM interfaces use it; bare
        switch ports do not).
    """

    def __init__(
        self,
        name: str,
        mac: MACAddress,
        owner: object = None,
        port_no: int = 0,
    ) -> None:
        self.name = name
        self.mac = MACAddress(mac)
        self.owner = owner
        self.port_no = port_no
        self.ip: Optional[IPv4Address] = None
        self.prefix_len: int = 0
        self.link: Optional[Link] = None
        self.up = True
        self._handler: Optional[FrameHandler] = None
        self._carrier_listeners: List[CarrierListener] = []
        self._address_listeners: List[AddressListener] = []
        # Counters
        self.tx_packets = 0
        self.rx_packets = 0
        self.tx_bytes = 0
        self.rx_bytes = 0
        self.tx_dropped = 0
        self.rx_dropped = 0
        # Utilization accounting, shared by the packet path (per-frame
        # serialization time, fed by Link.transmit) and the fluid fast
        # path (rate integrals, fed by the fluid engine): cumulative
        # transmit busy time plus the peak observed transmit rate.
        self.tx_busy_seconds = 0.0
        self.peak_tx_bps = 0.0
        self._rate_window_start = 0.0
        self._rate_window_bits = 0.0

    # ----------------------------------------------------------- configuration
    def set_handler(self, handler: FrameHandler) -> None:
        """Install the callback invoked when a frame arrives on this interface."""
        self._handler = handler

    def add_carrier_listener(self, listener: CarrierListener) -> None:
        """Subscribe to carrier (link operational state) changes."""
        self._carrier_listeners.append(listener)

    def notify_carrier(self, up: bool) -> None:
        """Deliver a carrier change to the owning device (called by the link)."""
        for listener in self._carrier_listeners:
            listener(self, up)

    def add_address_listener(self, listener: AddressListener) -> None:
        """Subscribe to IPv4 address changes on this interface."""
        self._address_listeners.append(listener)

    def configure_ip(self, ip: IPv4Address, prefix_len: int) -> None:
        """Assign an IPv4 address/prefix to the interface."""
        old_ip = self.ip
        self.ip = IPv4Address(ip)
        self.prefix_len = prefix_len
        if old_ip != self.ip:
            for listener in self._address_listeners:
                listener(self, old_ip)

    @property
    def network(self) -> Optional[IPv4Network]:
        """The connected prefix, if an IP is configured."""
        if self.ip is None:
            return None
        return IPv4Network((self.ip, self.prefix_len))

    # ------------------------------------------------------------------- I/O
    def send(self, frame: bytes) -> bool:
        """Transmit a frame onto the attached link.

        Returns False (and counts a drop) when the interface is down or not
        cabled — mirroring a real NIC silently dropping on a dead link.
        """
        if not self.up or self.link is None:
            self.tx_dropped += 1
            return False
        self.tx_packets += 1
        self.tx_bytes += len(frame)
        self.link.transmit(self, frame)
        return True

    def deliver(self, frame: bytes) -> None:
        """Called by the link when a frame arrives."""
        if not self.up:
            self.rx_dropped += 1
            return
        self.rx_packets += 1
        self.rx_bytes += len(frame)
        if self._handler is not None:
            self._handler(self, frame)

    #: Width of the sliding window the packet path derives peak rates over.
    RATE_WINDOW = 1.0

    def account_tx(self, now: float, bits: float, busy_seconds: float) -> None:
        """Charge one transmitted frame (packet path).

        ``busy_seconds`` is the frame's serialization time on the attached
        link; the peak rate is tracked over :attr:`RATE_WINDOW`-second
        windows of transmitted bits.
        """
        self.tx_busy_seconds += busy_seconds
        elapsed = now - self._rate_window_start
        if elapsed >= self.RATE_WINDOW:
            if self._rate_window_bits:
                rate = self._rate_window_bits / elapsed
                if rate > self.peak_tx_bps:
                    self.peak_tx_bps = rate
            self._rate_window_start = now
            self._rate_window_bits = 0.0
        self._rate_window_bits += bits

    def account_rate(self, rate_bps: float, seconds: float,
                     capacity_bps: float) -> None:
        """Charge a sustained transmit rate over an interval (fluid path)."""
        if capacity_bps > 0.0:
            self.tx_busy_seconds += seconds * min(1.0, rate_bps / capacity_bps)
        if rate_bps > self.peak_tx_bps:
            self.peak_tx_bps = rate_bps

    def stats(self) -> dict:
        """Snapshot of the delivery/drop counters."""
        return {
            "tx_packets": self.tx_packets,
            "rx_packets": self.rx_packets,
            "tx_bytes": self.tx_bytes,
            "rx_bytes": self.rx_bytes,
            "tx_dropped": self.tx_dropped,
            "rx_dropped": self.rx_dropped,
            "tx_busy_seconds": self.tx_busy_seconds,
            "peak_tx_bps": self.peak_tx_bps,
        }

    def __repr__(self) -> str:
        ip = f" {self.ip}/{self.prefix_len}" if self.ip else ""
        return f"<Interface {self.name} mac={self.mac}{ip}>"


class Link:
    """A bidirectional point-to-point link between two interfaces."""

    def __init__(
        self,
        sim: Simulator,
        iface_a: Interface,
        iface_b: Interface,
        delay: float = 0.001,
        bandwidth_bps: float = 1e9,
        name: str = "",
    ) -> None:
        if iface_a.link is not None or iface_b.link is not None:
            raise ValueError("interface is already cabled to another link")
        self.sim = sim
        self.iface_a = iface_a
        self.iface_b = iface_b
        self.delay = delay
        self.bandwidth_bps = bandwidth_bps
        self.up = True
        self.name = name or f"{iface_a.name}<->{iface_b.name}"
        self._event_label = f"link:{self.name}"
        iface_a.link = self
        iface_b.link = self
        self.tx_frames = 0
        self.dropped_frames = 0

    def peer_of(self, iface: Interface) -> Interface:
        """Return the interface at the other end of the link."""
        if iface is self.iface_a:
            return self.iface_b
        if iface is self.iface_b:
            return self.iface_a
        raise ValueError(f"{iface!r} is not attached to {self.name}")

    def transmit(self, from_iface: Interface, frame: bytes) -> None:
        """Schedule delivery of ``frame`` at the peer interface."""
        if not self.up:
            self.dropped_frames += 1
            return
        peer = self.peer_of(from_iface)
        bits = len(frame) * 8
        serialization = bits / self.bandwidth_bps if self.bandwidth_bps else 0.0
        self.tx_frames += 1
        from_iface.account_tx(self.sim.now, bits, serialization)
        self.sim.schedule(self.delay + serialization, peer.deliver, frame,
                          label=self._event_label)

    def set_down(self) -> None:
        """Take the link down: in-flight frames still arrive, new ones drop.

        Both endpoint interfaces are notified of the carrier loss, which is
        how devices (RouteFlow VMs in particular) react to a failure without
        waiting for protocol timers.
        """
        if not self.up:
            return
        self.up = False
        self.iface_a.notify_carrier(False)
        self.iface_b.notify_carrier(False)

    def set_up(self) -> None:
        if self.up:
            return
        self.up = True
        self.iface_a.notify_carrier(True)
        self.iface_b.notify_carrier(True)

    def stats(self) -> dict:
        """Snapshot of the link's frame counters and utilization."""
        return {
            "tx_frames": self.tx_frames,
            "dropped_frames": self.dropped_frames,
            # Both directions share the physical link, so busy time sums
            # and the peak is the hotter direction.
            "busy_seconds": (self.iface_a.tx_busy_seconds
                             + self.iface_b.tx_busy_seconds),
            "peak_bps": max(self.iface_a.peak_tx_bps,
                            self.iface_b.peak_tx_bps),
        }

    def __repr__(self) -> str:
        state = "up" if self.up else "down"
        return f"<Link {self.name} {state} delay={self.delay * 1e3:.2f}ms>"


def connect(
    sim: Simulator,
    iface_a: Interface,
    iface_b: Interface,
    delay: float = 0.001,
    bandwidth_bps: float = 1e9,
) -> Link:
    """Cable two interfaces together and return the resulting link."""
    return Link(sim, iface_a, iface_b, delay=delay, bandwidth_bps=bandwidth_bps)
