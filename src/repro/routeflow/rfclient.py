"""RFClient: exports a VM's FIB changes to the RFServer.

In RouteFlow the RFClient runs inside each VM, watches the kernel routing
table that zebra populates, and reports every change to the RFServer as a
RouteMod.  Here it subscribes to the VM's zebra FIB listener hook and
publishes JSON-encoded RouteMods on the control-plane bus — the
``route_mods.<shard>`` topic of the RFServer shard owning this VM, a delay
channel whose one-way latency is :attr:`IPC_DELAY`.

Publishing goes through a bus publisher handle
(:func:`repro.bus.reliable.acquire_publisher`): on a perfect bus that is
a passthrough shim identical to a bare ``bus.publish``; when the
framework enables reliable IPC it becomes an acknowledged, retransmitting
publisher whose escape hatch — retransmit budget exhausted, e.g. after a
long partition — schedules a full :meth:`resync`.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Optional

from repro.bus.reliable import acquire_publisher
from repro.net.addresses import IPv4Network
from repro.quagga.rib import Route, RouteSource
from repro.routeflow.ipc import RouteMod
from repro.routeflow.vm import VirtualMachine
from repro.sim import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.routeflow.rfserver import RFServer

LOG = logging.getLogger(__name__)


class RFClient:
    """The per-VM agent reporting FIB changes to the RFServer."""

    #: One-way latency of the RFClient -> RFServer IPC hop.
    IPC_DELAY = 0.005

    #: Minimum gap between exhaustion-triggered resyncs, so a chain of
    #: exhaustions during one long outage collapses into one recovery.
    RESYNC_COOLDOWN = 1.0

    def __init__(self, sim: Simulator, vm: VirtualMachine, rfserver: "RFServer") -> None:
        self.sim = sim
        self.vm = vm
        self.rfserver = rfserver
        self.bus = rfserver.bus
        self.route_mods_sent = 0
        self.resyncs = 0
        self._routemod_label = f"rfclient:{vm.vm_id}:routemod"
        self._sender = f"rfclient:{vm.vm_id}"
        self._endpoint = f"vm:{vm.vm_id}"
        self._resync_scheduled = False
        self._last_resync_at = float("-inf")
        self._publisher = acquire_publisher(
            self.bus, rfserver.route_mods_topic, self._sender,
            endpoint=self._endpoint, on_exhausted=self._on_exhausted)
        vm.zebra.add_fib_listener(self._on_fib_change)

    def _on_fib_change(self, prefix: IPv4Network, new: Optional[Route],
                       old: Optional[Route]) -> None:
        interface = new.interface if new is not None \
            else old.interface if old is not None else ""
        if interface == "lo":
            # Loopback routes (the router id /32) stay inside the VM: the
            # physical switch has no port to mirror them onto.
            return
        if new is None:
            message = RouteMod.delete(vm_id=self.vm.vm_id, prefix=prefix,
                                      interface=old.interface if old else "")
        elif (old is not None
              and RouteSource.TE in (new.source, old.source)
              and (new.next_hop, new.interface) != (old.next_hop, old.interface)):
            # A TE steer (or its withdrawal) replaced the best route in
            # place.  Mirror netlink's RTM_DELROUTE + RTM_NEWROUTE pair so
            # the stale flow entry is strictly deleted (OFPFC_DELETE)
            # before the new next hop is installed — the same withdrawal
            # lifecycle a link failure rides.  Without TE routes in the
            # RIB this branch is unreachable, keeping golden traces
            # byte-identical.
            removal = RouteMod.delete(vm_id=self.vm.vm_id, prefix=prefix,
                                      interface=old.interface)
            self.route_mods_sent += 1
            self._publisher.publish(removal.to_json(),
                                    label=self._routemod_label)
            message = RouteMod.add(vm_id=self.vm.vm_id, prefix=prefix,
                                   next_hop=new.next_hop, interface=new.interface,
                                   metric=new.metric)
        else:
            message = RouteMod.add(vm_id=self.vm.vm_id, prefix=prefix,
                                   next_hop=new.next_hop, interface=new.interface,
                                   metric=new.metric)
        self.route_mods_sent += 1
        self._publisher.publish(message.to_json(), label=self._routemod_label)

    def repoint(self, rfserver: "RFServer") -> None:
        """Re-target this client at a different RFServer shard.

        Called when the VM's dpid migrates (takeover or resharding): the
        client keeps watching the same zebra FIB but publishes subsequent
        RouteMods on the new master's ``route_mods.<shard>`` topic.  A
        reliable publisher carries its unacked window along, re-offering
        those RouteMods to the new master.
        """
        self.rfserver = rfserver
        self.bus = rfserver.bus
        self._publisher.retarget(rfserver.route_mods_topic)

    def _on_exhausted(self) -> None:
        """Escape hatch: the retransmit budget ran out (dead shard, long
        partition).  Protocol-level recovery is impossible, so schedule a
        full FIB resync — idempotent at the receiver — once the dust
        settles."""
        if self._resync_scheduled:
            return
        if self.sim.now - self._last_resync_at < self.RESYNC_COOLDOWN:
            return
        self._resync_scheduled = True
        LOG.warning("rfclient %d: retransmit budget exhausted, scheduling "
                    "full resync", self.vm.vm_id)
        self.sim.schedule(self.RESYNC_COOLDOWN, self._exhaustion_resync,
                          label=f"rfclient:{self.vm.vm_id}:resync")

    def _exhaustion_resync(self) -> None:
        self._resync_scheduled = False
        self._last_resync_at = self.sim.now
        self.resyncs += 1
        self.resync()

    def resync(self) -> int:
        """Re-announce the VM's entire FIB to the current RFServer.

        The new master after a takeover adopted the old master's installed
        flow records, but any FIB change that happened while the partition
        was in flight never reached it.  A full resync is idempotent — the
        RFProxy overwrites flow entries keyed by (dpid, prefix) — and
        closes that gap.  Returns the number of RouteMods published.
        """
        published = 0
        for prefix, route in self.vm.zebra.fib.items():
            if route.interface == "lo":
                continue
            message = RouteMod.add(vm_id=self.vm.vm_id, prefix=prefix,
                                   next_hop=route.next_hop,
                                   interface=route.interface,
                                   metric=route.metric)
            self.route_mods_sent += 1
            published += 1
            self._publisher.publish(message.to_json(),
                                    label=self._routemod_label)
        return published

    def __repr__(self) -> str:
        return f"<RFClient vm={self.vm.vm_id} sent={self.route_mods_sent}>"
