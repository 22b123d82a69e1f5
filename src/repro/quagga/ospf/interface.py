"""Per-interface OSPF machinery: hello protocol and the neighbor FSM.

Every OSPF-enabled VM interface is treated as a point-to-point network (the
RouteFlow virtual topology only contains router-to-router links), so there
is no DR/BDR election and adjacencies form with every neighbor heard on the
interface.  The adjacency walks the standard state sequence
Down → Init → ExStart → Exchange → (Loading) → Full via real Hello,
Database-Description, LS-Request, LS-Update and LS-Ack packets.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.net.addresses import IPv4Address, IPv4Network
from repro.quagga.ospf.constants import DDFlags, NeighborState
from repro.quagga.ospf.neighbor import Neighbor
from repro.quagga.ospf.packets import (
    DBDescriptionPacket,
    HelloPacket,
    LSAckPacket,
    LSRequestPacket,
    LSUpdatePacket,
    OSPFPacket,
)
from repro.sim import PeriodicTask

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.quagga.ospf.daemon import OSPFDaemon

LOG = logging.getLogger(__name__)


class OSPFInterface:
    """OSPF state bound to one VM interface."""

    def __init__(self, daemon: "OSPFDaemon", name: str, ip: IPv4Address,
                 prefix_len: int, cost: int, hello_interval: float,
                 dead_interval: float) -> None:
        self.daemon = daemon
        self.name = name
        self.ip = IPv4Address(ip)
        self.prefix_len = prefix_len
        self.cost = cost
        self.hello_interval = hello_interval
        self.dead_interval = dead_interval
        #: Operational state: a downed interface sends no hellos, accepts no
        #: packets and contributes no links to the Router LSA.
        self.up = True
        self.neighbors: Dict[IPv4Address, Neighbor] = {}
        #: Connected prefix and netmask, fixed at construction (the ip and
        #: prefix length never change) — hello emission reads them per tick.
        self.network = IPv4Network((self.ip, prefix_len))
        self.netmask = self.network.netmask
        self._hello_task = PeriodicTask(daemon.sim, hello_interval, self.send_hello,
                                        name=f"ospf:{daemon.hostname}:{name}:hello")
        self._dd_sequence = 1
        self._dead_label = f"ospf:{daemon.hostname}:{name}:dead"
        #: (neighbor-id tuple, encoded hello) — hellos only change when the
        #: neighbor set does, so steady-state ticks resend cached bytes.
        self._hello_wire: Optional[tuple] = None

    # -------------------------------------------------------------- properties
    @property
    def full_neighbors(self) -> List[Neighbor]:
        return [n for n in self.neighbors.values() if n.state == NeighborState.FULL]

    # -------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Begin sending hellos (first one immediately, as Quagga does)."""
        self._hello_task.start(fire_immediately=True)

    def stop(self) -> None:
        self._hello_task.stop()
        for neighbor in self.neighbors.values():
            if neighbor.dead_timer_event is not None:
                neighbor.dead_timer_event.cancel()
        self.neighbors.clear()

    def bring_down(self) -> None:
        """Interface lost carrier: stop hellos and tear every adjacency down.

        Unlike :meth:`stop` this walks the neighbor FSM (each adjacency
        transitions to Down), so the daemon re-originates its Router LSA for
        every lost FULL adjacency and schedules SPF — the withdrawal then
        propagates through the RIB to the FIB and the physical switch.
        """
        if not self.up:
            return
        self.up = False
        self._hello_task.stop()
        self._hello_wire = None
        for neighbor in list(self.neighbors.values()):
            if neighbor.dead_timer_event is not None:
                neighbor.dead_timer_event.cancel()
                neighbor.dead_timer_event = None
            del self.neighbors[neighbor.router_id]
            self._set_state(neighbor, NeighborState.DOWN)

    def bring_up(self) -> None:
        """Carrier returned: resume hellos so adjacencies can re-form."""
        if self.up:
            return
        self.up = True
        self._hello_task.start(fire_immediately=True)

    # ------------------------------------------------------------------ hello
    def send_hello(self) -> None:
        if not self.up:
            return
        neighbor_ids = tuple(self.neighbors)
        cached = self._hello_wire
        if cached is None or cached[0] != neighbor_ids:
            hello = HelloPacket(
                router_id=self.daemon.router_id,
                network_mask=self.netmask,
                hello_interval=int(self.hello_interval),
                dead_interval=int(self.dead_interval),
                neighbors=[n.router_id for n in self.neighbors.values()],
            )
            cached = self._hello_wire = (neighbor_ids, hello.encode())
        self.daemon.send_bytes(self.name, cached[1])

    # --------------------------------------------------------------- dispatch
    def handle_packet(self, src_ip: IPv4Address, packet: OSPFPacket) -> None:
        if not self.up:
            return  # a frame in flight when the interface went down
        if packet.router_id == self.daemon.router_id:
            return  # our own multicast reflected back
        if isinstance(packet, HelloPacket):
            self._handle_hello(src_ip, packet)
        elif isinstance(packet, DBDescriptionPacket):
            self._handle_dd(packet)
        elif isinstance(packet, LSRequestPacket):
            self._handle_ls_request(packet)
        elif isinstance(packet, LSUpdatePacket):
            self._handle_ls_update(packet)
        elif isinstance(packet, LSAckPacket):
            pass  # no retransmission queues on loss-free virtual links

    # ------------------------------------------------------------------ hello
    def _handle_hello(self, src_ip: IPv4Address, hello: HelloPacket) -> None:
        neighbor = self.neighbors.get(hello.router_id)
        if neighbor is None:
            neighbor = Neighbor(router_id=hello.router_id, address=src_ip)
            self.neighbors[hello.router_id] = neighbor
            self._set_state(neighbor, NeighborState.INIT)
        neighbor.address = IPv4Address(src_ip)
        self._restart_dead_timer(neighbor)
        bidirectional = self.daemon.router_id in hello.neighbors
        if bidirectional and neighbor.state < NeighborState.EXSTART:
            self._start_adjacency(neighbor)
        elif not bidirectional and neighbor.state >= NeighborState.TWO_WAY:
            # One-way received: fall back and retry adjacency from scratch.
            self._set_state(neighbor, NeighborState.INIT)

    def _restart_dead_timer(self, neighbor: Neighbor) -> None:
        if neighbor.dead_timer_event is not None:
            neighbor.dead_timer_event.cancel()
        neighbor.dead_timer_event = self.daemon.sim.schedule(
            self.dead_interval, self._neighbor_dead, neighbor,
            label=self._dead_label)

    def _neighbor_dead(self, neighbor: Neighbor) -> None:
        if self.neighbors.get(neighbor.router_id) is not neighbor:
            return
        LOG.info("%s/%s: neighbor %s dead", self.daemon.hostname, self.name,
                 neighbor.router_id)
        del self.neighbors[neighbor.router_id]
        self._set_state(neighbor, NeighborState.DOWN)

    # -------------------------------------------------------------- adjacency
    def _start_adjacency(self, neighbor: Neighbor) -> None:
        self._set_state(neighbor, NeighborState.EXSTART)
        neighbor.dd_sequence = self._dd_sequence
        self._dd_sequence += 1
        dd = DBDescriptionPacket(
            router_id=self.daemon.router_id,
            dd_sequence=neighbor.dd_sequence,
            flags=DDFlags.INIT | DDFlags.MORE | DDFlags.MASTER,
            lsa_headers=[],
        )
        self.daemon.send_packet(self.name, dd)

    def _handle_dd(self, dd: DBDescriptionPacket) -> None:
        neighbor = self.neighbors.get(dd.router_id)
        if neighbor is None or neighbor.state < NeighborState.EXSTART:
            return
        if neighbor.state == NeighborState.EXSTART:
            # Negotiation done: whoever has the higher router id is master —
            # the distinction does not change behaviour in this implementation.
            neighbor.is_master = int(self.daemon.router_id) > int(dd.router_id)
            self._set_state(neighbor, NeighborState.EXCHANGE)
            summary = DBDescriptionPacket(
                router_id=self.daemon.router_id,
                dd_sequence=neighbor.dd_sequence,
                flags=DDFlags.MASTER if neighbor.is_master else 0,
                lsa_headers=self.daemon.lsdb.headers,
            )
            self.daemon.send_packet(self.name, summary)
        self._process_dd_headers(neighbor, dd)

    def _process_dd_headers(self, neighbor: Neighbor, dd: DBDescriptionPacket) -> None:
        if not dd.lsa_headers:
            # The initial (empty) DD carries no database summary; stay put and
            # wait for the summary DD.
            if neighbor.state == NeighborState.EXCHANGE and not (dd.flags & DDFlags.INIT):
                self._maybe_full(neighbor)
            return
        needed = self.daemon.lsdb.missing_or_older_than(dd.lsa_headers)
        if needed:
            neighbor.ls_request_list.update(header.key for header in needed)
            request = LSRequestPacket(
                router_id=self.daemon.router_id,
                requests=[(h.ls_type, h.link_state_id, h.advertising_router)
                          for h in needed],
            )
            if neighbor.state == NeighborState.EXCHANGE:
                self._set_state(neighbor, NeighborState.LOADING)
            self.daemon.send_packet(self.name, request)
        else:
            self._maybe_full(neighbor)

    def _maybe_full(self, neighbor: Neighbor) -> None:
        if neighbor.state in (NeighborState.EXCHANGE, NeighborState.LOADING) \
                and not neighbor.ls_request_list:
            self._set_state(neighbor, NeighborState.FULL)

    # --------------------------------------------------------------- flooding
    def _handle_ls_request(self, request: LSRequestPacket) -> None:
        neighbor = self.neighbors.get(request.router_id)
        if neighbor is None or neighbor.state < NeighborState.EXCHANGE:
            return
        lsas = []
        for ls_type, lsid, adv in request.requests:
            lsa = self.daemon.lsdb.get((ls_type, int(lsid), int(adv)))
            if lsa is not None:
                lsas.append(lsa)
        if lsas:
            update = LSUpdatePacket(router_id=self.daemon.router_id, lsas=lsas)
            self.daemon.send_packet(self.name, update)

    def _handle_ls_update(self, update: LSUpdatePacket) -> None:
        neighbor = self.neighbors.get(update.router_id)
        acked = []
        for lsa in update.lsas:
            acked.append(lsa.header)
            changed = self.daemon.lsdb.install(lsa, now=self.daemon.sim.now)
            if neighbor is not None:
                neighbor.ls_request_list.discard(lsa.key)
            if changed:
                self.daemon.on_lsa_installed(lsa, from_interface=self)
        if acked:
            ack = LSAckPacket(router_id=self.daemon.router_id, lsa_headers=acked)
            self.daemon.send_packet(self.name, ack)
        if neighbor is not None:
            self._maybe_full(neighbor)

    @property
    def floods(self) -> bool:
        """Whether flooding sends an LS Update out of this interface: it is
        up and some neighbor has reached Exchange."""
        return self.up and any(n.state >= NeighborState.EXCHANGE
                               for n in self.neighbors.values())

    # ------------------------------------------------------------- FSM events
    def _set_state(self, neighbor: Neighbor, new_state: int) -> None:
        old_state = neighbor.state
        if old_state == new_state:
            return
        neighbor.state = new_state
        LOG.debug("%s/%s: neighbor %s %s -> %s", self.daemon.hostname, self.name,
                  neighbor.router_id, NeighborState.NAMES.get(old_state),
                  NeighborState.NAMES.get(new_state))
        self.daemon.on_neighbor_state_change(self, neighbor, old_state, new_state)

    def __repr__(self) -> str:
        return (f"<OSPFInterface {self.name} {self.ip}/{self.prefix_len} "
                f"neighbors={len(self.neighbors)}>")
