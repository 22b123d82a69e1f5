"""The fluid traffic engine: analytic advancement of resolved demands.

Instead of pushing frames through the switch pipeline, demands are
aggregated into *commodities* — one per (source datapath, destination
address) pair — resolved once by the :class:`~repro.traffic.PathResolver`
and then advanced analytically: per-link rates follow a weighted max-min
fair allocation (weight = number of demands in the commodity, ceiling =
the commodity's offered rate), and delivered/offered byte counters are
integrals of those rates over simulated time.

Everything is recomputed only at **events**:

* demand arrival / expiry (scheduled in the simulation kernel),
* a flow-table change on any switch (the RouteMod / OFPFC_DELETE
  lifecycle — observed through :meth:`FlowTable.add_change_listener`),
* a link or node failure / restore (observed through the emulator's
  failure listeners).

The cost of an event follows the change, not the matrix.  A table change
at datapath *d* re-walks only the commodities whose walk consulted *d* for
a destination inside the changed entry's prefix; a failure re-walks the
commodities crossing the failed interfaces, a restore only the walks that
ended at the dead hop.  Water-filling runs over the *binding set* only
(interfaces whose members' summed ceilings exceed capacity); everyone
else sends at their ceiling.  Rates, loads and totals are pure functions
of (commodities, paths, capacities): every float sum is taken afresh over
its members in commodity-insertion order, never carried as an accumulator
across reallocations, so no result depends on the update history.
"""

from __future__ import annotations

import logging
from bisect import bisect_left, bisect_right, insort
from math import inf
from operator import attrgetter, itemgetter
from typing import (Dict, Hashable, Iterable, List, Mapping, Sequence,
                    Set, Tuple, Union)

from repro.traffic.demand import DemandSet, FlowDemand
from repro.traffic.resolver import LINK_DOWN, PathResolver, changed_ranges

LOG = logging.getLogger(__name__)

#: Relative slack used when freezing commodities at a water-filling level.
_EPS = 1e-9


def max_min_allocation(commodities: Sequence[Tuple[Sequence[Hashable], float, float]],
                       capacities: Mapping[Hashable, float]) -> List[float]:
    """Weighted max-min fair rates for rate-capped commodities.

    ``commodities`` is a sequence of ``(links, weight, ceiling)`` triples:
    the (hashable) capacity units the commodity crosses, its fairness
    weight and the rate it would send if unconstrained.  ``capacities``
    maps each capacity unit to its bits-per-second limit.

    Progressive water-filling: the common per-weight level rises until a
    link saturates or a commodity hits its ceiling; whoever is pinned
    freezes, the rest keep growing.  Each round freezes at least one
    commodity, so the loop terminates after at most ``len(commodities)``
    rounds (in the uncongested case, a single round freezes everyone at
    their ceiling).
    """
    rates: List[float] = [0.0] * len(commodities)
    remaining = dict(capacities)
    link_weight: Dict[Hashable, float] = {}
    link_members: Dict[Hashable, Set[int]] = {}
    active: Set[int] = set()
    for index, (links, weight, ceiling) in enumerate(commodities):
        if weight <= 0 or ceiling <= 0:
            continue
        if not links:
            rates[index] = ceiling  # crosses no capacity unit: unconstrained
            continue
        active.add(index)
        for link in links:
            link_weight[link] = link_weight.get(link, 0.0) + weight
            link_members.setdefault(link, set()).add(index)
    while active:
        level = None
        bottlenecks: List[Hashable] = []
        for link, weight in link_weight.items():
            # Freezing subtracts member weights, so a fully-drained link can
            # keep a tiny float residue — gate on live members, not weight.
            if weight <= 0 or not (link_members[link] & active):
                continue
            share = max(0.0, remaining.get(link, float("inf"))) / weight
            if level is None or share < level - _EPS * (1.0 + share):
                level = share
                bottlenecks = [link]
            elif share <= level + _EPS * (1.0 + level):
                bottlenecks.append(link)
        ceiling_level = min(commodities[i][2] / commodities[i][1] for i in active)
        if level is None or ceiling_level < level:
            level = ceiling_level
            bottlenecks = []
        slack = _EPS * (1.0 + level)
        frozen = {i for i in active
                  if commodities[i][2] / commodities[i][1] <= level + slack}
        for link in bottlenecks:
            frozen |= link_members[link] & active
        if not frozen:  # numerical safety net: pin everyone at the level
            frozen = set(active)
        for index in frozen:
            links, weight, ceiling = commodities[index]
            rate = min(ceiling, level * weight)
            rates[index] = rate
            for link in links:
                remaining[link] = max(0.0, remaining.get(link, float("inf")) - rate)
                link_weight[link] -= weight
                link_members[link].discard(index)
        active -= frozen
    return rates


_SEQ = attrgetter("seq")
_TX_IFACE = itemgetter(1)  # of a (link, tx interface) hop
_RATE = attrgetter("rate")
_OFFERED = attrgetter("offered_bps")


class Commodity:
    """All demands sharing one (source datapath, destination) pair."""

    __slots__ = ("src_dpid", "dst", "seq", "count", "offered_bps", "rate",
                 "path", "links")

    def __init__(self, src_dpid: int, dst: int, seq: int) -> None:
        self.src_dpid = src_dpid
        self.dst = dst
        self.seq = seq            # insertion order: the order of every sum
        self.count = 0
        self.offered_bps = 0.0
        self.rate = 0.0           # allocated rate (bps)
        self.path = None          # ResolvedPath, set by the engine
        self.links = ()           # tx interfaces crossed (capacity units)

    @property
    def ceiling(self) -> float:
        """The rate it sends at when no interface on its path binds."""
        path = self.path
        return self.offered_bps if path is not None and path.delivered else 0.0


class FluidEngine:
    """Event-driven fluid advancement of a demand set."""

    def __init__(self, sim, network,
                 owner_of=None) -> None:
        self.sim = sim
        self.network = network
        self.resolver = PathResolver(network, owner_of=owner_of)
        self.commodities: Dict[Tuple[int, int], Commodity] = {}
        self._next_seq = 0
        #: destination -> its commodities, and the destinations in address
        #: order.  A changed entry finds the destinations its prefix covers
        #: by bisection; among the commodities towards them, those whose
        #: walk consulted the switch are dirty.  (Storing that as a bucket
        #: per (switch, destination) was measured: 48 MB more and no
        #: faster, its upkeep on every walk costs what the filter saves.)
        self._by_dst: Dict[int, List[Commodity]] = {}
        self._dsts: List[int] = []
        #: tx interface -> commodities whose walk crossed it (whatever its
        #: outcome: a walk that ended LINK_DOWN is listed under the dead
        #: hop), in commodity order.  Serves failure invalidation, the
        #: per-interface sums and the TE controller's crossing lookup.
        self._crossing: Dict[object, List[Commodity]] = {}
        #: (dpid, destination ranges) of the table changes since the last
        #: reallocation; a burst of them costs one pass per destination.
        self._rewritten: List[tuple] = []
        #: Commodities to walk again; dropped ones wait here to be unlinked.
        self._dirty: Set[Commodity] = set()
        #: Resolved commodities whose demand set (hence ceiling) changed.
        self._resized: Set[Commodity] = set()
        #: Commodities the last allocation water-filled (the rest sit at
        #: their ceiling).
        self._bound: List[Commodity] = []
        self._rates_dirty = False
        self._realloc_scheduled = False
        self._attached = False
        #: tx interface -> summed ceilings of the delivered commodities
        #: crossing it; over capacity means the interface can bind.
        self._iface_ceilings: Dict[object, float] = {}
        #: tx interface -> currently allocated rate (bps), for accrual.
        self._iface_loads: Dict[object, float] = {}
        self.delivered_bps = 0.0
        self.offered_bps = 0.0
        self.delivered_bits = 0.0
        self.offered_bits = 0.0
        self._last_accrual = sim.now
        self.demand_count = 0
        #: Commodities walked again because a table change or a failure
        #: event invalidated their path (first walks are not counted).
        self.reresolutions = 0
        #: Demands inside those re-resolved commodities: the "affected
        #: demands" number churn cost must scale with.
        self.affected_demands = 0

    # ------------------------------------------------------------------ wiring
    def attach(self) -> None:
        """Hook the RouteMod/OFPFC_DELETE lifecycle and the failure engine.

        Call once, after the network is configured and before demands run.
        Nothing here schedules simulation events on its own: with no
        demands registered the hooks are inert bookkeeping.
        """
        if self._attached:
            return
        self._attached = True
        for dpid, switch in self.network.switches.items():
            switch.flow_table.add_change_listener(
                lambda _table, changed, dpid=dpid:
                self._on_table_change(dpid, changed))
        self.network.add_failure_listener(self._on_failure_event)

    def _on_table_change(self, dpid: int, changed) -> None:
        """Entries of ``dpid``'s table changed: note where and for which
        destinations (the walks are dirtied in one batch, later)."""
        ranges = changed_ranges(changed)
        self.resolver.invalidate(dpid, ranges)
        self._rewritten.append((dpid, ranges))
        self._mark_stale()

    def _dirty_rewritten(self) -> None:
        """Dirty the walks the table changes since the last reallocation
        can have altered: one pass over the commodities towards each
        destination a changed prefix covers, however many changes hit it."""
        dsts = self._dsts
        switches: Dict[int, Set[int]] = {}  # destination -> changed there
        for dpid, ranges in self._rewritten:
            covered = dsts if ranges is None else [
                dst for low, high in ranges
                for dst in dsts[bisect_left(dsts, low):bisect_right(dsts, high)]]
            for dst in covered:
                switches.setdefault(dst, set()).add(dpid)
        self._rewritten = []
        for dst, dpids in switches.items():
            for commodity in self._by_dst[dst]:
                path = commodity.path
                if path is not None and not dpids.isdisjoint(path.dpids):
                    self._dirty.add(commodity)

    def _link_interfaces(self, node_a: int, node_b: int) -> tuple:
        """Both transmit interfaces of the link between two datapaths."""
        port_a, port_b = self.network.ports_for_link(node_a, node_b)
        switches = self.network.switches
        return (switches[node_a].port(port_a).interface,
                switches[node_b].port(port_b).interface)

    def _on_failure_event(self, event) -> None:
        """A physical failure/restore executed: dirty the walks it changes.

        A failure invalidates every walk crossing the dead interfaces.  A
        restore cannot invalidate a path that did not depend on the link
        being down, so only walks that ended LINK_DOWN there go again (the
        table changes of the reconvergence that follows do the rest).
        """
        from repro.scenarios.events import FailureAction

        if event.action in FailureAction.LINK_ACTIONS:
            pairs = [(event.node_a, event.node_b)]
        elif event.action in FailureAction.NODE_ACTIONS:
            pairs = self.network.links_of(event.node_a)
        else:
            return
        restored = event.action in (FailureAction.LINK_UP,
                                    FailureAction.NODE_UP)
        for pair in pairs:
            for iface in self._link_interfaces(*pair):
                self._dirty.update(
                    commodity for commodity in self._crossing.get(iface, ())
                    if not restored or commodity.path.status == LINK_DOWN)
        self._mark_stale()

    def crossing(self, node_a: int, node_b: int) -> List[Commodity]:
        """Commodities whose walk crosses the link, in commodity order."""
        forward, backward = (self._crossing.get(iface, ()) for iface
                             in self._link_interfaces(node_a, node_b))
        return sorted([*forward, *backward], key=_SEQ)

    def _mark_stale(self) -> None:
        self._rates_dirty = True
        if not self._realloc_scheduled:
            self._realloc_scheduled = True
            self.sim.schedule(0.0, self._scheduled_reallocate,
                              label="fluid:reallocate")

    def _scheduled_reallocate(self) -> None:
        self._realloc_scheduled = False
        self.reallocate()

    # ----------------------------------------------------------------- demands
    def register(self, demands: Union[DemandSet, Iterable[FlowDemand]],
                 schedule: bool = True) -> int:
        """Add demands to the engine.

        With ``schedule=True`` each demand's start/expiry (offsets from
        now) become simulation events; with ``schedule=False`` every
        demand is active immediately and the caller is expected to drive
        :meth:`reallocate` by hand (the benchmark mode).

        This is the one admission loop.  It reads the columns of a
        :class:`DemandSet` (hand-built demands are turned into one first),
        and only a demand that gets a kernel event of its own becomes a
        :class:`FlowDemand`.
        """
        columns = DemandSet.from_demands(demands)
        admitted_to = self.commodities.get
        deferred = 0
        stale = False
        for src_dpid, dst, rate_bps, start, duration in columns.rows():
            if schedule and start > 0.0:  # arrives, and expires, by event
                deferred += 1
                demand = FlowDemand(src_dpid, dst, rate_bps, start, duration)
                self.sim.schedule(start, self._activate, demand,
                                  label="fluid:arrival")
                if duration != inf:
                    self.sim.schedule(start + duration, self._expire, demand,
                                      label="fluid:expiry")
                continue
            if not stale:  # once per batch, not once per demand
                stale = True
                self._accrue(self.sim.now)
                self._mark_stale()
            commodity = admitted_to((src_dpid, dst))
            if commodity is None:
                commodity = self._add_commodity(src_dpid, dst)
            elif commodity.path is not None:
                self._resized.add(commodity)
            commodity.count += 1
            commodity.offered_bps += rate_bps
            if schedule and duration != inf:
                self.sim.schedule(
                    start + duration, self._expire,
                    FlowDemand(src_dpid, dst, rate_bps, start, duration),
                    label="fluid:expiry")
        self.demand_count += len(columns) - deferred
        return len(columns)

    def _activate(self, demand: FlowDemand) -> None:
        self.register((demand,), schedule=False)

    def _add_commodity(self, src_dpid: int, dst: int) -> Commodity:
        commodity = Commodity(src_dpid, dst, self._next_seq)
        self._next_seq += 1
        self.commodities[(src_dpid, dst)] = commodity
        peers = self._by_dst.get(dst)
        if peers is None:
            peers = self._by_dst[dst] = []
            insort(self._dsts, dst)
        peers.append(commodity)
        self._dirty.add(commodity)
        return commodity

    def _expire(self, demand: FlowDemand) -> None:
        key = (demand.src_dpid, demand.dst)
        commodity = self.commodities.get(key)
        if commodity is None:
            return
        self._accrue(self.sim.now)
        commodity.count -= 1
        commodity.offered_bps = max(0.0, commodity.offered_bps - demand.rate_bps)
        self.demand_count -= 1
        if commodity.count <= 0:
            self._drop_commodity(key, commodity)
        else:
            self._resized.add(commodity)
        self._mark_stale()

    def _drop_commodity(self, key: Tuple[int, int], commodity: Commodity) -> None:
        del self.commodities[key]
        peers = self._by_dst[commodity.dst]
        peers.remove(commodity)
        if not peers:
            del self._by_dst[commodity.dst]
            del self._dsts[bisect_left(self._dsts, commodity.dst)]
        self._resized.discard(commodity)
        self._dirty.add(commodity)  # leaves the link index with the batch

    # -------------------------------------------------------------- resolution
    def _resolve_dirty(self) -> Set[object]:
        """Walk the dirty commodities again and re-index the interfaces
        they left or joined; returns those interfaces."""
        moved, self._dirty = self._dirty, set()
        joined: Dict[object, List[Commodity]] = {}
        known: Dict[int, dict] = {}  # the resolver's memo, for this batch only
        for commodity in sorted(moved, key=_SEQ):
            old = commodity.path
            if old is not None:
                for _link, iface in old.hops:
                    joined.setdefault(iface, [])
            if commodity.count <= 0:  # dropped: only leaves
                commodity.path, commodity.links = None, ()
                continue
            path = self.resolver.resolve(commodity.src_dpid, commodity.dst,
                                         known)
            commodity.path = path
            crossed = tuple(map(_TX_IFACE, path.hops))
            commodity.links = crossed if path.delivered else ()
            for iface in crossed:
                joined.setdefault(iface, []).append(commodity)
            if old is not None:
                self.reresolutions += 1
                self.affected_demands += commodity.count
        for iface, arrivals in joined.items():
            members = [commodity for commodity in self._crossing.get(iface, ())
                       if commodity not in moved]
            members += arrivals
            members.sort(key=_SEQ)
            if members:
                self._crossing[iface] = members
            else:
                self._crossing.pop(iface, None)
        return set(joined)

    # -------------------------------------------------------------- allocation
    def reallocate(self) -> None:
        """Bring rates up to date: walk the dirty commodities again, water-
        fill the binding set, refresh the sums of the touched interfaces.

        Capacities are read here and only here: a ``bandwidth_bps`` changed
        behind the engine's back is honoured the next time something is
        dirty, as it always was.
        """
        self._accrue(self.sim.now)
        if not self._rates_dirty and not self._dirty:
            return
        self._dirty_rewritten()
        stale = self._dirty | self._resized
        stale.update(self._bound)
        touched = self._resolve_dirty()
        for commodity in self._resized:
            touched.update(commodity.links)
        self._resized = set()
        crossing = self._crossing
        for iface in touched:
            members = crossing.get(iface)
            if members:  # on a crossed interface, links means delivered
                self._iface_ceilings[iface] = sum(
                    commodity.offered_bps for commodity in members
                    if commodity.links)
            else:
                self._iface_ceilings.pop(iface, None)
        # An interface outside the binding set cannot be a bottleneck: what
        # it has left is never less than its live members' ceilings, so its
        # fair share stays at or above the level they freeze at anyway.
        capacities: Dict[object, float] = {}
        for iface, ceilings in self._iface_ceilings.items():
            link = iface.link
            if (link is not None and link.bandwidth_bps
                    and ceilings > link.bandwidth_bps):
                capacities[iface] = link.bandwidth_bps
        bound = sorted({commodity for iface in capacities
                        for commodity in crossing[iface] if commodity.links},
                       key=_SEQ)
        stale.update(bound)
        filled = dict(zip(bound, max_min_allocation(
            [(tuple(iface for iface in commodity.links if iface in capacities),
              float(commodity.count), commodity.offered_bps)
             for commodity in bound], capacities)))
        self._bound = bound
        for commodity in stale:
            rate = (filled[commodity] if commodity in filled
                    else commodity.ceiling)
            if rate != commodity.rate:
                commodity.rate = rate
                touched.update(commodity.links)
        for iface in touched:
            members = [commodity for commodity in crossing.get(iface, ())
                       if commodity.links]
            if members:
                self._iface_loads[iface] = sum(map(_RATE, members))
            else:
                self._iface_loads.pop(iface, None)
        self.offered_bps = sum(map(_OFFERED, self.commodities.values()))
        self.delivered_bps = sum(map(_RATE, self.commodities.values()))
        self._rates_dirty = False

    # --------------------------------------------------------------- advancing
    def _accrue(self, now: float) -> None:
        """Integrate the current rates over the elapsed interval."""
        dt = now - self._last_accrual
        if dt <= 0.0:
            return
        self._last_accrual = now
        if not self.demand_count and not self._iface_loads:
            return
        self.delivered_bits += self.delivered_bps * dt
        self.offered_bits += self.offered_bps * dt
        for iface, rate in self._iface_loads.items():
            link = iface.link
            capacity = (link.bandwidth_bps
                        if link is not None and link.bandwidth_bps else 0.0)
            iface.account_rate(rate, dt, capacity)

    def finalize(self) -> None:
        """Flush accrual through the current time (end of the experiment)."""
        self.reallocate()
        self._accrue(self.sim.now)

    # ------------------------------------------------------------------- stats
    @property
    def loss_fraction(self) -> float:
        if self.offered_bps <= 0.0:
            return 0.0
        return max(0.0, 1.0 - self.delivered_bps / self.offered_bps)

    def stats(self) -> Dict[str, float]:
        delivered_commodities = sum(
            1 for c in self.commodities.values()
            if c.path is not None and c.path.delivered)
        return {
            "demands": self.demand_count,
            "commodities": len(self.commodities),
            "delivered_commodities": delivered_commodities,
            "offered_bps": self.offered_bps,
            "delivered_bps": self.delivered_bps,
            "offered_bits": self.offered_bits,
            "delivered_bits": self.delivered_bits,
            "resolutions": self.resolver.walks,
            "lookups": self.resolver.lookups,
            "reresolutions": self.reresolutions,
            "affected_demands": self.affected_demands,
        }

    def __repr__(self) -> str:
        return (f"<FluidEngine demands={self.demand_count} "
                f"commodities={len(self.commodities)} "
                f"delivered={self.delivered_bps:.0f}bps>")
