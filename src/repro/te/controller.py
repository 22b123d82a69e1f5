"""The TE control loop: measure, decide, actuate.

A :class:`TEController` wires the measurement loop
(:class:`~repro.te.measure.UtilizationMonitor`), the memoized
k-shortest-path engine and a :class:`~repro.te.policy.TEPolicy` to an
*actuator* — the component that turns a steer set into routing state:

:class:`ZebraActuator`
    Full control-plane fidelity.  Steers become TE-source routes pushed
    into each on-path VM's RIB via ``zebra.replace_routes``; the best
    route flips, the FIB listener fires once per moved prefix, and the
    RouteFlow client emits the DELETE + ADD RouteMod pair that drives
    OFPFC_DELETE on the physical switch — the identical withdrawal
    lifecycle a link failure rides.

:class:`FlowTableActuator`
    Scale mode.  Steers become higher-priority flow entries written
    straight into the RouteFlow-shaped tables that
    :class:`~repro.traffic.SyntheticRoutes` installed — for topologies
    (16x16 torus, million-demand benches) far too large to converge a
    real control plane in reasonable wall time.  Same strict
    delete + add discipline, same flow-table versioning, so the fluid
    engine's incremental invalidation sees exactly the churn the real
    lifecycle would cause.

Link and node failures invalidate the path cache and prune steers whose
paths died, so a policy-driven re-route overlapping a failure can never
pin traffic onto a dead path (the chaos harness asserts this).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.net.addresses import IPv4Network
from repro.quagga.rib import Route, RouteSource
from repro.routeflow.vm import port_interface
from repro.sim import Simulator
from repro.te.ksp import KShortestPathEngine, adjacency_of
from repro.te.measure import UtilizationMonitor
from repro.te.policy import CommodityView, SteerKey, TEPolicy, TEView
from repro.te.spec import TESpec

Path = Tuple[int, ...]


class ZebraActuator:
    """Installs steers as TE-source routes in the on-path VMs' RIBs."""

    def __init__(self, control, network,
                 prefix_of: Callable[[int], IPv4Network]) -> None:
        self.control = control
        self.network = network
        self.prefix_of = prefix_of
        #: dpid -> {prefix: Route}, the TE snapshot last pushed per VM.
        self._snapshots: Dict[int, Dict[IPv4Network, Route]] = {}

    def _routes_for(self, desired: Dict[SteerKey, Path]
                    ) -> Dict[int, Dict[IPv4Network, Route]]:
        """The full per-VM TE route set a steer mapping implies."""
        plans: Dict[int, Dict[IPv4Network, Route]] = {}
        for steer_key in sorted(desired):
            path = desired[steer_key]
            dst = steer_key[1]
            prefix = self.prefix_of(dst)
            for hop, successor in zip(path, path[1:]):
                port_here, port_peer = self.network.ports_for_link(hop,
                                                                   successor)
                peer_vm = self.control.vm_for_dpid(successor)
                next_hop = peer_vm.interfaces[port_interface(port_peer)].ip
                route = Route(prefix=prefix, next_hop=next_hop,
                              interface=port_interface(port_here),
                              source=RouteSource.TE,
                              metric=len(path) - 1)
                plans.setdefault(hop, {})[prefix] = route
        return plans

    def apply(self, desired: Dict[SteerKey, Path]) -> int:
        """Reconcile every VM's TE snapshot; returns moved prefixes."""
        plans = self._routes_for(desired)
        moved = 0
        for dpid in sorted(set(plans) | set(self._snapshots)):
            plan = plans.get(dpid, {})
            if self._snapshots.get(dpid, {}) == plan:
                continue
            vm = self.control.vm_for_dpid(dpid)
            routes = [plan[prefix] for prefix in
                      sorted(plan, key=lambda p: (int(p.network),
                                                  p.prefix_len))]
            moved += len(vm.zebra.replace_routes(RouteSource.TE, routes))
            if plan:
                self._snapshots[dpid] = plan
            else:
                self._snapshots.pop(dpid, None)
        return moved


class FlowTableActuator:
    """Overrides :class:`~repro.traffic.SyntheticRoutes` tables directly.

    TE entries are the synthetic routes' own entries one priority level
    up, mirroring the RIB layering (TE admin distance beats OSPF): the
    base table survives underneath and a withdrawn steer falls back to it
    with a single strict delete.
    """

    def __init__(self, routes) -> None:
        from repro.traffic.synthetic import ROUTE_PRIORITY

        self.routes = routes
        self.network = routes.network
        self.priority = ROUTE_PRIORITY + 1
        #: (node, dst) -> out port of every installed TE override.
        self._installed: Dict[Tuple[int, int], int] = {}

    def apply(self, desired: Dict[SteerKey, Path]) -> int:
        """Diff the override table against ``desired``; strict-delete
        withdrawn entries, add new ones.  Returns (node, dst) moves.

        Steers for one destination agree on the next hop at every node
        they share (the policies enforce :func:`suffix_compatible`), so
        overlapping paths write the same (node, dst) entry.
        """
        routes, priority = self.routes, self.priority
        wanted: Dict[Tuple[int, int], int] = {}
        for steer_key in sorted(desired):
            path = desired[steer_key]
            dst = steer_key[1]
            for hop, successor in zip(path, path[1:]):
                wanted[(hop, dst)] = routes.port_to(hop, successor)
        moved = 0
        for key in sorted(set(self._installed) - set(wanted)):
            routes.remove(*key, priority)
            moved += 1
        for key in sorted(wanted):
            port = wanted[key]
            if self._installed.get(key) == port:
                continue
            node, dst = key
            if key in self._installed:
                routes.remove(node, dst, priority)
            self.network.switches[node].flow_table.add(
                routes.entry(node, dst, port, priority))
            moved += 1
        self._installed = wanted
        return moved


class TEController:
    """Periodic measure → decide → actuate loop on the sim kernel."""

    def __init__(self, sim: Simulator, network, actuator,
                 spec: Optional[TESpec] = None,
                 policy: Optional[TEPolicy] = None,
                 engine=None,
                 owner_of: Optional[Callable[[int], Optional[int]]] = None,
                 ) -> None:
        self.sim = sim
        self.network = network
        self.actuator = actuator
        self.spec = spec if spec is not None else TESpec()
        self.policy = policy
        self.engine = engine
        self.owner_of = owner_of if owner_of is not None else (lambda dst: None)
        self.monitor = UtilizationMonitor(
            sim, network, interval=self.spec.interval,
            pre_sample=engine.reallocate if engine is not None else None)
        self.monitor.add_listener(self._on_sample)
        self.ksp = KShortestPathEngine(lambda: adjacency_of(network),
                                       k=self.spec.k_paths)
        network.add_failure_listener(self._on_topology_event)
        #: Currently applied steers, (ingress, dst) -> path.
        self.steers: Dict[SteerKey, Path] = {}
        self.decisions = 0
        self.steer_changes = 0
        self.reroutes = 0
        self.pruned_steers = 0

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        self.monitor.start()

    def stop(self) -> None:
        self.monitor.stop()

    def set_policy(self, policy: Optional[TEPolicy]) -> None:
        """Swap (or with None, disable) the live policy."""
        self.policy = policy

    def clear(self) -> int:
        """Withdraw every steer (pure shortest-path state returns)."""
        return self._apply({})

    # ------------------------------------------------------------ view build
    def _views(self, commodities) -> List[CommodityView]:
        views: List[CommodityView] = []
        for commodity in commodities:
            dst = self.owner_of(commodity.dst)
            if dst is None:
                continue
            path = commodity.path
            views.append(CommodityView(
                src=commodity.src_dpid, dst=dst,
                offered_bps=commodity.offered_bps,
                path=path.dpids if path is not None and path.delivered
                else None))
        return views

    def _crossing_views(self, key: Tuple[int, int]) -> List[CommodityView]:
        return [view for view in self._views(self.engine.crossing(*key))
                if view.path is not None]

    def view(self) -> TEView:
        engine = self.engine
        return TEView(
            utilization=dict(self.monitor.utilization),
            ksp=self.ksp.paths,
            steers=dict(self.steers),
            crossing=(self._crossing_views if engine is not None
                      else lambda _key: ()),
            all_commodities=lambda: self._views(
                engine.commodities.values() if engine is not None else ()),
            now=self.sim.now)

    # ------------------------------------------------------------- the loop
    def _on_sample(self, _monitor: UtilizationMonitor) -> None:
        if self.policy is None:
            return
        view = self.view()
        self.policy.observe(view)
        steers = self.policy.decide(view)
        desired: Dict[SteerKey, Path] = {}
        for steer in steers:
            desired[steer.key] = tuple(steer.path)
        changed = [key for key in sorted(set(desired) | set(self.steers))
                   if desired.get(key) != self.steers.get(key)]
        if len(changed) > self.spec.max_steers_per_tick:
            # Deterministic cap: keep the first N changes, defer the rest.
            deferred = changed[self.spec.max_steers_per_tick:]
            for key in deferred:
                if key in self.steers:
                    desired[key] = self.steers[key]
                else:
                    desired.pop(key, None)
            self._harmonize(desired, set(changed[:self.spec.max_steers_per_tick]))
        self._apply(desired)
        self.decisions += 1

    def _harmonize(self, desired: Dict[SteerKey, Path],
                   changed: set) -> None:
        """Drop capped-tick changes that lost their compatible siblings.

        The policy's steer set is suffix-compatible as a whole, and so is
        the currently applied set, but deferring part of a tick's changes
        mixes the two — a kept new path may disagree with a deferred
        steer's old path at a shared node.  Unchanged steers win (they
        are mutually compatible by induction); conflicting new ones wait
        for the next tick.
        """
        from repro.te.policy import suffix_compatible

        by_dst: Dict[int, List[SteerKey]] = {}
        for key in sorted(desired):
            by_dst.setdefault(key[1], []).append(key)
        for dst, keys in by_dst.items():
            accepted: List[Path] = [desired[key] for key in keys
                                    if key not in changed]
            for key in keys:
                if key not in changed:
                    continue
                if suffix_compatible(desired[key], accepted):
                    accepted.append(desired[key])
                elif (key in self.steers
                      and suffix_compatible(self.steers[key], accepted)):
                    desired[key] = self.steers[key]
                    accepted.append(desired[key])
                else:
                    del desired[key]

    def _apply(self, desired: Dict[SteerKey, Path]) -> int:
        changes = sum(1 for key in set(desired) | set(self.steers)
                      if desired.get(key) != self.steers.get(key))
        moved = self.actuator.apply(desired)
        self.steers = dict(desired)
        self.steer_changes += changes
        self.reroutes += moved
        return moved

    # ------------------------------------------------------------- failures
    def _path_alive(self, path: Path) -> bool:
        adjacency = self.ksp.adjacency
        return all(successor in adjacency.get(hop, ())
                   for hop, successor in zip(path, path[1:]))

    def _on_topology_event(self, _event) -> None:
        """A link/node failed or recovered: recompute, prune dead steers."""
        self.ksp.invalidate()
        survivors = {key: path for key, path in self.steers.items()
                     if self._path_alive(path)}
        if len(survivors) != len(self.steers):
            self.pruned_steers += len(self.steers) - len(survivors)
            self._apply(survivors)

    # --------------------------------------------------------------- stats
    def stats(self) -> Dict[str, float]:
        return {
            "samples": self.monitor.samples,
            "decisions": self.decisions,
            "steers": len(self.steers),
            "steer_changes": self.steer_changes,
            "reroutes": self.reroutes,
            "pruned_steers": self.pruned_steers,
            "ksp_computations": self.ksp.computations,
            "ksp_hits": self.ksp.hits,
            "topology_version": self.ksp.version,
        }
