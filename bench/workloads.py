"""The four workloads of the ledger.

Each workload drives the program through its public constructors and
methods only, from inputs generated out of one ``--seed``; why each
exists and which layer it isolates is in ``bench/README.md`` and in the
``why`` lines of ``BENCHMARK.json``.

A workload is a class with

* ``name`` and ``phases`` — the measured regions whose medians add up to
  the end-to-end ``wall_s``;
* ``kinds`` — the unit methods the harness repeats (``repetition`` for
  the control-platform workloads; ``cycle`` and ``episode`` for the
  fluid one) with ``minimum`` samples of each;
* an optional ``prepare`` that builds a fixture shared by every unit.

Units report through the :class:`~bench.harness.Recorder` they are
handed: ``phase`` brackets a measured region, ``count`` records a
simulated output or counter (checked identical across units), ``timing``
a host-time reading, ``check`` a correctness condition.  No expected
value is pinned here: a PR that changes a simulated result shows it as a
moved count, not as an edit to the benchmark.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.core.autoconfig import AutoConfigFramework, FrameworkConfig
from repro.core.ipam import IPAddressManager
# The one tolerated private import: four experiments already share it.
from repro.experiments.failover import (_mirror_into_routeflow,
                                        verify_spf_rib_consistency)
from repro.experiments.ctlscale import churn_schedule
from repro.experiments.interdomain import verify_interdomain
from repro.scenarios import FailureSchedule, ScenarioSpec, get
from repro.sim import SeededRandom, Simulator
from repro.te import FlowTableActuator, TEController, TESpec, make_policy
from repro.topology.emulator import EmulatedNetwork
from repro.topology.generators import (as_map_from_topology, ring_topology,
                                       torus_topology)
from repro.traffic import (FluidEngine, SyntheticRoutes, service_address,
                           uniform_demands)

_now = time.perf_counter


# ---------------------------------------------------------------------------
# shared by the three control-platform workloads
# ---------------------------------------------------------------------------
def _boot(h, build_topology, make_config):
    """One cold fixture: topology, framework, emulated network, attached.

    Its host time is a set-up sample; the measured region starts at the
    first kernel event."""
    started = _now()
    topology = build_topology()
    built = _now()
    sim = Simulator()
    h.attach(sim)
    ipam = IPAddressManager()
    framework = AutoConfigFramework(sim, config=make_config(topology),
                                    ipam=ipam)
    wired = _now()
    network = EmulatedNetwork(sim, topology, ipam=ipam)
    h.timing("topology.build_s", (built - started) + (_now() - wired))
    framework.attach(network)
    h.setup(_now() - started)
    return sim, framework, network, topology


def _watch_fib(sim, plane) -> List[float]:
    """Simulated times of every FIB change across the VMs, from now on."""
    changes: List[float] = []
    for vm in plane.vms.values():
        vm.zebra.add_fib_listener(
            lambda _prefix, _new, _old: changes.append(sim.now))
    return changes


def _quiesce(sim, changes: List[float], floor: float, deadline: float,
             settle: float) -> bool:
    """Run until no FIB changed for ``settle`` simulated seconds past
    ``floor`` (the last scheduled event) or the last change."""
    while sim.now < deadline:
        sim.run(until=min(sim.now + 1.0, deadline))
        if sim.now >= max(floor, changes[-1] if changes else floor) + settle:
            return True
    return False


def _total(framework, key: str) -> int:
    return sum(load[key] for load in framework.shard_loads())


def _platform_counts(h, sim, framework, network) -> None:
    """Read every layer's public counters at the end of a repetition."""
    count = h.count
    count("sim.events", sim.processed_events)
    count("sim.sim_seconds", sim.now)
    stats = network.stats()
    count("net.frames_tx", stats["link_tx_frames"])
    count("net.frames_dropped", stats["frames_dropped"])
    switches = list(network.switches.values())
    channels = [network.control_channel(dpid) for dpid in network.switches]
    count("openflow.channel_messages",
          sum(c.messages_a_to_b + c.messages_b_to_a for c in channels))
    count("openflow.flow_mods", sum(s.flow_mod_count for s in switches))
    count("openflow.packet_ins", sum(s.packet_in_count for s in switches))
    lookups = sum(s.flow_table.lookup_count for s in switches)
    matched = sum(s.flow_table.matched_count for s in switches)
    count("openflow.table_lookups", lookups)
    count("openflow.table_matched", matched)
    count("openflow.flows_final", sum(len(s.flow_table) for s in switches))
    controllers = {id(c): c for c in (
        [framework.topology_controller, framework.rf_controller]
        + [shard.controller for shard in framework.shards])}
    count("controller.packet_ins",
          sum(c.packet_in_count for c in controllers.values()))
    count("controller.links_discovered",
          framework.topology_app.known_link_count)
    count("core.rpc_messages", framework.rpc_server.messages_received)
    plane = framework.control_plane
    count("core.vms_configured", plane.vm_count)
    vms = list(plane.vms.values())
    spf_runs = sum(vm.ospf.spf_runs for vm in vms if vm.ospf is not None)
    count("quagga.ospf.spf_runs", spf_runs)
    count("quagga.ospf.spf_runs_per_router", spf_runs / len(vms))
    count("quagga.rib.fib_installs", sum(vm.zebra.install_count for vm in vms))
    count("quagga.rib.fib_withdraws",
          sum(vm.zebra.withdraw_count for vm in vms))
    speakers = [vm.bgp for vm in vms if vm.bgp is not None]
    count("quagga.bgp.sessions",
          sum(d.sessions_established for d in speakers))
    count("quagga.bgp.updates_sent", sum(d.updates_sent for d in speakers))
    count("quagga.bgp.updates_received",
          sum(d.updates_received for d in speakers))
    count("quagga.bgp.withdrawals_sent",
          sum(d.withdrawals_sent for d in speakers))
    for key in ("route_mods", "route_mods_parked", "flow_mods_installed",
                "flow_mods_removed", "flows_current"):
        count(f"routeflow.{key}", _total(framework, key))
    shards = framework.shards
    proxies = [s.rfproxy for s in shards] or [framework.rfproxy]
    servers = [s.rfserver for s in shards] or [framework.rfserver]
    count("routeflow.duplicate_installs",
          sum(proxy.duplicate_installs for proxy in proxies))
    count("routeflow.client_resyncs",
          sum(client.resyncs for server in servers
              for client in server.rfclients.values()))
    for key in ("takeovers", "reshards", "stale_announcements"):
        count(f"routeflow.sharding.{key}", getattr(plane, key, 0))
    totals = framework.bus.stats()["_totals"]
    for key in ("published", "delivered", "bytes_published", "dropped_fault",
                "retransmits", "acked", "exhausted", "rx_duplicates"):
        count(f"bus.{key}", totals[key])
    count("topology.failure_events", network.failures_applied)


# ---------------------------------------------------------------------------
# 1. ospf_torus64
# ---------------------------------------------------------------------------
class OspfTorus:
    """Cold automatic configuration of the 8x8 torus: one controller,
    lossless bus (the legacy ``convergence_64``).  The topology is
    regular, so the seed has no effect on this workload."""

    name = "ospf_torus64"
    phases = ("config_wall_s",)
    kinds = ("repetition",)
    minimum = {"repetition": 3}
    seed_note = "regular topology: the seed has no effect"

    def __init__(self, seed: int, scale: str) -> None:
        self.build = (lambda: torus_topology(8, 8)) if scale == "full" \
            else (lambda: ring_topology(4))

    def repetition(self, h) -> None:
        sim, framework, network, _topology = _boot(
            h, self.build,
            lambda _topology: FrameworkConfig(detect_edge_ports=False))
        with h.phase("config_wall_s"):
            configured = framework.run_until_configured(max_time=3600.0)
        if not h.check(configured is not None, "configured within max_time"):
            return
        h.count("sim.config_s", configured)
        _platform_counts(h, sim, framework, network)
        h.check(not verify_spf_rib_consistency(framework.control_plane),
                "every RIB equals a fresh SPF run")


# ---------------------------------------------------------------------------
# 2. bgp_scalefree50
# ---------------------------------------------------------------------------
class BgpScaleFree:
    """Scale-free interdomain graph: configure to interdomain quiescence,
    then flap the first border link (down 90 s, restore) to quiescence,
    as ``repro interdomain`` does."""

    name = "bgp_scalefree50"
    phases = ("config_wall_s", "reconverge_wall_s")
    kinds = ("repetition",)
    minimum = {"repetition": 3}
    seed_note = "graph seed = --seed"

    SETTLE = 20.0
    MAX_EXTRA = 600.0
    FLAP_LEAD = 10.0
    FLAP_DOWN = 90.0

    def __init__(self, seed: int, scale: str) -> None:
        self.spec = get("interdomain-3as") if scale == "smoke" \
            else ScenarioSpec(
                "bgp-scalefree50", "scale-free-as", {"num_ases": 50},
                interdomain=True, seed=seed,
                framework={"serialize_vm_creation": False})

    @staticmethod
    def _ebgp_states(vm_a, vm_b) -> List[str]:
        """States of the eBGP sessions between two VMs, both directions."""
        return [session.state
                for near, far in ((vm_a, vm_b), (vm_b, vm_a))
                if near.bgp is not None
                for session in near.bgp.sessions.values()
                if not session.is_ibgp
                and far.owns_ip(session.peer_address) is not None]

    def repetition(self, h) -> None:
        spec = self.spec
        sim, framework, network, topology = _boot(
            h, spec.build_topology, spec.framework_config)
        plane = framework.control_plane
        changes: List[float] = []
        settled = False
        with h.phase("config_wall_s"):
            configured = framework.run_until_configured(max_time=spec.max_time)
            if configured is not None:
                changes = _watch_fib(sim, plane)
                settled = _quiesce(sim, changes, sim.now,
                                   configured + self.MAX_EXTRA, self.SETTLE)
        if not h.check(configured is not None and settled,
                       "configured and settled within max_time"):
            return
        h.count("sim.config_s", configured)
        as_map = as_map_from_topology(topology)
        violations = verify_interdomain(plane, as_map)
        steady_flows = _total(framework, "flows_current")
        removed_before = _total(framework, "flow_mods_removed")
        node_a, node_b = next(
            (link.node_a, link.node_b) for link in topology.links
            if as_map[link.node_a] != as_map[link.node_b])
        vm_a, vm_b = plane.vms[node_a], plane.vms[node_b]
        network.add_failure_listener(
            _mirror_into_routeflow(network, framework.bus))
        with h.phase("reconverge_wall_s"):
            network.schedule_failures(FailureSchedule.single_link_failure(
                node_a, node_b, at=self.FLAP_LEAD,
                restore_after=self.FLAP_DOWN))
            down_at = sim.now + self.FLAP_LEAD
            up_at = down_at + self.FLAP_DOWN
            sim.run(until=down_at)
            _quiesce(sim, changes, down_at,
                     min(up_at, down_at + self.MAX_EXTRA), self.SETTLE)
            dropped = all(state != "Established"
                          for state in self._ebgp_states(vm_a, vm_b))
            withdrawn = _total(framework, "flow_mods_removed") - removed_before
            sim.run(until=up_at)
            restored = _quiesce(sim, changes, up_at, up_at + self.MAX_EXTRA,
                                self.SETTLE)
        h.count("sim.reconverge_s", max(
            (t for t in changes if t >= up_at), default=up_at) - up_at)
        h.count("quagga.bgp.withdrawn_flow_mods", withdrawn)
        _platform_counts(h, sim, framework, network)
        states = self._ebgp_states(vm_a, vm_b)
        h.check(restored, "settled after the flap")
        h.check(dropped and withdrawn > 0,
                "both eBGP sessions dropped and their routes were withdrawn")
        h.check(bool(states) and all(s == "Established" for s in states),
                "both eBGP sessions re-established")
        h.check(_total(framework, "flows_current") == steady_flows,
                "flow count restored exactly after the flap")
        violations += verify_interdomain(plane, as_map)
        h.check(not violations, "verify_interdomain: " + "; ".join(
            violations[:3]))


# ---------------------------------------------------------------------------
# 3. sharded_lossy_torus64
# ---------------------------------------------------------------------------
class ShardedLossyTorus:
    """The 8x8 torus under 4 shards with ``routeflow.*`` and
    ``config.rpc`` degraded: configure plus bus-quiet drain, then the
    default churn schedule (a shard failover with standby takeover, a
    live reshard, two link bounces) to settle."""

    name = "sharded_lossy_torus64"
    phases = ("config_wall_s", "reconverge_wall_s")
    kinds = ("repetition",)
    minimum = {"repetition": 3}
    seed_note = "bus fault seed and churn seed = --seed"

    FAULTS = {"drop": 0.05, "duplicate": 0.02, "reorder": 0.05,
              "jitter": 0.02}
    SETTLE = 15.0
    MAX_EXTRA = 900.0
    #: The bus counts as drained once flows, retransmits and acks stood
    #: still for longer than the reliable layer's max RTO (5 s).
    DRAIN_QUIET = 6.0
    DRAIN_LIMIT = 180.0

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = seed
        self.spec = get("torus-8x8-c4" if scale == "full" else "ring-16-c2")

    def _config(self, topology):
        config = self.spec.framework_config(topology)
        config.bus_faults = {"routeflow.*": dict(self.FAULTS),
                             "config.rpc": dict(self.FAULTS)}
        config.bus_fault_seed = self.seed
        return config

    def _drain(self, sim, framework) -> None:
        def signature() -> Tuple[int, int, int]:
            totals = framework.bus.stats()["_totals"]
            return (_total(framework, "flows_current"),
                    totals["retransmits"], totals["acked"])

        quiet, quiet_since = signature(), sim.now
        deadline = sim.now + self.DRAIN_LIMIT
        while sim.now < deadline:
            sim.run(until=sim.now + 1.0)
            current = signature()
            if current != quiet:
                quiet, quiet_since = current, sim.now
            elif sim.now - quiet_since >= self.DRAIN_QUIET:
                return

    def repetition(self, h) -> None:
        spec = self.spec
        sim, framework, network, topology = _boot(
            h, spec.build_topology, self._config)
        with h.phase("config_wall_s"):
            configured = framework.run_until_configured(
                max_time=spec.max_time, settle=5.0)
            if configured is not None:
                self._drain(sim, framework)
        if not h.check(configured is not None, "configured within max_time"):
            return
        h.count("sim.config_s", configured)
        plane = framework.control_plane
        steady_flows = _total(framework, "flows_current")
        changes = _watch_fib(sim, plane)
        network.add_failure_listener(
            _mirror_into_routeflow(network, framework.bus))
        schedule = churn_schedule(
            spec.controllers, [node.node_id for node in topology.nodes],
            list(network.link_ports), seed=self.seed)
        with h.phase("reconverge_wall_s"):
            network.schedule_failures(schedule)
            horizon = sim.now + schedule.duration
            settled = _quiesce(sim, changes, horizon,
                               horizon + self.MAX_EXTRA, self.SETTLE)
        h.count("sim.reconverge_s", max(
            (t for t in changes if t >= horizon), default=horizon) - horizon)
        _platform_counts(h, sim, framework, network)
        h.check(settled, "settled after the churn schedule")
        h.check(_total(framework, "flows_current") == steady_flows,
                "final flows equal the pre-churn flows")
        h.check(framework.bus.stats()["_totals"]["exhausted"] == 0,
                "no reliable publish exhausted its retries")
        problems = (verify_spf_rib_consistency(plane)
                    + plane.ownership_violations()
                    + plane.orphaned_parked_route_mods())
        h.check(not problems, "invariants: " + "; ".join(problems[:3]))


# ---------------------------------------------------------------------------
# 4. fluid_te_1m
# ---------------------------------------------------------------------------
class FluidTE:
    """One million uniform demands on a 16x16 torus with synthetic
    routes; one fixture, a failure-driven phase (churn cycles) and a
    steer-driven phase (TE episodes), both on the same ``traffic`` layer."""

    name = "fluid_te_1m"
    phases = ("churn_cycle_wall_s", "te_tick_wall_s")
    kinds = ("cycle", "episode")
    minimum = {"cycle": 3, "episode": 1}
    seed_note = "demand seed and hot links from --seed"

    TICKS = 4
    HOT_LINKS = 4
    HOT_SCALE = 0.01
    TE = TESpec(policy="greedy", engine="synthetic", interval=5.0,
                threshold=0.3, max_steers_per_tick=16, k_paths=4)

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = seed
        self.side, self.demands = (16, 1_000_000) if scale == "full" \
            else (4, 2_000)

    def prepare(self, h) -> None:
        """Build, generate, register, first reallocate: all set-up, never
        part of a measured region."""
        started = _now()
        sim = self.sim = Simulator()
        h.attach(sim)
        network = self.network = EmulatedNetwork(
            sim, torus_topology(self.side, self.side))
        built = _now()
        routes = self.routes = SyntheticRoutes(network)
        routes.install()
        installed = _now()
        addresses = {dpid: service_address(dpid) for dpid in network.switches}
        owners = {int(address): dpid for dpid, address in addresses.items()}
        engine = self.engine = FluidEngine(sim, network, owner_of=owners.get)
        engine.attach()
        attached = _now()
        demands = uniform_demands(addresses, self.demands, rate_bps=1_000.0,
                                  seed=self.seed)
        generated = _now()
        engine.register(demands, schedule=False)
        registered = _now()
        engine.reallocate()
        allocated = _now()
        self.controller = TEController(
            sim, network, FlowTableActuator(routes), spec=self.TE,
            policy=make_policy(self.TE), engine=engine, owner_of=owners.get)
        # Not seeded: which link fails moves the cost of a cycle by up to
        # 2x (the BFS tie-break funnels paths through the low ids), which
        # across seeds would read as noise.  The horizontal link at the
        # centre of the torus costs about what the median link does.
        centre = self.side * (self.side // 2 - 1) + self.side // 2 + 1
        self.churn_link = (centre, centre + 1)
        self.hot_links = [self._link(*pair) for pair in SeededRandom(
            self.seed).sample(sorted(network.link_ports), self.HOT_LINKS)]
        h.setup(_now() - started)
        h.timing("topology.build_s", built - started)
        h.timing("traffic.install_s", installed - built)
        h.timing("traffic.demand_gen_s", generated - attached)
        h.timing("traffic.register_s", registered - generated)
        h.timing("traffic.cold_reallocate_s", allocated - registered)
        h.count("traffic.commodities", len(engine.commodities))
        h.count("openflow.flows_final", sum(
            len(switch.flow_table) for switch in network.switches.values()))
        self._check_delivered(h, "after set-up")

    def _link(self, node_a: int, node_b: int):
        port_a, _port_b = self.network.ports_for_link(node_a, node_b)
        return self.network.switches[node_a].port(port_a).interface.link

    def _check_delivered(self, h, when: str) -> None:
        stats = self.engine.stats()
        h.check(stats["delivered_commodities"] == stats["commodities"] > 0,
                f"every commodity delivered {when}")

    def _counters(self) -> Dict[str, float]:
        engine, tables = self.engine, [
            switch.flow_table for switch in self.network.switches.values()]
        return {"traffic.walks": engine.resolver.walks,
                "traffic.lookups": engine.resolver.lookups,
                "traffic.reresolutions": engine.reresolutions,
                "traffic.affected_demands": engine.affected_demands,
                "openflow.table_lookups": sum(t.lookup_count for t in tables),
                "openflow.table_matched": sum(t.matched_count for t in tables),
                "sim.events": self.sim.processed_events,
                "sim.sim_seconds": self.sim.now}

    def _count_since(self, h, before: Dict[str, float]) -> None:
        """Close a unit: report the counters' deltas.

        A table change schedules a zero-delay fluid:reallocate; the unit
        already reallocated by hand, so the (now idle) event runs here
        first rather than in the next unit's first tick."""
        self.sim.run(until=self.sim.now)
        for name, value in self._counters().items():
            h.count(name, value - before[name])

    def cycle(self, h) -> None:
        """Fail one link, reroute, reallocate; restore, reroute,
        reallocate.  Identical work each cycle."""
        network, routes, engine = self.network, self.routes, self.engine
        before = self._counters()
        with h.phase("churn_cycle_wall_s"):
            network.fail_link(*self.churn_link)
            routes.reroute()
            engine.reallocate()
            network.restore_link(*self.churn_link)
            routes.reroute()
            engine.reallocate()
        self._count_since(h, before)
        h.count("topology.failure_events", 2)
        self._check_delivered(h, "after a churn cycle")

    def episode(self, h) -> None:
        """Scale the hot links down, run the greedy ticks, then put the
        fixture back so the next episode starts from the identical state."""
        sim, engine, controller = self.sim, self.engine, self.controller
        capacities = [(link, link.bandwidth_bps) for link in self.hot_links]
        for link, capacity in capacities:
            link.bandwidth_bps = capacity * self.HOT_SCALE
        controller.ksp.invalidate()
        before = self._counters()
        te_before = controller.stats()
        bits_before = engine.stats()
        controller.start()
        for _tick in range(self.TICKS):
            with h.phase("te_tick_wall_s"):
                sim.run(until=sim.now + self.TE.interval)
        controller.stop()
        te_after = controller.stats()
        bits_after = engine.stats()
        steer_reresolutions = (engine.reresolutions
                               - before["traffic.reresolutions"])
        # Not part of wall_s, but a phase so the traced run sees te.clear_s.
        with h.phase("te_restore_wall_s"):
            for link, capacity in capacities:
                link.bandwidth_bps = capacity
            controller.clear()
            engine.reallocate()
        # Utilization is a difference of these accumulators; left to grow,
        # the next episode's readings differ in the last bit and a tie in
        # the greedy choice falls the other way.
        for link in self.network.links:
            link.iface_a.tx_busy_seconds = link.iface_b.tx_busy_seconds = 0.0
        self._count_since(h, before)
        for key in ("decisions", "steer_changes", "reroutes", "pruned_steers",
                    "ksp_computations"):
            h.count(f"te.{key}", te_after[key] - te_before[key])
        hits = te_after["ksp_hits"] - te_before["ksp_hits"]
        computed = te_after["ksp_computations"] - te_before["ksp_computations"]
        steers = te_after["steer_changes"] - te_before["steer_changes"]
        offered, delivered = (bits_after[key] - bits_before[key]
                              for key in ("offered_bits", "delivered_bits"))
        h.count("te.ksp_hit_share",
                hits / (hits + computed) if hits + computed else 0.0)
        h.count("te.delivered_share",
                round(delivered / offered, 9) if offered else 0.0)
        h.count("traffic.reresolutions_per_steer",
                steer_reresolutions / steers if steers else 0.0)
        h.check(not controller.steers, "zero steers after clear()")
        self._check_delivered(h, "after clear()")


WORKLOADS = {workload.name: workload for workload in (
    OspfTorus, BgpScaleFree, ShardedLossyTorus, FluidTE)}
