"""Controller-scaling experiments: the ``repro ctlscale`` subcommand.

For one registry scenario and a list of controller-shard counts, the
experiment configures the same topology under each shard count and
reports, per run:

* the simulated configuration (convergence) time — sharding pays off
  because VM cloning/booting serialises per controller host, so N shards
  boot their partitions concurrently;
* the per-shard control-plane load — RouteMods received, FlowMods
  issued, flows currently installed — exported per shard and as totals;
* a **conservation check**: the steady-state flow count is a function of
  the topology alone, so the sum of every shard's ``flows_current`` must
  equal the single-controller total (transient message *counts* may
  differ — boot interleavings change OSPF timing — which is why the check
  pins installed state, not traffic);
* the SPF/RIB invariant over every VM
  (:func:`~repro.experiments.failover.verify_spf_rib_consistency`), i.e.
  each router's RIB equals a fresh SPF result; and
* the control-plane bus's per-topic message counters.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.experiments.failover import verify_spf_rib_consistency
from repro.experiments.results import format_seconds, format_table
from repro.experiments.run import (PathLike, ScenarioRun,
                                   check_non_negative, write_csv)
from repro.scenarios import ScenarioSpec, get
from repro.scenarios.events import FailureAction, FailureEvent, FailureSchedule
from repro.sim.rng import SeededRandom

LOG = logging.getLogger(__name__)

#: Shard counts swept by default (1 is the conservation reference).
DEFAULT_CONTROLLER_COUNTS = (1, 2, 4)
#: Seconds a configuration runs past convergence before loads are sampled.
CONFIGURE_SETTLE = 5.0
#: Churn timing: the first event fires this long after arming, and the run
#: gets this much simulated time past the last event to reconverge.
CHURN_START = 5.0
CHURN_MAX_EXTRA = 900.0


@dataclass
class CtlScaleResult:
    """One scenario configured under one controller-shard count."""

    scenario: str
    family: str
    seed: int
    controllers: int
    partitioner: str
    num_switches: int
    num_links: int
    configured_seconds: Optional[float]
    #: One entry per shard: switches, vms, route_mods, flow_mods_installed,
    #: flow_mods_removed, flows_current (see ``RFServer.load``).
    shard_loads: List[Dict[str, int]] = field(default_factory=list)
    invariant_violations: List[str] = field(default_factory=list)
    #: Per-topic bus counters at the end of the run.
    bus_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    wall_seconds: float = 0.0

    #: Derived values the JSON payload carries (see ``run.to_payload``).
    payload_properties = ("total_route_mods", "total_flow_mods",
                          "total_flows")

    @property
    def configured(self) -> bool:
        return self.configured_seconds is not None

    @property
    def total_route_mods(self) -> int:
        return sum(load["route_mods"] for load in self.shard_loads)

    @property
    def total_flow_mods(self) -> int:
        return sum(load["flow_mods_installed"] + load["flow_mods_removed"]
                   for load in self.shard_loads)

    @property
    def total_flows(self) -> int:
        return sum(load["flows_current"] for load in self.shard_loads)


def run_ctlscale(scenario: Union[str, ScenarioSpec],
                 controller_counts: Iterable[int] = DEFAULT_CONTROLLER_COUNTS,
                 partitioner: Optional[str] = None) -> List[CtlScaleResult]:
    """Configure one scenario under every shard count, in given order.

    ``partitioner`` overrides the scenario's partitioner kind (default:
    whatever the scenario's framework overrides say, i.e. ``hash``).
    """
    spec = scenario if isinstance(scenario, ScenarioSpec) else get(scenario)
    results: List[CtlScaleResult] = []
    for count in controller_counts:
        if count < 1:
            raise ValueError(f"controller counts must be >= 1, got {count}")
        run_spec = spec.with_controllers(count)
        topology = run_spec.build_topology()
        config = run_spec.framework_config(topology)
        if partitioner is not None:
            config.partitioner = partitioner
        run = ScenarioRun(topology, config)
        configured_at = run.configure(run_spec.max_time, settle=CONFIGURE_SETTLE)
        framework = run.framework
        result = CtlScaleResult(
            scenario=spec.name, family=spec.family, seed=spec.seed,
            controllers=count, partitioner=config.partitioner,
            num_switches=topology.num_nodes, num_links=topology.num_links,
            configured_seconds=configured_at,
            shard_loads=framework.shard_loads(),
            bus_stats=framework.bus.stats(),
            wall_seconds=run.wall_seconds)
        if configured_at is not None:
            result.invariant_violations = verify_spf_rib_consistency(
                framework.control_plane)
        LOG.info("ctlscale: %s x%d controllers -> configured %s, "
                 "%d flows installed", spec.name, count,
                 format_seconds(configured_at), result.total_flows)
        results.append(result)
    return results


def check_load_conservation(results: Sequence[CtlScaleResult]) -> List[str]:
    """Cross-check the sharded runs against the single-controller run.

    The steady-state per-switch flow state must be independent of how the
    control plane is partitioned; returns a list of human-readable
    violations (empty = conserved).  Needs a ``controllers=1`` run in the
    result list as the reference; without one nothing is checked.
    """
    reference = next((r for r in results if r.controllers == 1 and r.configured),
                     None)
    if reference is None:
        return []
    problems: List[str] = []
    for result in results:
        if result is reference or not result.configured:
            continue
        if result.total_flows != reference.total_flows:
            problems.append(
                f"{result.scenario} x{result.controllers}: "
                f"{result.total_flows} flows installed across shards, "
                f"single-controller total is {reference.total_flows}")
        if result.invariant_violations:
            problems.append(
                f"{result.scenario} x{result.controllers}: "
                f"{len(result.invariant_violations)} SPF/RIB violations")
    return problems


# ---------------------------------------------------------------------------
# controller churn: takeover / resharding under a failure schedule
# ---------------------------------------------------------------------------
@dataclass
class CtlScaleChurnResult:
    """One scenario driven through controller churn under N shards.

    ``reference_flows`` is the single-controller steady state (the
    conservation reference), ``steady_flows`` the sharded steady state
    before churn, ``final_flows`` the count after the schedule ran and
    the network re-settled.  Zero flow loss means all three agree.
    """

    scenario: str
    family: str
    seed: int
    controllers: int
    partitioner: str
    num_switches: int
    num_links: int
    churn_seed: int
    configured_seconds: Optional[float]
    reference_flows: int = 0
    steady_flows: int = 0
    final_flows: int = 0
    takeovers: int = 0
    reshards: int = 0
    settled: bool = False
    #: Fault profile injected on the sharded run's bus (pattern ->
    #: ChannelFaults params); empty means the bus was lossless.
    bus_faults: Dict[str, Dict[str, float]] = field(default_factory=dict)
    bus_fault_seed: int = 0
    reliable_ipc: bool = False
    #: Reliability counters summed across topics (``stats()["_totals"]``).
    retransmits: int = 0
    acked: int = 0
    exhausted: int = 0
    dropped_fault: int = 0
    fault_duplicated: int = 0
    fault_reordered: int = 0
    rx_duplicates: int = 0
    rx_out_of_order: int = 0
    rx_out_of_window: int = 0
    #: Fencing + idempotence counters from the components themselves.
    stale_announcements: int = 0
    duplicate_installs: int = 0
    client_resyncs: int = 0
    #: Per-topic bus counters at the end of the run.
    bus_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Seconds between the last churn event and the last FIB change (how
    #: long the control plane needed to reconverge after the churn).
    reconvergence_seconds: Optional[float] = None
    schedule: List[Dict[str, object]] = field(default_factory=list)
    shard_roles: List[str] = field(default_factory=list)
    shard_loads: List[Dict[str, int]] = field(default_factory=list)
    invariant_violations: List[str] = field(default_factory=list)
    ownership_violations: List[str] = field(default_factory=list)
    orphaned_route_mods: List[str] = field(default_factory=list)
    wall_seconds: float = 0.0

    #: Derived values the JSON payload carries (see ``run.to_payload``).
    payload_properties = ("flow_loss", "conserved", "healthy")

    @property
    def configured(self) -> bool:
        return self.configured_seconds is not None

    @property
    def flow_loss(self) -> int:
        return self.steady_flows - self.final_flows

    @property
    def conserved(self) -> bool:
        """The load-conservation gate under churn: the post-churn flow
        state matches both the pre-churn sharded steady state and the
        single-controller reference."""
        return (self.configured
                and self.final_flows == self.steady_flows
                and self.final_flows == self.reference_flows)

    @property
    def healthy(self) -> bool:
        return (self.configured and self.settled and self.conserved
                and not self.invariant_violations
                and not self.ownership_violations
                and not self.orphaned_route_mods)


def churn_schedule(num_shards: int, dpids: Sequence[int],
                   links: Sequence[tuple], failovers: int = 1,
                   reshards: int = 1, link_churn: int = 2, seed: int = 0,
                   spacing: float = 30.0) -> FailureSchedule:
    """A seeded controller-churn schedule: shard failovers (each later
    restored), live reshards onto random live shards, interleaved with
    random link churn.  At least two shards stay live at all times, so a
    takeover always has a standby.  Deterministic in the seed."""
    if num_shards < 2:
        raise ValueError(
            f"controller churn needs >= 2 shards, got {num_shards}")
    rng = SeededRandom(seed)
    events: List[FailureEvent] = []
    # Each failed shard is restored before the next event, so every shard
    # is live whenever a victim or a reshard target is drawn.
    shards = list(range(num_shards))
    when = CHURN_START
    for _ in range(failovers):
        victim = rng.choice(shards)
        events.append(FailureEvent(when, FailureAction.SHARD_FAILOVER, victim))
        when += spacing
        events.append(FailureEvent(when, FailureAction.SHARD_UP, victim))
        when += spacing
    ordered_dpids = sorted(dpids)
    for _ in range(reshards):
        dpid = rng.choice(ordered_dpids)
        target = rng.choice(shards)
        events.append(FailureEvent(when, FailureAction.RESHARD, dpid, target))
        when += spacing
    schedule = FailureSchedule(tuple(events))
    if link_churn:
        schedule = schedule.extended(FailureSchedule.random_churn(
            list(links), link_churn, seed=seed + 1, start=CHURN_START + spacing / 2,
            spacing=spacing, recovery=spacing / 2).events)
    return schedule


def _harvest_bus_counters(result: CtlScaleChurnResult, framework) -> None:
    """Copy the bus's end-of-run reliability counters into the result."""
    stats = framework.bus.stats()
    totals = stats.get("_totals", {})
    for key in ("retransmits", "acked", "exhausted", "dropped_fault",
                "fault_duplicated", "fault_reordered", "rx_duplicates",
                "rx_out_of_order", "rx_out_of_window"):
        setattr(result, key, int(totals.get(key, 0)))
    result.bus_stats = stats


def run_ctlscale_churn(scenario: Union[str, ScenarioSpec],
                       controllers: Optional[int] = None,
                       partitioner: Optional[str] = None,
                       failovers: int = 1, reshards: int = 1,
                       link_churn: int = 2, churn_seed: int = 0,
                       spacing: float = 30.0, settle: float = 15.0,
                       bus_drop: float = 0.0, bus_duplicate: float = 0.0,
                       bus_reorder: float = 0.0, bus_jitter: float = 0.0,
                       bus_fault_seed: Optional[int] = None
                       ) -> CtlScaleChurnResult:
    """Measure reconvergence time and flow loss under controller churn.

    Configures the scenario twice: once with a single controller (the
    conservation reference) and once with ``controllers`` shards (default:
    the scenario's own count).  The sharded run is then driven through a
    seeded churn schedule — shard failovers with standby takeover, live
    resharding, link churn — and run to quiescence; the result carries the
    flow-conservation gate plus the SPF/RIB, ownership and parked-RouteMod
    invariants.

    ``bus_drop`` / ``bus_duplicate`` / ``bus_reorder`` / ``bus_jitter``
    degrade the sharded run's control bus on every ``routeflow.*`` and
    ``config.rpc`` topic (the single-controller reference stays lossless
    so the conservation baseline is exact).  Any non-zero value switches
    the bus to reliable at-least-once delivery; ``bus_fault_seed``
    defaults to ``churn_seed`` so a lossy run is deterministic in one
    seed.
    """
    check_non_negative(failovers=failovers, reshards=reshards,
                       link_churn=link_churn, spacing=spacing, settle=settle)
    spec = scenario if isinstance(scenario, ScenarioSpec) else get(scenario)
    count = controllers if controllers is not None else spec.controllers
    if count < 2:
        raise ValueError(
            f"controller churn needs >= 2 shards; scenario {spec.name} "
            f"defaults to {count} (pass a controller count >= 2)")
    fault_params = {key: value for key, value in (
        ("drop", bus_drop), ("duplicate", bus_duplicate),
        ("reorder", bus_reorder), ("jitter", bus_jitter)) if value}
    bus_faults = ({"routeflow.*": dict(fault_params),
                   "config.rpc": dict(fault_params)}
                  if fault_params else {})
    fault_seed = churn_seed if bus_fault_seed is None else bus_fault_seed
    reference = run_ctlscale(spec, controller_counts=(1,))[0]

    run_spec = spec.with_controllers(count)
    topology = run_spec.build_topology()
    config = run_spec.framework_config(topology)
    if partitioner is not None:
        config.partitioner = partitioner
    if bus_faults:
        config.bus_faults = bus_faults
        config.bus_fault_seed = fault_seed
    run = ScenarioRun(topology, config)
    configured_at = run.configure(run_spec.max_time, settle=CONFIGURE_SETTLE)
    sim, framework, network = run.sim, run.framework, run.network
    result = CtlScaleChurnResult(
        scenario=spec.name, family=spec.family, seed=spec.seed,
        controllers=count, partitioner=config.partitioner,
        num_switches=topology.num_nodes, num_links=topology.num_links,
        churn_seed=churn_seed, configured_seconds=configured_at,
        reference_flows=reference.total_flows,
        bus_faults={pattern: dict(params)
                    for pattern, params in bus_faults.items()},
        bus_fault_seed=fault_seed if bus_faults else 0,
        reliable_ipc=framework.bus.reliable)
    if configured_at is None:
        result.wall_seconds = run.wall_seconds
        _harvest_bus_counters(result, framework)
        return result

    plane = framework.control_plane
    if bus_faults:
        # Under a lossy bus the flow-install tail outlives the VM-running
        # convergence signal (retransmits may still be draining); sample
        # the steady state only once the bus is quiet.  The signature
        # includes the retransmit/ack counters because a pending message
        # can sit silent for up to max_rto (5 s) between attempts without
        # the flow count moving — the quiet window must outlast that.
        def signature():
            stats = framework.bus.stats()["_totals"]
            return (run.total("flows_current"), stats["retransmits"],
                    stats["acked"])

        quiet = signature()
        quiet_since = sim.now
        drain_deadline = sim.now + 180.0
        while sim.now < drain_deadline:
            sim.run(until=sim.now + 1.0)
            current = signature()
            if current != quiet:
                quiet, quiet_since = current, sim.now
            elif sim.now - quiet_since >= 6.0:
                break
    result.steady_flows = run.total("flows_current")
    change_times = run.watch_fib()
    run.mirror_failures()
    schedule = churn_schedule(
        count, [node.node_id for node in topology.nodes],
        list(network.link_ports), failovers=failovers, reshards=reshards,
        link_churn=link_churn, seed=churn_seed, spacing=spacing)
    schedule.validate_against(network.switches,
                              ((a, b) for a, b in network.link_ports),
                              shards=count)
    result.schedule = schedule.to_list()
    armed_at = sim.now
    network.schedule_failures(schedule)
    horizon = armed_at + schedule.duration
    result.settled = run.quiesce(change_times, horizon,
                                 horizon + CHURN_MAX_EXTRA, settle)

    last_change = max((t for t in change_times if t >= armed_at),
                      default=horizon)
    result.reconvergence_seconds = max(0.0, last_change - horizon)
    result.final_flows = run.total("flows_current")
    result.takeovers = plane.takeovers
    result.reshards = plane.reshards
    result.shard_roles = [plane.membership.role_of(shard.shard_id)
                          for shard in plane.shards]
    result.shard_loads = framework.shard_loads()
    result.invariant_violations = verify_spf_rib_consistency(plane)
    result.ownership_violations = plane.ownership_violations()
    result.orphaned_route_mods = plane.orphaned_parked_route_mods()
    result.stale_announcements = plane.stale_announcements
    result.duplicate_installs = sum(shard.rfproxy.duplicate_installs
                                    for shard in plane.shards)
    result.client_resyncs = sum(
        client.resyncs
        for shard in plane.shards
        for client in shard.rfserver.rfclients.values())
    _harvest_bus_counters(result, framework)
    result.wall_seconds = run.wall_seconds
    LOG.info("ctlscale churn: %s x%d -> %d takeovers, %d reshards, "
             "flow loss %d, reconverged in %.1fs", spec.name, count,
             result.takeovers, result.reshards, result.flow_loss,
             result.reconvergence_seconds)
    return result


def render_ctlscale_churn(result: CtlScaleChurnResult) -> str:
    """Human-readable churn report with the gate verdicts."""
    rows = [[
        result.scenario, result.controllers, result.partitioner,
        format_seconds(result.configured_seconds), result.takeovers,
        result.reshards,
        "-" if result.reconvergence_seconds is None
        else format_seconds(result.reconvergence_seconds),
        result.flow_loss,
        "yes" if result.settled else "NO",
    ]]
    table = format_table(
        ["scenario", "controllers", "partitioner", "configured",
         "takeovers", "reshards", "reconvergence", "flow loss", "settled"],
        rows)
    lines = [table, ""]
    lines.append("schedule: " + (
        FailureSchedule.from_list(result.schedule).describe()
        if result.schedule else "(empty)"))
    lines.append(f"shard roles: {', '.join(result.shard_roles) or 'n/a'}")
    if result.bus_faults:
        profile = "; ".join(
            f"{pattern}: " + ", ".join(f"{key}={value:g}"
                                       for key, value in sorted(params.items()))
            for pattern, params in sorted(result.bus_faults.items()))
        lines.append(f"bus faults (seed {result.bus_fault_seed}): {profile}")
        lines.append(
            "reliable IPC: "
            f"{result.retransmits} retransmits, {result.acked} acked, "
            f"{result.exhausted} exhausted, {result.client_resyncs} resyncs; "
            f"rx {result.rx_duplicates} dup / {result.rx_out_of_order} ooo / "
            f"{result.rx_out_of_window} out-of-window; "
            f"{result.dropped_fault} dropped by faults, "
            f"{result.stale_announcements} stale announcements fenced, "
            f"{result.duplicate_installs} duplicate installs")
    gates = [
        ("flows conserved "
         f"(reference {result.reference_flows}, steady {result.steady_flows},"
         f" final {result.final_flows})", result.conserved),
        ("SPF/RIB invariant", not result.invariant_violations),
        ("one live master per dpid", not result.ownership_violations),
        ("no orphaned parked RouteMods", not result.orphaned_route_mods),
    ]
    for label, passed in gates:
        lines.append(f"  {'OK  ' if passed else 'FAIL'} {label}")
    for problem in (result.invariant_violations
                    + result.ownership_violations
                    + result.orphaned_route_mods):
        lines.append(f"  ! {problem}")
    return "\n".join(lines)


def render_ctlscale_table(results: Sequence[CtlScaleResult]) -> str:
    """Per-run summary plus a per-shard load breakdown."""
    rows = []
    for result in results:
        rows.append([
            result.scenario,
            result.controllers,
            result.partitioner,
            format_seconds(result.configured_seconds),
            result.total_route_mods,
            result.total_flow_mods,
            result.total_flows,
            "OK" if result.configured and not result.invariant_violations
            else ("n/a" if not result.configured else "VIOLATIONS"),
        ])
    table = format_table(
        ["scenario", "controllers", "partitioner", "configured",
         "route mods", "flow mods", "flows", "RIB=SPF"], rows)
    shard_rows = []
    for result in results:
        for load in result.shard_loads:
            shard_rows.append([
                f"{result.scenario} x{result.controllers}",
                load["shard"],
                load["switches"],
                load["route_mods"],
                load["flow_mods_installed"] + load["flow_mods_removed"],
                load["flows_current"],
            ])
    shard_table = format_table(
        ["run", "shard", "switches", "route mods", "flow mods", "flows"],
        shard_rows)
    notes = [f"  ! {problem}" for problem in check_load_conservation(results)]
    conservation = "\n".join(notes) if notes else \
        "per-shard load sums match the single-controller totals"
    return f"{table}\n\nper-shard load:\n{shard_table}\n\n{conservation}"


def write_ctlscale_csv(results: Sequence[CtlScaleResult],
                       path: PathLike) -> Path:
    """Write a controller-scaling series as CSV, one row per shard."""
    return write_csv(path, [
        "scenario", "family", "seed", "controllers", "partitioner",
        "switches", "links", "configured_seconds", "shard", "shard_switches",
        "route_mods", "flow_mods_installed", "flow_mods_removed",
        "flows_current", "bgp_updates_sent", "bgp_withdrawals_sent",
        "bgp_updates_received"], (
        [result.scenario, result.family, result.seed, result.controllers,
         result.partitioner, result.num_switches, result.num_links,
         result.configured_seconds, load["shard"], load["switches"],
         load["route_mods"], load["flow_mods_installed"],
         load["flow_mods_removed"], load["flows_current"],
         load.get("bgp_updates_sent", 0),
         load.get("bgp_withdrawals_sent", 0),
         load.get("bgp_updates_received", 0)]
        for result in results for load in result.shard_loads))
