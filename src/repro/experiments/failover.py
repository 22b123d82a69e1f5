"""Failure-resilience experiments: the ``repro failover`` subcommand.

A failover run configures a registry scenario exactly like a sweep run,
then arms a :class:`~repro.scenarios.FailureSchedule` against the emulated
network and measures, per failure event:

* **reconvergence time** — seconds from the event until the last routing
  change it caused (RIB/FIB updates across every VM, observed through the
  zebra FIB listeners); and
* **frames lost** — the physical network's drop-counter delta over the
  event's window: every frame sent into a dead port or link, control
  probes included.  The run carries no data traffic, and discovery stops
  probing a link once it has learned it, so a configured network reads 0
  unless something sends into the failed link.

Failure events execute in the simulation kernel
(:meth:`EmulatedNetwork.schedule_failures`); a listener mirrors each
physical change into the RouteFlow virtual topology the way RFProxy relays
port-status messages, so the per-VM Quagga stacks react through carrier
loss, adjacency teardown and SPF — not through experiment-harness fiat.

After the run, :func:`verify_spf_rib_consistency` cross-checks every VM:
the RIB's OSPF candidates must exactly equal a fresh SPF result over the
VM's LSDB — the end-to-end guarantee that no stale route survived the
churn.
"""

from __future__ import annotations

import logging
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.experiments.results import format_seconds, format_table
from repro.experiments.run import (PathLike, ScenarioRun,
                                   check_non_negative, mirror_into_routeflow,
                                   write_csv)
from repro.quagga.rib import RouteSource
from repro.scenarios import FailureSchedule, ScenarioSpec, get

LOG = logging.getLogger(__name__)

#: Quiet period (seconds) with no routing activity after the last event
#: before the network counts as reconverged.  Must exceed the OSPF SPF
#: holdtime (5 s by default) or a throttled SPF run could be missed.
DEFAULT_SETTLE = 15.0

#: Extra simulated time allowed past the schedule's last event before the
#: run is declared non-convergent.
MAX_EXTRA_TIME = 1800.0


@dataclass
class FailoverEventResult:
    """Measurements for one executed failure event."""

    index: int
    action: str
    description: str
    #: Absolute simulated time the event executed.
    at_seconds: float
    #: Seconds from the event to the last routing change in its window
    #: (0.0 when the event caused no routing change).
    reconverge_seconds: float
    #: Number of FIB updates (installs + withdrawals across all VMs).
    route_changes: int
    #: Physical frames dropped during the event's window, control probes
    #: included (the run itself sends no data frames).
    frames_lost: int


@dataclass
class FailoverResult:
    """The outcome of one failover run."""

    scenario: str
    family: str
    seed: int
    num_switches: int
    num_links: int
    #: Simulated seconds to the initial automatic configuration (None when
    #: the scenario never configured — no failures are injected then).
    configured_seconds: Optional[float]
    events: List[FailoverEventResult] = field(default_factory=list)
    #: Whether routing activity went quiet for the settle period after the
    #: last event.  False means the run hit its time budget still churning.
    settled: bool = False
    #: SPF/RIB consistency violations found after the run (empty = healthy).
    invariant_violations: List[str] = field(default_factory=list)
    #: Aggregate physical delivery/drop counters at the end of the run.
    link_stats: Dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0

    @property
    def configured(self) -> bool:
        return self.configured_seconds is not None

    @property
    def reconverged(self) -> bool:
        """Every injected failure led to a finite, settled reconvergence."""
        return self.configured and self.settled \
            and not self.invariant_violations

    @property
    def total_frames_lost(self) -> int:
        return sum(event.frames_lost for event in self.events)

    @property
    def worst_reconverge_seconds(self) -> Optional[float]:
        if not self.events:
            return None
        return max(event.reconverge_seconds for event in self.events)


def verify_spf_rib_consistency(rfserver) -> List[str]:
    """Check every VM's RIB against a fresh SPF run over its LSDB.

    ``rfserver`` is anything with a ``vms`` mapping — a single
    :class:`RFServer` or a sharded control plane (then the check spans
    every shard's VMs).  Returns human-readable violations; an empty list
    means each router's OSPF candidate set exactly equals its latest SPF
    result — no stale next hops, no leftover withdrawn prefixes, no
    duplicate candidates.
    """
    violations: List[str] = []
    for vm in rfserver.vms.values():
        daemon = vm.ospf
        if daemon is None or not daemon.running:
            continue
        expected = daemon.spf_routes()
        actual = {}
        for prefix, candidates in vm.zebra.rib.candidates_from(
                RouteSource.OSPF).items():
            if len(candidates) != 1:
                violations.append(
                    f"{vm.name}: {len(candidates)} OSPF candidates for "
                    f"{prefix} (expected exactly one)")
            actual[prefix] = candidates[0]
        for prefix in sorted(set(expected) | set(actual),
                             key=lambda p: (int(p.network), p.prefix_len)):
            want = expected.get(prefix)
            have = actual.get(prefix)
            if want is None:
                violations.append(
                    f"{vm.name}: stale OSPF candidate {have} not in the "
                    f"latest SPF result")
            elif have is None:
                violations.append(
                    f"{vm.name}: SPF route {want} missing from the RIB")
            elif have != want:
                violations.append(
                    f"{vm.name}: RIB has {have}, SPF computed {want}")
    return violations


# ``bench/workloads.py`` imports the mirror under this name, and the
# benchmark's files are not edited alongside experiment code.
_mirror_into_routeflow = mirror_into_routeflow


def run_failover(scenario: Union[str, ScenarioSpec],
                 schedule: Optional[FailureSchedule] = None,
                 settle: float = DEFAULT_SETTLE,
                 churn: int = 0, churn_seed: int = 0,
                 churn_spacing: float = 60.0,
                 churn_recovery: float = 30.0) -> FailoverResult:
    """Configure a scenario, inject a failure schedule, measure recovery.

    ``schedule`` defaults to the scenario's own :attr:`ScenarioSpec.failures`.
    ``churn > 0`` additionally bounces that many seeded-random links of the
    scenario's topology (generated here, against the same topology the run
    uses).  At least one failure event must result.  Schedules are
    validated against the topology before any simulation time is spent.
    """
    check_non_negative(settle=settle)
    spec = scenario if isinstance(scenario, ScenarioSpec) else get(scenario)
    topology = spec.build_topology()
    base = schedule if schedule is not None else spec.failures
    events = list(base.events) if base is not None else []
    if churn:
        # Links the base schedule explicitly controls are exempt from
        # churn, so a random link_up can never resurrect a link the caller
        # deliberately failed for the rest of the run.
        controlled = {(min(e.node_a, e.node_b), max(e.node_a, e.node_b))
                      for e in events if e.is_link_event}
        links = [(link.node_a, link.node_b) for link in topology.links
                 if (min(link.node_a, link.node_b),
                     max(link.node_a, link.node_b)) not in controlled]
        events.extend(FailureSchedule.random_churn(
            links, churn, seed=churn_seed, spacing=churn_spacing,
            recovery=churn_recovery).events)
    if not events:
        raise ValueError(
            f"scenario {spec.name!r} carries no failure schedule and none "
            f"was provided")
    active = FailureSchedule(tuple(events))
    active.validate_against((node.node_id for node in topology.nodes),
                            ((link.node_a, link.node_b)
                             for link in topology.links),
                            shards=spec.controllers)
    run = ScenarioRun(topology, spec.framework_config(topology))
    configured_at = run.configure(spec.max_time)
    result = FailoverResult(
        scenario=spec.name, family=spec.family, seed=spec.seed,
        num_switches=topology.num_nodes, num_links=topology.num_links,
        configured_seconds=configured_at)
    if configured_at is None:
        result.wall_seconds = run.wall_seconds
        return result

    # -- instrumentation -----------------------------------------------------
    sim, network = run.sim, run.network
    change_times = run.watch_fib()
    executed: List[Tuple[object, float, Dict[str, int]]] = []

    def observe(event) -> None:
        executed.append((event, sim.now, network.stats()))

    run.mirror_failures()
    network.add_failure_listener(observe)
    network.schedule_failures(active)

    # -- run to quiescence ---------------------------------------------------
    horizon = sim.now + active.duration
    result.settled = run.quiesce(change_times, horizon,
                                 horizon + MAX_EXTRA_TIME, settle)
    if not result.settled:
        LOG.warning("failover %s: still reconverging when the time budget "
                    "(%.0fs past the last event) ran out", spec.name,
                    MAX_EXTRA_TIME)
    final_stats = network.stats()

    # -- per-event measurements ----------------------------------------------
    change_times.sort()
    for index, (event, at, stats_before) in enumerate(executed):
        has_next = index + 1 < len(executed)
        window_end = executed[index + 1][1] if has_next else sim.now
        stats_end = executed[index + 1][2] if has_next else final_stats
        first = bisect_left(change_times, at)
        # The window closes *before* the next event executes: changes at
        # that exact instant are the next event's synchronous fallout.
        last = bisect_left(change_times, window_end) if has_next \
            else bisect_right(change_times, window_end)
        changes = change_times[first:last]
        result.events.append(FailoverEventResult(
            index=index,
            action=event.action,
            description=event.describe(),
            at_seconds=at,
            reconverge_seconds=(changes[-1] - at) if changes else 0.0,
            route_changes=len(changes),
            frames_lost=(stats_end["frames_dropped"]
                         - stats_before["frames_dropped"]),
        ))
    result.invariant_violations = verify_spf_rib_consistency(
        run.framework.control_plane)
    result.link_stats = final_stats
    result.wall_seconds = run.wall_seconds
    for violation in result.invariant_violations:
        LOG.warning("failover %s: %s", spec.name, violation)
    return result


def render_failover_table(results: List[FailoverResult]) -> str:
    """Per-event ASCII report of a failover suite."""
    rows = []
    for result in results:
        if not result.configured:
            rows.append([result.scenario, "-", "(never configured)",
                         "n/a", "n/a", "n/a"])
            continue
        for event in result.events:
            rows.append([
                result.scenario,
                event.index,
                event.description,
                format_seconds(event.reconverge_seconds),
                event.route_changes,
                event.frames_lost,
            ])
    table = format_table(
        ["scenario", "#", "event", "reconvergence", "route changes",
         "frames dropped"], rows)
    notes = []
    for result in results:
        if result.reconverged:
            state = "OK"
        elif not result.configured:
            state = "NOT CHECKED (never configured)"
        elif not result.settled:
            state = "NEVER SETTLED"
        else:
            state = "VIOLATIONS"
        notes.append(
            f"{result.scenario}: configured in "
            f"{format_seconds(result.configured_seconds)}, "
            f"{len(result.events)} failures, "
            f"{result.total_frames_lost} frames dropped, invariant {state}")
        notes.extend(f"  ! {violation}"
                     for violation in result.invariant_violations)
    return table + "\n\n" + "\n".join(notes)


def write_failover_csv(results: List[FailoverResult], path: PathLike) -> Path:
    """Write a failover suite as CSV, one row per injected failure event.

    The per-run delivery/drop totals ride on every row so the file stays
    flat (same shape as the sweep CSV).
    """
    def rows():
        for result in results:
            head = [result.scenario, result.family, result.seed,
                    result.num_switches, result.num_links,
                    result.configured_seconds]
            tail = [result.link_stats.get("frames_delivered", 0),
                    result.link_stats.get("frames_dropped", 0)]
            if not result.events:
                yield head + [""] * 7 + tail
            for event in result.events:
                yield head + [event.index, event.action, event.description,
                              event.at_seconds, event.reconverge_seconds,
                              event.route_changes, event.frames_lost] + tail

    return write_csv(path, [
        "scenario", "family", "seed", "switches", "links",
        "configured_seconds", "event_index", "action", "event",
        "at_seconds", "reconverge_seconds", "route_changes", "frames_lost",
        "frames_delivered", "frames_dropped"], rows())
