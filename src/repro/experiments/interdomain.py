"""Interdomain routing experiments: the ``repro interdomain`` subcommand.

An interdomain run configures a multi-AS registry scenario — bgpd in every
VM, eBGP on the inter-AS border links, an iBGP full mesh per AS, OSPF↔BGP
redistribution at the borders — and measures:

* **interdomain convergence time** — simulated seconds until every VM's
  FIB covers every prefix of every AS (the framework's routing-converged
  milestone, which for interdomain scenarios spans the whole BGP route
  exchange), plus the time of the *last* routing change (BGP route
  selection and redistribution can keep refining the FIBs briefly after
  full reachability);
* **redistribution correctness** — border VMs must hold eBGP routes in
  their FIBs, interior VMs must have learned other-AS prefixes through
  the tagged OSPF AS-external routes their borders redistribute, no
  received AS path may contain the receiver's own AS, and every VM's RIB
  must still equal a fresh SPF run
  (:func:`~repro.experiments.failover.verify_spf_rib_consistency`);
* **per-AS flow counts** — the OpenFlow flow entries installed on each
  AS's switches; and
* optionally a **border flap**: one eBGP border link goes down and comes
  back.  The run verifies the full withdrawal lifecycle — both eBGP
  sessions drop (fast external fallover), the routes learned over them
  are withdrawn end to end (RIB → FIB → RouteMod delete → OFPFC_DELETE on
  the switches), the network reroutes over the surviving borders — and
  the re-establishment lifecycle: sessions back up, routes re-advertised,
  the steady-state flow count restored exactly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.experiments.failover import verify_spf_rib_consistency
from repro.experiments.results import format_seconds, format_table
from repro.experiments.run import (PathLike, ScenarioRun,
                                   check_non_negative, write_csv)
from repro.quagga.ospf.constants import EXTERNAL_ROUTE_TAG
from repro.quagga.rib import RouteSource
from repro.scenarios import FailureSchedule, ScenarioSpec, get
from repro.topology.generators import as_map_from_topology

LOG = logging.getLogger(__name__)

#: Quiet period (seconds) with no FIB change before the interdomain route
#: exchange counts as settled.  Must exceed the OSPF SPF holdtime plus the
#: external-LSA debounce.
DEFAULT_SETTLE = 20.0

#: Extra simulated time allowed for settling / flap reconvergence.
MAX_EXTRA_TIME = 600.0

#: Seconds between arming the flap and the border link going down.
FLAP_LEAD = 10.0

#: Seconds the flapped border link stays down.
FLAP_DOWN = 90.0


@dataclass
class BorderFlapResult:
    """Measurements of one border-link flap."""

    node_a: int
    node_b: int
    #: OFPFC_DELETE flow-mods the withdrawal caused.
    withdrawn_flow_mods: int
    #: Both eBGP sessions over the link left Established while it was down.
    sessions_dropped: bool
    #: Seconds from link-down to the last routing change it caused.
    down_reconverge_seconds: float
    #: Both sessions re-established after the link came back.
    reestablished: bool
    #: Seconds from link-up to the last routing change it caused.
    restore_reconverge_seconds: float
    #: Steady-state flow count was restored exactly after the flap.
    flows_restored: bool

    @property
    def verified(self) -> bool:
        return (self.sessions_dropped and self.withdrawn_flow_mods > 0
                and self.reestablished and self.flows_restored)


@dataclass
class InterdomainResult:
    """The outcome of one interdomain run."""

    scenario: str
    family: str
    seed: int
    num_ases: int
    num_switches: int
    num_links: int
    border_links: int
    controllers: int
    #: Simulated seconds to full interdomain reachability (None = never).
    configured_seconds: Optional[float]
    #: Simulated seconds of the last routing change of the initial
    #: convergence (>= configured_seconds; the steady-state instant).
    converged_seconds: Optional[float] = None
    settled: bool = False
    #: Established session counts (pairs, not directed endpoints).
    ebgp_sessions: int = 0
    ibgp_sessions: int = 0
    steady_flows: int = 0
    #: asn -> {"switches", "flows", "bgp_fib_routes", "external_fib_routes"}.
    per_as: Dict[int, Dict[str, int]] = field(default_factory=dict)
    redistribution_violations: List[str] = field(default_factory=list)
    flap: Optional[BorderFlapResult] = None
    wall_seconds: float = 0.0

    #: The JSON payload leaves out a flap that did not run (see
    #: ``run.to_payload``).
    payload_omit_none = ("flap",)

    @property
    def configured(self) -> bool:
        return self.configured_seconds is not None

    @property
    def healthy(self) -> bool:
        """Converged, settled, redistribution clean, flap (if any) verified."""
        return (self.configured and self.settled
                and not self.redistribution_violations
                and (self.flap is None or self.flap.verified))


def verify_interdomain(control_plane, as_map: Dict[int, int]) -> List[str]:
    """Cross-check the interdomain state of every VM.

    Returns human-readable violations (empty = healthy):

    * every VM's FIB covers every prefix of every AS (full reachability);
    * no VM holds a received announcement whose AS path contains its own
      AS (loop freedom);
    * every border VM (one with eBGP sessions) has BGP routes in its FIB;
    * every interior VM of a multi-router AS learned routes through the
      border's redistribution (tagged OSPF AS-external FIB routes); and
    * every VM's RIB equals a fresh SPF run (the PR-3 invariant).
    """
    violations = list(verify_spf_rib_consistency(control_plane))
    vms = control_plane.vms
    prefixes = {vm_iface.network
                for vm in vms.values()
                for vm_iface in vm.interfaces.values()
                if vm_iface.ip is not None}
    for vm_id in sorted(vms):
        vm = vms[vm_id]
        if not vm.is_running:
            continue
        missing = [p for p in prefixes if p not in vm.zebra.fib]
        if missing:
            violations.append(
                f"{vm.name}: {len(missing)} prefixes missing from the FIB "
                f"(e.g. {sorted(map(str, missing))[:3]})")
        daemon = vm.bgp
        if daemon is None:
            violations.append(f"{vm.name}: no bgpd running")
            continue
        local_as = daemon.local_as
        for session in daemon.sessions.values():
            for announcement in session.received.values():
                if local_as in announcement.as_path:
                    violations.append(
                        f"{vm.name}: AS {local_as} in received path "
                        f"{announcement.as_path} for {announcement.prefix}")
        is_border = bool(daemon.ebgp_sessions)
        bgp_fib = [r for r in vm.zebra.fib_routes
                   if r.source == RouteSource.BGP]
        external_fib = [r for r in vm.zebra.fib_routes
                        if r.tag == EXTERNAL_ROUTE_TAG]
        as_size = sum(1 for asn in as_map.values() if asn == as_map[vm_id])
        if is_border and not bgp_fib:
            violations.append(
                f"{vm.name}: border router without BGP routes in the FIB")
        if not is_border and as_size > 1 and not external_fib:
            violations.append(
                f"{vm.name}: interior router without redistributed "
                f"(AS-external) OSPF routes in the FIB")
    return violations


def _session_states(vm, peer_vm) -> List[str]:
    """States of the eBGP sessions between two VMs (both directions)."""
    states = []
    for first, second in ((vm, peer_vm), (peer_vm, vm)):
        if first.bgp is None:
            continue
        for session in first.bgp.sessions.values():
            if session.is_ibgp:
                continue
            owner = second.owns_ip(session.peer_address)
            if owner is not None:
                states.append(session.state)
    return states


def run_interdomain(scenario: Union[str, ScenarioSpec],
                    flap: bool = True,
                    flap_link: Optional[Tuple[int, int]] = None,
                    settle: float = DEFAULT_SETTLE) -> InterdomainResult:
    """Configure a multi-AS scenario, verify the interdomain state, and
    (optionally) flap one eBGP border link.

    ``flap_link`` picks the border link to bounce (default: the first
    inter-AS link of the topology); ``flap=False`` skips the flap phase
    for a pure convergence measurement.
    """
    check_non_negative(settle=settle)
    spec = scenario if isinstance(scenario, ScenarioSpec) else get(scenario)
    topology = spec.build_topology()
    as_map = as_map_from_topology(topology)
    borders = [(link.node_a, link.node_b) for link in topology.links
               if as_map[link.node_a] != as_map[link.node_b]]
    config = spec.framework_config(topology)
    if not config.enable_bgp:
        raise ValueError(
            f"scenario {spec.name!r} is not an interdomain scenario "
            f"(set ScenarioSpec.interdomain=True)")
    run = ScenarioRun(topology, config)
    configured_at = run.configure(spec.max_time)
    result = InterdomainResult(
        scenario=spec.name, family=spec.family, seed=spec.seed,
        num_ases=len(set(as_map.values())),
        num_switches=topology.num_nodes, num_links=topology.num_links,
        border_links=len(borders), controllers=spec.controllers,
        configured_seconds=configured_at)
    if configured_at is None:
        result.wall_seconds = run.wall_seconds
        return result

    # -- settle to the interdomain steady state ------------------------------
    sim, framework = run.sim, run.framework
    control_plane = framework.control_plane
    change_times = run.watch_fib()
    result.settled = run.quiesce(change_times, sim.now,
                                 configured_at + MAX_EXTRA_TIME, settle)
    result.converged_seconds = change_times[-1] if change_times else configured_at
    result.steady_flows = run.total("flows_current")
    directed = {"ebgp": 0, "ibgp": 0}
    for vm in control_plane.vms.values():
        if vm.bgp is not None:
            for session in vm.bgp.established_sessions:
                directed["ibgp" if session.is_ibgp else "ebgp"] += 1
    result.ebgp_sessions = directed["ebgp"] // 2
    result.ibgp_sessions = directed["ibgp"] // 2
    proxies = [shard.rfproxy for shard in framework.shards]
    for asn in sorted(set(as_map.values())):
        members = {dpid for dpid, owner in as_map.items() if owner == asn}
        flows = sum(1 for proxy in proxies
                    for (dpid, _prefix) in proxy.installed_flows
                    if dpid in members)
        bgp_fib = external_fib = 0
        for vm_id in members:
            vm = control_plane.vms.get(vm_id)
            if vm is None:
                continue
            bgp_fib += sum(1 for r in vm.zebra.fib_routes
                           if r.source == RouteSource.BGP)
            external_fib += sum(1 for r in vm.zebra.fib_routes
                                if r.tag == EXTERNAL_ROUTE_TAG)
        result.per_as[asn] = {
            "switches": len(members), "flows": flows,
            "bgp_fib_routes": bgp_fib, "external_fib_routes": external_fib,
        }
    result.redistribution_violations = verify_interdomain(control_plane, as_map)

    # -- border flap ---------------------------------------------------------
    if flap and borders:
        link = flap_link if flap_link is not None else borders[0]
        if (min(link), max(link)) not in {(min(b), max(b)) for b in borders}:
            raise ValueError(
                f"{link[0]}:{link[1]} is not an eBGP border link of "
                f"{spec.name} (borders: {borders})")
        vm_a = control_plane.vms[link[0]]
        vm_b = control_plane.vms[link[1]]
        removed_before = run.total("flow_mods_removed")
        run.mirror_failures()
        run.network.schedule_failures(FailureSchedule.single_link_failure(
            link[0], link[1], at=FLAP_LEAD, restore_after=FLAP_DOWN))
        down_at = sim.now + FLAP_LEAD
        up_at = down_at + FLAP_DOWN
        # Down window: run to quiescence before the link is restored.
        del change_times[:]
        sim.run(until=down_at)
        run.quiesce(change_times, down_at,
                    min(up_at, down_at + MAX_EXTRA_TIME), settle)
        down_changes = [t for t in change_times if t >= down_at]
        sessions_dropped = all(state != "Established"
                               for state in _session_states(vm_a, vm_b))
        withdrawn = run.total("flow_mods_removed") - removed_before
        # Restore window.
        del change_times[:]
        sim.run(until=up_at)
        restored = run.quiesce(change_times, up_at, up_at + MAX_EXTRA_TIME,
                               settle)
        restore_changes = [t for t in change_times if t >= up_at]
        result.settled = result.settled and restored
        reestablished = bool(_session_states(vm_a, vm_b)) and all(
            state == "Established" for state in _session_states(vm_a, vm_b))
        result.flap = BorderFlapResult(
            node_a=link[0], node_b=link[1],
            withdrawn_flow_mods=withdrawn,
            sessions_dropped=sessions_dropped,
            down_reconverge_seconds=(down_changes[-1] - down_at)
            if down_changes else 0.0,
            reestablished=reestablished,
            restore_reconverge_seconds=(restore_changes[-1] - up_at)
            if restore_changes else 0.0,
            flows_restored=run.total("flows_current")
            == result.steady_flows,
        )
        result.redistribution_violations.extend(
            violation for violation in verify_interdomain(control_plane, as_map)
            if violation not in result.redistribution_violations)
    result.wall_seconds = run.wall_seconds
    return result


def render_interdomain_table(results: List[InterdomainResult]) -> str:
    """Human-readable report of an interdomain suite."""
    rows = []
    for result in results:
        rows.append([
            result.scenario,
            result.num_ases,
            result.num_switches,
            result.border_links,
            format_seconds(result.configured_seconds),
            format_seconds(result.converged_seconds),
            f"{result.ebgp_sessions}/{result.ibgp_sessions}",
            result.steady_flows,
            "OK" if result.healthy
            else ("n/a" if not result.configured else "VIOLATIONS"),
        ])
    table = format_table(
        ["scenario", "ASes", "switches", "borders", "reachable", "converged",
         "eBGP/iBGP", "flows", "state"], rows)
    as_rows = []
    for result in results:
        for asn, report in sorted(result.per_as.items()):
            as_rows.append([result.scenario, asn, report["switches"],
                            report["flows"], report["bgp_fib_routes"],
                            report["external_fib_routes"]])
    as_table = format_table(
        ["scenario", "AS", "switches", "flows", "BGP FIB routes",
         "external FIB routes"], as_rows)
    notes = []
    for result in results:
        if result.flap is not None:
            flap = result.flap
            notes.append(
                f"{result.scenario}: border {flap.node_a}<->{flap.node_b} flap "
                f"-> sessions {'dropped' if flap.sessions_dropped else 'KEPT'}, "
                f"{flap.withdrawn_flow_mods} OFPFC_DELETEs, reconverged in "
                f"{format_seconds(flap.down_reconverge_seconds)}; restore "
                f"{'re-established' if flap.reestablished else 'FAILED'} in "
                f"{format_seconds(flap.restore_reconverge_seconds)}, flows "
                f"{'restored' if flap.flows_restored else 'NOT restored'}")
        notes.extend(f"  ! {violation}"
                     for violation in result.redistribution_violations)
    report = f"{table}\n\nper-AS breakdown:\n{as_table}"
    if notes:
        report += "\n\n" + "\n".join(notes)
    return report


def write_interdomain_csv(results: List[InterdomainResult],
                          path: PathLike) -> Path:
    """Write an interdomain suite as CSV, one row per AS."""
    return write_csv(path, [
        "scenario", "family", "seed", "ases", "switches", "links",
        "border_links", "controllers", "configured_seconds",
        "converged_seconds", "ebgp_sessions", "ibgp_sessions",
        "steady_flows", "asn", "as_switches", "as_flows",
        "as_bgp_fib_routes", "as_external_fib_routes"], (
        [result.scenario, result.family, result.seed, result.num_ases,
         result.num_switches, result.num_links, result.border_links,
         result.controllers, result.configured_seconds,
         result.converged_seconds, result.ebgp_sessions,
         result.ibgp_sessions, result.steady_flows, asn,
         report["switches"], report["flows"], report["bgp_fib_routes"],
         report["external_fib_routes"]]
        for result in results
        for asn, report in sorted(result.per_as.items())))
