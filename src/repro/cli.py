"""Command-line interface for the reproduction.

Exposes the experiments as subcommands so the paper's figures can be
regenerated without writing any Python:

* ``repro quickstart [--switches N]`` — auto-configure a ring and show the
  milestones, GUI and one routing table.
* ``repro fig3 [--sizes 4 8 ...]`` — the Figure 3 configuration-time sweep.
* ``repro demo`` — the §3 pan-European video demonstration.
* ``repro manual [--switches N]`` — the manual-configuration cost model.
* ``repro ablation {split,vm-latency,ospf-timers}`` — the design ablations.
* ``repro sweep --scenario NAME [--workers N] [--out FILE]`` — run named
  scenarios from the registry in parallel and export the results.
* ``repro failover --scenario NAME [--link-down A:B@T ...] [--churn N]`` —
  inject a failure schedule after configuration and report reconvergence
  time and frames lost per failure.
* ``repro ctlscale --scenario NAME [--controllers 1 2 4]`` — configure the
  scenario under several controller-shard counts and report per-shard
  control-plane load, convergence time and the load-conservation check.
* ``repro interdomain --scenario NAME [--no-flap] [--flap-link A:B]`` —
  configure a multi-AS BGP scenario, verify redistribution and AS-path
  sanity, and flap an eBGP border link to exercise the withdrawal and
  re-advertisement lifecycle.
* ``repro traffic --scenario NAME [--demands N] [--model uniform|gravity]``
  — run a seeded demand set through the fluid fast path and report
  delivered throughput, loss and per-link utilization.
* ``repro te --scenario NAME [--policy none|static-ecmp|greedy|bandit]`` —
  run the same demand set once per traffic-engineering policy and compare
  delivered throughput, loss, path stretch and re-route counts against
  the shortest-path baseline.

Also reachable as ``python -m repro``.  Host cost is measured by the
performance ledger, ``python3 bench/run.py`` (see ``bench/README.md``);
the exact simulated outputs are pinned by ``tests/test_pinned_outputs.py``
and ``tests/pinned_outputs_full.py``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.core import FrameworkConfig, ManualConfigurationModel
from repro.experiments import (
    ScenarioRun,
    check_load_conservation,
    format_table,
    render_ctlscale_churn,
    render_ctlscale_table,
    run_ctlscale,
    run_ctlscale_churn,
    write_ctlscale_csv,
    render_ablation_table,
    render_config_time_table,
    render_demo_report,
    render_failover_table,
    render_interdomain_table,
    render_sweep_table,
    render_te_table,
    render_traffic_table,
    run_config_time_sweep,
    run_controller_split_ablation,
    run_demo,
    run_failover,
    run_interdomain,
    run_ospf_timer_ablation,
    run_sweep,
    run_te,
    run_traffic,
    run_vm_latency_ablation,
    write_failover_csv,
    write_interdomain_csv,
    write_json,
    write_sweep_csv,
)
from repro.experiments.ctlscale import DEFAULT_CONTROLLER_COUNTS
from repro.experiments.te import DEFAULT_POLICIES
from repro.traffic import DEMAND_MODELS, DemandSpec
from repro.scenarios import (
    FailureAction,
    FailureEvent,
    FailureSchedule,
    FailureScheduleError,
    ScenarioError,
    ScenarioSpec,
    all_scenarios,
    get as get_scenario,
    scenario_names,
)
from repro.topology.graph import TopologyError
from repro.topology.generators import ring_topology


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Automatic Configuration of Routing "
                    "Control Platforms in OpenFlow Networks' (SIGCOMM 2013)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    quickstart = subparsers.add_parser(
        "quickstart", help="auto-configure a ring topology and show the result")
    quickstart.add_argument("--switches", type=int, default=4,
                            help="number of switches in the ring (default: 4)")
    quickstart.add_argument("--vm-boot-delay", type=float, default=5.0,
                            help="per-VM clone/boot latency in seconds")

    fig3 = subparsers.add_parser(
        "fig3", help="Figure 3: automatic vs manual configuration time sweep")
    fig3.add_argument("--sizes", type=int, nargs="+",
                      default=[4, 8, 12, 16, 20, 24, 28],
                      help="ring sizes to sweep")

    subparsers.add_parser(
        "demo", help="the paper's demo: video over the 28-node pan-European network")

    manual = subparsers.add_parser(
        "manual", help="the manual-configuration cost model")
    manual.add_argument("--switches", type=int, default=28)

    ablation = subparsers.add_parser(
        "ablation", help="design ablations (A1-A3)")
    ablation.add_argument("which", choices=["split", "vm-latency", "ospf-timers"])

    sweep = subparsers.add_parser(
        "sweep", help="run named scenarios from the registry, optionally in "
                      "parallel across processes")
    sweep.add_argument("--scenario", action="append", default=None,
                       metavar="NAME",
                       help="scenario to run (repeatable); use --list to see "
                            "the catalogue, --all to run every scenario")
    sweep.add_argument("--all", action="store_true", dest="run_all",
                       help="run every registered scenario")
    sweep.add_argument("--list", action="store_true", dest="list_scenarios",
                       help="list the registered scenarios and exit")
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes (default: 1 = serial)")
    sweep.add_argument("--controllers", type=int, default=None, metavar="N",
                       help="override every scenario's controller-shard "
                            "count for this sweep")
    sweep.add_argument("--out", metavar="FILE",
                       help="write results as JSON to FILE")
    sweep.add_argument("--csv", metavar="FILE",
                       help="write results as CSV to FILE")

    failover = subparsers.add_parser(
        "failover", help="configure a scenario, inject link/node failures "
                         "and report reconvergence time and frames lost per "
                         "failure")
    failover.add_argument("--scenario", action="append", default=None,
                          metavar="NAME", required=True,
                          help="registry scenario to run (repeatable)")
    failover.add_argument("--link-down", action="append", default=[],
                          metavar="A:B@T",
                          help="take the link between switches A and B down "
                               "T seconds after configuration (repeatable)")
    failover.add_argument("--link-up", action="append", default=[],
                          metavar="A:B@T",
                          help="bring the A:B link back up at T (repeatable)")
    failover.add_argument("--node-down", action="append", default=[],
                          metavar="N@T",
                          help="fail-stop switch N at T: all its links drop "
                               "(repeatable)")
    failover.add_argument("--node-up", action="append", default=[],
                          metavar="N@T",
                          help="recover switch N at T (repeatable)")
    failover.add_argument("--churn", type=int, default=0, metavar="N",
                          help="additionally bounce N random links (seeded)")
    failover.add_argument("--churn-seed", type=int, default=0,
                          help="seed of the random churn sequence")
    failover.add_argument("--churn-spacing", type=float, default=60.0,
                          help="seconds between random failures (default: 60)")
    failover.add_argument("--churn-recovery", type=float, default=30.0,
                          help="seconds a churned link stays down (default: 30)")
    failover.add_argument("--settle", type=float, default=15.0,
                          help="quiet seconds that count as reconverged "
                               "(default: 15)")
    failover.add_argument("--out", metavar="FILE",
                          help="write results as JSON to FILE")
    failover.add_argument("--csv", metavar="FILE",
                          help="write results as CSV to FILE")

    ctlscale = subparsers.add_parser(
        "ctlscale", help="configure a scenario under several controller-shard "
                         "counts and report per-shard load and convergence "
                         "time")
    ctlscale.add_argument("--scenario", metavar="NAME", required=True,
                          help="registry scenario to scale")
    ctlscale.add_argument("--controllers", type=int, nargs="+",
                          default=None, metavar="N",
                          help="shard counts to sweep (default: 1 2 4; "
                               "include 1 to enable the conservation check). "
                               "With --churn, the largest count given is "
                               "used (default: the scenario's own count)")
    ctlscale.add_argument("--partitioner", choices=["hash", "contiguous"],
                          default=None,
                          help="dpid->shard partitioner (default: the "
                               "scenario's, i.e. hash)")
    ctlscale.add_argument("--churn", action="store_true",
                          help="drive the sharded run through controller "
                               "churn (shard failovers with standby "
                               "takeover, live resharding, link churn) and "
                               "report reconvergence time and flow loss")
    ctlscale.add_argument("--churn-seed", type=int, default=0,
                          help="seed of the churn schedule (default: 0)")
    ctlscale.add_argument("--churn-failovers", type=int, default=1,
                          help="shard failover/restore cycles (default: 1)")
    ctlscale.add_argument("--churn-reshards", type=int, default=1,
                          help="live dpid reshards (default: 1)")
    ctlscale.add_argument("--churn-links", type=int, default=2,
                          help="random link bounces interleaved with the "
                               "controller churn (default: 2)")
    ctlscale.add_argument("--churn-spacing", type=float, default=30.0,
                          help="seconds between churn events (default: 30)")
    ctlscale.add_argument("--settle", type=float, default=15.0,
                          help="quiet seconds that count as reconverged "
                               "after churn (default: 15)")
    ctlscale.add_argument("--churn-bus-drop", type=float, default=0.0,
                          metavar="P",
                          help="with --churn: drop probability injected on "
                               "every routeflow.*/config.rpc bus topic "
                               "(enables reliable IPC; default: 0)")
    ctlscale.add_argument("--churn-bus-duplicate", type=float, default=0.0,
                          metavar="P",
                          help="with --churn: duplication probability on the "
                               "lossy bus topics (default: 0)")
    ctlscale.add_argument("--churn-bus-reorder", type=float, default=0.0,
                          metavar="P",
                          help="with --churn: reorder probability on the "
                               "lossy bus topics (default: 0)")
    ctlscale.add_argument("--churn-bus-jitter", type=float, default=0.0,
                          metavar="SECONDS",
                          help="with --churn: max uniform delivery jitter on "
                               "the lossy bus topics (default: 0)")
    ctlscale.add_argument("--churn-bus-seed", type=int, default=None,
                          metavar="N",
                          help="seed of the bus fault streams (default: "
                               "--churn-seed)")
    ctlscale.add_argument("--out", metavar="FILE",
                          help="write results as JSON to FILE")
    ctlscale.add_argument("--csv", metavar="FILE",
                          help="write results as CSV to FILE (sweep mode "
                               "only)")

    interdomain = subparsers.add_parser(
        "interdomain", help="configure a multi-AS BGP scenario, verify "
                            "redistribution, and flap an eBGP border link")
    interdomain.add_argument("--scenario", action="append", default=None,
                             metavar="NAME", required=True,
                             help="interdomain registry scenario to run "
                                  "(repeatable); see 'repro sweep --list'")
    interdomain.add_argument("--no-flap", action="store_true",
                             help="skip the border-link flap phase (pure "
                                  "convergence measurement)")
    interdomain.add_argument("--flap-link", metavar="A:B", default=None,
                             help="border link to flap (default: the first "
                                  "inter-AS link of the topology)")
    interdomain.add_argument("--settle", type=float, default=20.0,
                             help="quiet seconds that count as converged "
                                  "(default: 20)")
    interdomain.add_argument("--out", metavar="FILE",
                             help="write results as JSON to FILE")
    interdomain.add_argument("--csv", metavar="FILE",
                             help="write results as CSV to FILE")

    traffic = subparsers.add_parser(
        "traffic", help="configure a scenario and run a seeded demand set "
                        "through the fluid fast path; reports delivered "
                        "throughput, loss and per-link utilization")
    traffic.add_argument("--scenario", action="append", default=None,
                         metavar="NAME", required=True,
                         help="registry scenario to run (repeatable)")
    traffic.add_argument("--demands", type=int, default=None, metavar="N",
                         help="number of demands (default: the scenario's "
                              "demand spec, or 100)")
    traffic.add_argument("--model", choices=list(DEMAND_MODELS), default=None,
                         help="traffic matrix model (default: uniform)")
    traffic.add_argument("--rate", type=float, default=None, metavar="BPS",
                         help="offered rate per demand in bits/second "
                              "(default: 1e6)")
    traffic.add_argument("--duration", type=float, default=None,
                         metavar="SECONDS",
                         help="demand lifetime; 0 = whole experiment "
                              "(default: 0)")
    traffic.add_argument("--demand-seed", type=int, default=None, metavar="N",
                         help="seed of the demand generator (default: 0)")
    traffic.add_argument("--window", type=float, default=30.0,
                         help="traffic phase length for open-ended demands "
                              "(default: 30)")
    traffic.add_argument("--settle", type=float, default=5.0,
                         help="extra seconds past the last demand/failure "
                              "event (default: 5)")
    traffic.add_argument("--out", metavar="FILE",
                         help="write results as JSON to FILE")

    te = subparsers.add_parser(
        "te", help="run a scenario once per traffic-engineering policy and "
                   "compare delivered throughput against the shortest-path "
                   "baseline")
    te.add_argument("--scenario", metavar="NAME", required=True,
                    help="registry scenario to run (its te/demands specs "
                         "supply the defaults)")
    te.add_argument("--policy", action="append", default=None,
                    choices=list(DEFAULT_POLICIES), metavar="NAME",
                    help="policy to run (repeatable; first is the baseline; "
                         "choices: " + ", ".join(DEFAULT_POLICIES)
                         + "; default: all)")
    te.add_argument("--demands", type=int, default=None, metavar="N",
                    help="number of demands (default: the scenario's "
                         "demand spec)")
    te.add_argument("--model", choices=list(DEMAND_MODELS), default=None,
                    help="traffic matrix model (default: the scenario's)")
    te.add_argument("--rate", type=float, default=None, metavar="BPS",
                    help="offered rate per demand in bits/second")
    te.add_argument("--demand-seed", type=int, default=None, metavar="N",
                    help="seed of the demand generator")
    te.add_argument("--window", type=float, default=30.0,
                    help="traffic phase length for open-ended demands "
                         "(default: 30)")
    te.add_argument("--settle", type=float, default=5.0,
                    help="extra seconds past the last demand/failure event "
                         "(default: 5)")
    te.add_argument("--out", metavar="FILE",
                    help="write the comparison as JSON to FILE")

    return parser


def _command_quickstart(args: argparse.Namespace) -> int:
    run = ScenarioRun(ring_topology(args.switches),
                      FrameworkConfig(vm_boot_delay=args.vm_boot_delay,
                                      detect_edge_ports=False))
    configured_at = run.configure(7200.0, settle=5.0)
    framework = run.framework
    if configured_at is None:
        print("configuration did not complete within the deadline", file=sys.stderr)
        return 1
    print(format_table(["milestone", "time (s)"],
                       [[name, f"{when:.1f}"]
                        for name, when in sorted(framework.milestones.items(),
                                                 key=lambda item: item[1])]))
    print()
    print(framework.gui.render_text())
    print()
    print(framework.rfserver.vm(1).zebra.show_ip_route())
    print()
    manual = framework.manual_model.seconds_for(args.switches)
    print(f"automatic: {configured_at:.1f} s   manual baseline: {manual / 60:.0f} min")
    return 0


def _command_fig3(args: argparse.Namespace) -> int:
    results = run_config_time_sweep(ring_sizes=args.sizes)
    print(render_config_time_table(results))
    return 0


def _command_demo(_args: argparse.Namespace) -> int:
    result = run_demo(max_time=1800.0)
    print(render_demo_report(result))
    return 0 if result.video_started else 1


def _command_manual(args: argparse.Namespace) -> int:
    model = ManualConfigurationModel()
    breakdown = model.breakdown_for(args.switches)
    print(format_table(
        ["activity", "minutes"],
        [["create VMs", f"{breakdown['vm_creation']:.0f}"],
         ["map interfaces", f"{breakdown['interface_mapping']:.0f}"],
         ["write routing configs", f"{breakdown['routing_configuration']:.0f}"],
         ["total", f"{breakdown['total']:.0f}"]]))
    print(f"\n{args.switches} switches -> {model.hours_for(args.switches):.1f} hours of manual work")
    return 0


def _command_ablation(args: argparse.Namespace) -> int:
    if args.which == "split":
        results = run_controller_split_ablation()
        title = "A1: separate topology controller + FlowVisor vs single controller"
    elif args.which == "vm-latency":
        results = run_vm_latency_ablation()
        title = "A2: per-VM creation latency"
    else:
        results = run_ospf_timer_ablation()
        title = "A3: OSPF hello interval"
    print(render_ablation_table(results, title))
    return 0


def _validate_export_paths(*targets: Optional[str]) -> Optional[str]:
    """Catch a bad export path before an experiment runs, not after.

    Returns an error message, or None when every target is writable.
    """
    for target in targets:
        if not target:
            continue
        path = Path(target)
        if path.is_dir():
            return f"error: {target!r} is a directory"
        parent = path.resolve().parent
        if not parent.is_dir():
            return f"error: directory of {target!r} does not exist"
        if not os.access(parent, os.W_OK) or (
                path.exists() and not os.access(path, os.W_OK)):
            return f"error: {target!r} is not writable"
    return None


def _command_sweep(args: argparse.Namespace) -> int:
    if args.list_scenarios:
        print(format_table(
            ["scenario", "family", "description"],
            [[spec.name, spec.family, spec.description]
             for spec in all_scenarios()]))
        return 0
    if args.run_all:
        names = scenario_names()
    elif args.scenario:
        names = args.scenario
    else:
        raise ValueError("no scenarios selected: pass --scenario NAME "
                         "(repeatable), --all, or --list")
    results = run_sweep(names, workers=args.workers,
                        controllers=args.controllers)
    print(render_sweep_table(results))
    if args.out:
        print(f"wrote {write_json(results, args.out)}")
    if args.csv:
        print(f"wrote {write_sweep_csv(results, args.csv)}")
    return 0 if all(r.configured for r in results) else 1


def _parse_failure_events(args: argparse.Namespace) -> List[FailureEvent]:
    """Translate the --link-down/--link-up/--node-down/--node-up options."""
    events: List[FailureEvent] = []
    link_options = [(args.link_down, FailureAction.LINK_DOWN),
                    (args.link_up, FailureAction.LINK_UP)]
    for values, action in link_options:
        for value in values:
            try:
                pair, at = value.split("@")
                node_a, node_b = pair.split(":")
                events.append(FailureEvent(float(at), action,
                                           int(node_a), int(node_b)))
            except (ValueError, FailureScheduleError) as error:
                raise ValueError(
                    f"bad --{action.replace('_', '-')} value {value!r} "
                    f"(expected A:B@T): {error}") from error
    node_options = [(args.node_down, FailureAction.NODE_DOWN),
                    (args.node_up, FailureAction.NODE_UP)]
    for values, action in node_options:
        for value in values:
            try:
                node, at = value.split("@")
                events.append(FailureEvent(float(at), action, int(node)))
            except (ValueError, FailureScheduleError) as error:
                raise ValueError(
                    f"bad --{action.replace('_', '-')} value {value!r} "
                    f"(expected N@T): {error}") from error
    return events


def _command_failover(args: argparse.Namespace) -> int:
    specs = [get_scenario(name) for name in args.scenario]
    explicit = _parse_failure_events(args)
    results = []
    for spec in specs:
        # CLI events and churn are *added on top of* whatever schedule is
        # registered on the scenario itself; run_failover generates the
        # churn against the topology it actually runs.
        events = list(spec.failures.events if spec.failures else ())
        events.extend(explicit)
        if not events and not args.churn:
            raise ValueError(f"scenario {spec.name!r} carries no failure "
                             f"schedule; pass --link-down/--node-down/--churn")
        results.append(run_failover(
            spec, schedule=FailureSchedule(tuple(events)) if events else None,
            settle=args.settle, churn=args.churn, churn_seed=args.churn_seed,
            churn_spacing=args.churn_spacing,
            churn_recovery=args.churn_recovery))
    print(render_failover_table(results))
    if args.out:
        print(f"wrote {write_json(results, args.out)}")
    if args.csv:
        print(f"wrote {write_failover_csv(results, args.csv)}")
    return 0 if all(r.reconverged for r in results) else 1


def _command_ctlscale(args: argparse.Namespace) -> int:
    if args.churn:
        return _command_ctlscale_churn(args)
    counts = args.controllers or list(DEFAULT_CONTROLLER_COUNTS)
    results = run_ctlscale(get_scenario(args.scenario),
                           controller_counts=counts,
                           partitioner=args.partitioner)
    print(render_ctlscale_table(results))
    if args.out:
        print(f"wrote {write_json(results, args.out)}")
    if args.csv:
        print(f"wrote {write_ctlscale_csv(results, args.csv)}")
    healthy = all(r.configured and not r.invariant_violations for r in results)
    conserved = not check_load_conservation(results)
    return 0 if healthy and conserved else 1


def _command_ctlscale_churn(args: argparse.Namespace) -> int:
    if args.csv:
        raise ValueError("--csv is not supported with --churn (use --out)")
    result = run_ctlscale_churn(
        get_scenario(args.scenario),
        controllers=max(args.controllers) if args.controllers else None,
        partitioner=args.partitioner,
        failovers=args.churn_failovers,
        reshards=args.churn_reshards,
        link_churn=args.churn_links,
        churn_seed=args.churn_seed,
        spacing=args.churn_spacing,
        settle=args.settle,
        bus_drop=args.churn_bus_drop,
        bus_duplicate=args.churn_bus_duplicate,
        bus_reorder=args.churn_bus_reorder,
        bus_jitter=args.churn_bus_jitter,
        bus_fault_seed=args.churn_bus_seed,
    )
    print(render_ctlscale_churn(result))
    if args.out:
        print(f"wrote {write_json(result, args.out)}")
    return 0 if result.healthy else 1


def _command_interdomain(args: argparse.Namespace) -> int:
    flap_link = None
    if args.flap_link is not None:
        try:
            node_a, node_b = args.flap_link.split(":")
            flap_link = (int(node_a), int(node_b))
        except ValueError:
            raise ValueError(f"bad --flap-link value {args.flap_link!r} "
                             f"(expected A:B)") from None
    results = [run_interdomain(name, flap=not args.no_flap,
                               flap_link=flap_link, settle=args.settle)
               for name in args.scenario]
    print(render_interdomain_table(results))
    if args.out:
        print(f"wrote {write_json(results, args.out)}")
    if args.csv:
        print(f"wrote {write_interdomain_csv(results, args.csv)}")
    return 0 if all(r.healthy for r in results) else 1


def _demand_override(spec: ScenarioSpec,
                     args: argparse.Namespace) -> Optional[DemandSpec]:
    """The scenario's demand spec with the given demand options applied
    (None when no option was given: the run uses the scenario's own)."""
    overrides = {"count": args.demands, "model": args.model,
                 "rate_bps": args.rate,
                 "duration": getattr(args, "duration", None),
                 "seed": args.demand_seed}
    overrides = {key: value for key, value in overrides.items()
                 if value is not None}
    if not overrides:
        return None
    base = spec.demands if spec.demands is not None else DemandSpec()
    return DemandSpec(**{**base.to_dict(), **overrides})


def _command_traffic(args: argparse.Namespace) -> int:
    specs = [get_scenario(name) for name in args.scenario]
    results = [run_traffic(spec, demands=_demand_override(spec, args),
                           settle=args.settle, window=args.window)
               for spec in specs]
    print(render_traffic_table(results))
    if args.out:
        print(f"wrote {write_json(results, args.out)}")
    return 0 if all(r.configured for r in results) else 1


def _command_te(args: argparse.Namespace) -> int:
    spec = get_scenario(args.scenario)
    suite = run_te(spec, policies=args.policy,
                   demands=_demand_override(spec, args),
                   settle=args.settle, window=args.window)
    print(render_te_table(suite))
    if args.out:
        print(f"wrote {write_json(suite, args.out)}")
    return 0 if suite.healthy else 1


_COMMANDS = {
    "quickstart": _command_quickstart,
    "fig3": _command_fig3,
    "demo": _command_demo,
    "manual": _command_manual,
    "ablation": _command_ablation,
    "sweep": _command_sweep,
    "failover": _command_failover,
    "ctlscale": _command_ctlscale,
    "interdomain": _command_interdomain,
    "traffic": _command_traffic,
    "te": _command_te,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Export paths are checked before any experiment runs, and a bad
    scenario, topology, schedule or value ends the command with
    ``error: ...`` on stderr and exit code 2.
    """
    args = build_parser().parse_args(argv)
    export_error = _validate_export_paths(getattr(args, "out", None),
                                          getattr(args, "csv", None))
    if export_error is not None:
        print(export_error, file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except (ScenarioError, TopologyError, FailureScheduleError,
            ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
