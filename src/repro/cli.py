"""Command-line interface for the reproduction: ``repro <command>``.

Every subcommand is one entry of :data:`COMMANDS`: its help, its flags, a
``run(args)`` that imports its experiment only when the command runs, and
how its result is printed, exported and judged.  :func:`main` does the
rest in one place.  ``repro --help`` lists the commands, and
``docs/experiments.md`` documents each one: its flags, its output, its
exports and its exit codes.  A new subcommand is one more table entry.

Also reachable as ``python -m repro``.  Host cost is measured by the
performance ledger, ``python3 bench/run.py`` (see ``bench/README.md``);
the exact simulated outputs are pinned by ``tests/test_pinned_outputs.py``
and ``tests/pinned_outputs_full.py``.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.te.spec import POLICY_NAMES
from repro.traffic.demand import DEMAND_MODELS

#: One flag: the option strings and the keyword arguments of
#: ``add_argument``.
Argument = Tuple[Tuple[str, ...], Dict[str, Any]]

#: The ``--policy`` choices of ``repro te``: the shortest-path baseline,
#: then every TE policy (``repro.experiments.te.DEFAULT_POLICIES``).
_TE_POLICIES = ("none",) + POLICY_NAMES


class CommandFailed(Exception):
    """The command ran, but produced nothing to print: the message goes to
    stderr and the exit code is 1."""


@dataclass(frozen=True)
class Command:
    """One subcommand.

    ``run(args)`` returns the command's result, or text to print as it is
    (a listing or a report with nothing to export).  A result is printed by
    ``render``, written by ``--out`` (JSON) and ``--csv`` (``csv``), and
    exits with 1 unless ``healthy``.
    """

    help: str
    arguments: Sequence[Argument]
    run: Callable[[argparse.Namespace], Any]
    render: Optional[Callable[[Any], str]] = None
    csv: Optional[Callable[[Any, str], Path]] = None
    healthy: Callable[[Any], bool] = lambda _result: True


def _arg(*flags: str, **options: Any) -> Argument:
    return flags, options


def _experiment(name: str) -> Callable[..., Any]:
    """``repro.experiments.<name>``, imported when it is first called."""
    def call(*args: Any, **kwargs: Any) -> Any:
        return getattr(importlib.import_module("repro.experiments"),
                       name)(*args, **kwargs)
    return call


# -- flag groups shared by several subcommands ------------------------------

def _scenario(help: str, repeatable: bool = True,
              required: bool = True) -> Argument:
    """The scenario selection, ``--scenario NAME``."""
    options = {"action": "append", "default": None} if repeatable else {}
    return _arg("--scenario", **options, metavar="NAME", required=required,
                help=help)


def _exports(what: str = "results", csv: bool = True,
             csv_note: str = "") -> List[Argument]:
    """``--out FILE`` (JSON) and, with ``csv``, ``--csv FILE``."""
    flags = [_arg("--out", metavar="FILE",
                  help=f"write {what} as JSON to FILE")]
    if csv:
        flags.append(_arg("--csv", metavar="FILE",
                          help=f"write results as CSV to FILE{csv_note}"))
    return flags


def _settle(default: float, meaning: str) -> Argument:
    return _arg("--settle", type=float, default=default,
                help=f"{meaning} (default: {default:g})")


_WINDOW = _arg("--window", type=float, default=30.0,
               help="traffic phase length for open-ended demands "
                    "(default: 30)")


def _demand_overrides(defaults: Tuple[Optional[str], ...],
                      duration: bool = False) -> List[Argument]:
    """The demand overrides of ``traffic`` and ``te``: ``--demands``,
    ``--model``, ``--rate`` and ``--demand-seed``, with the help note of
    each default in that order (None: no note), and with ``duration``
    also ``--duration``."""
    def note(help: str, default: Optional[str]) -> str:
        return f"{help} (default: {default})" if default else help

    demands, model, rate, seed = defaults
    flags = [
        _arg("--demands", type=int, default=None, metavar="N",
             help=note("number of demands", demands)),
        _arg("--model", choices=DEMAND_MODELS, default=None,
             help=note("traffic matrix model", model)),
        _arg("--rate", type=float, default=None, metavar="BPS",
             help=note("offered rate per demand in bits/second", rate))]
    if duration:
        flags.append(_arg("--duration", type=float, default=None,
                          metavar="SECONDS",
                          help="demand lifetime; 0 = whole experiment "
                               "(default: 0)"))
    flags.append(_arg("--demand-seed", type=int, default=None, metavar="N",
                      help=note("seed of the demand generator", seed)))
    return flags


#: The failure-event flags of ``repro failover``: failure action (the flag
#: is ``--link-down`` for ``link_down``) -> (value shape, help).
_FAILURE_FLAGS = {
    "link_down": ("A:B@T", "take the link between switches A and B down "
                           "T seconds after configuration (repeatable)"),
    "link_up": ("A:B@T", "bring the A:B link back up at T (repeatable)"),
    "node_down": ("N@T", "fail-stop switch N at T: all its links drop "
                         "(repeatable)"),
    "node_up": ("N@T", "recover switch N at T (repeatable)"),
}


def _failure_flags() -> List[Argument]:
    return [_arg("--" + action.replace("_", "-"), action="append",
                 default=[], metavar=shape, help=help)
            for action, (shape, help) in _FAILURE_FLAGS.items()]


def _failure_events(args: argparse.Namespace) -> list:
    """The failure events the failure-event flags ask for."""
    from repro.scenarios import FailureEvent

    events = []
    for action, (shape, _help) in _FAILURE_FLAGS.items():
        for value in getattr(args, action):
            try:
                nodes, at = value.split("@")
                if shape == "A:B@T":
                    node_a, node_b = nodes.split(":")
                    event = FailureEvent(float(at), action, int(node_a),
                                         int(node_b))
                else:
                    event = FailureEvent(float(at), action, int(nodes))
            except ValueError as error:
                flag = "--" + action.replace("_", "-")
                raise ValueError(f"bad {flag} value {value!r} (expected "
                                 f"{shape}): {error}") from error
            events.append(event)
    return events


def _demand_override(spec, args: argparse.Namespace):
    """The scenario's demand spec with the given demand options applied
    (None when no option was given: the run uses the scenario's own)."""
    from repro.traffic.demand import DemandSpec

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


# -- what each subcommand runs ----------------------------------------------

def _run_quickstart(args: argparse.Namespace) -> str:
    from repro.core import FrameworkConfig
    from repro.experiments import ScenarioRun, format_table
    from repro.topology.generators import ring_topology

    run = ScenarioRun(ring_topology(args.switches),
                      FrameworkConfig(vm_boot_delay=args.vm_boot_delay,
                                      detect_edge_ports=False))
    configured_at = run.configure(7200.0, settle=5.0)
    if configured_at is None:
        raise CommandFailed(
            "configuration did not complete within the deadline")
    framework = run.framework
    milestones = sorted(framework.milestones.items(), key=lambda item: item[1])
    manual = framework.manual_model.seconds_for(args.switches)
    return "\n\n".join([
        format_table(["milestone", "time (s)"],
                     [[name, f"{when:.1f}"] for name, when in milestones]),
        framework.gui.render_text(),
        framework.rfserver.vm(1).zebra.show_ip_route(),
        f"automatic: {configured_at:.1f} s   "
        f"manual baseline: {manual / 60:.0f} min"])


def _run_manual(args: argparse.Namespace) -> str:
    from repro.core import ManualConfigurationModel
    from repro.experiments import format_table

    model = ManualConfigurationModel()
    breakdown = model.breakdown_for(args.switches)
    table = format_table(
        ["activity", "minutes"],
        [[activity, f"{breakdown[key]:.0f}"] for activity, key in (
            ("create VMs", "vm_creation"),
            ("map interfaces", "interface_mapping"),
            ("write routing configs", "routing_configuration"),
            ("total", "total"))])
    return (f"{table}\n\n{args.switches} switches -> "
            f"{model.hours_for(args.switches):.1f} hours of manual work")


#: ``repro ablation`` choice -> (experiment function, table title).
_ABLATIONS = {
    "split": ("run_controller_split_ablation",
              "A1: separate topology controller + FlowVisor vs single "
              "controller"),
    "vm-latency": ("run_vm_latency_ablation", "A2: per-VM creation latency"),
    "ospf-timers": ("run_ospf_timer_ablation", "A3: OSPF hello interval"),
}


def _run_ablation(args: argparse.Namespace) -> str:
    function, title = _ABLATIONS[args.which]
    return _experiment("render_ablation_table")(
        _experiment(function)(), title)


def _run_sweep(args: argparse.Namespace):
    from repro.experiments import format_table, run_sweep
    from repro.scenarios import all_scenarios, scenario_names

    if args.list_scenarios:
        return format_table(
            ["scenario", "family", "description"],
            [[spec.name, spec.family, spec.description]
             for spec in all_scenarios()])
    if args.run_all:
        names = scenario_names()
    elif args.scenario:
        names = args.scenario
    else:
        raise ValueError("no scenarios selected: pass --scenario NAME "
                         "(repeatable), --all, or --list")
    return run_sweep(names, workers=args.workers,
                     controllers=args.controllers)


def _run_failover(args: argparse.Namespace):
    from repro.experiments import run_failover
    from repro.scenarios import FailureSchedule, get

    specs = [get(name) for name in args.scenario]
    explicit = _failure_events(args)
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
    return results


def _run_ctlscale(args: argparse.Namespace):
    from repro.experiments.ctlscale import (DEFAULT_CONTROLLER_COUNTS,
                                            run_ctlscale, run_ctlscale_churn)

    if not args.churn:
        return run_ctlscale(
            args.scenario,
            controller_counts=args.controllers or DEFAULT_CONTROLLER_COUNTS,
            partitioner=args.partitioner)
    if args.csv:
        raise ValueError("--csv is not supported with --churn (use --out)")
    return run_ctlscale_churn(
        args.scenario,
        controllers=max(args.controllers) if args.controllers else None,
        partitioner=args.partitioner, failovers=args.churn_failovers,
        reshards=args.churn_reshards, link_churn=args.churn_links,
        churn_seed=args.churn_seed, spacing=args.churn_spacing,
        settle=args.settle, bus_drop=args.churn_bus_drop,
        bus_duplicate=args.churn_bus_duplicate,
        bus_reorder=args.churn_bus_reorder, bus_jitter=args.churn_bus_jitter,
        bus_fault_seed=args.churn_bus_seed)


def _render_ctlscale(result) -> str:
    return _experiment("render_ctlscale_table" if isinstance(result, list)
                       else "render_ctlscale_churn")(result)


def _ctlscale_healthy(result) -> bool:
    if not isinstance(result, list):
        return result.healthy
    return (all(r.configured and not r.invariant_violations for r in result)
            and not _experiment("check_load_conservation")(result))


def _run_interdomain(args: argparse.Namespace):
    from repro.experiments import run_interdomain

    flap_link = None
    if args.flap_link is not None:
        try:
            node_a, node_b = args.flap_link.split(":")
            flap_link = (int(node_a), int(node_b))
        except ValueError:
            raise ValueError(f"bad --flap-link value {args.flap_link!r} "
                             f"(expected A:B)") from None
    return [run_interdomain(name, flap=not args.no_flap,
                            flap_link=flap_link, settle=args.settle)
            for name in args.scenario]


def _run_traffic(args: argparse.Namespace):
    from repro.experiments import run_traffic
    from repro.scenarios import get

    specs = [get(name) for name in args.scenario]
    return [run_traffic(spec, demands=_demand_override(spec, args),
                        settle=args.settle, window=args.window)
            for spec in specs]


def _run_te(args: argparse.Namespace):
    from repro.experiments import run_te
    from repro.scenarios import get

    spec = get(args.scenario)
    return run_te(spec, policies=args.policy,
                  demands=_demand_override(spec, args),
                  settle=args.settle, window=args.window)


def _all(attribute: str) -> Callable[[Any], bool]:
    return lambda results: all(getattr(r, attribute) for r in results)


#: Every subcommand, in ``repro --help`` order.
COMMANDS: Dict[str, Command] = {
    "quickstart": Command(
        "auto-configure a ring topology and show the result",
        [_arg("--switches", type=int, default=4,
              help="number of switches in the ring (default: 4)"),
         _arg("--vm-boot-delay", type=float, default=5.0,
              help="per-VM clone/boot latency in seconds")],
        _run_quickstart),
    "fig3": Command(
        "Figure 3: automatic vs manual configuration time sweep",
        [_arg("--sizes", type=int, nargs="+",
              default=[4, 8, 12, 16, 20, 24, 28],
              help="ring sizes to sweep")],
        lambda args: _experiment("run_config_time_sweep")(
            ring_sizes=args.sizes),
        render=_experiment("render_config_time_table")),
    "demo": Command(
        "the paper's demo: video over the 28-node pan-European network", [],
        lambda _args: _experiment("run_demo")(max_time=1800.0),
        render=_experiment("render_demo_report"),
        healthy=lambda result: result.video_started),
    "manual": Command(
        "the manual-configuration cost model",
        [_arg("--switches", type=int, default=28)],
        _run_manual),
    "ablation": Command(
        "design ablations (A1-A3)",
        [_arg("which", choices=list(_ABLATIONS))],
        _run_ablation),
    "sweep": Command(
        "run named scenarios from the registry, optionally in parallel "
        "across processes",
        [_scenario("scenario to run (repeatable); use --list to see the "
                   "catalogue, --all to run every scenario", required=False),
         _arg("--all", action="store_true", dest="run_all",
              help="run every registered scenario"),
         _arg("--list", action="store_true", dest="list_scenarios",
              help="list the registered scenarios and exit"),
         _arg("--workers", type=int, default=1,
              help="worker processes (default: 1 = serial)"),
         _arg("--controllers", type=int, default=None, metavar="N",
              help="override every scenario's controller-shard count for "
                   "this sweep"),
         *_exports()],
        _run_sweep, render=_experiment("render_sweep_table"),
        csv=_experiment("write_sweep_csv"), healthy=_all("configured")),
    "failover": Command(
        "configure a scenario, inject link/node failures and report "
        "reconvergence time and frames lost per failure",
        [_scenario("registry scenario to run (repeatable)"),
         *_failure_flags(),
         _arg("--churn", type=int, default=0, metavar="N",
              help="additionally bounce N random links (seeded)"),
         _arg("--churn-seed", type=int, default=0,
              help="seed of the random churn sequence"),
         _arg("--churn-spacing", type=float, default=60.0,
              help="seconds between random failures (default: 60)"),
         _arg("--churn-recovery", type=float, default=30.0,
              help="seconds a churned link stays down (default: 30)"),
         _settle(15.0, "quiet seconds that count as reconverged"),
         *_exports()],
        _run_failover, render=_experiment("render_failover_table"),
        csv=_experiment("write_failover_csv"), healthy=_all("reconverged")),
    "ctlscale": Command(
        "configure a scenario under several controller-shard counts and "
        "report per-shard load and convergence time",
        [_scenario("registry scenario to scale", repeatable=False),
         _arg("--controllers", type=int, nargs="+", default=None,
              metavar="N",
              help="shard counts to sweep (default: 1 2 4; include 1 to "
                   "enable the conservation check). With --churn, the "
                   "largest count given is used (default: the scenario's "
                   "own count)"),
         _arg("--partitioner", choices=["hash", "contiguous"], default=None,
              help="dpid->shard partitioner (default: the scenario's, i.e. "
                   "hash)"),
         _arg("--churn", action="store_true",
              help="drive the sharded run through controller churn (shard "
                   "failovers with standby takeover, live resharding, link "
                   "churn) and report reconvergence time and flow loss"),
         _arg("--churn-seed", type=int, default=0,
              help="seed of the churn schedule (default: 0)"),
         _arg("--churn-failovers", type=int, default=1,
              help="shard failover/restore cycles (default: 1)"),
         _arg("--churn-reshards", type=int, default=1,
              help="live dpid reshards (default: 1)"),
         _arg("--churn-links", type=int, default=2,
              help="random link bounces interleaved with the controller "
                   "churn (default: 2)"),
         _arg("--churn-spacing", type=float, default=30.0,
              help="seconds between churn events (default: 30)"),
         _settle(15.0, "quiet seconds that count as reconverged after "
                       "churn"),
         _arg("--churn-bus-drop", type=float, default=0.0, metavar="P",
              help="with --churn: drop probability injected on every "
                   "routeflow.*/config.rpc bus topic (enables reliable IPC; "
                   "default: 0)"),
         _arg("--churn-bus-duplicate", type=float, default=0.0, metavar="P",
              help="with --churn: duplication probability on the lossy bus "
                   "topics (default: 0)"),
         _arg("--churn-bus-reorder", type=float, default=0.0, metavar="P",
              help="with --churn: reorder probability on the lossy bus "
                   "topics (default: 0)"),
         _arg("--churn-bus-jitter", type=float, default=0.0,
              metavar="SECONDS",
              help="with --churn: max uniform delivery jitter on the lossy "
                   "bus topics (default: 0)"),
         _arg("--churn-bus-seed", type=int, default=None, metavar="N",
              help="seed of the bus fault streams (default: --churn-seed)"),
         *_exports(csv_note=" (sweep mode only)")],
        _run_ctlscale, render=_render_ctlscale,
        csv=_experiment("write_ctlscale_csv"), healthy=_ctlscale_healthy),
    "interdomain": Command(
        "configure a multi-AS BGP scenario, verify redistribution, and flap "
        "an eBGP border link",
        [_scenario("interdomain registry scenario to run (repeatable); see "
                   "'repro sweep --list'"),
         _arg("--no-flap", action="store_true",
              help="skip the border-link flap phase (pure convergence "
                   "measurement)"),
         _arg("--flap-link", metavar="A:B", default=None,
              help="border link to flap (default: the first inter-AS link "
                   "of the topology)"),
         _settle(20.0, "quiet seconds that count as converged"),
         *_exports()],
        _run_interdomain, render=_experiment("render_interdomain_table"),
        csv=_experiment("write_interdomain_csv"), healthy=_all("healthy")),
    "traffic": Command(
        "configure a scenario and run a seeded demand set through the fluid "
        "fast path; reports delivered throughput, loss and per-link "
        "utilization",
        [_scenario("registry scenario to run (repeatable)"),
         *_demand_overrides(("the scenario's demand spec, or 100", "uniform",
                             "1e6", "0"), duration=True),
         _WINDOW,
         _settle(5.0, "extra seconds past the last demand/failure event"),
         *_exports(csv=False)],
        _run_traffic, render=_experiment("render_traffic_table"),
        healthy=_all("configured")),
    "te": Command(
        "run a scenario once per traffic-engineering policy and compare "
        "delivered throughput against the shortest-path baseline",
        [_scenario("registry scenario to run (its te/demands specs supply "
                   "the defaults)", repeatable=False),
         _arg("--policy", action="append", default=None,
              choices=_TE_POLICIES, metavar="NAME",
              help="policy to run (repeatable; first is the baseline; "
                   "choices: " + ", ".join(_TE_POLICIES) + "; default: all)"),
         *_demand_overrides(("the scenario's demand spec", "the scenario's",
                             None, None)),
         _WINDOW,
         _settle(5.0, "extra seconds past the last demand/failure event"),
         *_exports("the comparison", csv=False)],
        _run_te, render=_experiment("render_te_table"),
        healthy=lambda suite: suite.healthy),
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser from :data:`COMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Automatic Configuration of Routing "
                    "Control Platforms in OpenFlow Networks' (SIGCOMM 2013)")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        subparser = subparsers.add_parser(name, help=command.help)
        for flags, options in command.arguments:
            subparser.add_argument(*flags, **options)
    return parser


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


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    0 when the command succeeded; 1 when it ran but its result is not
    healthy (a run that did not configure, reconverge or stay consistent);
    2 on bad input.  Export paths are checked before any experiment runs,
    and a bad scenario, topology, schedule or value ends the command with
    ``error: ...`` on stderr.
    """
    args = build_parser().parse_args(argv)
    out, csv = getattr(args, "out", None), getattr(args, "csv", None)
    export_error = _validate_export_paths(out, csv)
    if export_error is not None:
        print(export_error, file=sys.stderr)
        return 2
    command = COMMANDS[args.command]
    try:
        result = command.run(args)
        if isinstance(result, str):
            print(result)
            return 0
        print(command.render(result))
        if out:
            print(f"wrote {_experiment('write_json')(result, out)}")
        if csv:
            print(f"wrote {command.csv(result, csv)}")
        return 0 if command.healthy(result) else 1
    except CommandFailed as failure:
        print(failure, file=sys.stderr)
        return 1
    except ValueError as error:  # scenario, topology and schedule errors too
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
