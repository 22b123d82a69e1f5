"""Machine-readable hot-path benchmarks (the ``repro bench`` subcommand).

The suite times the simulator's hot paths — the event-heap kernel, OSPF
SPF (cold and warm LSDB caches), the packet codecs and a full 64-router
convergence scenario — and writes the results as JSON so every PR can
record the performance trajectory and CI can fail on regressions.

Raw wall-clock numbers are useless across machines (and even across runs
on throttled CI runners), so every result also carries a *normalized* value:
wall seconds divided by the duration of a fixed pure-Python calibration
loop measured in the same process.  Regression checks compare normalized
values, which cancels out most machine-speed variance while still catching
algorithmic slowdowns.

Determinism doubles as a correctness gate: the convergence benchmark
records the *simulated* configuration time, which must match the baseline
exactly — a drift there means behaviour changed, not just speed.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

BENCH_SCHEMA = 1

#: Iterations of the calibration loop (a fixed, allocation-free workload).
_CALIBRATION_LOOPS = 10_000_000


def calibrate() -> float:
    """Time the fixed calibration workload once."""
    start = time.perf_counter()
    total = 0
    for index in range(_CALIBRATION_LOOPS):
        total += index & 7
    return time.perf_counter() - start


def _best_of(function: Callable[[], Any], repeats: int = 3) -> Tuple[float, Any]:
    """Run ``function`` ``repeats`` times; return (best wall seconds, result)."""
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, result


# ---------------------------------------------------------------------------
# individual benchmarks
# ---------------------------------------------------------------------------
def bench_kernel_event_churn() -> Dict[str, Any]:
    """Schedule and run 200k chained events through a bare simulator."""
    from repro.sim import Simulator

    def run() -> int:
        sim = Simulator()
        count = 200_000

        def tick() -> None:
            if sim.processed_events < count:
                sim.schedule(0.001, tick)

        for _ in range(64):
            sim.schedule(0.001, tick)
        sim.run(max_events=count)
        return sim.processed_events

    wall, processed = _best_of(run)
    return {"wall_seconds": wall, "events": processed}


def bench_kernel_cancel_peek() -> Dict[str, Any]:
    """Heavy cancellation churn with interleaved peek()/pending() calls."""
    from repro.sim import Simulator

    def run() -> int:
        sim = Simulator()
        events = [sim.schedule(float(i % 97) + 1.0, lambda: None)
                  for i in range(50_000)]
        for event in events[::2]:
            event.cancel()
        probes = 0
        for _ in range(5_000):
            sim.peek()
            probes += sim.pending()
        sim.run()
        return probes

    wall, _ = _best_of(run)
    return {"wall_seconds": wall}


def ring_lsdb(count: int):
    from repro.net.addresses import IPv4Address
    from repro.quagga.ospf.lsdb import LSDB
    from repro.quagga.ospf.packets import RouterLink, RouterLSA

    lsdb = LSDB()
    for index in range(count):
        rid = IPv4Address(0x0A000000 + index + 1)
        left = IPv4Address(0x0A000000 + (index - 1) % count + 1)
        right = IPv4Address(0x0A000000 + (index + 1) % count + 1)
        links = [
            RouterLink.point_to_point(left, IPv4Address(0xAC100001 + index * 4), 10),
            RouterLink.point_to_point(right, IPv4Address(0xAC100002 + index * 4), 10),
            RouterLink.stub(IPv4Address(0xC0A80000 + index * 256),
                            IPv4Address("255.255.255.0"), 10),
        ]
        lsdb.install(RouterLSA.originate(router_id=rid, sequence=0x80000001,
                                         links=links))
    return lsdb


def bench_spf_cold_64() -> Dict[str, Any]:
    """SPF with a changed LSDB per run (version-cache misses)."""
    from repro.net.addresses import IPv4Address
    from repro.quagga.ospf.packets import RouterLSA
    from repro.quagga.ospf.spf import compute_routes

    lsdb = ring_lsdb(64)
    root = IPv4Address(0x0A000001)
    sequence = [0x80000002]

    def run() -> int:
        total = 0
        for _ in range(50):
            # Reinstall a fresher LSA so the graph/stub caches must rebuild.
            old = lsdb.router_lsa(root)
            sequence[0] += 1
            lsdb.install(RouterLSA.originate(router_id=root,
                                             sequence=sequence[0],
                                             links=old.links))
            total += len(compute_routes(lsdb, root))
        return total

    wall, routes = _best_of(run)
    return {"wall_seconds": wall, "routes": routes}


def bench_spf_warm_64() -> Dict[str, Any]:
    """Repeated SPF over an unchanged LSDB (version-cache hits)."""
    from repro.net.addresses import IPv4Address
    from repro.quagga.ospf.spf import compute_routes

    lsdb = ring_lsdb(64)
    root = IPv4Address(0x0A000001)

    def run() -> int:
        total = 0
        for _ in range(200):
            total += len(compute_routes(lsdb, root))
        return total

    wall, routes = _best_of(run)
    return {"wall_seconds": wall, "routes": routes}


def bench_frame_decode() -> Dict[str, Any]:
    """Ethernet/IPv4/UDP decode plus flow-field extraction (substrate)."""
    from repro.net import Ethernet, EtherType, IPv4, IPv4Address, MACAddress, UDP
    from repro.net.ipv4 import IPProtocol
    from repro.openflow import PacketFields

    packet = IPv4(src=IPv4Address("10.0.0.1"), dst=IPv4Address("10.0.200.4"),
                  protocol=IPProtocol.UDP, payload=UDP(5004, 5004, b"x" * 64))
    frame = Ethernet(src=MACAddress(1), dst=MACAddress(2),
                     ethertype=EtherType.IPV4, payload=packet).encode()

    def run() -> int:
        total = 0
        for _ in range(20_000):
            decoded = Ethernet.decode(frame)
            fields = PacketFields.from_frame(frame, in_port=1)
            total += decoded.ethertype + fields.tp_dst
        return total

    wall, _ = _best_of(run)
    return {"wall_seconds": wall}


def bench_flow_mod_codec() -> Dict[str, Any]:
    """OpenFlow flow-mod decode/encode round trip (substrate)."""
    from repro.net import IPv4Address
    from repro.openflow import FlowMod, Match, OpenFlowMessage, OutputAction

    message = FlowMod(match=Match.for_destination_prefix(IPv4Address("10.1.0.0"), 16),
                      actions=[OutputAction(3)], priority=1000).encode()

    def run() -> bool:
        out = b""
        for _ in range(10_000):
            out = OpenFlowMessage.decode(message).encode()
        return out == message

    wall, ok = _best_of(run)
    return {"wall_seconds": wall, "roundtrip_ok": bool(ok)}


def bench_convergence_64() -> Dict[str, Any]:
    """The headline scenario: automatic configuration of an 8x8 torus.

    ``sim_seconds`` is deterministic — the regression check requires it to
    match the baseline exactly, proving the optimized code still produces
    the same simulation.
    """
    from repro.experiments.config_time import run_single_configuration
    from repro.topology.generators import torus_topology

    wall, result = _best_of(
        lambda: run_single_configuration(torus_topology(8, 8), max_time=3600.0),
        repeats=2)
    return {"wall_seconds": wall, "sim_seconds": result.auto_seconds,
            "switches": result.num_switches, "links": result.num_links}


def bench_sharded_convergence_16() -> Dict[str, Any]:
    """Sharded control plane: a 16-ring under 2 controller shards.

    Exercises the bus-based coordination path (mapping topic, cross-shard
    next-hop resolution, dpid-filtered FlowVisor slices).  ``sim_seconds``
    is deterministic and gated exactly, like ``convergence_64``; ``flows``
    doubles as the load-conservation gate (it must equal the
    single-controller steady state for this topology).
    """
    from repro.experiments.ctlscale import run_ctlscale
    from repro.scenarios import ScenarioSpec

    spec = ScenarioSpec("bench-ring-16-c2", "ring", {"num_switches": 16},
                        controllers=2)

    def run():
        return run_ctlscale(spec, controller_counts=(2,))[0]

    wall, result = _best_of(run, repeats=2)
    return {"wall_seconds": wall, "sim_seconds": result.configured_seconds,
            "switches": result.num_switches, "links": result.num_links,
            "flows": result.total_flows}


def bench_sharded_churn_16() -> Dict[str, Any]:
    """Controller churn: the 16-ring under 2 shards driven through the
    seeded default churn schedule (a shard failover with standby
    takeover, a live reshard, two link bounces).

    Exercises the takeover machinery end to end — dpid migration,
    FlowVisor slice rehoming, RFClient resync, parked-RouteMod transfer.
    ``flows`` is the zero-flow-loss gate (the final installed-flow count
    must equal the single-controller reference exactly) and
    ``sim_seconds`` pins the reconvergence time after the last scheduled
    event.
    """
    from repro.experiments.ctlscale import run_ctlscale_churn
    from repro.scenarios import ScenarioSpec

    spec = ScenarioSpec("bench-ring-16-c2-churn", "ring",
                        {"num_switches": 16}, controllers=2)

    def run():
        result = run_ctlscale_churn(spec)
        if not result.healthy:
            raise RuntimeError(
                "churn benchmark run unhealthy: "
                + "; ".join(result.invariant_violations
                            + result.ownership_violations
                            + result.orphaned_route_mods)
                or "flow loss or missed settle")
        return result

    wall, result = _best_of(run, repeats=2)
    return {"wall_seconds": wall,
            "sim_seconds": result.reconvergence_seconds,
            "switches": result.num_switches, "links": result.num_links,
            "flows": result.final_flows}


def bench_interdomain_3as() -> Dict[str, Any]:
    """Interdomain convergence: 3 ASes of 4-router rings under eBGP/iBGP.

    Exercises the whole interdomain machinery — eBGP/iBGP establishment,
    OSPF↔BGP redistribution, recursive next-hop resolution — end to end.
    ``sim_seconds`` (time to full interdomain reachability) and ``flows``
    (the steady-state flow count, which the redistribution must reproduce
    exactly) are deterministic and gated exactly.
    """
    from repro.experiments.interdomain import run_interdomain

    def run():
        return run_interdomain("interdomain-3as", flap=False)

    wall, result = _best_of(run, repeats=2)
    return {"wall_seconds": wall, "sim_seconds": result.configured_seconds,
            "switches": result.num_switches, "links": result.num_links,
            "flows": result.steady_flows}


def bench_interdomain_convergence_50as() -> Dict[str, Any]:
    """Interdomain at scale: a 50-AS seeded scale-free graph converges.

    The preferential-attachment AS graph (transit cores, mid-tier
    providers, stub edges under Gao-Rexford policies) is generated from a
    fixed seed, so the topology — and with it ``sim_seconds`` and
    ``flows`` — is deterministic and gated exactly.  Wall time gates the
    incremental BGP hot path: best-path re-evaluation, delta-based
    Adj-RIB-Out batching and the indexed OpenFlow flow tables.
    """
    from repro.experiments.interdomain import run_interdomain

    def run():
        return run_interdomain("interdomain-50as", flap=False)

    wall, result = _best_of(run, repeats=2)
    return {"wall_seconds": wall, "sim_seconds": result.configured_seconds,
            "switches": result.num_switches, "links": result.num_links,
            "flows": result.steady_flows}


def bench_interdomain_churn_100as() -> Dict[str, Any]:
    """Border-link churn on a 100-AS scale-free graph.

    After convergence the highest-degree border link flaps (down 90 s,
    then restored).  The run must verify end to end — both eBGP sessions
    drop, withdrawals reach the switches, the sessions re-establish and
    the exact steady-state flow count returns — or the benchmark raises.
    ``withdrawn_flow_mods`` doubles as the delta-re-advertisement gate: a
    regression to full-table re-announcement changes it immediately.
    """
    from repro.experiments.interdomain import run_interdomain

    def run():
        result = run_interdomain("interdomain-100as", flap=True)
        if not (result.settled and result.flap is not None
                and result.flap.verified):
            raise RuntimeError(
                f"churn benchmark run unhealthy: {result.flap!r}")
        return result

    wall, result = _best_of(run, repeats=2)
    return {"wall_seconds": wall, "sim_seconds": result.configured_seconds,
            "switches": result.num_switches, "links": result.num_links,
            "flows": result.steady_flows,
            "withdrawn_flow_mods": result.flap.withdrawn_flow_mods}


def _torus_fluid_fixture(rows: int = 16, cols: int = 16):
    """A 256-router torus with synthetic RouteFlow-shaped flow tables.

    Returns ``(sim, network, routes, engine, addresses)`` ready for
    demand registration — the shared setup of the fluid-path benchmarks.
    """
    from repro.sim import Simulator
    from repro.topology.emulator import EmulatedNetwork
    from repro.topology.generators import torus_topology
    from repro.traffic import FluidEngine, SyntheticRoutes, service_address

    sim = Simulator()
    network = EmulatedNetwork(sim, torus_topology(rows, cols))
    routes = SyntheticRoutes(network)
    routes.install()
    addresses = {dpid: service_address(dpid) for dpid in network.switches}
    owners = {int(address): dpid for dpid, address in addresses.items()}
    engine = FluidEngine(sim, network, owner_of=owners.get)
    engine.attach()
    return sim, network, routes, engine, addresses


def bench_demand_resolution_1m() -> Dict[str, Any]:
    """Resolve one million concurrent demands on a 256-router torus.

    The timed region registers 1M pre-generated uniform demands and runs
    one full resolution + max-min allocation pass.  The memoized resolver
    collapses the million demands into one table walk per (source,
    destination) commodity, so this gates the fast path's headline claim:
    million-user traffic at flow-table fidelity without a packet pipeline.
    ``demands``/``commodities``/``delivered`` are deterministic and gated
    exactly.
    """
    from repro.traffic import uniform_demands

    _sim, network, _routes, engine, addresses = _torus_fluid_fixture()
    demands = uniform_demands(addresses, 1_000_000, rate_bps=1_000.0, seed=7)

    def run():
        engine.register(demands, schedule=False)
        engine.reallocate()
        return engine.stats()

    wall, stats = _best_of(run, repeats=1)
    return {"wall_seconds": wall,
            "demands": int(stats["demands"]),
            "commodities": int(stats["commodities"]),
            "delivered": int(stats["delivered_commodities"]),
            "switches": len(network.switches)}


def bench_churn_under_load() -> Dict[str, Any]:
    """Route churn under 200k live demands: fail a link, reroute, restore.

    The timed region takes a torus link down, applies the resulting
    shortest-path diff as strict deletes + adds (the OFPFC_DELETE churn a
    reconvergence causes), reallocates, then restores and repeats — the
    fluid engine must re-resolve only the commodities whose walk consulted
    a (switch, destination) pair the reroute rewrote.  ``affected``
    (demands inside re-resolved commodities) is deterministic and gated
    exactly: 24,128, the demands of the 2 x 3,797 commodities routed
    through the 2,614 pairs a bounce of link 1-2 rewrites (310,098 while
    a change dirtied every commodity at its switch).
    """
    from repro.traffic import uniform_demands

    sim, network, routes, engine, addresses = _torus_fluid_fixture()
    demands = uniform_demands(addresses, 200_000, rate_bps=1_000.0, seed=11)
    engine.register(demands, schedule=False)
    engine.reallocate()
    link_a, link_b = 1, 2

    def run():
        affected_before = engine.affected_demands
        network.fail_link(link_a, link_b)
        routes.reroute()
        engine.reallocate()
        network.restore_link(link_a, link_b)
        routes.reroute()
        engine.reallocate()
        return engine.affected_demands - affected_before

    # Each cycle restores the original tables (with bumped versions), so
    # repeats do identical work and best-of squeezes allocator/GC noise.
    wall, affected = _best_of(run, repeats=3)
    return {"wall_seconds": wall,
            "demands": int(engine.stats()["demands"]),
            "affected": int(affected),
            "switches": len(network.switches)}


def bench_te_reroute_torus64() -> Dict[str, Any]:
    """Greedy TE on the 8x8 torus scenario while the 5<->6 link flaps.

    The timed region runs the full measure -> decide -> actuate loop of
    ``repro te`` in synthetic-engine mode: utilization snapshots every
    interval, Yen candidate paths, flow-table steers at one priority
    level up, plus the mid-run link failure that invalidates the path
    cache and prunes dead steers.  ``reroutes``/``steers`` are
    deterministic and gated exactly — a drift means the policy or the
    re-route lifecycle changed behaviour, not just speed.
    """
    from dataclasses import replace as dc_replace

    from repro.experiments.te import DEFAULT_SETTLE, _run_policy_synthetic
    from repro.scenarios import get

    spec = get("te-torus-8x8")
    te_spec = dc_replace(spec.te, engine="synthetic")

    def run():
        result = _run_policy_synthetic(spec, te_spec, "greedy",
                                       spec.demands, DEFAULT_SETTLE, 30.0)
        if not result.delivered:
            raise RuntimeError("TE reroute benchmark run unhealthy")
        return result

    wall, result = _best_of(run, repeats=2)
    return {"wall_seconds": wall,
            "demands": result.demands,
            "delivered": result.delivered_commodities,
            "reroutes": result.reroutes,
            "steers": result.steers}


def bench_te_policy_sweep_1m() -> Dict[str, Any]:
    """Greedy + bandit TE over one million demands on a 256-router torus.

    Each policy gets a fresh fixture with one link scaled to 1% capacity,
    registers 1M uniform demands and runs three measurement intervals —
    every tick reallocates the fluid engine, snapshots 512 links and
    steers aggregates through the flow-table actuator, so this gates the
    cost of the TE loop *at scale*: decision time must track the hot
    aggregates, not the million demands.  ``reroutes``/``steers`` (summed
    over the two policies) are deterministic and gated exactly.
    """
    from repro.te import FlowTableActuator, TEController, TESpec, make_policy
    from repro.traffic import uniform_demands

    def run():
        totals = {"reroutes": 0, "steers": 0}
        stats = {}
        for policy_name in ("greedy", "bandit"):
            sim, network, routes, engine, addresses = _torus_fluid_fixture()
            owners = {int(address): dpid
                      for dpid, address in addresses.items()}
            port_a, _port_b = network.ports_for_link(1, 2)
            link = network.switches[1].port(port_a).interface.link
            link.bandwidth_bps *= 0.01
            te_spec = TESpec(policy=policy_name, engine="synthetic",
                             interval=5.0, threshold=0.3,
                             max_steers_per_tick=16, k_paths=4)
            controller = TEController(sim, network, FlowTableActuator(routes),
                                      spec=te_spec,
                                      policy=make_policy(te_spec),
                                      engine=engine, owner_of=owners.get)
            demands = uniform_demands(addresses, 1_000_000, rate_bps=1_000.0,
                                      seed=7)
            controller.start()
            engine.register(demands, schedule=False)
            engine.reallocate()
            sim.run(until=sim.now + 16.0)
            controller.stop()
            te_stats = controller.stats()
            totals["reroutes"] += int(te_stats["reroutes"])
            totals["steers"] += int(te_stats["steers"])
            stats = engine.stats()
        return totals, stats

    wall, (totals, stats) = _best_of(run, repeats=1)
    return {"wall_seconds": wall,
            "demands": int(stats["demands"]),
            "commodities": int(stats["commodities"]),
            "reroutes": totals["reroutes"],
            "steers": totals["steers"]}


#: name -> (callable, included in --quick runs)
BENCHMARKS: Dict[str, Tuple[Callable[[], Dict[str, Any]], bool]] = {
    "kernel_event_churn": (bench_kernel_event_churn, True),
    "kernel_cancel_peek": (bench_kernel_cancel_peek, True),
    "spf_cold_64": (bench_spf_cold_64, True),
    "spf_warm_64": (bench_spf_warm_64, True),
    "frame_decode": (bench_frame_decode, True),
    "flow_mod_codec": (bench_flow_mod_codec, True),
    "convergence_64": (bench_convergence_64, False),
    "sharded_convergence_16": (bench_sharded_convergence_16, False),
    "sharded_churn_16": (bench_sharded_churn_16, False),
    "interdomain_convergence_3as": (bench_interdomain_3as, False),
    "interdomain_convergence_50as": (bench_interdomain_convergence_50as, False),
    "interdomain_churn_100as": (bench_interdomain_churn_100as, False),
    "demand_resolution_1m": (bench_demand_resolution_1m, False),
    "churn_under_load": (bench_churn_under_load, False),
    "te_reroute_torus64": (bench_te_reroute_torus64, False),
    "te_policy_sweep_1m": (bench_te_policy_sweep_1m, False),
}

#: Keys whose values must match the baseline *exactly* (determinism gate).
EXACT_KEYS = ("sim_seconds", "routes", "events", "switches", "links", "flows",
              "demands", "commodities", "delivered", "affected",
              "withdrawn_flow_mods", "reroutes", "steers")


def run_benchmarks(quick: bool = False,
                   progress: Optional[Callable[[str], None]] = None,
                   name_filter: Optional[str] = None) -> Dict[str, Any]:
    """Run the suite and return the result document.

    Every benchmark is bracketed by its own calibration measurements and
    normalized against their mean — CPU throttling mid-suite (common on CI
    runners) would otherwise skew a single up-front calibration.
    ``name_filter`` is a shell-style glob restricting which cases run.
    """
    from fnmatch import fnmatchcase

    results: Dict[str, Dict[str, Any]] = {}
    calibrations: List[float] = [calibrate()]
    for name, (function, in_quick) in BENCHMARKS.items():
        if quick and not in_quick:
            continue
        if name_filter is not None and not fnmatchcase(name, name_filter):
            continue
        if progress is not None:
            progress(name)
        entry = function()
        calibrations.append(calibrate())
        local_unit = (calibrations[-2] + calibrations[-1]) / 2.0
        entry["normalized"] = entry["wall_seconds"] / local_unit
        results[name] = entry
    return {
        "schema": BENCH_SCHEMA,
        "created_unix": time.time(),
        "calibration_seconds": sum(calibrations) / len(calibrations),
        "benchmarks": results,
    }


def write_bench_json(document: Dict[str, Any], path: Union[str, Path]) -> Path:
    target = Path(path)
    target.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return target


def read_bench_json(path: Union[str, Path]) -> Dict[str, Any]:
    return json.loads(Path(path).read_text())


def check_regressions(current: Dict[str, Any], baseline: Dict[str, Any],
                      tolerance: float = 0.20,
                      only: Optional[Iterable[str]] = None) -> List[str]:
    """Compare two bench documents; return a list of failure descriptions.

    Normalized times may regress by at most ``tolerance`` (fractional).
    Deterministic outputs (:data:`EXACT_KEYS`) must match exactly.
    A benchmark in the baseline that was not measured fails the check,
    unless ``only`` names the subset deliberately run (``--quick``).
    """
    failures: List[str] = []
    base_benches = baseline.get("benchmarks", {})
    if only is not None:
        wanted = set(only)
        base_benches = {name: entry for name, entry in base_benches.items()
                        if name in wanted}
    cur_benches = current.get("benchmarks", {})
    for name, base in base_benches.items():
        entry = cur_benches.get(name)
        if entry is None:
            failures.append(f"{name}: present in baseline but not measured")
            continue
        allowed = base["normalized"] * (1.0 + tolerance)
        if entry["normalized"] > allowed:
            failures.append(
                f"{name}: normalized time {entry['normalized']:.3f} exceeds "
                f"baseline {base['normalized']:.3f} by more than "
                f"{tolerance:.0%} (limit {allowed:.3f})")
        for key in EXACT_KEYS:
            if key in base and entry.get(key) != base[key]:
                failures.append(
                    f"{name}: deterministic output {key!r} changed "
                    f"({base[key]!r} -> {entry.get(key)!r})")
    return failures


def render_bench_table(document: Dict[str, Any]) -> str:
    """Human-readable summary of a bench document."""
    from repro.experiments.results import format_table

    rows = []
    for name, entry in document["benchmarks"].items():
        extra = ", ".join(f"{k}={entry[k]}" for k in EXACT_KEYS if k in entry)
        rows.append([name, f"{entry['wall_seconds']:.3f}",
                     f"{entry['normalized']:.2f}", extra])
    table = format_table(["benchmark", "wall (s)", "normalized", "outputs"], rows)
    return (f"{table}\n\ncalibration: "
            f"{document['calibration_seconds']:.3f}s per unit")
