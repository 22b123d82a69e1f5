"""Traffic-engineering experiments: the ``repro te`` subcommand.

A TE run drives the same fluid demand set through a scenario once per
policy — ``none`` (the shortest-path plane untouched, the baseline),
``static-ecmp``, ``greedy``, ``bandit`` — and reports per-policy
delivered throughput, loss, p99 path stretch and re-route counts, so
the utilization-aware policies can be compared against the static plane
under identical offered load, induced bottlenecks and failure schedules.

Two actuation engines (see :mod:`repro.te`):

* ``zebra`` — the scenario converges the full control plane and steers
  ride RIB → FIB → RouteMod → OFPFC_DELETE;
* ``synthetic`` — RouteFlow-shaped flow tables are installed directly
  (:class:`~repro.traffic.SyntheticRoutes`) and steers override them at
  one priority level up, which keeps 256-router/1M-demand runs
  tractable while exercising the same strict delete + add discipline.

``engine="auto"`` (the default) picks ``zebra`` up to 64 switches.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.run import check_non_negative
from repro.experiments.traffic import _horizon, loopback_run
from repro.scenarios import ScenarioSpec, get
from repro.te import (AUTO_ZEBRA_MAX_SWITCHES, POLICY_NAMES,
                      FlowTableActuator, TEController, TESpec, ZebraActuator,
                      adjacency_of, make_policy)
from repro.traffic import DemandSpec, FluidEngine, generate_demands

LOG = logging.getLogger(__name__)

#: Extra simulated seconds past the last demand/failure event.
DEFAULT_SETTLE = 5.0

#: Simulated traffic-phase length when nothing else bounds the run.
DEFAULT_WINDOW = 30.0

#: The default policy sweep: the untouched shortest-path plane first
#: (the baseline every other row's ``delivered_gain`` is relative to),
#: then every TE policy.
DEFAULT_POLICIES = ("none",) + POLICY_NAMES


@dataclass
class TEPolicyResult:
    """The outcome of one scenario run under one TE policy."""

    policy: str
    configured_seconds: Optional[float]
    demands: int = 0
    commodities: int = 0
    delivered_commodities: int = 0
    unrouted_commodities: int = 0
    duration_seconds: float = 0.0
    offered_bits: float = 0.0
    delivered_bits: float = 0.0
    #: Path stretch (resolved hops / shortest possible hops) over the
    #: delivered commodities at the end of the run.
    stretch_mean: float = 1.0
    stretch_p99: float = 1.0
    #: Controller counters (zero under ``none``).
    reroutes: int = 0
    steers: int = 0
    steer_changes: int = 0
    decisions: int = 0
    samples: int = 0
    pruned_steers: int = 0
    #: RouteMod messages observed on the bus (zebra engine only).
    route_mods: int = 0
    wall_seconds: float = 0.0
    #: Delivered-throughput gain over the suite's baseline run (set by
    #: :func:`run_te`; 0.0 for the baseline itself).
    delivered_gain: float = 0.0

    #: Derived values the JSON payload carries (see ``run.to_payload``).
    payload_properties = ("loss_fraction",)

    @property
    def loss_fraction(self) -> float:
        if self.offered_bits <= 0.0:
            return 0.0
        return max(0.0, 1.0 - self.delivered_bits / self.offered_bits)

    @property
    def delivered(self) -> bool:
        """Did every commodity find a path at the end of the run?"""
        return self.commodities > 0 \
            and self.delivered_commodities == self.commodities


@dataclass
class TEResult:
    """A per-policy comparison over one scenario."""

    scenario: str
    family: str
    seed: int
    num_switches: int
    num_links: int
    engine: str
    model: str
    hot_link: Optional[str] = None
    results: List[TEPolicyResult] = field(default_factory=list)

    @property
    def baseline(self) -> Optional[TEPolicyResult]:
        return self.results[0] if self.results else None

    @property
    def healthy(self) -> bool:
        """Every policy run routed every commodity at the end."""
        return bool(self.results) and all(r.delivered for r in self.results)


def _percentile(values: Sequence[float], fraction: float) -> float:
    if not values:
        return 1.0
    ordered = sorted(values)
    index = max(0, min(len(ordered) - 1,
                       int(fraction * len(ordered) + 0.999999) - 1))
    return ordered[index]


def _bfs_hops(adjacency, source: int) -> Dict[int, int]:
    """Hop counts from ``source`` over the adjacency (undirected)."""
    from collections import deque

    hops = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for peer in adjacency.get(node, ()):
            if peer not in hops:
                hops[peer] = hops[node] + 1
                queue.append(peer)
    return hops


def _stretch(engine: FluidEngine, network, owner_of) -> Tuple[float, float]:
    """(mean, p99) path stretch over the delivered commodities."""
    adjacency = adjacency_of(network)
    shortest: Dict[int, Dict[int, int]] = {}
    stretches: List[float] = []
    for (src, dst_int), commodity in engine.commodities.items():
        path = commodity.path
        if path is None or not path.delivered or len(path.dpids) < 2:
            continue
        dst = owner_of(dst_int)
        if dst is None:
            continue
        hops = len(path.dpids) - 1
        if dst not in shortest:
            shortest[dst] = _bfs_hops(adjacency, dst)
        best = shortest[dst].get(src, 0)
        if best > 0:
            stretches.append(hops / best)
    if not stretches:
        return 1.0, 1.0
    return sum(stretches) / len(stretches), _percentile(stretches, 0.99)


def _scale_hot_link(network, te_spec: TESpec) -> Optional[str]:
    """Scale the induced hot link's capacity down; returns its name."""
    pair = te_spec.hot_link_pair()
    if pair is None:
        return None
    node_a, node_b = pair
    port_a, _port_b = network.ports_for_link(node_a, node_b)
    link = network.switches[node_a].port(port_a).interface.link
    link.bandwidth_bps *= te_spec.hot_capacity_scale
    return link.name


def _resolve_engine(te_spec: TESpec, num_switches: int) -> str:
    if te_spec.engine != "auto":
        return te_spec.engine
    return "zebra" if num_switches <= AUTO_ZEBRA_MAX_SWITCHES else "synthetic"


def _run_policy_zebra(spec: ScenarioSpec, te_spec: TESpec, policy_name: str,
                      demand_spec: DemandSpec, settle: float,
                      window: float) -> TEPolicyResult:
    from repro.net.addresses import IPv4Network

    run = loopback_run(spec)
    configured_at = run.configure(spec.max_time)
    result = TEPolicyResult(policy=policy_name,
                            configured_seconds=configured_at)
    if configured_at is None:
        result.wall_seconds = run.wall_seconds
        return result

    framework, network = run.framework, run.network
    addresses = {dpid: run.ipam.router_id(dpid) for dpid in network.switches}

    def count_route_mod(_envelope) -> None:
        result.route_mods += 1

    for shard in framework.shards:
        framework.bus.subscribe(shard.rfserver.route_mods_topic,
                                count_route_mod)

    _drive_policy(
        result, spec, te_spec, demand_spec, settle, window, run.sim, network,
        addresses,
        lambda: ZebraActuator(
            framework.control_plane, network,
            prefix_of=lambda dst: IPv4Network((addresses[dst], 32))),
        run.mirror_failures)
    result.wall_seconds = run.wall_seconds
    return result


def _run_policy_synthetic(spec: ScenarioSpec, te_spec: TESpec,
                          policy_name: str, demand_spec: DemandSpec,
                          settle: float, window: float) -> TEPolicyResult:
    from repro.sim import Simulator
    from repro.topology.emulator import EmulatedNetwork
    from repro.traffic import SyntheticRoutes, service_address

    started = time.perf_counter()
    sim = Simulator()
    network = EmulatedNetwork(sim, spec.build_topology())
    routes = SyntheticRoutes(network)
    routes.install()
    addresses = {dpid: service_address(dpid) for dpid in network.switches}
    result = TEPolicyResult(policy=policy_name, configured_seconds=0.0)

    def on_failures() -> None:
        # No control plane to reconverge: apply the shortest-path diff the
        # RouteMod churn would have produced, like the churn benchmark.
        network.add_failure_listener(lambda _event: routes.reroute())

    _drive_policy(result, spec, te_spec, demand_spec, settle, window, sim,
                  network, addresses, lambda: FlowTableActuator(routes),
                  on_failures)
    result.wall_seconds = time.perf_counter() - started
    return result


def _drive_policy(result: TEPolicyResult, spec: ScenarioSpec,
                  te_spec: TESpec, demand_spec: DemandSpec, settle: float,
                  window: float, sim, network, addresses,
                  make_actuator: Callable[[], object],
                  on_failures: Callable[[], None]) -> None:
    """The run both engines share, once a fixture has routes installed:
    the hot link, the TE loop (unless ``none``), the demands, the failure
    schedule (``on_failures`` hooks the engine's own reaction in first),
    then the measured window."""
    owners = {int(address): dpid for dpid, address in addresses.items()}
    engine = FluidEngine(sim, network, owner_of=owners.get)
    engine.attach()
    _scale_hot_link(network, te_spec)
    controller = None
    if result.policy != "none":
        run_spec = replace(te_spec, policy=result.policy)
        controller = TEController(sim, network, make_actuator(),
                                  spec=run_spec, policy=make_policy(run_spec),
                                  engine=engine, owner_of=owners.get)
        controller.start()

    demand_set = generate_demands(demand_spec, addresses)
    start = sim.now
    result.demands = engine.register(demand_set)
    if spec.failures is not None:
        on_failures()
        network.schedule_failures(spec.failures)
    sim.run(until=start + _horizon(spec, demand_set, window) + settle)
    engine.finalize()
    if controller is not None:
        controller.stop()
    _collect(result, engine, network, owners.get, controller, sim.now - start)


def _collect(result: TEPolicyResult, engine: FluidEngine, network, owner_of,
             controller: Optional[TEController], duration: float) -> None:
    stats = engine.stats()
    result.commodities = int(stats["commodities"])
    result.delivered_commodities = int(stats["delivered_commodities"])
    result.unrouted_commodities = result.commodities \
        - result.delivered_commodities
    result.duration_seconds = duration
    result.offered_bits = stats["offered_bits"]
    result.delivered_bits = stats["delivered_bits"]
    result.stretch_mean, result.stretch_p99 = _stretch(engine, network,
                                                       owner_of)
    if controller is not None:
        te_stats = controller.stats()
        result.reroutes = int(te_stats["reroutes"])
        result.steers = int(te_stats["steers"])
        result.steer_changes = int(te_stats["steer_changes"])
        result.decisions = int(te_stats["decisions"])
        result.samples = int(te_stats["samples"])
        result.pruned_steers = int(te_stats["pruned_steers"])


def run_te(scenario: Union[str, ScenarioSpec],
           policies: Optional[Sequence[str]] = None,
           demands: Optional[DemandSpec] = None,
           te_spec: Optional[TESpec] = None,
           settle: float = DEFAULT_SETTLE,
           window: float = DEFAULT_WINDOW) -> TEResult:
    """Run a scenario once per policy and compare delivered throughput.

    ``policies`` defaults to :data:`DEFAULT_POLICIES`; the first entry is
    the baseline the per-policy ``delivered_gain`` is computed against.
    ``te_spec`` (defaulting to the scenario's own ``te`` knob) supplies
    the measurement interval, candidate-path count, thresholds and the
    induced hot link shared by every run.
    """
    check_non_negative(window=window, settle=settle)
    spec = scenario if isinstance(scenario, ScenarioSpec) else get(scenario)
    effective_te = te_spec if te_spec is not None else spec.te
    if effective_te is None:
        effective_te = TESpec()
    demand_spec = demands if demands is not None else spec.demands
    if demand_spec is None:
        demand_spec = DemandSpec()
    policy_list = list(policies) if policies else list(DEFAULT_POLICIES)
    topology = spec.build_topology()
    engine_mode = _resolve_engine(effective_te, topology.num_nodes)
    runner = _run_policy_zebra if engine_mode == "zebra" \
        else _run_policy_synthetic
    suite = TEResult(scenario=spec.name, family=spec.family, seed=spec.seed,
                     num_switches=topology.num_nodes,
                     num_links=topology.num_links, engine=engine_mode,
                     model=demand_spec.model, hot_link=effective_te.hot_link)
    for policy_name in policy_list:
        result = runner(spec, effective_te, policy_name, demand_spec,
                        settle, window)
        LOG.info("te: %s/%s -> %s delivered, %d reroutes",
                 spec.name, policy_name, f"{result.delivered_bits:.3g}b",
                 result.reroutes)
        suite.results.append(result)
    baseline = suite.baseline
    if baseline is not None and baseline.delivered_bits > 0.0:
        for result in suite.results[1:]:
            result.delivered_gain = (result.delivered_bits
                                     / baseline.delivered_bits) - 1.0
    return suite


def render_te_table(suite: TEResult) -> str:
    """ASCII comparison of the policy runs."""
    from repro.experiments.results import format_bits, format_table

    rows = []
    for result in suite.results:
        if result.configured_seconds is None:
            rows.append([result.policy, "-", "-", "-", "-", "-", "-", "-"])
            continue
        rows.append([
            result.policy,
            f"{result.delivered_commodities}/{result.commodities}",
            format_bits(result.delivered_bits),
            f"{100.0 * result.loss_fraction:.2f}%",
            f"{result.stretch_p99:.2f}",
            result.reroutes,
            result.steers,
            f"{100.0 * result.delivered_gain:+.1f}%",
        ])
    table = format_table(
        ["policy", "routed", "delivered", "loss", "p99 stretch", "reroutes",
         "steers", "vs baseline"], rows)
    header = (f"{suite.scenario}: {suite.num_switches} switches / "
              f"{suite.num_links} links, {suite.model} demands, "
              f"{suite.engine} engine"
              + (f", hot link {suite.hot_link}" if suite.hot_link else ""))
    return header + "\n\n" + table
