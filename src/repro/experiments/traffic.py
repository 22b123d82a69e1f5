"""Aggregate-traffic experiments: the ``repro traffic`` subcommand.

A traffic run configures a registry scenario exactly like a sweep run,
then drives a seeded demand set (:class:`~repro.traffic.DemandSpec`)
through the fluid fast path: every demand is resolved once against the
installed flow tables and advanced analytically, recomputed only at
events.  The run reports delivered vs. offered throughput, the loss
fraction, the incremental re-resolution counters and the hottest links
by utilization (busy-time integral and peak rate, from the interface
accounting the packet path shares).

Demands target the routers' loopback addresses, so the framework is run
with :attr:`FrameworkConfig.advertise_loopbacks` forced on — each
router-id /32 is announced into OSPF and RouteFlow installs a flow for
it on every other switch, giving the resolver a routable per-router
destination (the owner itself has no flow, exactly like the packet
pipeline, where the final hop's miss punts to the controller).

When the scenario carries a failure schedule, the physical events are
mirrored into the RouteFlow virtual topology like ``repro failover``
does, so demand paths are invalidated by the *actual* RouteMod /
OFPFC_DELETE churn of the reconvergence, not by harness fiat.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Union

from repro.experiments.results import (format_bits, format_seconds,
                                       format_table)
from repro.experiments.run import ScenarioRun, check_non_negative
from repro.scenarios import ScenarioSpec, get
from repro.traffic import DemandSet, DemandSpec, FluidEngine, generate_demands

#: Extra simulated seconds past the last demand/failure event, so expiry
#: and reconvergence fallout lands inside the measured window.
DEFAULT_SETTLE = 5.0

#: Simulated length of the traffic phase when every demand is open-ended
#: and no failure schedule bounds the run.
DEFAULT_WINDOW = 30.0

#: How many of the hottest links the result records.
TOP_LINKS = 10


@dataclass
class LinkUtilization:
    """Utilization of one physical link over the traffic window."""

    name: str
    busy_seconds: float
    #: Fraction of the traffic window the busier direction transmitted.
    utilization: float
    peak_bps: float


@dataclass
class TrafficResult:
    """The outcome of one fluid-traffic run."""

    scenario: str
    family: str
    seed: int
    num_switches: int
    num_links: int
    #: Simulated seconds to the initial automatic configuration (None when
    #: the scenario never configured — no demands run then).
    configured_seconds: Optional[float]
    model: str = "uniform"
    demands: int = 0
    commodities: int = 0
    delivered_commodities: int = 0
    #: Simulated length of the traffic window (configuration excluded).
    duration_seconds: float = 0.0
    offered_bits: float = 0.0
    delivered_bits: float = 0.0
    #: Resolution work: full path walks / table lookups (memoized), and
    #: the incremental-churn counters — commodity re-resolutions caused by
    #: route changes plus the demands riding inside them.
    resolutions: int = 0
    lookups: int = 0
    reresolutions: int = 0
    affected_demands: int = 0
    top_links: List[LinkUtilization] = field(default_factory=list)
    wall_seconds: float = 0.0

    #: Derived values the JSON payload carries (see ``run.to_payload``).
    payload_properties = ("loss_fraction",)

    @property
    def configured(self) -> bool:
        return self.configured_seconds is not None

    @property
    def loss_fraction(self) -> float:
        """Fraction of offered bits not delivered over the whole window."""
        if self.offered_bits <= 0.0:
            return 0.0
        return max(0.0, 1.0 - self.delivered_bits / self.offered_bits)


def loopback_run(spec: ScenarioSpec) -> ScenarioRun:
    """A run of the scenario with every router-id /32 advertised, so the
    loopbacks are routable demand destinations."""
    topology = spec.build_topology()
    return ScenarioRun(topology, replace(spec.framework_config(topology),
                                         advertise_loopbacks=True))


def _horizon(spec: ScenarioSpec, demand_set: DemandSet,
             window: float) -> float:
    """Simulated length of the traffic phase: to the last expiry or the end
    of the failure schedule; ``window`` more when every demand is open-ended."""
    horizon = spec.failures.duration if spec.failures is not None else 0.0
    last_end = demand_set.last_end()
    if last_end is not None:
        return max(horizon, last_end)
    return horizon + window if horizon > 0.0 else window


def run_traffic(scenario: Union[str, ScenarioSpec],
                demands: Optional[DemandSpec] = None,
                settle: float = DEFAULT_SETTLE,
                window: float = DEFAULT_WINDOW) -> TrafficResult:
    """Configure a scenario and run a demand set through the fluid path.

    ``demands`` defaults to the scenario's own
    :attr:`~repro.scenarios.ScenarioSpec.demands` (and failing that, a
    small uniform set).  ``window`` bounds the traffic phase when every
    demand is open-ended; with finite demands the phase runs to the last
    expiry (plus ``settle``).
    """
    check_non_negative(window=window, settle=settle)
    spec = scenario if isinstance(scenario, ScenarioSpec) else get(scenario)
    demand_spec = demands if demands is not None else spec.demands
    if demand_spec is None:
        demand_spec = DemandSpec()
    run = loopback_run(spec)
    configured_at = run.configure(spec.max_time)
    result = TrafficResult(
        scenario=spec.name, family=spec.family, seed=spec.seed,
        num_switches=run.topology.num_nodes,
        num_links=run.topology.num_links,
        configured_seconds=configured_at, model=demand_spec.model)
    if configured_at is None:
        result.wall_seconds = run.wall_seconds
        return result

    # -- demand setup --------------------------------------------------------
    sim, network = run.sim, run.network
    addresses = {dpid: run.ipam.router_id(dpid) for dpid in network.switches}
    owners = {int(address): dpid for dpid, address in addresses.items()}
    engine = FluidEngine(sim, network, owner_of=owners.get)
    engine.attach()
    demand_set = generate_demands(demand_spec, addresses)
    start = sim.now
    result.demands = engine.register(demand_set)

    # -- churn (optional) ----------------------------------------------------
    if spec.failures is not None:
        run.mirror_failures()
        network.schedule_failures(spec.failures)

    # -- run and measure -----------------------------------------------------
    sim.run(until=start + _horizon(spec, demand_set, window) + settle)
    engine.finalize()
    elapsed = max(sim.now - start, 1e-12)
    result.duration_seconds = sim.now - start
    stats = engine.stats()
    result.commodities = int(stats["commodities"])
    result.delivered_commodities = int(stats["delivered_commodities"])
    result.offered_bits = stats["offered_bits"]
    result.delivered_bits = stats["delivered_bits"]
    result.resolutions = int(stats["resolutions"])
    result.lookups = int(stats["lookups"])
    result.reresolutions = int(stats["reresolutions"])
    result.affected_demands = int(stats["affected_demands"])
    ranked = sorted(network.links, key=lambda link: -link.stats()["busy_seconds"])
    for link in ranked[:TOP_LINKS]:
        stats_ = link.stats()
        if stats_["busy_seconds"] <= 0.0:
            break
        busier = max(link.iface_a.tx_busy_seconds, link.iface_b.tx_busy_seconds)
        result.top_links.append(LinkUtilization(
            name=link.name, busy_seconds=stats_["busy_seconds"],
            utilization=min(1.0, busier / elapsed),
            peak_bps=stats_["peak_bps"]))
    result.wall_seconds = run.wall_seconds
    return result


def render_traffic_table(results: List[TrafficResult]) -> str:
    """ASCII report of a traffic suite: throughput, loss, churn cost."""
    rows = []
    for result in results:
        if not result.configured:
            rows.append([result.scenario, "-", "-", "-", "-", "-", "-", "-"])
            continue
        rows.append([
            result.scenario,
            result.demands,
            f"{result.delivered_commodities}/{result.commodities}",
            format_bits(result.offered_bits),
            format_bits(result.delivered_bits),
            f"{100.0 * result.loss_fraction:.2f}%",
            result.reresolutions,
            result.affected_demands,
        ])
    table = format_table(
        ["scenario", "demands", "routed", "offered", "delivered", "loss",
         "re-resolved", "affected demands"], rows)
    notes = []
    for result in results:
        if not result.configured:
            notes.append(f"{result.scenario}: never configured — no traffic run")
            continue
        notes.append(
            f"{result.scenario}: configured in "
            f"{format_seconds(result.configured_seconds)}, "
            f"{format_seconds(result.duration_seconds)} traffic window, "
            f"{result.resolutions} path walks / {result.lookups} table "
            f"lookups for {result.demands} demands")
        for link in result.top_links[:3]:
            notes.append(
                f"  hot link {link.name}: {100.0 * link.utilization:.1f}% "
                f"utilized, peak {link.peak_bps / 1e6:.1f} Mbit/s")
    return table + "\n\n" + "\n".join(notes)
