"""Seeded property-based chaos harness for the sharded control plane.

Each seed expands deterministically into a randomized churn schedule —
shard kills (exercising the heartbeat failure detector), coordinated
failovers, restores, live resharding, link and node failures — which is
run against a sharded ring and checked against the system invariants at
quiescence:

* **flows conserved** — the installed-flow count returns to the pre-churn
  steady state once every injected failure is repaired;
* **SPF/RIB invariant** — every VM's RIB matches a fresh SPF run;
* **one live master per dpid** — no datapath is orphaned on a failed
  shard or mapped on two shards at once;
* **no orphaned parked RouteMods** — a fail-stopped shard holds nothing
  it could wrongly replay;
* **no flow black-holes** — when the schedule flips a TE policy on and
  off (``te_policy_flip`` ops), every registered traffic commodity is
  routed and delivering at quiescence, even when a policy-driven
  re-route overlapped a link failure.

Shard outages are serialized (at most one shard down at a time, so a
takeover always has a live standby) while physical link/node failures run
on their own timeline and freely overlap the control-plane churn.  Every
outage op carries its own repair, so any subset of ops still restores the
network — which is what lets a failing seed be minimized by greedy delta
debugging over whole ops and reported as the smallest reproducing
schedule.

The seed budget defaults to a handful so the tier-1 run stays fast; the
CI chaos smoke job raises it with the ``CHAOS_SEEDS`` env var.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import pytest

from repro.core import AutoConfigFramework, FrameworkConfig, IPAddressManager
from repro.experiments.failover import verify_spf_rib_consistency
from repro.experiments.run import mirror_into_routeflow
from repro.scenarios import FailureAction, FailureEvent, FailureSchedule
from repro.sim import SeededRandom, Simulator
from repro.topology.emulator import EmulatedNetwork
from repro.topology.generators import ring_topology

#: Seeds exercised by the tier-1 run; CI's nightly-style smoke raises this.
CHAOS_SEEDS = int(os.environ.get("CHAOS_SEEDS", "4"))

#: Number of bus-perturbation ops (fault-profile windows / shard<->plane
#: partitions) mixed into each schedule; 0 keeps the bus lossless.  CI's
#: lossy chaos smoke sets this, which *also* applies :data:`LOSSY_PROFILE`
#: as a standing fault floor for the whole run.
CHAOS_BUS = int(os.environ.get("CHAOS_BUS", "0"))

NUM_SWITCHES = 8
NUM_SHARDS = 3

#: The acceptance fault profile: 5% drop, 2% duplication, reordering and
#: jitter on every control-plane topic (ack topics inherit it too).
LOSSY_PROFILE = {
    "routeflow.*": {"drop": 0.05, "duplicate": 0.02,
                    "reorder": 0.05, "jitter": 0.02},
    "config.rpc": {"drop": 0.05, "duplicate": 0.02,
                   "reorder": 0.05, "jitter": 0.02},
}

#: Quiet seconds after the last FIB change before the run counts as settled.
SETTLE = 15.0

#: Extra simulated time allowed past the schedule horizon before giving up.
MAX_EXTRA = 600.0


# ---------------------------------------------------------------------------
# chaos operations: self-repairing units a schedule is built from
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ChaosOp:
    """One self-contained churn operation (an outage plus its repair).

    Minimization drops whole ops, never single events, so every candidate
    schedule still repairs everything it breaks and the flows-conserved
    invariant stays meaningful.
    """

    kind: str  # shard_kill | shard_failover | reshard | link | node
    #        | bus_degrade | bus_partition | te_policy_flip
    start: float
    duration: float = 0.0
    subject: int = 0  # shard id, dpid, node id, or link endpoint a
    target: int = 0  # reshard target shard, or link endpoint b
    #: bus_degrade fault probabilities, as sorted (key, value) pairs so the
    #: op stays hashable and comparable.
    params: Tuple[Tuple[str, float], ...] = ()

    def events(self) -> List[FailureEvent]:
        end = self.start + self.duration
        if self.kind == "te_policy_flip":
            # TE flips are not failure events: run_chaos arms them on the
            # sim clock directly (flip on at start, back off at end), so
            # they contribute nothing to the failure schedule.
            return []
        if self.kind == "bus_degrade":
            return [FailureEvent(self.start, FailureAction.BUS_DEGRADE, 0,
                                 params=self.params),
                    FailureEvent(end, FailureAction.BUS_HEAL, -1)]
        if self.kind == "bus_partition":
            return [FailureEvent(self.start, FailureAction.BUS_PARTITION,
                                 self.subject),
                    FailureEvent(end, FailureAction.BUS_HEAL, self.subject)]
        if self.kind == "shard_kill":
            return [FailureEvent(self.start, FailureAction.SHARD_DOWN,
                                 self.subject),
                    FailureEvent(end, FailureAction.SHARD_UP, self.subject)]
        if self.kind == "shard_failover":
            return [FailureEvent(self.start, FailureAction.SHARD_FAILOVER,
                                 self.subject),
                    FailureEvent(end, FailureAction.SHARD_UP, self.subject)]
        if self.kind == "reshard":
            return [FailureEvent(self.start, FailureAction.RESHARD,
                                 self.subject, self.target)]
        if self.kind == "link":
            return [FailureEvent(self.start, FailureAction.LINK_DOWN,
                                 self.subject, self.target),
                    FailureEvent(end, FailureAction.LINK_UP,
                                 self.subject, self.target)]
        if self.kind == "node":
            return [FailureEvent(self.start, FailureAction.NODE_DOWN,
                                 self.subject),
                    FailureEvent(end, FailureAction.NODE_UP, self.subject)]
        raise ValueError(f"unknown chaos op kind {self.kind!r}")

    def describe(self) -> str:
        return "; ".join(event.describe() for event in self.events())


def ops_to_schedule(ops: Sequence[ChaosOp]) -> FailureSchedule:
    events: List[FailureEvent] = []
    for op in ops:
        events.extend(op.events())
    return FailureSchedule(tuple(events))


def generate_ops(seed: int, num_shards: int = NUM_SHARDS,
                 nodes: Sequence[int] = (),
                 links: Sequence[Tuple[int, int]] = (),
                 shard_ops: int = 3, reshard_ops: int = 2,
                 net_ops: int = 3, bus_ops: int = 0,
                 te_ops: int = 0) -> List[ChaosOp]:
    """Expand a seed into a churn schedule.  Deterministic in the seed.

    Shard outages are placed back to back on one timeline (at most one
    shard down at a time, so a live standby always exists); reshards
    follow; link/node outages run on a second timeline that overlaps the
    control-plane churn.  Reshard targets may be dead at execution time —
    the control plane rejects those gracefully, and chaos should poke at
    exactly that path.

    ``bus_ops > 0`` adds a third, equally serialized timeline of bus
    perturbations: windows of seeded drop/duplicate/reorder/jitter on
    every control-plane topic, or a shard<->plane partition long enough
    to trigger a spurious takeover.  Serialization matters because a
    ``bus_degrade`` repair heals the *whole* bus, so overlapping windows
    would repair each other and break op-level minimization.

    ``te_ops > 0`` adds a serialized timeline of TE policy flips: a
    greedy policy with threshold 0 (every measured link is "hot", so it
    steers aggressively every tick) switches on at the op's start and
    back off — withdrawing every steer — at its end.  The windows are
    placed to overlap the link/node outage timeline, exercising a
    policy-driven re-route racing a failure.
    """
    rng = SeededRandom(seed)
    node_list = sorted(nodes)
    link_list = sorted(links)
    ops: List[ChaosOp] = []
    when = 5.0
    for _ in range(shard_ops):
        kind = rng.choice(["shard_kill", "shard_failover"])
        victim = rng.choice(range(num_shards))
        duration = rng.uniform(6.0, 15.0)
        ops.append(ChaosOp(kind, when, duration, victim))
        when += duration + rng.uniform(5.0, 10.0)
    for _ in range(reshard_ops):
        ops.append(ChaosOp("reshard", when, 0.0, rng.choice(node_list),
                           rng.choice(range(num_shards))))
        when += rng.uniform(3.0, 8.0)
    when = 8.0
    for _ in range(net_ops):
        duration = rng.uniform(5.0, 15.0)
        if rng.random() < 0.3:
            ops.append(ChaosOp("node", when, duration,
                               rng.choice(node_list)))
        else:
            node_a, node_b = rng.choice(link_list)
            ops.append(ChaosOp("link", when, duration, node_a, node_b))
        when += duration + rng.uniform(4.0, 10.0)
    when = 6.0
    for _ in range(te_ops):
        duration = rng.uniform(8.0, 18.0)
        ops.append(ChaosOp("te_policy_flip", when, duration))
        when += duration + rng.uniform(4.0, 10.0)
    when = 12.0
    for _ in range(bus_ops):
        duration = rng.uniform(6.0, 15.0)
        if rng.random() < 0.5:
            profile = {
                "drop": round(rng.uniform(0.01, 0.06), 3),
                "duplicate": round(rng.uniform(0.0, 0.03), 3),
                "reorder": round(rng.uniform(0.0, 0.1), 3),
                "jitter": round(rng.uniform(0.0, 0.03), 3),
            }
            ops.append(ChaosOp("bus_degrade", when, duration,
                               params=tuple(sorted(profile.items()))))
        else:
            ops.append(ChaosOp("bus_partition", when, duration,
                               rng.choice(range(num_shards))))
        when += duration + rng.uniform(5.0, 10.0)
    return ops


# ---------------------------------------------------------------------------
# runner: one configured ring driven through one schedule
# ---------------------------------------------------------------------------
def run_chaos(ops: Sequence[ChaosOp], num_switches: int = NUM_SWITCHES,
              num_shards: int = NUM_SHARDS,
              bus_faults=None, bus_fault_seed: int = 0) -> List[str]:
    """Run one churn schedule; return every invariant violation (empty ==
    the seed is green).

    ``bus_faults`` applies a standing fault profile from configuration
    onward (pattern -> ChannelFaults params).  Reliable IPC is switched on
    whenever the run is lossy — via the standing profile or via bus ops in
    the schedule — and stays off otherwise, so fault-free chaos runs keep
    exercising the bare bus.
    """
    lossy = bool(bus_faults) or any(
        op.kind in ("bus_degrade", "bus_partition") for op in ops)
    te_windows = sorted((op.start, op.start + op.duration)
                        for op in ops if op.kind == "te_policy_flip")
    sim = Simulator()
    ipam = IPAddressManager()
    config = FrameworkConfig(detect_edge_ports=False, controllers=num_shards,
                             partitioner="hash",
                             advertise_loopbacks=bool(te_windows),
                             bus_faults=dict(bus_faults) if bus_faults else None,
                             bus_fault_seed=bus_fault_seed,
                             reliable_ipc=True if lossy else None)
    framework = AutoConfigFramework(sim, config=config, ipam=ipam)
    network = EmulatedNetwork(sim, ring_topology(num_switches), ipam=ipam)
    framework.attach(network)
    configured_at = framework.run_until_configured(max_time=1200.0, settle=5.0)
    if configured_at is None:
        return ["network did not reach the configured state before churn"]

    plane = framework.control_plane
    steady = sum(load["flows_current"] for load in framework.shard_loads())
    change_times: List[float] = []
    for vm in plane.vms.values():
        vm.zebra.add_fib_listener(
            lambda prefix, new, old: change_times.append(sim.now))
    network.add_failure_listener(mirror_into_routeflow(network,
                                                       framework.bus))

    engine = None
    if te_windows:
        from repro.net.addresses import IPv4Network
        from repro.te import (GreedyLeastUtilizedPolicy, TEController,
                              TESpec, ZebraActuator)
        from repro.traffic import DemandSpec, generate_demands
        from repro.traffic.fluid import FluidEngine

        addresses = {dpid: ipam.router_id(dpid)
                     for dpid in network.switches}
        owners = {int(address): dpid for dpid, address in addresses.items()}
        engine = FluidEngine(sim, network, owner_of=owners.get)
        engine.attach()
        actuator = ZebraActuator(
            plane, network,
            prefix_of=lambda dst: IPv4Network((addresses[dst], 32)))
        controller = TEController(
            sim, network, actuator,
            spec=TESpec(interval=2.0, threshold=0.0, k_paths=4),
            engine=engine, owner_of=owners.get)
        controller.start()
        engine.register(generate_demands(
            DemandSpec(model="uniform", count=24, rate_bps=2e6, seed=1),
            addresses))
        for flip_on, flip_off in te_windows:
            sim.schedule(flip_on, controller.set_policy,
                         GreedyLeastUtilizedPolicy(threshold=0.0,
                                                   max_moves=8),
                         label="chaos:te-on")

            def _flip_off(ctl=controller):
                ctl.set_policy(None)
                ctl.clear()

            sim.schedule(flip_off, _flip_off, label="chaos:te-off")

    schedule = ops_to_schedule(ops)
    horizon = sim.now + schedule.duration
    if te_windows:
        horizon = max(horizon, sim.now + te_windows[-1][1])
    if schedule:
        schedule.validate_against(network.switches,
                                  ((a, b) for a, b in network.link_ports),
                                  shards=num_shards)
        network.schedule_failures(schedule)

    settled = False
    deadline = horizon + MAX_EXTRA
    while sim.now < deadline:
        sim.run(until=min(sim.now + 1.0, deadline))
        if sim.now >= max([horizon] + change_times[-1:]) + SETTLE:
            settled = True
            break

    violations: List[str] = []
    if not settled:
        violations.append(
            f"did not settle within {MAX_EXTRA:g}s of the churn horizon")
    final = sum(load["flows_current"] for load in framework.shard_loads())
    if final != steady:
        violations.append(
            f"flows not conserved: steady {steady}, final {final}")
    violations.extend(f"spf/rib: {v}"
                      for v in verify_spf_rib_consistency(plane))
    violations.extend(f"ownership: {v}"
                      for v in plane.ownership_violations())
    violations.extend(f"parked: {v}"
                      for v in plane.orphaned_parked_route_mods())
    if engine is not None:
        engine.reallocate()
        stats = engine.stats()
        if stats["delivered_commodities"] != stats["commodities"]:
            violations.append(
                f"te black-hole: {int(stats['commodities'] - stats['delivered_commodities'])}"
                f"/{int(stats['commodities'])} commodities unrouted at "
                f"quiescence")
    return violations


def minimize_ops(ops: Sequence[ChaosOp], **run_kwargs) -> List[ChaosOp]:
    """Greedy delta debugging over whole ops: repeatedly drop any single
    op whose removal keeps the schedule failing.  ``run_kwargs`` are
    forwarded to :func:`run_chaos` so a lossy run minimizes under the
    same standing fault profile it failed with."""
    current = list(ops)
    shrinking = True
    while shrinking and len(current) > 1:
        shrinking = False
        for index in range(len(current)):
            candidate = current[:index] + current[index + 1:]
            if run_chaos(candidate, **run_kwargs):
                current = candidate
                shrinking = True
                break
    return current


# ---------------------------------------------------------------------------
# the property: every seed's schedule keeps the invariants
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(CHAOS_SEEDS))
def test_chaos_schedule_preserves_invariants(seed):
    topology = ring_topology(NUM_SWITCHES)
    nodes = [node.node_id for node in topology.nodes]
    links = [(link.node_a, link.node_b) for link in topology.links]
    ops = generate_ops(seed, nodes=nodes, links=links, bus_ops=CHAOS_BUS,
                       te_ops=1)
    run_kwargs = ({"bus_faults": LOSSY_PROFILE, "bus_fault_seed": seed}
                  if CHAOS_BUS else {})
    violations = run_chaos(ops, **run_kwargs)
    if violations:
        minimized = minimize_ops(ops, **run_kwargs)
        replay = run_chaos(minimized, **run_kwargs)
        pytest.fail(
            f"chaos seed {seed} violated invariants:\n  "
            + "\n  ".join(violations)
            + f"\nminimized to {len(minimized)}/{len(ops)} ops:\n  "
            + "\n  ".join(op.describe() for op in minimized)
            + ("\nviolations on minimized schedule:\n  "
               + "\n  ".join(replay) if replay else ""))


def test_lossy_bus_chaos_fixed_seed():
    """Tier-1 anchor for the lossy-bus path: one fixed seed with bus
    perturbation ops *and* the standing acceptance fault profile (5% drop,
    2% duplication, reordering, jitter) must keep every invariant.  CI's
    lossy chaos smoke widens this to many seeds via CHAOS_BUS/CHAOS_SEEDS.
    """
    topology = ring_topology(NUM_SWITCHES)
    nodes = [node.node_id for node in topology.nodes]
    links = [(link.node_a, link.node_b) for link in topology.links]
    ops = generate_ops(1, nodes=nodes, links=links, bus_ops=2)
    assert run_chaos(ops, bus_faults=LOSSY_PROFILE, bus_fault_seed=1) == []


def test_te_flip_over_link_failure_fixed_seed():
    """Tier-1 anchor for the TE re-route lifecycle under churn: a greedy
    policy flips on over a window that overlaps the link/node outage
    timeline, steers aggressively (threshold 0), then withdraws — and no
    commodity may stay black-holed once everything is repaired.
    """
    topology = ring_topology(NUM_SWITCHES)
    nodes = [node.node_id for node in topology.nodes]
    links = [(link.node_a, link.node_b) for link in topology.links]
    ops = generate_ops(2, nodes=nodes, links=links, te_ops=2)
    assert any(op.kind == "te_policy_flip" for op in ops)
    assert run_chaos(ops) == []


# ---------------------------------------------------------------------------
# generator sanity: the harness itself must be deterministic and balanced
# ---------------------------------------------------------------------------
class TestGenerator:
    def test_deterministic_in_seed(self):
        topology = ring_topology(NUM_SWITCHES)
        nodes = [node.node_id for node in topology.nodes]
        links = [(link.node_a, link.node_b) for link in topology.links]
        first = generate_ops(7, nodes=nodes, links=links, bus_ops=2)
        second = generate_ops(7, nodes=nodes, links=links, bus_ops=2)
        assert first == second
        assert first != generate_ops(8, nodes=nodes, links=links, bus_ops=2)

    def test_every_outage_carries_its_repair(self):
        topology = ring_topology(NUM_SWITCHES)
        nodes = [node.node_id for node in topology.nodes]
        links = [(link.node_a, link.node_b) for link in topology.links]
        for seed in range(20):
            for op in generate_ops(seed, nodes=nodes, links=links, bus_ops=2,
                                   te_ops=2):
                events = op.events()
                if op.kind == "te_policy_flip":
                    # Flips ride the sim clock, not the failure schedule;
                    # the repair is the flip-off at start + duration.
                    assert events == []
                    assert op.duration > 0.0
                elif op.kind == "reshard":
                    assert len(events) == 1
                else:
                    down, up = events
                    assert up.time > down.time
                    assert up.action in (FailureAction.SHARD_UP,
                                         FailureAction.LINK_UP,
                                         FailureAction.NODE_UP,
                                         FailureAction.BUS_HEAL)

    def test_shard_outages_never_overlap(self):
        topology = ring_topology(NUM_SWITCHES)
        nodes = [node.node_id for node in topology.nodes]
        links = [(link.node_a, link.node_b) for link in topology.links]
        for seed in range(20):
            windows = [(op.start, op.start + op.duration)
                       for op in generate_ops(seed, nodes=nodes, links=links)
                       if op.kind in ("shard_kill", "shard_failover")]
            windows.sort()
            for (_, prev_end), (next_start, _) in zip(windows, windows[1:]):
                assert next_start > prev_end

    def test_bus_windows_never_overlap(self):
        # A bus_degrade repair heals the whole bus, so two overlapping bus
        # ops would repair each other and op-level minimization would lie.
        topology = ring_topology(NUM_SWITCHES)
        nodes = [node.node_id for node in topology.nodes]
        links = [(link.node_a, link.node_b) for link in topology.links]
        for seed in range(20):
            ops = generate_ops(seed, nodes=nodes, links=links, bus_ops=3)
            windows = [(op.start, op.start + op.duration) for op in ops
                       if op.kind in ("bus_degrade", "bus_partition")]
            assert len(windows) == 3
            windows.sort()
            for (_, prev_end), (next_start, _) in zip(windows, windows[1:]):
                assert next_start > prev_end

    def test_bus_ops_expand_to_valid_events(self):
        degrade = ChaosOp("bus_degrade", 5.0, 10.0,
                          params=(("drop", 0.05), ("duplicate", 0.02)))
        down, up = degrade.events()
        assert down.action == FailureAction.BUS_DEGRADE
        assert down.params_dict == {"drop": 0.05, "duplicate": 0.02}
        assert up.action == FailureAction.BUS_HEAL and up.node_a == -1
        partition = ChaosOp("bus_partition", 5.0, 10.0, 2)
        down, up = partition.events()
        assert down.action == FailureAction.BUS_PARTITION
        assert (down.node_a, up.node_a) == (2, 2)
        assert up.action == FailureAction.BUS_HEAL
