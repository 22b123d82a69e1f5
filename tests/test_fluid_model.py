"""The fluid engine against its reference model.

A Hypothesis state machine drives one :class:`FluidEngine` through every
kind of event it reacts to (flow-mods of every prefix length, failures
and restores, capacity changes, arrivals and expiries) and after each
rule compares it with the naive model: a second engine built from
scratch on the same network from the demands that are live.  The
incremental engine may only ever differ from the rebuilt one in float
rounding, and the rebuilt one makes every walk hop by hop, without the
batch memo.  Three seeded mutants show the machine has teeth.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import Phase, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.stateful import (RuleBasedStateMachine, invariant,  # noqa: E402
                                 rule, run_state_machine_as_test)

from repro.openflow.actions import OutputAction  # noqa: E402
from repro.openflow.flow_table import FlowEntry  # noqa: E402
from repro.openflow.match import Match  # noqa: E402
from repro.scenarios import FailureEvent  # noqa: E402
from repro.sim import Simulator  # noqa: E402
from repro.topology.emulator import EmulatedNetwork  # noqa: E402
from repro.topology.generators import torus_topology  # noqa: E402
from repro.traffic import (FlowDemand, FluidEngine, PathResolver,  # noqa: E402
                           SyntheticRoutes, max_min_allocation,
                           service_address)
from repro.traffic import fluid as fluid_module  # noqa: E402

SIDE = 3
NODES = st.integers(min_value=1, max_value=SIDE * SIDE)
#: Out ports: 1..4 are the torus links, 9 is an edge (host-facing) port.
PORTS = st.sampled_from([1, 2, 3, 4, 9])
#: /16 covers every service prefix (10.0.<dpid>.0/24), /22 four of them,
#: /24 one, /32 one service address; 0 asks for the non-prefix entry.
PREFIX_LENS = st.sampled_from([16, 22, 24, 32, 0])
#: Below, at and above the synthetic base routes (0x8000 + 24).
PRIORITIES = st.sampled_from([0x8000 + 10, 0x8000 + 24, 0x8000 + 30])
RATES = st.sampled_from([100.0, 250.0, 1000.0, 333.3])
#: The mesh loads an interface with up to 500 bps: the first two bind.
CAPACITIES = st.sampled_from([150.0, 400.0, 1e9])


def _match(dst_node: int, prefix_len: int) -> Match:
    """A match towards ``dst_node``'s service address; ``prefix_len`` 0
    gives the one shape that is not a pure destination prefix."""
    if prefix_len == 0:
        return Match.for_destination_prefix(
            service_address(dst_node), 24).set_in_port(0)
    return Match.for_destination_prefix(service_address(dst_node), prefix_len)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


class _WatchedEngine(FluidEngine):
    """Notes the capacities in force whenever it reallocates with something
    dirty: the only moments the engine reads them, so what the model must
    be given (a capacity changed behind its back is not seen earlier)."""

    def reallocate(self) -> None:
        if self._rates_dirty or self._dirty:
            self.seen_capacity = {link: link.bandwidth_bps
                                  for link in self.network.links}
        super().reallocate()


class _PlainWalks(PathResolver):
    """The model's resolver: every walk is made hop by hop, none is spliced
    onto another of its batch."""

    def resolve(self, src_dpid, dst, known=None):
        return super().resolve(src_dpid, dst)


class FluidEngineMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.sim = Simulator()
        self.network = EmulatedNetwork(self.sim, torus_topology(SIDE, SIDE))
        SyntheticRoutes(self.network).install()
        self.owners = {int(service_address(dpid)): dpid
                       for dpid in self.network.switches}
        self.engine = _WatchedEngine(self.sim, self.network,
                                     owner_of=self.owners.get)
        self.engine.attach()
        mesh = [FlowDemand(src, service_address(dst), 100.0)
                for src in self.network.switches
                for dst in self.network.switches if src != dst]
        self.engine.register(mesh)
        #: (demand, expiry time) of everything ever registered.
        self.registered = [(demand, math.inf) for demand in mesh]

    def _table(self, node: int):
        return self.network.switches[node].flow_table

    def _link(self, pair: int):
        return self.network.links[pair % len(self.network.links)]

    # ------------------------------------------------------------ flow-mods
    @rule(node=NODES, dst=NODES, prefix_len=PREFIX_LENS, priority=PRIORITIES,
          port=PORTS)
    def add_entry(self, node, dst, prefix_len, priority, port):
        self._table(node).add(FlowEntry(_match(dst, prefix_len),
                                        [OutputAction(port)],
                                        priority=priority))

    @rule(node=NODES, dst=NODES, prefix_len=PREFIX_LENS, priority=PRIORITIES)
    def delete_strict(self, node, dst, prefix_len, priority):
        self._table(node).delete(_match(dst, prefix_len), strict=True,
                                 priority=priority)

    @rule(node=NODES, dst=NODES, prefix_len=PREFIX_LENS)
    def delete_covered(self, node, dst, prefix_len):
        self._table(node).delete(_match(dst, prefix_len), strict=False,
                                 priority=0)

    @rule(node=NODES, dst=NODES, prefix_len=PREFIX_LENS, port=PORTS,
          strict=st.booleans())
    def modify(self, node, dst, prefix_len, port, strict):
        self._table(node).modify(_match(dst, prefix_len),
                                 [OutputAction(port)], strict=strict,
                                 priority=0x8000 + 24)

    @rule(node=NODES)
    def clear(self, node):
        self._table(node).clear()

    # ------------------------------------------------------------- failures
    @rule(pair=st.integers(min_value=0, max_value=63), up=st.booleans())
    def bounce_link(self, pair, up):
        link = self.network.topology.links[
            pair % len(self.network.topology.links)]
        self.network.apply_failure_event(FailureEvent(
            0.0, "link_up" if up else "link_down", link.node_a, link.node_b))

    @rule(node=NODES, up=st.booleans())
    def bounce_node(self, node, up):
        self.network.apply_failure_event(FailureEvent(
            0.0, "node_up" if up else "node_down", node))

    @rule(pair=st.integers(min_value=0, max_value=63), capacity=CAPACITIES)
    def scale_link(self, pair, capacity):
        # Behind the engine's back, as ``repro te`` and the ledger do.
        self._link(pair).bandwidth_bps = capacity

    # -------------------------------------------------------------- demands
    @rule(src=NODES, dst=NODES, rate=RATES,
          duration=st.sampled_from([math.inf, 1.0, 3.0]))
    def arrive(self, src, dst, rate, duration):
        demand = FlowDemand(src, service_address(dst), rate,
                            duration=duration)
        self.engine.register([demand])
        self.registered.append((demand, self.sim.now + duration))

    @rule()
    def advance(self):
        self.sim.run(until=self.sim.now + 1.0)

    # ------------------------------------------------------------ the model
    @invariant()
    def equals_an_engine_built_from_scratch(self):
        engine = self.engine
        engine.reallocate()
        actual = {link: link.bandwidth_bps for link in self.network.links}
        for link, capacity in engine.seen_capacity.items():
            link.bandwidth_bps = capacity
        reference = FluidEngine(Simulator(), self.network,
                                owner_of=self.owners.get)
        reference.resolver = _PlainWalks(self.network,
                                         owner_of=self.owners.get)
        reference.register([demand for demand, end in self.registered
                            if end > self.sim.now], schedule=False)
        reference.reallocate()
        # ... and the binding-set water-fill against the global one.
        routed = [c for c in engine.commodities.values() if c.path.delivered]
        assert all(c.rate == 0.0 for c in engine.commodities.values()
                   if not c.path.delivered)
        globally = max_min_allocation(
            [(c.links, float(c.count), c.offered_bps) for c in routed],
            {iface: iface.link.bandwidth_bps
             for c in routed for iface in c.links})
        for link, capacity in actual.items():
            link.bandwidth_bps = capacity
        for commodity, rate in zip(routed, globally):
            assert _close(commodity.rate, rate), (commodity.src_dpid,
                                                  commodity.dst)
        assert set(engine.commodities) == set(reference.commodities)
        for key, commodity in engine.commodities.items():
            model = reference.commodities[key]
            assert commodity.count == model.count
            assert commodity.path.status == model.path.status, key
            assert commodity.path.dpids == model.path.dpids, key
            assert commodity.path.hops == model.path.hops, key
            assert commodity.links == model.links, key
            assert _close(commodity.rate, model.rate), key
        assert _close(engine.delivered_bps, reference.delivered_bps)
        assert _close(engine.offered_bps, reference.offered_bps)
        assert set(engine._iface_loads) == set(reference._iface_loads)
        for iface, load in engine._iface_loads.items():
            assert _close(load, reference._iface_loads[iface])

    @invariant()
    def sums_are_those_of_the_state_not_of_the_history(self):
        """Bit for bit what summing the engine's own commodities in
        insertion order gives: nothing is carried across reallocations."""
        engine = self.engine
        ordered = list(engine.commodities.values())
        assert [c.seq for c in ordered] == sorted(c.seq for c in ordered)
        crossing, delivering = {}, {}
        for commodity in ordered:
            for _link, iface in commodity.path.hops:
                crossing.setdefault(iface, []).append(commodity)
            for iface in commodity.links:
                delivering.setdefault(iface, []).append(commodity)
        assert engine._dsts == sorted({c.dst for c in ordered})
        assert engine._by_dst == {
            dst: [c for c in ordered if c.dst == dst] for dst in engine._dsts}
        assert engine._crossing == crossing
        assert engine._iface_loads == {
            iface: sum(c.rate for c in members)
            for iface, members in delivering.items()}
        assert {iface: total for iface, total
                in engine._iface_ceilings.items() if iface in delivering} == {
            iface: sum(c.offered_bps for c in members)
            for iface, members in delivering.items()}
        assert engine.delivered_bps == sum(c.rate for c in ordered)
        assert engine.offered_bps == sum(c.offered_bps for c in ordered)


MACHINE_SETTINGS = settings(max_examples=30, stateful_step_count=40,
                            derandomize=True, deadline=None)

TestFluidEngineMachine = FluidEngineMachine.TestCase
TestFluidEngineMachine.settings = MACHINE_SETTINGS


class TestSeededMutants:
    """The machine must fail on an engine with a planted defect."""

    #: No shrinking: the first counterexample is proof enough.
    SETTINGS = settings(MACHINE_SETTINGS, phases=(Phase.generate,),
                        report_multiple_bugs=False)

    def test_kills_skipping_the_link_index_on_a_failure(self, monkeypatch):
        genuine = FluidEngine._on_failure_event

        def mutant(engine, event):
            if event.action in ("link_down", "node_down"):
                engine._mark_stale()  # dirties nobody
            else:
                genuine(engine, event)

        monkeypatch.setattr(FluidEngine, "_on_failure_event", mutant)
        with pytest.raises(AssertionError):
            run_state_machine_as_test(FluidEngineMachine,
                                      settings=self.SETTINGS)

    def test_kills_covering_by_equality_instead_of_by_prefix(
            self, monkeypatch):
        genuine = fluid_module.changed_ranges

        def mutant(changed):
            """Only the /24 whose network equals the entry's: what an index
            keyed by the matched service prefix would look up."""
            ranges = genuine(changed)
            if ranges is None:
                return None
            return [(low, low | 0xFF) for low, _high in ranges]

        monkeypatch.setattr(fluid_module, "changed_ranges", mutant)
        with pytest.raises(AssertionError):
            run_state_machine_as_test(FluidEngineMachine,
                                      settings=self.SETTINGS)


    def test_kills_splicing_without_the_disjointness_check(self, monkeypatch):
        """A known walk that comes back through the prefix of the walk
        being made is a loop the plain walk closes earlier."""
        monkeypatch.setattr(PathResolver, "_ends_like",
                            staticmethod(lambda visited, known: True))
        with pytest.raises(AssertionError):
            run_state_machine_as_test(FluidEngineMachine,
                                      settings=self.SETTINGS)


#: Churn, then greedy TE on four links cut to a capacity that binds, on the
#: 4x4 torus with 2,000 demands: the ledger's ``fluid_te_1m`` in small.
_CHURN_AND_TE = '''
import json
from repro.sim import SeededRandom, Simulator
from repro.te import FlowTableActuator, TEController, TESpec, make_policy
from repro.topology.emulator import EmulatedNetwork
from repro.topology.generators import torus_topology
from repro.traffic import (FluidEngine, SyntheticRoutes, service_address,
                           uniform_demands)

sim = Simulator()
network = EmulatedNetwork(sim, torus_topology(4, 4))
routes = SyntheticRoutes(network)
routes.install()
addresses = {dpid: service_address(dpid) for dpid in network.switches}
owners = {int(address): dpid for dpid, address in addresses.items()}
engine = FluidEngine(sim, network, owner_of=owners.get)
engine.attach()
engine.register(uniform_demands(addresses, 2000, rate_bps=1000.0, seed=7),
                schedule=False)
engine.reallocate()
spec = TESpec(policy="greedy", engine="synthetic", interval=5.0,
              threshold=0.3, max_steers_per_tick=16, k_paths=4)
controller = TEController(sim, network, FlowTableActuator(routes), spec=spec,
                          policy=make_policy(spec), engine=engine,
                          owner_of=owners.get)
for _cycle in range(2):
    network.fail_link(6, 7)
    routes.reroute()
    engine.reallocate()
    network.restore_link(6, 7)
    routes.reroute()
    engine.reallocate()
for link in SeededRandom(7).sample(network.links, 4):
    link.bandwidth_bps = 1e4
controller.start()
sim.run(until=sim.now + 20.0)
controller.stop()
engine.finalize()
stats = controller.stats()
print(json.dumps({"reroutes": stats["reroutes"],
                  "steer_changes": stats["steer_changes"],
                  "reresolutions": engine.reresolutions,
                  "affected_demands": engine.affected_demands,
                  "delivered_bits": engine.delivered_bits,
                  "offered_bits": engine.offered_bits}))
'''


class TestHashSeedIndependence:
    """The ledger pins ``PYTHONHASHSEED``; nothing may need it to."""

    def _run(self, hash_seed: str) -> dict:
        src = str(Path(__file__).resolve().parent.parent / "src")
        finished = subprocess.run(
            [sys.executable, "-c", _CHURN_AND_TE], check=True,
            stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src))
        return json.loads(finished.stdout)

    def test_churn_and_te_repeat_under_another_hash_seed(self):
        first, second = self._run("1"), self._run("2")
        assert first == second
        # The run did steer, re-resolve and hit a binding interface.
        assert first["reroutes"] > 0 and first["steer_changes"] > 0
        assert first["reresolutions"] > 0 and first["affected_demands"] > 0
        assert 0 < first["delivered_bits"] < first["offered_bits"]
