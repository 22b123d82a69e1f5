"""The costly half of the determinism gate (see ``test_pinned_outputs.py``).

About 50 s on one core, so the tier-1 command does not collect this
file (no ``test_`` prefix); CI runs it by name:

    PYTHONPATH=src python -m pytest tests/pinned_outputs_full.py -q

Each case runs once and asserts its simulated outputs as literals.  The
first four are the paper's own results: Figure 3, the three design
ablations, the §3 video demo and the manual-configuration model.
"""

from __future__ import annotations

from repro.core import ManualConfigurationModel
from repro.experiments import (
    DEFAULT_RING_SIZES,
    run_config_time_sweep,
    run_controller_split_ablation,
    run_demo,
    run_ospf_timer_ablation,
    run_vm_latency_ablation,
)
from repro.experiments.config_time import run_single_configuration
from repro.experiments.interdomain import run_interdomain
from repro.te import FlowTableActuator, TEController, TESpec, make_policy
from repro.topology.generators import torus_topology
from repro.traffic import uniform_demands


def test_fig3_configuration_time():
    """Figure 3: rings of 4 to 28 switches configure automatically in
    minutes, 20 s more per four switches; the manual model charges
    15 minutes per switch, so the gap widens with the ring."""
    results = run_config_time_sweep(DEFAULT_RING_SIZES, max_time=3600.0)
    assert [(r.num_switches, r.auto_seconds, r.manual_seconds)
            for r in results] == [
        (4, 33.0, 3_600.0), (8, 53.0, 7_200.0), (12, 73.0, 10_800.0),
        (16, 93.0, 14_400.0), (20, 113.0, 18_000.0), (24, 133.0, 21_600.0),
        (28, 153.0, 25_200.0)]


def test_design_ablations():
    """A1: FlowVisor plus a separate topology controller costs nothing
    over one controller (16-ring).  A2: configuration time grows with the
    per-VM boot delay of 1 / 5 / 10 / 30 / 60 s, since VMs are cloned one
    at a time (16-ring).  A3: the OSPF hello interval of 1 / 5 / 10 s
    moves it by seconds only (12-ring)."""
    split = run_controller_split_ablation(num_switches=16)
    latency = run_vm_latency_ablation(
        boot_delays=(1.0, 5.0, 10.0, 30.0, 60.0), num_switches=16,
        max_time=7200.0)
    timers = run_ospf_timer_ablation(num_switches=12)
    assert [r.auto_seconds for r in split] == [93.0, 93.0]
    assert [r.auto_seconds for r in latency] == [32.0, 93.0, 173.0, 493.0,
                                                 973.0]
    assert [r.auto_seconds for r in timers] == [68.0, 68.0, 73.0]


def test_demo_video():
    """§3: the video streamed from t = 0 reaches the client about two
    minutes in, after the GUI has turned all 28 pan-European switches
    from red to green one VM boot at a time."""
    result = run_demo(max_time=1800.0)
    assert (result.num_switches, result.video_start_seconds,
            result.configuration_seconds, result.manual_seconds,
            result.frames_sent, result.frames_received) == (
        28, 132.57910752186513, 153.0, 25_200.0, 4_576, 1_261)
    assert len(result.green_timeline) == 28
    assert (result.green_timeline[0], result.green_timeline[-1]) == (
        (5.5195, 1), (140.5195, 28))


def test_manual_model():
    """The abstract's "7 hours for 28 switches" (5 + 2 + 8 minutes per
    switch) and "many days" for 1,000."""
    model = ManualConfigurationModel()
    assert (model.minutes_per_switch, model.hours_for(28),
            model.hours_for(1000)) == (15.0, 7.0, 250.0)


def test_convergence_64():
    """The paper's headline: automatic configuration of the 8x8 torus."""
    result = run_single_configuration(torus_topology(8, 8), max_time=3600.0)
    assert (result.auto_seconds, result.num_switches,
            result.num_links) == (333.0, 64, 128)


def test_interdomain_convergence_50as():
    """A seeded 50-AS scale-free graph configures and settles."""
    result = run_interdomain("interdomain-50as", flap=False)
    assert (result.configured_seconds, result.num_switches,
            result.num_links, result.steady_flows) == (19.0, 56, 106, 8_804)


def test_interdomain_churn_100as():
    """The highest-degree border link of the 100-AS graph flaps; the
    flap must verify end to end and withdraw the pinned flow count."""
    result = run_interdomain("interdomain-100as", flap=True)
    assert result.settled and result.flap is not None
    assert result.flap.verified, result.flap
    assert (result.configured_seconds, result.num_switches,
            result.num_links, result.steady_flows,
            result.flap.withdrawn_flow_mods) == (20.0, 112, 221, 36_742, 467)


def test_demand_resolution_1m(torus_fluid_fixture):
    """One million uniform demands on a 256-router torus collapse into
    one walk per (source, destination) commodity, all delivered."""
    _sim, network, _routes, engine, addresses = torus_fluid_fixture()
    engine.register(uniform_demands(addresses, 1_000_000, rate_bps=1_000.0,
                                    seed=7), schedule=False)
    engine.reallocate()
    stats = engine.stats()
    assert (int(stats["demands"]), int(stats["commodities"]),
            int(stats["delivered_commodities"]),
            len(network.switches)) == (1_000_000, 65_280, 65_280, 256)


def test_churn_under_load(torus_fluid_fixture):
    """Under 200k demands, fail link 1-2, reroute, restore, reroute: the
    demands re-resolved are exactly those of the commodities routed
    through the (switch, destination) pairs the bounce rewrites."""
    _sim, network, routes, engine, addresses = torus_fluid_fixture()
    engine.register(uniform_demands(addresses, 200_000, rate_bps=1_000.0,
                                    seed=11), schedule=False)
    engine.reallocate()
    before = engine.affected_demands
    network.fail_link(1, 2)
    routes.reroute()
    engine.reallocate()
    network.restore_link(1, 2)
    routes.reroute()
    engine.reallocate()
    assert (int(engine.stats()["demands"]), engine.affected_demands - before,
            len(network.switches)) == (200_000, 24_128, 256)


def test_te_policy_sweep_1m(torus_fluid_fixture):
    """Greedy, then bandit, TE over 1M demands on a 256-router torus with
    link 1-2 at 1% capacity, three measurement intervals each."""
    reroutes = steers = 0
    for policy_name in ("greedy", "bandit"):
        sim, network, routes, engine, addresses = torus_fluid_fixture()
        owners = {int(address): dpid for dpid, address in addresses.items()}
        port_a, _port_b = network.ports_for_link(1, 2)
        network.switches[1].port(port_a).interface.link.bandwidth_bps *= 0.01
        te_spec = TESpec(policy=policy_name, engine="synthetic",
                         interval=5.0, threshold=0.3,
                         max_steers_per_tick=16, k_paths=4)
        controller = TEController(sim, network, FlowTableActuator(routes),
                                  spec=te_spec, policy=make_policy(te_spec),
                                  engine=engine, owner_of=owners.get)
        demands = uniform_demands(addresses, 1_000_000, rate_bps=1_000.0,
                                  seed=7)
        controller.start()
        engine.register(demands, schedule=False)
        engine.reallocate()
        sim.run(until=sim.now + 16.0)
        controller.stop()
        te_stats = controller.stats()
        reroutes += int(te_stats["reroutes"])
        steers += int(te_stats["steers"])
    stats = engine.stats()
    assert (int(stats["demands"]), int(stats["commodities"]),
            reroutes, steers) == (1_000_000, 65_280, 408, 81)
