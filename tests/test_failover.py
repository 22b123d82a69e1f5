"""End-to-end failure-resilience tests: withdrawals through every layer.

The invariant test required by the failure-injection milestone: after an
arbitrary failure schedule runs against ring / torus / fat-tree scenarios,
every router's RIB OSPF candidates must exactly equal its latest SPF
result — no stale next hops, no leaked candidates — and the failover
harness must report finite reconvergence times.
"""

from __future__ import annotations

import csv

import pytest

from repro.experiments import (
    run_failover,
    verify_spf_rib_consistency,
    write_failover_csv,
    write_json,
)
from repro.experiments.run import ScenarioRun
from repro.net import IPv4Address, IPv4Network
from repro.quagga import InterfaceConfig, OSPFNetworkStatement, generate_ospfd_conf, generate_zebra_conf
from repro.quagga.ospf.constants import MAX_AGE
from repro.routeflow import RFVirtualSwitch, VirtualMachine
from repro.scenarios import FailureAction, FailureSchedule, ScenarioSpec
from repro.sim import Simulator

#: Fast protocol/boot timers so the failover runs stay test-suite friendly.
FAST = {"vm_boot_delay": 1.0, "ospf_hello_interval": 2,
        "ospf_dead_interval": 8}

#: The acceptance scenarios: one per required topology family.
SCENARIOS = [
    ScenarioSpec("fo-ring-4", "ring", {"num_switches": 4}, framework=FAST,
                 max_time=600.0),
    ScenarioSpec("fo-grid-3x3", "torus", {"rows": 3, "cols": 3, "wrap": False},
                 framework=FAST, max_time=600.0),
    ScenarioSpec("fo-fat-tree-k4", "fat-tree", {"k": 4}, framework=FAST,
                 max_time=600.0),
]


def churn_for(spec: ScenarioSpec, failures: int = 2,
              seed: int = 11) -> FailureSchedule:
    links = [(link.node_a, link.node_b)
             for link in spec.build_topology().links]
    return FailureSchedule.random_churn(links, failures=failures, seed=seed,
                                        start=5.0, spacing=40.0, recovery=20.0)


class TestFailoverInvariant:
    @pytest.mark.parametrize("spec", SCENARIOS, ids=lambda s: s.name)
    def test_rib_matches_spf_after_churn(self, spec):
        result = run_failover(spec, schedule=churn_for(spec), settle=12.0)
        assert result.configured
        assert result.settled
        assert result.invariant_violations == []
        assert result.reconverged
        assert len(result.events) == 4  # 2 failures x (down + up)
        for event in result.events:
            assert event.reconverge_seconds >= 0.0
            assert event.reconverge_seconds < 40.0  # finite, inside the window

    def test_link_down_reroutes_and_withdraws_everywhere(self):
        spec = SCENARIOS[0]
        schedule = FailureSchedule.single_link_failure(1, 2, at=5.0)
        result = run_failover(spec, schedule=schedule, settle=12.0)
        assert result.configured
        assert result.invariant_violations == []
        down = result.events[0]
        assert down.route_changes > 0

    def test_a_frame_sent_into_the_dead_link_is_counted(self, monkeypatch):
        """``frames_lost`` is the drop-counter delta over the event's
        window: one frame sent into the failed link a second after the
        failure adds exactly one to that event and none to the next."""
        spec = SCENARIOS[0]
        schedule = FailureSchedule.single_link_failure(1, 2, at=5.0,
                                                       restore_after=40.0)
        quiet = run_failover(spec, schedule=schedule, settle=12.0)
        mirror_failures = ScenarioRun.mirror_failures

        def mirror_and_send(run):
            mirror_failures(run)
            port, _ = run.network.ports_for_link(1, 2)
            interface = run.network.switch(1).port(port).interface

            def send_into_dead_link(event):
                if event.action == FailureAction.LINK_DOWN:
                    run.sim.schedule(1.0, interface.send, bytes(64))

            run.network.add_failure_listener(send_into_dead_link)

        monkeypatch.setattr(ScenarioRun, "mirror_failures", mirror_and_send)
        sent = run_failover(spec, schedule=schedule, settle=12.0)
        assert [event.frames_lost for event in sent.events] == [
            quiet.events[0].frames_lost + 1, quiet.events[1].frames_lost]

    def test_failure_after_max_age_matches_early_failure(self):
        """LSRefreshTime keeps every LSA younger than MaxAge in a quiet
        area, so a failure long after configuration reroutes exactly like
        the same failure early on — no area-wide flush of aged LSAs."""
        spec = SCENARIOS[0]
        early, late = (
            run_failover(spec, schedule=FailureSchedule.single_link_failure(
                1, 2, at=at), settle=12.0).events[0]
            for at in (5.0, MAX_AGE + 100.0))
        assert late.route_changes == early.route_changes > 0
        assert late.frames_lost == early.frames_lost


class TestFailoverMeasurements:
    def run_ring(self):
        spec = SCENARIOS[0]
        schedule = FailureSchedule.single_link_failure(1, 2, at=5.0,
                                                       restore_after=40.0)
        return run_failover(spec, schedule=schedule, settle=12.0)

    def test_uses_the_spec_schedule_when_none_is_passed(self):
        spec = ScenarioSpec(
            "fo-ring-sched", "ring", {"num_switches": 4}, framework=FAST,
            max_time=600.0,
            failures=FailureSchedule.single_link_failure(2, 3, at=5.0))
        result = run_failover(spec, settle=12.0)
        assert len(result.events) == 1
        assert result.invariant_violations == []

    def test_requires_some_schedule(self):
        with pytest.raises(ValueError):
            run_failover(SCENARIOS[0])

    def test_unknown_targets_fail_before_the_simulation_runs(self):
        from repro.scenarios import FailureScheduleError
        bogus = FailureSchedule.single_link_failure(1, 99, at=5.0)
        before = __import__("time").perf_counter()
        with pytest.raises(FailureScheduleError):
            run_failover(SCENARIOS[0], schedule=bogus)
        # Validation happens up front, not after configuring the network.
        assert __import__("time").perf_counter() - before < 1.0

    def test_churn_generated_against_the_run_topology(self):
        result = run_failover(SCENARIOS[0], churn=1, churn_seed=3,
                              churn_spacing=40.0, churn_recovery=20.0,
                              settle=12.0)
        assert len(result.events) == 2
        assert result.reconverged

    def test_export_round_trip(self, tmp_path):
        result = self.run_ring()
        json_path = write_json([result], tmp_path / "fo.json")
        csv_path = write_failover_csv([result], tmp_path / "fo.csv")
        assert json_path.exists()
        with csv_path.open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(result.events) == 2
        assert rows[0]["action"] == "link_down"
        assert float(rows[0]["reconverge_seconds"]) >= 0.0
        # Satellite requirement: drop/delivery counters ride on the export.
        assert int(rows[0]["frames_dropped"]) == \
            result.link_stats["frames_dropped"]
        assert int(rows[0]["frames_delivered"]) > 0


def build_line_vms():
    """Three VMs in a line over the RouteFlow virtual switch (no OpenFlow)."""
    sim = Simulator()
    rfvs = RFVirtualSwitch(sim)
    vms = {index: VirtualMachine(sim, vm_id=index, num_ports=2, boot_delay=1.0)
           for index in (1, 2, 3)}
    rfvs.connect(vms[1].interface("eth1"), vms[2].interface("eth1"))
    rfvs.connect(vms[2].interface("eth2"), vms[3].interface("eth1"))
    layout = {
        1: ("10.0.0.1", [("eth1", "172.16.0.1", 30)]),
        2: ("10.0.0.2", [("eth1", "172.16.0.2", 30), ("eth2", "172.16.0.5", 30)]),
        3: ("10.0.0.3", [("eth1", "172.16.0.6", 30), ("eth2", "192.168.3.1", 24)]),
    }
    for vm_id, (router_id, interfaces) in layout.items():
        vm = vms[vm_id]
        iface_configs = [InterfaceConfig(name, IPv4Address(ip), plen)
                         for name, ip, plen in interfaces]
        vm.write_config_file("zebra.conf",
                             generate_zebra_conf(vm.name, iface_configs))
        statements = [OSPFNetworkStatement(IPv4Network((IPv4Address(ip), plen)))
                      for _, ip, plen in interfaces]
        vm.write_config_file("ospfd.conf", generate_ospfd_conf(
            f"{vm.name}-ospfd", IPv4Address(router_id), statements,
            hello_interval=2, dead_interval=8))
        vm.start()
    return sim, rfvs, vms


class TestQuaggaLayerFailures:
    """Failure handling inside the Quagga substrate, below RouteFlow."""

    def test_wire_down_withdraws_routes_through_the_area(self):
        sim, rfvs, vms = build_line_vms()
        sim.run(until=30.0)
        remote = IPv4Network("192.168.3.0/24")
        assert remote in vms[1].zebra.fib
        rfvs.set_wire_state(vms[2].interface("eth2"),
                            vms[3].interface("eth1"), up=False)
        sim.run(until=45.0)
        # VM 3 is unreachable: its prefix and the 2<->3 link prefix vanish.
        assert remote not in vms[1].zebra.fib
        assert IPv4Network("172.16.0.4/30") not in vms[1].zebra.fib
        assert verify_spf_rib_consistency_like(vms) == []

    def test_wire_recovery_restores_the_routes(self):
        sim, rfvs, vms = build_line_vms()
        sim.run(until=30.0)
        rfvs.set_wire_state(vms[2].interface("eth2"),
                            vms[3].interface("eth1"), up=False)
        sim.run(until=45.0)
        rfvs.set_wire_state(vms[2].interface("eth2"),
                            vms[3].interface("eth1"), up=True)
        sim.run(until=75.0)
        assert IPv4Network("192.168.3.0/24") in vms[1].zebra.fib
        assert verify_spf_rib_consistency_like(vms) == []

    def test_daemon_stop_floods_a_maxage_flush(self):
        sim, rfvs, vms = build_line_vms()
        sim.run(until=30.0)
        rid3 = IPv4Address("10.0.0.3")
        assert vms[1].ospf.lsdb.router_lsa(rid3) is not None
        vms[3].ospf.stop()
        sim.run(until=33.0)
        # The premature-aging flush removed VM 3's LSA area-wide without
        # waiting for dead intervals.
        assert vms[1].ospf.lsdb.router_lsa(rid3) is None
        assert vms[2].ospf.lsdb.router_lsa(rid3) is None
        sim.run(until=45.0)
        assert IPv4Network("192.168.3.0/24") not in vms[1].zebra.fib

    def test_interface_down_is_idempotent_and_reversible(self):
        sim, rfvs, vms = build_line_vms()
        sim.run(until=30.0)
        daemon = vms[2].ospf
        daemon.interface_down("eth2")
        daemon.interface_down("eth2")  # second call is a no-op
        assert not daemon.interfaces["eth2"].up
        sim.run(until=45.0)
        assert IPv4Network("192.168.3.0/24") not in vms[2].zebra.fib
        daemon.interface_up("eth2")
        sim.run(until=75.0)
        assert IPv4Network("192.168.3.0/24") in vms[2].zebra.fib


def verify_spf_rib_consistency_like(vms):
    """The failover invariant, applied to bare VMs (no RFServer)."""

    class _Stub:
        def __init__(self, vms):
            self.vms = vms

    return verify_spf_rib_consistency(_Stub(vms))
