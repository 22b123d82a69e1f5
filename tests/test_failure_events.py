"""Tests for the declarative failure subsystem and its emulator execution."""

from __future__ import annotations

import pickle

import pytest

from repro.scenarios import (
    FailureAction,
    FailureEvent,
    FailureSchedule,
    FailureScheduleError,
    ScenarioSpec,
)
from repro.sim import Simulator
from repro.topology.emulator import EmulatedNetwork
from repro.topology.generators import ring_topology


class TestFailureEvent:
    def test_link_event_requires_two_distinct_endpoints(self):
        with pytest.raises(FailureScheduleError):
            FailureEvent(1.0, FailureAction.LINK_DOWN, 1)
        with pytest.raises(FailureScheduleError):
            FailureEvent(1.0, FailureAction.LINK_DOWN, 2, 2)

    def test_node_event_rejects_a_second_endpoint(self):
        with pytest.raises(FailureScheduleError):
            FailureEvent(1.0, FailureAction.NODE_DOWN, 1, 2)

    def test_rejects_negative_time_and_unknown_action(self):
        with pytest.raises(FailureScheduleError):
            FailureEvent(-1.0, FailureAction.LINK_DOWN, 1, 2)
        with pytest.raises(FailureScheduleError):
            FailureEvent(1.0, "explode", 1, 2)

    def test_round_trips_through_plain_data(self):
        event = FailureEvent(12.5, FailureAction.LINK_DOWN, 3, 7)
        assert FailureEvent.from_dict(event.to_dict()) == event
        node = FailureEvent(1.0, FailureAction.NODE_UP, 4)
        assert FailureEvent.from_dict(node.to_dict()) == node

    def test_describe(self):
        assert FailureEvent(60.0, FailureAction.LINK_DOWN, 1, 2).describe() \
            == "link_down 1<->2 @ 60s"
        assert FailureEvent(5.0, FailureAction.NODE_DOWN, 9).describe() \
            == "node_down 9 @ 5s"


class TestFailureSchedule:
    def test_events_sort_by_time(self):
        schedule = FailureSchedule((
            FailureEvent(30.0, FailureAction.LINK_UP, 1, 2),
            FailureEvent(10.0, FailureAction.LINK_DOWN, 1, 2),
        ))
        assert [e.time for e in schedule] == [10.0, 30.0]
        assert schedule.duration == 30.0

    def test_single_link_failure_constructor(self):
        schedule = FailureSchedule.single_link_failure(1, 2, at=5.0,
                                                       restore_after=20.0)
        assert [e.action for e in schedule] == [FailureAction.LINK_DOWN,
                                                FailureAction.LINK_UP]
        assert schedule.events[1].time == 25.0

    def test_random_churn_is_deterministic_per_seed(self):
        links = [(1, 2), (2, 3), (3, 4), (4, 1)]
        first = FailureSchedule.random_churn(links, failures=5, seed=42)
        again = FailureSchedule.random_churn(links, failures=5, seed=42)
        other = FailureSchedule.random_churn(links, failures=5, seed=43)
        assert first == again
        assert first != other
        assert len(first) == 10  # one down + one up per failure

    def test_random_churn_recovers_before_the_next_failure(self):
        schedule = FailureSchedule.random_churn([(1, 2)], failures=3, seed=0,
                                                spacing=60.0, recovery=30.0)
        downs = [e for e in schedule if e.action == FailureAction.LINK_DOWN]
        ups = [e for e in schedule if e.action == FailureAction.LINK_UP]
        for down, up in zip(downs, ups):
            assert up.time == down.time + 30.0

    def test_random_churn_validation(self):
        with pytest.raises(FailureScheduleError):
            FailureSchedule.random_churn([], failures=1)
        with pytest.raises(FailureScheduleError):
            FailureSchedule.random_churn([(1, 2)], failures=1, spacing=10.0,
                                         recovery=10.0)

    def test_round_trips_through_plain_data(self):
        schedule = FailureSchedule.random_churn([(1, 2), (2, 3)], failures=3,
                                                seed=9)
        assert FailureSchedule.from_list(schedule.to_list()) == schedule

    def test_rides_on_a_scenario_spec(self):
        schedule = FailureSchedule.single_link_failure(1, 2, at=60.0)
        spec = ScenarioSpec("fail-ring", "ring", {"num_switches": 4},
                            failures=schedule)
        # Sweep workers receive specs pickled.
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.failures == schedule
        assert hash(clone) == hash(spec)
        assert ScenarioSpec("s", "ring", {"num_switches": 4}).failures is None


class TestEmulatorExecution:
    def build(self):
        sim = Simulator()
        network = EmulatedNetwork(sim, ring_topology(4))
        return sim, network

    def link_between(self, network, node_a, node_b):
        port_a, _ = network.ports_for_link(node_a, node_b)
        return network.switches[node_a].port(port_a).interface.link

    def test_schedule_executes_as_kernel_events(self):
        sim, network = self.build()
        schedule = FailureSchedule.single_link_failure(1, 2, at=10.0,
                                                       restore_after=20.0)
        assert network.schedule_failures(schedule) == 2
        link = self.link_between(network, 1, 2)
        sim.run(until=5.0)
        assert link.up
        sim.run(until=15.0)
        assert not link.up
        sim.run(until=31.0)
        assert link.up
        assert network.failures_applied == 2

    def test_node_down_drops_every_incident_link(self):
        sim, network = self.build()
        network.schedule_failures(FailureSchedule((
            FailureEvent(1.0, FailureAction.NODE_DOWN, 2),
            FailureEvent(2.0, FailureAction.NODE_UP, 2),
        )))
        sim.run(until=1.5)
        incident = [self.link_between(network, a, b)
                    for a, b in network.links_of(2)]
        assert len(incident) == 2
        assert all(not link.up for link in incident)
        other = self.link_between(network, 3, 4)
        assert other.up
        sim.run(until=2.5)
        assert all(link.up for link in incident)

    def test_node_recovery_does_not_resurrect_a_failed_neighbor_link(self):
        sim, network = self.build()
        network.fail_node(2)
        network.fail_node(3)
        network.restore_node(2)
        # 2<->3 must stay down (3 is still failed); 1<->2 comes back.
        assert not self.link_between(network, 2, 3).up
        assert self.link_between(network, 1, 2).up
        network.restore_node(3)
        assert self.link_between(network, 2, 3).up

    def test_node_recovery_does_not_cancel_an_explicit_link_failure(self):
        sim, network = self.build()
        network.fail_link(1, 2)
        network.fail_node(1)
        network.restore_node(1)
        assert not self.link_between(network, 1, 2).up  # still explicitly failed
        network.restore_link(1, 2)
        assert self.link_between(network, 1, 2).up

    def test_schedule_targets_validate_before_arming(self):
        sim, network = self.build()
        with pytest.raises(FailureScheduleError):
            network.schedule_failures(
                FailureSchedule.single_link_failure(1, 9, at=1.0))
        with pytest.raises(FailureScheduleError):
            network.schedule_failures(FailureSchedule((
                FailureEvent(1.0, FailureAction.NODE_DOWN, 99),)))
        assert sim.pending() == 0 or network.failures_applied == 0

    def test_failure_listeners_observe_executed_events(self):
        sim, network = self.build()
        seen = []
        network.add_failure_listener(lambda event: seen.append(event.action))
        network.schedule_failures(FailureSchedule.single_link_failure(
            1, 2, at=1.0, restore_after=1.0))
        sim.run(until=5.0)
        assert seen == [FailureAction.LINK_DOWN, FailureAction.LINK_UP]

    def test_stats_count_drops_on_a_dead_link(self):
        sim, network = self.build()
        link = self.link_between(network, 1, 2)
        iface = link.iface_a
        iface.send(b"x" * 64)
        sim.run(until=0.1)
        before = network.stats()
        assert before["frames_delivered"] >= 1
        link.set_down()
        iface.send(b"y" * 64)
        sim.run(until=0.2)
        after = network.stats()
        assert after["frames_dropped"] == before["frames_dropped"] + 1
        assert after["link_dropped_frames"] == before["link_dropped_frames"] + 1


class TestCarrierNotifications:
    def test_link_state_changes_notify_both_interfaces_once(self):
        sim, network = Simulator(), None
        network = EmulatedNetwork(sim, ring_topology(3))
        port_a, _ = network.ports_for_link(1, 2)
        link = network.switches[1].port(port_a).interface.link
        seen = []
        link.iface_a.add_carrier_listener(
            lambda iface, up: seen.append(("a", up)))
        link.iface_b.add_carrier_listener(
            lambda iface, up: seen.append(("b", up)))
        link.set_down()
        link.set_down()  # idempotent: no duplicate notification
        link.set_up()
        assert seen == [("a", False), ("b", False), ("a", True), ("b", True)]
