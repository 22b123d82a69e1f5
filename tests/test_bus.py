"""Tests for the control-plane message bus (topics, channels)."""

import pytest

from repro.bus import (
    BusError,
    ChannelFaults,
    Discipline,
    MessageBus,
    topics,
)
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def bus(sim):
    return MessageBus(sim)


class TestDelivery:
    def test_delay_channel_delivers_after_latency(self, sim, bus):
        bus.channel("t", latency=0.5, discipline=Discipline.DELAY)
        seen = []
        bus.subscribe("t", lambda env: seen.append((sim.now, env.payload)))
        bus.publish("t", "hello")
        assert seen == []  # nothing before the latency elapses
        sim.run()
        assert seen == [(0.5, "hello")]

    def test_equal_timestamp_messages_deliver_in_publish_order(self, sim, bus):
        """The kernel breaks timestamp ties by schedule order, so messages
        published at the same instant arrive in publish order."""
        bus.channel("t", latency=0.25, discipline=Discipline.DELAY)
        seen = []
        bus.subscribe("t", lambda env: seen.append(env.payload))
        for index in range(20):
            bus.publish("t", f"m{index}")
        sim.run()
        assert seen == [f"m{index}" for index in range(20)]

    def test_publish_order_preserved_across_interleaved_topics(self, sim, bus):
        bus.channel("a", latency=0.1, discipline=Discipline.DELAY)
        bus.channel("b", latency=0.1, discipline=Discipline.DELAY)
        seen = []
        bus.subscribe("a", lambda env: seen.append(env.payload))
        bus.subscribe("b", lambda env: seen.append(env.payload))
        bus.publish("a", "1")
        bus.publish("b", "2")
        bus.publish("a", "3")
        sim.run()
        assert seen == ["1", "2", "3"]

    def test_direct_channel_delivers_synchronously(self, sim, bus):
        bus.channel("d", discipline=Discipline.DIRECT)
        seen = []
        bus.subscribe("d", lambda env: seen.append(sim.now))
        bus.publish("d", "x")
        assert seen == [0.0]          # delivered inside the publish call
        assert sim.pending() == 0     # and no kernel event was scheduled

    def test_delay_channel_same_burst_arrives_together(self, sim, bus):
        """Independent delays: a burst all lands at t+latency."""
        bus.channel("t", latency=1.0, discipline=Discipline.DELAY)
        seen = []
        bus.subscribe("t", lambda env: seen.append(sim.now))
        bus.publish("t", "a")
        bus.publish("t", "b")
        sim.run()
        assert seen == [1.0, 1.0]

    def test_per_publish_latency_override(self, sim, bus):
        bus.channel("t", latency=1.0, discipline=Discipline.DELAY)
        seen = []
        bus.subscribe("t", lambda env: seen.append((sim.now, env.payload)))
        bus.publish("t", "slow")
        bus.publish("t", "fast", latency=0.1)
        sim.run()
        assert seen == [(0.1, "fast"), (1.0, "slow")]

    def test_label_override_controls_kernel_event_label(self, sim, bus):
        bus.channel("t", latency=0.5, discipline=Discipline.DELAY,
                    label="bus:default")
        labels = []
        sim.add_trace_hook(lambda event: labels.append(event.name))
        bus.subscribe("t", lambda env: None)
        bus.publish("t", "x")
        bus.publish("t", "y", label="custom:label")
        sim.run()
        assert labels == ["bus:default", "custom:label"]

    def test_envelope_metadata(self, sim, bus):
        bus.channel("t", latency=0.5, discipline=Discipline.DELAY)
        seen = []
        bus.subscribe("t", seen.append)
        sim.run(until=2.0)
        bus.publish("t", "payload", sender="me")
        sim.run()
        (envelope,) = seen
        assert envelope.topic == "t"
        assert envelope.sender == "me"
        assert envelope.published_at == 2.0
        assert envelope.payload == "payload"

    def test_sequence_numbers_are_total_publish_order(self, sim, bus):
        bus.channel("a", discipline=Discipline.DIRECT)
        bus.channel("b", discipline=Discipline.DIRECT)
        seqs = []
        bus.subscribe("a", lambda env: seqs.append(env.seq))
        bus.subscribe("b", lambda env: seqs.append(env.seq))
        bus.publish("a", "1")
        bus.publish("b", "2")
        bus.publish("a", "3")
        assert seqs == sorted(seqs) and len(set(seqs)) == 3


class TestStats:
    def test_per_topic_counters_and_bytes(self, sim, bus):
        bus.channel("t", latency=0.5, discipline=Discipline.DELAY)
        bus.subscribe("t", lambda env: None)
        payloads = ["abc", "defgh", ""]
        for payload in payloads:
            bus.publish("t", payload)
        stats = bus.stats()["t"]
        assert stats["published"] == 3
        assert stats["delivered"] == 0
        assert stats["in_flight"] == 3
        assert stats["bytes_published"] == sum(len(p) for p in payloads)
        sim.run()
        stats = bus.stats()["t"]
        assert stats["delivered"] == 3
        assert stats["in_flight"] == 0
        assert stats["bytes_delivered"] == sum(len(p) for p in payloads)

    def test_messages_without_subscribers_count_as_dropped(self, sim, bus):
        bus.channel("void", discipline=Discipline.DIRECT)
        bus.publish("void", "lost")
        stats = bus.stats()["void"]
        assert stats["published"] == 1
        assert stats["dropped"] == 1
        assert stats["delivered"] == 0

    def test_dropped_splits_no_subscriber_from_fault(self, sim, bus):
        bus.channel("t", discipline=Discipline.DIRECT)
        bus.publish("t", "no listener")           # nobody subscribed
        bus.configure_faults("t", drop=1.0)
        bus.subscribe("t", lambda env: None)
        bus.publish("t", "eaten by the fault")    # dropped by injection
        stats = bus.stats()["t"]
        assert stats["dropped_no_subscriber"] == 1
        assert stats["dropped_fault"] == 1
        # The aggregate stays the historical sum of both.
        assert stats["dropped"] == 2
        assert bus.stats()["_totals"]["dropped"] == 2

    def test_totals_aggregate_topics(self, sim, bus):
        bus.channel("a", discipline=Discipline.DIRECT)
        bus.channel("b", discipline=Discipline.DIRECT)
        bus.subscribe("a", lambda env: None)
        bus.publish("a", "xx")
        bus.publish("b", "yyy")
        totals = bus.stats()["_totals"]
        assert totals["published"] == 2
        assert totals["delivered"] == 1
        assert totals["dropped"] == 1
        assert totals["bytes_published"] == 5
        assert totals["topics"] == 2


class TestConfiguration:
    def test_conflicting_redeclaration_rejected(self, sim, bus):
        bus.channel("t", latency=0.5, discipline=Discipline.DELAY)
        with pytest.raises(BusError, match="conflicting"):
            bus.channel("t", latency=0.7, discipline=Discipline.DELAY)
        with pytest.raises(BusError, match="conflicting"):
            bus.channel("t", latency=0.5, discipline=Discipline.DIRECT)
        # Identical redeclaration returns the same channel.
        assert bus.channel("t", latency=0.5,
                           discipline=Discipline.DELAY) is bus.channel(
            "t", latency=0.5, discipline=Discipline.DELAY)

    def test_conflicting_redeclaration_names_both_claimants(self, sim, bus):
        """The error must identify *both* sides of the conflict: who holds
        the channel and who tried to redeclare it."""
        bus.channel("t", latency=0.5, discipline=Discipline.DELAY,
                    label="rfserver:ipc")
        with pytest.raises(BusError) as excinfo:
            bus.channel("t", latency=0.7, discipline=Discipline.DELAY,
                        label="rfproxy:ipc")
        message = str(excinfo.value)
        assert "rfserver:ipc" in message and "rfproxy:ipc" in message
        assert "0.5" in message and "0.7" in message

    def test_direct_channel_with_latency_rejected(self, sim, bus):
        with pytest.raises(BusError, match="direct"):
            bus.channel("t", latency=0.5, discipline=Discipline.DIRECT)

    def test_unknown_discipline_rejected(self, sim, bus):
        for discipline in ("priority", "fifo"):
            with pytest.raises(BusError, match="discipline"):
                bus.channel("t", discipline=discipline)

    def test_subscribe_auto_creates_direct_channel(self, sim, bus):
        bus.subscribe("auto", lambda env: None)
        assert bus.has_channel("auto")
        assert bus.stats()["auto"]["discipline"] == Discipline.DIRECT

    def test_implicit_channel_is_refined_by_later_declaration(self, sim, bus):
        """Subscribing (or publishing) before the owner declares the topic
        must not freeze the channel's configuration."""
        seen = []
        bus.subscribe("t", lambda env: seen.append(sim.now))
        bus.publish("t", "early")          # implicit: direct, delivered now
        assert seen == [0.0]
        channel = bus.channel("t", latency=0.5, discipline=Discipline.DELAY)
        assert channel.latency == 0.5      # refined in place
        assert channel.subscribers         # subscribers survived
        assert bus.stats()["t"]["published"] == 1  # counters survived
        bus.publish("t", "late")
        sim.run()
        assert seen == [0.0, 0.5]
        # A second *explicit* conflicting declaration still fails.
        with pytest.raises(BusError, match="conflicting"):
            bus.channel("t", latency=0.9, discipline=Discipline.DELAY)


class TestFaultInjection:
    def test_faults_are_dormant_by_default(self, sim, bus):
        bus.channel("d", discipline=Discipline.DIRECT)
        seen = []
        bus.subscribe("d", lambda env: seen.append(sim.now))
        bus.publish("d", "x")
        assert seen == [0.0]          # still synchronous
        assert sim.pending() == 0     # still no kernel event
        snapshot = bus.stats()["d"]
        assert snapshot["dropped_fault"] == 0
        assert snapshot["fault_duplicated"] == 0

    def test_drop_probability_one_eats_everything(self, sim, bus):
        bus.configure_faults("t", drop=1.0)
        seen = []
        bus.subscribe("t", lambda env: seen.append(env.payload))
        for index in range(10):
            bus.publish("t", str(index))
        sim.run()
        assert seen == []
        assert bus.stats()["t"]["dropped_fault"] == 10

    def test_duplicate_probability_one_doubles_delivery(self, sim, bus):
        bus.channel("t", latency=0.1, discipline=Discipline.DELAY)
        bus.configure_faults("t", duplicate=1.0)
        seen = []
        bus.subscribe("t", lambda env: seen.append(env.payload))
        bus.publish("t", "x")
        sim.run()
        assert seen == ["x", "x"]
        stats = bus.stats()["t"]
        assert stats["fault_duplicated"] == 1
        assert stats["delivered"] == 2
        assert stats["in_flight"] == 0

    def test_jitter_delays_direct_channels(self, sim, bus):
        bus.channel("d", discipline=Discipline.DIRECT)
        bus.configure_faults("d", jitter=0.5)
        seen = []
        bus.subscribe("d", lambda env: seen.append(sim.now))
        bus.publish("d", "x")
        assert seen == []             # jitter forced a scheduled delivery
        sim.run()
        assert len(seen) == 1 and 0.0 < seen[0] <= 0.5

    def test_fault_streams_deterministic_in_seed(self, sim):
        def run(seed):
            sim = Simulator()
            bus = MessageBus(sim, fault_seed=seed)
            bus.configure_faults("t", drop=0.3, duplicate=0.2, jitter=0.1)
            seen = []
            bus.subscribe("t", lambda env: seen.append((sim.now, env.payload)))
            for index in range(50):
                bus.publish("t", str(index))
            sim.run()
            return seen

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_pattern_matching_last_wins_and_covers_acks(self, sim, bus):
        bus.configure_faults("routeflow.*", drop=0.5)
        bus.configure_faults("routeflow.heartbeat", drop=0.0, jitter=1.0)
        assert bus.faults_for("routeflow.mapping").drop == 0.5
        hb = bus.faults_for("routeflow.heartbeat")
        assert hb.drop == 0.0 and hb.jitter == 1.0
        # Ack companion topics inherit the data topic's profile.
        assert bus.faults_for("routeflow.mapping.ack").drop == 0.5

    def test_clear_faults_restores_losslessness(self, sim, bus):
        bus.configure_faults("t", drop=1.0)
        bus.clear_faults("t")
        seen = []
        bus.subscribe("t", lambda env: seen.append(env.payload))
        bus.publish("t", "x")
        assert seen == ["x"]

    def test_channel_faults_validation(self):
        with pytest.raises(ValueError):
            ChannelFaults(drop=1.5)
        with pytest.raises(ValueError):
            ChannelFaults(jitter=-0.1)
        with pytest.raises(ValueError):
            ChannelFaults.from_dict({"latency": 0.5})  # unknown key


class TestPartitions:
    def test_partition_blocks_only_the_pair(self, sim, bus):
        seen = []
        bus.subscribe("t", lambda env: seen.append(env.payload),
                      endpoint="plane")
        bus.partition("shard:0", "plane")
        bus.publish("t", "blocked", endpoint="shard:0")
        bus.publish("t", "passes", endpoint="shard:1")
        assert seen == ["passes"]
        stats = bus.stats()["t"]
        assert stats["partitioned"] == 1
        assert stats["dropped_fault"] == 1

    def test_partition_never_blocks_unattributed_traffic(self, sim, bus):
        seen = []
        bus.subscribe("t", lambda env: seen.append(env.payload),
                      endpoint="plane")
        bus.partition("shard:0", "plane")
        bus.publish("t", "anonymous")   # no endpoint -> never filtered
        assert seen == ["anonymous"]

    def test_heal_partition(self, sim, bus):
        seen = []
        bus.subscribe("t", lambda env: seen.append(env.payload),
                      endpoint="plane")
        bus.partition("shard:0", "plane")
        bus.heal_partition("shard:0", "plane")
        bus.publish("t", "x", endpoint="shard:0")
        assert seen == ["x"]
        assert not bus.partitions


class TestWellKnownTopics:
    def test_sharded_topics_carry_the_shard_index(self):
        assert topics.route_mods_topic(0) != topics.route_mods_topic(1)
        assert topics.flow_specs_topic(2).endswith(".2")
        assert topics.MAPPING != topics.PORT_STATUS


class TestCounters:
    """``COUNTERS`` is the one list of a channel's counters: every topic's
    snapshot reports each of them and ``_totals`` sums each over topics."""

    LOSSY = {"routeflow.*": {"drop": 0.05, "duplicate": 0.02,
                             "reorder": 0.05, "jitter": 0.02},
             "config.rpc": {"drop": 0.05, "duplicate": 0.02,
                            "reorder": 0.05, "jitter": 0.02}}

    def test_snapshots_and_totals_cover_every_counter(self):
        from dataclasses import replace

        from repro.bus.bus import COUNTERS
        from repro.experiments import ScenarioRun
        from repro.scenarios import get

        spec = replace(get("ring-16-c2"),
                       framework={"bus_faults": self.LOSSY,
                                  "bus_fault_seed": 1})
        run = ScenarioRun(spec.build_topology(), spec.framework_config())
        assert run.framework.reliable_ipc
        assert run.configure(spec.max_time) is not None
        stats = run.framework.bus.stats()
        totals = stats.pop("_totals")
        assert set(totals) == set(COUNTERS) | {"dropped", "topics"}
        for snapshot in stats.values():
            assert set(snapshot) == set(COUNTERS) | {
                "dropped", "in_flight", "latency", "discipline",
                "subscribers"}
        for name in COUNTERS + ("dropped",):
            assert totals[name] == sum(s[name] for s in stats.values()), name
        assert totals["topics"] == len(stats)
        # The run was lossy and the reliable layer repaired it.
        for name in ("published", "dropped_fault", "retransmits", "acked"):
            assert totals[name] > 0, name
