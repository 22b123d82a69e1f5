"""Tests for the reliable-delivery layer (ack/retransmit/dedup/window).

The layer is opt-in: without :meth:`MessageBus.enable_reliability` the
acquire/consume helpers degrade to passthrough shims whose bus calls are
bit-identical to the bare API (the golden traces pin this).  With it, the
critical topics get at-least-once transport plus idempotent consumption:
exactly-once, in-order application per sender under any mix of drops,
duplicates, reordering and jitter the fault layer can inject.
"""

import json
from types import SimpleNamespace

import pytest

from repro.bus import (
    Discipline,
    MessageBus,
    PassthroughPublisher,
    ReliablePolicy,
    ReliablePublisher,
    acquire_publisher,
    consume,
)
from repro.bus import envelope as envelope_module
from repro.bus.envelope import (
    RMSG_KIND, Envelope, ack_payload, parse_ack, wrap)
from repro.bus.reliable import ack_topic
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


def reliable_bus(sim, policies=(("t", ReliablePolicy()),), **bus_kwargs):
    bus = MessageBus(sim, **bus_kwargs)
    bus.enable_reliability(policies)
    return bus


class TestOptIn:
    def test_disabled_bus_hands_out_passthrough(self, sim):
        bus = MessageBus(sim)
        publisher = acquire_publisher(bus, "t", "me")
        assert isinstance(publisher, PassthroughPublisher)
        assert not publisher.is_reliable
        seen = []
        consume(bus, "t", lambda env: seen.append(env.payload))
        publisher.publish("raw bytes")
        assert seen == ["raw bytes"]          # no wrapper on the wire
        assert not bus.has_channel(ack_topic("t"))
        assert sim.pending() == 0             # no timers armed

    def test_uncovered_topic_stays_passthrough(self, sim):
        bus = reliable_bus(sim, policies=(("covered", ReliablePolicy()),))
        assert isinstance(acquire_publisher(bus, "other", "me"),
                          PassthroughPublisher)
        assert isinstance(acquire_publisher(bus, "covered", "me"),
                          ReliablePublisher)

    def test_ack_topics_are_never_themselves_reliable(self, sim):
        bus = reliable_bus(sim, policies=(("t*", ReliablePolicy()),))
        assert bus.reliability_for("t") is not None
        assert bus.reliability_for(ack_topic("t")) is None


class TestAckProtocol:
    def test_lossless_roundtrip_acks_and_drains(self, sim):
        bus = reliable_bus(sim)
        seen = []
        consume(bus, "t", lambda env: seen.append(env.payload))
        publisher = acquire_publisher(bus, "t", "me")
        publisher.publish("a")
        publisher.publish("b")
        assert seen == ["a", "b"]             # direct channel: synchronous
        assert publisher.pending == 0         # acked synchronously too
        stats = bus.stats()["t"]
        assert stats["acked"] == 2
        assert stats["retransmits"] == 0

    def test_consumer_sees_inner_payload_not_wrapper(self, sim):
        bus = reliable_bus(sim)
        seen = []
        consume(bus, "t", lambda env: seen.append(env))
        acquire_publisher(bus, "t", "me").publish('{"kind": "route_mod"}')
        (envelope,) = seen
        assert envelope.payload == '{"kind": "route_mod"}'
        assert envelope.topic == "t"

    def test_drop_is_repaired_by_retransmit(self, sim):
        bus = reliable_bus(sim)
        bus.channel("t", latency=0.1, discipline=Discipline.DELAY)
        seen = []
        consume(bus, "t", lambda env: seen.append(env.payload))
        publisher = acquire_publisher(bus, "t", "me")
        bus.configure_faults("t", drop=1.0)
        publisher.publish("x")
        bus.clear_faults("t")                 # outage ends; RTO re-offers
        sim.run()
        assert seen == ["x"]
        assert publisher.pending == 0
        assert bus.stats()["t"]["retransmits"] >= 1

    def test_duplicates_applied_once_and_reacked(self, sim):
        bus = reliable_bus(sim)
        bus.channel("t", latency=0.1, discipline=Discipline.DELAY)
        bus.configure_faults("t", duplicate=1.0)
        seen = []
        consume(bus, "t", lambda env: seen.append(env.payload))
        publisher = acquire_publisher(bus, "t", "me")
        publisher.publish("x")
        sim.run()
        assert seen == ["x"]                  # applied exactly once
        assert publisher.pending == 0
        assert bus.stats()["t"]["rx_duplicates"] >= 1

    def test_reordered_burst_applied_in_sequence(self, sim):
        bus = reliable_bus(sim)
        bus.channel("t", latency=0.1, discipline=Discipline.DELAY)
        bus.configure_faults("t", reorder=0.8, reorder_delay=0.3)
        seen = []
        consume(bus, "t", lambda env: seen.append(env.payload))
        publisher = acquire_publisher(bus, "t", "me")
        sent = [str(index) for index in range(30)]
        for payload in sent:
            publisher.publish(payload)
        sim.run()
        assert seen == sent
        assert publisher.pending == 0

    def test_out_of_window_message_is_refused_without_ack(self, sim):
        bus = reliable_bus(sim, policies=(("t", ReliablePolicy(window=2)),))
        seen = []
        acks = []
        consume(bus, "t", lambda env: seen.append(env.payload))
        bus.subscribe(ack_topic("t"), lambda env: acks.append(env.payload))
        # Hand-crafted stream: seq 5 with base 1 while 1..4 never arrived.
        bus.publish("t", wrap("me", 1, 1, 5, "early"), sender="me")
        assert seen == []
        assert acks == []                     # refusal leaves it unacked
        assert bus.stats()["t"]["rx_out_of_window"] == 1
        # Once the gap fills, the stream advances normally.
        bus.publish("t", wrap("me", 1, 1, 1, "one"), sender="me")
        bus.publish("t", wrap("me", 1, 1, 2, "two"), sender="me")
        assert seen == ["one", "two"]

    def test_inactive_consumer_neither_applies_nor_acks(self, sim):
        bus = reliable_bus(sim)
        seen = []
        consume(bus, "t", lambda env: seen.append(env.payload),
                active=lambda: False)
        publisher = acquire_publisher(bus, "t", "me")
        publisher.publish("x")
        assert seen == []
        assert publisher.pending == 1         # still awaiting an ack

    def test_plain_payloads_pass_through_a_reliable_consumer(self, sim):
        bus = reliable_bus(sim)
        seen = []
        consume(bus, "t", lambda env: seen.append(env.payload))
        bus.publish("t", "not json at all")
        bus.publish("t", '{"kind": "route_mod"}')
        assert seen == ["not json at all", '{"kind": "route_mod"}']


class TestExhaustion:
    def test_budget_exhaustion_fires_escape_hatch(self, sim):
        policy = ReliablePolicy(max_retries=2, min_rto=0.1, max_rto=0.5)
        bus = reliable_bus(sim, policies=(("t", policy),))
        consume(bus, "t", lambda env: None, active=lambda: False)
        resyncs = []
        publisher = acquire_publisher(bus, "t", "me",
                                      on_exhausted=lambda: resyncs.append(1))
        publisher.publish("doomed")
        sim.run()
        assert resyncs == [1]
        assert publisher.pending == 0
        assert publisher.incarnation == 2
        assert bus.stats()["t"]["exhausted"] == 1
        assert bus.stats()["t"]["retransmits"] == 2

    def test_messages_after_exhaustion_flow_again(self, sim):
        policy = ReliablePolicy(max_retries=1, min_rto=0.1, max_rto=0.2)
        bus = reliable_bus(sim, policies=(("t", policy),))
        alive = [False]
        seen = []
        consume(bus, "t", lambda env: seen.append(env.payload),
                active=lambda: alive[0])
        publisher = acquire_publisher(bus, "t", "me")
        publisher.publish("lost to the outage")
        sim.run()
        assert publisher.incarnation == 2
        alive[0] = True
        publisher.publish("fresh start")
        assert seen == ["fresh start"]
        assert publisher.pending == 0


class TestRetarget:
    def test_pending_window_migrates_to_the_new_topic(self, sim):
        bus = reliable_bus(sim, policies=(("shard.*", ReliablePolicy()),))
        old_seen, new_seen = [], []
        consume(bus, "shard.0", lambda env: old_seen.append(env.payload),
                active=lambda: False)          # old shard is dead
        consume(bus, "shard.1", lambda env: new_seen.append(env.payload))
        publisher = acquire_publisher(bus, "shard.0", "me")
        publisher.publish("a")
        publisher.publish("b")
        assert publisher.pending == 2
        publisher.retarget("shard.1")
        assert publisher.topic == "shard.1"
        assert publisher.incarnation == 2
        assert new_seen == ["a", "b"]          # re-published in order
        assert publisher.pending == 0          # new shard acked them

    def test_lost_ack_migrates_as_a_duplicate_not_a_loss(self, sim):
        """An applied-but-unacked message rides the retarget: the new shard
        receives it again (at-least-once across the migration), which is
        why the component-level consumers must stay idempotent."""
        bus = reliable_bus(sim, policies=(("shard.*", ReliablePolicy()),))
        old_seen, new_seen = [], []
        consume(bus, "shard.0", lambda env: old_seen.append(env.payload))
        consume(bus, "shard.1", lambda env: new_seen.append(env.payload))
        publisher = acquire_publisher(bus, "shard.0", "me")
        bus.configure_faults(ack_topic("shard.0"), drop=1.0)
        publisher.publish("applied but unacked")
        assert old_seen == ["applied but unacked"]
        assert publisher.pending == 1          # the ack never came back
        publisher.retarget("shard.1")
        assert new_seen == ["applied but unacked"]
        assert publisher.pending == 0

    def test_out_of_order_ack_then_retarget_leaves_no_holes(self, sim):
        """Regression: seqs the old shard acked *out of order* must not
        become permanent gaps in the new incarnation.  m1's first tx is
        lost, so the old shard acks-and-buffers m2/m3 behind the gap;
        they are in doubt (received, never applied) and must ride the
        migration, renumbered so the new stream has no holes — without
        this, the new consumer delivered only m1 and held every later
        message in its reorder buffer forever."""
        bus = reliable_bus(sim, policies=(("shard.*", ReliablePolicy()),))
        old_seen, new_seen = [], []
        consume(bus, "shard.0", lambda env: old_seen.append(env.payload))
        consume(bus, "shard.1", lambda env: new_seen.append(env.payload))
        publisher = acquire_publisher(bus, "shard.0", "me")
        bus.configure_faults("shard.0", drop=1.0)
        publisher.publish("m1")                # lost on the wire
        bus.clear_faults("shard.0")
        publisher.publish("m2")                # acked+buffered at old shard
        publisher.publish("m3")
        assert old_seen == []
        assert publisher.pending == 1          # only m1 awaits its ack
        assert bus.stats()["shard.0"]["rx_out_of_order"] == 2
        publisher.retarget("shard.1")
        publisher.publish("m4")
        publisher.publish("m5")
        assert new_seen == ["m1", "m2", "m3", "m4", "m5"]
        assert publisher.pending == 0
        sim.run()                              # no retransmit stragglers
        assert new_seen == ["m1", "m2", "m3", "m4", "m5"]

    def test_repeated_migration_does_not_stack_ack_subscriptions(self, sim):
        """Regression: migrating back to a previously-used topic must not
        register a duplicate ack subscription (churn would grow them
        without bound); the publisher listens on its current topic only."""
        bus = reliable_bus(sim, policies=(("shard.*", ReliablePolicy()),))
        seen = []
        consume(bus, "shard.0", lambda env: seen.append(env.payload))
        consume(bus, "shard.1", lambda env: seen.append(env.payload))
        publisher = acquire_publisher(bus, "shard.0", "me")
        for _ in range(5):
            publisher.retarget("shard.1")
            publisher.retarget("shard.0")
        stats = bus.stats()
        assert stats[ack_topic("shard.0")]["subscribers"] == 1
        assert stats[ack_topic("shard.1")]["subscribers"] == 0
        publisher.publish("after churn")
        assert seen == ["after churn"]
        assert publisher.pending == 0


    def test_retarget_leaves_the_old_ack_topic(self, sim):
        """A migrated publisher stops hearing its old shard's acks: the
        old ack topic loses its subscription, and an ack published there
        -- even one naming the publisher's live stream -- is not heard."""
        bus = reliable_bus(sim, policies=(("shard.*", ReliablePolicy()),))
        consume(bus, "shard.0", lambda env: None)
        consume(bus, "shard.1", lambda env: None, active=lambda: False)
        publisher = acquire_publisher(bus, "shard.0", "me")
        subscribers = bus.stats()[ack_topic("shard.0")]["subscribers"]
        publisher.retarget("shard.1")
        assert bus.stats()[ack_topic("shard.0")]["subscribers"] \
            == subscribers - 1
        publisher.publish("m")                 # the new shard never acks
        assert publisher.pending == 1
        bus.publish(ack_topic("shard.0"),
                    ack_payload("me", publisher.incarnation,
                                publisher.base_seq))
        assert publisher.pending == 1


class TestLateJoiningConsumer:
    def test_untracked_publishes_leave_no_holes_for_late_joiners(self, sim):
        """Regression: ack-mode publishes with no subscriber are dropped
        by the bus but consume seqs; a consumer subscribing afterwards
        must start cleanly at the next tracked message rather than wait
        forever for the untracked ones."""
        bus = reliable_bus(sim)
        publisher = acquire_publisher(bus, "t", "me")
        publisher.publish("void 1")            # nobody listening: dropped
        publisher.publish("void 2")
        assert publisher.pending == 0          # untracked, not retried
        seen = []
        consume(bus, "t", lambda env: seen.append(env.payload))
        publisher.publish("first heard")
        publisher.publish("second heard")
        assert seen == ["first heard", "second heard"]
        assert publisher.pending == 0


class TestSeqMode:
    def test_seq_mode_never_acks(self, sim):
        bus = reliable_bus(
            sim, policies=(("hb", ReliablePolicy(mode="seq")),))
        beats = []
        consume(bus, "hb", lambda env: beats.append(env.payload))
        publisher = acquire_publisher(bus, "hb", "shard:0")
        publisher.publish("beat 1")
        publisher.publish("beat 2")
        assert beats == ["beat 1", "beat 2"]
        assert publisher.pending == 0          # nothing is ever tracked
        assert not bus.has_channel(ack_topic("hb"))
        assert sim.pending() == 0              # and no RTO timers

    def test_seq_mode_drops_stale_and_duplicate_beats(self, sim):
        bus = reliable_bus(
            sim, policies=(("hb", ReliablePolicy(mode="seq")),))
        beats = []
        consume(bus, "hb", lambda env: beats.append(env.payload))
        bus.publish("hb", wrap("shard:0", 1, 1, 1, "one"), sender="shard:0")
        bus.publish("hb", wrap("shard:0", 1, 1, 3, "three"), sender="shard:0")
        bus.publish("hb", wrap("shard:0", 1, 1, 2, "late"), sender="shard:0")
        bus.publish("hb", wrap("shard:0", 1, 1, 3, "dup"), sender="shard:0")
        assert beats == ["one", "three"]       # gap skipped, stale dropped
        stats = bus.stats()["hb"]
        assert stats["rx_duplicates"] == 2
        assert stats["rx_out_of_order"] == 1


class TestEndToEnd:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_exactly_once_in_order_under_compound_faults(self, sim, seed):
        """The acceptance property on one topic: 5% drop, 2% duplication,
        reordering and jitter (acks ride the same lossy wire) must still
        yield exactly-once, in-order application."""
        bus = reliable_bus(Simulator(), policies=(("t", ReliablePolicy()),),
                           fault_seed=seed)
        sim = bus.sim
        bus.channel("t", latency=0.05, discipline=Discipline.DELAY)
        bus.configure_faults("t", drop=0.05, duplicate=0.02,
                             reorder=0.25, jitter=0.05)
        seen = []
        consume(bus, "t", lambda env: seen.append(env.payload))
        publisher = acquire_publisher(bus, "t", "me")
        sent = [f"m{index}" for index in range(200)]
        for payload in sent:
            publisher.publish(payload)
        sim.run()
        assert seen == sent
        assert publisher.pending == 0


ADVERSARIAL_STRINGS = [
    "", "plain", 'a "quoted" word', "back\\slash\\", "\\\"", "/slash/",
    "\x00\x01\x1f\x7f", "\b\f\n\r\t", "caf\u00e9 \u2028 \u2029",
    "\u00ff\u0100\uffff", "\U0001f600", "\ud800", "lone \udfff low",
    "\udbff\udc00", '{"kind": "rmsg", "seq": 1}', " " * 300,
]
LARGE_INTS = [0, 1, 2**31 - 1, 2**31, 2**63, 10**40, -1]


class TestWireFormat:
    """The wrapper and the ack are written from format strings; they must
    be the very bytes ``json.dumps(..., sort_keys=True)`` writes, or every
    byte counter and snapshot would move."""

    @pytest.mark.parametrize("text", ADVERSARIAL_STRINGS)
    def test_wrap_matches_sorted_json_dumps(self, text):
        for number in LARGE_INTS:
            fields = {"kind": RMSG_KIND, "src": text, "inc": number,
                      "base": number + 1, "seq": number * 3,
                      "payload": text[::-1]}
            assert wrap(text, number, number + 1, number * 3, text[::-1]) \
                == json.dumps(fields, sort_keys=True)

    @pytest.mark.parametrize("text", ADVERSARIAL_STRINGS)
    def test_ack_payload_matches_sorted_json_dumps(self, text):
        for number in LARGE_INTS:
            fields = {"kind": "rack", "src": text, "inc": number,
                      "seq": number + 7}
            assert ack_payload(text, number, number + 7) \
                == json.dumps(fields, sort_keys=True)


def count_ack_parses(monkeypatch):
    """Route the ack parser's ``json.loads`` through a counter."""
    calls = []

    def loads(text):
        calls.append(text)
        return json.loads(text)

    monkeypatch.setattr(envelope_module, "json", SimpleNamespace(loads=loads))
    return calls


class TestSharedAckTopic:
    """Many publishers on one reliable topic, the RouteFlow shape: every
    RFClient of a shard publishes on its RouteMod topic and subscribes to
    the one shared ``.ack`` topic."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_sixteen_publishers_under_compound_faults(self, monkeypatch,
                                                      seed):
        bus = reliable_bus(Simulator(), fault_seed=seed)
        sim = bus.sim
        bus.channel("t", latency=0.05, discipline=Discipline.DELAY)
        bus.configure_faults("t", drop=0.05, duplicate=0.02,
                             reorder=0.25, jitter=0.05)
        applied = {}
        consume(bus, "t", lambda env: applied.setdefault(
            env.sender, []).append(env.payload))
        retired = {f"vm{index}": [] for index in range(16)}
        on_ack = ReliablePublisher._on_ack
        real_loads = json.loads

        def spy(publisher, envelope):
            before = set(publisher._pending)
            incarnation = publisher.incarnation
            on_ack(publisher, envelope)
            popped = before - set(publisher._pending)
            if popped:
                ack = real_loads(envelope.payload)
                assert (ack["src"], ack["inc"]) \
                    == (publisher.sender, incarnation)
                assert popped == {ack["seq"]}
                retired[publisher.sender].append(ack["seq"])

        monkeypatch.setattr(ReliablePublisher, "_on_ack", spy)
        publishers = [acquire_publisher(bus, "t", sender)
                      for sender in retired]
        delivered_acks = []
        bus.subscribe(ack_topic("t"), delivered_acks.append)
        parses = count_ack_parses(monkeypatch)
        sent = {publisher.sender: [] for publisher in publishers}
        for round_no in range(25):
            for publisher in publishers:
                payload = f"{publisher.sender}:{round_no}"
                sent[publisher.sender].append(payload)
                publisher.publish(payload)
        sim.run()

        assert applied == sent
        assert all(publisher.pending == 0 for publisher in publishers)
        for sender, seqs in retired.items():
            assert sorted(seqs) == list(range(1, 26)), sender
        assert bus.stats()["t"]["acked"] == 16 * 25
        # One parse per delivered ack envelope (a duplicate copy delivered
        # straight after its original reuses the parse), not one per
        # publisher it reaches.
        runs = sum(1 for index, envelope in enumerate(delivered_acks)
                   if index == 0 or envelope is not delivered_acks[index - 1])
        assert len(parses) == runs
        assert len(delivered_acks) > 16 * 25

    def test_a_fresh_envelope_is_never_served_a_stale_parse(self):
        """The memo is keyed on the envelope object and holds it, so a new
        envelope allocated where the last one was freed (same ``id``) is
        still parsed."""
        for seq in range(50):
            payload = ack_payload("a", 1, seq)
            envelope = Envelope("t.ack", seq, "consumer", 0.0, payload)
            assert parse_ack(envelope) == ("a", 1, seq)
            del envelope

    def test_nested_ack_mid_dispatch_is_parsed_again(self, monkeypatch, sim):
        """On a direct channel an ack's window pump publishes inside the
        dispatch loop, so a nested ack replaces the memo before the outer
        ack reaches the next publisher; that publisher parses it again."""
        bus = reliable_bus(sim, policies=(("t", ReliablePolicy(window=1)),))
        seen = []
        consume(bus, "t", lambda env: seen.append(env.payload))
        first = acquire_publisher(bus, "t", "a")
        second = acquire_publisher(bus, "t", "b")
        bus.configure_faults(ack_topic("t"), drop=1.0)
        first.publish("a1")                    # applied, ack lost
        first.publish("a2")                    # queued behind the window
        assert first.pending == 2
        bus.clear_faults(ack_topic("t"))
        parses = count_ack_parses(monkeypatch)
        sim.run()   # a1's retransmit is re-acked; that ack's pump sends a2
        assert seen == ["a1", "a2"]
        assert first.pending == 0
        # ack(a1) once for "a", ack(a2) once for both, ack(a1) again for
        # "b" after the nested delivery replaced the memo.
        assert [json.loads(text)["seq"] for text in parses] == [1, 2, 1]
        for index in range(20):
            publisher = (first, second)[index % 2]
            publisher.publish(f"m{index}")
            assert publisher.pending == 0      # no stale parse reused
        assert len(parses) == 3 + 20
        assert seen[2:] == [f"m{index}" for index in range(20)]
