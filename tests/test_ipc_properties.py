"""Property-based tests for the IPC layer: payload round-trips and
reliable delivery.

Each of the nine bus payload kinds — RouteMod, MappingRecord,
ShardHeartbeat, TakeoverAnnouncement, PortStatusRelay and the four
configuration messages — must survive ``to_json`` → ``from_json``
unchanged for randomized payloads, ``decode`` must discriminate every
kind, and no text, however mangled, may make the codec raise anything but
``DecodeError``.

The reliable-delivery properties pin what :mod:`repro.bus.reliable`
exists for: under *any* interleaving of drops, duplicates and reordering
— adversarial wire schedules within the reorder window, and any fault
profile the injector can express — every consumer observes each sender's
messages exactly once, in publish order.

Hypothesis drives the generation; ``derandomize=True`` pins the example
stream so runs are reproducible (the property suite is seeded, not
flaky).
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

import json  # noqa: E402

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.bus import (  # noqa: E402
    Discipline,
    Message,
    MessageBus,
    ReliablePolicy,
    acquire_publisher,
    consume,
    decode,
)
from repro.bus.envelope import wrap  # noqa: E402
from repro.core.config_messages import (  # noqa: E402
    ConfigMessage,
    EdgePortConfigMessage,
    LinkConfigMessage,
    SwitchConfigMessage,
    SwitchRemovedMessage,
)
from repro.net.packet import DecodeError  # noqa: E402
from repro.routeflow.ipc import (  # noqa: E402
    MappingRecord,
    PortStatusRelay,
    RouteMod,
    ShardHeartbeat,
    TakeoverAnnouncement,
)
from repro.sim import Simulator  # noqa: E402

# JSON-safe building blocks.  Text stays unicode-arbitrary on purpose:
# json.dumps must escape whatever ends up in an interface name or reason.
names = st.text(max_size=40)
small_ints = st.integers(min_value=0, max_value=2**32)
sim_times = st.floats(min_value=0.0, max_value=1e9,
                      allow_nan=False, allow_infinity=False)
octet = st.integers(min_value=0, max_value=255)
ip_strings = st.builds(lambda a, b, c, d: f"{a}.{b}.{c}.{d}",
                       octet, octet, octet, octet)
prefix_strings = st.builds(lambda ip, length: f"{ip}/{length}",
                           ip_strings, st.integers(min_value=0, max_value=32))

route_mods = st.builds(
    RouteMod,
    mod_type=st.sampled_from(["add", "delete"]),
    vm_id=small_ints,
    prefix=prefix_strings,
    next_hop=st.one_of(st.none(), ip_strings),
    interface=names,
    metric=small_ints,
)

mapping_records = st.builds(
    MappingRecord,
    event=st.sampled_from([MappingRecord.VM_MAPPED,
                           MappingRecord.ADDRESS_ASSIGNED,
                           MappingRecord.ADDRESS_REMOVED]),
    vm_id=small_ints,
    datapath_id=small_ints,
    shard=st.integers(min_value=0, max_value=64),
    interface=names,
    address=st.one_of(st.none(), ip_strings),
)

heartbeats = st.builds(
    ShardHeartbeat,
    shard_id=st.integers(min_value=0, max_value=64),
    sent_at=sim_times,
    epoch=small_ints,
)

takeovers = st.builds(
    TakeoverAnnouncement,
    event=st.sampled_from([TakeoverAnnouncement.TAKEOVER,
                           TakeoverAnnouncement.RESHARD]),
    from_shard=st.integers(min_value=0, max_value=64),
    to_shard=st.integers(min_value=0, max_value=64),
    datapaths=st.lists(small_ints, max_size=16),
)

port_statuses = st.builds(
    PortStatusRelay,
    dpid_a=small_ints,
    port_a=st.integers(min_value=1, max_value=255),
    dpid_b=small_ints,
    port_b=st.integers(min_value=1, max_value=255),
    up=st.booleans(),
)

switch_configs = st.builds(
    SwitchConfigMessage,
    switch_id=small_ints,
    num_ports=st.integers(min_value=0, max_value=48),
)

link_configs = st.builds(
    LinkConfigMessage,
    dpid_a=small_ints,
    port_a=st.integers(min_value=1, max_value=255),
    address_a=ip_strings,
    dpid_b=small_ints,
    port_b=st.integers(min_value=1, max_value=255),
    address_b=ip_strings,
    prefix_len=st.integers(min_value=0, max_value=32),
)

edge_port_configs = st.builds(
    EdgePortConfigMessage,
    datapath_id=small_ints,
    port_no=st.integers(min_value=1, max_value=255),
    gateway=ip_strings,
    prefix_len=st.integers(min_value=0, max_value=32),
)

switch_removals = st.builds(SwitchRemovedMessage, switch_id=small_ints)

KINDS = [
    ("route_mod", route_mods, RouteMod),
    ("mapping_record", mapping_records, MappingRecord),
    ("shard_heartbeat", heartbeats, ShardHeartbeat),
    ("takeover", takeovers, TakeoverAnnouncement),
    ("port_status", port_statuses, PortStatusRelay),
    ("switch_config", switch_configs, SwitchConfigMessage),
    ("link_config", link_configs, LinkConfigMessage),
    ("edge_port_config", edge_port_configs, EdgePortConfigMessage),
    ("switch_removed", switch_removals, SwitchRemovedMessage),
]
messages = st.one_of(*(strategy for _, strategy, _ in KINDS))


class TestPayloadRoundTrips:
    @settings(derandomize=True)
    @given(message=route_mods)
    def test_route_mod(self, message):
        assert RouteMod.from_json(message.to_json()) == message

    @settings(derandomize=True)
    @given(message=mapping_records)
    def test_mapping_record(self, message):
        assert MappingRecord.from_json(message.to_json()) == message

    @settings(derandomize=True)
    @given(message=heartbeats)
    def test_shard_heartbeat(self, message):
        assert ShardHeartbeat.from_json(message.to_json()) == message

    @settings(derandomize=True)
    @given(message=takeovers)
    def test_takeover_announcement(self, message):
        assert TakeoverAnnouncement.from_json(message.to_json()) == message

    @settings(derandomize=True)
    @given(message=port_statuses)
    def test_port_status_relay(self, message):
        assert PortStatusRelay.from_json(message.to_json()) == message

    @settings(derandomize=True)
    @given(message=switch_configs)
    def test_switch_config(self, message):
        assert SwitchConfigMessage.from_json(message.to_json()) == message

    @settings(derandomize=True)
    @given(message=link_configs)
    def test_link_config(self, message):
        assert LinkConfigMessage.from_json(message.to_json()) == message

    @settings(derandomize=True)
    @given(message=edge_port_configs)
    def test_edge_port_config(self, message):
        assert EdgePortConfigMessage.from_json(message.to_json()) == message

    @settings(derandomize=True)
    @given(message=switch_removals)
    def test_switch_removed(self, message):
        assert SwitchRemovedMessage.from_json(message.to_json()) == message

    @settings(derandomize=True)
    @given(message=messages)
    def test_decode_discriminates(self, message):
        expected = {cls: kind for kind, _, cls in KINDS}[type(message)]
        assert json.loads(message.to_json())["kind"] == expected
        assert decode(message.to_json()) == message

    @settings(derandomize=True)
    @given(message=takeovers)
    def test_wrong_decoder_rejects(self, message):
        text = message.to_json()
        for kind, _, cls in KINDS:
            if cls is TakeoverAnnouncement:
                continue
            with pytest.raises(ValueError, match="not a"):
                cls.from_json(text)


class TestDecodeEdgeCases:
    def test_garbage_is_rejected(self):
        with pytest.raises(DecodeError, match="not JSON"):
            decode("not json at all")

    def test_non_object_json_is_rejected(self):
        for text in ("[1, 2, 3]", '"route_mod"', "[]"):
            with pytest.raises(DecodeError, match="not a JSON object"):
                decode(text)

    def test_missing_or_non_string_kind_is_rejected(self):
        for text in ('{"vm_id": 3}', '{"kind": 7}', '{"kind": []}'):
            with pytest.raises(DecodeError, match="unknown payload kind"):
                decode(text)

    def test_envelope_kind_is_rejected(self):
        # Envelopes never travel as bus payloads, so "envelope" is no kind.
        with pytest.raises(DecodeError, match="unknown payload kind"):
            decode('{"kind": "envelope", "topic": "t"}')

    def test_missing_or_extra_fields_are_rejected(self):
        for text in ('{"kind": "switch_config", "switch_id": 1}',
                     '{"kind": "switch_removed", "switch_id": 1, "x": 2}'):
            with pytest.raises(DecodeError, match="bad fields"):
                decode(text)

    def test_family_decoder_accepts_only_its_family(self):
        text = SwitchRemovedMessage(switch_id=4).to_json()
        assert ConfigMessage.from_json(text) == SwitchRemovedMessage(4)
        with pytest.raises(DecodeError, match="not a ConfigMessage"):
            ConfigMessage.from_json(ShardHeartbeat(1, 0.0).to_json())


#: JSON values of any type, for retyped and extra fields.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@st.composite
def hostile_payloads(draw) -> str:
    """Arbitrary text; a valid payload of any kind with characters changed
    and cut; or one with a field dropped, retyped or added, or its kind
    swapped."""
    shape = draw(st.sampled_from(("text", "chars", "fields")))
    if shape == "text":
        return draw(st.text(max_size=200))
    text = draw(messages).to_json()
    if shape == "chars":
        chars = list(text)
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            chars[draw(st.integers(min_value=0, max_value=len(chars) - 1))] = (
                draw(st.characters()))
        return "".join(chars[:draw(st.integers(min_value=0,
                                               max_value=len(chars)))])
    data = json.loads(text)
    key = draw(st.sampled_from(sorted(data)))
    action = draw(st.sampled_from(("drop", "retype", "add", "rekind")))
    if action == "drop":
        del data[key]
    elif action == "retype":
        data[key] = draw(json_values)
    elif action == "add":
        data[draw(st.text(max_size=8))] = draw(json_values)
    else:
        data["kind"] = draw(st.sampled_from([kind for kind, _, _ in KINDS]))
    return json.dumps(data)


class TestHostileBusInput:
    """No payload text makes the bus codec raise anything but
    DecodeError."""

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(text=hostile_payloads())
    @example(text="[]")
    @example(text='{"kind": []}')
    def test_only_decode_errors_escape(self, text):
        for decoder in [decode, ConfigMessage.from_json] + [
                cls.from_json for _, _, cls in KINDS]:
            try:
                message = decoder(text)
            except DecodeError:
                continue
            assert isinstance(message, Message)


# --------------------------------------------------------------------------
# Reliable-delivery properties
# --------------------------------------------------------------------------

WINDOW = ReliablePolicy().window


def _reliable_bus(fault_seed=0, policy=None):
    sim = Simulator()
    bus = MessageBus(sim, fault_seed=fault_seed)
    bus.enable_reliability((("t", policy or ReliablePolicy()),))
    return sim, bus


@st.composite
def wire_schedules(draw):
    """An adversarial delivery schedule for seqs ``1..n``: every message
    arrives at least once (the transport guarantees that much), in
    arbitrary order, with arbitrary extra duplicates — all within the
    consumer's reorder window."""
    n = draw(st.integers(min_value=1, max_value=WINDOW))
    seqs = list(range(1, n + 1))
    extras = draw(st.lists(st.sampled_from(seqs), max_size=2 * n))
    return n, draw(st.permutations(seqs + extras))


class TestConsumerAgainstAdversarialWire:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(schedule=wire_schedules())
    def test_any_in_window_interleaving_applies_exactly_once_in_order(
            self, schedule):
        n, arrivals = schedule
        sim, bus = _reliable_bus()
        seen = []
        consume(bus, "t", lambda env: seen.append(env.payload))
        for seq in arrivals:
            bus.publish("t", wrap("me", 1, 1, seq, f"m{seq}"), sender="me")
        assert seen == [f"m{seq}" for seq in range(1, n + 1)]

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(schedule=wire_schedules())
    def test_delivered_sequence_is_an_in_order_prefix_at_every_step(
            self, schedule):
        """Not just at the end: after *each* arrival the delivered
        sequence is a contiguous in-order prefix ``1..k``."""
        _, arrivals = schedule
        sim, bus = _reliable_bus()
        seen = []
        consume(bus, "t", lambda env: seen.append(env.payload))
        for seq in arrivals:
            bus.publish("t", wrap("me", 1, 1, seq, f"m{seq}"), sender="me")
            assert seen == [f"m{s}" for s in range(1, len(seen) + 1)]

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(events=st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]),
                  st.integers(min_value=1, max_value=8)),
        max_size=40))
    def test_interleaved_senders_keep_independent_streams(self, events):
        """Dedup/reorder state is per sender: interleaving three senders'
        messages never lets one stream corrupt another's ordering."""
        sim, bus = _reliable_bus()
        seen = {"a": [], "b": [], "c": []}

        def record(env):
            src, seq = env.payload.split(":")
            seen[src].append(int(seq))

        consume(bus, "t", record)
        for src, seq in events:
            bus.publish("t", wrap(src, 1, 1, seq, f"{src}:{seq}"),
                        sender=src)
        for delivered in seen.values():
            assert delivered == list(range(1, len(delivered) + 1))


class TestRoundTripUnderFaults:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(drop=st.floats(min_value=0.0, max_value=0.3),
           duplicate=st.floats(min_value=0.0, max_value=0.3),
           reorder=st.floats(min_value=0.0, max_value=0.5),
           jitter=st.floats(min_value=0.0, max_value=0.1),
           fault_seed=st.integers(min_value=0, max_value=2**31),
           count=st.integers(min_value=1, max_value=100))
    def test_roundtrip_is_exactly_once_in_order_for_any_fault_profile(
            self, drop, duplicate, reorder, jitter, fault_seed, count):
        """The full protocol — acks riding the same lossy wire — converges
        to exactly-once in-order delivery for any fault profile the
        injector can express."""
        sim, bus = _reliable_bus(fault_seed=fault_seed)
        bus.channel("t", latency=0.05, discipline=Discipline.DELAY)
        bus.configure_faults("t", drop=drop, duplicate=duplicate,
                             reorder=reorder, jitter=jitter)
        seen = []
        consume(bus, "t", lambda env: seen.append(env.payload))
        publisher = acquire_publisher(bus, "t", "me")
        sent = [f"m{index}" for index in range(count)]
        for payload in sent:
            publisher.publish(payload)
        sim.run()
        assert seen == sent
        assert publisher.pending == 0
        assert bus.stats()["t"]["exhausted"] == 0


class TestSeqModeProperties:
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(arrivals=st.lists(st.integers(min_value=1, max_value=30),
                             max_size=60))
    def test_seq_mode_only_ever_delivers_strictly_fresher_beats(
            self, arrivals):
        """Whatever the wire does to a seq-mode (heartbeat) stream, the
        consumer sees strictly increasing sequence numbers — stale and
        duplicate beats never reach the failure detector."""
        sim, bus = _reliable_bus(policy=ReliablePolicy(mode="seq"))
        seen = []
        consume(bus, "t", lambda env: seen.append(int(env.payload)))
        for seq in arrivals:
            bus.publish("t", wrap("hb", 1, 1, seq, str(seq)), sender="hb")
        assert seen == sorted(set(seen))
        assert set(seen) <= set(arrivals)

