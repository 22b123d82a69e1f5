"""Deadline-driven flow expiry against the periodic sweep it replaced.

The switch sweeps its flow table only while an entry with an idle or hard
timeout is installed, on the tick grid a periodic sweep from connect time
would use.  The reference is a test-local subclass that keeps the old
timer: a sweep on every tick from connect until the channel closes.
Hypothesis drives both, each in its own simulator, with the same flow-mods
(adds with idle and hard timeouts, modifies, deletes), data-plane hits and
channel close / reconnect, and requires the same FLOW_REMOVED messages at
the controller: time, reason, match, priority, cookie and counters.

Operations land a fraction of a millisecond off the tick grid: a re-armed
sweep runs after events already queued for its exact tick, so only a
same-instant tie could order differently from the reference.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.net import (UDP, Ethernet, EtherType, IPv4, IPv4Address,  # noqa: E402
                       MACAddress)
from repro.net.ipv4 import IPProtocol  # noqa: E402
from repro.net.link import Interface  # noqa: E402
from repro.openflow import (ControlChannel, FlowMod, FlowRemoved,  # noqa: E402
                            Match, OFPFlowModCommand, OpenFlowMessage,
                            OpenFlowSwitch, OutputAction)
from repro.openflow.constants import OFPFlowModFlags  # noqa: E402
from repro.sim import PeriodicTask, Simulator  # noqa: E402

from test_golden_trace import run_traced_ring4  # noqa: E402

PREFIXES = (("10.0.0.0", 8), ("10.1.0.0", 16), ("10.1.2.0", 24),
            ("10.2.0.0", 16))
DESTINATIONS = ("10.1.2.3", "10.1.9.9", "10.2.0.1", "10.3.0.1")
#: Offsets from an operation's slot on the 0.25 s grid (the slots start at
#: 0.2 s, the first connect is at 0.1005 s), so no operation shares an
#: instant with a sweep tick.
CONNECT_OFFSET = 0.0005


class PeriodicSweepSwitch(OpenFlowSwitch):
    """The reference: a sweep on every tick from connect to close."""

    def __init__(self, sim: Simulator, datapath_id: int, name: str = "") -> None:
        super().__init__(sim, datapath_id, name)
        self._sweep_task = PeriodicTask(sim, self.EXPIRY_INTERVAL,
                                        self._expire_flows,
                                        name=f"{self.name}:flow-expiry")

    def connect_to_controller(self, channel: ControlChannel) -> None:
        self._sweep_task.start()
        super().connect_to_controller(channel)

    def channel_closed(self, channel: ControlChannel) -> None:
        super().channel_closed(channel)
        self._sweep_task.stop()

    def _arm_expiry(self) -> None:
        pass


class Recorder:
    """The controller end: keeps every FLOW_REMOVED with its arrival time."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.removed = []

    def channel_receive(self, channel, data: bytes) -> None:
        message = OpenFlowMessage.decode(data)
        if isinstance(message, FlowRemoved):
            self.removed.append((
                self.sim.now, message.reason, message.match.encode(),
                message.priority, message.cookie, message.duration_sec,
                message.packet_count, message.byte_count))

    def channel_closed(self, channel) -> None:
        pass


def _frame(destination: str) -> bytes:
    packet = IPv4(src=IPv4Address("192.168.0.1"),
                  dst=IPv4Address(destination), protocol=IPProtocol.UDP,
                  payload=UDP(1, 2, b"x"))
    return Ethernet(src=MACAddress(1), dst=MACAddress(2),
                    ethertype=EtherType.IPV4, payload=packet).encode()


FRAMES = [_frame(destination) for destination in DESTINATIONS]


def run(switch_cls, operations):
    """Drive one switch through ``operations``; returns (recorder, switch,
    number of sweeps executed)."""
    sim = Simulator()
    sweeps = []
    sim.add_trace_hook(lambda event: event.name.endswith(":flow-expiry")
                       and sweeps.append(event))
    switch = switch_cls(sim, datapath_id=1, name="s1")
    interface = Interface("s1-eth1", MACAddress.from_local_id(1, 1))
    switch.add_port(1, interface)
    switch.add_port(2, Interface("s1-eth2", MACAddress.from_local_id(1, 2)))
    recorder = Recorder(sim)
    channels = []

    def connect():
        if channels and channels[-1].open:
            return
        channel = ControlChannel(sim, latency=0.001, name="test")
        channel.connect(switch, recorder)
        channels.append(channel)
        switch.connect_to_controller(channel)

    def send(message):
        channels[-1].send(recorder, message.encode())

    sim.schedule_at(0.1 + CONNECT_OFFSET, connect)
    when = 0.2
    for step, operation in operations:
        when += 0.25 * step
        kind, slot, idle, hard, flagged = operation
        address, plen = PREFIXES[slot]
        match = Match.for_destination_prefix(IPv4Address(address), plen)
        flags = OFPFlowModFlags.SEND_FLOW_REM if flagged else 0
        if kind == "add":
            sim.schedule_at(when, send, FlowMod(
                match=match, actions=[OutputAction(2)], priority=10 + slot,
                idle_timeout=idle, hard_timeout=hard, cookie=slot,
                flags=flags))
        elif kind == "modify":
            sim.schedule_at(when, send, FlowMod(
                match=match, command=OFPFlowModCommand.MODIFY_STRICT,
                actions=[OutputAction(1)], priority=10 + slot,
                idle_timeout=idle, hard_timeout=hard, flags=flags))
        elif kind in ("delete", "delete_strict"):
            command = (OFPFlowModCommand.DELETE if kind == "delete"
                       else OFPFlowModCommand.DELETE_STRICT)
            sim.schedule_at(when, send, FlowMod(
                match=match, command=command, actions=[],
                priority=10 + slot))
        elif kind == "hit":
            sim.schedule_at(when, switch._on_data_frame, interface,
                            FRAMES[slot])
        elif kind == "close":
            sim.schedule_at(when, lambda: channels[-1].close())
        else:
            sim.schedule_at(when + CONNECT_OFFSET, connect)
    sim.run(until=when + 12.0)
    return recorder, switch, len(sweeps)


OPERATIONS = st.lists(st.tuples(
    st.integers(min_value=0, max_value=8),
    st.tuples(st.sampled_from(("add", "add", "add", "modify", "delete",
                               "delete_strict", "hit", "hit", "hit",
                               "close", "connect")),
              st.integers(min_value=0, max_value=3),
              st.sampled_from((0, 0, 1, 2, 3)),
              st.sampled_from((0, 0, 2, 5)),
              st.booleans())),
    max_size=25)


class TestDeadlineDrivenExpiry:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(operations=OPERATIONS)
    def test_same_flow_removed_as_the_periodic_sweep(self, operations):
        reference, reference_switch, reference_sweeps = run(
            PeriodicSweepSwitch, operations)
        actual, switch, sweeps = run(OpenFlowSwitch, operations)
        assert actual.removed == reference.removed
        assert ([entry.match.encode() for entry in switch.flow_table]
                == [entry.match.encode() for entry in reference_switch.flow_table])
        assert sweeps <= reference_sweeps
        timed = any(kind in ("add", "modify") and (idle or hard)
                    for _, (kind, _, idle, hard, _) in operations)
        if not timed:
            assert sweeps == 0

    def test_idle_table_sleeps_and_timed_entry_wakes_it(self):
        add = (1, ("add", 1, 0, 2, True))
        _, _, idle_sweeps = run(OpenFlowSwitch, [(1, ("add", 1, 0, 0, True))])
        assert idle_sweeps == 0
        recorder, switch, sweeps = run(OpenFlowSwitch, [add])
        reference, _, reference_sweeps = run(PeriodicSweepSwitch, [add])
        assert len(switch.flow_table) == 0
        assert recorder.removed == reference.removed and len(recorder.removed) == 1
        assert 0 < sweeps < reference_sweeps


def test_ring4_configuration_schedules_no_flow_expiry(monkeypatch):
    scheduled = []
    genuine = Simulator.schedule_at

    def spy(sim, when, callback, *args, label="", **kwargs):
        if label.endswith(":flow-expiry"):
            scheduled.append(label)
        return genuine(sim, when, callback, *args, label=label, **kwargs)

    monkeypatch.setattr(Simulator, "schedule_at", spy)
    trace, configured_at, _ = run_traced_ring4()
    assert configured_at == 33.0
    assert scheduled == []
    assert not [line for line in trace if line.endswith(":flow-expiry")]
