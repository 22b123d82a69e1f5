"""Declarative failure/churn schedules for experiment scenarios.

A :class:`FailureSchedule` is a plain-data list of :class:`FailureEvent`
entries — take a link or a node down (or back up) at a simulated time —
that can ride on a :class:`~repro.scenarios.ScenarioSpec`, be serialized
with it, and be executed as kernel events by the emulated network
(:meth:`~repro.topology.emulator.EmulatedNetwork.schedule_failures`).
Event times are *relative to the instant the schedule is armed*, which the
failover experiment does once the network is fully configured.

Node failures are fail-stop from the data plane's point of view: every
link incident to the node drops, which is also what the RouteFlow control
platform observes (the mirroring VM keeps running, but all its adjacencies
die).  Seeded random churn (:meth:`FailureSchedule.random_churn`)
generates a reproducible bounce sequence for resilience sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.sim.rng import SeededRandom


class FailureAction:
    """The supported failure-injection actions."""

    LINK_DOWN = "link_down"
    LINK_UP = "link_up"
    NODE_DOWN = "node_down"
    NODE_UP = "node_up"
    #: Controller-shard failures: ``node_a`` is the shard index.  The
    #: emulated network itself is untouched — the event is dispatched to
    #: the failure listeners, where the sharded control plane stops (or
    #: resumes) the named shard's message processing.
    SHARD_DOWN = "shard_down"
    SHARD_UP = "shard_up"
    #: Fail-stop a shard *and* have its standby take over its dpid
    #: partition (shard_down alone leaves the partition with the dead
    #: master until the heartbeat failure detector notices).
    SHARD_FAILOVER = "shard_failover"
    #: Live re-balancing: migrate one dpid (``node_a``) onto the healthy
    #: shard ``node_b`` without dropping the switch's installed flows.
    RESHARD = "reshard"
    #: Degrade the control-plane bus: attach a fault profile (drop /
    #: duplicate / reorder probabilities, jitter — carried in ``params``,
    #: plus an optional ``topics`` pattern list defaulting to
    #: ``routeflow.*``) to the matching channels.  ``node_a`` is unused
    #: and conventionally 0.  An all-zero profile removes the pattern's
    #: faults again.
    BUS_DEGRADE = "bus_degrade"
    #: Partition two control-plane endpoints from each other:
    #: shard ``node_a`` from shard ``node_b``, or — with ``node_b``
    #: omitted — shard ``node_a`` from the coordination plane.
    BUS_PARTITION = "bus_partition"
    #: Heal the bus: with ``node_a`` >= 0, heal that one partition pair
    #: (same endpoint convention as ``bus_partition``); with
    #: ``node_a`` == -1, clear every fault profile and every partition.
    BUS_HEAL = "bus_heal"

    ALL = (LINK_DOWN, LINK_UP, NODE_DOWN, NODE_UP, SHARD_DOWN, SHARD_UP,
           SHARD_FAILOVER, RESHARD, BUS_DEGRADE, BUS_PARTITION, BUS_HEAL)
    LINK_ACTIONS = (LINK_DOWN, LINK_UP)
    NODE_ACTIONS = (NODE_DOWN, NODE_UP)
    SHARD_ACTIONS = (SHARD_DOWN, SHARD_UP, SHARD_FAILOVER)
    BUS_ACTIONS = (BUS_DEGRADE, BUS_PARTITION, BUS_HEAL)
    #: Actions that target the control plane rather than the physical
    #: network; the emulator passes them through to failure listeners.
    CONTROL_ACTIONS = SHARD_ACTIONS + (RESHARD,) + BUS_ACTIONS


class FailureScheduleError(ValueError):
    """Raised for malformed failure events or schedules."""


@dataclass(frozen=True)
class FailureEvent:
    """One failure-injection action at a (schedule-relative) simulated time."""

    #: Seconds after the schedule is armed at which the action executes.
    time: float
    #: One of :data:`FailureAction.ALL`.
    action: str
    #: The affected node (for node events) or one link endpoint.
    node_a: int
    #: The other link endpoint; must be None for node events.
    node_b: Optional[int] = None
    #: Action parameters (``bus_degrade`` fault probabilities and topic
    #: patterns).  Normalised to a sorted tuple of (key, value) pairs so
    #: events stay hashable; build from a dict and read via
    #: :attr:`params_dict`.
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not math.isfinite(self.time):
            raise FailureScheduleError(
                f"event time must be finite, got {self.time}")
        if self.time < 0:
            raise FailureScheduleError(
                f"event time must be >= 0, got {self.time}")
        if self.action not in FailureAction.ALL:
            raise FailureScheduleError(
                f"unknown failure action {self.action!r}; known actions: "
                + ", ".join(FailureAction.ALL))
        if isinstance(self.params, Mapping):
            object.__setattr__(self, "params",
                               tuple(sorted(self.params.items())))
        else:
            object.__setattr__(self, "params",
                               tuple((str(k), v) for k, v in self.params))
        if self.params and self.action != FailureAction.BUS_DEGRADE:
            raise FailureScheduleError(
                f"{self.action} takes no parameters (params are for "
                f"{FailureAction.BUS_DEGRADE})")
        if self.action in FailureAction.LINK_ACTIONS:
            if self.node_b is None:
                raise FailureScheduleError(
                    f"{self.action} requires both link endpoints")
            if self.node_a == self.node_b:
                raise FailureScheduleError(
                    f"{self.action} endpoints must differ, got {self.node_a}")
        elif self.action == FailureAction.RESHARD:
            if self.node_b is None:
                raise FailureScheduleError(
                    "reshard requires a target shard: node_a is the dpid, "
                    "node_b the shard index it moves to")
        elif self.action == FailureAction.BUS_DEGRADE:
            if self.node_b is not None:
                raise FailureScheduleError(
                    "bus_degrade targets topics (via params), not a pair of "
                    "nodes")
        elif self.action in (FailureAction.BUS_PARTITION,
                             FailureAction.BUS_HEAL):
            if self.node_a == self.node_b:
                raise FailureScheduleError(
                    f"{self.action} endpoints must differ, got {self.node_a}")
            if self.action == FailureAction.BUS_PARTITION and self.node_a < 0:
                raise FailureScheduleError(
                    "bus_partition needs a shard index (node_a >= 0)")
            if self.action == FailureAction.BUS_HEAL and self.node_a < -1:
                raise FailureScheduleError(
                    "bus_heal takes a shard index or -1 (heal everything)")
        elif self.node_b is not None:
            raise FailureScheduleError(
                f"{self.action} takes a single node, got a second endpoint")

    @property
    def is_link_event(self) -> bool:
        return self.action in FailureAction.LINK_ACTIONS

    @property
    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def describe(self) -> str:
        """Short human-readable form, e.g. ``link_down 3<->7 @ 60s``."""
        if self.is_link_event:
            subject = f"{self.node_a}<->{self.node_b}"
        elif self.action == FailureAction.RESHARD:
            subject = f"dpid {self.node_a} -> shard {self.node_b}"
        elif self.action == FailureAction.BUS_DEGRADE:
            subject = ", ".join(f"{key}={value}" for key, value in self.params) \
                or "(no faults)"
        elif self.action in (FailureAction.BUS_PARTITION,
                             FailureAction.BUS_HEAL):
            if self.action == FailureAction.BUS_HEAL and self.node_a < 0:
                subject = "everything"
            else:
                partner = "plane" if self.node_b is None \
                    else f"shard {self.node_b}"
                subject = f"shard {self.node_a} <-> {partner}"
        else:
            subject = str(self.node_a)
        return f"{self.action} {subject} @ {self.time:g}s"

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "time": self.time, "action": self.action, "node_a": self.node_a}
        if self.node_b is not None:
            payload["node_b"] = self.node_b
        if self.params:
            payload["params"] = dict(self.params)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FailureEvent":
        return cls(time=float(payload["time"]), action=str(payload["action"]),
                   node_a=int(payload["node_a"]),
                   node_b=(int(payload["node_b"])
                           if payload.get("node_b") is not None else None),
                   params=dict(payload.get("params") or {}))


@dataclass(frozen=True)
class FailureSchedule:
    """An ordered sequence of failure events.

    Events are stored sorted by time (stable for equal times, preserving
    the order they were given in), so execution order is deterministic.
    """

    events: Tuple[FailureEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: e.time))
        object.__setattr__(self, "events", ordered)

    def __iter__(self) -> Iterator[FailureEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    @property
    def duration(self) -> float:
        """Time of the last event (0.0 for an empty schedule)."""
        return self.events[-1].time if self.events else 0.0

    def extended(self, events: Iterable[FailureEvent]) -> "FailureSchedule":
        """A copy of this schedule with more events merged in."""
        return FailureSchedule(self.events + tuple(events))

    def validate_against(self, nodes: Iterable[int],
                         links: Iterable[Tuple[int, int]],
                         shards: Optional[int] = None) -> None:
        """Check that every event targets an existing node, link or shard.

        ``links`` are (node_a, node_b) pairs in either orientation.
        ``shards`` is the control plane's shard count; shard events are
        range-checked against it when given and skipped when None (the
        emulator, which knows nothing about the control plane, validates
        without it).  Raises :class:`FailureScheduleError` on the first
        unknown target, so a bad schedule fails before a simulation is
        spent on it.
        """
        known_nodes = set(nodes)
        known_links = {(min(a, b), max(a, b)) for a, b in links}
        for event in self.events:
            if event.is_link_event:
                key = (min(event.node_a, event.node_b),
                       max(event.node_a, event.node_b))
                if key not in known_links:
                    raise FailureScheduleError(
                        f"{event.describe()}: no link between "
                        f"{event.node_a} and {event.node_b} in the topology")
            elif event.action == FailureAction.RESHARD:
                if event.node_a not in known_nodes:
                    raise FailureScheduleError(
                        f"{event.describe()}: dpid {event.node_a} is not in "
                        f"the topology")
                if shards is not None and not 0 <= event.node_b < shards:
                    raise FailureScheduleError(
                        f"{event.describe()}: no controller shard "
                        f"{event.node_b} (the control plane has {shards})")
            elif event.action in FailureAction.SHARD_ACTIONS:
                if shards is not None and not 0 <= event.node_a < shards:
                    raise FailureScheduleError(
                        f"{event.describe()}: no controller shard "
                        f"{event.node_a} (the control plane has {shards})")
            elif event.action in FailureAction.BUS_ACTIONS:
                if shards is None or event.action == FailureAction.BUS_DEGRADE:
                    continue
                endpoints = [event.node_a] if event.node_b is None \
                    else [event.node_a, event.node_b]
                for endpoint in endpoints:
                    if endpoint >= 0 and not endpoint < shards:
                        raise FailureScheduleError(
                            f"{event.describe()}: no controller shard "
                            f"{endpoint} (the control plane has {shards})")
            elif event.node_a not in known_nodes:
                raise FailureScheduleError(
                    f"{event.describe()}: node {event.node_a} is not in "
                    f"the topology")

    def to_list(self) -> List[Dict[str, Any]]:
        """Plain-data (JSON-ready) form."""
        return [event.to_dict() for event in self.events]

    @classmethod
    def from_list(cls, payload: Iterable[Mapping[str, Any]]) -> "FailureSchedule":
        return cls(tuple(FailureEvent.from_dict(entry) for entry in payload))

    # ------------------------------------------------------------ constructors
    @classmethod
    def single_link_failure(cls, node_a: int, node_b: int, at: float = 0.0,
                            restore_after: Optional[float] = None) -> "FailureSchedule":
        """One link going down (and optionally back up after a while)."""
        events = [FailureEvent(at, FailureAction.LINK_DOWN, node_a, node_b)]
        if restore_after is not None:
            events.append(FailureEvent(at + restore_after,
                                       FailureAction.LINK_UP, node_a, node_b))
        return cls(tuple(events))

    @classmethod
    def random_churn(cls, links: Sequence[Tuple[int, int]], failures: int,
                     seed: int = 0, start: float = 0.0, spacing: float = 60.0,
                     recovery: float = 30.0) -> "FailureSchedule":
        """A seeded random link-bounce sequence.

        Every ``spacing`` seconds (starting at ``start``) one link, chosen
        uniformly from ``links``, goes down; it comes back ``recovery``
        seconds later.  ``recovery < spacing`` guarantees each bounced link
        is restored before the next failure, so at most one churn failure
        is active at a time.  The sequence depends only on the seed and the
        link list order, so schedules are reproducible.
        """
        if failures < 0:
            raise FailureScheduleError(f"failures must be >= 0, got {failures}")
        if not links and failures:
            raise FailureScheduleError("cannot generate churn without links")
        if failures and spacing <= 0:
            raise FailureScheduleError(f"spacing must be > 0, got {spacing}")
        if failures and not 0 < recovery < spacing:
            raise FailureScheduleError(
                "recovery must fall inside the spacing interval so a link is "
                f"back up before the next failure (got recovery={recovery}, "
                f"spacing={spacing})")
        # Seeded from the integer alone: churn schedules must be identical
        # across processes and runs, so nothing salted may feed the stream.
        rng = SeededRandom(seed)
        events: List[FailureEvent] = []
        when = start
        for _ in range(failures):
            node_a, node_b = rng.choice(list(links))
            events.append(FailureEvent(when, FailureAction.LINK_DOWN,
                                       node_a, node_b))
            events.append(FailureEvent(when + recovery, FailureAction.LINK_UP,
                                       node_a, node_b))
            when += spacing
        return cls(tuple(events))

    def describe(self) -> str:
        return "; ".join(event.describe() for event in self.events) or "(empty)"

    def __repr__(self) -> str:
        return f"<FailureSchedule events={len(self.events)} span={self.duration:g}s>"
