"""The simulated control-plane message bus.

RouteFlow's three components talk over an IPC bus; the seed reproduction
collapsed that bus into direct Python calls with per-hop delay constants
sprinkled across the components.  :class:`MessageBus` makes the bus an
explicit object again: components *publish* JSON payloads on named topics
and *subscribe* callbacks to them, and every hop is measurable (per-topic
message/byte counters) and modelled (per-channel latency and queueing
discipline) in one place.

Two queueing disciplines cover every hop in the reproduction:

``direct``
    Synchronous delivery inside the publish call.  Used for co-located
    hops (shard coordination, port-status mirroring) whose seed
    equivalent was a plain method call — no kernel event is scheduled, so
    refactoring such a hop onto the bus cannot perturb the event trace.

``delay``
    Each message is delivered independently after the channel latency
    (plus any per-publish override).  Messages published at the same
    simulated time arrive in publish order because the kernel breaks
    timestamp ties by schedule order.  This matches the seed's
    ``sim.schedule(IPC_DELAY, ...)`` hops exactly.

The bus is a perfect transport by default.  A per-channel
:class:`~repro.bus.faults.ChannelFaults` model (seeded drop/duplicate/
reorder probabilities, delay jitter) can be attached by topic pattern
(:meth:`MessageBus.configure_faults`), and endpoint pairs can be
partitioned from each other (:meth:`MessageBus.partition`).  With no
faults configured and no partitions the publish/deliver code path is
bit-identical to the perfect bus — the golden traces pin that.  A faulted
``direct`` channel whose message draws a non-zero extra delay converts
that one delivery into a scheduled kernel event; that only ever happens
with faults configured, never on the default path.
"""

from __future__ import annotations

import logging
from fnmatch import fnmatchcase
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.bus.envelope import Envelope
from repro.bus.faults import ChannelFaults, fault_stream_seed
from repro.sim import Simulator
from repro.sim.rng import SeededRandom

LOG = logging.getLogger(__name__)

Subscriber = Callable[[Envelope], None]

#: Suffix of the acknowledgement companion topic the reliable-delivery
#: layer pairs with a data topic (see :mod:`repro.bus.reliable`).
ACK_SUFFIX = ".ack"


#: A channel's counters, each zeroed on creation and reported per topic by
#: :meth:`Channel.snapshot` and summed in ``MessageBus.stats()["_totals"]``.
#: ``dropped_no_subscriber`` counts messages that found no subscriber (a
#: wiring gap, not an injected fault); ``dropped_fault`` those lost to the
#: fault model (a probabilistic drop, or every subscriber partitioned away);
#: ``partitioned`` per-subscriber deliveries an active partition suppressed.
#: The ``retransmits`` .. ``rx_stale`` group is incremented by
#: :mod:`repro.bus.reliable` and stays zero on the perfect default path.
COUNTERS = (
    "published", "delivered", "dropped_no_subscriber", "dropped_fault",
    "bytes_published", "bytes_delivered", "fault_duplicated",
    "fault_reordered", "partitioned", "retransmits", "acked", "exhausted",
    "rx_duplicates", "rx_out_of_order", "rx_out_of_window", "rx_stale",
)


class BusError(Exception):
    """Raised for inconsistent bus configuration."""


class Discipline:
    """Queueing disciplines a channel can be configured with."""

    DIRECT = "direct"
    DELAY = "delay"

    ALL = (DIRECT, DELAY)


class Subscription:
    """One subscriber callback plus the endpoint label it listens at.

    The endpoint is what partitions act on: a delivery is suppressed when
    the publisher's endpoint and the subscriber's endpoint are on opposite
    sides of an active partition.  ``None`` means "not partitionable" —
    global observers (statistics, tests) always hear everything.
    """

    __slots__ = ("callback", "endpoint")

    def __init__(self, callback: Subscriber,
                 endpoint: Optional[str] = None) -> None:
        self.callback = callback
        self.endpoint = endpoint

    def __call__(self, envelope: Envelope) -> None:
        self.callback(envelope)

    def __repr__(self) -> str:
        return f"<Subscription endpoint={self.endpoint!r}>"


class Channel:
    """One topic's configuration, subscribers and counters."""

    def __init__(self, bus: "MessageBus", topic: str, latency: float,
                 label: Optional[str], discipline: str,
                 configured: bool = True) -> None:
        self.bus = bus
        self.topic = topic
        self._configure(latency, label, discipline)
        #: False while the channel only exists because someone subscribed
        #: to (or published on) the topic before its owner declared it;
        #: the first explicit :meth:`MessageBus.channel` call refines it.
        self.configured = configured
        self.subscribers: List[Subscription] = []
        #: Fault model in force (None = perfect channel) and its RNG.
        self.faults: Optional[ChannelFaults] = None
        self._fault_rng: Optional[SeededRandom] = None
        for name in COUNTERS:
            setattr(self, name, 0)

    def _configure(self, latency: float, label: Optional[str],
                   discipline: str) -> None:
        if discipline not in Discipline.ALL:
            raise BusError(f"unknown discipline {discipline!r}; "
                           f"pick one of {Discipline.ALL}")
        if latency < 0:
            raise BusError(f"channel {self.topic!r}: negative latency {latency}")
        if discipline == Discipline.DIRECT and latency:
            raise BusError(f"channel {self.topic!r}: direct delivery cannot "
                           f"carry a latency ({latency})")
        self.latency = latency
        self.label = label if label is not None else f"bus:{self.topic}"
        self.discipline = discipline

    @property
    def dropped(self) -> int:
        """Total messages never delivered to anyone (both drop families)."""
        return self.dropped_no_subscriber + self.dropped_fault

    @property
    def in_flight(self) -> int:
        # Fault duplication mints extra deliveries, so the balance counts
        # the duplicated copies on the published side.
        return (self.published + self.fault_duplicated
                - self.delivered - self.dropped)

    def max_fault_delay(self) -> float:
        """Worst-case extra delivery delay the active fault model can add."""
        return self.faults.max_extra_delay if self.faults is not None else 0.0

    def snapshot(self) -> Dict[str, float]:
        report = {name: getattr(self, name) for name in COUNTERS}
        report.update(dropped=self.dropped, in_flight=self.in_flight,
                      latency=self.latency, discipline=self.discipline,
                      subscribers=len(self.subscribers))
        return report

    def __repr__(self) -> str:
        return (f"<Channel {self.topic} {self.discipline} "
                f"latency={self.latency} published={self.published}>")


class MessageBus:
    """A named-topic pub/sub bus running on the simulation kernel."""

    def __init__(self, sim: Simulator, name: str = "bus",
                 fault_seed: int = 0) -> None:
        self.sim = sim
        self.name = name
        self._channels: Dict[str, Channel] = {}
        self._next_seq = 1
        #: Seed the per-channel fault RNGs derive from.
        self.fault_seed = fault_seed
        #: Ordered (pattern, profile) fault assignments; the last match
        #: wins, so a narrow reconfiguration overrides a broad one.
        self._fault_profiles: List[Tuple[str, ChannelFaults]] = []
        #: Active partitions as unordered endpoint-label pairs.
        self._partitions: Set[frozenset] = set()
        #: Ordered (pattern, policy) reliability assignments (see
        #: :meth:`enable_reliability`); empty = reliability off.
        self._reliability: List[Tuple[str, object]] = []

    # ---------------------------------------------------------------- channels
    def channel(self, topic: str, latency: float = 0.0,
                label: Optional[str] = None,
                discipline: str = Discipline.DIRECT) -> Channel:
        """Declare (or fetch) a topic's channel.

        A topic that so far exists only implicitly — someone subscribed to
        it or published on it before its owner declared it — is refined in
        place (subscribers and counters survive).  Redeclaring an
        *explicitly* declared topic with conflicting latency or discipline
        raises :class:`BusError` — channel configuration is the model, so
        two components silently disagreeing about a hop's latency would
        corrupt the experiment.
        """
        existing = self._channels.get(topic)
        if existing is not None:
            if not existing.configured:
                existing._configure(latency, label, discipline)
                existing.configured = True
            elif existing.latency != latency or existing.discipline != discipline:
                claimant = label if label is not None else f"bus:{topic}"
                raise BusError(
                    f"channel {topic!r} already declared as "
                    f"{existing.discipline}/{existing.latency}s by "
                    f"{existing.label!r}; conflicting redeclaration "
                    f"{discipline}/{latency}s by {claimant!r}")
            return existing
        created = Channel(self, topic, latency, label, discipline)
        self._channels[topic] = created
        self._attach_faults(created)
        return created

    def _implicit_channel(self, topic: str) -> Channel:
        channel = self._channels.get(topic)
        if channel is None:
            channel = Channel(self, topic, 0.0, None, Discipline.DIRECT,
                              configured=False)
            self._channels[topic] = channel
            self._attach_faults(channel)
        return channel

    def has_channel(self, topic: str) -> bool:
        return topic in self._channels

    def subscribe(self, topic: str, callback: Subscriber,
                  endpoint: Optional[str] = None) -> None:
        """Register a delivery callback; undeclared topics are auto-created
        as direct channels that the owner's later explicit
        :meth:`channel` declaration refines.  ``endpoint`` names the
        subscribing component for partition purposes (None = hear
        everything, even across partitions)."""
        self._implicit_channel(topic).subscribers.append(
            Subscription(callback, endpoint))

    # ------------------------------------------------------------------ faults
    def configure_faults(self, pattern: str,
                         faults: Optional[ChannelFaults] = None,
                         **params: float) -> None:
        """Attach (or replace) a fault profile for every topic matching a
        pattern.  ``configure_faults("routeflow.*", drop=0.05)`` degrades
        every RouteFlow topic; a later call with the same pattern replaces
        the earlier profile, and an all-zero profile removes it.
        """
        profile = faults if faults is not None else ChannelFaults(**params)
        self._fault_profiles = [(p, f) for p, f in self._fault_profiles
                                if p != pattern]
        if profile.active:
            self._fault_profiles.append((pattern, profile))
        self._refresh_faults()

    def clear_faults(self, pattern: Optional[str] = None) -> None:
        """Remove fault profiles: all of them (no argument), or every
        profile whose pattern equals or is matched by ``pattern``."""
        if pattern is None:
            self._fault_profiles = []
        else:
            self._fault_profiles = [
                (p, f) for p, f in self._fault_profiles
                if p != pattern and not fnmatchcase(p, pattern)]
        self._refresh_faults()

    def faults_for(self, topic: str) -> Optional[ChannelFaults]:
        """The fault profile a topic resolves to (last match wins).

        The reliability layer's ``<topic>.ack`` companions inherit the
        data topic's profile, so acknowledgements are exactly as lossy as
        the messages they acknowledge.
        """
        base = topic[:-len(ACK_SUFFIX)] if topic.endswith(ACK_SUFFIX) else topic
        result = None
        for pattern, profile in self._fault_profiles:
            if fnmatchcase(topic, pattern) or fnmatchcase(base, pattern):
                result = profile
        return result

    def _refresh_faults(self) -> None:
        for channel in self._channels.values():
            self._attach_faults(channel)

    def _attach_faults(self, channel: Channel) -> None:
        channel.faults = self.faults_for(channel.topic)
        if channel.faults is not None and channel._fault_rng is None:
            channel._fault_rng = SeededRandom(
                fault_stream_seed(self.fault_seed, channel.topic))

    # -------------------------------------------------------------- partitions
    def partition(self, endpoint_a: str, endpoint_b: str) -> None:
        """Partition two endpoints: messages published at one no longer
        reach subscriptions registered at the other (both directions)."""
        if endpoint_a == endpoint_b:
            raise BusError(f"cannot partition {endpoint_a!r} from itself")
        self._partitions.add(frozenset((endpoint_a, endpoint_b)))

    def heal_partition(self, endpoint_a: Optional[str] = None,
                       endpoint_b: Optional[str] = None) -> None:
        """Heal one partition pair, or every partition (no arguments)."""
        if endpoint_a is None:
            self._partitions.clear()
            return
        self._partitions.discard(frozenset((endpoint_a, endpoint_b)))

    def is_partitioned(self, endpoint_a: Optional[str],
                       endpoint_b: Optional[str]) -> bool:
        if not self._partitions or endpoint_a is None or endpoint_b is None:
            return False
        return frozenset((endpoint_a, endpoint_b)) in self._partitions

    @property
    def partitions(self) -> List[Tuple[str, str]]:
        return sorted(tuple(sorted(pair)) for pair in self._partitions)

    # ------------------------------------------------------------- reliability
    def enable_reliability(self, policies=None) -> None:
        """Turn on the reliable-delivery layer for the critical topics.

        ``policies`` is an ordered sequence of ``(topic_pattern, policy)``
        pairs (see :mod:`repro.bus.reliable`; default: the critical
        RouteFlow topics).  Publishers and consumers constructed through
        :func:`repro.bus.reliable.acquire_publisher` / ``consume`` consult
        this table at construction time, so enable reliability before
        building the components.
        """
        from repro.bus.reliable import DEFAULT_POLICIES
        self._reliability = list(DEFAULT_POLICIES if policies is None
                                 else policies)

    def reliability_for(self, topic: str):
        """The reliability policy for a topic, or None (last match wins).
        Ack companion topics are never themselves reliable."""
        if topic.endswith(ACK_SUFFIX):
            return None
        result = None
        for pattern, policy in self._reliability:
            if fnmatchcase(topic, pattern):
                result = policy
        return result

    @property
    def reliable(self) -> bool:
        return bool(self._reliability)

    # ----------------------------------------------------------------- publish
    def publish(self, topic: str, payload: str, label: Optional[str] = None,
                latency: Optional[float] = None, sender: str = "",
                endpoint: Optional[str] = None) -> Envelope:
        """Publish a serialised message on a topic.

        ``label`` overrides the channel's kernel-event label for this one
        message (the seed's hop labels are per-publisher, e.g.
        ``rfclient:<vm>:routemod``, and the golden traces pin them).
        ``latency`` overrides the channel latency for delay channels.
        ``endpoint`` names the publishing component for partition purposes
        (default: the sender label).
        """
        channel = self._implicit_channel(topic)
        envelope = Envelope(topic=topic, seq=self._next_seq, sender=sender,
                            published_at=self.sim.now, payload=payload)
        self._next_seq += 1
        channel.published += 1
        channel.bytes_published += envelope.size_bytes
        source = endpoint if endpoint is not None else (sender or None)
        faults = channel.faults
        copies = 1
        if faults is not None:
            rng = channel._fault_rng
            if faults.drop and rng.random() < faults.drop:
                channel.dropped_fault += 1
                return envelope
            if faults.duplicate and rng.random() < faults.duplicate:
                copies = 2
                channel.fault_duplicated += 1
        if channel.discipline == Discipline.DIRECT:
            for _ in range(copies):
                extra = self._fault_delay(channel)
                if extra > 0.0:
                    # The fault model is the only thing that can turn a
                    # direct hop into a scheduled one; the default path
                    # stays synchronous and schedules nothing.
                    self.sim.schedule(
                        extra, self._deliver, channel, envelope, source,
                        label=label if label is not None else channel.label)
                else:
                    self._deliver(channel, envelope, source)
            return envelope
        hop_latency = channel.latency if latency is None else latency
        event_label = label if label is not None else channel.label
        for _ in range(copies):
            self.sim.schedule(hop_latency + self._fault_delay(channel),
                              self._deliver, channel, envelope, source,
                              label=event_label)
        return envelope

    def _fault_delay(self, channel: Channel) -> float:
        faults = channel.faults
        if faults is None:
            return 0.0
        extra = 0.0
        rng = channel._fault_rng
        if faults.jitter:
            extra += rng.uniform(0.0, faults.jitter)
        if faults.reorder and rng.random() < faults.reorder:
            channel.fault_reordered += 1
            extra += rng.uniform(0.0, faults.reorder_delay)
        return extra

    def _deliver(self, channel: Channel, envelope: Envelope,
                 source: Optional[str] = None) -> None:
        if not channel.subscribers:
            channel.dropped_no_subscriber += 1
            return
        eligible = channel.subscribers
        if self._partitions and source is not None:
            eligible = [subscription for subscription in channel.subscribers
                        if not self.is_partitioned(source,
                                                   subscription.endpoint)]
            suppressed = len(channel.subscribers) - len(eligible)
            if suppressed:
                channel.partitioned += suppressed
            if not eligible:
                channel.dropped_fault += 1
                return
        channel.delivered += 1
        channel.bytes_delivered += envelope.size_bytes
        for subscription in list(eligible):
            subscription(envelope)

    # ------------------------------------------------------------------- stats
    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per-topic counter snapshot, plus aggregate totals."""
        report = {topic: channel.snapshot()
                  for topic, channel in sorted(self._channels.items())}
        channels = list(self._channels.values())
        totals = {name: sum(getattr(c, name) for c in channels)
                  for name in COUNTERS}
        totals["dropped"] = sum(c.dropped for c in channels)
        totals["topics"] = len(channels)
        report["_totals"] = totals
        return report

    def __repr__(self) -> str:
        return f"<MessageBus {self.name} topics={len(self._channels)}>"
