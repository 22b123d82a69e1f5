"""At-least-once delivery with idempotent consumption over the lossy bus.

The bus can now drop, duplicate, delay and reorder messages
(:mod:`repro.bus.faults`).  This module restores the delivery guarantee
the RouteFlow components actually need — *exactly-once, in-order
application per sender* — with the classic recipe:

Publisher (:class:`ReliablePublisher`)
    Every message is wrapped in a sequence-numbered envelope and tracked
    until an acknowledgement returns on the ``<topic>.ack`` companion
    channel.  A missing ack retransmits the wrapper after a timeout with
    exponential backoff; a publisher that exhausts its retransmit budget
    drops the pending window, starts a fresh *incarnation* and fires its
    ``on_exhausted`` escape hatch (the RouteFlow components hook
    ``RFClient.resync()`` there, restoring state wholesale when the
    protocol cannot).

Consumer (:class:`ReliableConsumer`)
    Keeps one stream per ``(sender, incarnation)``: duplicates are
    re-acked and discarded, out-of-order messages within a bounded window
    are buffered and released in sequence, and anything beyond the window
    is left un-acked so the publisher's retransmit brings it back when
    the window has advanced.  The consumer's callback therefore observes
    each message exactly once, in publish order.

Two policy modes cover the topics:

``ack``
    The full protocol above.  Used for the topics whose loss corrupts
    state: ``route_mods.*``, ``flow_specs.*``, ``routeflow.mapping``,
    ``config.rpc``.

``seq``
    Sequence-numbered but unacknowledged: the consumer drops stale and
    duplicate messages but nothing retransmits.  Used for
    ``routeflow.heartbeat``, where a lost beat is naturally repaired by
    the next one and retransmitting old beats would defeat the failure
    detector.

Reliability is *off* by default.  When a bus has no reliability table
(:meth:`MessageBus.enable_reliability` not called) or a topic matches no
policy, :func:`acquire_publisher` and :func:`consume` degrade to
passthrough shims whose publish/subscribe calls are bit-identical to the
bare bus — the golden traces pin that no wrapper bytes, ack channels or
timers exist on the default path.

Cost follows messages, not subscribers: every RFClient on a RouteMod topic
subscribes to the one shared ``.ack`` topic, and each ack envelope is
JSON-parsed once (:func:`~repro.bus.envelope.parse_ack`), however many
publishers share the topic.
"""

from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.bus.bus import ACK_SUFFIX, Channel, MessageBus
from repro.bus.envelope import (
    RMSG_KIND, Envelope, ack_payload, parse_ack, wrap)

LOG = logging.getLogger(__name__)

#: Factor the retransmission timeout grows by per attempt.
RTO_BACKOFF = 2.0


@dataclass(frozen=True)
class ReliablePolicy:
    """How the reliable layer treats one topic pattern.

    ``window`` bounds the consumer's reorder buffer *and* the publisher's
    unacked pipeline; ``max_retries`` is the retransmit budget per
    message beyond the first send.  The retransmission timeout starts at
    a multiple of the observed channel round trip (floored at
    ``min_rto``), multiplies by :data:`RTO_BACKOFF` per attempt and caps at
    ``max_rto`` — with the defaults a message is retried for ~55 s of
    simulated time before the publisher declares exhaustion, which
    outlives every partition the chaos harness injects.
    """

    mode: str = "ack"
    window: int = 64
    max_retries: int = 16
    min_rto: float = 0.05
    max_rto: float = 5.0

    def __post_init__(self) -> None:
        if self.mode not in ("ack", "seq"):
            raise ValueError(f"unknown reliability mode {self.mode!r}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}")


#: The critical-topic table from the issue: everything whose loss corrupts
#: component state rides the full ack protocol; heartbeats are
#: freshness-only.  Ordered, last match wins.
DEFAULT_POLICIES: Tuple[Tuple[str, ReliablePolicy], ...] = (
    ("routeflow.route_mods.*", ReliablePolicy(mode="ack")),
    ("routeflow.flow_specs.*", ReliablePolicy(mode="ack")),
    ("routeflow.mapping", ReliablePolicy(mode="ack")),
    ("routeflow.port_status", ReliablePolicy(mode="ack")),
    ("config.rpc", ReliablePolicy(mode="ack")),
    ("routeflow.heartbeat", ReliablePolicy(mode="seq")),
)


def ack_topic(topic: str) -> str:
    return topic + ACK_SUFFIX


def _ensure_ack_channel(bus: MessageBus, topic: str) -> None:
    """Declare the ack companion channel, mirroring the data channel.

    Acks travel the same wire as data, so they share the data channel's
    discipline and latency (and, via the bus's fault resolution, its
    fault profile).  Safe to call from both ends: a second declaration
    with identical parameters is a no-op fetch.
    """
    data = bus._implicit_channel(topic)
    if data.configured:
        bus.channel(ack_topic(topic), latency=data.latency,
                    label=f"ack:{topic}", discipline=data.discipline)
    else:
        # The data channel itself is still implicit (direct/0); leave the
        # ack channel implicit too so a later owner declaration of the
        # data topic can be mirrored by whoever publishes next.
        bus._implicit_channel(ack_topic(topic))


class PassthroughPublisher:
    """The no-reliability shim: publish calls hit the bus unchanged."""

    is_reliable = False

    def __init__(self, bus: MessageBus, topic: str, sender: str,
                 endpoint: Optional[str] = None) -> None:
        self.bus = bus
        self.topic = topic
        self.sender = sender
        self.endpoint = endpoint

    def publish(self, payload: str, label: Optional[str] = None,
                latency: Optional[float] = None) -> Envelope:
        return self.bus.publish(self.topic, payload, label=label,
                                latency=latency, sender=self.sender,
                                endpoint=self.endpoint)

    def retarget(self, topic: str) -> None:
        """Repoint at another topic (client migration between shards)."""
        self.topic = topic


class _PendingSend:
    """One unacked message on a publisher: payload plus its retry state."""

    __slots__ = ("seq", "payload", "label", "latency", "attempts", "timer")

    def __init__(self, seq: int, payload: str, label: Optional[str],
                 latency: Optional[float]) -> None:
        self.seq = seq
        self.payload = payload
        self.label = label
        self.latency = latency
        self.attempts = 0
        self.timer = None


class ReliablePublisher:
    """Sequence-numbered, acknowledged, retransmitting publisher.

    Transmission is window-flow-controlled: at most ``policy.window``
    messages ride the wire unacked, and nothing with a sequence number at
    or beyond ``lowest_unacked + window`` is transmitted (messages queue
    locally instead).  The consumer's in-order watermark can never trail
    the publisher's lowest unacked message, so a flow-controlled sender
    never triggers the consumer's out-of-window refusal — without this, a
    boot-time burst of thousands of messages over a lossy channel
    collapses into a retransmit storm (every message beyond the first gap
    is refused, retried on backoff, refused again...).
    """

    is_reliable = True

    def __init__(self, bus: MessageBus, topic: str, sender: str,
                 policy: ReliablePolicy, endpoint: Optional[str] = None,
                 on_exhausted: Optional[Callable[[], None]] = None) -> None:
        self.bus = bus
        self.topic = topic
        self.sender = sender
        self.policy = policy
        self.endpoint = endpoint
        self.on_exhausted = on_exhausted
        self.incarnation = 1
        #: First sequence number of the current incarnation — tells the
        #: consumer where the stream starts even when the first message
        #: it sees arrived out of order.
        self.base_seq = 1
        self._next_seq = 1
        self._pending: Dict[int, _PendingSend] = {}
        #: Messages acked *out of order* — the consumer buffered them
        #: behind a gap, so an ack proves receipt but not application.
        #: Kept until every lower sequence number is acked (which proves
        #: the consumer's in-order watermark passed them) so retarget()
        #: can re-offer them to a new shard; bounded by ``window``.
        self._retained: Dict[int, _PendingSend] = {}
        #: Messages awaiting a transmission slot (window flow control).
        self._queue: Deque[_PendingSend] = deque()
        if policy.mode == "ack":
            self._subscribe_acks(topic)

    def _subscribe_acks(self, topic: str) -> None:
        """Listen for acks on ``topic``'s companion, the one ack topic
        this publisher hears."""
        _ensure_ack_channel(self.bus, topic)
        self.bus.subscribe(ack_topic(topic), self._on_ack,
                           endpoint=self.endpoint)

    # ----------------------------------------------------------------- publish
    def publish(self, payload: str, label: Optional[str] = None,
                latency: Optional[float] = None) -> Optional[Envelope]:
        """Send (or queue) one message; returns the bus envelope when the
        message went out immediately, None when flow control queued it."""
        seq = self._next_seq
        self._next_seq += 1
        if self.policy.mode != "ack" or not self._channel().subscribers:
            # seq mode never tracks; neither does publishing into the void
            # (e.g. mapping records in a single-controller deployment with
            # no coordinator listening): nothing will ever ack, so tracking
            # would retransmit forever.  The bus counts the drop;
            # at-least-once only holds between live endpoints.
            wrapper = wrap(self.sender, self.incarnation, self.base_seq,
                           seq, payload)
            envelope = self.bus.publish(self.topic, wrapper, label=label,
                                        latency=latency, sender=self.sender,
                                        endpoint=self.endpoint)
            if (self.policy.mode == "ack" and not self._pending
                    and not self._queue):
                # The untracked seq was dropped into the void; a consumer
                # subscribing later must not wait for it.  Restart the
                # stream just past it so the next tracked message carries
                # base == its own seq.
                self.base_seq = self._next_seq
            return envelope
        pending = _PendingSend(seq, payload, label, latency)
        if self._queue or not self._may_transmit(seq):
            self._queue.append(pending)
            return None
        return self._transmit(pending)

    def _may_transmit(self, seq: int) -> bool:
        floor = min(self._pending) if self._pending else seq
        return seq < floor + self.policy.window

    def _transmit(self, pending: _PendingSend) -> Optional[Envelope]:
        # Track *before* publishing: on a direct channel the consumer's ack
        # comes back synchronously, inside this very publish call.
        pending.attempts = 1
        self._pending[pending.seq] = pending
        wrapper = wrap(self.sender, self.incarnation, self.base_seq,
                       pending.seq, pending.payload)
        envelope = self.bus.publish(self.topic, wrapper, label=pending.label,
                                    latency=pending.latency,
                                    sender=self.sender, endpoint=self.endpoint)
        if pending.seq in self._pending:
            self._arm(pending)
        return envelope

    def _pump(self) -> None:
        """Transmit queued messages as acks open window slots."""
        while self._queue and self._may_transmit(self._queue[0].seq):
            self._transmit(self._queue.popleft())

    @property
    def pending(self) -> int:
        """Unacked backlog: in flight plus queued behind the window."""
        return len(self._pending) + len(self._queue)

    # ------------------------------------------------------------ retransmits
    def _channel(self) -> Channel:
        return self.bus._implicit_channel(self.topic)

    def _rto(self, attempts: int) -> float:
        data = self._channel()
        ack = self.bus._implicit_channel(ack_topic(self.topic))
        round_trip = (data.latency + ack.latency
                      + data.max_fault_delay() + ack.max_fault_delay())
        rto = max(self.policy.min_rto, 4.0 * round_trip)
        rto *= RTO_BACKOFF ** (attempts - 1)
        return min(rto, self.policy.max_rto)

    def _arm(self, pending: _PendingSend) -> None:
        pending.timer = self.bus.sim.schedule(
            self._rto(pending.attempts), self._on_timeout, self.incarnation,
            pending.seq, label=f"rto:{self.topic}")

    def _on_timeout(self, incarnation: int, seq: int) -> None:
        if incarnation != self.incarnation:
            return
        pending = self._pending.get(seq)
        if pending is None:
            return
        if pending.attempts > self.policy.max_retries:
            self._exhaust()
            return
        pending.attempts += 1
        self._channel().retransmits += 1
        wrapper = wrap(self.sender, self.incarnation, self.base_seq, seq,
                       pending.payload)
        self.bus.publish(self.topic, wrapper, label=pending.label,
                         latency=pending.latency, sender=self.sender,
                         endpoint=self.endpoint)
        if seq in self._pending:   # a direct-channel ack lands synchronously
            self._arm(pending)

    def _exhaust(self) -> None:
        """Give up on the pending window: new incarnation + escape hatch.

        The pending messages are *not* re-published — under a dead or
        fully partitioned channel that would loop forever.  Recovery is
        the ``on_exhausted`` hook's job (the components wire a full
        resync there), which regenerates current state rather than
        replaying a stale window.
        """
        LOG.warning("%s: retransmit budget exhausted with %d pending, "
                    "starting incarnation %d", self.topic,
                    self.pending, self.incarnation + 1)
        for pending in self._pending.values():
            if pending.timer is not None:
                pending.timer.cancel()
        self._pending.clear()
        self._retained.clear()
        self._queue.clear()
        self._channel().exhausted += 1
        self.incarnation += 1
        self.base_seq = self._next_seq
        if self.on_exhausted is not None:
            self.on_exhausted()

    # -------------------------------------------------------------------- acks
    def _on_ack(self, envelope: Envelope) -> None:
        ack = parse_ack(envelope)
        if ack is None or ack[0] != self.sender or ack[1] != self.incarnation:
            return
        pending = self._pending.pop(ack[2], None)
        if pending is None:
            return
        if pending.timer is not None:
            pending.timer.cancel()
        self._channel().acked += 1
        # An ack proves receipt; application is only proven once every
        # lower seq is acked too (the consumer applies in order).  Retain
        # the message until then in case a retarget has to re-offer it.
        self._retained[pending.seq] = pending
        floor = min(self._pending) if self._pending else None
        if floor is None:
            self._retained.clear()
        else:
            for seq in [seq for seq in self._retained if seq < floor]:
                del self._retained[seq]
        self._pump()

    # --------------------------------------------------------------- retarget
    def retarget(self, topic: str) -> None:
        """Repoint at another topic, carrying the in-doubt window along.

        Used when a client migrates between shards: every message the old
        shard has not provably *applied* — unacked, queued, or acked out
        of order (received into the old consumer's reorder buffer but
        stuck behind a gap, hence never handed to its callback) — is
        re-published to the new one under a fresh incarnation
        (at-least-once across the migration; component-level idempotence
        absorbs any the old shard did apply).

        The carried messages are renumbered contiguously from
        ``_next_seq``: keeping old numbers would leave permanent holes at
        the seqs the old shard acked, wedging the new consumer's in-order
        watermark forever while everything later sat acked in its buffer.
        """
        if topic == self.topic:
            return
        resend = sorted(list(self._pending.values())
                        + list(self._retained.values()) + list(self._queue),
                        key=lambda pending: pending.seq)
        for pending in resend:
            if pending.timer is not None:
                pending.timer.cancel()
        self._pending.clear()
        self._retained.clear()
        self._queue.clear()
        if self.policy.mode == "ack":
            self.bus.unsubscribe(ack_topic(self.topic), self._on_ack)
            self._subscribe_acks(topic)
        self.topic = topic
        self.incarnation += 1
        self.base_seq = self._next_seq
        for offset, old in enumerate(resend):
            self._queue.append(
                _PendingSend(self.base_seq + offset, old.payload, old.label,
                             old.latency))
        self._next_seq = self.base_seq + len(resend)
        self._pump()


class _Stream:
    """Consumer-side state of one sender's current incarnation."""

    __slots__ = ("incarnation", "expected", "buffer")

    def __init__(self, incarnation: int, expected: int) -> None:
        self.incarnation = incarnation
        self.expected = expected
        self.buffer: Dict[int, Envelope] = {}


class ReliableConsumer:
    """Per-sender dedup + reorder window in front of a delivery callback.

    The callback observes each sender's messages exactly once, in
    sequence order, with the wrapper stripped (the envelope it receives
    carries the original inner payload).  ``active`` gates consumption: a
    failed component neither applies nor acks, so the publisher keeps the
    messages pending until a live consumer (or exhaustion-resync) takes
    over.
    """

    def __init__(self, bus: MessageBus, topic: str,
                 callback: Callable[[Envelope], None],
                 policy: ReliablePolicy,
                 endpoint: Optional[str] = None,
                 active: Optional[Callable[[], bool]] = None) -> None:
        self.bus = bus
        self.topic = topic
        self.callback = callback
        self.policy = policy
        self.endpoint = endpoint
        self.active = active
        self._streams: Dict[str, _Stream] = {}
        if policy.mode == "ack":
            _ensure_ack_channel(bus, topic)
        bus.subscribe(topic, self._on_message, endpoint=endpoint)

    def _channel(self) -> Channel:
        return self.bus._implicit_channel(self.topic)

    def _ack(self, src: str, incarnation: int, seq: int) -> None:
        if self.policy.mode != "ack":
            return
        self.bus.publish(ack_topic(self.topic),
                         ack_payload(src, incarnation, seq),
                         sender=self.endpoint or f"consumer:{self.topic}",
                         endpoint=self.endpoint)

    def _on_message(self, envelope: Envelope) -> None:
        if self.active is not None and not self.active():
            # A dead consumer must not ack: the publisher keeps the
            # message pending for whoever is alive when it retransmits.
            return
        try:
            message = json.loads(envelope.payload)
        except (TypeError, ValueError):
            message = None
        if (not isinstance(message, dict)
                or message.get("kind") != RMSG_KIND):
            # Unwrapped traffic from a passthrough publisher (mixed-mode
            # deployments, tests poking the bus directly): hand it
            # through untouched.
            self.callback(envelope)
            return
        src = message["src"]
        incarnation = message["inc"]
        stream = self._streams.get(src)
        if stream is None or incarnation > stream.incarnation:
            if stream is not None and stream.buffer:
                # The publisher gave up on (or migrated away from) the
                # old incarnation; flush what we already acked so those
                # messages are not lost, then start the new stream.
                for old_seq in sorted(stream.buffer):
                    self.callback(stream.buffer[old_seq])
            stream = _Stream(incarnation, message["base"])
            self._streams[src] = stream
        elif incarnation < stream.incarnation:
            self._channel().rx_stale += 1
            return
        self._accept(envelope, message, stream)

    def _accept(self, envelope: Envelope, message: Dict,
                stream: _Stream) -> None:
        """Deduplicate, reorder and acknowledge one wrapped message."""
        src = message["src"]
        incarnation = message["inc"]
        seq = message["seq"]
        channel = self._channel()
        if seq < stream.expected:
            channel.rx_duplicates += 1
            self._ack(src, incarnation, seq)
            return
        if seq >= stream.expected + self.policy.window:
            # Beyond the reorder window: refuse (no ack) so the
            # publisher's retransmit re-offers it once the window has
            # advanced past the gap.
            channel.rx_out_of_window += 1
            return
        if seq in stream.buffer:
            channel.rx_duplicates += 1
            self._ack(src, incarnation, seq)
            return
        self._ack(src, incarnation, seq)
        if seq != stream.expected:
            channel.rx_out_of_order += 1
            stream.buffer[seq] = self._unwrapped(envelope, message)
            return
        self.callback(self._unwrapped(envelope, message))
        stream.expected += 1
        while stream.expected in stream.buffer:
            self.callback(stream.buffer.pop(stream.expected))
            stream.expected += 1

    @staticmethod
    def _unwrapped(envelope: Envelope, message: Dict) -> Envelope:
        return Envelope(envelope.topic, envelope.seq, envelope.sender,
                        envelope.published_at, message["payload"])


class _SeqConsumer(ReliableConsumer):
    """Freshness-only consumption for ``seq``-mode topics (heartbeats).

    Nothing retransmits, so in-order buffering would wedge on the first
    lost message; instead anything at least as new as the watermark is
    delivered immediately and the watermark advances past it.  Stale and
    duplicate messages are dropped.
    """

    def _accept(self, envelope: Envelope, message: Dict,
                stream: _Stream) -> None:
        seq = message["seq"]
        channel = self._channel()
        if seq < stream.expected:
            channel.rx_duplicates += 1
            return
        if seq > stream.expected:
            channel.rx_out_of_order += 1
        stream.expected = seq + 1
        self.callback(self._unwrapped(envelope, message))


def acquire_publisher(bus: MessageBus, topic: str, sender: str,
                      endpoint: Optional[str] = None,
                      on_exhausted: Optional[Callable[[], None]] = None):
    """A publisher handle for a topic: reliable when the bus's reliability
    table covers the topic, a passthrough shim otherwise."""
    policy = bus.reliability_for(topic)
    if policy is None:
        return PassthroughPublisher(bus, topic, sender, endpoint=endpoint)
    return ReliablePublisher(bus, topic, sender, policy, endpoint=endpoint,
                             on_exhausted=on_exhausted)


def consume(bus: MessageBus, topic: str,
            callback: Callable[[Envelope], None],
            endpoint: Optional[str] = None,
            active: Optional[Callable[[], bool]] = None):
    """Subscribe a callback, via the reliable layer when the bus's
    reliability table covers the topic (plain ``bus.subscribe``
    otherwise — bit-identical to the pre-reliability wiring)."""
    policy = bus.reliability_for(topic)
    if policy is None:
        bus.subscribe(topic, callback, endpoint=endpoint)
        return None
    consumer_cls = _SeqConsumer if policy.mode == "seq" else ReliableConsumer
    return consumer_cls(bus, topic, callback, policy, endpoint=endpoint,
                        active=active)
