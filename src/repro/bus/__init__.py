"""The explicit control-plane message bus (topics, envelopes, channels)
and the one codec of the messages it carries."""

from repro.bus.bus import BusError, Channel, Discipline, MessageBus
from repro.bus.envelope import Envelope, Message, decode
from repro.bus.faults import ChannelFaults
from repro.bus.reliable import (
    DEFAULT_POLICIES,
    PassthroughPublisher,
    ReliableConsumer,
    ReliablePolicy,
    ReliablePublisher,
    acquire_publisher,
    consume,
)
from repro.bus import topics

__all__ = [
    "BusError",
    "Channel",
    "ChannelFaults",
    "DEFAULT_POLICIES",
    "Discipline",
    "Envelope",
    "Message",
    "MessageBus",
    "PassthroughPublisher",
    "ReliableConsumer",
    "ReliablePolicy",
    "ReliablePublisher",
    "acquire_publisher",
    "consume",
    "decode",
    "topics",
]
