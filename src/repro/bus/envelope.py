"""What the control-plane bus carries: envelopes and their payloads.

An :class:`Envelope` wraps one serialised control-plane message with the
bus-level metadata every hop needs: the topic it was published on, a
per-bus sequence number (total publish order, which is also the delivery
tie-break at equal timestamps), the publishing component and the publish
time.  The payload stays a JSON string so the bus carries bytes rather
than live Python objects, exactly like the ZeroMQ/MongoDB channels of the
original RouteFlow IPC.

Every payload family is a :class:`Message`: a dataclass whose ``KIND``
tags its JSON object — the RouteFlow vocabulary of
:mod:`repro.routeflow.ipc` (RouteMods, mapping records, heartbeats,
takeovers, port-status relays) and the configuration messages of
:mod:`repro.core.config_messages`.  :func:`decode` is the one decoder for
all of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import ClassVar, Dict, Type, TypeVar

from repro.net.packet import DecodeError


@dataclass(frozen=True)
class Envelope:
    """One message in flight on the bus."""

    topic: str
    seq: int
    sender: str
    published_at: float
    payload: str

    @property
    def size_bytes(self) -> int:
        """Payload size as counted by the per-topic byte counters."""
        return len(self.payload)


#: ``kind`` tag -> message class, filled as each tagged class is defined.
_KINDS: Dict[str, Type["Message"]] = {}

M = TypeVar("M", bound="Message")


class Message:
    """A bus payload: a dataclass tagged with its ``KIND``.

    A subclass that sets ``KIND`` is registered with :func:`decode` when it
    is defined; one that does not (a family base such as
    :class:`~repro.core.config_messages.ConfigMessage`) only groups its
    subclasses for :meth:`from_json`.  An instance holds nothing but its
    dataclass fields, which are what :meth:`to_json` writes.
    """

    KIND: ClassVar[str]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "KIND" in cls.__dict__:
            _KINDS[cls.KIND] = cls

    def to_json(self) -> str:
        """The fields and the ``kind`` tag as one JSON object, keys sorted."""
        return json.dumps({**vars(self), "kind": self.KIND}, sort_keys=True)

    @classmethod
    def from_json(cls: Type[M], text: str) -> M:
        """:func:`decode` a payload that must be of this class."""
        message = decode(text)
        if not isinstance(message, cls):
            raise DecodeError(f"not a {cls.__name__} payload: {text!r}")
        return message


def decode(text: str) -> Message:
    """The message a payload carries, chosen by its ``kind`` tag.

    Raises :class:`~repro.net.packet.DecodeError`, and nothing else, for
    text that is not a JSON object, a missing, non-string or unknown
    ``kind``, and missing or extra fields.
    """
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DecodeError(f"payload is not JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DecodeError(f"payload is not a JSON object: {text!r}")
    kind = data.pop("kind", None)
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise DecodeError(f"unknown payload kind: {kind!r}")
    try:
        return cls(**data)
    except TypeError as exc:
        raise DecodeError(f"bad fields for {kind}: {exc}") from exc
