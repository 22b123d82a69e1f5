"""Typed message envelopes carried by the control-plane bus.

An :class:`Envelope` wraps one serialised control-plane message — the JSON
vocabulary established in :mod:`repro.routeflow.ipc` (RouteMods, mapping
records, port-status relays) and :mod:`repro.core.config_messages` — with
the bus-level metadata every hop needs: the topic it was published on, a
per-bus sequence number (total publish order, which is also the delivery
tie-break at equal timestamps), the publishing component and the publish
time.  The payload stays a JSON string so the bus carries bytes rather
than live Python objects, exactly like the ZeroMQ/MongoDB channels of the
original RouteFlow IPC.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


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

    # ---------------------------------------------------------- serialisation
    def to_json(self) -> str:
        return json.dumps({
            "kind": "envelope",
            "topic": self.topic,
            "seq": self.seq,
            "sender": self.sender,
            "published_at": self.published_at,
            "payload": self.payload,
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Envelope":
        data = json.loads(text)
        if data.get("kind") != "envelope":
            raise ValueError(f"not an Envelope payload: {text!r}")
        return cls(topic=data["topic"], seq=int(data["seq"]),
                   sender=data["sender"],
                   published_at=float(data["published_at"]),
                   payload=data["payload"])
