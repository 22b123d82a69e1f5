"""Per-channel fault models for the control-plane bus.

A perfect IPC transport hides the central problem distributed controllers
have to solve: the wires between components lose, duplicate, delay and
reorder messages, and whole component pairs can be partitioned from each
other.  :class:`ChannelFaults` describes the imperfection of one channel
as independent per-message probabilities plus bounded extra delays; the
bus applies it at publish time, drawing from a per-channel seeded RNG so a
lossy run is exactly reproducible from ``(fault profile, seed)``.

The model is deliberately per-message, not per-byte: the bus carries whole
JSON payloads, so the unit of loss is the message, matching what a ZeroMQ
PUB/SUB hop or a UDP-based IPC would drop.

Fault profiles attach to channels by topic *pattern* (``fnmatch`` syntax,
e.g. ``routeflow.*``); the reliability layer's ``<topic>.ack`` channels
inherit their data topic's profile, so acks are exactly as lossy as the
messages they acknowledge.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Any, Mapping


@dataclass(frozen=True)
class ChannelFaults:
    """The fault model of one channel (all probabilities independent).

    ``drop``/``duplicate``/``reorder`` are per-message probabilities;
    ``jitter`` adds a uniform extra delay in ``[0, jitter]`` seconds to
    every delivery, and a message selected for reordering is additionally
    delayed by up to ``reorder_delay`` seconds — enough to leapfrog
    messages published closely behind it.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    jitter: float = 0.0
    reorder_delay: float = 0.05

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "reorder"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"fault probability {name} must be in [0, 1], got {value}")
        for name in ("jitter", "reorder_delay"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value < 0.0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    @property
    def active(self) -> bool:
        """Does this profile perturb the channel at all?"""
        return bool(self.drop or self.duplicate or self.reorder or self.jitter)

    @property
    def max_extra_delay(self) -> float:
        """Worst-case extra delivery delay the model can add to one hop.

        The failure detector derives its takeover deadline from this, so a
        heartbeat that is delayed-but-delivered never looks like silence.
        """
        return self.jitter + (self.reorder_delay if self.reorder else 0.0)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ChannelFaults":
        known = {"drop", "duplicate", "reorder", "jitter", "reorder_delay"}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown fault parameters {sorted(unknown)}; "
                f"known: {sorted(known)}")
        return cls(**{key: float(value) for key, value in payload.items()})


def fault_stream_seed(base_seed: int, topic: str) -> int:
    """Derive a per-channel RNG seed from the bus fault seed and the topic.

    Uses CRC32, not ``hash()``: string hashing is salted per process
    (PYTHONHASHSEED), and fault schedules must replay identically across
    processes and runs.
    """
    return (int(base_seed) ^ zlib.crc32(topic.encode("utf-8"))) & 0x7FFFFFFF
