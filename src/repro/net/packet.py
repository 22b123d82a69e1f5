"""Base classes shared by all packet codecs.

Every protocol header in :mod:`repro.net` is a :class:`Header` subclass with
``encode()`` / ``decode()`` byte-accurate serialization plus an optional
``payload`` which is either another :class:`Header` or raw ``bytes``.
Packets travel through the simulated network as real byte strings, exactly
as they would on a wire, so the OpenFlow switch, the LLDP discovery module
and the OSPF daemons all parse genuine frames.
"""

from __future__ import annotations

from typing import Optional, Type, Union

Payload = Union["Header", bytes, None]


class DecodeError(ValueError):
    """Raised when a byte string cannot be parsed as the expected header."""


class Header:
    """Base class for protocol headers.

    Subclasses implement :meth:`encode` (header + encoded payload) and the
    classmethod :meth:`decode` (parse the header and as much of the payload
    as the protocol identifies).
    """

    payload: Payload = None

    # -------------------------------------------------------------- encoding
    def encode(self) -> bytes:  # pragma: no cover - abstract
        raise NotImplementedError

    @classmethod
    def decode(cls, data: bytes) -> "Header":  # pragma: no cover - abstract
        raise NotImplementedError

    # -------------------------------------------------------------- payload

    def find(self, header_type: Type["Header"]) -> Optional["Header"]:
        """Walk the payload chain looking for a header of the given type."""
        current: Payload = self
        while current is not None:
            if isinstance(current, header_type):
                return current
            current = current.payload if isinstance(current, Header) else None
        return None


def as_bytes(payload: Payload) -> bytes:
    """Normalise a payload (Header, bytes or None) to bytes."""
    if payload is None:
        return b""
    if isinstance(payload, Header):
        return payload.encode()
    return bytes(payload)
