"""The OpenFlow control channel.

In the paper's testbed the channel is a TCP connection from each Open
vSwitch instance to FlowVisor (and from FlowVisor on to the controllers).
Here it is modelled as a reliable, ordered byte-message channel with a
configurable one-way latency.  Both ends exchange *encoded* OpenFlow
messages (bytes), so every message crosses the real codec on both sides.

An endpoint is any object implementing ``channel_receive(channel, data)``.
"""

from __future__ import annotations

import logging
from typing import Optional, Protocol

from repro.sim import Simulator

LOG = logging.getLogger(__name__)


class ChannelEndpoint(Protocol):
    """Structural type for objects attached to a control channel."""

    def channel_receive(self, channel: "ControlChannel", data: bytes) -> None:
        """Handle an OpenFlow message arriving on the channel."""

    def channel_closed(self, channel: "ControlChannel") -> None:
        """Notification that the peer closed the channel."""


class ControlChannel:
    """A bidirectional, reliable control channel between two endpoints."""

    def __init__(self, sim: Simulator, latency: float = 0.002, name: str = "") -> None:
        self.sim = sim
        self.latency = latency
        self.name = name or "channel"
        self._event_label = f"ofchan:{self.name}"
        self.endpoint_a: Optional[ChannelEndpoint] = None
        self.endpoint_b: Optional[ChannelEndpoint] = None
        self.open = False
        self.messages_a_to_b = 0
        self.messages_b_to_a = 0

    def connect(self, endpoint_a: ChannelEndpoint, endpoint_b: ChannelEndpoint) -> None:
        """Attach both endpoints and open the channel."""
        self.endpoint_a = endpoint_a
        self.endpoint_b = endpoint_b
        self.open = True

    def peer_of(self, endpoint: ChannelEndpoint) -> Optional[ChannelEndpoint]:
        if endpoint is self.endpoint_a:
            return self.endpoint_b
        if endpoint is self.endpoint_b:
            return self.endpoint_a
        raise ValueError("endpoint is not attached to this channel")

    def send(self, sender: ChannelEndpoint, data: bytes) -> bool:
        """Send an encoded OpenFlow message to the other endpoint."""
        if not self.open:
            return False
        peer = self.peer_of(sender)
        if peer is None:
            return False
        if sender is self.endpoint_a:
            self.messages_a_to_b += 1
        else:
            self.messages_b_to_a += 1
        self.sim.schedule(self.latency, self._deliver, peer, data,
                          label=self._event_label)
        return True

    def _deliver(self, peer: ChannelEndpoint, data: bytes) -> None:
        if not self.open:
            return
        peer.channel_receive(self, data)

    def close(self) -> None:
        """Close the channel and notify both ends."""
        if not self.open:
            return
        self.open = False
        for endpoint in (self.endpoint_a, self.endpoint_b):
            if endpoint is not None and hasattr(endpoint, "channel_closed"):
                self.sim.call_soon(endpoint.channel_closed, self)

    def __repr__(self) -> str:
        state = "open" if self.open else "closed"
        return f"<ControlChannel {self.name} {state} latency={self.latency * 1e3:.1f}ms>"
