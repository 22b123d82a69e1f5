"""ICMP reachability probing between emulated hosts."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.net.addresses import IPv4Address
from repro.net.host import Host
from repro.sim import PeriodicTask, Simulator


@dataclass
class PingStats:
    """Results of a ping run."""

    sent: int = 0
    received: int = 0
    rtts: List[float] = field(default_factory=list)
    first_reply_time: Optional[float] = None

    @property
    def loss_ratio(self) -> float:
        if self.sent == 0:
            return 0.0
        return 1.0 - (self.received / self.sent)

    @property
    def mean_rtt(self) -> float:
        if not self.rtts:
            return 0.0
        return sum(self.rtts) / len(self.rtts)


class PingApp:
    """Sends periodic ICMP echo requests and correlates the replies."""

    def __init__(self, sim: Simulator, host: Host, target: IPv4Address,
                 interval: float = 1.0) -> None:
        self.sim = sim
        self.host = host
        self.target = IPv4Address(target)
        self.stats = PingStats()
        self._sent_times: dict = {}
        self._sequence = 0
        self._seen_replies = 0
        self._task = PeriodicTask(sim, interval, self._send_ping,
                                  name=f"ping:{host.name}")

    def start(self) -> None:
        self._task.start(fire_immediately=True)

    def _send_ping(self) -> None:
        self._collect_replies()
        self._sequence += 1
        identifier = self.host.ping(self.target, sequence=self._sequence)
        self._sent_times[identifier] = self.sim.now
        self.stats.sent += 1

    def _collect_replies(self) -> None:
        replies = self.host.echo_replies
        for when, source, identifier in replies[self._seen_replies:]:
            if source != self.target:
                continue
            sent_at = self._sent_times.pop(identifier, None)
            if sent_at is None:
                continue
            self.stats.received += 1
            self.stats.rtts.append(when - sent_at)
            if self.stats.first_reply_time is None:
                self.stats.first_reply_time = when
        self._seen_replies = len(replies)

    def finish(self) -> PingStats:
        """Collect any outstanding replies and return the statistics."""
        self._collect_replies()
        return self.stats
